"""Experiment harness: simulate | se | stability | limits | phase-diagram.

Configuration is a JSON file (see README for the schema); every run first
writes a manifest echoing the configuration as given, with the master seed,
so that re-running from the manifest reproduces the outputs bit-for-bit. Exit codes: 0 ok, 2 config
error, 3 numerical nonconvergence, 4 interrupted (only phase-diagram keeps
its finished rows for --resume).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .amp import AMPConfig, AMPTrace, DivergenceError, run_symmetric
# KLTable and variational_solve stay importable here: perfbench/tracing.py wraps them by name.
from .limits import (  # noqa: F401
    KLTable,
    SweepRow,
    limits_sweep,
    nodes_per_axis,
    variational_solve,
)
from .model import (
    BlockPriorProfile,
    CouplingSet,
    CouplingValidationError,
    InvalidProfileError,
    ScalarPrior,
    sample_signal,
    synthesize_symmetric,
)
from .se import DomainError, OperatorT, OverlapModel, PrecisionError, run_se
from .stability import FixedPointPreconditionError, classify_fixed_point

VERSION_TAG = f"mvamp-{__version__}"


class ConfigError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")


def _check(ok: bool, path: str, message: str):
    if not ok:
        raise ConfigError(path, message)


def _typed(val, path: str, kind):
    """``val`` under the one strict type rule: bool, int, str and dict take
    exactly that JSON type (a bool is no int), float takes any finite number,
    ``list[T]`` / ``tuple[T, ...]`` an array of ``T``, and np.ndarray a
    rectangular array of finite numbers, returned as floats."""
    origin = typing.get_origin(kind)
    if origin in (list, tuple):
        if isinstance(val, list):
            item = typing.get_args(kind)[0]
            return origin(_typed(v, f"{path}[{i}]", item) for i, v in enumerate(val))
    elif kind is np.ndarray:
        if isinstance(val, list):
            arr = np.array(val, dtype=object)
            return np.array([_typed(v, path, float) for v in arr.flat]).reshape(arr.shape)
    elif kind is float:
        if isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val):
            return float(val)
    elif isinstance(val, kind) and not (kind is int and isinstance(val, bool)):
        return val
    raise ConfigError(path, f"expected {getattr(kind, '__name__', kind)}, got {val!r}")


def _need(section: dict, path: str, key: str, kind):
    if key not in section:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return _typed(section[key], f"{path}.{key}", kind)


def _known(section: dict, path: str, names):
    for key in section:
        _check(key in names, f"{path}.{key}" if path else key, "unknown field")


def _section(raw: dict, name: str, cls):
    """The dataclass ``cls`` filled from ``raw[name]``: each field takes its
    declared type and default, and a key that names no field is an error."""
    section = _typed(raw.get(name, {}), name, dict)
    kinds = typing.get_type_hints(cls)
    _known(section, name, kinds)
    return cls(**{key: _need(section, name, key, kinds[key]) for key in section})


@dataclass
class ModelSection:
    n: int
    profile: BlockPriorProfile
    couplings: CouplingSet


@dataclass
class AmpSection:
    max_iter: int = 20
    rho: float = 0.05
    trials: int = 10
    seed: int = 0
    correction: str = "divergence"

    def __post_init__(self):
        _check(self.max_iter >= 1, "amp.max_iter", "must be >= 1")
        _check(0.0 <= self.rho <= 1.0, "amp.rho", "must lie in [0, 1]")
        _check(self.trials >= 1, "amp.trials", "must be >= 1")
        _check(self.seed >= 0, "amp.seed", "must be >= 0")
        _check(self.correction in ("divergence", "disabled"), "amp.correction",
               "must be 'divergence' or 'disabled'")


@dataclass
class SeSection:
    tol: float = 1e-10
    max_iter: int = 10_000
    quad_order: int = 61

    def __post_init__(self):
        _check(self.tol >= 0, "se.tol", "must be >= 0")
        _check(self.max_iter >= 1, "se.max_iter", "must be >= 1")
        _check(self.quad_order >= 1, "se.quad_order", "must be >= 1")


def _default_target_norms() -> list:
    """40 log-spaced implied-SNR targets on [0.2, 4] with the transition region
    around 1 densified threefold."""
    base = np.geomspace(0.2, 4.0, 40)
    extra = []
    for a, b in zip(base[:-1], base[1:]):
        if 0.8 <= a <= 1.2 or 0.8 <= b <= 1.2:
            extra.extend(np.geomspace(a, b, 4)[1:3])
    return sorted(set(round(float(v), 12) for v in np.concatenate([base, extra])))


def _eps_priors(eps: float) -> list:
    """The two-block sweep profile: Rademacher block 1, BG(eps) block 2."""
    return [ScalarPrior.rademacher(), ScalarPrior.bernoulli_gaussian(eps)]


@dataclass
class SweepSection:
    eps: list[float] = field(default_factory=lambda: [0.05, 0.1, 0.5, 1.0])
    target_norms: list[float] = field(default_factory=_default_target_norms)
    xi: np.ndarray = field(default_factory=lambda: np.array([[0.7, 0.3], [0.3, 0.7]]))
    beta: tuple[float, ...] = (0.6, 0.4)
    n: int = 4000
    trials: int = 10
    grid_res: int = 400

    def __post_init__(self):
        _check(len(self.eps) > 0, "sweep.eps", "needs at least one entry")
        try:  # every sweep profile is Rademacher plus BG(eps) with beta
            profiles = [BlockPriorProfile(tuple(_eps_priors(eps)), self.beta) for eps in self.eps]
        except InvalidProfileError as exc:
            raise ConfigError("sweep", str(exc))
        _check(self.xi.shape == (2, 2) and (self.xi >= 0).all() and (self.xi == self.xi.T).all(),
               "sweep.xi", "must be a symmetric 2x2 matrix with nonnegative entries")
        _check(bool((self.xi > 0).any()), "sweep.xi", "needs a positive entry")
        _check(min(self.target_norms, default=0) > 0, "sweep.target_norms", "need positive entries")
        # limits_sweep flags a transition against the previous target, and
        # --resume keys finished rows by (eps, norm_Tc)
        _check(all(a < b for a, b in zip(self.target_norms, self.target_norms[1:])),
               "sweep.target_norms", "must strictly increase")
        _check(len(set(self.eps)) == len(self.eps), "sweep.eps", "entries must be distinct")
        for key in ("n", "trials"):
            _check(getattr(self, key) >= 1, f"sweep.{key}", "must be >= 1")
        _check(self.grid_res >= 2, "sweep.grid_res", "must be >= 2")
        cap = nodes_per_axis(self.grid_res, 2)  # what the two-block scan would use
        _check(self.grid_res == cap, "sweep.grid_res", f"must be <= {cap}")
        try:
            for profile in profiles:
                profile.block_sizes(self.n)
        except InvalidProfileError as exc:
            raise ConfigError("sweep.n", str(exc))


@dataclass
class OutputSection:
    dir: str = "out"
    svg: bool = False


@dataclass
class ExperimentConfig:
    model: ModelSection | None
    amp: AmpSection
    se: SeSection
    sweep: SweepSection | None
    output: OutputSection
    raw: dict
    seed: int  # the master seed: a manifest's recorded seed, else amp.seed


def _parse_couplings(section: dict, d: int) -> CouplingSet:
    path = "model.couplings"
    kind = _need(section, path, "kind", str) if "kind" in section else "explicit"
    if kind == "explicit":
        _known(section, path, ("kind", "matrices"))
        return CouplingSet(tuple(_need(section, path, "matrices", list[np.ndarray])))
    if kind == "hetero":
        _known(section, path, ("kind", "c", "xi"))
        c = _need(section, path, "c", float)
        xi = _need(section, path, "xi", np.ndarray)
        _check(xi.shape == (d, d) and bool((xi >= 0).all()), f"{path}.xi",
               f"expected a {d}x{d} matrix with nonnegative entries")
        _check(c >= 0, f"{path}.c", "scale must be nonnegative")
        return CouplingSet.heteroskedastic(np.sqrt(c * xi))
    raise ConfigError(f"{path}.kind", f"unknown couplings kind {kind!r}")


def _parse_model(section: dict) -> ModelSection:
    _known(section, "model", ("n", "priors", "beta", "couplings"))
    n = _need(section, "model", "n", int)
    _check(n >= 1, "model.n", "must be a positive integer")
    priors = _need(section, "model", "priors", list[str])
    one_block = len(priors) == 1 and "beta" not in section
    beta = (1.0,) if one_block else _need(section, "model", "beta", tuple[float, ...])
    try:
        profile = BlockPriorProfile(tuple(ScalarPrior.from_name(s) for s in priors), beta)
    except ValueError as exc:  # InvalidProfileError, or a bg:<eps> that is no number
        raise ConfigError("model.priors", str(exc))
    try:
        profile.block_sizes(n)
    except InvalidProfileError as exc:
        raise ConfigError("model.n", str(exc))
    try:
        couplings = _parse_couplings(_need(section, "model", "couplings", dict), profile.d)
    except CouplingValidationError as exc:
        raise ConfigError("model.couplings", str(exc))
    _check(couplings.d == profile.d, "model.couplings", "size inconsistent with priors")
    with np.errstate(over="ignore", invalid="ignore"):
        H = couplings.hadamard_square_sum()
    _check(bool(np.isfinite(H).all()), "model.couplings",
           "sum_k Lambda_k * Lambda_k (entrywise) is not finite")
    return ModelSection(n, profile, couplings)


def resolve_config(raw: dict, source: str = "<config>") -> ExperimentConfig:
    _check(isinstance(raw, dict), source, "top level must be a JSON object")
    seed = None
    if "config" in raw and isinstance(raw["config"], dict):
        # an emitted manifest: its config, run under the seed it recorded
        if "seed" in raw:
            seed = _typed(raw["seed"], "seed", int)
            _check(seed >= 0, "seed", "must be >= 0")
        raw = raw["config"]
    _known(raw, "", ("model", "amp", "se", "sweep", "output"))
    model = _parse_model(_typed(raw["model"], "model", dict)) if "model" in raw else None
    sweep = _section(raw, "sweep", SweepSection) if "sweep" in raw else None
    amp = _section(raw, "amp", AmpSection)
    return ExperimentConfig(model, amp, _section(raw, "se", SeSection), sweep,
                            _section(raw, "output", OutputSection), raw,
                            amp.seed if seed is None else seed)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg)
    return resolve_config(raw, path)


def _write_manifest(out_dir: str, manifest: dict, resume: bool):
    """Write out_dir/manifest.json; to resume, out_dir must hold this manifest already."""
    path = os.path.join(out_dir, "manifest.json")
    if resume:
        try:
            with open(path) as fh:
                old = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("--resume", f"no readable manifest to resume from: {exc}")
        differ = [k for k in manifest if not isinstance(old, dict) or old.get(k) != manifest[k]]
        _check(not differ, "--resume", f"{path} records another {', '.join(differ)}")
        return
    with open(path + ".tmp", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    os.replace(path + ".tmp", path)


def _write_csv(path: str, header: list, rows, append: bool = False):
    """Write ``header`` and ``rows`` to a new file, or append ``rows`` to an
    existing one; each row is flushed as soon as the ``rows`` iterator yields it."""
    with open(path, "a" if append else "w", newline="") as fh:
        wr = csv.writer(fh)
        if not append:
            wr.writerow(header)
        for row in rows:
            wr.writerow(row)
            fh.flush()


def _cut_torn_row(path: str, n_fields: int):
    """Truncate ``path`` before its last line if an interrupted write tore that
    line: it lacks its terminator or has fewer than ``n_fields`` fields."""
    with open(path, "rb+") as fh:
        lines = fh.read().splitlines(keepends=True)
        if lines and (not lines[-1].endswith(b"\n")
                      or len(next(csv.reader([lines[-1].decode()]))) < n_fields):
            fh.truncate(sum(map(len, lines[:-1])))


def _trial_seed(master: int, *tags: int) -> int:
    return int(np.random.SeedSequence([master, *tags]).generate_state(1, np.uint64)[0])


def _fmt(x) -> str:
    return repr(float(x))


def _mean_stderr(samples) -> tuple[np.ndarray, np.ndarray]:
    """Across-trial mean and standard error per column; one trial has stderr 0."""
    a = np.asarray(samples)
    stderr = a.std(axis=0, ddof=1) / np.sqrt(len(a)) if len(a) > 1 else np.zeros(a.shape[1:])
    return a.mean(axis=0), stderr


def _pmap(fn, items, jobs: int):
    """Yield ``fn(item)`` in item order, ``jobs`` items at a time; closing the
    generator cancels the items that have not started."""
    if jobs == 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(fn, items)


def _eps_model(cfg: ExperimentConfig, eps: float) -> OverlapModel:
    """The overlap model of one sweep curve: Rademacher + BG(eps) with sweep.beta."""
    profile = BlockPriorProfile(tuple(_eps_priors(eps)), cfg.sweep.beta)
    return OverlapModel(profile, cfg.se.quad_order)


def _se(cfg: ExperimentConfig, model: OverlapModel, couplings: CouplingSet):
    """State evolution from the amp.rho init with the se.* settings; returns the
    operator T and the trajectory."""
    op = OperatorT(couplings)
    Q1 = np.diag(cfg.amp.rho * model.beta)
    return op, run_se(model, op, Q1, tol=cfg.se.tol, max_iter=cfg.se.max_iter)


def _run_trial(profile: BlockPriorProfile, couplings: CouplingSet, n: int,
               amp: AmpSection, inst_seed: int, run_seed: int) -> AMPTrace:
    """One AMP Monte Carlo trial on a freshly drawn instance."""
    X = sample_signal(profile, n, inst_seed)
    inst = synthesize_symmetric(X, couplings, inst_seed, profile=profile)
    return run_symmetric(inst, AMPConfig(max_iter=amp.max_iter, rho=amp.rho, seed=run_seed,
                                         correction=amp.correction))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_se(cfg: ExperimentConfig, out_dir: str, seed: int) -> int:
    _, traj = _se(cfg, OverlapModel(cfg.model.profile, cfg.se.quad_order), cfg.model.couplings)
    d = cfg.model.profile.d
    header = ["t"] + [f"q_{j + 1}" for j in range(d)] + [f"s_{j + 1}" for j in range(d)]
    rows = ([i + 1] + [_fmt(v) for v in np.concatenate([q, s])]
            + [int(traj.converged), seed, VERSION_TAG]
            for i, (q, s) in enumerate(zip(traj.q, traj.s)))
    _write_csv(os.path.join(out_dir, "se.csv"), header + ["converged", "seed", "version"], rows)
    if not traj.converged:
        print("state evolution did not converge within max_iter", file=sys.stderr)
        return 3
    return 0


def cmd_simulate(cfg: ExperimentConfig, out_dir: str, seed: int, jobs: int) -> int:
    ms, d = cfg.model, cfg.model.profile.d

    def one(trial: int):
        inst_seed = _trial_seed(seed, 0, trial)
        return inst_seed, _run_trial(ms.profile, ms.couplings, ms.n, cfg.amp,
                                     inst_seed, _trial_seed(seed, 1, trial))

    results = list(_pmap(one, range(cfg.amp.trials), jobs))
    traces = [trace for _, trace in results]
    pairs = [f"{a + 1}{b + 1}" for a in range(d) for b in range(d)]
    header = ["trial", "t"] + [f"F_hat_{ab}" for ab in pairs] + [f"Q_hat_{ab}" for ab in pairs]
    header += [f"mse_block_{j + 1}" for j in range(d)]
    rows = ([trial, i] + [_fmt(v) for v in np.concatenate([f.ravel(), q.ravel(), mse])]
            + [inst_seed, VERSION_TAG]
            for trial, (inst_seed, tr) in enumerate(results)
            for i, (f, q, mse) in enumerate(zip(tr.F_hat, tr.Q_hat, tr.mse)))
    _write_csv(os.path.join(out_dir, "trace.csv"), header + ["seed", "version"], rows)
    header = ["t"]
    header += [f"mse_mean_{j + 1}" for j in range(d)]
    header += [f"mse_stderr_{j + 1}" for j in range(d)]
    header += [f"Q_hat_mean_{ab}" for ab in pairs]
    header += ["seed", "version"]
    rows = []
    for i in range(cfg.amp.max_iter + 1):
        mean, stderr = _mean_stderr([tr.mse[i] for tr in traces])
        qh = np.mean([tr.Q_hat[i] for tr in traces], axis=0)
        rows.append([i] + [_fmt(v) for v in np.concatenate([mean, stderr, qh.ravel()])]
                    + [seed, VERSION_TAG])
    _write_csv(os.path.join(out_dir, "aggregate.csv"), header, rows)
    return 0


def cmd_stability(cfg: ExperimentConfig, out_dir: str, seed: int) -> int:
    model = OverlapModel(cfg.model.profile, cfg.se.quad_order)
    op, traj = _se(cfg, model, cfg.model.couplings)
    zero = classify_fixed_point(model, op, np.zeros(cfg.model.profile.d))
    payload = {"zero_point": zero.to_dict(), "version": VERSION_TAG, "seed": seed}
    failure = None
    if not traj.converged:
        failure = "state evolution did not converge within max_iter"
    elif float(np.abs(traj.q_star).max()) > 1e-8:
        try:
            payload["converged_point"] = classify_fixed_point(model, op, traj.q_star).to_dict()
        except FixedPointPreconditionError as exc:
            failure = f"state evolution stopped at se.tol short of its fixed point: {exc}"
    with open(os.path.join(out_dir, "verdict.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    if failure:
        print(failure, file=sys.stderr)
        return 3
    return 0


def cmd_limits(cfg: ExperimentConfig, out_dir: str, seed: int) -> int:
    sw = cfg.sweep
    header = ["eps", "c", "norm_Tc", "q1_star", "q2_star", "mmse_bound_1", "mmse_bound_2",
              "branch_flag", "seed", "version"]
    rows = (
        [_fmt(v) for v in (eps, row.c, row.norm_Tc, *row.q_star, *row.mmse_bounds)]
        + [row.branch_flag, seed, VERSION_TAG]
        for eps in sw.eps
        for row in limits_sweep(_eps_model(cfg, eps), sw.xi, sw.target_norms,
                                grid_res=sw.grid_res)
    )
    _write_csv(os.path.join(out_dir, "limits.csv"), header, rows)
    return 0


def _phase_point(cfg: ExperimentConfig, eps: float, model: OverlapModel, bound: SweepRow,
                 seed: int, idx: int) -> tuple[list, bool]:
    """One (eps, c) CSV row: AMP Monte Carlo and the SE prediction next to the
    variational bound row of the same point, all on the bound's couplings;
    also whether that SE converged."""
    sw = cfg.sweep
    _, traj = _se(cfg, model, bound.couplings)
    se_mse = np.clip(1.0 - traj.q_star / model.beta, 0.0, None)
    mean, stderr = _mean_stderr([
        _run_trial(model.profile, bound.couplings, sw.n, cfg.amp,
                   _trial_seed(seed, idx, trial, 0), _trial_seed(seed, idx, trial, 1)).mse[-1]
        for trial in range(sw.trials)
    ])
    row = (
        [_fmt(eps), _fmt(bound.c), _fmt(bound.norm_Tc)]
        + [_fmt(v) for v in np.concatenate([mean, stderr, se_mse, bound.mmse_bounds])]
        + [bound.branch_flag, seed, VERSION_TAG]
    )
    return row, traj.converged


_PHASE_HEADER = [
    "eps", "c", "norm_Tc",
    "amp_mse_1", "amp_mse_2", "amp_stderr_1", "amp_stderr_2",
    "se_mse_1", "se_mse_2", "mmse_bound_1", "mmse_bound_2",
    "branch_flag", "seed", "version",
]


def cmd_phase_diagram(cfg: ExperimentConfig, out_dir: str, seed: int, jobs: int,
                      resume: bool) -> int:
    sw = cfg.sweep
    path = os.path.join(out_dir, "phase_diagram.csv")
    if resume and os.path.exists(path):
        _cut_torn_row(path, len(_PHASE_HEADER))
    append = resume and os.path.exists(path) and os.path.getsize(path) > 0
    done = set()
    if append:
        with open(path) as fh:
            done = {(float(row["eps"]), float(row["norm_Tc"])) for row in csv.DictReader(fh)}
    unconverged = []

    def rows():
        for e, eps in enumerate(sw.eps):
            pending = [k for k, t in enumerate(sw.target_norms) if (eps, t) not in done]
            if not pending:
                continue
            model = _eps_model(cfg, eps)
            # the pending rows of limits.csv: same table range and transition flag
            bounds = dict(zip(pending, limits_sweep(model, sw.xi, sw.target_norms,
                                                    grid_res=sw.grid_res, indices=pending)))
            # a point's seed index is its 1-based position in the eps x target grid
            points = _pmap(lambda k: _phase_point(cfg, eps, model, bounds[k], seed,
                                                  e * len(sw.target_norms) + k + 1), pending, jobs)
            for k, (row, converged) in zip(pending, points):
                if not converged:
                    unconverged.append((eps, sw.target_norms[k]))
                yield row

    interrupted = False
    try:
        _write_csv(path, _PHASE_HEADER, rows(), append)
        if cfg.output.svg:
            _write_phase_svg(path, os.path.join(out_dir, "phase_diagram.svg"))
    except KeyboardInterrupt:
        interrupted = True
    for eps, target in unconverged:
        print(f"state evolution did not converge within max_iter at eps={eps}, "
              f"norm_Tc={target}", file=sys.stderr)
    return 4 if interrupted else 3 if unconverged else 0


def _write_phase_svg(csv_path: str, svg_path: str):
    """Minimal SVG plot of MSE vs implied SNR, one panel per block: per eps the
    variational bound as a solid line, SE as a dashed line and AMP as points."""
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return
    eps_vals = sorted({float(r["eps"]) for r in rows})
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    W, H, pad = 460, 300, 45
    xs = [float(r["norm_Tc"]) for r in rows]
    x_lo, x_hi = min(xs), max(xs)

    def sx(x):
        return pad + (x - x_lo) / max(x_hi - x_lo, 1e-9) * (W - 2 * pad)

    def sy(y):
        return H - pad - y * (H - 2 * pad)

    body = []
    for blk in (1, 2):
        parts = [
            f'<rect x="{pad}" y="{pad}" width="{W - 2 * pad}" height="{H - 2 * pad}" '
            f'fill="none" stroke="#999"/>',
            f'<text x="{W / 2}" y="16" text-anchor="middle" font-size="12">'
            f"block {blk}: MSE vs implied SNR</text>",
        ]
        for gx in (0.5, 1.0, 2.0, 3.0):
            if x_lo <= gx <= x_hi:
                parts.append(
                    f'<line x1="{sx(gx):.1f}" y1="{pad}" x2="{sx(gx):.1f}" y2="{H - pad}" '
                    f'stroke="#eee"/>'
                    f'<text x="{sx(gx):.1f}" y="{H - pad + 14}" text-anchor="middle" '
                    f'font-size="9">{gx}</text>'
                )
        for ci, eps in enumerate(eps_vals):
            color = palette[ci % len(palette)]
            sub = sorted(
                (r for r in rows if float(r["eps"]) == eps),
                key=lambda r: float(r["norm_Tc"]),
            )
            for col, dash in (("mmse_bound", ""), ("se_mse", ' stroke-dasharray="4 3"')):
                pts = " ".join(
                    f"{sx(float(r['norm_Tc'])):.1f},{sy(float(r[f'{col}_{blk}'])):.1f}"
                    for r in sub
                )
                parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}"{dash}/>')
            for r in sub:
                parts.append(
                    f'<circle cx="{sx(float(r["norm_Tc"])):.1f}" '
                    f'cy="{sy(float(r[f"amp_mse_{blk}"])):.1f}" r="2.5" fill="{color}"/>'
                )
            parts.append(
                f'<text x="{W - pad + 4}" y="{pad + 12 + 12 * ci}" font-size="9" '
                f'fill="{color}">eps={eps}</text>'
            )
        body.append(f'<g transform="translate(0,{(blk - 1) * H})">' + "".join(parts) + "</g>")
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W + 60}" height="{2 * H}">'
        + "".join(body)
        + "</svg>"
    )
    with open(svg_path, "w") as fh:
        fh.write(svg)


_NEEDS = {"simulate": "model", "se": "model", "stability": "model",
          "limits": "sweep", "phase-diagram": "sweep"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mvamp", description="multi-view spiked-matrix AMP experiment harness"
    )
    parser.add_argument("command", choices=list(_NEEDS))
    parser.add_argument("--config", required=True, help="JSON config (or an emitted manifest)")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    parser.add_argument("--jobs", type=int, default=1, help="concurrent workers")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--resume", action="store_true", help="resume a partial sweep")
    args = parser.parse_args(argv)
    try:
        _check(args.jobs >= 1, "--jobs", "must be >= 1")
        _check(args.seed is None or args.seed >= 0, "--seed", "must be >= 0")
        cfg = load_config(args.config)
        need = _NEEDS[args.command]
        _check(getattr(cfg, need) is not None, need,
               f"the {args.command} command needs a {need} section")
        out_dir = args.out or os.environ.get("MVAMP_OUT") or cfg.output.dir
        os.makedirs(out_dir, exist_ok=True)
        seed = args.seed if args.seed is not None else cfg.seed
        manifest = {"version": VERSION_TAG, "command": args.command, "seed": seed,
                    "config": cfg.raw}
        _check(not args.resume or args.command == "phase-diagram", "--resume",
               "only phase-diagram resumes")
        _write_manifest(out_dir, manifest, args.resume)
        if args.command == "se":
            return cmd_se(cfg, out_dir, seed)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, seed, args.jobs)
        if args.command == "stability":
            return cmd_stability(cfg, out_dir, seed)
        if args.command == "limits":
            return cmd_limits(cfg, out_dir, seed)
        return cmd_phase_diagram(cfg, out_dir, seed, args.jobs, args.resume)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (PrecisionError, DivergenceError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
