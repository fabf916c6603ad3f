"""Experiment harness: simulate | se | stability | limits | phase-diagram.

Configuration is a JSON file (see README for the schema); every run writes a
manifest echoing the resolved configuration so that re-running from the
manifest reproduces the outputs bit-for-bit. Exit codes: 0 ok, 2 config
error, 3 numerical nonconvergence, 4 resumable interruption.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .amp import AMPConfig, AMPTrace, DivergenceError, run_symmetric
from .denoise import DomainError
# KLTable and variational_solve stay importable here: perfbench/tracing.py wraps them by name.
from .limits import KLTable, SweepRow, limits_sweep, variational_solve  # noqa: F401
from .model import (
    BlockPriorProfile,
    CouplingSet,
    InvalidProfileError,
    ScalarPrior,
    sample_signal,
    synthesize_symmetric,
)
from .se import OperatorT, OverlapModel, PrecisionError, run_se
from .stability import NonconvergenceError, classify_fixed_point

VERSION_TAG = f"mvamp-{__version__}"


class ConfigError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


def _need(section: dict, path: str, key: str, kind, default=...):
    if key not in section:
        if default is not ...:
            return default
        raise ConfigError(f"{path}.{key}", "missing required field")
    val = section[key]
    try:
        if kind is int:
            if isinstance(val, bool) or int(val) != val:
                raise ValueError
            return int(val)
        if kind is float:
            return float(val)
        if kind is str:
            if not isinstance(val, str):
                raise ValueError
            return val
        if kind is list:
            if not isinstance(val, list):
                raise ValueError
            return val
        if kind is dict:
            if not isinstance(val, dict):
                raise ValueError
            return val
        if kind is bool:
            if not isinstance(val, bool):
                raise ValueError
            return val
    except (TypeError, ValueError):
        raise ConfigError(f"{path}.{key}", f"expected {kind.__name__}, got {val!r}")
    raise ConfigError(f"{path}.{key}", "unsupported field type")


@dataclass
class ModelSection:
    n: int
    profile: BlockPriorProfile
    couplings: CouplingSet

    @property
    def d(self) -> int:
        return self.profile.d


@dataclass
class AmpSection:
    max_iter: int = 20
    rho: float = 0.05
    trials: int = 10
    seed: int = 0
    correction: str = "divergence"


@dataclass
class SeSection:
    tol: float = 1e-10
    max_iter: int = 10_000
    quad_order: int = 61


@dataclass
class SweepSection:
    eps: list = field(default_factory=lambda: [0.05, 0.1, 0.5, 1.0])
    target_norms: list = field(default_factory=list)
    xi: np.ndarray = None
    beta: tuple = (0.6, 0.4)
    n: int = 4000
    trials: int = 10
    grid_res: int = 400


@dataclass
class ExperimentConfig:
    model: ModelSection | None
    amp: AmpSection
    se: SeSection
    sweep: SweepSection | None
    out_dir: str
    svg: bool
    raw: dict


def _parse_couplings(section: dict, path: str, d: int) -> CouplingSet:
    kind = _need(section, path, "kind", str, "explicit")
    if kind == "explicit":
        mats = _need(section, path, "matrices", list)
        try:
            return CouplingSet(tuple(np.asarray(m, float) for m in mats))
        except Exception as exc:
            raise ConfigError(f"{path}.matrices", str(exc))
    if kind == "hetero":
        c = _need(section, path, "c", float)
        xi = np.asarray(_need(section, path, "xi", list), float)
        if xi.shape != (d, d):
            raise ConfigError(f"{path}.xi", f"expected a {d}x{d} matrix")
        if c < 0:
            raise ConfigError(f"{path}.c", "scale must be nonnegative")
        return CouplingSet.heteroskedastic(np.sqrt(c * xi))
    raise ConfigError(f"{path}.kind", f"unknown couplings kind {kind!r}")


def _default_target_norms() -> list:
    """40 log-spaced implied-SNR targets on [0.2, 4] with the transition region
    around 1 densified threefold."""
    base = np.geomspace(0.2, 4.0, 40)
    extra = []
    for a, b in zip(base[:-1], base[1:]):
        if 0.8 <= a <= 1.2 or 0.8 <= b <= 1.2:
            extra.extend(np.geomspace(a, b, 4)[1:3])
    return sorted(set(round(float(v), 12) for v in np.concatenate([base, extra])))


def resolve_config(raw: dict, source: str = "<config>") -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(source, "top level must be a JSON object")
    if "config" in raw and isinstance(raw["config"], dict):
        raw = raw["config"]  # accept an emitted manifest as input
    model = None
    if "model" in raw:
        msec = _need(raw, source, "model", dict)
        n = _need(msec, "model", "n", int)
        if n < 1:
            raise ConfigError("model.n", "must be a positive integer")
        priors = _need(msec, "model", "priors", list)
        beta = _need(msec, "model", "beta", list, [1.0] if len(priors) == 1 else ...)
        try:
            profile = BlockPriorProfile(
                tuple(ScalarPrior.from_name(s) for s in priors),
                tuple(float(b) for b in beta),
            )
        except InvalidProfileError as exc:
            raise ConfigError("model.priors", str(exc))
        couplings = _parse_couplings(
            _need(msec, "model", "couplings", dict), "model.couplings", profile.d
        )
        if couplings.d != profile.d:
            raise ConfigError("model.couplings", "size inconsistent with priors")
        model = ModelSection(n, profile, couplings)
    asec = raw.get("amp", {})
    ampcfg = AmpSection(
        max_iter=_need(asec, "amp", "max_iter", int, 20),
        rho=_need(asec, "amp", "rho", float, 0.05),
        trials=_need(asec, "amp", "trials", int, 10),
        seed=_need(asec, "amp", "seed", int, 0),
        correction=_need(asec, "amp", "correction", str, "divergence"),
    )
    if not (0.0 <= ampcfg.rho <= 1.0):
        raise ConfigError("amp.rho", "must lie in [0, 1]")
    if ampcfg.trials < 1:
        raise ConfigError("amp.trials", "must be >= 1")
    ssec = raw.get("se", {})
    secfg = SeSection(
        tol=_need(ssec, "se", "tol", float, 1e-10),
        max_iter=_need(ssec, "se", "max_iter", int, 10_000),
        quad_order=_need(ssec, "se", "quad_order", int, 61),
    )
    sweep = None
    if "sweep" in raw:
        wsec = _need(raw, source, "sweep", dict)
        targets = wsec.get("target_norms")
        if targets is None:
            targets = _default_target_norms()
        else:
            targets = [float(t) for t in _need(wsec, "sweep", "target_norms", list)]
        xi = np.asarray(_need(wsec, "sweep", "xi", list, [[0.7, 0.3], [0.3, 0.7]]), float)
        beta = tuple(float(b) for b in _need(wsec, "sweep", "beta", list, [0.6, 0.4]))
        sweep = SweepSection(
            eps=[float(e) for e in _need(wsec, "sweep", "eps", list, [0.05, 0.1, 0.5, 1.0])],
            target_norms=targets,
            xi=xi,
            beta=beta,
            n=_need(wsec, "sweep", "n", int, 4000),
            trials=_need(wsec, "sweep", "trials", int, 10),
            grid_res=_need(wsec, "sweep", "grid_res", int, 400),
        )
    osec = raw.get("output", {})
    out_dir = os.environ.get("MVAMP_OUT") or _need(osec, "output", "dir", str, "out")
    svg = _need(osec, "output", "svg", bool, False)
    return ExperimentConfig(model, ampcfg, secfg, sweep, out_dir, svg, raw)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg)
    return resolve_config(raw, path)


def _write_manifest(cfg: ExperimentConfig, command: str, seed: int, out_dir: str):
    manifest = {
        "version": VERSION_TAG,
        "command": command,
        "seed": seed,
        "config": cfg.raw,
    }
    tmp = os.path.join(out_dir, "manifest.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    os.replace(tmp, os.path.join(out_dir, "manifest.json"))


def _trial_seed(master: int, *tags: int) -> int:
    return int(np.random.SeedSequence([master, *tags]).generate_state(1, np.uint64)[0])


def _fmt(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_se(cfg: ExperimentConfig, out_dir: str, seed: int) -> int:
    if cfg.model is None:
        raise ConfigError("model", "the se command needs a model section")
    model = OverlapModel(cfg.model.profile, cfg.se.quad_order)
    op = OperatorT(cfg.model.couplings)
    Q1 = np.diag(cfg.amp.rho * np.asarray(cfg.model.profile.beta))
    traj = run_se(model, op, Q1, tol=cfg.se.tol, max_iter=cfg.se.max_iter)
    traj.to_csv(os.path.join(out_dir, "se.csv"), seed=seed, version=VERSION_TAG)
    _write_manifest(cfg, "se", seed, out_dir)
    if not traj.converged:
        print("state evolution did not converge within max_iter", file=sys.stderr)
        return 3
    return 0


def _pmap(fn, items, jobs: int) -> list:
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _run_trial(profile: BlockPriorProfile, couplings: CouplingSet, n: int,
               amp: AmpSection, inst_seed: int, run_seed: int) -> AMPTrace:
    """One AMP Monte Carlo trial on a freshly drawn instance."""
    X = sample_signal(profile, n, inst_seed)
    inst = synthesize_symmetric(X, couplings, inst_seed, profile=profile)
    return run_symmetric(inst, AMPConfig(max_iter=amp.max_iter, rho=amp.rho, seed=run_seed,
                                         correction=amp.correction))


def cmd_simulate(cfg: ExperimentConfig, out_dir: str, seed: int, jobs: int) -> int:
    if cfg.model is None:
        raise ConfigError("model", "the simulate command needs a model section")
    ms, d = cfg.model, cfg.model.d

    def one(trial: int):
        inst_seed = _trial_seed(seed, 0, trial)
        trace = _run_trial(ms.profile, ms.couplings, ms.n, cfg.amp,
                           inst_seed, _trial_seed(seed, 1, trial))
        return trial, inst_seed, trace

    results = _pmap(one, range(cfg.amp.trials), jobs)
    with open(os.path.join(out_dir, "trace.csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(results[0][2].csv_header())
        for trial, inst_seed, trace in results:
            wr.writerows(trace.csv_rows(trial, inst_seed, VERSION_TAG))
    n_t = min(len(tr.Q_hat) for _, _, tr in results)
    with open(os.path.join(out_dir, "aggregate.csv"), "w", newline="") as fh:
        wr = csv.writer(fh)
        header = ["t"]
        header += [f"mse_mean_{j + 1}" for j in range(d)]
        header += [f"mse_stderr_{j + 1}" for j in range(d)]
        header += [f"Q_hat_mean_{a + 1}{b + 1}" for a in range(d) for b in range(d)]
        header += ["seed", "version"]
        wr.writerow(header)
        for i in range(n_t):
            mses = np.array([tr.mse[i] for _, _, tr in results])
            qh = np.array([tr.Q_hat[i] for _, _, tr in results])
            row = [i]
            row += [_fmt(v) for v in mses.mean(axis=0)]
            row += [_fmt(v) for v in mses.std(axis=0, ddof=1) / np.sqrt(len(results))]
            row += [_fmt(v) for v in qh.mean(axis=0).ravel()]
            row += [seed, VERSION_TAG]
            wr.writerow(row)
    _write_manifest(cfg, "simulate", seed, out_dir)
    return 0


def cmd_stability(cfg: ExperimentConfig, out_dir: str, seed: int) -> int:
    if cfg.model is None:
        raise ConfigError("model", "the stability command needs a model section")
    model = OverlapModel(cfg.model.profile, cfg.se.quad_order)
    op = OperatorT(cfg.model.couplings)
    zero = classify_fixed_point(model, op, np.zeros(cfg.model.d))
    payload = {"zero_point": json.loads(zero.to_json()), "version": VERSION_TAG, "seed": seed}
    Q1 = np.diag(cfg.amp.rho * np.asarray(cfg.model.profile.beta))
    traj = run_se(model, op, Q1, tol=cfg.se.tol, max_iter=cfg.se.max_iter)
    if traj.converged and float(np.abs(traj.q_star).max()) > 1e-8:
        star = classify_fixed_point(model, op, traj.q_star)
        payload["converged_point"] = json.loads(star.to_json())
    with open(os.path.join(out_dir, "verdict.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    _write_manifest(cfg, "stability", seed, out_dir)
    return 0


def _eps_priors(eps: float) -> list:
    """The two-block sweep profile: Rademacher block 1, BG(eps) block 2."""
    return [ScalarPrior.rademacher(), ScalarPrior.bernoulli_gaussian(eps)]


def cmd_limits(cfg: ExperimentConfig, out_dir: str, seed: int) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep", "the limits command needs a sweep section")
    sw = cfg.sweep
    path = os.path.join(out_dir, "limits.csv")
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(
            ["eps", "c", "norm_Tc", "q1_star", "q2_star", "mmse_bound_1", "mmse_bound_2",
             "branch_flag", "seed", "version"]
        )
        for eps in sw.eps:
            rows = limits_sweep(_eps_priors(eps), sw.beta, sw.xi, sw.target_norms,
                                grid_res=sw.grid_res)
            for row in rows:
                wr.writerow(
                    [_fmt(eps), _fmt(row.c), _fmt(row.norm_Tc)]
                    + [_fmt(v) for v in row.q_star]
                    + [_fmt(v) for v in row.mmse_bounds]
                    + [row.branch_flag, seed, VERSION_TAG]
                )
    _write_manifest(cfg, "limits", seed, out_dir)
    return 0


def _phase_point(cfg: ExperimentConfig, eps: float, bound: SweepRow, seed: int, idx: int) -> list:
    """One (eps, c) CSV row: AMP Monte Carlo and the SE prediction next to the
    variational bound row of the same point."""
    sw = cfg.sweep
    beta = np.asarray(sw.beta, float)
    profile = BlockPriorProfile(tuple(_eps_priors(eps)), tuple(beta))
    couplings = CouplingSet.heteroskedastic(np.sqrt(bound.c * sw.xi))
    traj = run_se(OverlapModel(profile, cfg.se.quad_order), OperatorT(couplings),
                  np.diag(cfg.amp.rho * beta), tol=cfg.se.tol, max_iter=cfg.se.max_iter)
    se_mse = np.clip(1.0 - traj.q_star / beta, 0.0, None)
    mses = np.array([
        _run_trial(profile, couplings, sw.n, cfg.amp,
                   _trial_seed(seed, idx, trial, 0), _trial_seed(seed, idx, trial, 1)).mse[-1]
        for trial in range(sw.trials)
    ])
    stderr = (mses.std(axis=0, ddof=1) / np.sqrt(len(mses)) if len(mses) > 1
              else np.zeros(len(beta)))
    return (
        [_fmt(eps), _fmt(bound.c), _fmt(bound.norm_Tc)]
        + [_fmt(v) for v in np.concatenate([mses.mean(axis=0), stderr, se_mse, bound.mmse_bounds])]
        + [bound.branch_flag, seed, VERSION_TAG]
    )


_PHASE_HEADER = [
    "eps", "c", "norm_Tc",
    "amp_mse_1", "amp_mse_2", "amp_stderr_1", "amp_stderr_2",
    "se_mse_1", "se_mse_2", "mmse_bound_1", "mmse_bound_2",
    "branch_flag", "seed", "version",
]


def cmd_phase_diagram(cfg: ExperimentConfig, out_dir: str, seed: int, jobs: int,
                      resume: bool) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep", "the phase-diagram command needs a sweep section")
    sw = cfg.sweep
    path = os.path.join(out_dir, "phase_diagram.csv")
    done = set()
    if resume and os.path.exists(path):
        with open(path) as fh:
            for row in csv.DictReader(fh):
                done.add((float(row["eps"]), float(row["norm_Tc"])))
    n_targets = len(sw.target_norms)
    new_rows = []
    interrupted = False
    try:
        for e, eps in enumerate(sw.eps):
            pending = [k for k, t in enumerate(sw.target_norms) if (eps, t) not in done]
            if not pending:
                continue
            # the bound is solved on the full target list, exactly as limits.csv,
            # so a resumed point gets the same table range and transition flag
            bounds = limits_sweep(_eps_priors(eps), sw.beta, sw.xi, sw.target_norms,
                                  grid_res=sw.grid_res)
            # a point's seed index is its 1-based position in the eps x target grid
            new_rows.extend(_pmap(
                lambda k: _phase_point(cfg, eps, bounds[k], seed, e * n_targets + k + 1),
                pending, jobs,
            ))
    except KeyboardInterrupt:
        interrupted = True

    mode = "a" if (resume and os.path.exists(path)) else "w"
    with open(path, mode, newline="") as fh:
        wr = csv.writer(fh)
        if mode == "w":
            wr.writerow(_PHASE_HEADER)
        wr.writerows(new_rows)
    _write_manifest(cfg, "phase-diagram", seed, out_dir)
    if cfg.svg and not interrupted:
        _write_phase_svg(path, os.path.join(out_dir, "phase_diagram.svg"))
    return 4 if interrupted else 0


def _write_phase_svg(csv_path: str, svg_path: str):
    """Minimal SVG line/point plot of MSE vs implied SNR, one panel per block."""
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

    panels = []
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
            pts = " ".join(
                f"{sx(float(r['norm_Tc'])):.1f},{sy(float(r[f'mmse_bound_{blk}'])):.1f}"
                for r in sub
            )
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}"/>')
            for r in sub:
                parts.append(
                    f'<circle cx="{sx(float(r["norm_Tc"])):.1f}" '
                    f'cy="{sy(float(r[f"amp_mse_{blk}"])):.1f}" r="2.5" fill="{color}"/>'
                )
            parts.append(
                f'<text x="{W - pad + 4}" y="{pad + 12 + 12 * ci}" font-size="9" '
                f'fill="{color}">eps={eps}</text>'
            )
        panels.append(parts)
    body = []
    for i, parts in enumerate(panels):
        body.append(f'<g transform="translate(0,{i * H})">' + "".join(parts) + "</g>")
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W + 60}" height="{2 * H}">'
        + "".join(body)
        + "</svg>"
    )
    with open(svg_path, "w") as fh:
        fh.write(svg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mvamp", description="multi-view spiked-matrix AMP experiment harness"
    )
    parser.add_argument("command", choices=["simulate", "se", "stability", "limits", "phase-diagram"])
    parser.add_argument("--config", required=True, help="JSON config (or an emitted manifest)")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    parser.add_argument("--jobs", type=int, default=1, help="concurrent workers")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--resume", action="store_true", help="resume a partial sweep")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = args.out or cfg.out_dir
        os.makedirs(out_dir, exist_ok=True)
        seed = args.seed if args.seed is not None else cfg.amp.seed
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
    except (PrecisionError, NonconvergenceError, DivergenceError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted; partial results kept for --resume", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
