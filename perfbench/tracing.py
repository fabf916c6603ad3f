"""Spans around the calls into each mvamp module, recorded from outside the package.

A span wraps a public function at the name its caller looks up (for example
``mvamp.cli.synthesize_symmetric``, which ``cmd_phase_diagram`` calls through
the ``mvamp.cli`` namespace). Spans nest on one stack, so a span's self time is
its duration minus the time of the spans that ran inside it. The traced run is
single-threaded (``--jobs 1``); the stack is not shared between threads.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

LAYERS = ("model", "amp", "denoise", "se", "stability", "limits", "cli")

# (module, attribute the caller looks up, span name); the span name's first
# component is the layer.
SPANS = (
    ("mvamp.cli", "main", "cli.main"),
    ("mvamp.cli", "sample_signal", "model.sample_signal"),
    ("mvamp.cli", "synthesize_symmetric", "model.synthesize_symmetric"),
    ("mvamp.cli", "run_symmetric", "amp.run_symmetric"),
    ("mvamp.amp", "block_denoiser", "denoise.block_denoiser"),
    ("mvamp.cli", "run_se", "se.run_se"),
    ("mvamp.se", "run_se", "se.run_se"),
    ("mvamp.limits", "refine_fixed_point", "se.refine_fixed_point"),
    ("mvamp.cli", "KLTable", "limits.KLTable"),
    ("mvamp.limits", "KLTable", "limits.KLTable"),
    ("mvamp.cli", "limits_sweep", "limits.limits_sweep"),
    ("mvamp.cli", "variational_solve", "limits.variational_solve"),
    ("mvamp.limits", "variational_solve", "limits.variational_solve"),
    ("mvamp.cli", "classify_fixed_point", "stability.classify_fixed_point"),
    ("mvamp.stability", "classify_fixed_point", "stability.classify_fixed_point"),
)


class Tracer:
    """Per-span call counts, total and self times, plus work counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._stack = []  # child time accumulated by each open span

    def wrap(self, name, fn, count=None):
        """Return ``fn`` timed as span ``name``; ``count(counters, result, args,
        kwargs, error)`` adds work counts after each call."""

        def traced(*args, **kwargs):
            self._stack.append(0.0)
            error = result = None
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                dt = self.clock() - t0
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - children
                if count is not None:
                    count(self.counters, result, args, kwargs, error)

        return traced

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)


# --- work counters, computed from argument and result sizes -----------------

def _count_synthesis(c, result, args, kwargs, error):
    if result is not None:
        c["model.noise_bytes"] += 8 * result.n * result.n * result.K


def _count_amp(c, result, args, kwargs, error):
    inst = args[0]
    n, d = inst.X.shape
    if result is not None:
        iters = result.iterations
    elif hasattr(error, "iteration"):  # DivergenceError: products ran up to it
        iters = error.iteration
        c["amp.diverged"] += 1
    else:
        return
    c["amp.iterations"] += iters
    c["amp.product_flops"] += 2 * n * n * d * len(inst.observations) * iters


def _count_denoiser(c, result, args, kwargs, error):
    c["denoise.block_denoiser.entries"] += args[2].size


def _count_se(c, result, args, kwargs, error):
    if result is not None:
        c["se.iterations"] += result.iterations
        c["se.converged"] += int(result.converged)


def _count_variational(c, result, args, kwargs, error):
    if result is not None:
        c["limits.grid_points"] += result.grid_res ** result.d


COUNTERS = {
    "model.synthesize_symmetric": _count_synthesis,
    "amp.run_symmetric": _count_amp,
    "denoise.block_denoiser": _count_denoiser,
    "se.run_se": _count_se,
    "limits.variational_solve": _count_variational,
}


def install(tracer: Tracer) -> None:
    """Replace every name in SPANS by its traced wrapper (for the life of the process)."""
    for module_name, attr, span in SPANS:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(span, getattr(module, attr), COUNTERS.get(span)))


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer numbers of one traced workload run, by metric name."""
    t, c = tracer, tracer.counters
    amp_iters = c["amp.iterations"]
    se_calls = t.calls["se.run_se"]
    out = {
        "model.synthesize_symmetric.calls": t.calls["model.synthesize_symmetric"],
        "model.synthesize_symmetric.self_s": t.self_s["model.synthesize_symmetric"],
        "model.sample_signal.self_s": t.self_s["model.sample_signal"],
        "model.noise_bytes": c["model.noise_bytes"],
        "amp.run_symmetric.calls": t.calls["amp.run_symmetric"],
        "amp.run_symmetric.self_s": t.self_s["amp.run_symmetric"],
        "amp.iterations": amp_iters,
        "amp.s_per_iter": t.self_s["amp.run_symmetric"] / amp_iters if amp_iters else 0.0,
        "amp.product_flops": c["amp.product_flops"],
        "amp.diverged": c["amp.diverged"],
        "denoise.block_denoiser.calls": t.calls["denoise.block_denoiser"],
        "denoise.block_denoiser.self_s": t.self_s["denoise.block_denoiser"],
        "denoise.block_denoiser.entries": c["denoise.block_denoiser.entries"],
        "se.run_se.calls": se_calls,
        "se.run_se.self_s": t.self_s["se.run_se"],
        "se.iterations": c["se.iterations"],
        "se.converged_frac": c["se.converged"] / se_calls if se_calls else 0.0,
        "se.refine_fixed_point.calls": t.calls["se.refine_fixed_point"],
        "se.refine_fixed_point.self_s": t.self_s["se.refine_fixed_point"],
        "limits.KLTable.builds": t.calls["limits.KLTable"],
        "limits.KLTable.build_s": t.total_s["limits.KLTable"],
        "limits.variational_solve.calls": t.calls["limits.variational_solve"],
        "limits.variational_solve.self_s": t.self_s["limits.variational_solve"],
        "limits.grid_points": c["limits.grid_points"],
        "stability.classify_fixed_point.calls": t.calls["stability.classify_fixed_point"],
        "stability.classify_fixed_point.self_s": t.self_s["stability.classify_fixed_point"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = t.layer_self_s(layer)
    return out


# Metrics that must repeat exactly for one seed (all counts, no times).
EXACT = (
    "model.synthesize_symmetric.calls",
    "model.noise_bytes",
    "amp.run_symmetric.calls",
    "amp.iterations",
    "amp.product_flops",
    "amp.diverged",
    "denoise.block_denoiser.calls",
    "denoise.block_denoiser.entries",
    "se.run_se.calls",
    "se.iterations",
    "se.converged_frac",
    "se.refine_fixed_point.calls",
    "limits.KLTable.builds",
    "limits.variational_solve.calls",
    "limits.grid_points",
    "stability.classify_fixed_point.calls",
)
