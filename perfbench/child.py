"""Run one etdac CLI invocation in this process and print its timings as JSON.

Usage: python3 child.py SRC_DIR TRACE_FILE GRID CLI_ARG...

run.py starts one such process per round, with one BLAS/OpenMP thread.
Timing starts on entering ``etdac.cli.main``, after the imports.  The set-up
is that of each solve (``_integrate``, one per step size): from entering
``main`` or the previous step's return to the return of the solve's first
step, which fills its phi-grid cache.  The run is the rest of the time to
the return of ``main``.  Both are reported as wall seconds and as DCT pairs:
on a shared machine the pace of a core can move by a factor of two within
minutes, in CPU time as much as in wall time.  So before the first step,
after each solve's first step, after the first step to return CAL_EVERY_S
or more after the last sample, and after ``main`` returns, the process
times forward and inverse DCTs of a fixed GRID x GRID array (the
program's largest single cost, made here apart from the program), and each
stretch of the solve between two such samples counts its seconds divided by
the mean of their pair times.  The sampling is left out of every time.
The untraced run (TRACE_FILE ``-``) wraps only ``etdac.cli.step``, to mark
those returns, count steps and sample the pace.  A traced run also
records a span around every call into each layer's functions, keeps the
spans in memory and writes them to TRACE_FILE at the end; the per-layer
figures are self times (a span minus its child spans) and counts.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import types
from collections import Counter
from time import perf_counter

import numpy as np
import scipy.fft

MIB = 2.0**20
CAL_EVERY_S = 0.05
# a sample repeats the pair for about this long, so that one pair's jitter does not count
CAL_SAMPLE_S = 0.002


class Pace:
    """DCT pairs of a fixed array timed between steps, on a clock that leaves them out."""

    def __init__(self, grid: int):
        self.field = np.random.default_rng(0).random((grid, grid))
        self.skipped = 0.0
        self.samples = []  # (clock time, seconds of one DCT pair)
        warm = sorted(self._pairs(1) for _ in range(3))  # also fills scipy's plan cache
        self.count = max(1, math.ceil(CAL_SAMPLE_S / warm[1]))

    def _pairs(self, count: int) -> float:
        """Mean seconds of one forward and inverse DCT of the field, over count pairs."""
        start = perf_counter()
        for _ in range(count):
            scipy.fft.idctn(scipy.fft.dctn(self.field, type=2, norm="ortho"), type=2, norm="ortho")
        return (perf_counter() - start) / count

    def now(self) -> float:
        return perf_counter() - self.skipped

    def sample(self):
        start = perf_counter()
        self.samples.append((start - self.skipped, self._pairs(self.count)))
        self.skipped += perf_counter() - start

    def due(self) -> bool:
        return self.now() - self.samples[-1][0] >= CAL_EVERY_S

    def pairs(self, a: float, b: float) -> float:
        """Clock time a..b in DCT pairs, each stretch between two samples
        divided by the mean of their pair times."""
        total = 0.0
        for (t0, c0), (t1, c1) in zip(self.samples, self.samples[1:]):
            lo, hi = max(a, t0), min(b, t1)
            if hi > lo:
                total += (hi - lo) * 2.0 / (c0 + c1)
        return total


class Tracer:
    """Spans [name, parent index, start, end] and counts, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    def self_times(self) -> dict:
        """Total self time per span name, in seconds."""
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals = Counter()
        for (name, *_), t in zip(self.spans, own):
            totals[name] += t
        return totals


def install(tracer: Tracer):
    """Wrap each layer's functions at the names the CLI and stepper call them by."""
    import scipy.fft

    import etdac.cli as cli
    import etdac.diagnostics as diagnostics
    import etdac.scheme as scheme
    import etdac.stepper as stepper

    wrap = tracer.wrap
    fft = types.SimpleNamespace(dctn=wrap("spectral.dctn", scipy.fft.dctn),
                                idctn=wrap("spectral.idctn", scipy.fft.idctn))
    stepper.scipy = types.SimpleNamespace(fft=fft)

    def phi_count(counts, args, out):
        counts["phi.bytes"] += out.nbytes

    def shrunk_count(counts, args, out):
        counts["stepper.shrunk_points"] += int((out.values < 1.0).sum())

    def exact_count(counts, args, out):
        counts["stepper.exact_max_points"] += args[0].shape[1]

    def write_count(counts, args, out):
        counts["grid.write_bytes"] += os.path.getsize(args[1])

    stepper.phi_batch = wrap("phi.phi_batch", stepper.phi_batch, phi_count)
    stepper.rescale_factor = wrap("stepper.rescale_factor", stepper.rescale_factor, shrunk_count)
    stepper._poly_abs_max_many = wrap("stepper.exact_max", stepper._poly_abs_max_many, exact_count)
    stepper.StepContext.nonlinearity = wrap("potentials.nonlinearity", stepper.StepContext.nonlinearity)
    scheme.Vandermonde.solve = wrap("scheme.solve", scheme.Vandermonde.solve)
    diagnostics.record = cli.record = wrap("diagnostics.record", diagnostics.record)
    for name in ("resolve_config", "build_mesh", "build_potential", "build_plan", "initial_field", "make_scheme"):
        setattr(cli, name, wrap("config.build", getattr(cli, name)))
    for name in ("write_csv", "write_field_csv"):
        setattr(cli, name, wrap("grid.write", getattr(cli, name), write_count))
    cli.step = wrap("stepper.step", cli.step)


def layer_metrics(tracer: Tracer, steps: int) -> dict:
    own = tracer.self_times()
    calls = Counter(name for name, *_ in tracer.spans)
    c = tracer.counts
    step_ms = sorted(1e3 * (end - start) for name, _, start, end in tracer.spans if name == "stepper.step")
    per_step = max(steps, 1)
    return {
        "spectral.dct_fwd_per_step": calls["spectral.dctn"] / per_step,
        "spectral.dct_inv_per_step": calls["spectral.idctn"] / per_step,
        "spectral.dct_s": own["spectral.dctn"] + own["spectral.idctn"],
        "phi.grids": calls["phi.phi_batch"],
        "phi.cache_mib": c["phi.bytes"] / MIB,
        "phi.build_s": own["phi.phi_batch"],
        "scheme.solve_s": own["scheme.solve"],
        "potentials.nonlinearity_s": own["potentials.nonlinearity"],
        "stepper.rescale_s": own["stepper.rescale_factor"],
        "stepper.exact_max_s": own["stepper.exact_max"],
        "stepper.exact_max_points_per_step": c["stepper.exact_max_points"] / per_step,
        "stepper.shrunk_points_per_step": c["stepper.shrunk_points"] / per_step,
        "stepper.self_s": own["stepper.step"],
        "diagnostics.record_s": own["diagnostics.record"],
        "grid.write_s": own["grid.write"],
        "grid.write_mib": c["grid.write_bytes"] / MIB,
        "config.build_s": own["config.build"],
        "stepper.step_ms_p50": step_ms[len(step_ms) // 2] if step_ms else 0.0,
    }


def main(argv: list) -> int:
    src, trace_file, grid, cli_args = argv[0], argv[1], int(argv[2]), argv[3:]
    sys.path.insert(0, src)
    import etdac.cli as cli

    tracer = None
    if trace_file != "-":
        tracer = Tracer()
        install(tracer)

    pace = Pace(grid)
    stepped = []
    setups = []
    inner_step = cli.step

    def step(*args, **kwargs):
        out = inner_step(*args, **kwargs)
        stepped.append(pace.now())
        if kwargs["n"] == 1:
            # a new solve: its set-up runs from the previous step's return
            setups.append((stepped[-2], stepped[-1]))
        if kwargs["n"] == 1 or pace.due():
            pace.sample()
        return out

    cli.step = step
    pace.sample()
    t0 = pace.now()
    stepped.append(t0)
    rc = cli.main(cli_args)
    t1 = pace.now()
    pace.sample()
    setup_wall = sum(b - a for a, b in setups)
    setup_pairs = sum(pace.pairs(a, b) for a, b in setups)
    result = {
        "rc": rc,
        "steps": len(stepped) - 1,
        "setup_wall_s": setup_wall,
        "run_wall_s": t1 - t0 - setup_wall,
        "setup_pairs": setup_pairs,
        "run_pairs": pace.pairs(t0, t1) - setup_pairs,
        "dct_pair_s": sorted(c for _, c in pace.samples)[len(pace.samples) // 2],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result["steps"])
        with open(trace_file, "w") as fh:
            json.dump({"args": cli_args, "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
