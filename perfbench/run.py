"""Time to solution of etdac workloads, end to end and, traced, by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper-512 --seed 1 --seconds 40 --trace 0

Runs whole rounds of one workload for --seconds: at least one round, and
another only while it should end within --seconds at the pace so far.
Each round is a fresh process (child.py) with one BLAS/OpenMP thread that
calls ``etdac.cli.main`` with the workload's arguments; its outputs are then
checked (workloads.py).  Seeded workloads give round k the seed 64*seed + k.
setup_s and run_s are the round's set-up and run counted in DCT pairs of the
workload's grid, timed alongside in the same process (child.py), times
REF_DCT_PAIR_S, what such a pair takes on the reference machine at its usual
pace: seconds at a fixed pace, as the shared machine's own pace moves too
much to compare runs minutes apart by their wall time.  The wall times are
printed for each round and kept as per-layer metrics.
With --trace 0 the end-to-end metrics are setup_s and peak_rss_mib as
medians over the rounds and run_s as a mean, since the rounds of a seeded
workload solve different fields.  With --trace 1 untraced and traced rounds
alternate on the same input, the per-layer metrics are medians over the
traced rounds, and trace.overhead_s is the mean traced run_s minus the mean
untraced one.  The metric names and units are those of BENCHMARK.json at
the root of the checkout.  The last line of standard output is one JSON
object: correct, attempted and failed (in time steps), and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TIMEOUT_MARGIN_S = 130.0
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# seconds of one forward and inverse DCT-II pair of a grid x grid array, as
# child.py samples them, on a 2-core Intel Xeon at 2.0 GHz at its usual pace
REF_DCT_PAIR_S = {128: 3.5e-4, 512: 1.0e-2}

def run_round(workload, seed: int, traced: bool, timeout: float) -> dict:
    """One fresh process running the workload; returns its timings plus
    ``ok`` (ran to the end) and ``failures`` (output checks that failed)."""
    out = OUT / workload.name
    shutil.rmtree(out, ignore_errors=True)
    trace_file = OUT / f"{workload.name}.trace.json" if traced else "-"
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT / "src"), str(trace_file), str(workload.grid)]
    cmd += workload.argv(seed, out)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **SINGLE_THREAD},
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "failures": [], "why": f"no result within {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "failures": [], "why": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    result = json.loads(lines[-1])
    if result["rc"] != 0 or result["steps"] != workload.steps:
        why = f"etdac exit {result['rc']} after {result['steps']} of {workload.steps} steps: {proc.stderr.strip()[-400:]}"
        return {**result, "ok": False, "failures": [], "why": why}
    failures = workload.check(out)
    ref = REF_DCT_PAIR_S[workload.grid]
    result["setup_s"] = result["setup_pairs"] * ref
    result["run_s"] = result["run_pairs"] * ref
    return {**result, "ok": not failures, "failures": failures, "why": "; ".join(failures)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "etdac" / "cli.py").is_file():
        print(f"error: no etdac sources at {ROOT / 'src' / 'etdac'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    OUT.mkdir(exist_ok=True)

    kinds = (False, True) if args.trace else (False,)
    rounds = []
    start = time.monotonic()
    while True:
        # each round (or traced/untraced pair) draws its own input from the seed
        round_seed = args.seed * 64 + len(rounds) // len(kinds)
        for is_traced in kinds:
            timeout = args.seconds + TIMEOUT_MARGIN_S - (time.monotonic() - start)
            r = run_round(workload, round_seed, is_traced, timeout)
            r["traced"] = is_traced
            rounds.append(r)
            status = "ok" if r["ok"] else f"FAILED ({r['why']})"
            timing = " ".join(f"{k}={r[k]:.4f}" for k in (*end_to_end, "setup_wall_s", "run_wall_s") if k in r)
            if "dct_pair_s" in r:
                timing += f" dct_pair_ms={1e3 * r['dct_pair_s']:.4f}"
            print(f"{workload.name} round {len(rounds)}{' traced' if is_traced else ''}: {timing} {status}", flush=True)
        # start another round only if one more, at the mean pace so far, ends in time
        elapsed = time.monotonic() - start
        if elapsed * (len(rounds) + len(kinds)) / len(rounds) > args.seconds:
            break

    done = [r for r in rounds if r["ok"]]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    metrics = {}
    if not args.trace:
        units = end_to_end
        if plain:
            metrics = {name: statistics.median(r[name] for r in plain) for name in end_to_end}
            metrics["run_s"] = statistics.mean(r["run_s"] for r in plain)
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
    else:
        units = layer_units
        if plain and traced:
            metrics = {name: statistics.median(r["layers"][name] for r in traced)
                       for name in layer_units if not name.startswith(("trace.", "machine."))}
            metrics["machine.dct_pair_ms"] = 1e3 * statistics.median(r["dct_pair_s"] for r in plain)
            metrics["machine.run_wall_s"] = statistics.mean(r["run_wall_s"] for r in plain)
            metrics["trace.overhead_s"] = (statistics.mean(r["run_s"] for r in traced)
                                          - statistics.mean(r["run_s"] for r in plain))
            traced_s = statistics.median(r["setup_wall_s"] + r["run_wall_s"] for r in traced)
        for name, value in metrics.items():
            layer_time = units[name] == "s" and not name.startswith("machine.")
            share = f"  ({100 * value / traced_s:.1f}% of the traced run)" if layer_time else ""
            print(f"{name} = {value:.6g} {units[name]}{share}")
    failed = sum(workload.steps for r in rounds if not r["ok"])
    print(f"steps attempted = {len(rounds) * workload.steps}, failed = {failed}, "
          f"over {len(rounds)} rounds of {workload.steps}")
    print(json.dumps({
        "correct": not any(r["failures"] for r in rounds),
        "attempted": len(rounds) * workload.steps,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
