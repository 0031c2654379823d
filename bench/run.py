"""Benchmark of fqdirections: one workload per invocation, run in child processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are declared in BENCHMARK.json at the repository root.
With --trace 0 the run measures set-up time over several fresh child
processes (median), then runs the workload in one more child for S seconds
and reports the end-to-end metrics.  Every time behind them (norm_wall_s,
norm_sets_per_s and setup_s) is normalised to reference host speed by a
calibration kernel run right after set-up and between passes (bench/child.py,
calibrate()); the unnormalised figures are printed beside them.  With
--trace 1 one child runs S/2 seconds untraced and S/2 seconds with every
layer wrapped in spans, and the run reports the per-layer metrics and prints
each layer's share of a traced pass; bench/shares.json records those shares
from the seed-0 traced run of each workload.  The library is imported from
src/ of the checkout this script lives in; nothing is installed.  Reports and
spans go to bench/out/, so two runs must not share a checkout at the same
time.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
whenever a result is printed; a child that crashes or overruns makes the run
exit non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"

#: Fresh processes timed from spawn to "ready"; set-up time is their median.
SETUP_SAMPLES = 9

#: A child still running after this long is killed and the run fails.
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    pass


#: BLAS threads per child.  One, not nproc: on a shared 2-vCPU host a
#: two-thread complex matrix product stalls now and then for several times its
#: usual time while the threads wait for each other, and the workloads run
#: the library with threads=1 anyway.
BLAS_THREADS = 1


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a child; return (seconds from spawn to "ready", its result event)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args], stdout=subprocess.PIPE, env=_child_env(), text=True
    )
    watchdog = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    watchdog.start()
    ready_s, result = None, None
    try:
        for line in proc.stdout:
            event = json.loads(line)
            if event["event"] == "ready":
                ready_s = time.perf_counter() - start
            elif event["event"] == "result":
                result = event
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    if code != 0 or ready_s is None:
        raise ChildFailed(f"child {' '.join(args)} exited with code {code}")
    return ready_s, result


def _percentile_note(values: list[float]) -> str:
    """The highest of p75/p90/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[p - 1]
            return f", p{p} {cut:.6g}"
    return ""


def end_to_end(child_args: list[str], deadline: float) -> tuple[dict, dict]:
    starts = [run_child([*child_args, "--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    ready_s, result = run_child(child_args, deadline)
    starts.append((ready_s, {"calibration": result["calibrations"][0]}))
    setup = [ready for ready, _ in starts]
    # Each start at reference speed, by the calibration its child ran right after "ready".
    norm_setup = [ready * result["calibration_ref_s"] / event["calibration"] for ready, event in starts]
    walls, norm_walls = result["walls"], result["norm_walls"]
    sets = result["sets_per_pass"] * len(walls)
    metrics = {
        "norm_sets_per_s": sets / sum(norm_walls),
        "norm_wall_s": statistics.median(norm_walls),
        "setup_s": statistics.median(norm_setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "norm_sets_per_s": f"{sets} sets in {len(walls)} timed passes; unnormalised {sets / sum(walls):.6g}",
        "norm_wall_s": (
            f"median of {len(walls)} passes{_percentile_note(norm_walls)}; "
            f"unnormalised {statistics.median(walls):.6g}, "
            f"calibration kernel median {statistics.median(result['calibrations']):.4g} s"
        ),
        "setup_s": (
            f"median of {len(setup)} process starts, min {min(norm_setup):.4g}, max {max(norm_setup):.4g}; "
            f"unnormalised {statistics.median(setup):.6g}"
        ),
        "peak_rss_mb": "workload child, ru_maxrss before the full checks",
    }
    return result, {name: (value, notes[name]) for name, value in metrics.items()}


def traced(child_args: list[str], deadline: float) -> tuple[dict, dict]:
    _, result = run_child([*child_args, "--trace", "1"], deadline)
    return result, {name: (value, "") for name, value in result["layers"].items()}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fqdirections" / "__init__.py").is_file():
        print(f"error: no fqdirections sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    child_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        result, measured = (traced if args.trace else end_to_end)(child_args, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = {m["name"] for m in declared} ^ set(measured)
    if missing:
        print(f"error: measured metrics differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 1

    machine = result["machine"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + " ".join(f"{key}={value}" for key, value in machine.items()))
    metrics = {}
    for m in declared:
        value, note = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']}" + (f" ({note})" if note else ""))
    for name, share in result.get("shares", {}).items():
        print(f"share {name} {share:.4f}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"ops_failed_ratio {failed / attempted:.6g} ({failed} of {attempted} sets)")
    for problem in result["problems"]:
        print(f"problem {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
