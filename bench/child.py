"""One benchmark workload in its own process: set up, warm up, measure, check.

bench/run.py starts this script; it is not meant to be run by hand:

    python3 bench/child.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Protocol on stdout, one JSON object per line: {"event": "ready"} once the
library is imported, the configuration validated and the caches warmed; then
{"event": "result", ...}: with --setup-only just one calibration time,
otherwise the pass timings, the correctness tally, peak RSS and, with
--trace 1, the per-layer metrics and each layer's share of a traced pass.

Set-up ends with a warm-up on the workload's own grid, so the per-(q, d, k)
tables, the BLAS thread pool and numpy's lazy imports are filled before any
pass is timed.  Passes repeat a fixed set of inputs: a repeated input must
reproduce the outputs of its first pass exactly, which is checked after every
pass outside the timed region.  The first outputs of each input are checked in
full against pinned references and independent oracles only after the last
pass and after peak RSS has been read, so the checker's own memory does not
count towards the workload's peak.

Untraced passes are bracketed by a fixed calibration kernel that calls no
library code; the result carries each pass's wall clock normalised by the
calibrations around it (see calibrate()).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import sys
import time
from collections import Counter
from itertools import combinations, islice
from pathlib import Path

import numpy as np

from tracing import PASS_SPAN, TRACED, Tracer

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH / "reference"
OUT_DIR = BENCH / "out"

#: Relative tolerance on salem_constant against the pinned value and the
#: numpy.fft oracle; wide enough for a transform that reorders float sums.
SALEM_REL_TOL = 1e-9

#: Reports whose float columns are compared by value, not by digest.
_FLOAT_COLUMNS = ("salem_constant", "parseval_defect_rel")


def _import_library():
    """Import fqdirections from this checkout's src/, never from elsewhere."""
    import fqdirections

    src = (ROOT / "src").resolve()
    location = Path(fqdirections.__file__).resolve()
    if src not in location.parents:
        raise ImportError(f"fqdirections was imported from {location}, not from {src}")
    return fqdirections


fq = _import_library()
from fqdirections import directions, harness, incidence, pointset, salem  # noqa: E402
from fqdirections.errors import NumericalInconsistencyError  # noqa: E402


# -- independent oracles ---------------------------------------------------

def _points(indices, q: int, d: int) -> list[tuple[int, ...]]:
    out = []
    for index in indices:
        digits = []
        for _ in range(d):
            index, c = divmod(int(index), q)
            digits.append(c)
        out.append(tuple(reversed(digits)))
    return out


def _canonical(z: tuple[int, ...], q: int) -> tuple[int, ...]:
    scale = pow(next(c for c in z if c), q - 2, q)
    return tuple(c * scale % q for c in z)


def _differences(points, q: int) -> set[tuple[int, ...]]:
    """E - E by the definition, zero included."""
    return {tuple((a - b) % q for a, b in zip(x, y)) for x in points for y in points}


def _directions(diffs, q: int) -> set[tuple[int, ...]]:
    return {_canonical(z, q) for z in diffs if any(z)}


def _subspace_directions(q: int, d: int, n: int) -> set[tuple[int, ...]]:
    pad = (0,) * (d - n)
    return {_canonical(v, q) + pad for v in _points(range(1, q**n), q, n)}


def _salem_constant(picks, q: int, d: int) -> float:
    """max |Ehat(m)| over m != 0, by numpy.fft instead of the library's transform."""
    mask = np.zeros(q**d)
    mask[list(picks)] = 1.0
    spectrum = np.abs(np.fft.fftn(mask.reshape((q,) * d))).ravel()
    return float(spectrum[1:].max()) / math.sqrt(len(picks))


def _fmt(value) -> str:
    """A value as the CSV report renders it.

    Written out here rather than imported from the harness, so that the check
    of the JSON report against the CSV report does not reuse the code it checks.
    """
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ";".join(str(item) for item in value)
    return str(value)


def _digest(values) -> str:
    return hashlib.sha256("\n".join(values).encode()).hexdigest()[:16]


def _file_digest(path: str) -> str:
    """sha256 of a file, read in chunks so the check adds little to peak RSS."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def reference_entry(csv_text: str) -> dict:
    """What the pinned reference records about one campaign's CSV report."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    columns = list(rows[0])
    entry = {
        "rows": len(rows),
        "digests": {c: _digest(r[c] for r in rows) for c in columns if c not in _FLOAT_COLUMNS},
    }
    if "salem_constant" in columns:
        entry["salem_constant"] = [float(r["salem_constant"]) for r in rows]
    return entry


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SALEM_REL_TOL * max(abs(a), abs(b))


# -- campaign workloads ----------------------------------------------------

class CampaignWorkload:
    """A verification campaign run through run_campaign, reports written as CSV and JSON.

    The first pass of a seed pinned in bench/reference/ is compared column by
    column with the reference; for every seed, a seed-chosen sample of its
    rows is recomputed by the oracles above and by the brute incidence route.
    """

    def __init__(self, name: str, mapping: dict, warm_trials: int, sample: int):
        self.name = name
        self.mapping = mapping
        self.warm_trials = warm_trials
        self.sample = sample

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.config = fq.CampaignConfig.from_mapping({**self.mapping, "seed": seed})
        # Warm-up: the same cell, a few random trials; fills the per-(q, d, k)
        # tables and the BLAS thread pool without paying for a full pass.
        warm = fq.CampaignConfig.from_mapping(
            {**self.mapping, "mode": "random", "trials": self.warm_trials, "seed": seed}
        )
        self._write(harness.run_campaign(warm), OUT_DIR / f"{self.name}.warm")
        if self.config.mode == "exhaustive":
            q, d, k = self.config.q_list[0], self.config.d_list[0], self.config.k_list[0]
            self.sets_per_pass = sum(
                math.comb(q**d, harness.evaluate_size(size, q=q, d=d, k=k)) for size in self.config.sizes
            )
        else:
            self.sets_per_pass = self.config.trials * len(self.config.sizes)
        self.prefix = OUT_DIR / self.name
        self.gate_prefix = OUT_DIR / f"{self.name}.gate"
        self.gate_digest: list[str] | None = None
        self.gate_passes: list[int] = []

    @staticmethod
    def _write(result, prefix: Path) -> None:
        harness.write_report(result, "csv", f"{prefix}.csv")
        harness.write_report(result, "json", f"{prefix}.json")

    def prepare(self, i: int):
        return self.config

    def execute(self, config) -> int:
        result = harness.run_campaign(config)
        self._write(result, self.prefix)
        return len(result.rows)

    def check(self, i: int, item, output: int) -> list[str]:
        """Cheap: the reports must be byte-identical to the first pass's, kept as the gate copy."""
        digest = [_file_digest(f"{self.prefix}.{ext}") for ext in ("csv", "json")]
        if self.gate_digest is None:
            self.gate_digest = digest
            for ext in ("csv", "json"):
                shutil.copyfile(f"{self.prefix}.{ext}", f"{self.gate_prefix}.{ext}")
        elif digest != self.gate_digest:
            return [f"pass {i}: reports differ from the first pass"]
        self.gate_passes.append(i)
        return []

    def final_check(self) -> list[tuple[list[int], list[str]]]:
        """The gate copy checked in full; a failure fails every pass that reproduced it."""
        if self.gate_digest is None:
            return []
        problems = self._full_check(Path(f"{self.gate_prefix}.csv").read_text(encoding="ascii"))
        return [(self.gate_passes, problems)] if problems else []

    def _full_check(self, csv_text: str) -> list[str]:
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        problems = []
        if len(rows) != self.sets_per_pass:
            problems.append(f"{len(rows)} rows, expected {self.sets_per_pass}")
        problems += self._check_json(rows)
        problems += self._check_reference(csv_text)
        picks = random.Random(self.seed).sample(range(len(rows)), min(self.sample, len(rows)))
        for row_index in sorted(picks):
            problems += self._cross_check(rows[row_index], row_index)
        return problems

    def _check_json(self, rows: list[dict]) -> list[str]:
        doc = json.loads(Path(f"{self.gate_prefix}.json").read_text(encoding="ascii"))
        if not doc["ok"] or doc["hard_failure_count"]:
            return [f"JSON report not ok: {doc['hard_failure_count']} hard failures"]
        if len(doc["rows"]) != len(rows):
            return [f"JSON report has {len(doc['rows'])} rows, CSV has {len(rows)}"]
        for j, (json_row, csv_row) in enumerate(zip(doc["rows"], rows)):
            if any(_fmt(json_row[c]) != v for c, v in csv_row.items()):
                return [f"JSON row {j} disagrees with CSV row {j}"]
        return []

    def _check_reference(self, csv_text: str) -> list[str]:
        path = REFERENCE_DIR / f"{self.name}.json"
        seeds = json.loads(path.read_text(encoding="ascii"))["seeds"]
        pinned = seeds.get(str(self.seed), seeds.get("*"))
        if pinned is None:
            return []
        got = reference_entry(csv_text)
        problems = [
            f"column {c} differs from the pinned reference"
            for c, h in pinned["digests"].items()
            if got["digests"].get(c) != h
        ]
        if got["rows"] != pinned["rows"]:
            problems.append(f"{got['rows']} rows, pinned reference has {pinned['rows']}")
        if "salem_constant" in pinned:
            if not all(map(_close, got.get("salem_constant", []), pinned["salem_constant"])):
                problems.append("salem_constant differs from the pinned reference")
        return problems

    @staticmethod
    def _rebuild(row: dict):
        q, d, size = int(row["q"]), int(row["d"]), int(row["size"])
        if row["mode"] == "exhaustive":
            picks = next(islice(combinations(range(q**d), size), int(row["trial"]), None))
            return q, d, size, picks
        E = fq.gen_random(q, d, size, int(row["trial_seed"]))
        return q, d, size, E.indices()

    def _cross_check(self, row: dict, row_index: int) -> list[str]:
        q, d, size, picks = self._rebuild(row)
        pts = _points(picks, q, d)
        diffs = _differences(pts, q)
        dirs = _directions(diffs, q)
        ambient = (q**d - 1) // (q - 1)
        problems = []
        expected = {
            "direction_count": len(dirs),
            "ambient_count": ambient,
            "full_coverage": len(dirs) == ambient,
        }
        if row["kind"] == "theorem-main":
            k = int(row["k"])
            brute = incidence.theorem_main_threshold(fq.PointSet.from_indices(q, d, picks), k, method="brute")
            expected.update(
                nu_min=brute.min_nu,
                threshold_holds=brute.holds,
                slope_pattern_covered=brute.slope_pattern_covered,
                literal_subset=_subspace_directions(q, d, k + 1) <= dirs,
            )
        else:
            oracle_salem = _salem_constant(picks, q, d)
            bound_ii = min(size * size / q, float(q ** (d - 1)))
            bound_diff = min(size * size, q**d)
            expected.update(
                diff_size=len(diffs),
                bound_ii=bound_ii,
                bound_iii=size,
                bound_diff=bound_diff,
                ratio_ii=len(dirs) / bound_ii,
                ratio_iii=len(dirs) / size,
                ratio_diff=len(diffs) / bound_diff,
                quotient_bound_holds=len(dirs) * (q - 1) >= len(diffs) - 1,
            )
            if not _close(float(row["salem_constant"]), oracle_salem):
                problems.append(
                    f"row {row_index}: salem_constant {row['salem_constant']} vs numpy.fft {oracle_salem!r}"
                )
            if not float(row["parseval_defect_rel"]) <= salem.PARSEVAL_TOLERANCE:
                problems.append(
                    f"row {row_index}: parseval_defect_rel {row['parseval_defect_rel']} above tolerance"
                )
        return problems + [
            f"row {row_index}: {col} = {row[col]}, oracle gives {_fmt(value)}"
            for col, value in expected.items()
            if row[col] != _fmt(value)
        ]


# -- single-set queries on a large grid ------------------------------------

class SpectralWorkload:
    """Single-set queries on a random set per pass, both incidence routes.

    Passes cycle through SETS sets drawn from the seed, so every run times the
    same mix; a set's first outputs are checked in full by final_check.
    """

    name = "spectral-large"
    q, d, size, k = 101, 3, 102, 1
    sets_per_pass = 1
    SETS = 8

    def setup(self, seed: int) -> None:
        self.seed = seed
        fq.check_size_cap(self.q, self.d)
        rng = random.Random(seed)
        draws = [sorted(rng.sample(range(self.q**self.d), self.size)) for _ in range(self.SETS + 1)]
        self.sets = draws[1:]
        self.execute(draws[0])
        self.first: dict[int, tuple] = {}
        self.passes_of: dict[int, list[int]] = {}

    def prepare(self, i: int) -> list[int]:
        return self.sets[(i - 1) % self.SETS]

    def execute(self, picks: list[int]):
        E = pointset.PointSet.from_indices(self.q, self.d, picks)
        rep = salem.salem_report(E)
        rec = salem.difference_bound_check(E)
        dirs = directions.direction_set(E)
        spectral = incidence.theorem_main_threshold(E, self.k)
        brute = incidence.theorem_main_threshold(E, self.k, method="brute")
        return rep, rec, len(dirs), spectral, brute

    def check(self, i: int, picks: list[int], output) -> list[str]:
        """Cheap: a repeated set must give the outputs of its first pass."""
        j = (i - 1) % self.SETS
        if self.first.setdefault(j, output) != output:
            return [f"pass {i}: outputs on set {j} differ from its first pass"]
        self.passes_of.setdefault(j, []).append(i)
        return []

    def final_check(self) -> list[tuple[list[int], list[str]]]:
        return [
            (self.passes_of[j], problems)
            for j, output in sorted(self.first.items())
            if (problems := self._full_check(j, output))
        ]

    def _full_check(self, j: int, output) -> list[str]:
        rep, rec, n_dirs, spectral, brute = output
        q, k, picks = self.q, self.k, self.sets[j]
        pts = _points(picks, q, self.d)
        diffs = _differences(pts, q)
        n_dirs_oracle = len(_directions(diffs, q))
        by_first = Counter(p[0] for p in pts)
        by_prefix = Counter(p[: k + 1] for p in pts)
        moving = self.size * (self.size - 1) - sum(c * (c - 1) for c in by_first.values())
        degenerate = sum(c * (c - 1) for c in by_prefix.values())
        oracle_salem = _salem_constant(picks, q, self.d)
        checks = {
            "spectral and brute per-slope outcomes agree": spectral.outcomes == brute.outcomes,
            "threshold holds above |E| > q^k": spectral.holds and spectral.above_threshold,
            "sum of nu over slopes matches the pair count": (
                sum(o.nu for o in spectral.outcomes) == moving + q**k * degenerate
            ),
            "sum of nondegenerate nu matches the pair count": (
                sum(o.nu_nondegenerate for o in spectral.outcomes) == moving
            ),
            "direction count matches the oracle": n_dirs == rec.direction_count == n_dirs_oracle,
            "difference-set size matches the oracle": rec.diff_size == len(diffs),
            "quotient bound flag matches the oracle": (
                rec.quotient_bound_holds == (n_dirs_oracle * (q - 1) >= len(diffs) - 1)
            ),
            "salem_report constant matches numpy.fft": _close(rep.salem_constant, oracle_salem),
            "difference_bound_check constant matches numpy.fft": _close(rec.salem_constant, oracle_salem),
        }
        return [f"set {j}: {name}" for name, ok in checks.items() if not ok]


WORKLOADS = {
    "exhaustive-small": lambda: CampaignWorkload(
        "exhaustive-small",
        {"kind": "theorem-main", "q": 3, "d": 2, "k": 1, "sizes": [4, 5, 6], "mode": "exhaustive", "threads": 1},
        warm_trials=20, sample=8,
    ),
    "random-mid": lambda: CampaignWorkload(
        "random-mid",
        {"kind": "theorem-main", "q": 11, "d": 3, "k": 2, "sizes": ["q^k+1"], "mode": "random",
         "trials": 20, "threads": 1},
        warm_trials=2, sample=4,
    ),
    "salem-mid": lambda: CampaignWorkload(
        "salem-mid",
        {"kind": "salem-bounds", "q": 13, "d": 3, "sizes": ["q+1", "2*q", "q^2+1"], "mode": "random",
         "trials": 10, "threads": 1},
        warm_trials=2, sample=4,
    ),
    "spectral-large": SpectralWorkload,
}


# -- host-speed calibration ------------------------------------------------
#
# Shared hosts drift in speed by a quarter or more over seconds to minutes,
# in CPU time as much as in wall time, so two runs of the same code minutes
# apart can differ by more than any useful regression bound.  A fixed kernel
# that uses no library code is timed before the first pass and after every
# pass; a pass's normalised wall clock is its wall clock over the mean of the
# two calibrations around it, times CALIBRATION_REF_S.  A change to the
# library moves the pass and not the kernel; a host slowdown moves both.

#: Median of calibrate() on the machine the benchmark was tuned on: 2 vCPUs
#: of an Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6, BLAS threads 1.
CALIBRATION_REF_S = 0.037

# The kernel mixes the three kinds of work the workloads spend their time
# on: interpreter loops, row sorts (np.unique, as in direction classing) and
# complex matrix products (as in the axis-by-axis transform).
_CAL_ROWS = np.random.default_rng(0).integers(0, 11, size=(6000, 3))
_CAL_MATRIX = np.exp(2j * np.pi * np.random.default_rng(1).random((101, 101)))
_CAL_VECTORS = np.exp(2j * np.pi * np.random.default_rng(2).random((101, 1010)))


def calibrate() -> float:
    """Wall clock of one run of the fixed calibration kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    for _ in range(2):
        np.unique(_CAL_ROWS, axis=0)
    for _ in range(10):
        _CAL_MATRIX @ _CAL_VECTORS
    return time.perf_counter() - start


def normalised(walls: list[float], calibrations: list[float]) -> list[float]:
    """Each pass's wall clock at the reference speed of the calibration kernel."""
    return [
        wall * 2 * CALIBRATION_REF_S / (before + after)
        for wall, before, after in zip(walls, calibrations, calibrations[1:])
    ]


# -- measurement -----------------------------------------------------------

class Tally:
    """Passes run and failed, with the first few problems for the log.

    Passes are numbered 1, 2, ... over the whole child, traced or not.
    """

    def __init__(self, sets_per_pass: int) -> None:
        self.sets_per_pass = sets_per_pass
        self.passes = 0
        self.failed_passes: set[int] = set()
        self.problems: list[str] = []
        self.span_ranges: list[tuple[int, int]] = []

    @property
    def attempted(self) -> int:
        return self.passes * self.sets_per_pass

    @property
    def failed(self) -> int:
        return len(self.failed_passes) * self.sets_per_pass

    def fail(self, passes: list[int], problems: list[str]) -> None:
        self.failed_passes.update(passes)
        self.problems.extend(problems[: max(0, 5 - len(self.problems))])

    def run(self, workload, tracer: Tracer | None = None) -> float:
        """Run the next pass, check it cheaply, and return its timed wall clock.

        With a tracer, the timed region is one PASS_SPAN and the span index
        range it covers is appended to self.span_ranges.
        """
        self.passes += 1
        i = self.passes
        item = workload.prepare(i)
        if tracer is not None:
            first = len(tracer.spans)
            span = tracer.open(PASS_SPAN)
        start = time.perf_counter()
        try:
            output = workload.execute(item)
        except NumericalInconsistencyError as exc:
            output, problems = None, [f"pass {i}: {exc}"]
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.close(span)
            self.span_ranges.append((first, len(tracer.spans)))
        if output is not None:
            problems = workload.check(i, item, output)
        if problems:
            self.fail([i], problems)
        return wall

    def settle(self, workload) -> None:
        """Run the workload's full checks; each failure fails the passes it covers."""
        for passes, problems in workload.final_check():
            self.fail(passes, problems)


def _timed_passes(
    workload, tally: Tally, seconds: float, tracer: Tracer | None = None, calibrations: list | None = None
) -> list[float]:
    """Closed loop: pass after pass until `seconds` have elapsed.

    With a `calibrations` list, calibrate() runs before the first pass and
    after every pass, and its times are appended there.
    """
    walls = []
    if calibrations is not None:
        calibrations.append(calibrate())
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(tally.run(workload, tracer))
        if calibrations is not None:
            calibrations.append(calibrate())
    return walls


def _layer_metrics(workload, tally: Tally, seconds: float, untraced: list[float]) -> tuple[dict, dict]:
    """Traced passes: exact counters from the first, self times per pass.

    Also returns each span name's share of a traced pass: its self time over
    the traced wall clock ("bench.pass" is the benchmark's own code between
    library calls).  Shares include the tracing overhead.
    """
    tracer = Tracer()
    tracer.install()
    try:
        walls = _timed_passes(workload, tally, seconds, tracer)
    finally:
        tracer.uninstall()
    first_pass = tally.span_ranges[0]
    counters = tracer.counters(*first_pass)
    self_times = {}
    for first, last in tally.span_ranges:
        for name, value in tracer.self_times(first, last).items():
            self_times[name] = self_times.get(name, 0.0) + value
    metrics = {}
    for module_name, attr in TRACED:
        name = f"{module_name}.{attr.split('.')[-1]}"
        metrics[f"{name}.calls"] = counters["calls"].get(name, 0)
        metrics[f"{name}.self_s"] = self_times.get(name, 0.0) / len(walls)
    metrics.update({k: v for k, v in counters.items() if k != "calls"})
    metrics["trace.overhead_s"] = sum(walls) / len(walls) - sum(untraced) / len(untraced)
    header = {"workload": workload.name, "seed": workload.seed, "machine": _machine(),
              "traced_passes": len(walls), "wall_s_per_traced_pass": sum(walls) / len(walls)}
    tracer.write(str(OUT_DIR / f"{workload.name}.spans.jsonl"), *first_pass, header)
    ranked = sorted(self_times.items(), key=lambda item: -item[1])
    return metrics, {name: value / sum(walls) for name, value in ranked}


def _machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    _emit({"event": "ready"})
    if args.setup_only:
        # Host speed right after set-up, to normalise the set-up time by.
        _emit({"event": "result", "calibration": calibrate(), "calibration_ref_s": CALIBRATION_REF_S})
        return 0

    tally = Tally(workload.sets_per_pass)
    result = {"event": "result", "machine": _machine(), "calibration_ref_s": CALIBRATION_REF_S}
    if args.trace:
        untraced = _timed_passes(workload, tally, args.seconds / 2)
        result["layers"], result["shares"] = _layer_metrics(workload, tally, args.seconds / 2, untraced)
    else:
        calibrations: list[float] = []
        walls = _timed_passes(workload, tally, args.seconds, calibrations=calibrations)
        result.update(
            walls=walls,
            calibrations=calibrations,
            norm_walls=normalised(walls, calibrations),
            sets_per_pass=workload.sets_per_pass,
        )
    # Read before the full checks, which hold whole reports in memory.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally.settle(workload)
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
