"""The benchmark's pinned campaign references, checked on every test run.

bench/reference/<workload>.json pins, for a campaign config and a seed, the
CSV report's row count, a digest of each column's values and the float
salem_constant column.  A benchmark run checks them only for the seeds it
happens to run; this test runs each reference's own config at fixed seeds
and compares the same quantities, reading the files and writing nothing.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from fqdirections.harness import CampaignConfig, emit_report, run_campaign

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "bench" / "reference"

#: Columns compared by value, not by digest: their last bits may move with a
#: transform that reorders float sums.
FLOAT_COLUMNS = ("salem_constant", "parseval_defect_rel")

SALEM_REL_TOL = 1e-9

# exhaustive campaigns enumerate every set whatever the seed, so they are
# pinned once under "*"
PINNED = [("exhaustive-small", "*")] + [(name, seed) for name in ("random-mid", "salem-mid") for seed in ("0", "31")]


def _digest(values) -> str:
    """The first 16 hex digits of the sha256 of a column's values joined by newlines."""
    return hashlib.sha256("\n".join(values).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name, seed", PINNED)
def test_campaign_matches_bench_reference(name, seed):
    reference = json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="ascii"))
    pinned = reference["seeds"][seed]
    mapping = reference["config"] if seed == "*" else {**reference["config"], "seed": int(seed)}
    text = emit_report(run_campaign(CampaignConfig.from_mapping(mapping)), "csv")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == pinned["rows"]
    digests = {c: _digest(row[c] for row in rows) for c in rows[0] if c not in FLOAT_COLUMNS}
    assert digests == pinned["digests"]
    if "salem_constant" in pinned:
        assert [float(row["salem_constant"]) for row in rows] == pytest.approx(
            pinned["salem_constant"], rel=SALEM_REL_TOL, abs=0
        )
