"""Golden reports: one small config per campaign kind, and sampled theorem-main
configs through both index draws, compared byte for byte.

The files under tests/golden/ were written by this module from the library
and are the record behind the README's byte-determinism claim.  A change
that alters any report byte fails here; when the change is deliberate (a
float column changes, a column is added), re-pin with

    PYTHONPATH=src python tests/test_golden.py

which first prints, per file, the columns that changed and in how many
rows, and log the re-pin, with that summary and its reason, in CHANGES.md.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import pytest

from fqdirections import harness
from fqdirections.harness import CampaignConfig, emit_report, run_campaign

GOLDEN_DIR = Path(__file__).parent / "golden"

CONFIGS = {
    "theorem-main": {
        "kind": "theorem-main", "q": 3, "d": 2, "k": 1, "sizes": ["q^k", "q^k+1"], "mode": "exhaustive",
    },
    "salem-bounds": {
        "kind": "salem-bounds", "q": 5, "d": 2, "sizes": [3, "q-1", "q+1", "2*q"],
        "trials": 6, "seed": 20260823, "mode": "random", "ratio_floor": 0.8,
    },
    "sharpness": {"kind": "sharpness", "q": 3, "d": 3},
    # sampled theorem-main with k < d-1, through both index draws; size 70
    # draws more indices than one jump table holds (rng._TABLE_STEPS)
    "theorem-main-random": {
        "kind": "theorem-main", "q": 5, "d": 3, "k": 1, "sizes": ["q^k+1", 70],
        "trials": 5, "seed": 20261019, "mode": "random",
    },
    "theorem-main-subspace-random": {
        "kind": "theorem-main", "q": 5, "d": 3, "k": 1, "sizes": ["q^k+1", 25],
        "trials": 5, "seed": 20261019, "mode": "random", "generator": "subspace-random",
    },
}

FORMATS = ("csv", "json")


def _render(name: str, format: str, **overrides) -> bytes:
    result = run_campaign(CampaignConfig.from_mapping({**CONFIGS[name], **overrides}))
    return emit_report(result, format).encode("ascii")


@pytest.mark.parametrize("format", FORMATS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name, format):
    golden = (GOLDEN_DIR / f"{name}.{format}").read_bytes()
    assert _render(name, format) == golden


# _BLOCK_CELLS and the block sizes it gives each cell: five sets per block
# of F_3^2 (C(9, 3) = 84 and C(9, 4) = 126 sets), two per block of F_5^2 and
# one of ten points, which have more than two pairs a grid cell
TWO_THREAD_BUDGETS = {
    "theorem-main": (5 * 3**2, [[5] * 16 + [4], [5] * 25 + [1]]),
    "salem-bounds": (2 * 5**2, [[2, 2, 2]] * 3 + [[1] * 6]),
}


@pytest.mark.parametrize("format", FORMATS)
@pytest.mark.parametrize("name", ["salem-bounds", "theorem-main"])
def test_report_matches_golden_with_two_threads(name, format, monkeypatch, block_sizes):
    # blocks run in order in the calling thread whatever threads is, so with
    # several blocks per cell the threads echo is the only byte that changes
    monkeypatch.setattr(harness, "_BLOCK_CELLS", TWO_THREAD_BUDGETS[name][0])
    golden = (GOLDEN_DIR / f"{name}.{format}").read_bytes()
    if format == "json":
        # the config echo is the one place the thread count appears
        assert golden.count(b'"threads": 1,') == 1
        golden = golden.replace(b'"threads": 1,', b'"threads": 2,')
    assert _render(name, format, threads=2) == golden
    assert block_sizes == TWO_THREAD_BUDGETS[name][1]


@pytest.mark.parametrize("format", FORMATS)
@pytest.mark.parametrize("name", ["theorem-main-random", "theorem-main-subspace-random"])
def test_sampled_report_matches_golden_across_blocks(name, format, monkeypatch, block_sizes):
    # two size-6 sets per block of F_5^3 and one larger set (more than two
    # pairs a grid cell): each cell of five trials draws several blocks of seeds
    monkeypatch.setattr(harness, "_BLOCK_CELLS", 2 * 5**3)
    assert _render(name, format) == (GOLDEN_DIR / f"{name}.{format}").read_bytes()
    assert block_sizes == [[2, 2, 1], [1] * 5]


def _rows(text: str, format: str) -> tuple[list[dict], dict]:
    """A report's rows, and for JSON its other top-level entries."""
    if format == "csv":
        return list(csv.DictReader(io.StringIO(text))), {}
    doc = json.loads(text)
    return doc.pop("rows"), doc


def change_summary(old: str, new: str, format: str) -> str:
    """Which columns changed between two renderings of a report, and in how many rows."""
    old_rows, old_rest = _rows(old, format)
    new_rows, new_rest = _rows(new, format)
    n = max(len(old_rows), len(new_rows))
    columns = dict.fromkeys(key for row in old_rows + new_rows for key in row)
    changes = []
    for col in columns:
        count = sum(
            i >= len(old_rows) or i >= len(new_rows) or old_rows[i].get(col) != new_rows[i].get(col)
            for i in range(n)
        )
        if count:
            changes.append(f"{col} in {count} of {n} rows")
    if len(old_rows) != len(new_rows):
        changes.append(f"row count {len(old_rows)} -> {len(new_rows)}")
    changes += [f"{key} section" for key in dict.fromkeys([*old_rest, *new_rest]) if old_rest.get(key) != new_rest.get(key)]
    return "changed: " + ", ".join(changes) if changes else "unchanged"


def test_change_summary_names_columns_and_rows():
    old = "a,b\n1,2\n3,4\n"
    assert change_summary(old, old, "csv") == "unchanged"
    summary = change_summary(old, "a,b\n1,5\n3,4\n5,6\n", "csv")
    assert summary == "changed: a in 1 of 3 rows, b in 2 of 3 rows, row count 2 -> 3"
    doc = {"kind": "x", "rows": [{"a": 1}, {"a": 2}], "ok": True}
    assert change_summary(json.dumps(doc), json.dumps({**doc, "rows": [{"a": 1}, {"a": 3}], "ok": False}), "json") == (
        "changed: a in 1 of 2 rows, ok section"
    )

if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    rendered = {(name, fmt): _render(name, fmt) for name in sorted(CONFIGS) for fmt in FORMATS}
    for (name, fmt), text in rendered.items():
        path = GOLDEN_DIR / f"{name}.{fmt}"
        old = path.read_text(encoding="ascii") if path.exists() else None
        print(f"{path}: {'new file' if old is None else change_summary(old, text.decode('ascii'), fmt)}")
    for (name, fmt), text in rendered.items():
        path = GOLDEN_DIR / f"{name}.{fmt}"
        path.write_bytes(text)
        print(f"wrote {path}")
