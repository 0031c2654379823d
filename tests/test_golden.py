"""Golden reports: one small config per campaign kind, compared byte for byte.

The files under tests/golden/ were written by this module from the library
and are the record behind the README's byte-determinism claim.  A change
that alters any report byte fails here; when the change is deliberate (a
float column changes, a column is added), re-pin with

    PYTHONPATH=src python tests/test_golden.py

and log the re-pin, with its reason, in CHANGES.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

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
}

FORMATS = ("csv", "json")


def _render(name: str, format: str) -> bytes:
    result = run_campaign(CampaignConfig.from_mapping(CONFIGS[name]))
    return emit_report(result, format).encode("ascii")


@pytest.mark.parametrize("format", FORMATS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name, format):
    golden = (GOLDEN_DIR / f"{name}.{format}").read_bytes()
    assert _render(name, format) == golden


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(CONFIGS):
        for format in FORMATS:
            path = GOLDEN_DIR / f"{name}.{format}"
            path.write_bytes(_render(name, format))
            print(f"wrote {path}")
