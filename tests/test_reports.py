"""emit_report renders a block at a time; it must match the row-wise reference byte for byte."""

from __future__ import annotations

import json
from enum import IntEnum
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fqdirections.harness import _COLUMNS, CampaignConfig, CampaignResult, _json_cell, emit_report, run_campaign
from test_golden import CONFIGS as GOLDEN_CONFIGS
from test_theorem_blocks import THREE_GRIDS, set_budget

CONFIGS = {
    **{f"golden-{name}": mapping for name, mapping in GOLDEN_CONFIGS.items()},
    # auto mode: q = 3 is enumerated, q = 11 sampled, so trial_seed mixes None and int
    "auto-mixed": {"kind": "theorem-main", "q": [3, 11], "d": 2, "k": 1, "sizes": ["q^k+1"]},
    # a floor no set reaches: every row flags one or both ratios
    "salem-flagged": {
        "kind": "salem-bounds", "q": 5, "d": 3, "k": 1, "sizes": ["q+1", "2*q"], "trials": 8, "seed": 3,
        "mode": "random", "generator": "subspace-random", "ratio_floor": 2.0,
    },
}


def _assert_matches_reference(result: CampaignResult) -> None:
    for format in ("csv", "json"):
        assert emit_report(result, format) == oracles.report_by_rows(result, format, _COLUMNS[result.kind])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_row_wise_reference(name):
    result = run_campaign(CampaignConfig.from_mapping(CONFIGS[name]))
    _assert_matches_reference(result)


@pytest.mark.parametrize("budget", ["_BLOCK_CELLS=1", THREE_GRIDS])
@pytest.mark.parametrize("name", ["auto-mixed", "salem-flagged", "golden-sharpness"])
def test_report_across_block_boundaries(name, budget, monkeypatch, block_sizes):
    # small budgets split each sampled cell into several blocks; the report
    # still matches the row-wise reference and the default budget's report
    config = CampaignConfig.from_mapping(CONFIGS[name])
    whole = run_campaign(config)
    block_sizes.clear()
    set_budget(monkeypatch, config, budget)
    split = run_campaign(config)
    assert len(split.blocks) == sum(map(len, block_sizes))
    if name != "golden-sharpness":
        assert all(len(sizes) > 1 for sizes in block_sizes)
    _assert_matches_reference(split)
    for format in ("csv", "json"):
        assert emit_report(split, format) == emit_report(whole, format)


def test_reference_configs_cover_mixed_and_listed_cells():
    mixed = run_campaign(CampaignConfig.from_mapping(CONFIGS["auto-mixed"])).columns["trial_seed"]
    assert None in mixed and any(isinstance(seed, int) for seed in mixed)
    flags = run_campaign(CampaignConfig.from_mapping(CONFIGS["salem-flagged"])).columns["soft_flags"]
    assert all(flags) and any(len(f) == 2 for f in flags)


def test_hand_built_result_quotes_and_types_like_reference():
    config = CampaignConfig(kind="sharpness", q_list=(3,), d_list=(2,))
    values = {
        # strings holding the delimiter, the quote character and a newline
        "kind": ["plain", "a,b", 'say "hi"', "two\nlines", "x"],
        "mode": ["", ",", '"', "\n", "x"],
        "soft_flags": [(), ("one",), ("x,y", 'q"z'), ("a", "b\nc"), ()],
        # equal values of different types, and the two zeros, in one column
        "direction_count": [1, True, 1.0, 0.0, -0.0],
        "expected_count": [Fraction(7, 3), Fraction(6), None, float("nan"), float("inf")],
    }
    columns = {name: values.get(name, list(range(5))) for name in _COLUMNS["sharpness"]}
    result = CampaignResult(
        "sharpness", config, (columns,), {"cells_checked": 5, "bound": Fraction(1, 2)},
        ({"severity": "soft", "reason": "r,\"s\"", "fset": "3 2\n0 1\n"},),
    )
    _assert_matches_reference(result)
    text = emit_report(result, "csv")
    assert '"a,b"' in text and '"say ""hi"""' in text and '"two\nlines"' in text and '"x,y;q""z"' in text


def test_hand_built_blocks_fold_constants_like_reference():
    # typed numpy columns, and constants at a row's edges and between its per-row columns, over blocks of 3 and 1 rows
    config = CampaignConfig(kind="salem-bounds", q_list=(3,), d_list=(2,), sizes=(4,))
    odd = ['x,y "%s" 100%\nz', "%d,%%", '"', "\n", ("a,b", 'c"\n%')]
    three = {
        "kind": odd[0],  # the first column a constant
        "q": np.array([-5, 2**53 + 1, 2**63 - 1]),
        "d": odd[1],
        "k": None,
        "size": range(3),
        "mode": odd[2],
        "trial": [0, 1, 2],
        "trial_seed": [None, 7, -(2**63)],
        "direction_count": np.array([1, -1, 0], dtype=np.int64),
        "ambient_count": 4,
        "full_coverage": np.array([True, False, True]),
        "diff_size": Fraction(9, 2),
        "bound_ii": np.array([-0.0, 5e-324, 1.5]),
        "bound_iii": np.array([0.1, float("nan"), -float("inf")]),  # not finite: rendered value by value
        "bound_diff": 2.5,
        "is_salem": np.array([False, False, True]),
        "hard_fail": np.array([True, True, False]),
        "soft_flags": odd[4],  # the last column a constant
    }
    one = {
        "kind": ["single"],  # this block's first and last columns per-row, its constants in the middle
        "q": odd[3],
        "mode": np.array([True]),
        "ratio_ii": np.array([float("nan")]),
        "is_salem": np.array([True]),
        "soft_flags": [("r",)],
    }
    filler = {name: float(i) if i % 2 else i for i, name in enumerate(_COLUMNS["salem-bounds"])}
    blocks = ({**filler, **three}, {**filler, **one})
    result = CampaignResult("salem-bounds", config, blocks, {"cells": []}, ())
    _assert_matches_reference(result)
    assert len(result.rows) == 4


def test_carriage_return_is_quoted():
    # as csv.writer does from Python 3.12 on; 3.11 quotes only the line terminator's characters
    config = CampaignConfig(kind="sharpness", q_list=(3,), d_list=(2,))
    columns = {name: ["cr\rhere"] for name in _COLUMNS["sharpness"]}
    line = emit_report(CampaignResult("sharpness", config, (columns,), {}, ()), "csv").split("\n")[1]
    assert line == ",".join(['"cr\rhere"'] * len(columns))


def _text_in_document(value) -> str:
    """value's text where a row value stands, cut from json.dumps(indent=2) of a whole document."""
    text = json.dumps({"rows": [{"v": str(value) if isinstance(value, Fraction) else value}]}, indent=2)
    head, tail = '{\n  "rows": [\n    {\n      "v": ', "\n    }\n  ]\n}"
    assert text.startswith(head) and text.endswith(tail)
    return text[len(head):-len(tail)]


_STRINGS = st.text(max_size=6) | st.sampled_from(['"', "\\", 'a "b"', "\x00", "\x1f\n\t", "\x7f", "é", "\u2028", "\U0001f600"])
_FLOATS = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, -2.2e-308, 1.7976931348623157e308, 0.1]
)
_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63),
    st.integers(max_value=-(2**63) - 1),
    _FLOATS,
    st.fractions(),
    _STRINGS,
    st.lists(_STRINGS, max_size=3).map(tuple),
)


@settings(max_examples=500, deadline=None)
@given(_CELLS)
def test_json_cell_is_the_json_dumps_text(value):
    assert _json_cell(value) == _text_in_document(value)


class _Colour(IntEnum):
    RED = 1


class _Text(str):
    pass


@pytest.mark.parametrize(
    "value", [_Colour.RED, np.float64(0.5), np.float64("nan"), np.str_("x"), _Text('a "b"')]
)
def test_json_cell_sends_other_types_through_json_dumps(value):
    assert _json_cell(value) == json.dumps(value)


@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True)])
def test_json_cell_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value)
    with pytest.raises(TypeError):
        _json_cell(value)
