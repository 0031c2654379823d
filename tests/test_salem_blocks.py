"""salem-bounds cells are evaluated a block of sets at a time.

Every batched row must equal the row built for its set alone from
difference_bound_check, the one-set entry point, with the flag rules written
out as the per-set loop they replace.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqdirections import harness
from fqdirections.directions import ambient_direction_count
from fqdirections.errors import NumericalInconsistencyError
from fqdirections.harness import _COLUMNS, CampaignConfig, Cell, Rows, _block_rows, run_campaign
from fqdirections.pointset import PointSet, format_fset
from fqdirections.salem import difference_bound_check

from test_theorem_blocks import BUDGETS, THREE_GRIDS, TWO_GRIDS, _reference_sets, set_budget


def _reference_row(E: PointSet, cell: Cell, trial: int, seed: int | None, config: CampaignConfig) -> dict:
    rec = difference_bound_check(E)
    ambient_n = ambient_direction_count(cell.q, cell.d)
    full = rec.direction_count == ambient_n
    hard = (rec.set_size > cell.q ** (cell.d - 1) and not full) or not rec.quotient_bound_holds
    soft = []
    if rec.ratio_ii < config.ratio_floor:
        soft.append("ratio-ii-floor")
    if rec.ratio_diff < config.ratio_floor:
        soft.append("ratio-diff-floor")
    return {
        "kind": "salem-bounds", "q": cell.q, "d": cell.d, "k": cell.k, "size": cell.size, "mode": cell.mode,
        "trial": trial, "trial_seed": seed,
        "direction_count": rec.direction_count, "ambient_count": ambient_n, "full_coverage": full,
        "diff_size": rec.diff_size, "bound_ii": rec.bound_ii, "bound_iii": rec.bound_iii,
        "bound_diff": rec.bound_diff, "ratio_ii": rec.ratio_ii, "ratio_iii": rec.ratio_iii,
        "ratio_diff": rec.ratio_diff, "salem_constant": rec.salem_constant,
        "is_salem": rec.salem_constant <= config.salem_threshold,
        "parseval_defect_rel": rec.parseval_defect_rel, "quotient_bound_holds": rec.quotient_bound_holds,
        "hard_fail": hard, "soft_flags": tuple(soft),
    }


def _assert_matches_per_set(config: CampaignConfig) -> None:
    result = run_campaign(config)
    expected = [
        _reference_row(E, cell, trial, seed, config)
        for cell in harness._expand_cells(config)
        for trial, seed, E in _reference_sets(config, cell)
    ]
    assert list(result.rows) == expected


@st.composite
def _blocks(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(1, 4 if q < 5 else 3))
    n = draw(st.integers(1, min(q**d, 12)))
    picks = draw(
        st.lists(st.lists(st.integers(0, q**d - 1), min_size=n, max_size=n, unique=True), min_size=1, max_size=5)
    )
    return Cell(q, d, None, n, "random"), np.array(picks, dtype=np.int64)


@given(_blocks(), st.sampled_from([0.0, 0.5, 1.0]))
@settings(max_examples=80, deadline=None)
def test_block_rows_match_per_set_rows(block, floor):
    cell, picks = block
    config = CampaignConfig(kind="salem-bounds", q_list=(cell.q,), d_list=(cell.d,), sizes=(cell.size,),
                            ratio_floor=floor)
    trials = range(len(picks))
    block, _ = _block_rows(config, cell, trials, list(trials), picks)
    expected = [
        _reference_row(PointSet.from_indices(cell.q, cell.d, p), cell, t, t, config) for t, p in zip(trials, picks)
    ]
    assert list(Rows(_COLUMNS["salem-bounds"], [block])) == expected


CELL_CONFIGS = {
    "exhaustive": {"kind": "salem-bounds", "q": 3, "d": 2, "sizes": [2, "q", "q+1"], "mode": "exhaustive"},
    # one point (Salem constant 1) and the whole grid (Salem constant 0.0)
    "edges": {"kind": "salem-bounds", "q": 5, "d": 2, "sizes": [1, "q^d"], "trials": 3, "seed": 1, "mode": "random"},
    # a stacked row of a line is one gemv product, as the set's own transform is
    "line": {"kind": "salem-bounds", "q": 7, "d": 1, "sizes": [2, "q-1"], "trials": 5, "seed": 3, "mode": "random"},
    "exhaustive-edges": {"kind": "salem-bounds", "q": 2, "d": 3, "sizes": [1, "q^d"], "mode": "exhaustive"},
    "random": {
        "kind": "salem-bounds", "q": 5, "d": [2, 3], "sizes": [3, "q+1", "2*q"], "trials": 9, "seed": 4,
        "mode": "random", "ratio_floor": 0.8,
    },
    "subspace-random": {
        "kind": "salem-bounds", "q": 3, "d": 4, "k": [1, 2], "sizes": ["q", "q+1"], "trials": 8, "seed": 9,
        "mode": "random", "generator": "subspace-random", "ratio_floor": 0.5,
    },
}

# each budget's block sizes, one list per cell in run order
PARTITIONS = {
    "edges": {
        "default": [[3], [3]],
        "_BLOCK_CELLS=1": [[1] * 3] * 2,
        THREE_GRIDS: [[3], [1] * 3],
        TWO_GRIDS: [[2, 1], [1] * 3],
        "_BLOCK_CELLS=5q^d": [[3], [2, 1]],
    },
    "exhaustive": {
        "default": [[36], [84], [126]],
        "_BLOCK_CELLS=1": [[1] * 36, [1] * 84, [1] * 126],
        THREE_GRIDS: [[3] * 12, [3] * 28, [3] * 42],
        TWO_GRIDS: [[2] * 18, [2] * 42, [2] * 63],
        "_BLOCK_CELLS=5q^d": [[5] * 7 + [1], [5] * 16 + [4], [5] * 25 + [1]],
    },
    "exhaustive-edges": {
        "default": [[8], [1]],
        "_BLOCK_CELLS=1": [[1] * 8, [1]],
        THREE_GRIDS: [[3, 3, 2], [1]],
        TWO_GRIDS: [[2] * 4, [1]],
        "_BLOCK_CELLS=5q^d": [[5, 3], [1]],
    },
    "line": {
        "default": [[5], [5]],
        "_BLOCK_CELLS=1": [[1] * 5] * 2,
        THREE_GRIDS: [[3, 2], [1] * 5],
        TWO_GRIDS: [[2, 2, 1], [1] * 5],
        "_BLOCK_CELLS=5q^d": [[5], [2, 2, 1]],
    },
    "random": {
        "default": [[9]] * 6,
        "_BLOCK_CELLS=1": [[1] * 9] * 6,
        THREE_GRIDS: [[3] * 3] * 2 + [[1] * 9] * 4,
        TWO_GRIDS: [[2] * 4 + [1]] * 2 + [[1] * 9] * 4,
        "_BLOCK_CELLS=5q^d": [[5, 4]] * 2 + [[2] * 4 + [1]] + [[1] * 9] * 3,
    },
    "subspace-random": {
        "default": [[8]] * 4,
        "_BLOCK_CELLS=1": [[1] * 8] * 4,
        THREE_GRIDS: [[3, 3, 2]] * 4,
        TWO_GRIDS: [[2] * 4] * 4,
        "_BLOCK_CELLS=5q^d": [[5, 3]] * 4,
    },
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", sorted(CELL_CONFIGS))
def test_campaign_rows_match_per_set_rows(name, budget, threads, monkeypatch, block_sizes):
    config = CampaignConfig.from_mapping({**CELL_CONFIGS[name], "threads": threads})
    set_budget(monkeypatch, config, budget)
    _assert_matches_per_set(config)
    assert block_sizes == PARTITIONS[name][budget]


def test_edge_cells_have_salem_constant_zero_only_for_the_full_grid():
    # a single point has |Ehat| = q^-d everywhere, so C = 1 up to rounding
    result = run_campaign(CampaignConfig.from_mapping(CELL_CONFIGS["edges"]))
    assert [row["salem_constant"] for row in result.rows if row["size"] == 25] == [0.0] * 3
    assert [row["salem_constant"] for row in result.rows if row["size"] == 1] == pytest.approx([1.0] * 3, abs=1e-12)


def test_flagged_sets_are_formatted_in_trial_order(monkeypatch, block_sizes):
    # no set misses part i, so move the ambient count out of reach: every set
    # above q^(d-1) is flagged hard, and the impossible floor flags every set
    # soft; on F_5^2 four sets go to a block (two of ten points, which have
    # more than two pairs a grid cell), on F_5^3 one
    monkeypatch.setattr(harness, "ambient_direction_count", lambda q, d: -1)
    monkeypatch.setattr(harness, "_BLOCK_CELLS", 4 * 5**2)
    config = CampaignConfig.from_mapping({**CELL_CONFIGS["random"], "ratio_floor": 10.0})
    result = run_campaign(config)
    assert block_sizes == [[4, 4, 1]] * 2 + [[2] * 4 + [1]] + [[1] * 9] * 3
    flagged = []
    for cell in harness._expand_cells(config):
        for trial, _, E in _reference_sets(config, cell):
            reasons = [("hard", "part-i-coverage")] if cell.size > cell.q ** (cell.d - 1) else []
            reasons += [("soft", "ratio-ii-floor"), ("soft", "ratio-diff-floor")]
            flagged += [(severity, reason, cell.d, cell.size, trial, format_fset(E)) for severity, reason in reasons]
    assert [
        (c["severity"], c["reason"], c["d"], c["size"], c["trial"], c["fset"]) for c in result.counterexamples
    ] == flagged
    assert any(severity == "hard" for severity, *_ in flagged)


def test_parseval_failure_inside_a_block(monkeypatch, block_sizes):
    # trials 3-5 share a block and the power rows of trials 4 and 5 are
    # doubled, so the error must name trial 4, the first bad set in trial order
    config = CampaignConfig.from_mapping(
        {"kind": "salem-bounds", "q": 5, "d": 3, "sizes": [9], "trials": 6, "seed": 2, "mode": "random"}
    )
    cell = harness._expand_cells(config)[0]
    sets = {trial: E for trial, _, E in _reference_sets(config, cell)}
    E = sets[4]
    E._spectrum_power = 2 * E.spectrum_power()
    with pytest.raises(NumericalInconsistencyError) as err:
        difference_bound_check(E)
    alone = str(err.value)
    assert alone.startswith("fourth-moment identity defect") and "trial" not in alone

    original = harness.indicator_power
    faulty = {tuple(sets[t].indices().tolist()) for t in (4, 5)}

    def doubled_power(picks, field, dim):
        power = original(picks, field, dim)
        for row, points in zip(power, picks):
            if tuple(sorted(points.tolist())) in faulty:
                row *= 2
        return power

    monkeypatch.setattr(harness, "indicator_power", doubled_power)
    monkeypatch.setattr(harness, "_BLOCK_CELLS", 3 * 5**3)
    with pytest.raises(NumericalInconsistencyError) as err:
        run_campaign(config)
    assert str(err.value) == f"{alone} in trial 4"
    assert block_sizes == [[3, 3]]  # the error came from the second block
