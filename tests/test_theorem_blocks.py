"""Theorem-main cells are evaluated a block of sets at a time.

Every batched row must equal the row built for its set alone from
theorem_main_threshold and direction_set, the one-set entry points, with the
literal_subset rule written out as the enumeration it replaces.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fqdirections import grid, harness, incidence
from fqdirections.directions import ambient_direction_count, coordinate_subspace_directions, direction_set
from fqdirections.errors import NumericalInconsistencyError
from fqdirections.generators import gen_random, gen_subspace_random
from fqdirections.harness import _COLUMNS, CampaignConfig, Cell, Rows, _block_rows, run_campaign
from fqdirections.incidence import theorem_main_threshold
from fqdirections.pointset import PointSet, format_fset

import numpy as np


def _reference_row(E: PointSet, cell: Cell, trial: int, seed: int | None) -> dict:
    q, d, k = cell.q, cell.d, cell.k
    report = theorem_main_threshold(E, k)
    dirs = direction_set(E)
    ambient_n = ambient_direction_count(q, d)
    full = len(dirs) == ambient_n
    hard = report.above_threshold and (not report.holds or (k == d - 1 and not full))
    return {
        "kind": "theorem-main", "q": q, "d": d, "k": k, "size": cell.size, "mode": cell.mode,
        "trial": trial, "trial_seed": seed,
        "nu_min": report.min_nu, "lower_bound": report.lower_bound, "threshold_holds": report.holds,
        "slope_pattern_covered": report.slope_pattern_covered,
        "literal_subset": coordinate_subspace_directions(q, d, k + 1) <= dirs,
        "direction_count": len(dirs), "ambient_count": ambient_n, "full_coverage": full,
        "hard_fail": hard, "soft_flags": (),
    }


def _reference_sets(config: CampaignConfig, cell: Cell):
    """(trial, seed, set) in trial order, drawn by the public generators."""
    if cell.mode == "exhaustive":
        for trial, picks in enumerate(combinations(range(cell.q**cell.d), cell.size)):
            yield trial, None, PointSet.from_indices(cell.q, cell.d, picks)
        return
    for trial in range(config.trials):
        seed = harness._trial_seed(config, cell, trial)
        if config.generator == "subspace-random":
            yield trial, seed, gen_subspace_random(cell.q, cell.d, cell.k + 1, cell.size, seed)
        else:
            yield trial, seed, gen_random(cell.q, cell.d, cell.size, seed)


def _assert_matches_per_set(config: CampaignConfig) -> None:
    result = run_campaign(config)
    expected = [
        _reference_row(E, cell, trial, seed)
        for cell in harness._expand_cells(config)
        for trial, seed, E in _reference_sets(config, cell)
    ]
    assert list(result.rows) == expected


@st.composite
def _blocks(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(2, 4 if q < 5 else 3))
    k = draw(st.integers(1, d - 1))
    n = draw(st.integers(1, min(q**d, 12)))
    picks = draw(
        st.lists(st.lists(st.integers(0, q**d - 1), min_size=n, max_size=n, unique=True), min_size=1, max_size=5)
    )
    return Cell(q, d, k, n, "random"), np.array(picks, dtype=np.int64)


@given(_blocks())
@settings(max_examples=80, deadline=None)
def test_block_rows_match_per_set_rows(block):
    cell, picks = block
    trials = range(len(picks))
    config = CampaignConfig(kind="theorem-main", q_list=(cell.q,), d_list=(cell.d,))
    block, _ = _block_rows(config, cell, trials, list(trials), picks)
    rows = list(Rows(_COLUMNS["theorem-main"], [block]))
    expected = [
        _reference_row(PointSet.from_indices(cell.q, cell.d, p), cell, t, t) for t, p in zip(trials, picks)
    ]
    assert rows == expected


CELL_CONFIGS = {
    "exhaustive": {"kind": "theorem-main", "q": 2, "d": 3, "sizes": ["q^k", "q^k+1"], "mode": "exhaustive"},
    "exhaustive-plane": {"kind": "theorem-main", "q": 3, "d": 2, "k": 1, "sizes": [1, 2, "q^k+1"], "mode": "exhaustive"},
    "random": {"kind": "theorem-main", "q": 5, "d": [3, 4], "trials": 9, "seed": 4, "mode": "random"},
    "subspace-random": {
        "kind": "theorem-main", "q": 3, "d": 4, "k": [1, 2], "sizes": ["q^k", "q^k+1"], "trials": 8,
        "seed": 9, "mode": "random", "generator": "subspace-random",
    },
}


# the three- and two-grid budgets, by test id
THREE_GRIDS, TWO_GRIDS = "_BLOCK_CELLS=3q^d", "_BLOCK_CELLS=2q^d"

# _BLOCK_CELLS budgets, in cells of the config's smallest grid: whole cells
# per block (the default), one set per block (one cell), and three, two or
# five grids, of which sets of more than two pairs a grid cell get half
BUDGETS = {
    "default": None,
    "_BLOCK_CELLS=1": lambda grid: 1,
    THREE_GRIDS: lambda grid: 3 * grid,
    TWO_GRIDS: lambda grid: 2 * grid,
    "_BLOCK_CELLS=5q^d": lambda grid: 5 * grid,
}

# each budget's block sizes, one list per cell in run order
PARTITIONS = {
    "exhaustive": {
        "default": [[28], [56], [70], [56]],
        "_BLOCK_CELLS=1": [[1] * 28, [1] * 56, [1] * 70, [1] * 56],
        THREE_GRIDS: [[3] * 9 + [1], [3] * 18 + [2], [3] * 23 + [1], [1] * 56],
        TWO_GRIDS: [[2] * 14, [2] * 28, [2] * 35, [1] * 56],
        "_BLOCK_CELLS=5q^d": [[5] * 5 + [3], [5] * 11 + [1], [5] * 14, [2] * 28],
    },
    "exhaustive-plane": {
        "default": [[9], [36], [126]],
        "_BLOCK_CELLS=1": [[1] * 9, [1] * 36, [1] * 126],
        THREE_GRIDS: [[3] * 3, [3] * 12, [3] * 42],
        TWO_GRIDS: [[2] * 4 + [1], [2] * 18, [2] * 63],
        "_BLOCK_CELLS=5q^d": [[5, 4], [5] * 7 + [1], [5] * 25 + [1]],
    },
    "random": {
        "default": [[9]] * 5,
        "_BLOCK_CELLS=1": [[1] * 9] * 5,
        THREE_GRIDS: [[3] * 3] + [[1] * 9] * 4,
        TWO_GRIDS: [[2] * 4 + [1]] + [[1] * 9] * 4,
        "_BLOCK_CELLS=5q^d": [[5, 4], [2] * 4 + [1]] + [[1] * 9] * 3,
    },
    "subspace-random": {
        "default": [[8]] * 4,
        "_BLOCK_CELLS=1": [[1] * 8] * 4,
        THREE_GRIDS: [[3, 3, 2]] * 4,
        TWO_GRIDS: [[2] * 4] * 4,
        "_BLOCK_CELLS=5q^d": [[5, 3]] * 4,
    },
}


def set_budget(monkeypatch, config: CampaignConfig, budget: str) -> None:
    """Apply the budget; with small blocks the inner pair and slope blocks shrink too."""
    if BUDGETS[budget] is not None:
        grid_cells = min(cell.q**cell.d for cell in harness._expand_cells(config))
        monkeypatch.setattr(harness, "_BLOCK_CELLS", BUDGETS[budget](grid_cells))
        monkeypatch.setattr(grid, "_PAIR_BLOCK", 7)
        monkeypatch.setattr(incidence, "_SLOPE_BLOCK", 1)


@pytest.mark.parametrize("budget", list(BUDGETS))
@pytest.mark.parametrize("name", sorted(CELL_CONFIGS))
def test_campaign_rows_match_per_set_rows(name, budget, monkeypatch, block_sizes):
    config = CampaignConfig.from_mapping(CELL_CONFIGS[name])
    set_budget(monkeypatch, config, budget)
    _assert_matches_per_set(config)
    assert block_sizes == PARTITIONS[name][budget]


def test_flagged_sets_are_formatted_in_trial_order(monkeypatch, block_sizes):
    # no set breaks the theorem, so fail every slope to flag every set; four
    # sets per block, with a partial last block in the cells of sizes 1 and 4
    monkeypatch.setattr(harness, "threshold_failures", lambda nu, size, q, k: nu >= 0)
    monkeypatch.setattr(harness, "_BLOCK_CELLS", 4 * 3**2)
    config = CampaignConfig.from_mapping(CELL_CONFIGS["exhaustive-plane"])
    result = run_campaign(config)
    assert block_sizes == [[4, 4, 1], [4] * 9, [4] * 31 + [2]]
    flagged = [
        (cell.size, trial, format_fset(E))
        for cell in harness._expand_cells(config)
        if cell.size > cell.q**cell.k
        for trial, _, E in _reference_sets(config, cell)
    ]
    assert [(c["size"], c["trial"], c["fset"]) for c in result.counterexamples] == flagged
    assert {c["reason"] for c in result.counterexamples} == {"nu-threshold"}
    assert all(row["hard_fail"] == (row["size"] > 3) for row in result.rows)


def test_cell_aggregates_reduce_their_own_rows(monkeypatch):
    # fail every slope: the cells above the threshold (sizes 3 and 5) flag every set
    monkeypatch.setattr(harness, "threshold_failures", lambda nu, size, q, k: nu >= 0)
    result = run_campaign(CampaignConfig.from_mapping(CELL_CONFIGS["exhaustive"]))
    for agg in result.aggregates["cells"]:
        rows = [row for row in result.rows if (row["k"], row["size"]) == (agg["k"], agg["size"])]
        assert agg["sets_checked"] == len(rows)
        assert agg["nu_min"] == min(row["nu_min"] for row in rows)
        assert agg["hard_failures"] == sum(row["hard_fail"] for row in rows)
        assert agg["literal_subset_failures"] == sum(not row["literal_subset"] for row in rows)
        assert agg["slope_pattern_failures"] == sum(not row["slope_pattern_covered"] for row in rows)
    assert [agg["hard_failures"] > 0 for agg in result.aggregates["cells"]] == [False, True, False, True]


# -- guard band ------------------------------------------------------------

Q, D = 5, 3


def _perturb(power: np.ndarray, slopes: tuple[int, ...]) -> None:
    # for k = 1 the frequency (t, -1, 0) is probed by slope t alone, so
    # raising its power pushes exactly that slope's value 0.3 off an integer
    for t in slopes:
        power[t * Q ** (D - 1) + (Q - 1) * Q ** (D - 2)] += 0.3 / Q ** (2 * D - 1)


def test_guard_band_failure_inside_a_block(monkeypatch, block_sizes):
    # trials 3-5 share a block; trial 4 fails at slopes 3 and 4, trial 5 at
    # slope 1, so the error must name slope 3: the first failing slope of the
    # first failing set in trial order, not the first failing slope overall
    config = CampaignConfig.from_mapping(
        {"kind": "theorem-main", "q": Q, "d": D, "k": 1, "sizes": [9], "trials": 6, "seed": 2, "mode": "random"}
    )
    cell = harness._expand_cells(config)[0]
    sets = {trial: E for trial, _, E in _reference_sets(config, cell)}
    faults = {4: (3, 4), 5: (1,)}
    expected = {}
    for trial, slopes in faults.items():
        E = sets[trial]
        power = E.spectrum_power().copy()
        _perturb(power, slopes)
        E._spectrum_power = power
        with pytest.raises(NumericalInconsistencyError) as err:
            theorem_main_threshold(E, 1)
        expected[trial] = str(err.value)
    assert expected[4].endswith("at slope (3,)") and expected[5].endswith("at slope (1,)")

    original = harness.indicator_power
    faulty = {tuple(sets[t].indices().tolist()): slopes for t, slopes in faults.items()}

    def perturbed_power(picks, field, dim):
        power = original(picks, field, dim)
        for row, points in zip(power, picks):
            _perturb(row, faulty.get(tuple(sorted(points.tolist())), ()))
        return power

    monkeypatch.setattr(harness, "indicator_power", perturbed_power)
    monkeypatch.setattr(harness, "_BLOCK_CELLS", 3 * Q**D)
    with pytest.raises(NumericalInconsistencyError) as err:
        run_campaign(config)
    assert str(err.value) == expected[4]
    assert block_sizes == [[3, 3]]  # the error came from the second block


# -- route agreement -------------------------------------------------------

def test_route_disagreement_inside_a_block(monkeypatch):
    # trials 3-5 share a block; the spectral nu of trial 4 is off by one at
    # slope 3 and of trial 5 at slope 1, so the error must name trial 4's
    # slope 3: the first disagreeing slope of the first such set in trial order
    config = CampaignConfig.from_mapping(
        {"kind": "theorem-main", "q": Q, "d": D, "k": 1, "sizes": [9], "trials": 6, "seed": 2, "mode": "random"}
    )
    cell = harness._expand_cells(config)[0]
    sets = {trial: E for trial, _, E in _reference_sets(config, cell)}
    faults = {tuple(sets[4].indices().tolist()): 3, tuple(sets[5].indices().tolist()): 1}
    original_power, original_counts = harness.indicator_power, harness.slope_counts
    blocks = []

    def recorded_power(picks, field, dim):
        blocks.append(picks)
        return original_power(picks, field, dim)

    def skewed_counts(power, size, q, d, k):
        nu, remainders = original_counts(power, size, q, d, k)
        for row, points in zip(nu, blocks[-1]):
            slope = faults.get(tuple(sorted(points.tolist())))
            if slope is not None:
                row[slope] += 1
        return nu, remainders

    monkeypatch.setattr(harness, "indicator_power", recorded_power)
    monkeypatch.setattr(harness, "slope_counts", skewed_counts)
    monkeypatch.setattr(harness, "_BLOCK_CELLS", 3 * Q**D)
    with pytest.raises(NumericalInconsistencyError) as err:
        run_campaign(config)
    assert [len(picks) for picks in blocks] == [3, 3]
    nu = theorem_main_threshold(sets[4], 1, "brute").outcomes[3].nu
    assert str(err.value) == f"pair-count nu {nu} and spectral nu {nu + 1} disagree at slope (3,) of trial 4"


def test_misplaced_class_mass_inside_a_block(monkeypatch):
    # one unit of every set's mass moved from class 0 onto the last class,
    # (1, Q-1, Q-1), raises the pair-count nu of slope (Q-1,) by one
    config = CampaignConfig.from_mapping(
        {"kind": "theorem-main", "q": Q, "d": D, "k": 1, "sizes": [9], "trials": 6, "seed": 2, "mode": "random"}
    )
    original = harness.class_masses

    def misplaced(codes, counts, sets, field, d):
        masses = original(codes, counts, sets, field, d)
        masses[:, 0] -= 1
        masses[:, -1] += 1
        return masses

    monkeypatch.setattr(harness, "class_masses", misplaced)
    with pytest.raises(NumericalInconsistencyError) as err:
        run_campaign(config)
    E = next(_reference_sets(config, harness._expand_cells(config)[0]))[2]
    nu = theorem_main_threshold(E, 1, "brute").outcomes[Q - 1].nu
    assert str(err.value) == f"pair-count nu {nu + 1} and spectral nu {nu} disagree at slope ({Q - 1},) of trial 0"
