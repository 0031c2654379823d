import dataclasses
import gc
import json
import math
import os
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fqdirections import harness
from fqdirections.directions import coordinate_subspace_directions, direction_set
from fqdirections.errors import ConfigError
from fqdirections.generators import gen_coordinate_subspace, gen_random
from fqdirections.harness import (
    _COLUMNS,
    EXHAUSTIVE_LIMIT,
    CampaignConfig,
    CampaignResult,
    Cell,
    _block_rows,
    _theorem_block,
    emit_report,
    evaluate_size,
    run_campaign,
    write_report,
)
from fqdirections.pointset import PointSet, format_fset, write_fset
from test_cli import BAD_FIELD_VALUES
from test_golden import CONFIGS as GOLDEN_CONFIGS


# -- size expressions ------------------------------------------------------

def test_evaluate_size_basic():
    assert evaluate_size("q^k+1", q=5, d=2, k=1) == 6
    assert evaluate_size("q^k+1", q=3, d=4, k=3) == 28
    assert evaluate_size("2*q", q=7, d=2, k=None) == 14
    assert evaluate_size("round(q/2)", q=7, d=2, k=None) == 4  # round half to even
    assert evaluate_size("round(q/2)", q=13, d=2, k=None) == 6
    assert evaluate_size("ceil(q^1.5)", q=11, d=4, k=1) == 37
    assert evaluate_size("floor(q/2)", q=7, d=2, k=None) == 3
    assert evaluate_size("min(q^2, 30)", q=7, d=2, k=None) == 30
    assert evaluate_size(17, q=3, d=2, k=1) == 17
    assert evaluate_size("q - 1 + k", q=5, d=3, k=2) == 6
    # an integral float comes out an int
    for expr, size in (("q^2/q", 5), ("sqrt(q+4)", 3)):
        value = evaluate_size(expr, q=5)
        assert value == size and type(value) is int


def test_evaluate_size_rejects_bad_input():
    with pytest.raises(ConfigError):
        evaluate_size("q/2", q=7, d=2, k=1)  # not an integer
    with pytest.raises(ConfigError):
        evaluate_size("q-7", q=7, d=2, k=1)  # zero
    with pytest.raises(ConfigError):
        evaluate_size("q^k", q=5, d=2, k=None)  # k unavailable
    with pytest.raises(ConfigError):
        evaluate_size("__import__('os')", q=5, d=2, k=1)
    with pytest.raises(ConfigError):
        evaluate_size("q.__class__", q=5, d=2, k=1)
    with pytest.raises(ConfigError):
        evaluate_size("open('x')", q=5, d=2, k=1)
    with pytest.raises(ConfigError):
        evaluate_size("q +", q=5, d=2, k=1)
    with pytest.raises(ConfigError):
        evaluate_size("1/0", q=5, d=2, k=1)
    with pytest.raises(ConfigError):
        evaluate_size(True, q=5, d=2, k=1)
    # errors of the functions and operators themselves, and non-real values
    for expr in ("min()", "max(q)", "ceil(1e400)", "2.0^2000", "sqrt(-1)", "round(q, 1, 2)", "(-1)^0.5"):
        with pytest.raises(ConfigError, match=re.escape(repr(expr))):
            evaluate_size(expr, q=5, d=2, k=1)


def test_evaluate_size_refuses_huge_powers_before_taking_them():
    # 9^(9^9) has about 1.2e9 bits; 10^5000 (16,610 bits) and 1^(9^9) are taken
    with pytest.raises(ConfigError) as err:
        evaluate_size("9^9^9", q=3, d=3, k=1)
    assert str(err.value) == "power of over 2^20 bits in size expression '9^9^9'"
    assert evaluate_size("10^5000", q=3, d=3, k=1) == 10**5000
    assert evaluate_size("1^9^9 + (-1)^9^9 + 2", q=3, d=3, k=1) == 2


@pytest.mark.parametrize(
    "expr,message",
    [
        ("x+1", "unknown variable 'x' in size expression 'x+1'"),
        ("q+'a'", "non-numeric literal in size expression \"q+'a'\""),
        ("q.real", "unsupported syntax in size expression 'q.real'"),
        ("-10^40", "size expression '-10^40' evaluates to under -10^30, need >= 1"),
        # a name or expression of more than 60 characters is quoted by its first 60 and its length
        ("z" * 60, f"unknown variable {'z' * 60!r} in size expression {'z' * 60!r}"),
        (
            "z" * 61,
            f"unknown variable {'z' * 60!r}... (61 characters) in size expression {'z' * 60!r}... (61 characters)",
        ),
        ("z+" + "1" * 99, f"unknown variable 'z' in size expression {'z+' + '1' * 58!r}... (101 characters)"),
    ],
)
def test_evaluate_size_errors_are_not_wrapped_twice(expr, message):
    with pytest.raises(ConfigError) as err:
        evaluate_size(expr, q=3, d=3, k=1)
    assert str(err.value) == message


# -- config ----------------------------------------------------------------

def test_config_from_json_round_trip():
    text = json.dumps(
        {
            "kind": "theorem-main",
            "q": [3, 5],
            "d": 2,
            "k": 1,
            "sizes": "q^k+1",
            "trials": 10,
            "seed": 7,
            "mode": "random",
        }
    )
    cfg = CampaignConfig.from_json(text)
    assert cfg.q_list == (3, 5)
    assert cfg.d_list == (2,)
    assert cfg.k_list == (1,)
    assert cfg.sizes == ("q^k+1",)
    assert cfg.trials == 10
    again = CampaignConfig.from_mapping(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


@pytest.mark.parametrize(
    "patch",
    [
        {"kind": "nonsense"},
        {"q": [4]},
        {"q": [3], "d": [0]},
        {"mode": "sometimes"},
        {"generator": "psychic"},
        {"trials": 0},
        {"threads": 0},
        {"seed": -1},
        {"seed": 2**64},
        {"salem_threshold": 0},
        {"ratio_floor": -0.5},
        {"surprise": 1},
        {"q": ["3"]},
    ],
)
def test_config_validation_errors(patch):
    base = {"kind": "theorem-main", "q": [3], "d": [2], "k": [1], "trials": 5}
    base.update(patch)
    with pytest.raises(ConfigError):
        CampaignConfig.from_mapping(base)


def test_config_is_validated_when_built():
    with pytest.raises(ConfigError, match="unknown campaign kind 'nonsense'"):
        CampaignConfig(kind="nonsense", q_list=(3,), d_list=(2,))
    valid = CampaignConfig(kind="sharpness", q_list=(3,), d_list=(2,))
    with pytest.raises(ConfigError, match="threads must be >= 1, got 0"):
        dataclasses.replace(valid, threads=0)


_BASE_ATTRS = {"kind": "theorem-main", "q_list": (3,), "d_list": (2,), "k_list": (1,), "trials": 5}


@pytest.mark.parametrize(
    "key,value,message",
    [
        *((key, value, message) for patch, message in BAD_FIELD_VALUES for key, value in patch.items()),
        ("trials", 2.5, "config field 'trials' must be an integer"),
        ("q", (5.0,), "config field 'q' must hold integers, got 5.0"),
        ("seed", "1", "config field 'seed' must be an integer"),
    ],
)
def test_every_construction_route_checks_field_types(key, value, message):
    # direct construction and dataclasses.replace raise the line sweep prints for the same value
    attr = harness._FIELDS[key][0]
    with pytest.raises(ConfigError) as direct:
        CampaignConfig(**{**_BASE_ATTRS, attr: value})
    with pytest.raises(ConfigError) as replaced:
        dataclasses.replace(CampaignConfig(**_BASE_ATTRS), **{attr: value})
    with pytest.raises(ConfigError) as mapped:
        CampaignConfig.from_mapping({"kind": "theorem-main", "q": [3], "d": [2], "k": [1], "trials": 5, key: value})
    assert str(direct.value) == str(replaced.value) == str(mapped.value) == message


def test_directly_built_config_stores_parsed_values():
    cfg = CampaignConfig(kind="theorem-main", q_list=[5], d_list=2, k_list=[1], sizes="q^k+1", salem_threshold=3)
    assert (cfg.q_list, cfg.d_list, cfg.k_list, cfg.sizes) == ((5,), (2,), (1,), ("q^k+1",))
    assert cfg.salem_threshold == 3.0 and type(cfg.salem_threshold) is float
    assert hash(cfg) == hash(CampaignConfig.from_mapping(cfg.to_dict()))


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_config_round_trips_through_to_dict(name):
    cfg = CampaignConfig.from_mapping(GOLDEN_CONFIGS[name])
    assert CampaignConfig.from_mapping(cfg.to_dict()) == cfg


def test_config_requires_core_keys():
    with pytest.raises(ConfigError):
        CampaignConfig.from_json('{"kind": "sharpness"}')
    with pytest.raises(ConfigError):
        CampaignConfig.from_json("not json")


def test_salem_bounds_needs_sizes():
    with pytest.raises(ConfigError):
        CampaignConfig.from_mapping({"kind": "salem-bounds", "q": [7], "d": [2]})


@pytest.mark.parametrize("kind", ["theorem-main", "salem-bounds", "sharpness"])
def test_sampling_checks_apply_to_sampling_kinds(kind):
    base = {"kind": kind, "q": [3], "d": [3], "sizes": [4], "generator": "subspace-random"}
    cases = [
        ({}, "the subspace-random generator needs k (draws inside H_(k+1))"),
        ({"k": [1], "mode": "exhaustive"}, "exhaustive mode enumerates all sets; it requires the random generator"),
    ]
    for patch, message in cases:
        if kind == "sharpness":
            CampaignConfig.from_mapping({**base, **patch})
        else:
            with pytest.raises(ConfigError, match=re.escape(message)):
                CampaignConfig.from_mapping({**base, **patch})


def test_exhaustive_guards():
    cfg = CampaignConfig(
        kind="theorem-main", q_list=(5,), d_list=(3,), k_list=(1,), sizes=(20,), mode="exhaustive"
    )
    with pytest.raises(ConfigError):
        run_campaign(cfg)  # C(125, 20) is astronomically past the limit
    with pytest.raises(ConfigError):
        CampaignConfig(
            kind="theorem-main", q_list=(3,), d_list=(2,), k_list=(1,),
            mode="exhaustive", generator="subspace-random",
        ).validate()


def test_theorem_main_exhaustive_small_cell():
    cfg = CampaignConfig(kind="theorem-main", q_list=(3,), d_list=(2,), k_list=(1,), mode="exhaustive")
    res = run_campaign(cfg)
    assert len(res.rows) == math.comb(9, 4)
    assert res.ok
    assert res.hard_failure_count == 0
    assert res.aggregates["cells"][0]["sets_checked"] == 126
    assert all(row["threshold_holds"] for row in res.rows)
    assert all(row["full_coverage"] for row in res.rows)
    assert all(row["trial_seed"] is None for row in res.rows)


def test_auto_mode_exhausts_small_cells():
    cfg = CampaignConfig(kind="theorem-main", q_list=(3,), d_list=(2,), k_list=(1,), mode="auto", trials=3)
    res = run_campaign(cfg)
    assert len(res.rows) == 126  # C(9, 4) is under the enumeration limit
    assert res.rows[0]["mode"] == "exhaustive"


def test_theorem_main_random_cells():
    cfg = CampaignConfig(
        kind="theorem-main", q_list=(5,), d_list=(2,), k_list=(1,), trials=25, seed=11, mode="random"
    )
    res = run_campaign(cfg)
    assert len(res.rows) == 25
    assert res.ok
    seeds = [row["trial_seed"] for row in res.rows]
    assert len(set(seeds)) == 25
    # k = d-1 above threshold: full coverage is hard-asserted, so it held
    assert all(row["full_coverage"] for row in res.rows)


def test_theorem_main_below_threshold_records_only():
    cfg = CampaignConfig(
        kind="theorem-main", q_list=(5,), d_list=(2,), k_list=(1,), sizes=(4,), trials=10, seed=2, mode="random"
    )
    res = run_campaign(cfg)
    assert res.ok  # below threshold nothing is asserted
    assert len(res.rows) == 10


def test_theorem_main_records_open_question_columns():
    cfg = CampaignConfig(
        kind="theorem-main", q_list=(5,), d_list=(3,), k_list=(1,), trials=40, seed=1, mode="random"
    )
    res = run_campaign(cfg)
    assert res.ok
    agg = res.aggregates["cells"][0]
    # |E| = 6 in F_5^3 misses some of the 31 directions almost always, which
    # is exactly the recorded gap between nu positivity and literal coverage
    assert agg["literal_subset_failures"] > 0
    assert agg["literal_subset_failures"] == sum(not r["literal_subset"] for r in res.rows)
    assert res.soft_flag_count == 0


def test_salem_bounds_campaign():
    cfg = CampaignConfig(
        kind="salem-bounds", q_list=(7,), d_list=(2,), sizes=("round(q/2)", "q", "2*q"),
        trials=15, seed=5, mode="random",
    )
    res = run_campaign(cfg)
    assert res.ok
    assert len(res.rows) == 45
    assert len(res.aggregates["cells"]) == 3
    probe = res.aggregates["monotonicity"]
    assert len(probe) == 1
    assert probe[0]["sizes"] == [4, 7, 14]
    assert all(r["quotient_bound_holds"] for r in res.rows)


def test_salem_mean_direction_drop_is_a_soft_flag():
    # a drop in mean |D(E)| as |E| grows flags its (q, d, k) group, not a set
    cells = [
        {"q": 7, "d": 2, "k": None, "size": size, "mode": "random", "mean_direction_count": mean}
        for size, mean in ((7, 8.0), (4, 6.0), (14, 7.5))
    ]
    aggregates, flags = harness._salem_finish({"cells": cells, "sets_checked": 18, "hard_failures": 0})
    assert list(aggregates) == ["cells", "monotonicity", "sets_checked", "hard_failures"]
    assert aggregates["monotonicity"] == [{
        "q": 7, "d": 2, "k": None, "sizes": [4, 7, 14], "mean_direction_count": [6.0, 8.0, 7.5],
        "nondecreasing": False,
    }]
    assert flags == [{
        "severity": "soft", "reason": "direction-mean-monotonicity", "q": 7, "d": 2, "k": None, "size": None,
        "trial": None, "trial_seed": None, "fset": None,
    }]


def test_salem_cell_aggregates_reduce_their_own_rows():
    # sizes in both orders, so no cell's extremes are those of the cells before it
    cfg = CampaignConfig(
        kind="salem-bounds", q_list=(7,), d_list=(2,), sizes=("2*q", "round(q/2)", "q", "q+1"),
        trials=6, seed=5, mode="random", ratio_floor=0.9,
    )
    res = run_campaign(cfg)
    for agg in res.aggregates["cells"]:
        rows = [row for row in res.rows if row["size"] == agg["size"]]
        assert agg["trials"] == len(rows)
        for name in ("ratio_ii", "ratio_iii", "ratio_diff"):
            assert agg[f"min_{name}"] == min(row[name] for row in rows)
        assert agg["max_salem_constant"] == max(row["salem_constant"] for row in rows)
        assert agg["mean_direction_count"] == sum(row["direction_count"] for row in rows) / len(rows)
        assert agg["hard_failures"] == sum(row["hard_fail"] for row in rows)
        assert agg["soft_flags"] == sum(len(row["soft_flags"]) for row in rows)
    assert len({agg["soft_flags"] for agg in res.aggregates["cells"]}) > 1


def test_salem_bounds_part_i_full_coverage():
    # |E| = 2q > q = q^(d-1): part i forces the whole direction set
    cfg = CampaignConfig(
        kind="salem-bounds", q_list=(7,), d_list=(2,), sizes=("2*q",), trials=15, seed=5, mode="random"
    )
    res = run_campaign(cfg)
    assert res.ok
    assert all(row["full_coverage"] for row in res.rows)


def test_salem_bounds_cell_memory_does_not_grow_with_trials():
    # a block's stacked power and mu (13 sets of 18 at q = 17, d = 3) must
    # not outlive its rows, so nine more full blocks add only their rows
    def peak(trials: int) -> int:
        cfg = CampaignConfig(
            kind="salem-bounds", q_list=(17,), d_list=(3,), sizes=("q+1",), trials=trials, seed=5, mode="random"
        )
        tracemalloc.start()
        try:
            assert run_campaign(cfg).ok
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(130) - peak(13) < 1 << 20


def _retained_bytes_per_row(mapping: dict) -> float:
    """Traced memory a campaign's result holds, per row, with the grid's caches warmed first."""
    config = CampaignConfig.from_mapping(mapping)
    run_campaign(CampaignConfig.from_mapping({**mapping, "mode": "random", "trials": 2}))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_campaign(config)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / len(result.rows)


def test_theorem_main_result_stores_rows_as_columns():
    # 560 sets; 18 list slots and a trial int come to about 170 bytes a row
    per_row = _retained_bytes_per_row({"kind": "theorem-main", "q": 2, "d": 4, "k": 1, "mode": "exhaustive"})
    assert per_row <= 320


def test_salem_bounds_result_stores_rows_as_columns():
    # 24 list slots plus a row's own floats and large ints come to about 450 bytes
    per_row = _retained_bytes_per_row(
        {"kind": "salem-bounds", "q": 13, "d": 3, "sizes": ["q+1"], "trials": 400, "mode": "random"}
    )
    assert per_row <= 640


def test_salem_bounds_ratio_floor_soft_flag():
    # an impossible floor flags every trial but never fails the campaign
    cfg = CampaignConfig(
        kind="salem-bounds", q_list=(7,), d_list=(2,), sizes=("q",), trials=5, seed=5,
        mode="random", ratio_floor=10.0,
    )
    res = run_campaign(cfg)
    assert res.ok
    assert res.hard_failure_count == 0
    assert res.soft_flag_count >= 5
    soft = [c for c in res.counterexamples if c["severity"] == "soft"]
    assert soft and all(c["fset"].startswith("7 2\n") for c in soft)


def test_salem_bounds_subspace_generator_reproduces_counterexample():
    cfg = CampaignConfig(
        kind="salem-bounds", q_list=(11,), d_list=(4,), k_list=(1,), sizes=("ceil(q^1.5)",),
        trials=3, seed=8, mode="random", generator="subspace-random",
    )
    res = run_campaign(cfg)
    assert res.ok is True  # small |D| violates no exact statement
    for row in res.rows:
        assert row["direction_count"] <= (11**2 - 1) // (11 - 1)
        assert row["ratio_ii"] < 1.0


def test_sharpness_campaign():
    res = run_campaign(CampaignConfig(kind="sharpness", q_list=(5,), d_list=(3,)))
    assert res.ok
    ks = [row["k"] for row in res.rows]
    assert ks == [1, 2]
    for row in res.rows:
        q, k = row["q"], row["k"]
        assert row["direction_count"] == (q**k - 1) // (q - 1)
        assert row["exact_match"] and row["strictly_fewer"]


def test_sharpness_cells_read_k_from_the_config():
    # k defaults to 1..d-1; sizes, trials, mode and generator do not shape a sharpness cell
    res = run_campaign(
        CampaignConfig(kind="sharpness", q_list=(3,), d_list=(4,), k_list=(2, 5), sizes=(7,), trials=9, mode="random")
    )
    assert [(row["k"], row["size"], row["mode"], row["trial"]) for row in res.rows] == [(2, 9, "deterministic", None)]


def test_sharpness_flag_record_names_the_set(monkeypatch):
    # H_k plus the point (0, ..., 0, 1) determines more than H_k's directions
    def subspace_plus_point(q, d, k):
        return PointSet.from_indices(q, d, [*gen_coordinate_subspace(q, d, k).indices().tolist(), 1])

    monkeypatch.setattr(harness, "gen_coordinate_subspace", subspace_plus_point)
    result = run_campaign(CampaignConfig(kind="sharpness", q_list=(3,), d_list=(3,)))
    records = [
        (c["severity"], c["reason"], c["q"], c["d"], c["k"], c["size"], c["trial"], c["trial_seed"])
        for c in result.counterexamples
    ]
    assert records == [("hard", "sharpness-count", 3, 3, k, 3**k, None, None) for k in (1, 2)]
    assert [c["fset"] for c in result.counterexamples] == [format_fset(subspace_plus_point(3, 3, k)) for k in (1, 2)]
    assert [row["hard_fail"] for row in result.rows] == [True, True]
    assert not result.ok


def test_run_campaign_dispatch():
    cfg = CampaignConfig(kind="sharpness", q_list=(3,), d_list=(2,))
    assert run_campaign(cfg).kind == "sharpness"


def test_threads_do_not_change_results():
    base = dict(kind="theorem-main", q_list=(5,), d_list=(2,), k_list=(1,), trials=12, seed=3, mode="random")
    one = run_campaign(CampaignConfig(**base, threads=1))
    four = run_campaign(CampaignConfig(**base, threads=4))
    assert emit_report(one, "csv") == emit_report(four, "csv")


# -- reports ---------------------------------------------------------------

def test_reports_byte_identical_across_runs(tmp_path):
    cfg = CampaignConfig(
        kind="salem-bounds", q_list=(7,), d_list=(2,), sizes=("q",), trials=10, seed=13, mode="random"
    )
    first = run_campaign(cfg)
    second = run_campaign(cfg)
    for fmt in ("csv", "json"):
        assert emit_report(first, fmt) == emit_report(second, fmt)
    write_report(first, "csv", tmp_path / "a.csv")
    write_report(second, "csv", tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def _report_writer():
    result = run_campaign(CampaignConfig(kind="sharpness", q_list=(3,), d_list=(3,)))
    return lambda path: write_report(result, "csv", path), emit_report(result, "csv").encode("ascii")


def _fset_writer():
    E = gen_random(5, 3, 14, seed=8)
    return lambda path: write_fset(E, path), format_fset(E).encode("ascii")


WRITERS = pytest.mark.parametrize("make_writer", [_report_writer, _fset_writer], ids=["write_report", "write_fset"])


@WRITERS
@pytest.mark.parametrize("old_size", [0, 1, 10, 10**5])
def test_writer_leaves_exactly_the_new_bytes(tmp_path, make_writer, old_size):
    write, expected = make_writer()
    path = tmp_path / "out"
    path.write_bytes(b"\xff" * old_size)
    assert 0 < len(expected) < 10**5
    write(path)
    assert path.read_bytes() == expected
    write(path)
    assert path.read_bytes() == expected


@WRITERS
def test_writer_gives_a_new_file_the_mode_of_open_w(tmp_path, make_writer):
    write, _ = make_writer()
    old = os.umask(0o002)
    try:
        write(tmp_path / "new")
        with open(tmp_path / "reference", "w"):
            pass
    finally:
        os.umask(old)
    assert (tmp_path / "new").stat().st_mode == (tmp_path / "reference").stat().st_mode


@WRITERS
def test_writer_through_a_symlink_updates_its_target(tmp_path, make_writer):
    write, expected = make_writer()
    target = tmp_path / "target"
    target.write_bytes(b"old contents " * 10**4)
    link = tmp_path / "link"
    link.symlink_to(target)
    write(link)
    assert link.is_symlink()
    assert target.read_bytes() == expected


@WRITERS
def test_writer_accepts_devnull(make_writer):
    write, _ = make_writer()
    write(os.devnull)


def test_rows_view_reads_columns():
    cfg = CampaignConfig(kind="sharpness", q_list=(3,), d_list=(4,))
    res = run_campaign(cfg)
    rows = [dict(zip(res.columns, values)) for values in zip(*res.columns.values())]
    assert len(res.rows) == len(rows) == 3
    assert list(res.rows) == rows
    assert [res.rows[i] for i in range(-3, 3)] == rows + rows
    assert res.rows[1:] == rows[1:] and res.rows[::-1] == rows[::-1]
    with pytest.raises(IndexError):
        res.rows[3]


# one config of each kind; theorem-main mixes enumerated and sampled cells,
# and salem-bounds' floor flags every set soft
SCHEMA_CONFIGS = {
    "theorem-main": {"kind": "theorem-main", "q": [3, 11], "d": 2, "k": 1, "trials": 6},
    "salem-bounds": {"kind": "salem-bounds", "q": 5, "d": 3, "sizes": ["q+1"], "trials": 4, "ratio_floor": 2.0},
    "sharpness": {"kind": "sharpness", "q": 3, "d": 3},
}

_SCALARS = (bool, int, float, Fraction)
_PLAIN = (*_SCALARS, type(None), str, tuple)


@pytest.mark.parametrize("kind", sorted(SCHEMA_CONFIGS))
def test_kind_blocks_give_their_measured_columns(kind):
    # the columns between the leading eight and the two severities
    config = CampaignConfig.from_mapping(SCHEMA_CONFIGS[kind])
    for cell in harness._expand_cells(config):
        for trials, _, picks in harness._blocks(config, cell):
            measured, _, _ = harness._KINDS[kind][0](config, cell, trials, picks)
            assert sorted(measured) == sorted(_COLUMNS[kind][8:-2])
            for values in measured.values():
                if isinstance(values, (list, np.ndarray)):
                    assert np.shape(values) == (len(picks),)
                else:
                    assert type(values) in _SCALARS


@pytest.mark.parametrize("kind", sorted(SCHEMA_CONFIGS))
def test_result_views_give_plain_values(kind):
    result = run_campaign(CampaignConfig.from_mapping(SCHEMA_CONFIGS[kind]))
    rows = [*result.rows, result.rows[0], result.rows[-1]]
    values = [value for column in result.columns.values() for value in column]
    values += [value for row in rows for value in row.values()]
    assert {type(value) for value in values} <= set(_PLAIN)
    assert all(type(item) is str for value in values if type(value) is tuple for item in value)


def test_empty_result_renders_header_only():
    cfg = CampaignConfig(kind="theorem-main", q_list=(3,), d_list=(2,), k_list=(1,))
    empty = CampaignResult("theorem-main", cfg, ({name: [] for name in _COLUMNS["theorem-main"]},), {}, ())
    text = emit_report(empty, "csv")
    assert text.count("\n") == 1
    assert text.startswith("kind,q,d,k,size,mode,trial,trial_seed,")


def test_report_row_counts():
    cfg = CampaignConfig(
        kind="salem-bounds", q_list=(5,), d_list=(2,), sizes=(6,), trials=4, seed=0, mode="random"
    )
    res = run_campaign(cfg)
    text = emit_report(res, "csv")
    assert text.count("\n") == 1 + 4  # header plus one row per trial
    doc = json.loads(emit_report(res, "json"))
    assert doc["kind"] == "salem-bounds"
    assert len(doc["rows"]) == 4
    assert doc["config"]["seed"] == 0
    assert doc["ok"] is True


def test_emit_report_rejects_unknown_format():
    cfg = CampaignConfig(kind="sharpness", q_list=(3,), d_list=(2,))
    res = run_campaign(cfg)
    with pytest.raises(ConfigError):
        emit_report(res, "xml")


@pytest.mark.parametrize("value", [np.int64(0), np.bool_(True), np.array([1, 2])])
def test_json_tail_refuses_values_json_cannot_encode(value):
    # str() would have written np.int64(0) as the string "0" with no error
    res = run_campaign(CampaignConfig(kind="sharpness", q_list=(3,), d_list=(2,)))
    for bad in (
        dataclasses.replace(res, aggregates={**res.aggregates, "hard_failures": value}),
        dataclasses.replace(res, counterexamples=({"severity": "soft", "value": value},)),
    ):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            emit_report(bad, "json")
    fraction = dataclasses.replace(res, aggregates={"ratio": Fraction(3, 4)})
    assert json.loads(emit_report(fraction, "json"))["aggregates"] == {"ratio": "3/4"}


def test_exhaustive_limit_value():
    assert EXHAUSTIVE_LIMIT == 10**7


def test_readme_accepted_keys_match_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("Accepted keys:") : readme.index("Unknown keys are rejected.")]
    assert tuple(re.findall(r"`([a-z_]+)`", section)) == tuple(harness._FIELDS)


def test_readme_column_lists_match_report_columns():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("Columns by kind:") : readme.index("Booleans are")]
    listed = {
        kind: tuple(col.strip() for col in cols.split(","))
        for kind, cols in re.findall(r"^\* `([a-z-]+)`: `([^`]*)`", section, flags=re.MULTILINE)
    }
    assert listed == _COLUMNS


def test_readme_block_sizes():
    # README: at q = 11, d = 3, sets of q^2 + 1 points (more than two pairs a
    # grid cell) go 24 to a block, and at q = 13, d = 3, sets of q + 1 points
    # go 29.  A set of fewer pairs than grid cells has its B |E|^2 pair codes
    # sorted at once, which the cell budget keeps below it: at q = 2, d = 10,
    # 64 sets of 31 points hold 61,504 pairs
    cases = (
        (11, 3, 2, 122, 20, [20]),
        (11, 3, 2, 122, 60, [24, 24, 12]),
        (13, 3, 1, 14, 60, [29, 29, 2]),
        (2, 10, 1, 31, 65, [64, 1]),
    )
    for q, d, k, size, trials, blocks in cases:
        config = CampaignConfig(
            kind="theorem-main", q_list=(q,), d_list=(d,), k_list=(k,), trials=trials, mode="random"
        )
        cell = Cell(q, d, k, size, "random")
        assert [len(picks) for _, _, picks in harness._blocks(config, cell)] == blocks
        if size**2 < q**d:
            assert blocks[0] * size**2 < harness._BLOCK_CELLS


# the largest block of a dense-branch cell (|E|^2 >= q^d) and of a sort-branch one
LARGEST_BLOCKS = {"dense": (11, 2, 122, 24), "sort": (13, 1, 14, 29)}


@pytest.mark.parametrize("kind", ["theorem-main", "salem-bounds"])
@pytest.mark.parametrize("branch", sorted(LARGEST_BLOCKS))
def test_block_memory_is_bounded_by_its_cells(branch, kind):
    # a block's traced peak is about 60 bytes per grid cell of its sets on
    # the dense branch of the mu kernel and 40 on the sort branch, with the
    # grid's cached tables warmed first
    q, k, size, sets = LARGEST_BLOCKS[branch]
    config = CampaignConfig(
        kind=kind, q_list=(q,), d_list=(3,), k_list=(k,), sizes=(size,), trials=sets + 1, mode="random"
    )
    cell = Cell(q, 3, k if kind == "theorem-main" else None, size, "random")
    blocks = list(harness._blocks(config, cell))
    assert [len(picks) for _, _, picks in blocks] == [sets, 1]
    assert (size**2 >= q**3) == (branch == "dense")
    _block_rows(config, cell, *blocks[0])
    tracemalloc.start()
    try:
        _block_rows(config, cell, *blocks[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * sets * q**3 <= 80 * harness._BLOCK_CELLS


def _literal_subset(E, k):
    cell = Cell(E.q, E.dim, k, E.cardinality, "random")
    config = CampaignConfig(kind="theorem-main", q_list=(E.q,), d_list=(E.dim,))
    block, _ = _block_rows(config, cell, [0], [None], E.indices()[None])
    return block["literal_subset"][0]


@pytest.mark.parametrize("q,d,k", [(2, 3, 1), (3, 3, 1), (5, 3, 1), (3, 4, 1), (3, 4, 2), (2, 5, 3)])
def test_literal_subset_count_matches_subspace_enumeration(q, d, k):
    outcomes = set()
    for seed in range(12):
        for size in (q**k + 1, 2 * q**k, q ** (k + 1)):
            E = gen_random(q, d, size, seed=seed)
            expected = coordinate_subspace_directions(q, d, k + 1) <= direction_set(E)
            assert _literal_subset(E, k) == expected
            outcomes.add(expected)
    # H_(k+1) holds every direction of its own span; H_k misses all with z_(k+1) != 0
    assert _literal_subset(gen_coordinate_subspace(q, d, k + 1), k)
    assert not _literal_subset(gen_coordinate_subspace(q, d, k), k)
    assert outcomes == {True, False}
