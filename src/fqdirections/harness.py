"""Verification campaigns over (q, d, k, |E|) grids with deterministic reports.

A campaign is described by a CampaignConfig (JSON-loadable), runs one of
three kinds of sweep, and produces a CampaignResult whose CSV/JSON renderings
are byte-identical for identical configs:

    theorem-main   incidence threshold |E| > q^k, direction coverage
    salem-bounds   direction/difference counts against the flatness bounds
    sharpness      exact direction counts of coordinate subspaces

run_campaign is the one way to run a campaign.  A kind is one row of
_KINDS: its block measures a block of sets and names the checks each set
fails, its cell aggregate reduces a cell's rows, and its finish step
completes the campaign's aggregates (salem-bounds' monotonicity probe,
sharpness's totals).  The runner alone builds the rows and assigns
severities.  Hard failures contradict an exact statement (the nu lower
bound above threshold, full coverage for k = d-1, the (q-1)-to-1 quotient
bound, subspace direction counts) and make the campaign report not-ok;
soft flags mark measured quantities that missed a configured expectation
(ratio floors, mean-direction monotonicity) and never fail the run on
their own.  Every flagged set is recorded in full .fset form for replay.
"""

from __future__ import annotations

import ast
import bisect
import functools
import itertools
import json
import math
import operator
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from pathlib import Path
from typing import Any

import numpy as np

from .directions import ambient_direction_count, class_masses, class_slope_counts, subspace_classes
from .errors import ConfigError, NumericalInconsistencyError, brief
from .field import MAX_MODULUS, is_prime, prime_field
from .generators import gen_coordinate_subspace, index_block
from .grid import decode, difference_multiplicities
from .incidence import slope_counts, threshold_failures, threshold_lower_bound
from .pointset import PointSet, _write_in_place, format_fset
from .rng import mix64
from .salem import bound_shapes, difference_bounds
from .spectral import check_size_cap, indicator_power

#: Enumerating all size-n subsets is preferred to sampling up to this count.
EXHAUSTIVE_LIMIT = 10**7

#: Campaign cells are evaluated a block of sets at a time; a block holds
#: at most this many grid cells (B q^d), or one set.  That bounds a block's
#: memory, not results, whatever the set size: every per-block array holds
#: O(B q^d) entries or is built in chunks (incidence._SLOPE_BLOCK).  So do
#: the pair codes: grid.difference_multiplicities builds them a group of
#: sets at a time, at most max(grid._PAIR_BLOCK, q^d) of them, and sorts
#: them when |E|^2 < q^d or else counts them into the group's slice of a
#: B q^d table.  A block's traced peak is about 60 bytes a cell
#: (tests/test_harness.py bounds it).  Sets of more than two pairs a grid
#: cell get half the cells, a working-set budget for dense blocks: without
#: it a set cost more even when every full block was transformed whole
#: (spectral._WHOLE_STACK_MACS raised to 2^22), 276 against 221 us on
#: theorem-main F_11^3 with |E| = 122, 297 against 279 us on salem-bounds
#: F_13^3 with |E| = 170 (run_campaign, one BLAS thread).
_BLOCK_CELLS = 1 << 16

MODES = ("auto", "random", "exhaustive")
GENERATORS = ("random", "subspace-random")


# -- size expressions ------------------------------------------------------

_SIZE_FUNCS: dict[str, Callable] = {
    "ceil": math.ceil,
    "floor": math.floor,
    "round": round,
    "sqrt": math.sqrt,
    "min": min,
    "max": max,
}

_SIZE_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
}


#: An integer power in a size expression may have at most about this many bits.
_SIZE_POWER_BITS = 1 << 20


def evaluate_size(expr: int | str, **variables: int | None) -> int:
    """Evaluate a set-size expression such as "q^k+1" or "ceil(q^1.5)".

    Variables are the cell parameters (q, d, k); ^ means exponentiation.
    Allowed beyond that: integer and float literals, + - * / // %, unary
    minus, and the functions ceil, floor, round, sqrt, min, max.  The result
    must come out a positive integer ("rounded" policies must say so with
    round/ceil/floor; round is Python round, halves to even).
    """
    if isinstance(expr, bool) or not isinstance(expr, (int, str)):
        raise ConfigError(f"set size must be an int or an expression string, got {expr!r}")
    if isinstance(expr, int):
        value: int | float | complex = expr
    else:
        try:
            value = _eval_size_node(ast.parse(expr.replace("^", "**"), mode="eval").body, variables, expr)
        except ConfigError:
            raise
        except SyntaxError as exc:
            raise ConfigError(f"bad size expression {brief(expr)}: {exc.msg}") from None
        except ZeroDivisionError:
            raise ConfigError(f"division by zero in size expression {brief(expr)}") from None
        except (TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ConfigError(f"bad size expression {brief(expr)}: {exc}") from None
        except MemoryError:
            # ast.parse raises a bare MemoryError when nesting overflows the parser's stack
            raise ConfigError(f"bad size expression {brief(expr)}: nested too deeply or too large") from None
    if isinstance(value, complex):
        raise ConfigError(f"size expression {brief(expr)} evaluates to non-real {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise ConfigError(f"size expression {brief(expr)} evaluates to non-integer {value!r}")
        value = int(value)
    if value < 1:
        raise ConfigError(f"size expression {brief(expr)} evaluates to {brief(value)}, need >= 1")
    return value


def _eval_size_node(node: ast.AST, variables: Mapping[str, int | None], expr: str) -> int | float:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ConfigError(f"non-numeric literal in size expression {brief(expr)}")
        return node.value
    if isinstance(node, ast.Name):
        value = variables.get(node.id)
        if value is None:
            raise ConfigError(f"unknown variable {brief(node.id)} in size expression {brief(expr)}")
        return value
    if isinstance(node, ast.BinOp) and type(node.op) in _SIZE_BINOPS:
        left = _eval_size_node(node.left, variables, expr)
        right = _eval_size_node(node.right, variables, expr)
        # an int power has at least (bit_length(left) - 1) * right bits; refuse it before computing it
        if isinstance(node.op, ast.Pow) and isinstance(left, int) and isinstance(right, int):
            if (abs(left).bit_length() - 1) * right > _SIZE_POWER_BITS:
                raise ConfigError(f"power of over 2^20 bits in size expression {brief(expr)}")
        return _SIZE_BINOPS[type(node.op)](left, right)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        operand = _eval_size_node(node.operand, variables, expr)
        return -operand if isinstance(node.op, ast.USub) else operand
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
        func = _SIZE_FUNCS.get(node.func.id)
        if func is not None:
            return func(*(_eval_size_node(arg, variables, expr) for arg in node.args))
    raise ConfigError(f"unsupported syntax in size expression {brief(expr)}")


# -- configuration ---------------------------------------------------------

def _is(value: Any, types: type | tuple[type, ...]) -> bool:
    """isinstance, with a bool never taken for an int."""
    return isinstance(value, types) and not isinstance(value, bool)


def _field(types: type | tuple[type, ...], what: str, items: str = "", convert: Callable | None = None) -> Callable:
    """The parser of a config value of the given types; given items, also of a list of them, as a tuple."""

    def parse(value: Any, key: str) -> Any:
        if items and isinstance(value, (list, tuple)):
            for item in value:
                if not _is(item, types):
                    raise ConfigError(f"config field {key!r} {items}, got {item!r}")
            return tuple(value)
        if not _is(value, types):
            raise ConfigError(f"config field {key!r} {what}")
        return convert(value) if convert else (value,) if items else value

    return parse


_int_list = _field(int, "must be an integer or a list of integers", "must hold integers")


def check_salem_threshold(threshold: float) -> None:
    """A flatness classification bound must be finite and > 0, in a campaign config and for the salem command."""
    if not math.isfinite(threshold):
        raise ConfigError(f"salem_threshold must be finite, got {threshold}")
    if threshold <= 0:
        raise ConfigError(f"salem_threshold must be > 0, got {threshold}")


def _ints(value: Any, key: str) -> tuple[int, ...]:
    if isinstance(value, bool):
        raise ConfigError(f"config field {key!r} must hold integers")
    return _int_list(value, key)


#: Every config key, in report order: the CampaignConfig attribute it sets
#: and the parser that every construction runs on its value.
_FIELDS: dict[str, tuple[str, Callable[[Any, str], Any]]] = {
    "kind": ("kind", lambda value, key: value),
    "q": ("q_list", _ints),
    "d": ("d_list", _ints),
    "k": ("k_list", _ints),
    "sizes": ("sizes", _field((int, str), "must be a size or a list of sizes", "entries must be ints or strings")),
    "trials": ("trials", _field(int, "must be an integer")),
    "seed": ("seed", _field(int, "must be an integer")),
    "mode": ("mode", _field(str, "must be a string")),
    "generator": ("generator", _field(str, "must be a string")),
    "salem_threshold": ("salem_threshold", _field((int, float), "must be a number", convert=float)),
    "ratio_floor": ("ratio_floor", _field((int, float), "must be a number", convert=float)),
    "threads": ("threads", _field(int, "must be an integer")),
    "output": ("output", _field((str, type(None)), "must be a string path")),
}


@dataclass(frozen=True)
class CampaignConfig:
    """Full description of one campaign; equal configs give identical reports.

    Direct construction, dataclasses.replace and from_mapping all run each
    value through its _FIELDS parser, then validate(): an invalid config cannot exist.
    """

    kind: str
    q_list: tuple[int, ...]
    d_list: tuple[int, ...]
    k_list: tuple[int, ...] = ()
    sizes: tuple[int | str, ...] = ()
    trials: int = 100
    seed: int = 0
    mode: str = "auto"
    generator: str = "random"
    salem_threshold: float = 2.0
    ratio_floor: float = 0.25
    threads: int = 1
    output: str | None = None

    def __post_init__(self) -> None:
        for key, (attr, parse) in _FIELDS.items():
            object.__setattr__(self, attr, parse(getattr(self, attr), key))
        self.validate()

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "CampaignConfig":
        if not isinstance(data, Mapping):
            raise ConfigError("campaign config must be a JSON object")
        unknown = sorted(set(data) - set(_FIELDS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        for key in ("kind", "q", "d"):
            if key not in data:
                raise ConfigError(f"config key {key!r} is required")
        return cls(**{attr: data[key] for key, (attr, _) in _FIELDS.items() if key in data})

    @classmethod
    def from_json(cls, text: str) -> "CampaignConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: line {exc.lineno}: {exc.msg}") from None
        return cls.from_mapping(data)

    @classmethod
    def from_file(cls, path: str | Path) -> "CampaignConfig":
        return cls.from_json(Path(path).read_text(encoding="ascii"))

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown campaign kind {self.kind!r}; expected one of {', '.join(KINDS)}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {', '.join(MODES)}")
        if self.generator not in GENERATORS:
            raise ConfigError(f"unknown generator {self.generator!r}; expected one of {', '.join(GENERATORS)}")
        if not self.q_list:
            raise ConfigError("config needs at least one q")
        if not self.d_list:
            raise ConfigError("config needs at least one d")
        for q in self.q_list:
            if not is_prime(q):
                raise ConfigError(f"q = {q} is not prime")
            if q > MAX_MODULUS:
                raise ConfigError(f"q = {q} exceeds the modulus cap {MAX_MODULUS}")
        for d in self.d_list:
            if d < 1:
                raise ConfigError(f"dimension must be >= 1, got {d}")
        for q in self.q_list:
            for d in self.d_list:
                check_size_cap(q, d)
        for k in self.k_list:
            if k < 1:
                raise ConfigError(f"k must be >= 1, got {k}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2^64), got {brief(self.seed)}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        check_salem_threshold(self.salem_threshold)
        if not math.isfinite(self.ratio_floor):
            raise ConfigError(f"ratio_floor must be finite, got {self.ratio_floor}")
        if self.ratio_floor < 0:
            raise ConfigError(f"ratio_floor must be >= 0, got {self.ratio_floor}")
        if self.kind == "salem-bounds" and not self.sizes:
            raise ConfigError("salem-bounds campaigns need explicit sizes")
        # sharpness draws no sets (each cell is H_k), so it reads neither mode nor generator
        if self.kind in ("theorem-main", "salem-bounds"):
            if self.generator == "subspace-random" and not self.k_list:
                raise ConfigError("the subspace-random generator needs k (draws inside H_(k+1))")
            if self.mode == "exhaustive" and self.generator != "random":
                raise ConfigError("exhaustive mode enumerates all sets; it requires the random generator")

    def to_dict(self) -> dict[str, Any]:
        values = {key: getattr(self, attr) for key, (attr, _) in _FIELDS.items()}
        return {key: list(value) if isinstance(value, tuple) else value for key, value in values.items()}


# -- cells -----------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    q: int
    d: int
    k: int | None
    size: int
    mode: str
    total: int | None = None


def _resolve_cell_mode(config: CampaignConfig, q: int, d: int, size: int, expr: int | str) -> tuple[str, int | None]:
    # C(q^d, size) >= 2^m and q^d < 2^25 (the size cap), so a count not taken is over 2^163 > 10^30
    m = min(size, q**d - size)
    total = math.comb(q**d, size) if m * (q**d).bit_length() <= 4096 else None
    fits = total is not None and total <= EXHAUSTIVE_LIMIT
    if config.mode == "exhaustive":
        if not fits:
            count = brief(2, m) if total is None else brief(total)
            raise ConfigError(
                f"exhaustive enumeration of C({brief(q, d)}, {brief(size)}) = {count} sets "
                f"(size expression {brief(expr)}, q={q}, d={d}) exceeds the {EXHAUSTIVE_LIMIT} limit"
            )
        return "exhaustive", total
    if config.mode == "auto" and config.generator == "random" and fits:
        return "exhaustive", total
    return "random", total


def _check_draw_bounds(config: CampaignConfig, q: int, d: int, k: int | None, size: int, expr: int | str) -> None:
    given = f"size expression {brief(expr)} gives {brief(size)} points"
    if size > q**d:
        raise ConfigError(f"{given}, more than the {brief(q, d)} of the grid (q={q}, d={d})")
    if config.generator == "subspace-random" and size > q ** (k + 1):
        raise ConfigError(f"{given}, more than the {brief(q, k + 1)} of H_{k + 1} (q={q}, d={d}, k={k})")


def _expand_cells(config: CampaignConfig) -> list[Cell]:
    cells: list[Cell] = []
    for q in config.q_list:
        for d in config.d_list:
            # a salem-bounds k is optional and only steers the subspace-random generator
            for k in config.k_list or ((None,) if config.kind == "salem-bounds" else tuple(range(1, d))):
                if k is not None and k > d - 1:
                    continue
                if config.kind == "sharpness":
                    cells.append(Cell(q, d, k, q**k, "deterministic"))
                    continue
                for expr in config.sizes or ("q^k+1",):
                    size = evaluate_size(expr, q=q, d=d, k=k)
                    _check_draw_bounds(config, q, d, k, size, expr)
                    mode, total = _resolve_cell_mode(config, q, d, size, expr)
                    cells.append(Cell(q, d, k, size, mode, total))
    if not cells:
        theorem = config.kind == "theorem-main"
        need = "1 <= k <= d-1" if theorem else "k <= d-1 when k is given" if config.k_list else "d >= 2"
        raise ConfigError(f"no valid cells: {config.kind} needs {need}")
    return cells


def _trial_seed(config: CampaignConfig, cell: Cell, trial: int) -> int:
    return mix64(config.seed, cell.q, cell.d, cell.k or 0, cell.size, trial)


# -- results ---------------------------------------------------------------

#: Each kind's report columns: the leading columns and the severities, both
#: filled by _block_rows, around the measured columns of the kind's block.
_COLUMNS: dict[str, tuple[str, ...]] = {
    kind: ("kind", "q", "d", "k", "size", "mode", "trial", "trial_seed", *measured, "hard_fail", "soft_flags")
    for kind, measured in {
        "theorem-main": (
            "nu_min", "lower_bound", "threshold_holds", "slope_pattern_covered",
            "literal_subset", "direction_count", "ambient_count", "full_coverage",
        ),
        "salem-bounds": (
            "direction_count", "ambient_count", "full_coverage", "diff_size",
            "bound_ii", "bound_iii", "bound_diff", "ratio_ii", "ratio_iii",
            "ratio_diff", "salem_constant", "is_salem", "parseval_defect_rel",
            "quotient_bound_holds",
        ),
        "sharpness": (
            "direction_count", "expected_count", "next_subspace_count", "exact_match", "strictly_fewer",
        ),
    }.items()
}


#: A block column of one value per row is one of these; any other value is
#: the block's constant, the value of all its rows.
_PER_ROW = (list, range, np.ndarray)


def _block_length(block: Mapping[str, Any]) -> int:
    return len(next(values for values in block.values() if isinstance(values, _PER_ROW)))


def _plain(values: Any, start: int, stop: int) -> list:
    """A block column's values of rows start to stop, as plain Python values."""
    if not isinstance(values, _PER_ROW):
        return [values] * (stop - start)
    return values[start:stop].tolist() if isinstance(values, np.ndarray) else list(values[start:stop])


class Rows(Sequence):
    """Read-only view of a result's blocks as rows; a row's dict is built when it is read."""

    def __init__(self, names: Sequence[str], blocks: Sequence[Mapping[str, Any]]):
        self._names, self._blocks = names, blocks
        self._starts = list(itertools.accumulate(map(_block_length, blocks), initial=0))

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, index: int | slice) -> dict | list[dict]:
        row = range(len(self))[index]  # a range for a slice; negative indices and IndexError as for a list
        if isinstance(row, range):
            return [self[i] for i in row]
        b = bisect.bisect_right(self._starts, row) - 1
        i = row - self._starts[b]
        return {name: _plain(self._blocks[b][name], i, i + 1)[0] for name in self._names}

    def __iter__(self) -> Iterator[dict]:
        for block, start, stop in zip(self._blocks, self._starts, self._starts[1:]):
            columns = [_plain(block[name], 0, stop - start) for name in self._names]
            yield from (dict(zip(self._names, values)) for values in zip(*columns))


@dataclass(frozen=True, eq=False)
class CampaignResult:
    """A campaign's outcome as blocks, each mapping every one of _COLUMNS[kind] to its rows' values.

    columns and rows are views of plain Python values, built when read; results compare by identity.
    """

    kind: str
    config: CampaignConfig
    blocks: tuple[dict[str, Any], ...]
    aggregates: dict
    counterexamples: tuple[dict, ...]

    @property
    def columns(self) -> dict[str, list]:
        rows = list(self.rows)
        return {name: [row[name] for row in rows] for name in _COLUMNS[self.kind]}

    @property
    def rows(self) -> Rows:
        return Rows(_COLUMNS[self.kind], self.blocks)

    @property
    def hard_failure_count(self) -> int:
        return sum(1 for c in self.counterexamples if c["severity"] == "hard")

    @property
    def soft_flag_count(self) -> int:
        return sum(1 for c in self.counterexamples if c["severity"] == "soft")

    @property
    def ok(self) -> bool:
        """True when no hard assertion fired; the CLI exit code is 0 iff ok."""
        return self.hard_failure_count == 0


def _flag_records(where: dict, reasons: Sequence[str], severity: str, fset: str | None) -> list[dict]:
    """One record per reason; where holds q, d, k, size, trial and trial_seed, in that order."""
    return [{"severity": severity, "reason": reason, **where, "fset": fset} for reason in reasons]


# -- block runner ----------------------------------------------------------

def _blocks(config: CampaignConfig, cell: Cell) -> Iterator[tuple[Sequence, list | None, np.ndarray]]:
    """The cell's sets in trial order, a block at a time: (trials, seeds, (B, size) indices).

    Seeds is None for sets not drawn; a sharpness cell is the one set H_k, with no trial.
    """
    if cell.mode == "deterministic":
        yield [None], None, gen_coordinate_subspace(cell.q, cell.d, cell.k).indices()[None]
        return
    cells = cell.q**cell.d
    per_block = max(1, (_BLOCK_CELLS if cell.size**2 <= 2 * cells else _BLOCK_CELLS // 2) // cells)
    if cell.mode == "exhaustive":
        sets = combinations(range(cell.q**cell.d), cell.size)
        for start in range(0, cell.total, per_block):
            picks = np.array(list(islice(sets, per_block)), dtype=np.int64)
            yield range(start, start + len(picks)), None, picks
        return
    # the generator draws inside H_m: H_(k+1) for subspace-random, the whole grid (m = d) for random
    m = cell.k + 1 if config.generator == "subspace-random" else cell.d
    for start in range(0, config.trials, per_block):
        trials = range(start, min(start + per_block, config.trials))
        seeds = [_trial_seed(config, cell, trial) for trial in trials]
        yield trials, seeds, index_block(cell.q, cell.d, m, cell.size, seeds)


def _block_rows(
    config: CampaignConfig, cell: Cell, trials: Sequence, seeds: Sequence | None, picks: np.ndarray
) -> tuple[dict[str, Any], list[dict]]:
    """A block's report columns and flag records; the one place severities are assigned.

    The kind's block(config, cell, trials, picks) gives its measured
    columns, each a (B,) array or the block's constant, its hard checks (at
    least one) and its soft checks, each a dict from reason tag to the (B,)
    bool mask of the sets that fail it.  A set failing any hard check has
    hard_fail set; soft_flags names the soft checks it fails.  Each flagged
    set is formatted once, in .fset form, and recorded under every reason it
    fails, hard reasons then soft.
    """
    measured, hard, soft = _KINDS[config.kind][0](config, cell, trials, picks)
    hard_fail = functools.reduce(operator.or_, hard.values())
    soft_flags: list | tuple = [()] * len(picks) if soft else ()
    flags: list[dict] = []
    located = {"q": cell.q, "d": cell.d, "k": cell.k, "size": cell.size}
    for b in np.flatnonzero(functools.reduce(operator.or_, soft.values(), hard_fail)).tolist():
        reasons = tuple(reason for reason, flagged in soft.items() if flagged[b])
        if reasons:
            soft_flags[b] = reasons
        fset = format_fset(PointSet.from_indices(cell.q, cell.d, picks[b]))
        where = {**located, "trial": trials[b], "trial_seed": None if seeds is None else seeds[b]}
        flags += _flag_records(where, [r for r, failed in hard.items() if failed[b]], "hard", fset)
        flags += _flag_records(where, reasons, "soft", fset)
    block = {"kind": config.kind, **located, "mode": cell.mode, "trial": trials, "trial_seed": seeds, **measured}
    block.update(hard_fail=hard_fail, soft_flags=soft_flags)
    return block, flags


def _stacked(blocks: list[dict], *names: str) -> Iterator[np.ndarray]:
    # an aggregate of these must be a Python int or float: the JSON tail would write a numpy scalar as a string
    return (np.concatenate([block[name] for block in blocks]) for name in names)


# -- theorem-main ----------------------------------------------------------

def _theorem_block(
    config: CampaignConfig, cell: Cell, trials: Sequence[int], picks: np.ndarray
) -> tuple[dict[str, Any], dict, dict]:
    """The block's measured columns and hard checks, read off stacked arrays.

    One stacked transform and slope gather give the spectral nu of every
    slope of every set; one stacked mu, binned once into class masses, gives
    every D(E) and the pair-count nu.  After the guard band, a disagreement of
    the two raises, naming the first such slope of the first such set.
    """
    q, d, k, size = cell.q, cell.d, cell.k, cell.size
    field = prime_field(q)
    nu, _ = slope_counts(indicator_power(picks, field, d), size, q, d, k, trials=trials)
    masses = class_masses(*difference_multiplicities(picks, q, d), len(picks), field, d)
    nondeg, degenerate = class_slope_counts(masses, q, d, k)
    disagree = np.argwhere(nondeg + degenerate[:, None] != nu)
    if len(disagree):
        b, i = disagree[0]
        raise NumericalInconsistencyError(
            f"pair-count nu {int(nondeg[b, i] + degenerate[b])} and spectral nu {int(nu[b, i])} "
            f"disagree at slope {decode(int(i), q, k)} of trial {trials[b]}"
        )
    holds = ~threshold_failures(nu, size, q, k).any(axis=1)
    covered = (nondeg > 0).all(axis=1)
    dir_counts = np.count_nonzero(masses[:, 1:], axis=1)
    # D(H_(k+1)) <= D(E) exactly when E's mu charges every class of H_(k+1)
    literal = masses[:, subspace_classes(q, d, k + 1)].all(axis=1)
    ambient_n = ambient_direction_count(q, d)
    full = dir_counts == ambient_n
    hard = {
        "nu-threshold": ~holds & (size > q**k),
        # full coverage is exact for k = d-1; below that the subset claim and
        # the slope-pattern coverage are open questions, recorded per row only
        "ambient-coverage": ~full & (size > q**k and k == d - 1),
    }
    measured = {
        "nu_min": nu.min(axis=1), "lower_bound": threshold_lower_bound(size, q, k), "threshold_holds": holds,
        "slope_pattern_covered": covered, "literal_subset": literal, "direction_count": dir_counts,
        "ambient_count": ambient_n, "full_coverage": full,
    }
    return measured, hard, {}


def _theorem_aggregate(blocks: list[dict]) -> dict:
    nu, hard, literal, covered = _stacked(blocks, "nu_min", "hard_fail", "literal_subset", "slope_pattern_covered")
    return {
        "sets_checked": len(hard),
        "nu_min": int(nu.min()),
        "hard_failures": int(hard.sum()),
        "literal_subset_failures": int((~literal).sum()),
        "slope_pattern_failures": int((~covered).sum()),
    }


# -- salem-bounds ----------------------------------------------------------

def _salem_block(
    config: CampaignConfig, cell: Cell, trials: Sequence[int], picks: np.ndarray
) -> tuple[dict[str, Any], dict, dict]:
    """The block's measured columns and checks, read off one stacked power and one stacked mu."""
    q, d, size = cell.q, cell.d, cell.size
    field = prime_field(q)
    mu = difference_multiplicities(picks, q, d)
    bounds = difference_bounds(indicator_power(picks, field, d), mu, size, field, d, trials)
    ambient_n = ambient_direction_count(q, d)
    full = bounds["direction_count"] == ambient_n
    hard = {"part-i-coverage": ~full & (size > q ** (d - 1)), "quotient-bound": ~bounds["quotient_bound_holds"]}
    floor = config.ratio_floor
    soft = {"ratio-ii-floor": bounds["ratio_ii"] < floor, "ratio-diff-floor": bounds["ratio_diff"] < floor}
    # a block's columns are read by name, so their order here is free
    measured = {
        **bounds,
        **bound_shapes(size, q, d),
        "ambient_count": ambient_n,
        "full_coverage": full,
        "is_salem": bounds["salem_constant"] <= config.salem_threshold,
    }
    return measured, hard, soft


def _salem_aggregate(blocks: list[dict]) -> dict:
    ratio_ii, ratio_iii, ratio_diff, salem, dirs, hard = _stacked(
        blocks, "ratio_ii", "ratio_iii", "ratio_diff", "salem_constant", "direction_count", "hard_fail"
    )
    return {
        "trials": len(hard),
        "min_ratio_ii": float(ratio_ii.min()),
        "min_ratio_iii": float(ratio_iii.min()),
        "min_ratio_diff": float(ratio_diff.min()),
        "max_salem_constant": float(salem.max()),
        "mean_direction_count": int(dirs.sum()) / len(hard),
        "hard_failures": int(hard.sum()),
        "soft_flags": sum(len(flags) for block in blocks for flags in block["soft_flags"]),
    }


def _salem_finish(aggregates: dict) -> tuple[dict, list[dict]]:
    """The monotonicity probe: mean |D(E)| should not drop as |E| grows within a (q, d, k) group.

    A group that drops is a soft flag of its own.
    """
    groups: dict[tuple, list[dict]] = {}
    for agg in aggregates["cells"]:
        groups.setdefault((agg["q"], agg["d"], agg["k"]), []).append(agg)
    probes = []
    flags: list[dict] = []
    for (q, d, k), aggs in groups.items():
        if len(aggs) < 2:
            continue
        ordered = sorted(aggs, key=lambda a: a["size"])
        means = [a["mean_direction_count"] for a in ordered]
        nondecreasing = all(means[i] <= means[i + 1] for i in range(len(means) - 1))
        probes.append(
            {
                "q": q, "d": d, "k": k,
                "sizes": [a["size"] for a in ordered],
                "mean_direction_count": means,
                "nondecreasing": nondecreasing,
            }
        )
        if not nondecreasing:
            where = {"q": q, "d": d, "k": k, "size": None, "trial": None, "trial_seed": None}
            flags += _flag_records(where, ["direction-mean-monotonicity"], "soft", None)
    # the probe's entry follows the cells' in the report
    return {"cells": aggregates["cells"], "monotonicity": probes, **aggregates}, flags


# -- sharpness -------------------------------------------------------------

def _sharpness_block(
    config: CampaignConfig, cell: Cell, trials: Sequence, picks: np.ndarray
) -> tuple[dict[str, Any], dict, dict]:
    """|D(H_k)| read off the stacked mu: exactly H_k's (q^k - 1)/(q - 1), fewer than H_(k+1)'s."""
    q, d, k = cell.q, cell.d, cell.k
    masses = class_masses(*difference_multiplicities(picks, q, d), len(picks), prime_field(q), d)
    dir_counts = np.count_nonzero(masses[:, 1:], axis=1)
    expected, next_count = ambient_direction_count(q, k), ambient_direction_count(q, k + 1)
    exact = (dir_counts == expected) & (picks.shape[1] == cell.size)
    fewer = dir_counts < next_count
    measured = {
        "direction_count": dir_counts, "expected_count": expected, "next_subspace_count": next_count,
        "exact_match": exact, "strictly_fewer": fewer,
    }
    return measured, {"sharpness-count": ~(exact & fewer)}, {}


def _sharpness_finish(aggregates: dict) -> tuple[dict, list[dict]]:
    """A sharpness cell is the one set H_k, so the report keeps only the totals."""
    return {"cells_checked": aggregates["sets_checked"], "hard_failures": aggregates["hard_failures"]}, []


#: Each kind: its block (see _block_rows), its cell aggregate, which
#: reduces a cell's blocks, and its finish step, which completes the
#: campaign's aggregates and may add flag records.
_KINDS: dict[str, tuple[Callable, Callable[[list[dict]], dict], Callable[[dict], tuple[dict, list[dict]]]]] = {
    "theorem-main": (_theorem_block, _theorem_aggregate, lambda aggregates: (aggregates, [])),
    "salem-bounds": (_salem_block, _salem_aggregate, _salem_finish),
    "sharpness": (_sharpness_block, lambda blocks: {}, _sharpness_finish),
}

KINDS = tuple(_KINDS)


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Run the configured campaign, a block of sets at a time; the one way a campaign runs.

    Blocks run in trial order in the calling thread, whatever the config's
    threads.
    """
    _, aggregate, finish = _KINDS[config.kind]
    blocks: list[dict] = []
    counterexamples: list[dict] = []
    cell_aggs: list[dict] = []
    for cell in _expand_cells(config):
        cell_blocks = []
        for trials, seeds, picks in _blocks(config, cell):
            block, flags = _block_rows(config, cell, trials, seeds, picks)
            cell_blocks.append(block)
            counterexamples += flags
        blocks += cell_blocks
        cell_aggs.append({
            "q": cell.q, "d": cell.d, "k": cell.k, "size": cell.size, "mode": cell.mode,
            **aggregate(cell_blocks),
        })
    (hard,) = _stacked(blocks, "hard_fail")
    totals = {"sets_checked": len(hard), "hard_failures": int(hard.sum())}
    aggregates, flags = finish({"cells": cell_aggs, **totals})
    return CampaignResult(config.kind, config, tuple(blocks), aggregates, tuple(counterexamples + flags))


# -- report emission -------------------------------------------------------

#: CSV text of a report value by its exact type, so a bool is not taken for an int; other types print with str.
_CSV_TEXT: dict[type, Callable[[Any], str]] = {
    type(None): lambda value: "",
    bool: lambda value: "true" if value else "false",
    float: repr,
    tuple: lambda value: ";".join(map(str, value)),
}
_CSV_QUOTED = frozenset(',"\r\n')


def _csv_cell(value: Any) -> str:
    text = _CSV_TEXT.get(type(value), str)(value)
    return text if _CSV_QUOTED.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


#: JSON text of a report value by its exact type, the text json.dumps gives it, without the call.
_JSON_TEXT: dict[type, Callable[[Any], str]] = {
    type(None): lambda value: "null",
    bool: _CSV_TEXT[bool],
    int: int.__repr__,
    str: json.encoder.encode_basestring_ascii,
}


def _json_cell(value: Any) -> str:
    """A row value's text in the indent=2 report: a list as json.dumps lays it out, six spaces in."""
    if type(value) in _JSON_TEXT:
        return _JSON_TEXT[type(value)](value)
    if isinstance(value, tuple):
        return json.dumps(value, indent=2).replace("\n", "\n      ") if value else "[]"
    return json.dumps(str(value) if isinstance(value, Fraction) else value)


_BOOL_TEXT = np.array(["false", "true"], dtype=object)


def _column_texts(values: list | range | np.ndarray, render: Callable[[Any], str]) -> list[str]:
    """A per-row column's texts: a range or a typed numpy column by its type's rule, anything else row by row.

    The typed texts are the same in CSV and JSON (JSON spells NaN and the
    infinities its own way, so only finite float columns).
    """
    if isinstance(values, np.ndarray):
        kind = values.dtype.kind
        if kind == "b":
            return _BOOL_TEXT.take(values.view(np.uint8)).tolist()
        if kind == "i" or kind == "f" and np.isfinite(values).all():
            return list(map(repr, values.tolist()))
        values = values.tolist()
    return list(map(repr if isinstance(values, range) else render, values))


def _row_texts(result: CampaignResult, render: Callable[[Any], str], leads: list[str], end: str) -> Iterator[str]:
    """Each row's text, a block at a time: every column's lead and value text, then end.

    A block's constant is rendered once and folded, with the leads around
    it, into the fixed text between its per-row columns' texts.
    """
    for block in result.blocks:
        pieces, fixed = [], ""
        for lead, name in zip(leads, _COLUMNS[result.kind]):
            values = block[name]
            if isinstance(values, _PER_ROW):
                pieces += [itertools.repeat(fixed + lead), _column_texts(values, render)]
                fixed = ""
            else:
                fixed += lead + render(values)
        yield from map("".join, zip(*pieces, itertools.repeat(fixed + end)))


def _json_fraction(value: Any) -> str:
    """A Fraction's text in the JSON tail; any other value json cannot encode is an error, not a string."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"report value {value!r} of type {type(value).__name__} is not JSON serializable")


def emit_report(result: CampaignResult, format: str) -> str:
    """Render the campaign to text; identical results render byte-identically.

    One writer gives both formats' rows a block at a time, joining each
    per-row column's texts with fixed text: the column leads (a comma, or a
    JSON key) and the block's constants.  The JSON is the text that
    json.dumps(indent=2) gives the whole document; the entries around rows
    are encoded whole.
    """
    names = _COLUMNS[result.kind]
    commas = [","] * (len(names) - 1)
    if format == "csv":
        lines = _row_texts(result, _csv_cell, ["", *commas], "")
        return "\n".join(itertools.chain([",".join(names)], lines)) + "\n"
    if format != "json":
        raise ConfigError(f"unknown report format {format!r}; expected csv or json")
    leads = [lead + f"\n      {json.dumps(name)}: " for lead, name in zip(["{", *commas], names)]
    rows = ",\n    ".join(_row_texts(result, _json_cell, leads, "\n    }"))
    rows = f"[\n    {rows}\n  ]" if rows else "[]"
    head = json.dumps({"kind": result.kind, "config": result.config.to_dict()}, indent=2)
    tail = json.dumps(
        {"aggregates": result.aggregates, "counterexamples": result.counterexamples,
         "hard_failure_count": result.hard_failure_count, "soft_flag_count": result.soft_flag_count, "ok": result.ok},
        indent=2, default=_json_fraction,
    )
    # head ends with its closing "\n}" and tail opens with "{": splice rows between them
    return f'{head[:-2]},\n  "rows": {rows},{tail[1:]}\n'


def write_report(result: CampaignResult, format: str, path: str | Path) -> None:
    _write_in_place(path, emit_report(result, format))
