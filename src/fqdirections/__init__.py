"""Exact experiments over F_q^d: directions, incidences, Fourier spectra.

The package computes, in exact or guard-banded arithmetic, the objects that
drive direction-set problems over prime-field grids: the direction set D(E)
of a point set, incidence counts nu_E(t) along slope tuples, difference
multiplicities mu(z), and the discrete Fourier spectrum that ties them
together.  A campaign harness sweeps (q, d, k, |E|) grids and emits
deterministic CSV/JSON reports; the `fqdirections` CLI fronts everything.
"""

from types import ModuleType as _ModuleType

from .directions import (
    ambient_direction_count,
    canonical_direction,
    coordinate_subspace_directions,
    direction_set,
    sort_directions,
)
from .errors import ConfigError, FsetParseError, NumericalInconsistencyError, SizeCapError
from .field import MAX_MODULUS, PrimeField, is_prime
from .generators import (
    GENERATOR_NAMES,
    gen_affine_subspace,
    gen_coordinate_subspace,
    gen_embedded,
    gen_paraboloid,
    gen_random,
    gen_subspace_random,
)
from .harness import (
    EXHAUSTIVE_LIMIT,
    CampaignConfig,
    CampaignResult,
    emit_report,
    evaluate_size,
    run_campaign,
    write_report,
)
from .incidence import (
    IncidenceReport,
    SlopeOutcome,
    ThresholdReport,
    all_slopes,
    degenerate_pair_count,
    nu_brute,
    nu_spectral,
    nu_sweep,
    remainder_spectral,
    theorem_main_threshold,
)
from .pointset import PointSet, format_fset, parse_fset, read_fset, write_fset
from .rng import mix64, sample_block, sample_without_replacement
from .salem import (
    BoundCheckRecord,
    DifferenceProfile,
    SalemReport,
    difference_bound_check,
    difference_profile,
    salem_report,
)
from .spectral import DEFAULT_SIZE_CAP, GridFunction, check_size_cap, forward_transform

__version__ = "0.1.0"

# the public names are those imported above: every non-module name without a leading underscore
__all__ = [name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _ModuleType))]
__all__.append("__version__")
