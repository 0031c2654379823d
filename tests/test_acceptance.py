"""End-to-end acceptance sweep.

Each test covers one numbered criterion and prints a single pass/fail line,
visible even under pytest's default output capture.  Hard mathematical
statements are asserted at their stated tolerances; the measured-evidence
criteria assert the recorded expectation for the frozen seeds used here.
"""

import math
import time

import numpy as np
import pytest

from fqdirections import grid
from fqdirections.directions import direction_set
from fqdirections.generators import (
    gen_affine_subspace,
    gen_coordinate_subspace,
    gen_embedded,
    gen_paraboloid,
    gen_random,
    gen_subspace_random,
)
from fqdirections.harness import CampaignConfig, emit_report, run_campaign
from fqdirections.incidence import all_slopes, remainder_spectral, theorem_main_threshold
from fqdirections.pointset import PointSet
from fqdirections.rng import mix64
from fqdirections.salem import difference_profile
from fqdirections.spectral import GridFunction
from fqdirections.field import PrimeField

from oracles import mu_spectrum_identity_defect, plancherel_defect

MASTER_SEED = 20260823
IDENTITY_CELLS = [(q, d) for q in (3, 5, 7) for d in (2, 3)]


def report(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    if capsys is not None:
        # bypass pytest's capture so the line shows up even without -s
        with capsys.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def trial_size(q: int, d: int, i: int) -> int:
    """Deterministic size schedule cycling through sub- and super-threshold."""
    return 2 + (i % min(2 * q, q**d - 2))


def test_criterion_01_exhaustive_theorem_main(capsys):
    t0 = time.perf_counter()
    cfg = CampaignConfig(kind="theorem-main", q_list=(3,), d_list=(2,), k_list=(1,), mode="exhaustive")
    res = run_campaign(cfg)
    elapsed = time.perf_counter() - t0
    covered = all(row["full_coverage"] for row in res.rows)
    ok = res.ok and len(res.rows) == 126 and covered and elapsed < 10.0
    report(
        capsys, 1, ok,
        f"all {len(res.rows)} size-4 sets over F_3^2 pass the nu threshold and "
        f"determine all 4 directions, {res.hard_failure_count} failures, {elapsed:.2f}s",
    )


def test_criterion_02_randomized_theorem_main(capsys):
    cells = [(5, 2, 1), (7, 2, 1), (5, 3, 1), (5, 3, 2), (3, 4, 3)]
    t0 = time.perf_counter()
    failures = 0
    coverage_misses = 0
    checked = 0
    for q, d, k in cells:
        cfg = CampaignConfig(
            kind="theorem-main", q_list=(q,), d_list=(d,), k_list=(k,),
            trials=500, seed=MASTER_SEED, mode="random",
        )
        res = run_campaign(cfg)
        checked += len(res.rows)
        failures += res.hard_failure_count
        assert all(row["threshold_holds"] for row in res.rows)
        if k == d - 1:
            coverage_misses += sum(not row["full_coverage"] for row in res.rows)
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and coverage_misses == 0 and checked == 2500 and elapsed < 300.0
    report(
        capsys, 2, ok,
        f"{checked} sets with |E| = q^k + 1 over 5 cells: 0 nu-threshold failures, "
        f"{coverage_misses} coverage misses on k = d-1 cells, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def oracle_sweep():
    """Shared sweep for criteria 3 and 4: spectral vs brute on every slope."""
    stats = {"sets": 0, "slopes": 0, "mismatches": 0, "max_dev": 0.0, "min_remainder": 0.0}
    for q, d in IDENTITY_CELLS:
        for i in range(100):
            E = gen_random(q, d, trial_size(q, d, i), seed=mix64(MASTER_SEED, q, d, i))
            stats["sets"] += 1
            for k in range(1, d):
                spectral = theorem_main_threshold(E, k, method="spectral")
                brute = theorem_main_threshold(E, k, method="brute")
                for s_out, b_out in zip(spectral.outcomes, brute.outcomes):
                    stats["slopes"] += 1
                    if s_out.nu != b_out.nu or s_out.nu_nondegenerate != b_out.nu_nondegenerate:
                        stats["mismatches"] += 1
                # guard-band margin, recomputed from the exact main/diagonal terms
                base = float(spectral.lower_bound)
                for out, slope in zip(spectral.outcomes, all_slopes(q, k)):
                    R = remainder_spectral(E, slope)
                    stats["min_remainder"] = min(stats["min_remainder"], R)
                    stats["max_dev"] = max(stats["max_dev"], abs(base + R - out.nu))
    return stats


def test_criterion_03_oracle_equivalence(oracle_sweep, capsys):
    s = oracle_sweep
    ok = s["mismatches"] == 0 and s["max_dev"] < 1e-4
    report(
        capsys, 3, ok,
        f"nu_spectral == nu_brute on {s['slopes']} (set, slope) pairs across "
        f"{s['sets']} sets, max float deviation {s['max_dev']:.2e} < 1e-4",
    )


def test_criterion_04_remainder_nonnegative(oracle_sweep, capsys):
    s = oracle_sweep
    ok = s["min_remainder"] >= -1e-6
    report(capsys, 4, ok, f"min spectral remainder {s['min_remainder']:.2e} >= -1e-6 over the full sweep")


def test_criterion_05_spectral_identities(capsys):
    worst_plancherel = 0.0
    worst_mu_hat = 0.0
    worst_fourth = 0.0
    for q, d in IDENTITY_CELLS:
        F = PrimeField(q)
        n = q**d
        for i in range(200):
            rng = np.random.default_rng(mix64(MASTER_SEED, 5, q, d, i) % 2**32)
            f = GridFunction(F, d, rng.normal(size=n) + 1j * rng.normal(size=n))
            norm = float(np.sum(np.abs(f.values) ** 2))
            worst_plancherel = max(worst_plancherel, plancherel_defect(f) / max(1.0, norm) / 1e-9)
        for i in range(200):
            E = gen_random(q, d, trial_size(q, d, i), seed=mix64(MASTER_SEED, 55, q, d, i))
            size = E.cardinality
            worst_mu_hat = max(
                worst_mu_hat, mu_spectrum_identity_defect(E) / (1e-6 * size * size)
            )
            prof = difference_profile(E)
            lhs = prof.sum_of_squares()
            rhs = float(q) ** (3 * d) * float(np.sum(E.spectrum_power() ** 2))
            worst_fourth = max(worst_fourth, abs(lhs - rhs) / max(1.0, float(lhs)) / 1e-6)
    ok = worst_plancherel < 1.0 and worst_mu_hat < 1.0 and worst_fourth < 1.0
    report(
        capsys, 5, ok,
        "Plancherel, difference-transform, and fourth-moment identities hold on "
        f"200 draws per cell (worst margins {worst_plancherel:.1e}, "
        f"{worst_mu_hat:.1e}, {worst_fourth:.1e} of tolerance)",
    )


def test_criterion_06_exact_combinatorial_identities(capsys):
    checked = 0
    for q, d in IDENTITY_CELLS:
        base_dim = d - 1 if d > 1 else 1
        zoo = [
            gen_random(q, d, min(2 * q, q**d), seed=mix64(MASTER_SEED, 6, q, d)),
            gen_coordinate_subspace(q, d, d - 1),
            gen_affine_subspace(q, d, 1, (1,) * d),
            gen_paraboloid(q, d),
            gen_subspace_random(q, d, base_dim, min(q**base_dim, q + 1), seed=5),
            gen_embedded(gen_random(q, base_dim, min(q, q**base_dim), seed=7), d),
            PointSet.empty(q, d),
            PointSet.from_points(q, d, [(1,) * d]),
        ]
        for E in zoo:
            size = E.cardinality
            prof = difference_profile(E)
            assert int(prof.mu.sum()) == size * size
            assert prof.mu_of((0,) * d) == (size if size else 0)
            coords = np.arange(q**d)
            # mu(z) = mu(-z): compare against the negation permutation
            neg = grid.encode_coords((-grid.decode_indices(coords, q, d)) % q, q)
            assert np.array_equal(prof.mu, prof.mu[neg])
            dirs = direction_set(E)
            assert len(dirs) * (q - 1) >= prof.support_size - 1
            checked += 1
    report(capsys, 6, True, f"sum, center, symmetry, and quotient-bound identities exact on {checked} sets")


def test_criterion_07_sharpness(capsys):
    rows = 0
    for q in (3, 5, 7):
        for d in (2, 3):
            res = run_campaign(CampaignConfig(kind="sharpness", q_list=(q,), d_list=(d,)))
            assert res.ok
            for row in res.rows:
                k = row["k"]
                assert row["direction_count"] == (q**k - 1) // (q - 1)
                assert row["direction_count"] < (q ** (k + 1) - 1) // (q - 1)
                rows += 1
    report(
        capsys, 7, True,
        f"{rows} subspace cells: H_k with |E| = q^k determines exactly "
        "(q^k - 1)/(q - 1) directions, strictly fewer than H_(k+1)",
    )


def test_criterion_08_counterexample_reproduction(capsys):
    qs = (5, 7, 11, 13)
    ratios_ii = []
    ratios_iii = []
    for q in qs:
        size = math.ceil(q**1.5)
        E = gen_subspace_random(q, 4, 2, size, seed=mix64(MASTER_SEED, 8, q))
        n_dirs = len(direction_set(E))
        assert n_dirs <= (q**2 - 1) // (q - 1)
        ratios_ii.append(n_dirs / (size * size / q))
        ratios_iii.append(n_dirs / size)
    decreasing = all(a > b for a, b in zip(ratios_ii, ratios_ii[1:])) and all(
        a > b for a, b in zip(ratios_iii, ratios_iii[1:])
    )
    seq = ", ".join(f"q={q}: {r:.3f}/{s:.3f}" for q, r, s in zip(qs, ratios_ii, ratios_iii))
    report(
        capsys, 8, decreasing,
        f"sets of size ceil(q^1.5) inside a plane keep |D(E)| <= q + 1; "
        f"both bound ratios decrease ({seq})",
    )


def test_criterion_09_salem_bound_evidence(capsys):
    cfg = CampaignConfig(
        kind="salem-bounds", q_list=(7, 11, 13), d_list=(2,),
        sizes=("round(q/2)", "q", "2*q"), trials=200, seed=MASTER_SEED, mode="random",
    )
    res = run_campaign(cfg)
    min_ii = min(c["min_ratio_ii"] for c in res.aggregates["cells"])
    min_diff = min(c["min_ratio_diff"] for c in res.aggregates["cells"])
    ok = res.ok and min_ii > 0.25 and min_diff > 0.25
    report(
        capsys, 9, ok,
        f"1800 random sets over 9 cells: 0 hard failures, empirical minima "
        f"|D|/bound = {min_ii:.3f} and |E-E|/bound = {min_diff:.3f} both above 0.25",
    )


def test_criterion_10_deterministic_reports(capsys):
    configs = [
        CampaignConfig(
            kind="theorem-main", q_list=(5,), d_list=(2,), k_list=(1,),
            trials=30, seed=MASTER_SEED, mode="random",
        ),
        CampaignConfig(
            kind="salem-bounds", q_list=(7,), d_list=(2,), sizes=("q",),
            trials=30, seed=MASTER_SEED, mode="random", threads=3,
        ),
        CampaignConfig(kind="sharpness", q_list=(5,), d_list=(3,)),
    ]
    identical = True
    for cfg in configs:
        first, second = run_campaign(cfg), run_campaign(cfg)
        for fmt in ("csv", "json"):
            identical = identical and emit_report(first, fmt) == emit_report(second, fmt)
    report(capsys, 10, identical, "CSV and JSON reports byte-identical across reruns for all campaign kinds")
