"""Cap-fraction geometry: closed-form oracles, bounds, and Monte Carlo."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from invgc.theory import (
    MC_BLOCK,
    cap_fraction_exact,
    cap_fraction_mc,
    check_corollary,
    check_lemma2,
    check_thm1_bounds,
    check_thm3_bounds,
    run_theory_suite,
    sample_corollary_pairs,
    sphere_area_volume_ratio,
)

B_GRID = [round(0.05 * i, 2) for i in range(1, 20)]


def test_exact_fraction_matches_planar_segment_oracle():
    for b in B_GRID + [math.sqrt(0.5)]:
        assert_allclose(
            cap_fraction_exact(2, b), oracles.cap_fraction_2d(b), atol=1e-10
        )


def test_exact_fraction_matches_spherical_cap_oracle():
    for b in B_GRID + [math.sqrt(3.0) / 2.0]:
        assert_allclose(
            cap_fraction_exact(3, b), oracles.cap_fraction_3d(b), atol=1e-10
        )
    assert_allclose(
        cap_fraction_exact(3, math.sqrt(3.0) / 2.0), 5.0 / 32.0, atol=1e-10
    )


def test_boundary_arc_measure_is_the_other_convention():
    # At b = sqrt(2)/2 the often-quoted value 1/4 is the fraction of the
    # circle's arc inside the cap, a boundary measure.  The solid
    # fraction implemented here is strictly smaller.
    b = math.sqrt(0.5)
    assert_allclose(oracles.arc_fraction_2d(b), 0.25, atol=1e-12)
    assert cap_fraction_exact(2, b) < 0.25
    assert_allclose(cap_fraction_exact(2, b), oracles.cap_fraction_2d(b), atol=1e-12)


def test_fraction_is_monotone_in_b_and_shrinks_with_n():
    for n in (2, 3, 6, 11):
        vals = [cap_fraction_exact(n, b) for b in B_GRID]
        assert all(a < b for a, b in zip(vals, vals[1:]))
    for b in (0.2, 0.5, 0.8):
        byn = [cap_fraction_exact(n, b) for n in range(2, 13)]
        assert all(a > b_ for a, b_ in zip(byn, byn[1:]))


def test_hemisphere_is_exactly_one_half():
    for n in range(2, 17):
        assert cap_fraction_exact(n, 1.0) == 0.5


def test_two_sided_bounds_hold_strictly_on_the_grid():
    for n in range(2, 17):
        for b in B_GRID:
            c = check_thm3_bounds(n, b)
            assert c.holds
            assert c.lower_bound < c.exact_fraction < c.upper_bound
            assert_allclose(c.lower_bound, b ** (n + 1) / (4 * n), atol=1e-15)
            assert_allclose(c.upper_bound, 0.5 * b**n, atol=1e-15)


def test_wide_bound_lower_limit_fails_at_a_known_point():
    c = check_thm1_bounds(3, 0.5)
    assert c.lower_bound == 0.25 * 0.5**4
    assert c.lower_bound == 0.015625
    assert c.exact_fraction < c.lower_bound
    assert not c.holds
    # the same point passes the n-times-tighter form
    assert check_thm3_bounds(3, 0.5).holds


def test_ratio_bound_holds_on_sampled_pairs():
    pairs = sample_corollary_pairs(list(range(2, 17)), B_GRID, 300, seed=13)
    assert len(pairs) == 300
    for n, b1, b2 in pairs:
        assert b1 < b2
        c = check_corollary(n, b1, b2)
        assert c.holds
        ratio = cap_fraction_exact(n, b1) / cap_fraction_exact(n, b2)
        assert_allclose(c.exact_fraction, ratio, atol=1e-15)
        assert_allclose(c.upper_bound, (2 * n / b2) * (b1 / b2) ** n, atol=1e-15)


def test_corollary_requires_ordered_radii():
    with pytest.raises(ValueError, match="need b1 < b2"):
        check_corollary(4, 0.5, 0.5)


def test_surface_to_volume_ratio_equals_the_dimension():
    for n in range(2, 17):
        area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        volume = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
        assert_allclose(sphere_area_volume_ratio(n), area / volume, rtol=1e-14)
        assert abs(sphere_area_volume_ratio(n) - n) <= 1e-12
        c = check_lemma2(n)
        assert c.holds and c.b is None
        assert c.lower_bound == c.upper_bound == float(n)


def test_lemma2_reaches_the_largest_n_its_gamma_forms_allow():
    # 2 Gamma(171.5) overflows, so the ratio at n = 341 is doubled after
    # the division; Gamma(172) overflows itself, so n = 342 is refused
    assert abs(sphere_area_volume_ratio(341) - 341) <= 1e-12
    assert check_lemma2(341).holds
    for n in (342, 1000):
        with pytest.raises(ValueError, match=f"^n={n} is too large .* up to n=341$"):
            sphere_area_volume_ratio(n)


def test_a_cap_fraction_below_the_smallest_normal_float_is_refused():
    # betainc returns a subnormal at n = 235 and 0.0 from n = 237 at b = 0.05;
    # a 0.0 once failed thm3 wrongly and divided by zero in the corollary
    assert cap_fraction_exact(234, 0.05) >= sys.float_info.min
    for n, b in ((235, 0.05), (237, 0.05), (340, 0.01)):
        with pytest.raises(ValueError, match=f"^the cap fraction at n={n}, b={b} underflows a float$"):
            cap_fraction_exact(n, b)
    with pytest.raises(ValueError, match="n=235, b=0.05 underflows"):
        check_thm3_bounds(235, 0.05)
    with pytest.raises(ValueError, match="n=340, b=0.01 underflows"):
        check_corollary(340, 0.01, 0.02)


def test_mc_estimate_is_deterministic_for_a_seed():
    a = cap_fraction_mc(4, 0.6, 50_000, seed=13)
    b = cap_fraction_mc(4, 0.6, 50_000, seed=13)
    assert a == b
    c = cap_fraction_mc(4, 0.6, 50_000, seed=14)
    assert c != a
    # sample counts that straddle the block size stay deterministic
    d1 = cap_fraction_mc(3, 0.5, MC_BLOCK + 1000, seed=7)
    d2 = cap_fraction_mc(3, 0.5, MC_BLOCK + 1000, seed=7)
    assert d1 == d2


def test_mc_estimate_brackets_the_exact_value():
    rng_pairs = [(2, 0.4), (5, 0.7), (9, 0.9)]
    for n, b in rng_pairs:
        exact = cap_fraction_exact(n, b)
        est, err = cap_fraction_mc(n, b, 200_000, seed=13)
        assert err > 0.0
        assert abs(est - exact) <= 4.0 * err


def test_mc_stderr_formula():
    est, err = cap_fraction_mc(2, 0.9, 10_000, seed=3)
    assert_allclose(err, math.sqrt(est * (1 - est) / 10_000), atol=1e-15)


def test_argument_validation():
    with pytest.raises(ValueError, match="n must be an integer >= 2"):
        cap_fraction_exact(1, 0.5)
    with pytest.raises(ValueError, match="n must be an integer >= 2"):
        cap_fraction_exact(2.5, 0.5)
    with pytest.raises(ValueError, match=r"b must lie in \(0, 1\]"):
        cap_fraction_exact(3, 0.0)
    with pytest.raises(ValueError, match=r"b must lie in \(0, 1\]"):
        cap_fraction_exact(3, 1.2)
    with pytest.raises(ValueError, match="1 exclusive"):
        check_thm3_bounds(3, 1.0)
    with pytest.raises(ValueError, match=r"^samples must be an integer >= 1, got 0$"):
        cap_fraction_mc(3, 0.5, 0, seed=0)
    with pytest.raises(ValueError, match="no b1 < b2 pairs"):
        sample_corollary_pairs([2], [0.5], 10, seed=0)
    with pytest.raises(ValueError, match="no b1 < b2 pairs"):
        sample_corollary_pairs([2], [0.5, 0.5], 10, seed=0)
    with pytest.raises(ValueError, match=r"^mc_samples must be an integer >= 0, got -1$"):
        run_theory_suite([2], [0.3, 0.6], mc_samples=-1)


def test_every_count_is_refused_with_the_one_template():
    # each is refused before numpy sees it, and a NaN sample count does not
    # skip the Monte Carlo silently
    with pytest.raises(ValueError, match=r"^samples must be an integer >= 1, got 2\.5$"):
        cap_fraction_mc(3, 0.5, 2.5, 1)
    with pytest.raises(ValueError, match=r"^corollary_count must be an integer >= 0, got -1$"):
        run_theory_suite([2, 3], [0.3, 0.6], corollary_count=-1)
    with pytest.raises(ValueError, match=r"^count must be an integer >= 0, got -1$"):
        sample_corollary_pairs([2, 3], [0.3, 0.6], -1, seed=0)
    with pytest.raises(ValueError, match=r"^mc_samples must be an integer >= 0, got nan$"):
        run_theory_suite([2], [0.5], mc_samples=float("nan"))
    with pytest.raises(ValueError, match=r"^n must be an integer >= 2, got inf$"):
        cap_fraction_exact(float("inf"), 0.5)


def test_suite_row_order_and_contents():
    checks = run_theory_suite([2, 3], [0.3, 0.6], corollary_count=200)
    names = [c.name for c in checks]
    assert names == ["lemma2"] * 2 + ["thm3"] * 4 + ["corollary"] * 2
    assert [c.n for c in checks[:2]] == [2, 3]
    assert [(c.n, c.b) for c in checks[2:6]] == [
        (2, 0.3), (2, 0.6), (3, 0.3), (3, 0.6)
    ]
    for c in checks:
        assert c.mc_estimate is None
    with_thm1 = run_theory_suite([2, 3], [0.3, 0.6], include_thm1=True)
    assert [c.name for c in with_thm1].count("thm1") == 4
    assert [c.name for c in run_theory_suite([2, 3], [0.5, 0.5])] == ["lemma2"] * 2 + ["thm3"] * 4
    assert [(c.b, c.b2) for c in run_theory_suite([2], [0.6, 0.3, 0.6]) if c.name == "corollary"] == [(0.3, 0.6)]
    with_mc = run_theory_suite([2], [0.3, 0.5], mc_samples=20_000, seed=13)
    mc_rows = [c for c in with_mc if c.name == "thm3"]
    assert all(c.mc_estimate is not None and c.mc_stderr is not None for c in mc_rows)
    assert all(c.mc_estimate is None for c in with_mc if c.name != "thm3")


def _enumerated_pairs(ns, bs, count, seed):
    # every (n, b1 < b2) combination built before the draw
    radii = sorted(set(bs))
    combos = [(n, b1, b2) for n in ns for i, b1 in enumerate(radii) for b2 in radii[i + 1 :]]
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(combos), size=min(count, len(combos)), replace=False))
    return [combos[i] for i in idx]


def test_sampled_corollary_pairs_equal_an_enumeration_of_every_combination():
    # repeated n and radii included; 1-decimal radii repeat often
    rng = np.random.default_rng(41)
    for _ in range(150):
        ns = rng.integers(2, 6, size=rng.integers(1, 5)).tolist()
        bs = np.round(rng.uniform(0.05, 0.95, size=rng.integers(2, 30)), 1).tolist()
        if len(set(bs)) < 2:
            continue
        count, seed = int(rng.integers(1, 300)), int(rng.integers(0, 100))
        assert sample_corollary_pairs(ns, bs, count, seed) == _enumerated_pairs(ns, bs, count, seed)


def test_sampling_corollary_pairs_builds_only_the_drawn_combinations():
    # 2 x 2000 radii make about 4e6 combinations, whose enumeration
    # peaks near 300 MB
    radii = np.linspace(0.0001, 0.9999, 2000).tolist()
    tracemalloc.start()
    try:
        pairs = sample_corollary_pairs([2, 3], radii, 200, seed=13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == 200 and all(b1 < b2 for _, b1, b2 in pairs)
    assert peak < 5e6
