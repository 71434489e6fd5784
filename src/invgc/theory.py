"""Spherical-cap geometry checks.

cap_fraction_exact(n, b) is the volume fraction of the unit n-ball cut
off by the cap whose base hypersphere has radius b: the set of ball
points whose first coordinate is at least sqrt(1 - b^2).  In terms of
the regularized incomplete beta function I_x(a, c),

    fraction = 1/2 * I_{b^2}((n + 1)/2, 1/2)

which is 5/32 at (n=3, b=sqrt(3)/2) against the elementary 3-D cap
formula and exactly 1/2 at b=1 (hemisphere).

Bound checks:

  thm3       (1/(4n)) * b^(n+1)  <  fraction  <  (1/2) * b^n   (strict)
  thm1       (1/4) * b^(n+1)     <  fraction  <  (n/2) * b^n   (diagnostic)
  corollary  fraction(n,b1)/fraction(n,b2)  <  (2n/b2) * (b1/b2)^n
  lemma2     A(S_{n-1}) / V(B_n) == n       (within 1e-12)

The thm1 bounds sit a factor n from the thm3 bounds; the cap fraction
provably violates the thm1 lower bound for some (n, b), e.g. n=3 at
b=0.5 where the fraction is ~0.0128610 < 0.015625.  check_thm1_bounds
reports that verdict as observed; no constant is adjusted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .embio import _check_count

MC_BLOCK = 65536
# The largest n whose gamma forms stay finite: Gamma(n/2 + 1) overflows
# a float from n = 342.
_LEMMA2_MAX_N = 341


@dataclass
class CapCheck:
    """One bound verdict at a grid point."""

    name: str
    n: int
    b: float | None
    exact_fraction: float
    lower_bound: float
    upper_bound: float
    holds: bool
    b2: float | None = None
    mc_estimate: float | None = None
    mc_stderr: float | None = None


def _check_b(b, allow_one: bool) -> float:
    hi = 1.0 if allow_one else 1.0 - 1e-15
    if not (0.0 < b <= hi):
        top = "1" if allow_one else "1 exclusive"
        raise ValueError(f"b must lie in (0, {top}], got {b}")
    return float(b)


def cap_fraction_exact(n: int, b: float) -> float:
    """Exact cap volume fraction via the regularized incomplete beta.

    Refuses an (n, b) whose fraction is below the smallest normal float:
    betainc underflows there to a subnormal or to 0.0, which no bound
    check or ratio can use.
    """
    # Imported here: scipy.special costs every other command its start-up.
    from scipy.special import betainc

    n = _check_count("n", n, 2)
    b = _check_b(b, allow_one=True)
    fraction = float(0.5 * betainc((n + 1) / 2.0, 0.5, b * b))
    if fraction < sys.float_info.min:
        raise ValueError(f"the cap fraction at n={n}, b={b!r} underflows a float")
    return fraction


def cap_fraction_mc(n: int, b: float, samples: int, seed: int):
    """Monte Carlo estimate of the cap volume fraction.

    Points are drawn uniformly in the unit ball (isotropic Gaussian
    direction scaled by U^(1/n)); membership uses the colatitude test
    <p, x1> >= sqrt(1 - b^2) with the apex at the first basis vector.
    The sample space is split into fixed-size blocks, each with its own
    substream seeded from (seed, block index), and integer hit counts
    accumulate, so the result does not depend on execution order or
    thread settings.

    Returns (estimate, stderr) with stderr = sqrt(p(1-p)/samples).
    """
    n = _check_count("n", n, 2)
    b = _check_b(b, allow_one=True)
    samples = _check_count("samples", samples)
    seed = _check_count("seed", seed, 0)
    cutoff = math.sqrt(max(0.0, 1.0 - b * b))
    hits = 0
    for block, start in enumerate(range(0, samples, MC_BLOCK)):
        count = min(MC_BLOCK, samples - start)
        rng = np.random.default_rng(np.random.SeedSequence((seed, block)))
        g = rng.standard_normal((count, n))
        radii = rng.random(count) ** (1.0 / n)
        first = g[:, 0] / np.linalg.norm(g, axis=1) * radii
        hits += int(np.count_nonzero(first >= cutoff))
    estimate = hits / samples
    stderr = math.sqrt(estimate * (1.0 - estimate) / samples)
    return estimate, stderr


def _check_cap_bounds(name: str, n: int, b: float, bounds) -> CapCheck:
    # bounds(n, b) -> (lower, upper), taken after n and b are checked
    n = _check_count("n", n, 2)
    b = _check_b(b, allow_one=False)
    exact = cap_fraction_exact(n, b)
    lower, upper = bounds(n, b)
    return CapCheck(name, n, b, exact, lower, upper, lower < exact < upper)


def check_thm3_bounds(n: int, b: float) -> CapCheck:
    """Strict two-sided bound check on the cap volume fraction."""
    return _check_cap_bounds("thm3", n, b, lambda n, b: (b ** (n + 1) / (4.0 * n), 0.5 * b**n))


def check_thm1_bounds(n: int, b: float) -> CapCheck:
    """Diagnostic check of the cap fraction against the n-times-wider
    bound pair; the lower bound is known to fail for some (n, b)."""
    return _check_cap_bounds("thm1", n, b, lambda n, b: (0.25 * b ** (n + 1), 0.5 * n * b**n))


def check_corollary(n: int, b1: float, b2: float) -> CapCheck:
    """Ratio bound for two radii b1 < b2."""
    n = _check_count("n", n, 2)
    b1 = _check_b(b1, allow_one=False)
    b2 = _check_b(b2, allow_one=False)
    if not b1 < b2:
        raise ValueError(f"need b1 < b2, got {b1} >= {b2}")
    ratio = cap_fraction_exact(n, b1) / cap_fraction_exact(n, b2)
    bound = (2.0 * n / b2) * (b1 / b2) ** n
    return CapCheck("corollary", n, b1, ratio, 0.0, bound, ratio < bound, b2=b2)


def sphere_area_volume_ratio(n: int) -> float:
    """A(S_{n-1}) / V(B_n) from the closed gamma forms; equals n.

    Refuses n > _LEMMA2_MAX_N.  lgamma would reach further, but its error
    passes lemma2's 1e-12 tolerance from n = 80.
    """
    n = _check_count("n", n, 2)
    if n > _LEMMA2_MAX_N:
        raise ValueError(
            f"n={n} is too large for the lemma2 gamma forms, which stay finite up to n={_LEMMA2_MAX_N}"
        )
    # A = 2 pi^(n/2) / Gamma(n/2), V = pi^(n/2) / Gamma(n/2 + 1); the
    # quotient is taken before the doubling, which would overflow at n = 341.
    return 2.0 * (math.gamma(n / 2.0 + 1.0) / math.gamma(n / 2.0))


def check_lemma2(n: int) -> CapCheck:
    """Surface-to-volume ratio against its target value n."""
    ratio = sphere_area_volume_ratio(n)
    return CapCheck(
        "lemma2", int(n), None, ratio, float(n), float(n), abs(ratio - n) <= 1e-12
    )


def sample_corollary_pairs(ns, bs, count: int, seed: int) -> list:
    """Deterministically sample distinct (n, b1 < b2) grid combinations.

    The radii are paired in ascending order, once each, whatever the
    order of bs or its repeats.
    """
    count, seed = _check_count("count", count, 0), _check_count("seed", seed, 0)
    radii = sorted(set(bs))
    r = len(radii)
    pairs = r * (r - 1) // 2
    total = len(ns) * pairs
    if not total:
        raise ValueError("grid yields no b1 < b2 pairs")
    # Combination t, in the order n, then b1, then b2, is pair t % pairs of
    # n = ns[t // pairs]; radius i's pairs start at starts[i].  So only
    # the drawn combinations are built, not all total of them.
    starts = np.cumsum([0] + list(range(r - 1, 0, -1)))
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(total, size=min(count, total), replace=False))
    k, t = np.divmod(idx, pairs)
    i = np.searchsorted(starts, t, side="right") - 1
    j = i + 1 + t - starts[i]
    return [(ns[a], radii[b], radii[c]) for a, b, c in zip(k.tolist(), i.tolist(), j.tolist())]


def run_theory_suite(
    ns,
    bs,
    mc_samples: int = 0,
    seed: int = 13,
    include_thm1: bool = False,
    corollary_count: int = 200,
) -> list:
    """All checks over a grid: lemma2 per n, thm3 per (n, b), optional
    thm1 per (n, b), and the ratio bound on sampled radius pairs, which
    a grid of one distinct radius has none of.  mc_samples 0 runs no
    Monte Carlo."""
    mc_samples = _check_count("mc_samples", mc_samples, 0)
    corollary_count = _check_count("corollary_count", corollary_count, 0)
    ns = [_check_count("n", n, 2) for n in ns]
    bs = [_check_b(b, allow_one=False) for b in bs]
    checks = [check_lemma2(n) for n in ns]
    for n in ns:
        for b in bs:
            c = check_thm3_bounds(n, b)
            if mc_samples > 0:
                c.mc_estimate, c.mc_stderr = cap_fraction_mc(n, b, mc_samples, seed)
            checks.append(c)
    if include_thm1:
        checks.extend(check_thm1_bounds(n, b) for n in ns for b in bs)
    if len(set(bs)) > 1:
        checks.extend(
            check_corollary(n, b1, b2)
            for n, b1, b2 in sample_corollary_pairs(ns, bs, corollary_count, seed)
        )
    return checks
