"""Harmonic map construction: zonal polynomials, projection, random draws."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballharmonics import harmonics, polynomials
from ballharmonics.harmonics import (
    HarmonicMap,
    _zonal_lead,
    harmonic_projection,
    harmonic_space_dimension,
    harmonic_sum,
    identity_map,
    make_harmonic_map,
    random_harmonic_polynomial,
    zonal_solid_harmonic,
)
from ballharmonics.identities import pohozaev_residual
from ballharmonics.polynomials import MultiPoly, VectorPoly

from oracles import (
    almansi_decomposition,
    homogeneous_components,
    is_homogeneous,
    lowered,
    radius_sq,
    total_degree,
)


def P(n, terms):
    return MultiPoly(n, terms)


class TestIdentity:
    def test_components(self):
        u = identity_map(3)
        assert u.dimension == 3 and u.body.arity == 3
        assert u.degree == 1 and u.certified
        assert u.body[1] == MultiPoly.variable(3, 1)

    def test_scale(self):
        u = harmonic_sum([identity_map(2)], [Fraction(1, 2)])
        assert u.body[0] == P(2, {(1, 0): Fraction(1, 2)})
        assert u.certified


class TestZonal:
    def test_degree_two_in_three_dims(self):
        # classic quadratic: x1^2 - (x2^2 + x3^2) / 2
        u = zonal_solid_harmonic(3, 2)
        assert u.body[0] == P(
            3, {(2, 0, 0): 1, (0, 2, 0): Fraction(-1, 2), (0, 0, 2): Fraction(-1, 2)}
        )

    def test_planar_chebyshev(self):
        # in the plane the zonal family is the Chebyshev one: deg 2 gives x1^2 - x2^2
        u = zonal_solid_harmonic(2, 2)
        assert u.body[0] == P(2, {(2, 0): 1, (0, 2): -1})
        u3 = zonal_solid_harmonic(2, 3)
        assert u3.body[0] == P(2, {(3, 0): 1, (1, 2): -3})

    @pytest.mark.parametrize("n,k", [(2, 5), (3, 4), (4, 3), (7, 2), (10, 5), (5, 0)])
    def test_always_harmonic_and_homogeneous(self, n, k):
        u = zonal_solid_harmonic(n, k)
        assert u.certified
        assert u.degree == k
        assert is_homogeneous(u.body[0])

    def test_rotated_axis_exact(self):
        # (3/5, 4/5) is exactly unit, so the rotated zonal stays exact
        u = zonal_solid_harmonic(2, 2, axis=(Fraction(3, 5), Fraction(4, 5)))
        assert u.certified
        assert u.body[0].is_exact

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            zonal_solid_harmonic(2, 2, axis=(1, 1))

    def test_line_only_carries_low_degrees(self):
        assert zonal_solid_harmonic(1, 1).degree == 1
        with pytest.raises(ValueError):
            zonal_solid_harmonic(1, 2)


def _zonal_recurrence(n, k, axis):
    """The degree-k zonal harmonic about ``axis`` by its three-term recurrence.

    Homogenised on t = <x, axis> and s = |x|^2: Gegenbauer for n >= 3, with
    lambda = n/2 - 1,

        R_0 = 1,  R_1 = 2 lambda t,
        j R_j = 2 (j - 1 + lambda) t R_(j-1) - (j - 2 + 2 lambda) s R_(j-2),

    and for n = 2 (lambda = 0) the Chebyshev form R_1 = t,
    R_j = 2 t R_(j-1) - s R_(j-2).
    """
    t = P(n, {tuple(int(j == i) for j in range(n)): a for i, a in enumerate(axis) if a})
    s = P(n, {tuple(2 * int(j == i) for j in range(n)): 1 for i in range(n)})
    lam = Fraction(n, 2) - 1
    prev, cur = MultiPoly.constant(n, 1), t * (2 * lam if lam else 1)
    if k == 0:
        return prev
    for j in range(2, k + 1):
        if lam:
            nxt = (t * cur * (2 * (j - 1 + lam)) - s * prev * (j - 2 + 2 * lam)) * Fraction(1, j)
        else:
            nxt = t * cur * 2 - s * prev
        prev, cur = cur, nxt
    return cur


@pytest.mark.parametrize("n", range(2, 13))
def test_zonal_matches_recurrence_oracle(n):
    # the harmonic projection of lead(n, k) t^k against the recurrence, term for term
    axes = [(1,), (Fraction(3, 5), Fraction(4, 5)), (Fraction(2, 3), Fraction(1, 3), Fraction(2, 3))]
    for axis in axes:
        if len(axis) > n:
            continue
        axis = axis + (0,) * (n - len(axis))
        for k in range(10):
            expected = _zonal_recurrence(n, k, axis)
            assert zonal_solid_harmonic(n, k, axis).body[0].terms() == expected.terms()


def test_random_map_builds_past_the_recursion_limit():
    # the degree-k monomials were generated one recursion level per variable,
    # so n = 1200 raised RecursionError
    u = random_harmonic_polynomial(1200, 1, 0)
    assert u.certified and u.degree == 1 and u.dimension == 1200
    assert len(u.body[0].terms()) > 1000


@pytest.mark.parametrize("n, k", [(1, 0), (1, 3), (2, 4), (4, 3), (6, 2), (3, 0)])
def test_degree_monomials_descend_lexicographically(n, k):
    # the seeded coefficients are drawn in this order, so it fixes every random map
    monomials = [polynomials._dense(key, n) for key in harmonics._degree_monomials(n, k)]
    everything = itertools.product(range(k + 1), repeat=n)
    assert monomials == sorted((e for e in everything if sum(e) == k), reverse=True)


def test_random_map_arguments_are_checked_once():
    # harmonic_space_dimension is the one check of (n, k), and its errors reach the caller
    for n, k, message in [(0, 1, "dimension"), (2, -1, "degree"), (2.0, 1, "dimension")]:
        with pytest.raises(ValueError, match=message):
            random_harmonic_polynomial(n, k, 0)


def test_zonal_and_random_maps_go_through_harmonic_projection(monkeypatch):
    calls = []
    original = harmonics.harmonic_projection

    def spy(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(harmonics, "harmonic_projection", spy)
    zonal_solid_harmonic(3, 4)
    assert calls == [MultiPoly.variable(3, 0) ** 4 * _zonal_lead(3, 4)]
    random_harmonic_polynomial(3, 2, 0)
    assert len(calls) >= 2 and all(total_degree(p) == 2 for p in calls[1:])


def test_float_map_builds_no_laplacian_series(monkeypatch):
    # floats are certified on their own route; the exact series would be built for nothing
    body = lowered(random_harmonic_polynomial(8, 4, 5).body[0])
    calls = []
    original = polynomials._laplacian_series

    def spy(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(polynomials, "_laplacian_series", spy)
    u = make_harmonic_map(body)
    assert calls == [] and body._series is None
    assert u.certified and u.degree == 4
    assert make_harmonic_map(body + MultiPoly.constant(8, 1.0)).degree is None


class TestAlmansi:
    def test_reconstruction(self):
        # p = sum_j |x|^(2j) h_j with each h_j harmonic
        p = P(3, {(4, 0, 0): 1, (2, 2, 0): -2, (0, 0, 4): 3})
        parts = almansi_decomposition(p)
        rsq = P(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
        rebuilt = MultiPoly(3)
        for j, h in enumerate(parts):
            assert h.is_harmonic()
            rebuilt = rebuilt + rsq**j * h
        assert rebuilt == p

    def test_radius_sq_projects_to_zero(self):
        rsq = P(2, {(2, 0): 1, (0, 2): 1})
        assert harmonic_projection(rsq).is_zero

    def test_projection_fixes_harmonics(self):
        h = zonal_solid_harmonic(3, 3).body[0]
        assert harmonic_projection(h) == h

    def test_projection_is_idempotent(self):
        p = P(2, {(4, 0): 1, (0, 2): 5, (1, 1): -3, (0, 0): 2})
        once = harmonic_projection(p)
        assert once.is_harmonic()
        assert harmonic_projection(once) == once

    def test_projection_handles_mixed_degrees(self):
        p = P(2, {(2, 0): 1, (0, 2): 1, (1, 0): 7})
        proj = harmonic_projection(p)
        # the radial quadratic dies, the linear part survives
        assert proj == P(2, {(1, 0): 7})


def _random_terms(rng, n, m, count):
    """Up to ``count`` distinct degree-m monomials in n variables, rational coefficients."""
    monomials = []
    for axes in itertools.combinations_with_replacement(range(n), m):
        hits = Counter(axes)
        monomials.append(tuple(hits[i] for i in range(n)))
    chosen = rng.sample(monomials, min(count, len(monomials)))
    return {e: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6)) for e in chosen}


@pytest.mark.parametrize("n", range(1, 11))
def test_projection_matches_almansi_oracle(n):
    # the closed form against the recursive Almansi split, degree by degree
    rng = random.Random(n)
    for m in range(7):
        homogeneous = MultiPoly(n, _random_terms(rng, n, m, 60))
        assert harmonic_projection(homogeneous) == almansi_decomposition(homogeneous)[0]
        mixed = MultiPoly(n)
        for d in range(m + 1):
            mixed = mixed + MultiPoly(n, _random_terms(rng, n, d, 60 // (m + 1)))
        expected = MultiPoly(n)
        for comp in homogeneous_components(mixed).values():
            expected = expected + almansi_decomposition(comp)[0]
        projected = harmonic_projection(mixed)
        assert projected == expected
        assert projected.is_harmonic()


@st.composite
def polys_up_to_degree_six(draw, coeffs):
    """A poly in n = 1..6 variables with up to 8 terms of degree <= 6, degrees mixed."""
    n = draw(st.integers(1, 6))
    # a multiset of at most 6 axes is one exponent tuple of degree <= 6
    exponents = st.lists(st.integers(0, n - 1), max_size=6).map(
        lambda axes: tuple(axes.count(i) for i in range(n))
    )
    return MultiPoly(n, draw(st.dictionaries(exponents, coeffs, max_size=8)))


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)


@given(polys_up_to_degree_six(rationals))
@settings(max_examples=60, deadline=None)
def test_property_projection_kernel_matches_almansi_oracle(p):
    # the integer Horner kernel against the recursive Fraction split, part by part
    expected = MultiPoly(p.dimension)
    for part in homogeneous_components(p).values():
        expected = expected + almansi_decomposition(part)[0]
    projected = harmonic_projection(p)
    assert projected.terms() == expected.terms()
    # the exact harmonicity test on integer numerators against the Fraction Laplacian
    for q in (p, projected, *homogeneous_components(p).values()):
        assert q.is_harmonic() == q.laplacian().is_zero
    assert projected.is_harmonic()


floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(polys_up_to_degree_six(floats.filter(bool)))
@settings(max_examples=60, deadline=None)
def test_property_float_projection_rounds_the_exact_projection_once(p):
    exact = MultiPoly(p.dimension, {e: Fraction(c) for e, c in p.terms()})
    expected = MultiPoly(
        p.dimension, {e: float(c) for e, c in harmonic_projection(exact).terms()}
    )
    projected = harmonic_projection(p)
    assert [(e, type(c), c) for e, c in projected.terms()] == [
        (e, type(c), c) for e, c in expected.terms()
    ]


def test_float_projection_that_overflows_is_rejected():
    # the exact projection has an x1^2 x2^2 coefficient of -1.5 * 1.7e308
    p = P(2, {(4, 0): 1.7e308, (2, 2): -1.7e308})
    with pytest.raises(ValueError, match="not finite"):
        harmonic_projection(p)


def test_certification_reads_the_maps_own_coefficients(monkeypatch):
    # a projection that returns a non-harmonic poly must not yield a certified map:
    # r^2 p is harmonic for no nonzero p
    monkeypatch.setattr(harmonics, "harmonic_projection", lambda p: p * radius_sq(p.dimension))
    for u in (random_harmonic_polynomial(3, 2, 0), zonal_solid_harmonic(3, 2)):
        assert not u.certified
        with pytest.raises(ValueError, match="certified"):
            pohozaev_residual(u, 1)


@pytest.mark.parametrize(
    "n,k,expected",
    [
        (1, 0, 1),
        (1, 1, 1),
        (1, 2, 0),
        (2, 5, 2),
        (3, 0, 1),
        (3, 1, 3),
        (3, 2, 5),
        (3, 3, 7),
        (4, 2, 9),
        (10, 4, 715 - 55),  # C(13,4) - C(11,2)
    ],
)
def test_harmonic_space_dimension(n, k, expected):
    assert harmonic_space_dimension(n, k) == expected


class TestRandomDraws:
    def test_deterministic_per_seed(self):
        a = random_harmonic_polynomial(3, 3, 11)
        b = random_harmonic_polynomial(3, 3, 11)
        assert a.body == b.body

    def test_seeds_differ(self):
        a = random_harmonic_polynomial(3, 3, 11)
        b = random_harmonic_polynomial(3, 3, 12)
        assert a.body != b.body

    @pytest.mark.parametrize("seed", range(8))
    def test_always_certified_homogeneous(self, seed):
        u = random_harmonic_polynomial(4, 3, seed)
        assert u.certified
        assert is_homogeneous(u.body[0])
        assert total_degree(u.body[0]) == 3
        assert not u.body[0].is_zero

    def test_refuses_empty_space(self):
        with pytest.raises(ValueError):
            random_harmonic_polynomial(1, 2, 0)


class TestMakeMap:
    def test_certifies_harmonic_bodies(self):
        u = make_harmonic_map(VectorPoly([P(2, {(1, 0): 1}), P(2, {(2, 0): 1, (0, 2): -1})]))
        assert u.certified
        assert u.degree is None  # mixed degrees 1 and 2

    def test_flags_non_harmonic(self):
        u = make_harmonic_map(P(2, {(2, 0): 1, (0, 2): 1}))
        assert not u.certified

    def test_harmonic_sum(self):
        z1 = zonal_solid_harmonic(3, 1)
        z3 = zonal_solid_harmonic(3, 3)
        u = harmonic_sum([z1, z3], [Fraction(2), Fraction(-1)])
        assert u.certified
        assert u.body[0] == z1.body[0] * 2 - z3.body[0]
