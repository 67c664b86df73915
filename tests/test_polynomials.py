"""Sparse polynomial arithmetic, calculus, parsing and evaluation."""

import copy
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballharmonics.harmonics import identity_map, make_harmonic_map
from ballharmonics.polynomials import (
    DimensionError,
    MultiPoly,
    VectorPoly,
    _dense,
    _grlex_key,
    _key_of,
    _laplacian_series,
    format_poly,
    format_vector,
    gradient,
    harmonic_projection,
    parse_poly,
    parse_vector,
    radial_pairing,
)

from oracles import euler_pairing, grad_norm_sq, homogeneous_components, laplacian, square


def P(n, terms):
    return MultiPoly(n, terms)


def series_laplacian(p):
    """Delta p as the kept series holds it: each part's first Laplacian over den."""
    den, series = _laplacian_series(p)
    firsts = [laps[1] for laps in series.values() if len(laps) > 1]
    return MultiPoly._of_keys(
        p.dimension, ((key, Fraction(c, den)) for lap in firsts for key, c in lap.items())
    )


class TestConstruction:
    def test_zero_pruning(self):
        p = P(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert p.terms() == (((0, 1), Fraction(2)),)

    def test_int_coefficients_become_fractions(self):
        p = P(1, {(2,): 3})
        ((_, c),) = p.terms()
        assert isinstance(c, Fraction) and c == 3

    def test_grlex_order(self):
        p = P(2, {(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 0): 1})
        assert [e for e, _ in p.terms()] == [(2, 0), (0, 2), (1, 0), (0, 0)]

    def test_wrong_arity_rejected(self):
        with pytest.raises(DimensionError):
            P(2, {(1, 0, 0): 1})

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_rejected(self, bad):
        # an infinite or NaN coefficient has no place in a poly: every
        # integral, Laplacian and value of it would be non-finite too
        with pytest.raises(ValueError, match="not finite"):
            P(2, {(2, 0): bad, (0, 2): 1.0})
        with pytest.raises(ValueError, match="not finite"):
            parse_poly("1e400*x1^2", dimension=2)

    @pytest.mark.parametrize(
        "exps,error",
        [
            ((1, 0, 0), DimensionError),
            ((1,), DimensionError),
            ((1, -1), ValueError),
            ((1.0, 0), ValueError),
            (("1", 0), ValueError),
        ],
    )
    def test_exponents_validated(self, exps, error):
        with pytest.raises(error):
            P(2, [(exps, 1)])

    def test_overflowing_ring_operations_rejected(self):
        # results of ring operations skip validation, not the finiteness check
        p = P(2, {(1, 0): 1e308})
        with pytest.raises(ValueError, match="not finite"):
            p * 10.0
        with pytest.raises(ValueError, match="not finite"):
            p + p + p
        with pytest.raises(ValueError, match="not finite"):
            p * p

    def test_hashable_and_equal(self):
        a = P(2, {(1, 1): Fraction(1, 2)})
        b = P(2, {(1, 1): Fraction(1, 2)})
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


class TestArithmetic:
    def test_known_product(self):
        # (x1 + x2)^2 = x1^2 + 2 x1 x2 + x2^2
        s = P(2, {(1, 0): 1, (0, 1): 1})
        sq = s * s
        assert sq == P(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert sq == square(s)

    def test_pow(self):
        x = MultiPoly.variable(2, 0)
        assert x**5 == P(2, {(5, 0): 1})
        assert x**0 == MultiPoly.constant(2, 1)

    def test_scalar_ops(self):
        p = P(1, {(1,): Fraction(1, 3)})
        assert (p * 6).terms() == (((1,), Fraction(2)),)
        assert (p / Fraction(1, 3)).terms() == (((1,), Fraction(1)),)

    def test_cancellation(self):
        p = P(2, {(1, 0): 1, (0, 1): 2})
        assert (p - p).is_zero

    def test_mixed_dimension_rejected(self):
        with pytest.raises(DimensionError):
            P(1, {(1,): 1}) + P(2, {(1, 0): 1})


class TestCalculus:
    def test_partial_derivative(self):
        p = P(2, {(3, 1): Fraction(2)})
        assert p.partial_derivative(0) == P(2, {(2, 1): Fraction(6)})
        assert p.partial_derivative(1) == P(2, {(3, 0): Fraction(2)})

    def test_laplacian_of_harmonic_cubic(self):
        # x1^3 - 3 x1 x2^2 has laplacian 6 x1 - 6 x1 = 0
        p = P(2, {(3, 0): 1, (1, 2): -3})
        assert laplacian(p).is_zero and series_laplacian(p).is_zero
        assert p.is_harmonic()

    def test_laplacian_of_radius_sq(self):
        for n in (1, 3, 8):
            rsq = P(n, {tuple(2 * int(j == i) for j in range(n)): 1 for i in range(n)})
            assert series_laplacian(rsq) == laplacian(rsq) == MultiPoly.constant(n, 2 * n)
            assert not rsq.is_harmonic()

    def test_euler_degree(self):
        # for homogeneous p of degree k, <x, grad p> = k p
        p = P(3, {(2, 1, 0): 5, (0, 0, 3): -2})
        (pairing,) = radial_pairing(p)
        assert pairing == p * 3

    def test_grad_norm_sq_identity_map(self):
        n = 7
        ident = VectorPoly(MultiPoly.variable(n, i) for i in range(n))
        assert grad_norm_sq(ident) == MultiPoly.constant(n, n)

    @pytest.mark.parametrize("text", ["1e-13*x1^2", "1.0*x1 + 1e-13*x1^2*x2", "1e308*x1^2"])
    def test_float_harmonicity_is_relative_to_each_part(self, text):
        # an absolute 1e-12 on the Laplacian certified the first two, and the first
        # map's Pohozaev residual then read 2.0 on a certified map
        p = parse_poly(text, 3)
        assert not p.is_harmonic()
        assert not make_harmonic_map(p).certified
        # the float twin of an exact harmonic keeps its certificate at any scale
        assert parse_poly("1e-13*x1^2 - 1e-13*x2^2", 3).is_harmonic()

    @pytest.mark.parametrize("text", ["1e308*x1^2 - 1e308*x2^2", "1.5e308*x1^2*x2 - 0.5e308*x2^3"])
    def test_float_harmonic_whose_float_laplacian_overflows_is_certified(self, text):
        # a Laplacian formed in floats read nan here; the series holds it exactly
        p = parse_poly(text, 3)
        assert p.is_harmonic()
        assert make_harmonic_map(p).certified

    def test_gradient_length(self):
        p = P(3, {(1, 1, 0): 1})
        g = gradient(p)
        assert len(g) == 3
        assert g[2].is_zero


class TestEvaluation:
    def test_coefficient_beyond_the_float_range_refused(self):
        # it raised OverflowError, which the command line reports as a failed check
        p = P(2, {(2, 0): 10**400, (0, 1): 1})
        assert p.evaluate((2, 3)) == 4 * 10**400 + 3
        with pytest.raises(ValueError, match=r"coefficient of \(2, 0\) is beyond the float range"):
            p.evaluate((0.5, 0.25))

    @pytest.mark.parametrize(
        "text,point",
        [
            ("1.7e308*x1 + 1.7e308*x2", (0.53125, 0.53125)),
            ("x1^2", (1e200,)),
            ("1e300*x1^2", (1e10,)),
            ("1e300*x1^2 - 1e300*x2^2", (1e10, 1e10)),
        ],
        ids=["sum", "power", "product", "inf-minus-inf"],
    )
    def test_value_beyond_the_float_range_refused(self, text, point):
        # finite terms summing past the float range, or a power past it,
        # raised a bare OverflowError; a product past it is inf, which was
        # returned, or summed with -inf into fsum's own ValueError
        p = parse_poly(text, len(point))
        message = f"value at the point {point} overflows the float range"
        with pytest.raises(ValueError, match=re.escape(message)):
            p.evaluate(point)

    def test_exact_path(self):
        p = P(2, {(2, 0): Fraction(1), (0, 1): Fraction(-1, 2)})
        val = p.evaluate((Fraction(1, 3), Fraction(2)))
        assert val == Fraction(1, 9) - 1
        assert isinstance(val, Fraction)

    def test_float_path(self):
        p = P(2, {(2, 0): 1.0, (0, 1): -0.5})
        assert p.evaluate((0.5, 0.25)) == pytest.approx(0.25 - 0.125)

    def test_point_arity_checked(self):
        with pytest.raises(DimensionError):
            P(2, {(1, 0): 1}).evaluate((1.0,))


class TestTextFormat:
    @pytest.mark.parametrize(
        "text,terms",
        [
            ("x1^2 - 1/2 * x2^2", {(2, 0): Fraction(1), (0, 2): Fraction(-1, 2)}),
            ("3 * x1 * x2", {(1, 1): Fraction(3)}),
            ("-x1 + 2", {(1,): Fraction(-1), (0,): Fraction(2)}),
            ("x2^3", {(0, 3): Fraction(1)}),
        ],
    )
    def test_parse_known(self, text, terms):
        n = max(len(e) for e in terms)
        assert parse_poly(text, n) == P(n, terms)

    def test_parse_infers_dimension(self):
        assert parse_poly("x3^2").dimension == 3

    def test_float_literals_stay_float(self):
        p = parse_poly("0.5 * x1", 1)
        ((_, c),) = p.terms()
        assert isinstance(c, float)

    def test_roundtrip_exact(self):
        p = P(3, {(2, 0, 1): Fraction(-7, 3), (0, 1, 0): Fraction(5)})
        assert parse_poly(format_poly(p), 3) == p

    def test_vector_roundtrip(self):
        v = VectorPoly([P(2, {(1, 0): 1}), P(2, {(0, 2): Fraction(1, 4)})])
        assert parse_vector(format_vector(v), 2) == v

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_poly("x1 * * x2", 2)
        with pytest.raises(ValueError):
            parse_poly("x1 +", 2)
        with pytest.raises(ValueError):
            parse_poly("y1", 1)
        with pytest.raises(ValueError):
            parse_poly("x3", 2)  # index beyond the stated dimension

    def test_sign_where_a_factor_is_expected(self):
        # the sign reached int() as a coefficient and raised Python's own message
        with pytest.raises(ValueError, match="sign '-' where a factor is expected"):
            parse_poly("3 * -x1", 1)


# -- property tests ---------------------------------------------------------

DIM = 3

coeffs = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
exponents = st.tuples(*(st.integers(0, 4) for _ in range(DIM)))
polys = st.dictionaries(exponents, coeffs, max_size=6).map(lambda d: MultiPoly(DIM, d))
rational_points = st.tuples(
    *(
        st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=8)
        for _ in range(DIM)
    )
)


@given(polys)
def test_property_laplacian_series_holds_each_part_and_its_laplacians(p):
    den, series = _laplacian_series(p)
    # kept with the poly: a second use reads the same object
    assert _laplacian_series(p) is _laplacian_series(p)
    assert sorted(series) == sorted(homogeneous_components(p))
    for d, part in homogeneous_components(p).items():
        lap = part * den
        for laps in series[d]:
            # integer numerators on the poly's own monomial keys
            assert laps == lap._terms
            lap = laplacian(lap)
        # the series stops at the last nonzero Laplacian
        assert lap.is_zero
    assert p.is_harmonic() == laplacian(p).is_zero


@given(polys, polys)
def test_property_add_then_subtract_is_identity(p, q):
    assert (p + q) - q == p


@given(polys, polys)
def test_property_product_commutes(p, q):
    assert p * q == q * p


@given(polys, polys)
def test_property_laplacian_is_linear(p, q):
    assert series_laplacian(p + q) == laplacian(p) + laplacian(q)


@given(polys, polys, rational_points)
@settings(max_examples=60)
def test_property_evaluation_is_a_ring_hom(p, q, point):
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


@given(polys)
def test_property_format_parse_roundtrip(p):
    assert parse_poly(format_poly(p), DIM) == p


@given(polys, rational_points)
@settings(max_examples=40)
def test_property_euler_identity_on_homogeneous_parts(p, point):
    # sum_k k * p_k(x) = <x, grad p>(x), and <x, grad p> = sum_k x_k d_k p by definition
    (pairing,) = radial_pairing(p)
    expected = sum(
        (k * part.evaluate(point) for k, part in homogeneous_components(p).items()),
        start=Fraction(0),
    )
    assert pairing.evaluate(point) == expected
    assert pairing == euler_pairing(p)


@given(polys)
@settings(max_examples=40)
def test_property_grad_norm_sq_matches_gradient(p):
    explicit = MultiPoly(DIM)
    for g in gradient(p):
        explicit = explicit + g * g
    assert grad_norm_sq(p) == explicit


float_coeffs = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
mixed_polys = st.dictionaries(
    exponents, st.one_of(coeffs, float_coeffs), max_size=6
).map(lambda d: MultiPoly(DIM, d))
scalars = st.one_of(coeffs, float_coeffs)


def _assert_canonical(r):
    # every stored key lists only nonzero exponents, in ascending axis order
    for key in r._terms:
        assert all(e > 0 for _, e in key), key
        assert [a for a, _ in key] == sorted({a for a, _ in key}), key
        assert all(0 <= a < r.dimension for a, _ in key), key
    # what ring operations return without re-validation equals what the
    # validating constructor makes of the same terms, in the same order
    rebuilt = MultiPoly(r.dimension, r.terms())
    assert [(e, type(c), c) for e, c in rebuilt.terms()] == [
        (e, type(c), c) for e, c in r.terms()
    ]
    assert rebuilt == r and hash(rebuilt) == hash(r)


@given(st.lists(st.tuples(*(st.integers(0, 3) for _ in range(6))), max_size=30))
def test_property_sparse_grlex_key_orders_like_dense_tuples(vectors):
    # keys hold (axis, exponent) pairs; sorting them must reproduce the dense grlex order
    dense = sorted(set(vectors), key=lambda e: (sum(e), e), reverse=True)
    terms = [(_key_of(e, 6), None) for e in set(vectors)]
    by_key = [_dense(k, 6) for k, _ in sorted(terms, key=_grlex_key, reverse=True)]
    assert by_key == dense


@pytest.mark.parametrize("n", [1, 2, 7, 200])
def test_coordinate_functions_are_born_with_the_series_of_their_twins(n):
    # the series MultiPoly.variable stores is the one the constructor's twin computes
    for axis in range(n):
        twin = MultiPoly(n, {tuple(int(a == axis) for a in range(n)): 1})
        assert twin._series is None
        assert MultiPoly.variable(n, axis)._series == _laplacian_series(twin)


@pytest.mark.parametrize(
    "copy_of", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["deepcopy", "pickle"]
)
def test_copies_keep_equality_hash_and_coefficient_types(copy_of):
    # __new__ needs the dimension, so both once raised TypeError
    p = parse_poly("1/3*x1^2 + 0.5*x2 - 7", 2)
    q = copy_of(p)
    assert q == p and hash(q) == hash(p) and q is not p
    assert [type(c) for _, c in q.terms()] == [Fraction, float, Fraction]
    u = identity_map(2)
    body = copy_of(u.body)
    assert body == u.body and hash(body) == hash(u.body)
    assert make_harmonic_map(body).certified
    assert copy_of(u).body == u.body


@pytest.mark.parametrize("n", [2, 300])
def test_identity_map_stores_one_pair_per_key(n):
    for axis, comp in enumerate(identity_map(n).body):
        assert comp._terms == {((axis, 1),): 1}


@given(mixed_polys, mixed_polys, scalars)
@settings(max_examples=60)
def test_property_ring_operations_are_canonical(p, q, c):
    results = [p + q, p - q, -p, p * q, p * c, c * p, p * p, laplacian(p)]
    results += [p.partial_derivative(axis) for axis in range(DIM)]
    results.append(harmonic_projection(p))
    results += radial_pairing(p)
    results += [MultiPoly.variable(DIM, axis) for axis in range(DIM)]
    for r in results:
        _assert_canonical(r)
