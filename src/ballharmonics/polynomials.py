"""Sparse multivariate polynomials with exact coefficients.

A polynomial in n variables maps monomial keys to coefficients.  A key
lists the monomial's (axis, exponent) pairs in ascending axis order, zero
exponents left out, so a term costs its degree, not n, to walk, bump or hash;
dense exponent n-tuples are only the public view, taken by the constructor
and returned by :meth:`MultiPoly.terms`.  Coefficients are ``Fraction`` so
that differentiation and Laplacians are exact.  Floats enter a poly only as
given: float coefficients passed to the constructor, decimals in
``parse_poly`` text, and float scalars in ring operations, which make the
result's coefficients floats.  Instances are immutable, hashable and safe
to share across threads.

Canonical form: zero coefficients are never stored, every other one is kept
however small beside the rest, and float coefficients are finite.  Terms
iterate in graded lexicographic order of their dense tuples, largest first;
evaluation and printing follow that order deterministically.  The
constructor validates its input once; ring operations and calculus on valid
operands canonicalise their results but do not re-validate them.

Exact algebra that runs many steps on one poly works on its Laplacian
series (:func:`_laplacian_series`): the integer numerators of each
homogeneous part over the poly's least common denominator, followed by their
Laplacians up to the last nonzero one.  A Fraction is formed only for a
result coefficient.  A coordinate function (:meth:`MultiPoly.variable`) is
born with its series, which has no Laplacian to walk; any other poly
computes its series on first use.  Either way the series is kept with the
poly, so :meth:`MultiPoly.is_harmonic`, :func:`harmonic_projection` and the
energy profile of ``energetics`` walk each poly's Laplacian once between
them; it is the one place a Laplacian is computed.  The energy profile is
kept the same way, on the :class:`VectorPoly` it was built for (its
``_profile`` slot), so a body's later energies read neither its hash nor its
series.  Two threads racing on a first use compute equal values, so keeping
either is safe.  Floats enter the series at their exact binary values: the
float harmonicity test compares those exact integers, and
:func:`harmonic_projection` of a poly with a float coefficient returns the
exact projection of those values with each coefficient rounded to float
once.

The textual format is ``coeff * x1^a1 * x2^a2`` terms joined by `` + `` and
`` - ``, rationals written ``p/q``.  ``parse_poly`` round-trips
``format_poly`` bit-exactly for exact-coefficient polys.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence, Union


Coeff = Union[Fraction, float]
Exponents = tuple  # tuple[int, ...], one entry per variable: the public view
Key = tuple  # tuple[tuple[int, int], ...]: (axis, exponent > 0) pairs, ascending axes

_ONE = Fraction(1)
_exponent = itemgetter(1)


class DimensionError(ValueError):
    """Raised when operands disagree on the ambient dimension."""


def _degree(key: Key) -> int:
    return sum(map(_exponent, key))


def _grlex_key(term: tuple[Key, Coeff]) -> tuple:
    # degree, then the pairs as -axis, exponent, ...: where two keys of one degree first
    # differ, a lower axis or a higher exponent there makes the larger dense tuple
    degree, flat = 0, []
    for a, e in term[0]:
        degree += e
        flat += (-a, e)
    return degree, flat


def _key_of(exps: Iterable[int], dimension: int) -> Key:
    """The key of a dense exponent tuple, checked: n non-negative ints."""
    exps = tuple(exps)
    if len(exps) != dimension:
        raise DimensionError(f"exponent tuple {exps} has length {len(exps)}, expected {dimension}")
    if any((not isinstance(e, int)) or e < 0 for e in exps):
        raise ValueError(f"exponents must be non-negative integers, got {exps}")
    return tuple([(a, e) for a, e in enumerate(exps) if e])


def _dense(key: Key, dimension: int) -> Exponents:
    exps = dict(key)
    return tuple([exps.get(a, 0) for a in range(dimension)])


def _lowered(key: Key, i: int, by: int) -> Key:
    """The key with its i-th pair's exponent lowered by ``by``; a zero exponent drops the pair."""
    a, e = key[i]
    return key[:i] + ((a, e - by),) + key[i + 1 :] if e > by else key[:i] + key[i + 1 :]


def _as_float(c: Coeff) -> float:
    """float(c), or an infinity of c's sign where c is out of the float range."""
    try:
        return float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf


class MultiPoly:
    """Immutable sparse polynomial in ``dimension`` variables."""

    __slots__ = ("_dimension", "_terms", "_hash", "_series")

    def __new__(
        cls,
        dimension: int,
        terms: Mapping[Exponents, Coeff] | Iterable[tuple[Exponents, Coeff]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        return cls._of_keys(dimension, ((_key_of(exps, dimension), c) for exps, c in items))

    @classmethod
    def _of_keys(cls, dimension: int, items: Iterable[tuple[Key, Coeff]]) -> "MultiPoly":
        """The poly of (key, coefficient) items whose keys are valid: checks the rest, merges."""
        if not isinstance(dimension, int) or dimension < 1:
            raise DimensionError(f"dimension must be a positive integer, got {dimension!r}")
        merged: dict[Key, Coeff] = {}
        for key, coeff in items:
            if isinstance(coeff, float):
                c: Coeff = coeff
            elif isinstance(coeff, (int, Fraction)):
                c = Fraction(coeff)
            else:
                raise TypeError(f"unsupported coefficient type {type(coeff).__name__}")
            merged[key] = merged[key] + c if key in merged else c
        return cls._canonical(dimension, merged)

    @classmethod
    def _canonical(cls, dimension: int, merged: dict[Key, Coeff]) -> "MultiPoly":
        """The poly of already-merged terms whose keys and coefficients are valid.

        For results of ring operations on valid operands of one dimension: it
        skips the per-term checks of the constructor, and only drops exact
        zeros, rejects non-finite floats and sorts grlex.
        """
        acc = {e: c for e, c in merged.items() if c}
        for key, c in acc.items():
            if isinstance(c, float) and not math.isfinite(c):
                raise ValueError(f"coefficient of {_dense(key, dimension)} is not finite: {c}")
        if len(acc) > 1:
            acc = dict(sorted(acc.items(), key=_grlex_key, reverse=True))
        poly = object.__new__(cls)
        poly._store(dimension, acc)
        return poly

    def _store(self, dimension: int, terms: dict[Key, Coeff], series=None) -> None:
        """Fill the slots; a coordinate function is born with its ``series``, others compute it."""
        object.__setattr__(self, "_dimension", dimension)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_series", series)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        # __new__ needs the dimension and the slots refuse setattr, so pickling and
        # copying rebuild through the checked constructor; the kept series is rebuilt on use
        return MultiPoly._of_keys, (self._dimension, list(self._terms.items()))

    # -- basic views ------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self._dimension

    def terms(self) -> tuple[tuple[Exponents, Coeff], ...]:
        """(dense exponent tuple, coefficient) pairs, graded lexicographic order, largest first."""
        return tuple((_dense(k, self._dimension), c) for k, c in self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_exact(self) -> bool:
        """True when every coefficient is a Fraction."""
        return all(isinstance(c, Fraction) for c in self._terms.values())

    @staticmethod
    def constant(dimension: int, value) -> "MultiPoly":
        v = value if isinstance(value, float) else Fraction(value)
        return MultiPoly._of_keys(dimension, [((), v)])

    @staticmethod
    def variable(dimension: int, axis: int) -> "MultiPoly":
        """The coordinate function x_{axis+1}."""
        if not 0 <= axis < dimension:
            raise DimensionError(f"axis {axis} out of range for dimension {dimension}")
        # one exact nonzero term is canonical as it stands, and its Laplacian series is
        # the numerator 1 over den 1 at degree 1, which has no Laplacian to walk
        key = ((axis, 1),)
        poly = object.__new__(MultiPoly)
        poly._store(dimension, {key: _ONE}, (1, {1: [{key: 1}]}))
        return poly

    # -- equality ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        # dict equality compares coefficients numerically, so an exact poly
        # equals its float twin only when values coincide exactly
        return self._dimension == other._dimension and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            h = hash((self._dimension, frozenset(self._terms.items())))
            object.__setattr__(self, "_hash", h)
        return self._hash

    # -- arithmetic -------------------------------------------------------

    def _check_same_dimension(self, other: "MultiPoly") -> None:
        if self._dimension != other._dimension:
            raise DimensionError(f"mixed dimensions {self._dimension} and {other._dimension}")

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, (int, float, Fraction)):
            other = MultiPoly.constant(self._dimension, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_dimension(other)
        merged = dict(self._terms)
        for key, c in other._terms.items():
            merged[key] = merged.get(key, 0) + c
        return MultiPoly._canonical(self._dimension, merged)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._canonical(self._dimension, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, (int, float, Fraction)):
            other = MultiPoly.constant(self._dimension, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, float, Fraction)):
            scalar = other if isinstance(other, float) else Fraction(other)
            return MultiPoly._canonical(
                self._dimension, {e: c * scalar for e, c in self._terms.items()}
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_dimension(other)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Key, Coeff] = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                exps = dict(ka)
                for axis, e in kb:
                    exps[axis] = exps.get(axis, 0) + e
                key = tuple(sorted(exps.items()))
                out[key] = out.get(key, 0) + ca * cb
        return MultiPoly._canonical(self._dimension, out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "MultiPoly":
        if isinstance(scalar, float):
            return self * (1.0 / scalar)
        return self * (Fraction(1) / Fraction(scalar))

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial powers must be non-negative ints, got {exponent!r}")
        result = MultiPoly.constant(self._dimension, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- calculus ---------------------------------------------------------

    def partial_derivative(self, axis: int) -> "MultiPoly":
        if not 0 <= axis < self._dimension:
            raise DimensionError(f"axis {axis} out of range for dimension {self._dimension}")
        out: dict[Key, Coeff] = {}
        for key, c in self._terms.items():
            for i, (a, e) in enumerate(key):
                if a == axis:
                    lowered = _lowered(key, i, 1)
                    out[lowered] = out.get(lowered, 0) + c * e
                    break
        return MultiPoly._canonical(self._dimension, out)

    def is_harmonic(self) -> bool:
        """True iff the Laplacian vanishes, read from the kept :func:`_laplacian_series`.

        Exact-coefficient polys are checked exactly: every part of the series
        stops at the part itself.  Float polys hold every first-Laplacian
        numerator of each homogeneous part to 1e-12 times the part's largest
        absolute numerator.  The numerators are the floats' exact binary
        values, so no size of coefficient overflows the test.
        """
        for laps in _laplacian_series(self)[1].values():
            if len(laps) == 1:  # the part is harmonic
                continue
            if self.is_exact:  # read only here: an exact harmonic poly never scans its types
                return False
            if max(map(abs, laps[1].values())) * 10**12 > max(map(abs, laps[0].values())):
                return False
        return True

    # -- evaluation -------------------------------------------------------

    def evaluate(self, point: Sequence) -> Fraction | float:
        """Value at ``point``.

        Exact (Fraction) when both the coefficients and the point entries are
        exact; float otherwise.  Float accumulation uses ``math.fsum`` over
        terms in graded lexicographic order, so results are deterministic.  A
        float term, power or sum that overflows is refused with ValueError, as
        a coefficient beyond the float range is; so is a non-finite point.
        """
        if len(point) != self._dimension:
            raise DimensionError(f"point has {len(point)} coordinates, expected {self._dimension}")
        exact = all(isinstance(x, (int, Fraction)) for x in point) and self.is_exact
        if exact:
            coords, terms = [Fraction(x) for x in point], self._terms.items()
        else:
            coords, terms = [float(x) for x in point], self._float_terms()
            if not all(map(math.isfinite, coords)):
                raise ValueError(f"point {tuple(coords)} is not finite")
        parts = []
        try:
            for key, term in terms:
                for a, e in key:
                    term *= coords[a] ** e
                parts.append(term)
            if exact:
                return sum(parts, Fraction(0))
            # a float product past the range is inf, where a power or fsum raises
            if all(map(math.isfinite, parts)):
                return math.fsum(parts)
        except OverflowError:  # only floats overflow
            pass
        raise ValueError(f"value at the point {tuple(coords)} overflows the float range")

    def __call__(self, point: Sequence) -> Fraction | float:
        return self.evaluate(point)

    def _float_terms(self) -> list[tuple[Key, float]]:
        """(key, float coefficient) per term; one beyond the float range is refused, not inf."""
        out = []
        for key, c in self._terms.items():
            try:
                out.append((key, float(c)))
            except OverflowError:
                raise ValueError(
                    f"coefficient of {_dense(key, self._dimension)} is beyond the float range"
                ) from None
        return out

    # -- printing ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"MultiPoly({self._dimension}, {format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def _laplacian_terms(terms: Mapping[Key, Coeff]) -> dict[Key, Coeff]:
    """The Laplacian of key -> coefficient terms, merged but not canonical (zeros kept)."""
    out: dict[Key, Coeff] = {}
    for key, c in terms.items():
        for i, (_, e) in enumerate(key):
            if e > 1:
                lowered = _lowered(key, i, 2)
                out[lowered] = out.get(lowered, 0) + c * (e * (e - 1))
    return out


def _laplacian_series(p: MultiPoly) -> tuple[int, dict[int, list[dict[Key, int]]]]:
    """(den, {d: [u_d, Delta u_d, ..., the last nonzero one]}) with p = sum_d u_d / den.

    The u_d are p's homogeneous parts as integer numerators over the least
    common denominator den of p's coefficients; floats enter at their exact
    binary values.  Parts of degree <= 1 are [u_d] with no walk.  Kept in p's
    ``_series`` slot: a coordinate function is born with it
    (:meth:`MultiPoly.variable`), any other poly computes it here on first
    use.  Readers must not mutate it.
    """
    if p._series is None:
        ratios = [c.as_integer_ratio() for c in p._terms.values()]
        den = math.lcm(*[q for _, q in ratios])
        series: dict[int, list[dict[Key, int]]] = {}
        for key, (a, q) in zip(p._terms, ratios):
            if q != den:
                a *= den // q
            d = _degree(key)
            if d in series:
                series[d][0][key] = a
            else:
                series[d] = [{key: a}]
        for d, laps in series.items():
            while d > 1 and (lap := {e: c for e, c in _laplacian_terms(laps[-1]).items() if c}):
                laps.append(lap)
        object.__setattr__(p, "_series", (den, series))
    return p._series


def _square_bumps(key: Key, twos: Sequence[Key]) -> Iterator[Key]:
    """The keys of x_b^2 x^key for b = 0..n-1, where twos[b] is ((b, 2),): |x|^2 times x^key."""
    start = 0
    for i, (a, e) in enumerate(key):
        head, tail = key[:i], key[i:]
        for two in twos[start:a]:
            yield head + two + tail
        yield head + ((a, e + 2),) + key[i + 1 :]
        start = a + 1
    for two in twos[start:]:
        yield key + two


def harmonic_projection(p: MultiPoly) -> MultiPoly:
    """The harmonic component h_0 of p in its Almansi decomposition.

    For p homogeneous of degree m (Axler, Bourdon and Ramey, Harmonic
    Function Theory, ch. 5),

        h_0 = sum_j (-1)^j |x|^(2j) Delta^j p / (2^j j! prod_{i=1..j} (n + 2m - 2 - 2i));

    general inputs are split into homogeneous parts first, and
    already-harmonic inputs are returned unchanged, exactly.  The sum runs
    on p's kept :func:`_laplacian_series`: float coefficients enter at their
    exact binary values, and where p has a float coefficient each output
    coefficient is the exact projection rounded to float once (a float
    overflow raises ValueError).
    """
    n = p.dimension
    den, series = _laplacian_series(p)
    if all(len(laps) == 1 for laps in series.values()):
        return p
    twos = [((axis, 2),) for axis in range(n)]
    out: dict = {}
    for m, laps in series.items():
        # Horner in |x|^2 on h = H / S: with q_j = 2j (n + 2m - 2 - 2j), the
        # step h <- Delta^(j-1) p - |x|^2 h / q_j is H <- Delta^(j-1) p S q_j
        # - |x|^2 H and S <- S q_j, so H stays an integer poly
        h, scale = laps[-1], 1
        for j in range(len(laps) - 1, 0, -1):
            scale *= 2 * j * (n + 2 * m - 2 - 2 * j)
            nxt = {key: c * scale for key, c in laps[j - 1].items()}
            for key, c in h.items():
                for bumped in _square_bumps(key, twos):
                    nxt[bumped] = nxt.get(bumped, 0) - c
            h = nxt
        for key, c in h.items():
            if c:
                out[key] = Fraction(c, den * scale)
    if not p.is_exact:
        out = {key: _as_float(c) for key, c in out.items()}
    return MultiPoly._canonical(n, out)


class VectorPoly:
    """Immutable tuple of MultiPoly components sharing one ambient dimension."""

    __slots__ = ("_components", "_profile")

    def __init__(self, components: Iterable[MultiPoly]):
        comps = tuple(components)
        if not comps:
            raise ValueError("VectorPoly needs at least one component")
        dims = {p._dimension for p in comps}
        if len(dims) != 1:
            raise DimensionError(f"components disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "_components", comps)
        # the energy profile of ``energetics``, filled on first use like MultiPoly._series
        object.__setattr__(self, "_profile", None)

    def __setattr__(self, name, value):
        raise AttributeError("VectorPoly is immutable")

    def __reduce__(self):
        return VectorPoly, (self._components,)

    @property
    def dimension(self) -> int:
        return self._components[0].dimension

    def __iter__(self):
        return iter(self._components)

    def __len__(self) -> int:
        return len(self._components)

    def __getitem__(self, i: int) -> MultiPoly:
        return self._components[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorPoly):
            return NotImplemented
        return self._components == other._components

    def __hash__(self) -> int:
        return hash(self._components)

    def __add__(self, other: "VectorPoly") -> "VectorPoly":
        if not isinstance(other, VectorPoly):
            return NotImplemented
        if len(self) != len(other):
            raise DimensionError(f"mixed arities {len(self)} and {len(other)}")
        return VectorPoly(p + q for p, q in zip(self, other))

    def __repr__(self) -> str:
        return f"VectorPoly([{', '.join(str(p) for p in self._components)}])"


def as_vector(u: "VectorPoly | MultiPoly") -> VectorPoly:
    """Wrap a scalar poly as a one-component vector; pass vectors through."""
    if isinstance(u, VectorPoly):
        return u
    if isinstance(u, MultiPoly):
        return VectorPoly([u])
    raise TypeError(f"expected MultiPoly or VectorPoly, got {type(u).__name__}")


def gradient(p: MultiPoly) -> tuple[MultiPoly, ...]:
    return tuple(p.partial_derivative(axis) for axis in range(p.dimension))


def radial_pairing(u: VectorPoly | MultiPoly) -> tuple[MultiPoly, ...]:
    """Per component, the Euler pairing <x, grad u^i>.

    Euler's identity <x, grad x^alpha> = |alpha| x^alpha makes it each term
    times its degree.
    """
    vec = as_vector(u)
    return tuple(
        MultiPoly._canonical(vec.dimension, {k: c * _degree(k) for k, c in comp._terms.items()})
        for comp in vec
    )


# -- textual format ---------------------------------------------------------

_TOKEN = re.compile(
    r"\s*("
    r"[+\-*^]"
    r"|x\d+"
    r"|\d+/\d+"
    r"|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r")"
)


def format_poly(p: MultiPoly) -> str:
    """Canonical text form; see the module docstring for the grammar."""
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for key, c in p._terms.items():
        negative = c < 0
        mag = -c if negative else c
        mono = " * ".join(f"x{a + 1}^{e}" if e > 1 else f"x{a + 1}" for a, e in key)
        if isinstance(mag, Fraction):
            coeff_str = "" if (mag == 1 and mono) else str(mag)
        else:
            coeff_str = repr(mag)  # floats always print, even 1.0
        if coeff_str and mono:
            body = f"{coeff_str} * {mono}"
        else:
            body = coeff_str or mono
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)


def parse_poly(text: str, dimension: int | None = None) -> MultiPoly:
    """Parse the textual format back into a MultiPoly.

    ``dimension`` fixes the ambient dimension (variable indices beyond it are
    an error); when omitted, the largest variable index present is used
    (minimum 1).  Rational coefficients parse to Fraction, decimal or
    exponent-notation ones to float.
    """
    tokens: list[str] = []
    pos = 0
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty polynomial text")
    while pos < len(stripped):
        m = _TOKEN.match(stripped, pos)
        if not m:
            raise ValueError(f"unexpected character at {stripped[pos:pos + 10]!r}")
        tokens.append(m.group(1))
        pos = m.end()

    terms: list[tuple[dict[int, int], Coeff]] = []
    max_index = 0
    i = 0

    def parse_number(tok: str) -> Coeff:
        if "/" in tok:
            try:
                return Fraction(tok)
            except ZeroDivisionError as exc:
                raise ValueError(f"zero denominator in coefficient {tok!r}") from exc
        if "." in tok or "e" in tok or "E" in tok:
            return float(tok)
        return Fraction(int(tok))

    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise ValueError("dangling sign at end of polynomial text")
        coeff: Coeff = Fraction(1)
        exps: dict[int, int] = {}
        expect_factor = True
        while i < len(tokens):
            tok = tokens[i]
            if tok in "+-" and not expect_factor:
                break
            if tok == "*":
                if expect_factor:
                    raise ValueError("misplaced '*' in polynomial text")
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                raise ValueError(f"missing operator before {tok!r}")
            if tok in "+-":
                raise ValueError(f"sign {tok!r} where a factor is expected")
            if tok.startswith("x"):
                index = int(tok[1:])
                if index < 1:
                    raise ValueError(f"variable indices start at 1, got {tok!r}")
                power = 1
                if i + 1 < len(tokens) and tokens[i + 1] == "^":
                    if i + 2 >= len(tokens):
                        raise ValueError("dangling '^' in polynomial text")
                    ptok = tokens[i + 2]
                    if not ptok.isdigit():
                        raise ValueError(f"exponent must be a plain integer, got {ptok!r}")
                    power = int(ptok)
                    i += 2
                exps[index - 1] = exps.get(index - 1, 0) + power
                max_index = max(max_index, index)
            elif tok == "^":
                raise ValueError("'^' must follow a variable")
            else:
                coeff = coeff * parse_number(tok)
            expect_factor = False
            i += 1
        if expect_factor:
            raise ValueError("term ended while expecting a factor")
        terms.append((exps, sign * coeff))

    n = dimension if dimension is not None else max(max_index, 1)
    if max_index > n:
        raise DimensionError(f"text references x{max_index} but dimension is {n}")
    return MultiPoly._of_keys(
        n, ((tuple(sorted((a, e) for a, e in exps.items() if e)), c) for exps, c in terms)
    )


def format_vector(u: VectorPoly) -> str:
    """One component per line."""
    return "\n".join(format_poly(p) for p in u)


def parse_vector(text: str, dimension: int | None = None) -> VectorPoly:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty vector text")
    if dimension is None:
        # two passes so every component shares the widest inferred dimension
        probe = [parse_poly(ln) for ln in lines]
        dimension = max(p.dimension for p in probe)
    return VectorPoly([parse_poly(ln, dimension) for ln in lines])
