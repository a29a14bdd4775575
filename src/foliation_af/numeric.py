"""Exact real scalars: big rationals, real-embedded number fields, certified intervals.

Every value is immutable after construction.  A scalar is one of

* ``int`` / ``fractions.Fraction`` -- exact rationals,
* ``NumberFieldElement``           -- an element of Q[x]/(p) with a chosen real root,
* ``IntervalReal``                 -- a dyadic interval guaranteed to contain the value.

All predicates on exact scalars are decided exactly; predicates on intervals
either resolve or raise :class:`IndeterminateError`.  Precision escalation on
an Indeterminate result is the caller's job; nothing here loops unboundedly.

Field coordinates stay ``Fraction``s.  The hot kernels -- multiplication,
inversion and interval evaluation -- put them over one common denominator
and work on the integer numerators, building one ``Fraction`` per output
coordinate (or endpoint) at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

__all__ = [
    "IndeterminateError",
    "RootIsolationError",
    "IntervalReal",
    "NumberField",
    "NumberFieldElement",
    "RealScalar",
    "algebraic_root",
    "compare",
    "floor_exact",
    "is_exact",
    "parse_scalar",
    "quotients",
    "scalar_to_json",
    "sign_exact",
    "to_interval",
]

MIN_PRECISION = 8

# Hard cap on precision-doubling loops.  An exact irrational always resolves
# after finitely many doublings; hitting the cap signals a malformed input
# (e.g. an embedding interval that does not actually isolate a root).
_MAX_DOUBLINGS = 60


class IndeterminateError(ArithmeticError):
    """Interval data is too coarse to decide the requested predicate."""


class RootIsolationError(ValueError):
    """An embedding interval fails to isolate a single real root."""


# ---------------------------------------------------------------------------
# dyadic rounding helpers


def _round_down(x: Fraction, bits: int) -> Fraction:
    return Fraction((x.numerator << bits) // x.denominator, 1 << bits)


def _round_up(x: Fraction, bits: int) -> Fraction:
    return Fraction(-((-x.numerator << bits) // x.denominator), 1 << bits)


def _over_common_denominator(coords: Sequence[Fraction]):
    """(nums, den) with nums[i] / den == coords[i] and den the lcm of the denominators."""
    den = math.lcm(*(c.denominator for c in coords))
    return [c.numerator * (den // c.denominator) for c in coords], den


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


# ---------------------------------------------------------------------------
# certified interval arithmetic


class IntervalReal:
    """A closed interval [lo, hi] with dyadic endpoints, containing an exact real.

    ``precision`` is the working bit count: arithmetic results are rounded
    outward onto the grid of spacing 2**-(precision), so containment of the
    exact result is preserved by every operation.
    """

    __slots__ = ("lo", "hi", "precision")

    def __init__(self, lo: Fraction, hi: Fraction, precision: int = 128):
        lo = _as_fraction(lo)
        hi = _as_fraction(hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        if precision < 1:
            raise ValueError("precision must be positive")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "precision", precision)

    def __setattr__(self, name, value):
        raise AttributeError("IntervalReal is immutable")

    # construction -----------------------------------------------------

    @staticmethod
    def from_fraction(x: Fraction, precision: int = 128) -> "IntervalReal":
        x = _as_fraction(x)
        return IntervalReal(_round_down(x, precision), _round_up(x, precision), precision)

    # queries ------------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        x = _as_fraction(x)
        return self.lo <= x <= self.hi

    def __repr__(self):
        return f"IntervalReal({self.lo}, {self.hi}, precision={self.precision})"

    # arithmetic ---------------------------------------------------------

    def _wrap(self, lo: Fraction, hi: Fraction, precision: int) -> "IntervalReal":
        return IntervalReal(_round_down(lo, precision), _round_up(hi, precision), precision)

    def _coerce(self, other):
        if isinstance(other, IntervalReal):
            return other
        if isinstance(other, (int, Fraction)):
            x = _as_fraction(other)
            return IntervalReal(x, x, self.precision)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = min(self.precision, o.precision)
        return self._wrap(self.lo + o.lo, self.hi + o.hi, p)

    __radd__ = __add__

    def __neg__(self):
        return IntervalReal(-self.hi, -self.lo, self.precision)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = min(self.precision, o.precision)
        prods = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return self._wrap(min(prods), max(prods), p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("interval divisor straddles zero")
        p = min(self.precision, o.precision)
        quots = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return self._wrap(min(quots), max(quots), p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self


# ---------------------------------------------------------------------------
# polynomial helpers over Fraction (coefficients low degree -> high degree)


def _poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_deriv(coeffs: Sequence[Fraction]):
    return tuple(Fraction(i) * c for i, c in enumerate(coeffs))[1:] or (Fraction(0),)


def _poly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_divmod(num, den):
    num = list(num)
    den = _poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    inv_lead = 1 / den[-1]
    for i in range(len(num) - len(den), -1, -1):
        coef = num[i + len(den) - 1] * inv_lead
        q[i] = coef
        if coef:
            for j, d in enumerate(den):
                num[i + j] -= coef * d
    return tuple(q), _poly_trim(num)


def _sturm_chain(coeffs):
    chain = [_poly_trim(coeffs)]
    d = _poly_trim(_poly_deriv(coeffs))
    if d:
        chain.append(d)
        while len(chain[-1]) > 1:
            _, rem = _poly_divmod(chain[-2], chain[-1])
            if not rem:
                break
            chain.append(tuple(-c for c in rem))
    return chain


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _poly_eval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sturm_count(chain, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in (a, b]; endpoints must not be roots."""
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def _is_irreducible_over_q(coeffs: Sequence[int]) -> bool:
    # sympy's exact factorization; imported lazily to keep module import light
    from sympy import Poly, Symbol

    x = Symbol("x")
    return Poly(list(reversed(coeffs)), x, domain="QQ").is_irreducible


# ---------------------------------------------------------------------------
# number fields with a designated real embedding


class NumberField:
    """Q[x]/(min_poly) together with an isolating interval for one real root.

    ``min_poly`` is monic with integer coefficients, stored low degree first.
    Irreducibility is verified exactly up to degree 6; higher degrees are
    accepted with ``irreducibility_verified = False``.

    The isolating interval is refined lazily by sign bisection and cached.
    Refinement only ever narrows the interval, so a data race between threads
    at worst stores a different valid enclosure; all observable behaviour
    stays correct.
    """

    __slots__ = ("min_poly", "degree", "irreducibility_verified",
                 "_coeffs", "_chain", "_init_iso", "_iso", "_sign_lo", "_slope")

    def __init__(self, min_poly: Sequence[int], embedding):
        coeffs = tuple(int(c) for c in min_poly)
        if len(coeffs) < 3:
            raise ValueError("min_poly must have degree >= 2 (use a plain rational instead)")
        if coeffs[-1] != 1:
            raise ValueError("min_poly must be monic")
        object.__setattr__(self, "min_poly", coeffs)
        object.__setattr__(self, "degree", len(coeffs) - 1)
        verified = False
        if self.degree <= 6:
            if not _is_irreducible_over_q(coeffs):
                raise ValueError(f"min_poly {coeffs} is reducible over Q")
            verified = True
        object.__setattr__(self, "irreducibility_verified", verified)

        lo, hi = embedding
        lo, hi = _as_fraction(lo), _as_fraction(hi)
        if lo >= hi:
            raise RootIsolationError("embedding interval is empty")
        frac_coeffs = tuple(Fraction(c) for c in coeffs)
        object.__setattr__(self, "_coeffs", frac_coeffs)
        plo, phi = _poly_eval(frac_coeffs, lo), _poly_eval(frac_coeffs, hi)
        if plo == 0 or phi == 0:
            raise RootIsolationError("embedding endpoint is a root (min_poly reducible?)")
        if (plo > 0) == (phi > 0):
            raise RootIsolationError("min_poly has the same sign at both embedding endpoints")
        chain = _sturm_chain(frac_coeffs)
        if _sturm_count(chain, lo, hi) != 1:
            raise RootIsolationError("embedding interval does not isolate a single root")
        object.__setattr__(self, "_chain", chain)
        object.__setattr__(self, "_init_iso", (lo, hi))
        # With bound = max(|lo|, |hi|) = bn/bd, the slope sum_i i*|c_i|*bound**(i-1)
        # of an element with coordinates c_i = n_i/den is
        # sum_i weights[i-1]*|n_i| / (den * bd**(degree-2)).
        bound = max(abs(lo), abs(hi))
        bn, bd, d = bound.numerator, bound.denominator, self.degree
        weights = tuple(i * bn ** (i - 1) * bd ** (d - 1 - i) for i in range(1, d))
        object.__setattr__(self, "_slope", (weights, bd ** (d - 2)))
        object.__setattr__(self, "_iso", (lo, hi))
        object.__setattr__(self, "_sign_lo", 1 if plo > 0 else -1)

    def __setattr__(self, name, value):
        if name == "_iso":
            object.__setattr__(self, name, value)
        else:
            raise AttributeError("NumberField is immutable")

    def __repr__(self):
        lo, hi = self._init_iso
        return f"NumberField(min_poly={list(self.min_poly)}, embedding=[{lo}, {hi}])"

    # root refinement -----------------------------------------------------

    def root_interval(self, max_width: Fraction):
        """Shrink the cached isolating interval to width <= max_width."""
        lo, hi = self._iso
        if hi - lo <= max_width:
            return lo, hi
        coeffs = self._coeffs
        sign_lo = self._sign_lo
        while hi - lo > max_width:
            mid = (lo + hi) / 2
            v = _poly_eval(coeffs, mid)
            if v == 0:
                raise RootIsolationError("bisection hit an exact rational root")
            if (v > 0) == (sign_lo > 0):
                lo = mid
            else:
                hi = mid
        self._iso = (lo, hi)
        return lo, hi

    def same_root(self, other: "NumberField") -> bool:
        """Exact test: do the two fields designate the same real number?"""
        if self is other:
            return True
        if self.min_poly != other.min_poly:
            return False
        lo1, hi1 = self._iso
        lo2, hi2 = other._iso
        a, b = max(lo1, lo2), min(hi1, hi2)
        if a >= b:
            return False
        # Each interval isolates one root; they share it iff the overlap holds one.
        if _poly_eval(self._coeffs, a) == 0 or _poly_eval(self._coeffs, b) == 0:
            raise RootIsolationError("rational root encountered while comparing embeddings")
        return _sturm_count(self._chain, a, b) == 1

    def compatible(self, other: "NumberField") -> bool:
        return self is other or (self.min_poly == other.min_poly and self.same_root(other))

    # element construction --------------------------------------------------

    def element(self, coords) -> "NumberFieldElement":
        return NumberFieldElement(self, coords)

    def generator(self) -> "NumberFieldElement":
        coords = [Fraction(0)] * self.degree
        coords[1] = Fraction(1)
        return NumberFieldElement(self, coords)

    def from_rational(self, q) -> "NumberFieldElement":
        coords = [Fraction(0)] * self.degree
        coords[0] = _as_fraction(q)
        return NumberFieldElement(self, coords)


def algebraic_root(min_poly: Sequence[int], lo, hi) -> "NumberFieldElement":
    """The root of ``min_poly`` isolated by [lo, hi], as a field element."""
    return NumberField(min_poly, (lo, hi)).generator()


class NumberFieldElement:
    """An element of a :class:`NumberField` in power-basis coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords):
        coords = tuple(_as_fraction(c) for c in coords)
        if len(coords) != field.degree:
            raise ValueError(f"expected {field.degree} coordinates, got {len(coords)}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("NumberFieldElement is immutable")

    # representation -------------------------------------------------------

    def __repr__(self):
        return f"NumberFieldElement({list(self.coords)} in {self.field!r})"

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is irrational")
        return self.coords[0]

    # coercion ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, NumberFieldElement):
            if other.field is self.field or self.field.compatible(other.field):
                return other.coords
            if other.is_rational():
                other = other.coords[0]
            else:
                raise ValueError("elements live in different number fields")
        if isinstance(other, (int, Fraction)):
            coords = [Fraction(0)] * self.field.degree
            coords[0] = _as_fraction(other)
            return tuple(coords)
        return None

    # ring operations --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, NumberFieldElement):
            if not self.field.compatible(other.field):
                return False
            return self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coords[0])
        return hash((self.field.min_poly, self.coords))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return NumberFieldElement(self.field, (self.coords[0] + other,) + self.coords[1:])
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return NumberFieldElement(self.field, tuple(a + b for a, b in zip(self.coords, oc)))

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, tuple(-c for c in self.coords))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return NumberFieldElement(self.field, (self.coords[0] - other,) + self.coords[1:])
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return NumberFieldElement(self.field, tuple(a - b for a, b in zip(self.coords, oc)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            return NumberFieldElement(self.field, tuple(c * q for c in self.coords))
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        a, den_a = _over_common_denominator(self.coords)
        b, den_b = _over_common_denominator(oc)
        d = self.field.degree
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        # x**d = -(c_0 + ... + c_{d-1} x**(d-1)) for the monic integer min_poly
        tail = self.field.min_poly[:d]
        for i in range(2 * d - 2, d - 1, -1):
            t = prod[i]
            if t:
                for j, c in enumerate(tail):
                    if c:
                        prod[i - d + j] -= t * c
        den = den_a * den_b
        return NumberFieldElement(self.field, tuple(Fraction(v, den) for v in prod[:d]))

    __rmul__ = __mul__

    def inverse(self) -> "NumberFieldElement":
        if all(c == 0 for c in self.coords):
            raise ZeroDivisionError("number field element is zero")
        # With self = nums/den, the inverse is den * u where M u = e_0 and the
        # columns of M are the coordinates of nums * x**j.  Fraction-free
        # (Bareiss) elimination keeps every entry an integer; its last pivot
        # is +-det M, and Cramer's rule makes y = det * u an integer vector.
        nums, den = _over_common_denominator(self.coords)
        d = self.field.degree
        tail = self.field.min_poly[:d]
        cols = [nums]
        for _ in range(d - 1):
            col = cols[-1]
            top = col[-1]
            cols.append([-top * tail[0]] + [col[k - 1] - top * tail[k] for k in range(1, d)])
        m = [[col[i] for col in cols] + [int(i == 0)] for i in range(d)]
        prev = 1
        for k in range(d):
            p = next((i for i in range(k, d) if m[i][k]), None)
            if p is None:
                raise ZeroDivisionError(
                    "element is not invertible (min_poly must be reducible)")
            m[k], m[p] = m[p], m[k]
            row_k = m[k]
            pivot = row_k[k]
            for row in m[k + 1:]:
                f = row[k]
                for j in range(k + 1, d + 1):
                    row[j] = (row[j] * pivot - f * row_k[j]) // prev
                row[k] = 0
            prev = pivot
        y = [0] * d
        for i in range(d - 1, -1, -1):
            row = m[i]
            acc = prev * row[d] - sum(row[j] * y[j] for j in range(i + 1, d))
            y[i] = acc // row[i]
        return NumberFieldElement(self.field, [Fraction(den * v, prev) for v in y])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero")
            return self * (1 / q)
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return self * NumberFieldElement(self.field, oc).inverse()

    def __rtruediv__(self, other):
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return NumberFieldElement(self.field, oc) * self.inverse()

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            return NotImplemented
        result = self.field.from_rational(1)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    # certified evaluation ---------------------------------------------------

    def interval(self, precision: int = 128) -> IntervalReal:
        """A dyadic enclosure of width <= 2**(1 - precision)."""
        if self.is_rational():
            return IntervalReal.from_fraction(self.coords[0], precision)
        nums, den = _over_common_denominator(self.coords)
        # root width 2**-precision / slope keeps the enclosure within its width
        weights, weights_den = self.field._slope
        slope = sum(w * abs(n) for w, n in zip(weights, nums[1:]))
        lo, hi = self.field.root_interval(Fraction(den * weights_den, slope << precision))
        # Interval Horner on integers: the coordinates are nums / den and the
        # root lies in [lo_n / q, hi_n / q]; after k steps the accumulators
        # carry the positive scale den * q**k, which min/max do not disturb.
        (lo_n, hi_n), q = _over_common_denominator((lo, hi))
        acc_lo = acc_hi = nums[-1]
        scale = 1
        for c in reversed(nums[:-1]):
            scale *= q
            prods = (acc_lo * lo_n, acc_lo * hi_n, acc_hi * lo_n, acc_hi * hi_n)
            acc_lo, acc_hi = min(prods) + c * scale, max(prods) + c * scale
        # one outward rounding onto the grid 2**-(precision + 2)
        bits = precision + 2
        scale *= den
        return IntervalReal(Fraction((acc_lo << bits) // scale, 1 << bits),
                            Fraction(-((-acc_hi << bits) // scale), 1 << bits), precision)

    def sign(self) -> int:
        if self.is_rational():
            v = self.coords[0]
            return (v > 0) - (v < 0)
        prec = 32
        for _ in range(_MAX_DOUBLINGS):
            box = self.interval(prec)
            if box.lo > 0:
                return 1
            if box.hi < 0:
                return -1
            prec *= 2
        raise RootIsolationError("sign of element did not resolve; malformed embedding?")


RealScalar = Union[int, Fraction, NumberFieldElement, IntervalReal]


# ---------------------------------------------------------------------------
# generic scalar operations


def is_exact(x: RealScalar) -> bool:
    return isinstance(x, (int, Fraction, NumberFieldElement))


def sign_exact(x: RealScalar) -> int:
    """Sign of a scalar; IndeterminateError for a zero-straddling interval."""
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    if isinstance(x, NumberFieldElement):
        return x.sign()
    if isinstance(x, IntervalReal):
        if x.lo > 0:
            return 1
        if x.hi < 0:
            return -1
        if x.lo == x.hi == 0:
            return 0
        raise IndeterminateError(f"interval {x!r} straddles zero")
    raise TypeError(f"not a real scalar: {x!r}")


def floor_exact(x: RealScalar) -> int:
    """Certified floor.

    Raises IndeterminateError when an interval straddles an integer at its
    stated width; exact inputs always resolve.
    """
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return math.floor(x)
    if isinstance(x, NumberFieldElement):
        if x.is_rational():
            return math.floor(x.coords[0])
        prec = 32
        for _ in range(_MAX_DOUBLINGS):
            box = x.interval(prec)
            flo, fhi = math.floor(box.lo), math.floor(box.hi)
            if flo == fhi:
                return flo
            prec *= 2
        raise RootIsolationError("floor did not resolve; malformed embedding?")
    if isinstance(x, IntervalReal):
        flo, fhi = math.floor(x.lo), math.floor(x.hi)
        if flo == fhi:
            return flo
        raise IndeterminateError(f"interval {x!r} straddles an integer")
    raise TypeError(f"not a real scalar: {x!r}")


def quotients(values: Sequence[RealScalar], divisor: RealScalar) -> tuple:
    """(v / divisor for v in values), computed with one reciprocal when all are exact.

    Exact quotients equal products with the exact reciprocal, so a field
    divisor is inverted once for all values.  Intervals are divided one by
    one: the outward rounding of a * (1/p) differs from that of a / p.
    """
    if isinstance(divisor, int):
        divisor = Fraction(divisor)  # int / int would give a float
    if is_exact(divisor) and all(is_exact(v) for v in values):
        if isinstance(divisor, NumberFieldElement):
            inv = divisor.inverse()
        else:
            inv = 1 / divisor
        return tuple(v * inv for v in values)
    return tuple(v / divisor for v in values)


def compare(x: RealScalar, y: RealScalar) -> int:
    """Exact total order on compatible scalars: -1, 0 or +1.

    Rationals and same-field elements compare exactly; intervals compare when
    they are disjoint (IndeterminateError otherwise).
    """
    if isinstance(x, IntervalReal) or isinstance(y, IntervalReal):
        bx = x if isinstance(x, IntervalReal) else to_interval(
            x, y.precision if isinstance(y, IntervalReal) else 128)
        by = y if isinstance(y, IntervalReal) else to_interval(
            y, x.precision if isinstance(x, IntervalReal) else 128)
        if bx.hi < by.lo:
            return -1
        if by.hi < bx.lo:
            return 1
        if bx.lo == bx.hi == by.lo == by.hi:
            return 0
        raise IndeterminateError("intervals overlap; comparison is indeterminate")
    if isinstance(x, NumberFieldElement) or isinstance(y, NumberFieldElement):
        if isinstance(x, NumberFieldElement):
            diff = x - y
        else:
            diff = -(y - x)
        return diff.sign()
    return sign_exact(_as_fraction(x) - _as_fraction(y))


def to_interval(x: RealScalar, precision: int = 128) -> IntervalReal:
    """Certified enclosure of x of width <= 2**(1-precision) * max(1, |x|)."""
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION}")
    if isinstance(x, (int, Fraction)):
        return IntervalReal.from_fraction(_as_fraction(x), precision)
    if isinstance(x, NumberFieldElement):
        return x.interval(precision)
    if isinstance(x, IntervalReal):
        if 0 >= x.lo and 0 <= x.hi:
            magnitude = Fraction(0)
        else:
            magnitude = min(abs(x.lo), abs(x.hi))
        allowed = Fraction(2, 1 << precision) * max(Fraction(1), magnitude)
        if x.width <= allowed:
            return IntervalReal(x.lo, x.hi, precision)
        raise IndeterminateError(
            "interval is wider than the requested precision allows; "
            "recompute the value at higher precision")
    raise TypeError(f"not a real scalar: {x!r}")


# ---------------------------------------------------------------------------
# text / JSON syntax: rationals as "p/q", field elements as an object


def parse_scalar(obj) -> RealScalar:
    """Parse the scalar syntax used by the CLI and the JSON interfaces.

    Rationals are strings like ``"7/3"`` or ``"-2"``; number-field elements
    are objects ``{"min_poly": [c0, ..., 1], "coords": ["p/q", ...],
    "embedding": ["lo", "hi"]}``.
    """
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return Fraction(obj.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse scalar {obj!r}") from exc
    if isinstance(obj, dict):
        if "lo" in obj and "hi" in obj:
            try:
                return IntervalReal(Fraction(str(obj["lo"])), Fraction(str(obj["hi"])),
                                    int(obj.get("precision", 128)))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"malformed interval object {obj!r}") from exc
        try:
            min_poly = [int(c) for c in obj["min_poly"]]
            coords = [Fraction(str(c)) for c in obj["coords"]]
            lo, hi = (Fraction(str(v)) for v in obj["embedding"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"malformed scalar object {obj!r}") from exc
        field = NumberField(min_poly, (lo, hi))
        return field.element(coords)
    raise ValueError(f"cannot parse scalar {obj!r}")


def scalar_to_json(x: RealScalar):
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, NumberFieldElement):
        lo, hi = x.field._init_iso
        return {
            "min_poly": list(x.field.min_poly),
            "coords": [str(c) for c in x.coords],
            "embedding": [str(lo), str(hi)],
        }
    if isinstance(x, IntervalReal):
        return {"lo": str(x.lo), "hi": str(x.hi), "precision": x.precision}
    raise TypeError(f"not a real scalar: {x!r}")
