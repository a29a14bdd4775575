"""Regular continued fractions: Euclid, matrix form, convergents, tail equivalence.

Finite expansions are kept canonical (a trailing digit 1 is folded into its
predecessor), which makes the digits of a rational unique and lets tails be
compared literally.  Expansions of quadratic irrationals detect their period
by exact repetition of remainders, so tail comparisons between them are
decided symbolically and verdicts are proofs, not horizon evidence.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Optional, Tuple

from . import _intmat
from .numeric import (
    IntervalReal,
    NumberFieldElement,
    RealScalar,
    floor_exact,
    is_exact,
    sign_exact,
)

__all__ = [
    "CFExpansion",
    "InsufficientDepthError",
    "Mat2Z",
    "PoleError",
    "TailEquivalenceReport",
    "cf_convergents",
    "cf_expand",
    "cf_matrix_product",
    "cf_tail_equivalent",
    "euclid_cf",
    "mobius_apply",
]


class InsufficientDepthError(ValueError):
    """Too few digits are available for the requested tail comparison."""


class PoleError(ZeroDivisionError):
    """A Moebius transform was evaluated at its pole."""


def _canonical(digits) -> Tuple[int, ...]:
    """Fold a trailing 1 so finite expansions of length >= 2 end with >= 2."""
    digits = list(digits)
    if len(digits) >= 2 and digits[-1] == 1:
        digits.pop()
        digits[-1] += 1
    return tuple(digits)


@dataclass(frozen=True)
class CFExpansion:
    """Digits b1, b2, ... with b1 any integer and b_k >= 1 afterwards.

    ``finite`` marks a terminated (rational) expansion.  ``period`` is
    ``(start, length)`` when an exact repetition of remainders was found, in
    which case ``digit(i)`` is defined for every i >= 0.
    """

    digits: Tuple[int, ...]
    finite: bool
    period: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        for d in self.digits[1:]:
            if d < 1:
                raise ValueError("continued fraction digits after the first must be >= 1")
        if self.finite and len(self.digits) >= 2 and self.digits[-1] < 2:
            raise ValueError("finite expansions must end with a digit >= 2")
        if self.finite and self.period is not None:
            raise ValueError("a finite expansion cannot be periodic")

    @property
    def depth(self) -> int:
        return len(self.digits)

    def digit(self, i: int) -> Optional[int]:
        """Digit at index i, following the period if one is known; None if unavailable."""
        if i < len(self.digits):
            return self.digits[i]
        if self.period is not None:
            start, length = self.period
            return self.digits[start + (i - start) % length]
        return None

    def to_json_dict(self) -> dict:
        out = {"digits": list(self.digits), "finite": self.finite}
        if self.period is not None:
            out["period"] = [self.period[0], self.period[1]]
        return out


@dataclass(frozen=True)
class Mat2Z:
    """A 2x2 integer matrix (a b; c d)."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "Mat2Z") -> "Mat2Z":
        return Mat2Z(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @staticmethod
    def identity() -> "Mat2Z":
        return Mat2Z(1, 0, 0, 1)

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))


def _euclid(a1: int, a2: int) -> Tuple[CFExpansion, int]:
    """Canonical digits of a1/a2 (a2 >= 1) by Euclid's algorithm, and the last remainder."""
    digits = []
    while a2:
        q, r = divmod(a1, a2)
        digits.append(q)
        a1, a2 = a2, r
    return CFExpansion(_canonical(digits), finite=True), a1


def euclid_cf(a1: int, a2: int) -> Tuple[CFExpansion, int]:
    """Continued fraction of a1/a2 via the Euclidean algorithm, plus gcd(a1, a2).

    Requires a1 >= a2 >= 1.  The digit list reproduces a1/a2 exactly and the
    remainder chain ends at the gcd.
    """
    if not (a1 >= a2 >= 1):
        raise ValueError("euclid_cf requires a1 >= a2 >= 1")
    return _euclid(a1, a2)


def _expand_field_element(x: NumberFieldElement, depth: int) -> CFExpansion:
    digits = []
    remainders = {}
    period = None
    current = x
    while len(digits) < depth:
        key = current.coords
        if key in remainders:
            start = remainders[key]
            period = (start, len(digits) - start)
            break
        remainders[key] = len(digits)
        b = floor_exact(current)
        digits.append(b)
        frac = current - b
        if frac == 0:
            return CFExpansion(_canonical(digits), finite=True)
        current = 1 / frac
    if period is not None:
        start, length = period
        while len(digits) < depth:
            digits.append(digits[start + (len(digits) - start) % length])
    return CFExpansion(tuple(digits), finite=False, period=period)


def _expand_interval(x: IntervalReal, depth: int) -> CFExpansion:
    digits = []
    current = x
    while len(digits) < depth:
        b = floor_exact(current)  # may raise IndeterminateError
        digits.append(b)
        frac = current - b
        if frac.lo == frac.hi == 0:
            return CFExpansion(_canonical(digits), finite=True)
        digits_done = frac.lo <= 0  # could be exactly an integer; cannot certify more digits
        if digits_done:
            break
        current = 1 / frac
    return CFExpansion(tuple(digits), finite=False)


def cf_expand(x: RealScalar, depth: int = 50) -> CFExpansion:
    """Continued fraction digits of x.

    Rational input terminates (and is expanded fully regardless of depth);
    exact irrational input yields ``depth`` digits, with the period recorded
    when a remainder repeats (always the case for quadratic irrationals).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if isinstance(x, NumberFieldElement) and x.is_rational():
        x = x.as_fraction()
    if isinstance(x, (int, Fraction)):  # floor, subtract, invert on p/q is Euclid on (p, q)
        return _euclid(x.numerator, x.denominator)[0]
    if isinstance(x, NumberFieldElement):
        return _expand_field_element(x, depth)
    if isinstance(x, IntervalReal):
        return _expand_interval(x, depth)
    raise TypeError(f"not a real scalar: {x!r}")


def _digit_products(e: CFExpansion, k: int):
    """Running products (0 1; 1 b_j) . ... . (0 1; 1 b_1) for j = 0..k.

    Each digit matrix is symmetric, so the j-th product is the transpose of
    (0 1; 1 b_1) . ... . (0 1; 1 b_j), whose second column is (q_j, p_j).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > len(e.digits):
        raise ValueError(f"only {len(e.digits)} digits available, requested {k}")
    return _intmat.running_products((((0, 1), (1, b)) for b in e.digits[:k]),
                                    _intmat.identity(2))


def cf_matrix_product(e: CFExpansion, k: int) -> Tuple[Mat2Z, Optional[Fraction]]:
    """Product of the first k digit matrices (0 1; 1 b_i) and its convergent.

    The product maps (0, 1)^T to (q_k, p_k); the convergent is p_k / q_k.
    For k = 0 the product is the identity and there is no convergent.
    """
    (r,) = deque(_digit_products(e, k), maxlen=1)
    m = Mat2Z(r[0][0], r[1][0], r[0][1], r[1][1])
    return m, (Fraction(m.d, m.b) if k else None)


def cf_convergents(e: CFExpansion, k: int) -> Tuple[Fraction, ...]:
    """The convergents p_1/q_1, ..., p_k/q_k, from one running product."""
    return tuple(Fraction(r[1][1], r[1][0]) for r in islice(_digit_products(e, k), 1, None))


def mobius_apply(m: Mat2Z, x: RealScalar) -> RealScalar:
    """(a*x + b) / (c*x + d) for a unimodular m, in the representation of x."""
    if abs(m.det()) != 1:
        raise ValueError("Moebius matrix must have determinant +-1")
    if isinstance(x, int):
        x = Fraction(x)
    den = m.c * x + m.d
    if is_exact(den) and sign_exact(den) == 0:
        raise PoleError(f"c*x + d = 0 for matrix {m}")
    return (m.a * x + m.b) / den


# ---------------------------------------------------------------------------
# tail equivalence


@dataclass(frozen=True)
class TailEquivalenceReport:
    equivalent: bool
    proven: bool
    offsets: Optional[Tuple[int, int]]
    depth: int
    max_offset: int

    def to_json_dict(self) -> dict:
        return {
            "equivalent": self.equivalent,
            "proven": self.proven,
            "offsets": list(self.offsets) if self.offsets else None,
            "depth": self.depth,
        }


def _available(e: CFExpansion) -> Optional[int]:
    """Number of digits defined for e; None means unbounded (periodic)."""
    return None if e.period is not None else len(e.digits)


def _tails_equal(x: CFExpansion, i: int, y: CFExpansion, j: int,
                 depth: int) -> Tuple[bool, bool]:
    """Compare the digit streams x[i:], y[j:]; returns (equal, proven).

    When both streams are eventually periodic the comparison window covers
    both preperiods plus one least common multiple of the periods, which
    decides equality of the infinite tails.  Otherwise digits are compared up
    to the horizon and a positive answer is evidence only.
    """
    if x.period is not None and y.period is not None:
        pre = max(x.period[0] - i, y.period[0] - j, 0)
        window = pre + math.lcm(x.period[1], y.period[1])
        for k in range(window):
            if x.digit(i + k) != y.digit(j + k):
                return False, True
        return True, True
    if x.finite and y.finite:
        return x.digits[i:] == y.digits[j:], True
    if x.finite != y.finite:
        fin, fo, inf, io = (x, i, y, j) if x.finite else (y, j, x, i)
        rem = len(fin.digits) - fo
        if inf.digit(io + rem) is not None:
            # the non-terminating stream continues past the finite one's end
            return False, True
        for k in range(rem):
            b = inf.digit(io + k)
            if b is None:
                return True, False
            if fin.digit(fo + k) != b:
                return False, True
        return True, False
    for k in range(depth):
        a, b = x.digit(i + k), y.digit(j + k)
        if a is None or b is None:
            break
        if a != b:
            return False, False
    return True, False


def cf_tail_equivalent(x: RealScalar, y: RealScalar, depth: int = 200,
                       max_offset: int = 40) -> TailEquivalenceReport:
    """Decide whether the expansions of x and y share a common tail.

    Searches offsets (i, j) with i, j <= max_offset, smallest i+j first, for
    x.digits[i:] == y.digits[j:].  For eventually periodic expansions a
    verdict (either way) is a proof; otherwise a match at horizon ``depth``
    is reported as evidence with ``proven = False``.  Two rationals are always
    equivalent: their empty tails agree, past the offset bound if need be.
    """
    ex = x if isinstance(x, CFExpansion) else cf_expand(x, depth)
    ey = y if isinstance(y, CFExpansion) else cf_expand(y, depth)
    rationals = ex.finite and ey.finite
    if not rationals:
        for e, name in ((ex, "x"), (ey, "y")):
            avail = _available(e)
            if avail is not None and avail < max_offset + 3:
                raise InsufficientDepthError(
                    f"{name} provides {avail} digits; need at least {max_offset + 3}")

    for total in range(2 * max_offset + 1):
        for i in range(max(0, total - max_offset), min(total, max_offset) + 1):
            j = total - i
            equal, proven = _tails_equal(ex, i, ey, j, depth)
            if equal:
                return TailEquivalenceReport(True, proven, (i, j), depth, max_offset)

    # no match: the "not equivalent" verdict is a proof only when both
    # streams are periodic and the offset search exhausted every distinct tail
    if ex.period is not None and ey.period is not None:
        complete = (max_offset >= ex.period[0] + ex.period[1] - 1
                    and max_offset >= ey.period[0] + ey.period[1] - 1)
        return TailEquivalenceReport(False, complete, None, depth, max_offset)
    if rationals:
        # any two rationals are GL2(Z)-equivalent: their empty tails always agree
        return TailEquivalenceReport(True, True, (len(ex.digits), len(ey.digits)),
                                     depth, max_offset)
    return TailEquivalenceReport(False, False, None, depth, max_offset)
