"""The dimension-n Jacobi-Perron expansion, its convergents and diagnostics.

A step on the vector (theta_1, ..., theta_{n-1}) extracts the digit
b_i = floor(theta_i) and maps the remainders to

    theta' = ((theta_2 - b_2)/(theta_1 - b_1), ...,
              (theta_{n-1} - b_{n-1})/(theta_1 - b_1), 1/(theta_1 - b_1)),

the exact inverse of one digit matrix.  Two departures from the naive floor
rule make finite (rational) expansions reconstruct their input exactly:

* the expansion terminates only when *every* component is an integer, in
  which case that integer vector is the final digit;
* at a non-terminal state, any component that is an exact positive integer m
  uses the digit m - 1 instead of m (the continued-fraction rewriting
  [..., a] = [..., a - 1, 1] lifted to dimension n).  This keeps every
  remainder strictly positive, so the division by theta_1 - b_1 never hits
  zero and the walk provably reaches an all-integer state on rational input.

Digits produced this way can violate Perron admissibility
(0 <= b_i <= b_{n-1}, b_{n-1} >= 1) on the amended steps; expansions record
whether an amendment occurred and whether the digit string is admissible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import _intmat
from .numeric import (
    IndeterminateError,
    IntervalReal,
    NumberFieldElement,
    RealScalar,
    floor_exact,
    is_exact,
    quotients,
    to_interval,
)

__all__ = [
    "DegenerateVectorError",
    "ESDivergenceReport",
    "JPConvergentState",
    "JPExpansion",
    "JPLimitReport",
    "PerronReport",
    "effros_shen_divergent",
    "effros_shen_expansion",
    "jp_convergents",
    "jp_digit_matrix",
    "jp_expand",
    "jp_limit_check",
    "jp_step",
    "perron_condition",
]


class DegenerateVectorError(ValueError):
    """The vector has an exact zero component that blocks the expansion."""


def _is_exact_integer_value(x: RealScalar, f: int) -> bool:
    """Does x equal its floor f exactly?  Intervals count only when degenerate."""
    if isinstance(x, int):
        return True
    if isinstance(x, Fraction):
        return x.denominator == 1
    if isinstance(x, NumberFieldElement):
        return x.is_rational() and x.coords[0] == f
    if isinstance(x, IntervalReal):
        return x.lo == x.hi == f
    raise TypeError(f"not a real scalar: {x!r}")


def _jp_step_full(theta: Sequence[RealScalar]):
    theta = tuple(theta)
    if len(theta) < 1:
        raise ValueError("theta must have at least one component (n >= 2)")
    floors = [floor_exact(t) for t in theta]
    if any(f < 0 for f in floors):
        raise ValueError("Jacobi-Perron digits must be non-negative; "
                         f"got floors {floors}")
    integral = [_is_exact_integer_value(t, f) for t, f in zip(theta, floors)]
    if all(integral):
        return tuple(floors), None, True, False
    digit = []
    amended = False
    for t, f, isint in zip(theta, floors, integral):
        if isint:
            if f == 0:
                raise DegenerateVectorError(
                    "exact zero component in a non-integral vector")
            digit.append(f - 1)
            amended = True
        else:
            digit.append(f)
    pivot = theta[0] - digit[0]
    rests = [t - b for t, b in zip(theta[1:], digit[1:])]
    nxt = quotients(rests + [Fraction(1)], pivot)
    return tuple(digit), nxt, False, amended


def jp_step(theta: Sequence[RealScalar]):
    """One expansion step: returns (digit, next_theta or None, terminated).

    Raises DegenerateVectorError when a component is exactly 0 while the
    vector is not entirely integral (such states cannot continue without a
    zero division).  Floor failures on coarse intervals propagate.
    """
    digit, nxt, terminated, _ = _jp_step_full(theta)
    return digit, nxt, terminated


@dataclass(frozen=True)
class JPExpansion:
    """A digit sequence b^(1), b^(2), ... of a dimension-n expansion."""

    n: int
    digits: Tuple[Tuple[int, ...], ...]
    terminated: bool
    period: Optional[Tuple[int, int]] = None
    source: Optional[tuple] = None
    amended: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension n must be >= 2")
        for d in self.digits:
            if len(d) != self.n - 1:
                raise ValueError(f"digit {d} does not have length n-1 = {self.n - 1}")
            if any(b < 0 for b in d):
                raise ValueError(f"digit {d} has a negative entry")

    @property
    def depth(self) -> int:
        return len(self.digits)

    @property
    def admissible(self) -> bool:
        """0 <= b_i <= b_{n-1} with b_{n-1} >= 1 from the second digit on."""
        for k, d in enumerate(self.digits):
            last = d[-1]
            if k > 0 and last < 1:
                return False
            if any(b > last for b in d[:-1]):
                return False
        return True

    def digit(self, i: int) -> Optional[Tuple[int, ...]]:
        if i < len(self.digits):
            return self.digits[i]
        if self.period is not None:
            start, length = self.period
            return self.digits[start + (i - start) % length]
        return None

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "digits": [list(d) for d in self.digits],
            "terminated": self.terminated,
        }
        if self.period is not None:
            out["period"] = list(self.period)
        return out

    @staticmethod
    def from_json_dict(obj: dict) -> "JPExpansion":
        digits = tuple(tuple(int(b) for b in d) for d in obj["digits"])
        n = int(obj.get("n", (len(digits[0]) + 1) if digits else 2))
        period = tuple(obj["period"]) if obj.get("period") else None
        return JPExpansion(n=n, digits=digits,
                           terminated=bool(obj.get("terminated", False)),
                           period=period)


def _state_key(theta) -> Optional[tuple]:
    key = []
    for t in theta:
        if isinstance(t, int):
            key.append(("q", t, 1))
        elif isinstance(t, Fraction):
            key.append(("q", t.numerator, t.denominator))
        elif isinstance(t, NumberFieldElement):
            key.append(("a", t.field.min_poly, t.coords))
        else:
            return None
    return tuple(key)


def jp_expand(theta: Sequence[RealScalar], depth: int = 50) -> JPExpansion:
    """Expand theta to at most ``depth`` digits.

    All-rational input terminates; exact periodic input (detected by an exact
    repeat of the remainder vector) stops early and fills the remaining
    digits by cycling.
    """
    theta = tuple(theta)
    if len(theta) < 1:
        raise ValueError("theta must have at least one component")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = len(theta) + 1
    digits = []
    seen = {}
    period = None
    amended = False
    terminated = False
    current = theta
    while len(digits) < depth:
        key = _state_key(current)
        if key is not None:
            start = seen.setdefault(key, len(digits))
            if start != len(digits):
                period = (start, len(digits) - start)
                break
        try:
            d, nxt, term, step_amended = _jp_step_full(current)
        except IndeterminateError as exc:
            raise IndeterminateError(
                f"precision failed at expansion step {len(digits)}: {exc}") from exc
        amended = amended or step_amended
        digits.append(d)
        if term:
            terminated = True
            break
        current = nxt
    if period is not None:
        start, length = period
        while len(digits) < depth:
            digits.append(digits[start + (len(digits) - start) % length])
    return JPExpansion(n=n, digits=tuple(digits), terminated=terminated,
                       period=period, source=theta, amended=amended)


def jp_digit_matrix(d: Sequence[int], n: int) -> _intmat.IntMatrix:
    """The n x n unimodular matrix (0 1; I b) of one digit.

    First row (0, ..., 0, 1); identity block below it in the first n-1
    columns; last column (1, b_1, ..., b_{n-1}).  Its determinant is
    (-1)**(n-1) regardless of b.
    """
    d = tuple(int(b) for b in d)
    if len(d) != n - 1:
        raise ValueError(f"digit length {len(d)} does not match n-1 = {n - 1}")
    if any(b < 0 for b in d):
        raise ValueError("digit entries must be non-negative")
    rows = [tuple([0] * (n - 1) + [1])]
    for i in range(n - 1):
        row = [0] * n
        row[i] = 1
        row[n - 1] = d[i]
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class JPConvergentState:
    """Columns A^(nu), ..., A^(nu+n-1) of the partial product of digit matrices."""

    n: int
    nu: int
    columns: Tuple[Tuple[int, ...], ...]

    def matrix(self) -> _intmat.IntMatrix:
        return _intmat.transpose(self.columns)

    def newest(self) -> Tuple[int, ...]:
        return self.columns[-1]

    def ratios(self) -> Optional[Tuple[Fraction, ...]]:
        """(A_1/A_0, ..., A_{n-1}/A_0) of the newest column; None if A_0 = 0."""
        col = self.columns[-1]
        if col[0] == 0:
            return None
        return tuple(Fraction(a, col[0]) for a in col[1:])


class InternalConsistencyError(RuntimeError):
    """The recurrence and matrix-product computations disagreed (a bug)."""


def _a_sequence(e: JPExpansion, upto: int):
    """A^(0), ..., A^(upto + n - 1) by the induction with b_0 = 1."""
    n = e.n
    a = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    for nu in range(upto):
        d = e.digits[nu]
        new = list(a[nu])
        for j in range(1, n):
            coef = d[j - 1]
            if coef:
                prev = a[nu + j]
                new = [x + coef * y for x, y in zip(new, prev)]
        a.append(tuple(new))
    return a


def jp_convergents(e: JPExpansion, upto: int):
    """Convergent states for nu = 0..upto, computed twice and cross-checked.

    The recurrence A^(nu+n) = A^(nu) + sum_j b_j^(nu+1) A^(nu+j) must agree
    exactly with the columns of the running digit-matrix product; any
    mismatch raises InternalConsistencyError.
    """
    if upto < 0:
        raise ValueError("upto must be >= 0")
    if upto > len(e.digits):
        raise ValueError(f"only {len(e.digits)} digits available, requested {upto}")
    n = e.n
    a = _a_sequence(e, upto)
    states = []
    # the columns of D_1 ... D_nu are the rows of its transpose D_nu^T ... D_1^T
    transposed = (_intmat.transpose(jp_digit_matrix(d, n)) for d in e.digits[:upto])
    for nu, prod_cols in enumerate(_intmat.running_products(transposed, _intmat.identity(n))):
        cols = tuple(a[nu + c] for c in range(n))
        if prod_cols != cols:
            raise InternalConsistencyError(
                f"recurrence/matrix mismatch at step {nu}: {cols} vs {prod_cols}")
        states.append(JPConvergentState(n=n, nu=nu, columns=cols))
    return states


@dataclass(frozen=True)
class JPLimitReport:
    depth: int
    tol: Fraction
    ratios: Optional[Tuple[Fraction, ...]]
    max_error_bound: Optional[Fraction]
    within_tol: Optional[bool]
    cauchy_gap: Optional[Fraction]
    cauchy_ok: bool
    exact: bool = False
    skipped_undefined: int = 0

    @property
    def converged(self) -> bool:
        return bool(self.exact or (self.cauchy_ok and (self.within_tol is not False)))

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "tol": str(self.tol),
            "ratios": [str(r) for r in self.ratios] if self.ratios else None,
            "max_error_bound": (str(self.max_error_bound)
                                if self.max_error_bound is not None else None),
            "within_tol": self.within_tol,
            "cauchy_gap": str(self.cauchy_gap) if self.cauchy_gap is not None else None,
            "cauchy_ok": self.cauchy_ok,
            "exact": self.exact,
            "converged": self.converged,
        }


def _abs_diff_bound(ratio: Fraction, theta: RealScalar, tol: Fraction) -> Fraction:
    """An upper bound for |ratio - theta|, exact when theta is rational."""
    if isinstance(theta, (int, Fraction)):
        return abs(ratio - Fraction(theta))
    bits = tol.denominator.bit_length() + 16
    box = theta if isinstance(theta, IntervalReal) else to_interval(theta, bits)
    return max(abs(ratio - box.lo), abs(ratio - box.hi))


def jp_limit_check(e: JPExpansion, theta: Optional[Sequence[RealScalar]],
                   depth: int, tol: Fraction) -> JPLimitReport:
    """Convergence diagnostics at ``depth`` digits.

    Reports max_i |A_i/A_0 - theta_i| for the deepest defined convergent and
    the Cauchy gap between the two most recent defined convergents.  Ratios
    with A_0 = 0 (possible only for non-admissible digit strings) are
    skipped; for admissible digits a vanishing A_0 is an internal fault.
    A terminated expansion at full depth is compared exactly.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if depth > len(e.digits):
        raise ValueError(f"depth {depth} exceeds digit count {len(e.digits)}")
    a = _a_sequence(e, depth)
    ratio_vectors = []
    skipped = 0
    for k in range(1, depth + 1):
        col = a[k + e.n - 1]
        if col[0] == 0:
            if e.admissible:
                raise InternalConsistencyError("A_0 vanished on admissible digits")
            skipped += 1
            continue
        if any(v < 0 for v in col):
            raise InternalConsistencyError("negative convergent entries")
        ratio_vectors.append(tuple(Fraction(v, col[0]) for v in col[1:]))
    ratios = ratio_vectors[-1] if ratio_vectors else None
    gap = None
    if len(ratio_vectors) >= 2:
        prev, last = ratio_vectors[-2], ratio_vectors[-1]
        gap = max(abs(x - y) for x, y in zip(last, prev))
    exact = bool(e.terminated and depth == len(e.digits))
    max_error = None
    within = None
    if theta is not None and ratios is not None:
        bounds = [_abs_diff_bound(r, t, tol) for r, t in zip(ratios, theta)]
        max_error = max(bounds)
        within = max_error < tol
        if exact:
            exact = all(
                (is_exact(t) and _ratio_equals(r, t)) for r, t in zip(ratios, theta))
            if exact:
                max_error = Fraction(0)
                within = True
    cauchy_ok = exact or (gap is not None and gap < tol)
    return JPLimitReport(depth=depth, tol=tol, ratios=ratios,
                         max_error_bound=max_error, within_tol=within,
                         cauchy_gap=gap, cauchy_ok=cauchy_ok, exact=exact,
                         skipped_undefined=skipped)


def _ratio_equals(r: Fraction, t: RealScalar) -> bool:
    if isinstance(t, int):
        return r == t
    if isinstance(t, Fraction):
        return r == t
    if isinstance(t, NumberFieldElement):
        return t.is_rational() and t.as_fraction() == r
    return False


@dataclass(frozen=True)
class PerronReport:
    holds: bool
    bound: Fraction
    first_violation: Optional[Tuple[int, int]] = None

    def to_json_dict(self) -> dict:
        return {
            "holds": self.holds,
            "bound": str(self.bound),
            "first_violation": (list(self.first_violation)
                                if self.first_violation else None),
        }


def perron_condition(e: JPExpansion, bound) -> PerronReport:
    """The sufficient convergence test: for every digit, b_{n-1} >= 1,
    1/b_{n-1} <= C, and b_i/b_{n-1} < C for all i (strict on the ratios).

    The first violating (digit index, entry index) is reported 1-based.
    An empty expansion holds vacuously.
    """
    c = Fraction(bound)
    if c <= 0:
        raise ValueError("the Perron constant must be positive")
    n = e.n
    for k, d in enumerate(e.digits, start=1):
        last = d[-1]
        if last < 1 or Fraction(1, last) > c:
            return PerronReport(False, c, (k, n - 1))
        for i in range(1, n):
            if Fraction(d[i - 1], last) >= c:
                return PerronReport(False, c, (k, i))
    return PerronReport(True, c)


@dataclass(frozen=True)
class ESDivergenceReport:
    pattern_ok: bool
    partial_sum: Fraction
    tail_bound: Optional[Fraction]
    certified_divergent: bool
    terms: int

    def to_json_dict(self) -> dict:
        return {
            "pattern_ok": self.pattern_ok,
            "partial_sum": str(self.partial_sum),
            "tail_bound": str(self.tail_bound) if self.tail_bound is not None else None,
            "certified_divergent": self.certified_divergent,
            "terms": self.terms,
        }


def effros_shen_expansion(betas: Sequence[int], depth: Optional[int] = None) -> JPExpansion:
    """The n=3 digit string ((beta_1, 0), (beta_2, 0), ...) of the divergence example."""
    digits = tuple((int(b), 0) for b in betas)
    if depth is not None:
        digits = digits[:depth]
    for d in digits:
        if d[0] < 1:
            raise ValueError("beta_k must be positive")
    return JPExpansion(n=3, digits=digits, terminated=False)


def effros_shen_divergent(betas, tail_bound=None) -> ESDivergenceReport:
    """Certify divergence via sum(1/beta_k) < 1.

    ``betas`` is either a positive integer sequence or a JPExpansion whose
    digits should have the (beta_k, 0) shape (pattern_ok reports whether they
    do).  Certification needs ``tail_bound``, a rational upper bound on the
    sum of the omitted tail; without it only the partial sum is reported.
    """
    if isinstance(betas, JPExpansion):
        e = betas
        shape_ok = e.n == 3 and all(d[1] == 0 and d[0] >= 1 for d in e.digits)
        if not shape_ok:
            return ESDivergenceReport(False, Fraction(0), None, False, 0)
        seq = [d[0] for d in e.digits]
    else:
        seq = [int(b) for b in betas]
        if any(b < 1 for b in seq):
            raise ValueError("beta_k must be positive")
    partial = sum((Fraction(1, b) for b in seq), Fraction(0))
    if tail_bound is None:
        return ESDivergenceReport(True, partial, None, False, len(seq))
    tb = Fraction(tail_bound)
    if tb < 0:
        raise ValueError("tail bound must be non-negative")
    certified = partial + tb < 1
    return ESDivergenceReport(True, partial, tb, certified, len(seq))
