import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_af.numeric import (
    IndeterminateError,
    IntervalReal,
    NumberField,
    RootIsolationError,
    algebraic_root,
    compare,
    floor_exact,
    parse_scalar,
    scalar_to_json,
    to_interval,
)

from helpers import bisection_root

SQRT2 = algebraic_root((-2, 0, 1), 1, 2)
CBRT2 = algebraic_root((-2, 0, 0, 1), 1, 2)
PHI = algebraic_root((-1, -1, 1), 1, 2)


class TestToInterval:
    def test_rational_exact(self):
        box = to_interval(Fraction(7, 2), 64)
        assert box.contains(Fraction(7, 2))
        assert box.width <= Fraction(2, 1 << 64)

    def test_sqrt2_against_bisection(self):
        box = to_interval(SQRT2, 64)
        lo, hi = bisection_root((-2, 0, 1), 1, 2, 300)
        assert box.lo <= lo and hi <= box.hi
        assert box.width <= Fraction(2, 1 << 64)

    def test_cbrt2_against_bisection(self):
        box = to_interval(CBRT2, 128)
        lo, hi = bisection_root((-2, 0, 0, 1), 1, 2, 500)
        assert box.lo <= lo and hi <= box.hi
        assert box.width <= Fraction(2, 1 << 128)

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            to_interval(Fraction(1), 4)

    def test_interval_input_too_wide(self):
        wide = IntervalReal(Fraction(0), Fraction(1), 16)
        with pytest.raises(IndeterminateError):
            to_interval(wide, 64)

    def test_midpoint_reproduces_rationals(self):
        rng = random.Random(101)
        for _ in range(1000):
            x = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
            box = to_interval(x, 48)
            assert box.contains(x)
            assert abs(box.midpoint - x) <= Fraction(2, 1 << 48) * max(1, abs(x))


class TestFloor:
    def test_rational(self):
        assert floor_exact(Fraction(7, 3)) == 2
        assert floor_exact(Fraction(-7, 3)) == -3
        assert floor_exact(5) == 5

    def test_sqrt2(self):
        assert floor_exact(SQRT2) == 1
        assert floor_exact(SQRT2 * 10) == 14

    def test_interval_straddle(self):
        with pytest.raises(IndeterminateError):
            floor_exact(IntervalReal(Fraction(299, 100), Fraction(301, 100), 16))
        assert floor_exact(IntervalReal(Fraction(31, 10), Fraction(32, 10), 16)) == 3

    def test_matches_rational_floor(self):
        rng = random.Random(7)
        for _ in range(1000):
            x = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
            assert floor_exact(x) == math.floor(x)


class TestCompare:
    def test_rationals(self):
        assert compare(Fraction(1, 2), Fraction(2, 3)) == -1

    def test_sqrt2_vs_three_halves(self):
        assert compare(SQRT2, Fraction(3, 2)) == -1
        assert compare(SQRT2, Fraction(7, 5)) == 1
        assert compare(SQRT2, SQRT2) == 0

    def test_overlapping_intervals(self):
        a = IntervalReal(Fraction(1), Fraction(3, 2), 16)
        b = IntervalReal(Fraction(14, 10), Fraction(2), 16)
        with pytest.raises(IndeterminateError):
            compare(a, b)
        assert compare(a, IntervalReal(Fraction(2), Fraction(3), 16)) == -1


@st.composite
def small_fractions(draw):
    num = draw(st.integers(min_value=-50, max_value=50))
    den = draw(st.integers(min_value=1, max_value=30))
    return Fraction(num, den)


class TestIntervalArithmetic:
    @given(small_fractions(), small_fractions())
    @settings(max_examples=200)
    def test_containment(self, x, y):
        bx, by = to_interval(x, 32), to_interval(y, 32)
        assert (bx + by).contains(x + y)
        assert (bx - by).contains(x - y)
        assert (bx * by).contains(x * y)
        if y != 0 and not (by.lo <= 0 <= by.hi):
            assert (bx / by).contains(Fraction(x, y))

    def test_division_by_straddling_zero(self):
        with pytest.raises(ZeroDivisionError):
            IntervalReal(Fraction(1), Fraction(2), 16) / IntervalReal(
                Fraction(-1), Fraction(1), 16)


class TestNumberField:
    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            NumberField((-1, 0, 1), (0, 2))  # x^2 - 1 = (x-1)(x+1)
        with pytest.raises(ValueError):
            NumberField((4, 0, -4, 0, 1), (1, 2))  # (x^2 - 2)^2

    def test_non_isolating_embedding_rejected(self):
        with pytest.raises(RootIsolationError):
            NumberField((-3, 0, 1), (-2, 2))  # contains both roots of x^2 - 3

    def test_no_sign_change_rejected(self):
        with pytest.raises(RootIsolationError):
            NumberField((-2, 0, 1), (2, 3))

    def test_degree_above_six_flagged(self):
        f = NumberField((-1, -1, 0, 0, 0, 0, 0, 1), (1, 2))  # x^7 - x - 1
        assert not f.irreducibility_verified
        assert NumberField((-2, 0, 1), (1, 2)).irreducibility_verified

    def test_same_root_discrimination(self):
        plus = NumberField((-2, 0, 1), (1, 2))
        minus = NumberField((-2, 0, 1), (-2, -1))
        again = NumberField((-2, 0, 1), (Fraction(7, 5), Fraction(3, 2)))
        assert plus.same_root(again)
        assert not plus.same_root(minus)

    def test_cross_field_arithmetic_rejected(self):
        sqrt3 = algebraic_root((-3, 0, 1), 1, 2)
        with pytest.raises(ValueError):
            SQRT2 + sqrt3


class TestFieldArithmetic:
    def test_defining_relation(self):
        assert SQRT2 * SQRT2 == 2
        assert CBRT2 ** 3 == 2
        assert PHI * PHI == PHI + 1

    def test_inverse(self):
        x = SQRT2 + 3
        assert x * x.inverse() == 1
        assert (1 / SQRT2) * SQRT2 == 1
        with pytest.raises(ZeroDivisionError):
            (SQRT2 - SQRT2).inverse()

    def test_golden_identity(self):
        # (2*phi + 1)/(phi + 1) = phi, used by the shift-matrix fixture
        assert (2 * PHI + 1) / (PHI + 1) == PHI

    def test_ring_axioms_random(self):
        rng = random.Random(31)
        field = CBRT2.field

        def rand_el():
            return field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                  for _ in range(3)])

        for _ in range(200):
            a, b, c = rand_el(), rand_el(), rand_el()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a

    def test_signs(self):
        assert (SQRT2 - 1).sign() == 1
        assert (SQRT2 - 2).sign() == -1
        assert (SQRT2 - SQRT2).sign() == 0


SEXTIC = NumberField((-1, -1, 0, 0, 0, 0, 1), (1, 2))
QUADRATICS = tuple(NumberField((-d, 0, 1), (math.isqrt(d), math.isqrt(d) + 1))
                   for d in (2, 3, 5, 6, 7, 11, 13, 9999))
SEXTIC_ROOT = bisection_root(SEXTIC.min_poly, 1, 2, 400)


def schoolbook_mul(a, b, min_poly):
    """Product of coordinate vectors modulo the monic min_poly, one Fraction per term."""
    d = len(min_poly) - 1
    prod = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(2 * d - 2, d - 1, -1):
        t = prod[i]
        for j in range(d):
            prod[i - d + j] -= t * min_poly[j]
    return tuple(prod[:d])


def fraction_horner_interval(x, precision):
    """The enclosure by interval Horner on Fractions, rounded outward at the end."""
    coords, field = x.coords, x.field
    lo0, hi0 = field._init_iso
    bound = max(abs(lo0), abs(hi0))
    slope = sum(i * abs(c) * bound ** (i - 1) for i, c in enumerate(coords) if i >= 1)
    lo, hi = field.root_interval(Fraction(1, 1 << precision) / slope)
    acc_lo = acc_hi = coords[-1]
    for c in reversed(coords[:-1]):
        prods = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(prods) + c, max(prods) + c
    scale = 1 << (precision + 2)
    return Fraction(math.floor(acc_lo * scale), scale), Fraction(math.ceil(acc_hi * scale), scale)


coordinates = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 6))


@st.composite
def field_elements(draw, count=1):
    field = draw(st.sampled_from((SEXTIC,) + QUADRATICS))
    size = st.lists(coordinates, min_size=field.degree, max_size=field.degree)
    return tuple(field.element(draw(size)) for _ in range(count))


class TestFieldKernels:
    @given(field_elements(count=2))
    @settings(max_examples=150, deadline=None)
    def test_mul_matches_schoolbook(self, pair):
        a, b = pair
        expected = schoolbook_mul(a.coords, b.coords, a.field.min_poly)
        assert (a * b).coords == expected
        assert (b * a).coords == expected

    @given(field_elements())
    @settings(max_examples=150, deadline=None)
    def test_inverse(self, single):
        (x,) = single
        if not any(x.coords):
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            return
        inv = x.inverse()
        assert x * inv == 1
        assert inv * x == 1

    @given(field_elements(), st.sampled_from((8, 32, 64, 200)))
    @settings(max_examples=150, deadline=None)
    def test_interval_matches_fraction_horner(self, single, precision):
        (x,) = single
        box = x.interval(precision)
        assert box.precision == precision
        if x.is_rational():
            assert box.contains(x.coords[0])
            return
        assert (box.lo, box.hi) == fraction_horner_interval(x, precision)

    @given(field_elements(), st.sampled_from((8, 32, 64, 200)))
    @settings(max_examples=100, deadline=None)
    def test_interval_contains_bisection_value(self, single, precision):
        (x,) = single
        field = x.field
        if field is SEXTIC:
            lo, hi = SEXTIC_ROOT
        else:
            lo, hi = bisection_root(field.min_poly, *field._init_iso, 400)
        # interval Horner over the 2**-400 bisection bracket encloses x's value
        acc_lo = acc_hi = x.coords[-1]
        for c in reversed(x.coords[:-1]):
            prods = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
            acc_lo, acc_hi = min(prods) + c, max(prods) + c
        box = x.interval(precision)
        assert box.lo <= acc_lo and acc_hi <= box.hi
        assert box.width <= Fraction(2, 1 << precision)


class TestParseSerialize:
    def test_rational_round_trip(self):
        assert parse_scalar("7/3") == Fraction(7, 3)
        assert parse_scalar("-2") == -2
        assert scalar_to_json(Fraction(7, 3)) == "7/3"

    def test_field_element_round_trip(self):
        doc = scalar_to_json(SQRT2 + Fraction(1, 2))
        back = parse_scalar(doc)
        assert back == SQRT2 + Fraction(1, 2)

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_scalar("not-a-number")
        with pytest.raises(ValueError):
            parse_scalar({"min_poly": [1]})
