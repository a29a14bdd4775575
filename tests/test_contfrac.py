import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_af.contfrac import (
    CFExpansion,
    InsufficientDepthError,
    Mat2Z,
    PoleError,
    cf_expand,
    cf_matrix_product,
    cf_tail_equivalent,
    euclid_cf,
    mobius_apply,
)
from foliation_af.numeric import algebraic_root

from helpers import convergents_oracle, sqrt_of, surd_cf_oracle

SQRT2 = sqrt_of(2)
SQRT3 = sqrt_of(3)
PHI = algebraic_root((-1, -1, 1), 1, 2)


class TestEuclid:
    def test_13_5(self):
        e, g = euclid_cf(13, 5)
        assert e.digits == (2, 1, 1, 2)
        assert g == 1

    def test_exact_division(self):
        e, g = euclid_cf(10, 5)
        assert e.digits == (2,) and g == 5

    def test_equal_inputs(self):
        e, g = euclid_cf(7, 7)
        assert e.digits == (1,) and g == 7

    def test_precondition(self):
        with pytest.raises(ValueError):
            euclid_cf(3, 5)

    def test_gcd_matches_math(self):
        import math

        rng = random.Random(3)
        for _ in range(300):
            a = rng.randint(1, 10 ** 6)
            b = rng.randint(1, a)
            _, g = euclid_cf(a, b)
            assert g == math.gcd(a, b)


class TestExpand:
    def test_rational(self):
        assert cf_expand(Fraction(7, 3)).digits == (2, 3)
        assert cf_expand(Fraction(7, 3)).finite

    def test_sqrt2(self):
        e = cf_expand(SQRT2, 6)
        assert e.digits == (1, 2, 2, 2, 2, 2)
        assert e.period == (1, 1)

    def test_golden(self):
        assert cf_expand(PHI, 6).digits == (1, 1, 1, 1, 1, 1)

    def test_negative_rational(self):
        e = cf_expand(Fraction(-7, 3))
        p, q = convergents_oracle(list(e.digits))
        assert Fraction(p[-1], q[-1]) == Fraction(-7, 3)

    def test_quadratic_surds_against_integer_oracle(self):
        rng = random.Random(23)
        count = 0
        for d in (2, 3, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 17, 18, 19, 20):
            x = sqrt_of(d)
            mine = cf_expand(x, 40).digits
            oracle = surd_cf_oracle(0, 1, d, 40)
            assert list(mine) == oracle
            count += 1
        assert count == 16

    def test_canonical_form_property(self):
        rng = random.Random(29)
        for _ in range(500):
            x = Fraction(rng.randint(1, 10 ** 5), rng.randint(1, 10 ** 5))
            e = cf_expand(x)
            if len(e.digits) >= 2:
                assert e.digits[-1] >= 2


class TestMatrixProduct:
    def test_single_digit(self):
        e = CFExpansion((2,), finite=True)
        m, conv = cf_matrix_product(e, 1)
        # (0,1)^T maps to (1,2)^T
        assert (m.b, m.d) == (1, 2)
        assert conv == 2

    def test_two_digits(self):
        e = cf_expand(Fraction(7, 3))
        m, conv = cf_matrix_product(e, 2)
        assert (m.b, m.d) == (3, 7)
        assert conv == Fraction(7, 3)
        assert m.det() == 1

    def test_empty(self):
        m, conv = cf_matrix_product(CFExpansion((2,), finite=True), 0)
        assert m == Mat2Z.identity() and conv is None

    def test_round_trip_and_determinant(self):
        rng = random.Random(41)
        for _ in range(300):
            x = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
            e = cf_expand(x)
            m, conv = cf_matrix_product(e, len(e.digits))
            assert conv == x
            assert m.det() == (-1) ** len(e.digits)

    def test_matches_convergent_recursion(self):
        e = cf_expand(SQRT2, 12)
        ps, qs = convergents_oracle(list(e.digits))
        for k in range(1, 13):
            _, conv = cf_matrix_product(e, k)
            assert conv == Fraction(ps[k - 1], qs[k - 1])


class TestMobius:
    def test_identity(self):
        assert mobius_apply(Mat2Z.identity(), SQRT2) == SQRT2

    def test_translation(self):
        assert mobius_apply(Mat2Z(1, 1, 0, 1), SQRT2) == SQRT2 + 1

    def test_inversion(self):
        assert mobius_apply(Mat2Z(0, 1, 1, 0), Fraction(2)) == Fraction(1, 2)

    def test_pole(self):
        with pytest.raises(PoleError):
            mobius_apply(Mat2Z(1, -1, 1, -2), Fraction(2))

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            mobius_apply(Mat2Z(2, 0, 0, 1), SQRT2)


class TestTailEquivalence:
    def test_sqrt2_vs_one_plus_sqrt2(self):
        rep = cf_tail_equivalent(SQRT2, SQRT2 + 1, depth=30, max_offset=10)
        assert rep.equivalent and rep.proven
        assert rep.offsets == (1, 0)

    def test_cross_field_same_value(self):
        # 1 + sqrt2 presented in its own field, x^2 - 2x - 1
        y = algebraic_root((-1, -2, 1), 2, 3)
        rep = cf_tail_equivalent(SQRT2, y, depth=50, max_offset=10)
        assert rep.equivalent and rep.proven

    def test_sqrt2_vs_sqrt3(self):
        rep = cf_tail_equivalent(SQRT2, SQRT3, depth=50, max_offset=10)
        assert not rep.equivalent
        assert rep.proven  # both periodic and the offset bound covers all tails

    def test_reflexive(self):
        rep = cf_tail_equivalent(PHI, PHI, depth=50, max_offset=10)
        assert rep.equivalent and rep.proven and rep.offsets == (0, 0)

    def test_two_rationals_decided(self):
        rep = cf_tail_equivalent(Fraction(7, 3), Fraction(5, 3))
        assert rep.equivalent and rep.proven

    def test_short_rational_against_long_rational(self):
        # 7/3 has 2 digits and F60/F59 has 58: no nonempty tail matches within
        # the offset bound, so the witness is the pair of empty tails
        a, b = 0, 1
        for _ in range(59):
            a, b = b, a + b
        long = cf_expand(Fraction(b, a))
        assert long.depth == 58
        rep = cf_tail_equivalent(Fraction(7, 3), Fraction(b, a))
        assert rep.equivalent and rep.proven and rep.offsets == (2, 58)

    @pytest.mark.parametrize("length", [40, 41, 42, 43])
    def test_rational_lengths_around_the_offset_bound(self, length):
        # 7/2 = [3; 2] shares only its empty tail with [3; 3, ..., 3]
        ps, qs = convergents_oracle([3] * length)
        assert cf_expand(Fraction(ps[-1], qs[-1])).depth == length
        rep = cf_tail_equivalent(Fraction(7, 2), Fraction(ps[-1], qs[-1]))
        assert rep.equivalent and rep.proven and rep.offsets == (2, length)

    @given(st.fractions(max_denominator=10 ** 12), st.fractions(max_denominator=10 ** 12),
           st.integers(min_value=0, max_value=6))
    @settings(max_examples=200)
    def test_any_two_rationals_proven_equivalent(self, x, y, max_offset):
        rep = cf_tail_equivalent(x, y, max_offset=max_offset)
        assert rep.equivalent and rep.proven
        i, j = rep.offsets
        assert cf_expand(x).digits[i:] == cf_expand(y).digits[j:]

    def test_insufficient_depth_for_rationals(self):
        with pytest.raises(InsufficientDepthError):
            cf_tail_equivalent(Fraction(7, 3), SQRT2, depth=50, max_offset=10)

    def test_report_json_shape(self):
        rep = cf_tail_equivalent(SQRT2, SQRT2 + 1, depth=30, max_offset=10)
        doc = rep.to_json_dict()
        assert set(doc) == {"equivalent", "proven", "offsets", "depth"}
