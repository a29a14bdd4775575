import random
from fractions import Fraction

import pytest

from foliation_af._intmat import det, matmul
from foliation_af.contfrac import cf_expand
from foliation_af.jacobi_perron import (
    DegenerateVectorError,
    JPExpansion,
    effros_shen_divergent,
    effros_shen_expansion,
    jp_convergents,
    jp_digit_matrix,
    jp_expand,
    jp_limit_check,
    jp_step,
    perron_condition,
)
from foliation_af.numeric import NumberField, algebraic_root, to_interval

from helpers import mat_product_oracle

PHI = algebraic_root((-1, -1, 1), 1, 2)
CBRT2_FIELD = NumberField((-2, 0, 0, 1), (1, 2))


def composite_sqrt2_sqrt3():
    # Q(sqrt2 + sqrt3) = Q[x]/(x^4 - 10 x^2 + 1), generator isolated in [3, 13/4]
    field = NumberField((1, 0, -10, 0, 1), (3, Fraction(13, 4)))
    a = field.generator()
    sqrt2 = (a ** 3 - 9 * a) / 2
    sqrt3 = (11 * a - a ** 3) / 2
    return sqrt2, sqrt3


class TestStep:
    def test_rational_example(self):
        d, nxt, term = jp_step((Fraction(7, 3), Fraction(5, 3)))
        assert d == (2, 1) and not term
        assert nxt == (Fraction(2), Fraction(3))

    def test_integral_vector_terminates(self):
        d, nxt, term = jp_step((Fraction(2), Fraction(5)))
        assert d == (2, 5) and term and nxt is None

    def test_composite_field(self):
        sqrt2, sqrt3 = composite_sqrt2_sqrt3()
        d, nxt, term = jp_step((sqrt2, sqrt3))
        assert d == (1, 1) and not term
        assert nxt[0] == (sqrt3 - 1) / (sqrt2 - 1)
        assert nxt[1] == 1 / (sqrt2 - 1)

    def test_int_component_stays_exact(self):
        # an int pivot once gave the reciprocal 1 / 1 == 1.0, a float
        e = jp_expand((1, Fraction(1, 2)), 5)
        assert e.digits == jp_expand((Fraction(1), Fraction(1, 2)), 5).digits

    def test_one_inverse_matches_division(self):
        sextic = NumberField((-1, -1, 0, 0, 0, 0, 1), (1, 2))
        rng = random.Random(17)
        vectors = [composite_sqrt2_sqrt3()]
        while len(vectors) < 6:
            theta = []
            while len(theta) < 5:
                x = sextic.element([rng.randint(-5, 5) for _ in range(6)])
                if any(x.coords[1:]):
                    theta.append(x if x.sign() > 0 else -x)
            vectors.append(tuple(theta))
        for theta in vectors:
            for _ in range(4):
                d, nxt, term = jp_step(theta)
                assert not term
                pivot = theta[0] - d[0]
                divided = tuple((t - b) / pivot for t, b in zip(theta[1:], d[1:]))
                divided += (1 / pivot,)
                assert [x.coords for x in nxt] == [x.coords for x in divided]
                # and, without any division: nxt * pivot gives back the remainders
                rests = [t - b for t, b in zip(theta[1:], d[1:])] + [1]
                assert all(x * pivot == r for x, r in zip(nxt, rests))
                theta = nxt

    def test_interval_step_divides_each_component(self):
        # outward rounding must stay that of a / p, not of a * (1/p)
        theta = (to_interval(PHI, 64), to_interval(CBRT2_FIELD.generator(), 64), Fraction(5, 3))
        for _ in range(3):
            d, nxt, _ = jp_step(theta)
            pivot = theta[0] - d[0]
            divided = tuple((t - b) / pivot for t, b in zip(theta[1:], d[1:]))
            divided += (1 / pivot,)
            assert [(x.lo, x.hi) for x in nxt] == [(x.lo, x.hi) for x in divided]
            theta = nxt

    def test_zero_component_degenerate(self):
        with pytest.raises(DegenerateVectorError):
            jp_step((Fraction(0), Fraction(3, 2)))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jp_step((Fraction(-1, 2), Fraction(1, 2)))


class TestExpand:
    def test_n2_degenerates_to_cf(self):
        e = jp_expand((Fraction(7, 3),))
        assert e.digits == ((2,), (3,)) and e.terminated
        assert [d[0] for d in e.digits] == list(cf_expand(Fraction(7, 3)).digits)

    def test_rational_pair(self):
        e = jp_expand((Fraction(7, 3), Fraction(5, 3)))
        assert e.digits == ((2, 1), (2, 3)) and e.terminated

    def test_cubic_periodicity(self):
        c2 = CBRT2_FIELD.generator()
        e = jp_expand((c2 * c2, c2), depth=100)
        assert e.period == (1, 2)
        assert e.digits[:5] == ((1, 1), (0, 1), (1, 2), (0, 1), (1, 2))
        assert len(e.digits) == 100

    def test_degenerate_rational_states_reconstruct(self):
        # these hit the amended digit rule (an exactly integral component)
        for theta in [(Fraction(7, 5), Fraction(7, 5)),
                      (Fraction(2), Fraction(5, 3)),
                      (Fraction(1), Fraction(3, 2)),
                      (Fraction(5, 2), Fraction(3))]:
            e = jp_expand(theta)
            assert e.terminated
            _assert_reconstructs(e, theta)

    def test_interval_precision_failure_reports_step(self):
        from foliation_af.numeric import IndeterminateError, IntervalReal

        theta = (IntervalReal(Fraction(141, 100), Fraction(142, 100), 10),
                 IntervalReal(Fraction(173, 100), Fraction(174, 100), 10))
        with pytest.raises(IndeterminateError, match="step"):
            jp_expand(theta, depth=30)

    def test_random_rationals_terminate_and_reconstruct(self):
        rng = random.Random(59)
        for _ in range(200):
            n = rng.choice((3, 4))
            theta = tuple(Fraction(rng.randint(1, 9999), rng.randint(1, 9999))
                          for _ in range(n - 1))
            e = jp_expand(theta, depth=10 ** 6)
            assert e.terminated
            _assert_reconstructs(e, theta)


def _assert_reconstructs(e, theta):
    prod = mat_product_oracle([jp_digit_matrix(d, e.n) for d in e.digits])
    last = tuple(row[-1] for row in prod)
    assert last[0] > 0
    for i, t in enumerate(theta, start=1):
        assert Fraction(last[i], last[0]) == t


class TestDigitMatrix:
    def test_n2(self):
        assert jp_digit_matrix((5,), 2) == ((0, 1), (1, 5))

    def test_example_two_shape(self):
        beta = 7
        assert jp_digit_matrix((beta, 0), 3) == ((0, 0, 1), (1, 0, beta), (0, 1, 0))

    def test_zero_digit_determinant(self):
        for n in (2, 3, 4, 6):
            m = jp_digit_matrix((0,) * (n - 1), n)
            assert abs(det(m)) == 1
            assert det(m) == (-1) ** (n - 1)

    def test_unimodularity_of_partial_products(self):
        rng = random.Random(61)
        for n in (3, 4):
            prod = None
            for _ in range(30):
                d = tuple(rng.randint(0, 5) for _ in range(n - 1))
                m = jp_digit_matrix(d, n)
                assert abs(det(m)) == 1
                prod = m if prod is None else matmul(prod, m)
                assert abs(det(prod)) == 1


class TestConvergents:
    def test_kronecker_start(self):
        e = jp_expand((Fraction(7, 3), Fraction(5, 3)))
        states = jp_convergents(e, 0)
        assert states[0].columns == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_n2_ratios(self):
        e = jp_expand((Fraction(7, 3),))
        states = jp_convergents(e, 2)
        assert states[1].ratios() == (Fraction(2),)
        assert states[2].ratios() == (Fraction(7, 3),)

    def test_all_ones_tribonacci(self):
        e = JPExpansion(n=3, digits=((1, 1),) * 8, terminated=False)
        states = jp_convergents(e, 8)
        a0 = [s.newest()[0] for s in states]
        # first components follow the three-term recursion seeded 0,0,1,1,2,4
        expected = [0, 1, 1, 2, 4, 7, 13, 24, 44]
        # state nu has newest column A^(nu+2); A_0 of A^(2..10)
        assert a0 == expected[:9]

    def test_matches_independent_product(self):
        rng = random.Random(67)
        digits = tuple((rng.randint(0, 3), rng.randint(1, 3), rng.randint(1, 3))
                       for _ in range(12))
        e = JPExpansion(n=4, digits=digits, terminated=False)
        states = jp_convergents(e, 12)
        prod = mat_product_oracle([jp_digit_matrix(d, 4) for d in digits])
        assert states[-1].matrix() == prod


class TestLimitCheck:
    def test_golden_converges(self):
        e = jp_expand((PHI,), depth=30)
        rep = jp_limit_check(e, (PHI,), depth=30, tol=Fraction(1, 10 ** 10))
        assert rep.converged and rep.within_tol
        assert rep.cauchy_gap < Fraction(1, 10 ** 10)

    def test_terminated_exact(self):
        theta = (Fraction(7, 3), Fraction(5, 3))
        e = jp_expand(theta)
        rep = jp_limit_check(e, theta, depth=len(e.digits), tol=Fraction(1, 100))
        assert rep.exact and rep.max_error_bound == 0

    def test_example_two_fails_cauchy(self):
        betas = [2 ** (k + 1) for k in range(1, 41)]
        e = effros_shen_expansion(betas)
        rep = jp_limit_check(e, None, depth=40, tol=Fraction(1, 10 ** 4))
        assert not rep.cauchy_ok
        assert rep.cauchy_gap > Fraction(1, 10 ** 4)
        # frozen magnitude: the gap even exceeds 2^6 at this depth
        assert rep.cauchy_gap > 2 ** 6
        assert rep.skipped_undefined == 1

    def test_perron_passing_sequences_converge(self):
        rng = random.Random(71)
        for _ in range(20):
            digits = []
            for _ in range(60):
                b2 = rng.randint(1, 5)
                digits.append((rng.randint(1, b2), b2))
            e = JPExpansion(n=3, digits=tuple(digits), terminated=False)
            assert perron_condition(e, 2).holds
            rep = jp_limit_check(e, None, depth=60, tol=Fraction(1, 10 ** 8))
            assert rep.cauchy_ok


class TestPerron:
    def test_constant_ones(self):
        e = JPExpansion(n=3, digits=((1, 1),) * 5, terminated=False)
        rep = perron_condition(e, 1)
        assert not rep.holds and rep.first_violation == (1, 1)
        assert perron_condition(e, Fraction(3, 2)).holds

    def test_example_two_violates(self):
        e = effros_shen_expansion([4, 8, 16])
        rep = perron_condition(e, 1)
        assert not rep.holds and rep.first_violation == (1, 2)

    def test_empty_vacuous(self):
        e = JPExpansion(n=3, digits=(), terminated=False)
        assert perron_condition(e, 1).holds


class TestESDivergence:
    def test_geometric_certified(self):
        betas = [2 ** (k + 1) for k in range(1, 11)]
        rep = effros_shen_divergent(betas, Fraction(2, 2 ** 11))
        assert rep.certified_divergent
        assert rep.partial_sum == Fraction(1, 2) - Fraction(1, 2 ** 11)

    def test_all_ones_inconclusive(self):
        rep = effros_shen_divergent([1] * 10)
        assert not rep.certified_divergent
        assert rep.partial_sum == 10

    def test_squares_certified(self):
        rep = effros_shen_divergent([(k + 1) ** 2 for k in range(1, 51)],
                                    Fraction(1, 51))
        assert rep.certified_divergent
        assert rep.partial_sum + Fraction(1, 51) < 1

    def test_missing_tail_bound_refused(self):
        rep = effros_shen_divergent([2 ** (k + 1) for k in range(1, 11)])
        assert not rep.certified_divergent
        assert rep.tail_bound is None

    def test_pattern_check_on_expansion(self):
        good = effros_shen_expansion([4, 8])
        assert effros_shen_divergent(good, Fraction(1, 8)).pattern_ok
        bad = JPExpansion(n=3, digits=((4, 1),), terminated=False)
        assert not effros_shen_divergent(bad, Fraction(1, 8)).pattern_ok

    def test_admissibility_flags(self):
        assert not effros_shen_expansion([4, 8]).admissible
        assert JPExpansion(n=3, digits=((1, 2), (2, 2)), terminated=False).admissible
