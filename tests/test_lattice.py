import math
import random
from fractions import Fraction

import pytest

from foliation_af.contfrac import Mat2Z
from foliation_af.lattice import (
    MappingClassElement,
    NonpositivePeriodError,
    PseudoLattice,
    basis_change,
    from_projective,
    functor_covariance_check,
    functor_map,
    genus_dimension,
    module_equal,
    observation_check,
    projectivize,
)
from foliation_af.numeric import IntervalReal, NumberField, algebraic_root

from helpers import (
    random_field_lattice,
    random_nonneg_unimodular,
    sqrt_of,
    sympy_lattice_form,
)

SQRT2 = sqrt_of(2)
PHI = algebraic_root((-1, -1, 1), 1, 2)
F6 = NumberField((-1, -1, 0, 0, 0, 0, 1), (1, 2))  # x^6 - x - 1, root near 1.13


class TestGenusDimension:
    def test_values(self):
        assert genus_dimension(1) == 2
        assert genus_dimension(2) == 6
        assert genus_dimension(3) == 12

    def test_invalid(self):
        with pytest.raises(ValueError):
            genus_dimension(0)


class TestBasisChange:
    def test_identity(self):
        pl = PseudoLattice((Fraction(1), SQRT2))
        out = basis_change(pl, MappingClassElement(((1, 0), (0, 1))))
        assert out.periods == pl.periods

    def test_shear(self):
        pl = PseudoLattice((Fraction(1), SQRT2))
        out = basis_change(pl, MappingClassElement(((1, 1), (0, 1))))
        assert out.periods[0] == 1
        assert out.periods[1] == SQRT2 + 1

    def test_sign_violation(self):
        pl = PseudoLattice((Fraction(1), SQRT2))
        with pytest.raises(NonpositivePeriodError):
            basis_change(pl, MappingClassElement(((-1, 0), (0, 1))))

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            MappingClassElement(((2, 0), (0, 1)))


class TestModuleEqual:
    def test_self(self):
        pl = PseudoLattice((Fraction(1), SQRT2))
        assert module_equal(pl, pl)

    def test_basis_change_instance(self):
        pl = PseudoLattice((Fraction(1), SQRT2))
        out = basis_change(pl, MappingClassElement(((1, 1), (0, 1))))
        assert module_equal(pl, out)

    def test_index_two_submodule(self):
        pl = PseudoLattice((Fraction(1), SQRT2))
        doubled = PseudoLattice((Fraction(2), SQRT2 * 2))
        assert not module_equal(pl, doubled)

    def test_interval_entries_rejected(self):
        pl1 = PseudoLattice((Fraction(1), SQRT2))
        pl2 = PseudoLattice((IntervalReal(Fraction(1), Fraction(2), 16),
                             IntervalReal(Fraction(1), Fraction(2), 16)))
        with pytest.raises(ValueError):
            module_equal(pl1, pl2)

    def test_incompatible_fields_rejected(self):
        pl1 = PseudoLattice((Fraction(1), SQRT2))
        pl2 = PseudoLattice((Fraction(1), sqrt_of(3)))
        with pytest.raises(ValueError):
            module_equal(pl1, pl2)

    def test_agrees_with_sympy_oracle(self):
        rng = random.Random(103)
        field = NumberField((1, 0, -10, 0, 1), (3, Fraction(13, 4)))  # degree 4
        for _ in range(40):
            periods1 = random_field_lattice(rng, field, 4)
            periods2 = random_field_lattice(rng, field, 4)
            pl1, pl2 = PseudoLattice(periods1), PseudoLattice(periods2)
            rows1 = [list(p.coords) for p in periods1]
            rows2 = [list(p.coords) for p in periods2]
            den = 1
            for row in rows1 + rows2:
                for v in row:
                    den = den * v.denominator // math.gcd(den, v.denominator)
            int1 = [[int(v * den) for v in row] for row in rows1]
            int2 = [[int(v * den) for v in row] for row in rows2]
            oracle = sympy_lattice_form(int1) == sympy_lattice_form(int2)
            assert module_equal(pl1, pl2) == oracle

    def test_rational_lattices(self):
        a = PseudoLattice((Fraction(1, 2), Fraction(1, 3)))
        b = PseudoLattice((Fraction(1, 6), Fraction(5, 6)))
        # both span (1/6) Z
        assert module_equal(a, b)
        assert not module_equal(a, PseudoLattice((Fraction(1, 2), Fraction(1, 4))))


class TestProjectivize:
    def test_scaling_kernel(self):
        pl = PseudoLattice((Fraction(2), SQRT2 * 2))
        ref = PseudoLattice((Fraction(1), SQRT2))
        assert projectivize(pl).theta == projectivize(ref).theta

    def test_golden(self):
        assert projectivize(PseudoLattice((Fraction(1), PHI))).theta == (PHI,)

    def test_rational(self):
        ppl = projectivize(PseudoLattice((Fraction(3), Fraction(6), Fraction(9))))
        assert ppl.theta == (Fraction(2), Fraction(3))

    def test_int_periods_stay_exact(self):
        theta = projectivize(PseudoLattice((2, 3, 5))).theta
        assert theta == (Fraction(3, 2), Fraction(5, 2))
        assert all(isinstance(t, Fraction) for t in theta)

    def test_field_first_period(self):
        # one inverse of lambda_1 gives the same theta as dividing each period
        pl = PseudoLattice((SQRT2 + 1, Fraction(3), SQRT2 * 5 - 2))
        assert projectivize(pl).theta == tuple(lam / pl.periods[0] for lam in pl.periods[1:])

    def test_round_trip(self):
        # the pair (projective class, first period) determines the lattice
        rng = random.Random(107)
        for _ in range(200):
            periods = random_field_lattice(rng, SQRT2.field, 2)
            pl = PseudoLattice(periods)
            back = from_projective(projectivize(pl), pl.periods[0])
            assert all(a == b for a, b in zip(back.periods, pl.periods))


class TestFunctorMap:
    def test_golden_genus1(self):
        bundle = functor_map(PseudoLattice((Fraction(1), PHI)), 1, depth=10)
        assert all(d == (1,) for d in bundle.expansion.digits)
        assert bundle.certificate == "periodic"
        assert bundle.diagram.n == 2

    def test_rational_genus1(self):
        bundle = functor_map(PseudoLattice((Fraction(3), Fraction(7))), 1)
        assert bundle.expansion.digits == ((2,), (3,))
        assert bundle.certificate == "terminated"
        assert bundle.convergence.exact

    def test_wrong_rank(self):
        pl = PseudoLattice(tuple(Fraction(k) for k in (1, 2, 3, 4, 5)))
        with pytest.raises(ValueError):
            functor_map(pl, 2)

    def test_genus2_rational(self):
        pl = PseudoLattice(tuple(Fraction(k) for k in (5, 7, 11, 13, 17, 19)))
        bundle = functor_map(pl, 2, depth=100)
        assert bundle.certificate == "terminated"
        assert bundle.diagram.n == 6
        assert bundle.convergence.exact


class TestCovariance:
    def test_identity_pair(self):
        pl = PseudoLattice((Fraction(1), SQRT2))
        eye = MappingClassElement(((1, 0), (0, 1)))
        assert functor_covariance_check(pl, eye, eye)

    def test_random_rank2(self):
        rng = random.Random(109)
        pl = PseudoLattice((Fraction(1), SQRT2))
        for _ in range(50):
            phi1 = MappingClassElement(random_nonneg_unimodular(rng, 2))
            phi2 = MappingClassElement(random_nonneg_unimodular(rng, 2))
            assert functor_covariance_check(pl, phi1, phi2)

    def test_rank6_fixture(self):
        rng = random.Random(113)
        pl = PseudoLattice(random_field_lattice(rng, F6, 6))
        for _ in range(10):
            phi1 = MappingClassElement(random_nonneg_unimodular(rng, 6))
            phi2 = MappingClassElement(random_nonneg_unimodular(rng, 6))
            assert functor_covariance_check(pl, phi1, phi2)


class TestObservation:
    def test_sqrt2_shear(self):
        rep = observation_check(SQRT2, Mat2Z(1, 1, 0, 1))
        assert rep.equivalent and rep.proven

    def test_golden_shift_matrix(self):
        rep = observation_check(PHI, Mat2Z(2, 1, 1, 1))
        assert rep.equivalent and rep.proven
        assert rep.offsets == (0, 0)  # (2 phi + 1)/(phi + 1) = phi exactly

    def test_identity_reflexive(self):
        rep = observation_check(SQRT2, Mat2Z(1, 0, 0, 1))
        assert rep.equivalent and rep.offsets == (0, 0)

    def test_det_minus_one_rejected(self):
        with pytest.raises(ValueError):
            observation_check(SQRT2, Mat2Z(0, 1, 1, 0))

    def test_rational_rejected(self):
        with pytest.raises(ValueError):
            observation_check(Fraction(7, 3), Mat2Z(1, 1, 0, 1))


class TestPseudoLattice:
    def test_positive_required(self):
        with pytest.raises(NonpositivePeriodError):
            PseudoLattice((Fraction(1), Fraction(-2)))
        with pytest.raises(NonpositivePeriodError):
            PseudoLattice((Fraction(0),))
