"""Pseudo-lattices, the GL_n(Z) action on periods, and the functor pipeline.

A pseudo-lattice is a positive period vector (lambda_1, ..., lambda_n); the
integer module Z*lambda_1 + ... + Z*lambda_n it spans inside R is the
invariant of interest.  Basis changes act on the periods by
lambda'_j = sum_i a_ij lambda_i, a right action: applying phi1 and then phi2
equals applying the matrix product phi1*phi2 in one step.

Module equality is decided exactly for number-field entries by comparing the
Hermite normal forms of the coordinate row spans over a common denominator.
Projectivization divides out the first period; its kernel is exactly the
positive scalings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import _intmat
from .bratteli import BratteliDiagram, toric_diagram
from .contfrac import Mat2Z, TailEquivalenceReport, cf_tail_equivalent, mobius_apply
from .jacobi_perron import JPExpansion, JPLimitReport, jp_expand, jp_limit_check
from .numeric import (
    NumberField,
    NumberFieldElement,
    RealScalar,
    is_exact,
    quotients,
    sign_exact,
)

__all__ = [
    "FunctorBundle",
    "MappingClassElement",
    "NonpositivePeriodError",
    "ProjectivePseudoLattice",
    "PseudoLattice",
    "basis_change",
    "from_projective",
    "functor_covariance_check",
    "functor_map",
    "genus_dimension",
    "module_equal",
    "observation_check",
    "projectivize",
]


class NonpositivePeriodError(ValueError):
    """A basis change mapped the periods out of the positive cone."""


def genus_dimension(g: int) -> int:
    """Rank of the period module: 2 at genus 1, 6g-6 for g >= 2."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    return 2 if g == 1 else 6 * g - 6


@dataclass(frozen=True)
class PseudoLattice:
    """A positive period vector of rank n."""

    periods: Tuple[RealScalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "periods", tuple(self.periods))
        if not self.periods:
            raise ValueError("a pseudo-lattice needs at least one period")
        for lam in self.periods:
            if sign_exact(lam) <= 0:
                raise NonpositivePeriodError(f"period {lam!r} is not positive")

    @property
    def n(self) -> int:
        return len(self.periods)


@dataclass(frozen=True)
class ProjectivePseudoLattice:
    """The scale-normalized form (1, theta_1, ..., theta_{n-1})."""

    theta: Tuple[RealScalar, ...]

    @property
    def n(self) -> int:
        return len(self.theta) + 1


@dataclass(frozen=True)
class MappingClassElement:
    """A matrix in GL_n(Z) acting on pseudo-lattice bases."""

    m: _intmat.IntMatrix

    def __post_init__(self):
        m = _intmat.freeze(self.m)
        object.__setattr__(self, "m", m)
        if any(len(row) != len(m) for row in m):
            raise ValueError("mapping class matrices must be square")
        if abs(_intmat.det(m)) != 1:
            raise ValueError("mapping class matrices must have determinant +-1")

    @property
    def n(self) -> int:
        return len(self.m)

    def __matmul__(self, other: "MappingClassElement") -> "MappingClassElement":
        return MappingClassElement(_intmat.matmul(self.m, other.m))


def basis_change(pl: PseudoLattice, phi: MappingClassElement) -> PseudoLattice:
    """New periods lambda'_j = sum_i a_ij lambda_i.

    Raises NonpositivePeriodError when the image leaves the positive cone;
    the sign violation is reported, never silently repaired.
    """
    if phi.n != pl.n:
        raise ValueError(f"matrix rank {phi.n} does not match lattice rank {pl.n}")
    new = []
    for j in range(pl.n):
        acc = None
        for i in range(pl.n):
            a = phi.m[i][j]
            if a == 0:
                continue
            term = pl.periods[i] * a if a != 1 else pl.periods[i]
            acc = term if acc is None else acc + term
        if acc is None or sign_exact(acc) <= 0:
            raise NonpositivePeriodError(
                f"image period {j + 1} is not positive under {phi.m}")
        new.append(acc)
    return PseudoLattice(tuple(new))


def _common_field(values: Sequence[RealScalar]) -> Optional[NumberField]:
    field = None
    for v in values:
        if isinstance(v, NumberFieldElement):
            if field is None:
                field = v.field
            elif not field.compatible(v.field):
                raise ValueError("periods live in incompatible number fields")
        elif not isinstance(v, (int, Fraction)):
            raise ValueError("module arithmetic requires exact periods "
                             f"(got {type(v).__name__})")
    return field


def _coordinate_rows(pl: PseudoLattice, field: Optional[NumberField]):
    d = field.degree if field is not None else 1
    rows = []
    for lam in pl.periods:
        if isinstance(lam, NumberFieldElement):
            rows.append(tuple(lam.coords))
        else:
            rows.append((Fraction(lam),) + (Fraction(0),) * (d - 1))
    return rows


def module_equal(pl1: PseudoLattice, pl2: PseudoLattice) -> bool:
    """Exact equality of Z*lambda_1 + ... + Z*lambda_n as subgroups of R.

    Both period vectors must have entries in one common number field (or be
    rational).  Each period becomes a rational coordinate row; after clearing
    one denominator shared by both sides, equality of the integer row spans
    is decided by comparing canonical Hermite normal forms.
    """
    field = _common_field(pl1.periods + pl2.periods)
    rows1 = _coordinate_rows(pl1, field)
    rows2 = _coordinate_rows(pl2, field)
    den = math.lcm(*(v.denominator for row in rows1 + rows2 for v in row))
    int1 = [[int(v * den) for v in row] for row in rows1]
    int2 = [[int(v * den) for v in row] for row in rows2]
    return _intmat.hnf_rows(int1) == _intmat.hnf_rows(int2)


def projectivize(pl: PseudoLattice) -> ProjectivePseudoLattice:
    """(lambda_1, ..., lambda_n) -> (1, lambda_2/lambda_1, ..., lambda_n/lambda_1)."""
    return ProjectivePseudoLattice(theta=quotients(pl.periods[1:], pl.periods[0]))


def from_projective(ppl: ProjectivePseudoLattice, scale: RealScalar) -> PseudoLattice:
    """Inverse of projectivize given the first period; scale must be positive."""
    if sign_exact(scale) <= 0:
        raise NonpositivePeriodError("the scale must be positive")
    return PseudoLattice((scale,) + tuple(scale * t for t in ppl.theta))


@dataclass(frozen=True)
class FunctorBundle:
    """Everything the object map produces for one pseudo-lattice."""

    ppl: ProjectivePseudoLattice
    expansion: JPExpansion
    diagram: BratteliDiagram
    convergence: Optional[JPLimitReport]
    certificate: str  # "terminated" | "periodic" | "horizon"

    def to_json_dict(self) -> dict:
        from .numeric import scalar_to_json

        return {
            "ppl": [scalar_to_json(t) for t in self.ppl.theta],
            "digits": [list(d) for d in self.expansion.digits],
            "expansion": self.expansion.to_json_dict(),
            "diagram": self.diagram.to_json_dict(),
            "convergence": (self.convergence.to_json_dict()
                            if self.convergence is not None else None),
            "certificate": self.certificate,
        }


def functor_map(pl: PseudoLattice, g: int, depth: int = 50,
                tol: Fraction = Fraction(1, 10 ** 10)) -> FunctorBundle:
    """The object map: projectivize, expand, certify convergence, build the diagram.

    The diagram is only produced together with a convergence certificate:
    terminating and periodic expansions certify themselves, anything else
    needs a positive finite-horizon convergence report (and is labelled as
    horizon evidence, not proof).
    """
    n = genus_dimension(g)
    if pl.n != n:
        raise ValueError(f"lattice rank {pl.n} does not match genus {g} (n = {n})")
    for lam in pl.periods:
        if not is_exact(lam):
            raise ValueError("the functor pipeline requires exact periods")
    ppl = projectivize(pl)
    expansion = jp_expand(ppl.theta, depth)
    report = jp_limit_check(expansion, ppl.theta, depth=len(expansion.digits), tol=tol)
    if expansion.terminated:
        certificate = "terminated"
    elif expansion.period is not None:
        certificate = "periodic"
    else:
        certificate = "horizon"
    diagram = toric_diagram(expansion, g, convergence=report)
    return FunctorBundle(ppl=ppl, expansion=expansion, diagram=diagram,
                         convergence=report, certificate=certificate)


def functor_covariance_check(pl: PseudoLattice, phi1: MappingClassElement,
                             phi2: MappingClassElement) -> bool:
    """Verify that successive basis changes compose like the matrix product.

    Applying phi1 and then phi2 must equal applying phi1 @ phi2 entrywise,
    and all three lattices must span the same module.  Any sign violation
    along the way propagates as NonpositivePeriodError.
    """
    step = basis_change(basis_change(pl, phi1), phi2)
    composed = basis_change(pl, phi1 @ phi2)
    for a, b in zip(step.periods, composed.periods):
        if not _scalars_equal(a, b):
            return False
    return (module_equal(pl, composed) and module_equal(step, composed)
            and module_equal(pl, step))


def _scalars_equal(a: RealScalar, b: RealScalar) -> bool:
    if isinstance(a, NumberFieldElement) or isinstance(b, NumberFieldElement):
        return a == b
    return Fraction(a) == Fraction(b)


def observation_check(theta: RealScalar, m: Mat2Z, depth: int = 200,
                      max_offset: int = 40) -> TailEquivalenceReport:
    """Tail equivalence of theta and (a*theta+b)/(c*theta+d) for det +1 matrices.

    For quadratic theta the verdict is a proof (periods are detected
    exactly); otherwise it is evidence at the stated depth.
    """
    if m.det() != 1:
        raise ValueError("the observation concerns matrices of determinant +1")
    if not is_exact(theta):
        raise ValueError("theta must be exact")
    if isinstance(theta, (int, Fraction)) or (
            isinstance(theta, NumberFieldElement) and theta.is_rational()):
        raise ValueError("theta must be irrational")
    theta_prime = mobius_apply(m, theta)
    return cf_tail_equivalent(theta, theta_prime, depth=depth, max_offset=max_offset)
