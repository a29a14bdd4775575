"""Bratteli diagrams, dimension-group telescopes and trace estimates.

A diagram stores its multiplicity matrices explicitly; nothing is recomputed
from digits, so externally supplied digit strings (including non-admissible
ones) can be represented as-is.  The product of the first k matrices is taken
in the order mu_k * ... * mu_1, the order in which they act on dimension
vectors; its transpose then pulls the level-k trace simplex back to level 1,
which makes the normalized simplex images nested and their diameters
monotone.  Cone products are computed once per diagram, as one running
product, so a sweep over L levels takes L matrix products, not L**2 / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import islice
from typing import Optional, Sequence, Tuple

from . import _intmat
from .contfrac import CFExpansion
from .jacobi_perron import (
    ESDivergenceReport,
    JPExpansion,
    JPLimitReport,
    jp_digit_matrix,
)
from .numeric import IntervalReal, _round_down, _round_up

__all__ = [
    "BratteliDiagram",
    "DimensionGroupTelescope",
    "DivergentExpansionError",
    "TraceReport",
    "diagram_from_digits",
    "dimension_vectors",
    "effros_shen_diagram",
    "export_dot",
    "positive_cone_generators",
    "telescope",
    "toric_diagram",
    "unique_trace_estimate",
]


class DivergentExpansionError(ValueError):
    """Refusal to build a toric diagram from a divergent or uncertified expansion."""


@dataclass(frozen=True)
class BratteliDiagram:
    """n vertices per level, multiplicity matrices mu_k, and the root fan-out.

    mu_k[i][j] is the number of edges between vertex j at level k and vertex i
    at level k+1, so dimension vectors transform as dims -> mu_k . dims.
    """

    n: int
    mu: Tuple[_intmat.IntMatrix, ...]
    root_edges: Tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if len(self.root_edges) != self.n:
            raise ValueError("root_edges must have length n")
        if any(r < 0 for r in self.root_edges):
            raise ValueError("root edge multiplicities must be non-negative")
        for k, m in enumerate(self.mu, start=1):
            if len(m) != self.n or any(len(row) != self.n for row in m):
                raise ValueError(f"mu_{k} is not {self.n}x{self.n}")
            for row in m:
                if any(v < 0 for v in row):
                    raise ValueError(f"mu_{k} has a negative entry")
                if all(v == 0 for v in row):
                    raise ValueError(f"mu_{k} has a zero row (vertex receives no edge)")

    @property
    def levels(self) -> int:
        return len(self.mu)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "root_edges": list(self.root_edges),
            "mu": [[list(row) for row in m] for m in self.mu],
        }


@dataclass(frozen=True)
class DimensionGroupTelescope:
    """Partial products of the multiplicity matrices and the dimension vectors."""

    n: int
    cone_generators_at_level: Tuple[_intmat.IntMatrix, ...]
    dims: Tuple[Tuple[int, ...], ...]


def effros_shen_diagram(cf: CFExpansion, depth: Optional[int] = None) -> BratteliDiagram:
    """The rank-2 diagram with mu_k = (0 1; 1 a_{k-1}) over the digits of cf."""
    digits = cf.digits if depth is None else cf.digits[:depth]
    if depth is not None and depth > len(cf.digits) and cf.period is not None:
        digits = tuple(cf.digit(i) for i in range(depth))
    if digits and digits[0] < 0:
        raise ValueError("the leading digit must be non-negative for a diagram")
    mu = tuple(jp_digit_matrix((a,), 2) for a in digits)
    return BratteliDiagram(n=2, mu=mu, root_edges=(1, 1))


def diagram_from_digits(digits: Sequence[Sequence[int]], n: Optional[int] = None,
                        root_edges: Optional[Sequence[int]] = None) -> BratteliDiagram:
    """Diagram with mu_k = digit matrix of digits[k-1]; root fans out with 1s."""
    digits = [tuple(int(b) for b in d) for d in digits]
    if n is None:
        if not digits:
            raise ValueError("cannot infer n from an empty digit list")
        n = len(digits[0]) + 1
    mu = tuple(jp_digit_matrix(d, n) for d in digits)
    root = tuple(root_edges) if root_edges is not None else (1,) * n
    return BratteliDiagram(n=n, mu=mu, root_edges=root)


def toric_diagram(e: JPExpansion, g: int, convergence=None) -> BratteliDiagram:
    """Diagram of the rank-(6g-6) algebra (rank 2 at genus 1) of a convergent expansion.

    The expansion must come with convergence evidence: a terminating or
    periodic expansion certifies itself, otherwise a positive JPLimitReport
    must be supplied.  A certified-divergent report is refused outright: such
    an expansion defines an AF-algebra, but not one of this class.
    """
    from .lattice import genus_dimension  # local import to avoid a cycle

    if isinstance(convergence, ESDivergenceReport) and convergence.certified_divergent:
        raise DivergentExpansionError(
            "expansion is certified divergent; it does not define a toric diagram")
    n = genus_dimension(g)
    if e.n != n:
        raise ValueError(f"expansion dimension {e.n} does not match genus {g} (n = {n})")
    self_certified = e.terminated or e.period is not None
    if not self_certified:
        if not isinstance(convergence, JPLimitReport):
            raise DivergentExpansionError(
                "no convergence certificate: pass a jp_limit_check report")
        if not convergence.converged:
            raise DivergentExpansionError(
                "the supplied convergence report is negative")
    mu = tuple(jp_digit_matrix(d, n) for d in e.digits)
    return BratteliDiagram(n=n, mu=mu, root_edges=(1,) * n)


def dimension_vectors(d: BratteliDiagram, upto: int):
    """dims_0 = root_edges, dims_{k+1} = mu_{k+1} . dims_k, for k <= upto."""
    if upto < 0:
        raise ValueError("upto must be >= 0")
    if upto > d.levels:
        raise ValueError(f"diagram has {d.levels} levels, requested {upto}")
    dims = [tuple(d.root_edges)]
    for k in range(upto):
        dims.append(_intmat.mat_vec(d.mu[k], dims[-1]))
    return dims


def _cones(d: BratteliDiagram, level: int):
    """The cone products mu_k . ... . mu_1 for k = 0..level at least, built once.

    The list lives in the instance ``__dict__``, outside the dataclass fields,
    so equality, hashing and JSON ignore it and ``dataclasses.replace`` starts
    afresh; a deeper request extends it from its last product.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    if level > d.levels:
        raise ValueError(f"diagram has {d.levels} levels, requested {level}")
    cones = d.__dict__.setdefault("_cones", [_intmat.identity(d.n)])
    if len(cones) <= level:
        cones.extend(islice(_intmat.running_products(d.mu[len(cones) - 1:level], cones[-1]),
                            1, None))
    return cones


def positive_cone_generators(d: BratteliDiagram, level: int) -> _intmat.IntMatrix:
    """mu_level . ... . mu_1; its columns generate the level-k cone image.

    The empty product (level 0) is the identity.  Applied to root_edges this
    reproduces the dimension vector at the level, and its transpose maps the
    standard simplex onto the level-k trace constraints.
    """
    return _cones(d, level)[level]


def telescope(d: BratteliDiagram, upto: int) -> DimensionGroupTelescope:
    dims = tuple(dimension_vectors(d, upto))
    return DimensionGroupTelescope(
        n=d.n,
        cone_generators_at_level=tuple(_cones(d, upto)[:upto + 1]),
        dims=dims,
    )


@dataclass(frozen=True)
class TraceReport:
    level: int
    precision: int
    state_vector: Tuple[IntervalReal, ...]
    center: Tuple[Fraction, ...]
    diameter: Fraction

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "precision": self.precision,
            "state_lo": [str(s.lo) for s in self.state_vector],
            "state_hi": [str(s.hi) for s in self.state_vector],
            "center": [str(c) for c in self.center],
            "diameter": str(self.diameter),
        }


def unique_trace_estimate(d: BratteliDiagram, level: int, precision: int = 128) -> TraceReport:
    """Trace estimate from the level-k simplex image.

    The transpose of mu_level ... mu_1 maps the standard simplex onto the
    set of level-1 trace restrictions compatible with level k; its vertices
    are the normalized columns.  Reported are the per-coordinate ranges (an
    interval vector containing every compatible trace), their box center as
    the estimate, and the sup-metric diameter.  The diameter is nonincreasing
    in the level and tends to 0 exactly when the trace is unique.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    rows = _cones(d, level)[level]  # row j over its sum is vertex j
    totals = [sum(row) for row in rows]
    if 0 in totals:
        raise ValueError(f"zero column {totals.index(0)} encountered (malformed diagram)")
    state, center, diameter = [], [], Fraction(0)
    for i in range(d.n):
        # a/s < b/t as a*t < b*s: Fractions only for the two chosen vertices
        key = cmp_to_key(lambda j, k: rows[j][i] * totals[k] - rows[k][i] * totals[j])
        lo_j, hi_j = min(range(d.n), key=key), max(range(d.n), key=key)
        lo, hi = Fraction(rows[lo_j][i], totals[lo_j]), Fraction(rows[hi_j][i], totals[hi_j])
        state.append(IntervalReal(_round_down(lo, precision), _round_up(hi, precision), precision))
        center.append((lo + hi) / 2)
        diameter = max(diameter, hi - lo)
    return TraceReport(level=level, precision=precision, state_vector=tuple(state),
                       center=tuple(center), diameter=diameter)


def export_dot(d: BratteliDiagram) -> str:
    """Deterministic DOT rendering: ranked levels, multiplicities as labels."""
    lines = ["digraph bratteli {", "  rankdir=LR;", "  node [shape=circle, label=\"\"];",
             "  root [shape=point];"]
    if d.levels == 0:
        lines.append("}")
        return "\n".join(lines) + "\n"
    for rank in range(1, d.levels + 2):
        names = "; ".join(f"v{rank}_{i}" for i in range(d.n))
        lines.append(f"  {{ rank=same; {names}; }}")
    for i in range(d.n):
        if d.root_edges[i]:
            lines.append(f"  root -> v1_{i} [label=\"{d.root_edges[i]}\"];")
    for k, m in enumerate(d.mu, start=1):
        for i in range(d.n):
            for j in range(d.n):
                if m[i][j]:
                    lines.append(f"  v{k}_{j} -> v{k + 1}_{i} [label=\"{m[i][j]}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
