import dataclasses
import json
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_af import _intmat
from foliation_af._intmat import det, identity, mat_vec
from foliation_af.bratteli import (
    BratteliDiagram,
    DivergentExpansionError,
    diagram_from_digits,
    dimension_vectors,
    effros_shen_diagram,
    export_dot,
    positive_cone_generators,
    telescope,
    toric_diagram,
    unique_trace_estimate,
)
from foliation_af.contfrac import cf_expand
from foliation_af.jacobi_perron import (
    JPExpansion,
    effros_shen_divergent,
    effros_shen_expansion,
    jp_digit_matrix,
    jp_expand,
    jp_limit_check,
)
from foliation_af.numeric import algebraic_root, to_interval

from helpers import convergents_oracle, mat_product_oracle

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
PHI = algebraic_root((-1, -1, 1), 1, 2)


def _golden(name):
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
        return fh.read()


class TestEffrosShenDiagram:
    def test_golden_ratio(self):
        d = effros_shen_diagram(cf_expand(PHI, 5), 5)
        assert d.levels == 5
        assert all(m == ((0, 1), (1, 1)) for m in d.mu)
        assert d.root_edges == (1, 1)

    def test_rational(self):
        d = effros_shen_diagram(cf_expand(Fraction(7, 3)))
        assert d.levels == 2
        assert d.mu == (((0, 1), (1, 2)), ((0, 1), (1, 3)))

    def test_depth_zero(self):
        d = effros_shen_diagram(cf_expand(PHI, 5), 0)
        assert d.levels == 0

    def test_negative_digit_rejected(self):
        from foliation_af.contfrac import CFExpansion

        e = CFExpansion((-1, 2, 2), finite=False)
        with pytest.raises(ValueError):
            effros_shen_diagram(e)


class TestToricDiagram:
    def test_genus2_all_ones(self):
        e = JPExpansion(n=6, digits=((1, 1, 1, 1, 1),) * 3, terminated=False,
                        period=(0, 1))
        d = toric_diagram(e, 2)
        assert d.n == 6 and d.levels == 3
        assert all(abs(det(m)) == 1 for m in d.mu)
        assert all(m == d.mu[0] for m in d.mu)

    def test_genus1_degeneration(self):
        e = jp_expand((PHI,), depth=5)
        d = toric_diagram(e, 1)
        assert d == effros_shen_diagram(cf_expand(PHI, 5), 5)

    def test_dimension_mismatch(self):
        e = jp_expand((Fraction(7, 3), Fraction(5, 3)))
        with pytest.raises(ValueError):
            toric_diagram(e, 2)

    def test_divergent_refused(self):
        betas = [2 ** (k + 1) for k in range(1, 11)]
        e = effros_shen_expansion(betas)
        cert = effros_shen_divergent(betas, Fraction(2, 2 ** 11))
        assert cert.certified_divergent
        with pytest.raises(DivergentExpansionError):
            toric_diagram(e, 2, convergence=cert)

    def test_uncertified_refused(self):
        e = JPExpansion(n=2, digits=((1,), (2,)), terminated=False)
        with pytest.raises(DivergentExpansionError):
            toric_diagram(e, 1)

    def test_horizon_report_accepted(self):
        c2 = algebraic_root((-2, 0, 0, 1), 1, 2)
        # dimension-2 slice of a cubic: no period is detected (depth too small)
        e = jp_expand((c2,), depth=12)
        if e.period is None:
            rep = jp_limit_check(e, (c2,), depth=12, tol=Fraction(1, 10 ** 6))
            d = toric_diagram(e, 1, convergence=rep)
            assert d.levels == 12


class TestDimensionVectors:
    def test_golden_fibonacci_pairs(self):
        d = effros_shen_diagram(cf_expand(PHI, 5), 5)
        assert dimension_vectors(d, 4) == [(1, 1), (1, 2), (2, 3), (3, 5), (5, 8)]

    def test_continuant_identity(self):
        # dims_k = (p_{k-2} + q_{k-2}, p_{k-1} + q_{k-1}) over the CF of theta
        rng = random.Random(83)
        for _ in range(50):
            x = Fraction(rng.randint(1, 999), rng.randint(1, 999))
            e = cf_expand(x)
            d = effros_shen_diagram(e)
            dims = dimension_vectors(d, d.levels)
            ps, qs = convergents_oracle(list(e.digits))
            sums = [1, 1] + [p + q for p, q in zip(ps, qs)]
            for k in range(d.levels + 1):
                assert dims[k] == (sums[k], sums[k + 1])

    def test_depth_zero(self):
        d = effros_shen_diagram(cf_expand(PHI, 5), 5)
        assert dimension_vectors(d, 0) == [(1, 1)]

    def test_positive_entries(self):
        d = diagram_from_digits([(0, 1), (2, 3), (0, 1)], n=3)
        for vec in dimension_vectors(d, 3):
            assert all(v >= 1 for v in vec)


class TestConeGenerators:
    def test_empty_product(self):
        d = effros_shen_diagram(cf_expand(PHI, 5), 5)
        assert positive_cone_generators(d, 0) == identity(2)

    def test_golden_fibonacci_matrix(self):
        d = effros_shen_diagram(cf_expand(PHI, 5), 5)
        assert positive_cone_generators(d, 5) == ((3, 5), (5, 8))

    def test_toric_against_oracle(self):
        digits = [(1, 1, 1, 1, 1)] * 3
        d = diagram_from_digits(digits)
        prod = positive_cone_generators(d, 3)
        # order matters: mu_3 . mu_2 . mu_1
        oracle = mat_product_oracle(list(reversed(d.mu)))
        assert prod == oracle
        assert abs(det(prod)) == 1

    def test_telescope_consistency(self):
        rng = random.Random(89)
        for _ in range(20):
            digits = [tuple(rng.randint(0, 3) for _ in range(2)) for _ in range(8)]
            digits = [(a, max(b, 1)) for a, b in digits]
            d = diagram_from_digits(digits, n=3)
            t = telescope(d, 8)
            for k in range(9):
                assert mat_vec(t.cone_generators_at_level[k], d.root_edges) == t.dims[k]


class TestUniqueTrace:
    def test_golden_state(self):
        d = effros_shen_diagram(cf_expand(PHI, 30), 30)
        rep = unique_trace_estimate(d, 30, precision=96)
        # limit state is (1, phi)/(1 + phi) = (1/phi^2, 1/phi)
        phi_box = to_interval(PHI, 96)
        expect0 = 1 / (1 + phi_box)  # 1/phi^2 = 1 - 1/phi ... via intervals
        expect1 = phi_box / (1 + phi_box)
        tol = Fraction(1, 10 ** 10)
        assert abs(rep.center[0] - expect0.midpoint) < tol
        assert abs(rep.center[1] - expect1.midpoint) < tol
        assert rep.diameter < Fraction(1, 10 ** 10)

    def test_example_two_diameter_stays_large(self):
        betas = [2 ** (k + 1) for k in range(1, 41)]
        d = diagram_from_digits(effros_shen_expansion(betas).digits, n=3)
        rep = unique_trace_estimate(d, 40, precision=64)
        assert rep.diameter > Fraction(1, 1000)
        # frozen magnitude: stays above 0.85
        assert rep.diameter > Fraction(85, 100)

    def test_permutation_no_contraction(self):
        d = diagram_from_digits([(0,)], n=2)  # mu_1 = (0 1; 1 0)
        rep = unique_trace_estimate(d, 1, precision=32)
        assert rep.diameter == 1

    def test_diameter_monotone(self):
        rng = random.Random(97)
        digits = [(rng.randint(0, 2), rng.randint(1, 3)) for _ in range(20)]
        d = diagram_from_digits(digits, n=3)
        last = None
        for level in range(1, 21):
            rep = unique_trace_estimate(d, level, precision=64)
            if last is not None:
                assert rep.diameter <= last
            last = rep.diameter

    def test_trace_ratio_reproduces_theta(self):
        # at depth 50 the state ratio matches theta within 2**(3 - precision)
        prec = 64
        for poly, lo, hi in [((-1, -1, 1), 1, 2), ((-2, 0, 1), 1, 2),
                             ((-1, -4, 1), 4, 5)]:
            theta = algebraic_root(poly, lo, hi)
            d = effros_shen_diagram(cf_expand(theta, 50), 50)
            rep = unique_trace_estimate(d, 50, precision=prec)
            ratio = rep.center[1] / rep.center[0]
            box = to_interval(theta, prec)
            assert abs(ratio - box.midpoint) < Fraction(1, 1 << (prec - 3))


class TestExportDot:
    def test_root_only_golden(self):
        d = BratteliDiagram(n=2, mu=(), root_edges=(1, 1))
        assert export_dot(d) == _golden("root_only.dot")

    def test_golden_es_depth2(self):
        d = effros_shen_diagram(cf_expand(PHI, 2), 2)
        assert export_dot(d) == _golden("golden_es_depth2.dot")

    def test_toric_g2_depth1(self):
        d = diagram_from_digits([[1, 1, 1, 1, 1]])
        text = export_dot(d)
        assert text == _golden("toric_g2_depth1.dot")
        assert text.count("root ->") == 6

    def test_deterministic(self):
        d = diagram_from_digits([(1, 2), (0, 1)], n=3)
        assert export_dot(d) == export_dot(d)


class TestDiagramValidation:
    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            BratteliDiagram(n=2, mu=(((0, 0), (1, 1)),), root_edges=(1, 1))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            BratteliDiagram(n=2, mu=(((0, -1), (1, 1)),), root_edges=(1, 1))

    def test_json_round_trip(self):
        d = diagram_from_digits([(1, 2), (0, 1)], n=3)
        doc = d.to_json_dict()
        assert doc["n"] == 3 and len(doc["mu"]) == 2


def _reference_box(product, precision):
    """Trace box of the level-k simplex image with plain Fractions: (lo, hi, center, diameter)."""
    n = len(product)
    vertices = [[Fraction(v, sum(row)) for v in row] for row in product]
    los = [min(v[i] for v in vertices) for i in range(n)]
    his = [max(v[i] for v in vertices) for i in range(n)]
    scale = 2 ** precision
    lo_round = [Fraction(math.floor(x * scale), scale) for x in los]
    hi_round = [Fraction(math.ceil(x * scale), scale) for x in his]
    center = [(lo + hi) / 2 for lo, hi in zip(los, his)]
    diameter = max(hi - lo for lo, hi in zip(los, his))
    return lo_round, hi_round, center, diameter


@st.composite
def _digit_sweeps(draw):
    """Random digits at rank 2-6 with 0-40 levels, and queries in a random level order."""
    n = draw(st.integers(min_value=2, max_value=6))
    levels = draw(st.integers(min_value=0, max_value=40))
    digit = st.lists(st.integers(min_value=0, max_value=4), min_size=n - 1, max_size=n - 1)
    digits = draw(st.lists(digit, min_size=levels, max_size=levels))
    query = st.tuples(st.integers(min_value=0, max_value=levels),
                      st.sampled_from(("cone", "telescope", "trace")))
    queries = draw(st.lists(query, min_size=1, max_size=10))
    precision = draw(st.integers(min_value=1, max_value=200))
    return n, digits, queries, precision


class TestConeCache:
    @given(_digit_sweeps())
    @settings(max_examples=120, deadline=None)
    def test_random_order_queries_match_oracles(self, sweep):
        n, digits, queries, precision = sweep
        d = diagram_from_digits(digits, n=n)
        mats = [jp_digit_matrix(b, n) for b in digits]

        def oracle(level):
            return mat_product_oracle(mats[:level][::-1]) if level else identity(n)

        for level, kind in queries:
            if kind == "cone":
                assert positive_cone_generators(d, level) == oracle(level)
            elif kind == "telescope":
                t = telescope(d, level)
                assert t.cone_generators_at_level == tuple(oracle(k) for k in range(level + 1))
            elif level >= 1:
                report = unique_trace_estimate(d, level, precision)
                lo, hi, center, diameter = _reference_box(oracle(level), precision)
                assert [s.lo for s in report.state_vector] == lo
                assert [s.hi for s in report.state_vector] == hi
                assert list(report.center) == center
                assert report.diameter == diameter
                assert all(s.precision == precision for s in report.state_vector)

    def test_cache_leaves_equality_hash_and_json(self):
        digits = [(1, 2), (0, 1), (2, 3), (1, 1)]
        d = diagram_from_digits(digits, n=3)
        before = json.dumps(d.to_json_dict())
        for level in range(1, d.levels + 1):
            unique_trace_estimate(d, level)
        fresh = diagram_from_digits(digits, n=3)
        assert d == fresh and hash(d) == hash(fresh)
        assert json.dumps(d.to_json_dict()) == before == json.dumps(fresh.to_json_dict())

    def test_replace_does_not_carry_the_cache(self):
        d = diagram_from_digits([(1, 2), (0, 1), (2, 3)], n=3)
        positive_cone_generators(d, 3)
        other = [(3, 3), (1, 0), (0, 2)]
        replaced = dataclasses.replace(d, mu=tuple(jp_digit_matrix(b, 3) for b in other))
        expected = mat_product_oracle([jp_digit_matrix(b, 3) for b in reversed(other)])
        assert positive_cone_generators(replaced, 3) == expected
        assert positive_cone_generators(d, 3) != expected

    def test_trace_sweep_makes_one_product_per_level(self, monkeypatch):
        real = _intmat.matmul
        calls = []
        monkeypatch.setattr(_intmat, "matmul", lambda a, b: calls.append(1) or real(a, b))
        d = diagram_from_digits([(k % 3, 1 + k % 2) for k in range(100)], n=3)
        for level in range(1, 101):
            unique_trace_estimate(d, level)
        assert len(calls) <= 100
