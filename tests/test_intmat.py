import io
import json
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from foliation_af._intmat import (
    det,
    hnf_rows,
    identity,
    is_unimodular,
    mat_vec,
    matmul,
    running_products,
)
from foliation_af.cli import _run

from helpers import convergents_oracle, mat_product_oracle, sympy_lattice_form


def test_matmul_identity():
    a = ((1, 2), (3, 4))
    assert matmul(a, identity(2)) == a
    assert matmul(identity(2), a) == a
    assert mat_vec(a, (1, 1)) == (3, 7)


def test_det_against_sympy():
    from sympy import Matrix

    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        assert det(m) == Matrix(m).det()


def _square_matrices(n):
    entries = st.integers(min_value=-5, max_value=5)
    row = st.tuples(*[entries] * n)
    return st.tuples(*[row] * n)


class TestRunningProducts:
    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(_square_matrices(n), max_size=12)))
    @settings(max_examples=150)
    def test_prefixes_match_oracle(self, mats):
        if not mats:
            return
        n = len(mats[0])
        products = list(running_products(mats, identity(n)))
        assert len(products) == len(mats) + 1
        assert products[0] == identity(n)
        for k in range(1, len(mats) + 1):
            # running_products multiplies on the left: m_k . ... . m_1
            assert products[k] == mat_product_oracle(mats[:k][::-1])

    def test_start_matrix(self):
        start = ((2, 1), (1, 1))
        m = ((0, 1), (1, 3))
        assert list(running_products([m, m], start)) == [
            start, matmul(m, start), matmul(m, matmul(m, start))]
        assert list(running_products([], start)) == [start]

    @given(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
           st.integers(min_value=1, max_value=10 ** 4))
    @settings(max_examples=100)
    def test_cf_command_convergents_match_oracle(self, p, q):
        buf = io.StringIO()
        assert _run(["cf", "--", f"{p}/{q}"], buf) == 0
        doc = json.loads(buf.getvalue())
        ps, qs = convergents_oracle(doc["expansion"]["digits"])
        assert doc["convergents"] == [str(Fraction(a, b)) for a, b in zip(ps, qs)]
        assert doc["convergents"][-1] == str(Fraction(p, q))


def test_unimodular():
    assert is_unimodular(((0, 1), (1, 5)))
    assert not is_unimodular(((2, 0), (0, 1)))


class TestHNF:
    def test_canonical_shape(self):
        form = hnf_rows([[4, 6], [2, 2]])
        # pivots positive, entries above pivots reduced
        assert form == ((2, 0), (0, 2))

    def test_idempotent_and_row_op_invariant(self):
        rng = random.Random(13)
        for _ in range(100):
            rows = [[rng.randint(-8, 8) for _ in range(4)] for _ in range(4)]
            form = hnf_rows(rows)
            assert hnf_rows(form) == form
            # adding a multiple of one row to another preserves the span
            i, j = rng.sample(range(4), 2)
            k = rng.randint(-3, 3)
            modified = [list(r) for r in rows]
            modified[i] = [a + k * b for a, b in zip(modified[i], modified[j])]
            assert hnf_rows(modified) == form

    def test_zero_rows_dropped(self):
        assert hnf_rows([[0, 0], [3, 1]]) == ((3, 1),)
        assert hnf_rows([[0, 0]]) == ()

    def test_equality_agrees_with_sympy(self):
        rng = random.Random(17)
        agreements = 0
        for _ in range(80):
            a = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(4)]
            b = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(4)]
            mine = hnf_rows(a) == hnf_rows(b)
            try:
                oracle = sympy_lattice_form(a) == sympy_lattice_form(b)
            except Exception:
                continue
            assert mine == oracle
            agreements += 1
        assert agreements >= 60

    def test_index_two_sublattice_detected(self):
        a = [[1, 0], [0, 1]]
        b = [[2, 0], [0, 1]]
        assert hnf_rows(a) != hnf_rows(b)
