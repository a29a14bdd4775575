"""Self-tests of the benchmark: generators repeat per seed, checks reject bad outputs.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

Each check is first shown to accept the program's real output for one
generated input, then to reject that output with one corruption: a wrong
digit, a wrong convergent, a flipped verdict, a wrong matrix entry.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError  # noqa: E402

FA = run.import_program()


def _make(name, tmp_path):
    return workloads.Batch(tmp_path) if name == "batch" else run.make_workload(name)


@pytest.mark.parametrize("name", ["functor", "diagrams", "batch"])
def test_generator_repeats_for_a_seed(name, tmp_path):
    work = _make(name, tmp_path)
    first = work.generate(5, 3)
    assert first == work.generate(5, 3)
    assert first != work.generate(6, 3)
    json.dumps(first)  # plain data only


def _case(work, seed=1):
    inp = work.generate(seed, 1)[0]
    work.prepare(FA)
    return inp, work.call(work.stage(inp))


# ---------------------------------------------------------------------------
# functor


@pytest.fixture(scope="module")
def functor():
    work = workloads.Functor()
    inp, out = _case(work)
    return work, inp, out


def _with_bundle(out, **changes):
    bad = dict(out)
    bad["bundle"] = dataclasses.replace(out["bundle"], **changes)
    return bad


def test_functor_accepts_real_output(functor):
    work, inp, out = functor
    assert work.check(inp, out) == 0


@pytest.mark.parametrize("key", ["same", "control"])
def test_functor_rejects_flipped_module_verdict(functor, key):
    work, inp, out = functor
    with pytest.raises(CheckError):
        work.check(inp, {**out, key: not out[key]})


def test_functor_rejects_one_wrong_digit(functor):
    work, inp, out = functor
    e = out["bundle"].expansion
    digits = list(e.digits)
    digits[10] = tuple(b + 1 for b in digits[10])
    with pytest.raises(CheckError):
        work.check(inp, _with_bundle(out, expansion=dataclasses.replace(e, digits=tuple(digits))))


def test_functor_rejects_wrong_convergent(functor):
    work, inp, out = functor
    report = out["bundle"].convergence
    ratios = (report.ratios[0] + Fraction(1, 10 ** 9),) + report.ratios[1:]
    with pytest.raises(CheckError):
        work.check(inp, _with_bundle(out, convergence=dataclasses.replace(report, ratios=ratios)))


def test_functor_rejects_wrong_image(functor):
    work, inp, out = functor
    lattice = FA.lattice
    periods = out["image"].periods
    swapped = lattice.PseudoLattice((periods[1], periods[0]) + periods[2:])
    with pytest.raises(CheckError):
        work.check(inp, {**out, "image": swapped})


# ---------------------------------------------------------------------------
# diagrams


@pytest.fixture(scope="module")
def diagrams():
    work = workloads.Diagrams()
    inp, out = _case(work)
    return work, inp, out


def _replace_part(out, key, part, value):
    bad = {k: dict(v) if isinstance(v, dict) else v for k, v in out.items()}
    bad[key][part] = value
    return bad


def _bump(matrix, i, j):
    rows = [list(r) for r in matrix]
    rows[i][j] += 1
    return tuple(map(tuple, rows))


def test_diagrams_accept_real_output(diagrams):
    work, inp, out = diagrams
    assert work.check(inp, out) == 0


@pytest.mark.parametrize("key", ["rank6", "rank2"])
def test_diagrams_reject_wrong_cone_product(diagrams, key):
    work, inp, out = diagrams
    tel = out[key]["telescope"]
    cones = list(tel.cone_generators_at_level)
    cones[5] = _bump(cones[5], 0, 0)
    bad_tel = dataclasses.replace(tel, cone_generators_at_level=tuple(cones))
    with pytest.raises(CheckError):
        work.check(inp, _replace_part(out, key, "telescope", bad_tel))


def test_diagrams_reject_wrong_dimension_vector(diagrams):
    work, inp, out = diagrams
    dims = list(out["rank2"]["dims"])
    dims[7] = (dims[7][0] + 1, dims[7][1])
    with pytest.raises(CheckError):
        work.check(inp, _replace_part(out, "rank2", "dims", dims))


def test_diagrams_reject_growing_trace_diameter(diagrams):
    work, inp, out = diagrams
    traces = list(out["rank6"]["traces"])
    traces[-2], traces[-1] = traces[-1], traces[0]
    with pytest.raises(CheckError):
        work.check(inp, _replace_part(out, "rank6", "traces", traces))


def test_diagrams_reject_wrong_dot_label(diagrams):
    work, inp, out = diagrams
    dot = out["rank2"]["dot"].replace('label="1"];', 'label="2"];', 1)
    with pytest.raises(CheckError):
        work.check(inp, _replace_part(out, "rank2", "dot", dot))


def test_diagrams_reject_wrong_jp_convergent(diagrams):
    work, inp, out = diagrams
    states = list(out["convergents"])
    state = states[9]
    columns = (tuple(v + 1 for v in state.columns[0]),) + state.columns[1:]
    states[9] = dataclasses.replace(state, columns=columns)
    with pytest.raises(CheckError):
        work.check(inp, {**out, "convergents": states})


# ---------------------------------------------------------------------------
# batch


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    work = workloads.Batch(tmp_path_factory.mktemp("batch"))
    inp, out = _case(work)
    return work, inp, out


def _corrupt(inp, out, kind, edit):
    """Apply edit(record) to the record of the request of this kind."""
    index = [r["kind"] for r in inp].index(kind)
    records = [json.loads(line) for line in out["stdout"].splitlines()]
    edit(records[index])
    return {**out, "stdout": "".join(json.dumps(r) + "\n" for r in records)}


def _bump_list(values, i):
    values[i] = str(Fraction(values[i]) + 1) if isinstance(values[i], str) else values[i] + 1


def test_batch_accepts_real_output_and_counts_the_known_failure(batch):
    work, inp, out = batch
    assert work.check(inp, out) == 1


CORRUPTIONS = {
    "cf_rational": lambda r: _bump_list(r["output"]["expansion"]["digits"], 2),
    "cf_quadratic": lambda r: _bump_list(r["output"]["convergents"], 3),
    "cf_cubic": lambda r: _bump_list(r["output"]["expansion"]["digits"], 5),
    "jp_rational": lambda r: _bump_list(r["output"]["limit"]["ratios"], 1),
    "af_trace": lambda r: r["output"]["trace"].update(diameter="1/3"),
    "af_functor": lambda r: r["output"]["digits"][4].__setitem__(0, 99),
    "af_compare_mobius": lambda r: r["output"]["report"].update(equivalent=False),
    "af_build_dot": lambda r: r.update(output=r["output"].replace('label="1"', 'label="7"', 2)),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_batch_rejects_a_corrupted_record(batch, kind):
    work, inp, out = batch
    with pytest.raises(CheckError):
        work.check(inp, _corrupt(inp, out, kind, CORRUPTIONS[kind]))


def test_batch_rejects_an_unexpected_failure(batch):
    work, inp, out = batch
    with pytest.raises(CheckError):
        work.check(inp, _corrupt(inp, out, "cf_quadratic", lambda r: r.update(exit=1)))


def test_batch_rejects_an_unproven_rational_compare(batch):
    work, inp, out = batch
    verdict = {"report": {"equivalent": True, "proven": False}}
    with pytest.raises(CheckError):
        work.check(inp, _corrupt(inp, out, "af_compare_rationals",
                                 lambda r: r.update(exit=0, output=verdict)))
