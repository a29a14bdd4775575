import io
import json
import os
import subprocess
import sys

import pytest

from foliation_af import _intmat
from foliation_af.cli import _run, parse_polynomial
from foliation_af.contfrac import Mat2Z

from cli_cases import GOLDEN_CASES

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(argv):
    buf = io.StringIO()
    code = _run([a.replace("GOLDEN_DIR", GOLDEN_DIR) for a in argv], buf)
    return code, buf.getvalue()


class TestPolynomialParser:
    def test_basic(self):
        assert parse_polynomial("x^2-2") == (-2, 0, 1)
        assert parse_polynomial("x^2-x-1") == (-1, -1, 1)
        assert parse_polynomial("x^6-x-1") == (-1, -1, 0, 0, 0, 0, 1)
        assert parse_polynomial("2x^2+3x-5") == (-5, 3, 2)
        assert parse_polynomial("x") == (0, 1)

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_polynomial("x^")


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(name, argv):
    code, text = run_cli(argv)
    assert code == 0
    with open(os.path.join(GOLDEN_DIR, f"cli_{name}.out"), "r", encoding="utf-8") as fh:
        assert text == fh.read()


def test_jp_single_component_degenerates_to_cf():
    code, text = run_cli(["jp", "1/2"])
    assert code == 0
    doc = json.loads(text)
    assert doc["expansion"]["n"] == 2
    assert doc["expansion"]["digits"] == [[0], [2]]
    cf_code, cf_text = run_cli(["cf", "1/2"])
    assert [d[0] for d in doc["expansion"]["digits"]] == \
        json.loads(cf_text)["expansion"]["digits"]


def test_af_compare_two_scalars():
    sqrt2 = json.dumps({"min_poly": [-2, 0, 1], "coords": ["0", "1"],
                        "embedding": ["1", "2"]})
    shifted = json.dumps({"min_poly": [-2, 0, 1], "coords": ["1", "1"],
                          "embedding": ["1", "2"]})
    code, text = run_cli(["af", "compare", sqrt2, shifted])
    assert code == 0
    doc = json.loads(text)
    assert doc["report"]["equivalent"] is True and doc["report"]["proven"] is True


def test_af_compare_two_rationals():
    code, text = run_cli(["af", "compare", "7/3", "5/3"])
    assert code == 0
    doc = json.loads(text)
    assert doc["report"]["equivalent"] is True and doc["report"]["proven"] is True


def test_af_compare_short_rational_with_long_rational():
    # 7/3 has 2 digits, F60/F59 has 58: the common tail lies past the offset bound
    code, text = run_cli(["af", "compare", "7/3", "1548008755920/956722026041"])
    assert code == 0
    doc = json.loads(text)
    assert doc["report"]["equivalent"] is True and doc["report"]["proven"] is True


def test_cf_makes_one_product_per_convergent(monkeypatch):
    calls = []
    real_matmul, real_mat2z = _intmat.matmul, Mat2Z.__matmul__
    monkeypatch.setattr(_intmat, "matmul", lambda a, b: calls.append(1) or real_matmul(a, b))
    monkeypatch.setattr(Mat2Z, "__matmul__", lambda a, b: calls.append(1) or real_mat2z(a, b))
    code, text = run_cli(["cf", "--poly", "x^2-2", "--embed", "1,2", "--depth", "200"])
    assert code == 0 and len(json.loads(text)["convergents"]) == 200
    assert len(calls) <= 200


class TestExitCodes:
    def test_parse_error(self):
        code, _ = run_cli(["cf", "not-a-number"])
        assert code == 1

    def test_usage_error(self):
        code, _ = run_cli(["cf"])
        assert code == 1

    def test_unknown_command(self):
        code, _ = run_cli(["frobnicate"])
        assert code == 1

    def test_indeterminate(self):
        code, _ = run_cli(["cf", '{"lo":"141/100","hi":"142/100","precision":12}',
                           "--depth", "30"])
        assert code == 2

    def test_require_proof_on_horizon_verdict(self):
        # a cubic irrational never shows a period, so the verdict stays evidence
        code, text = run_cli(["af", "compare", "--poly", "x^3-2", "--embed", "1,2",
                              "--mobius", "1,1,0,1", "--depth", "60",
                              "--require-proof"])
        assert code == 3
        doc = json.loads(text)
        assert doc["report"]["equivalent"] is True
        assert doc["report"]["proven"] is False

    def test_require_proof_satisfied(self):
        code, _ = run_cli(["af", "compare", "--poly", "x^2-2", "--embed", "1,2",
                           "--mobius", "1,1,0,1", "--require-proof"])
        assert code == 0


class TestDeterminism:
    def test_in_process_repeat(self):
        for name, argv in GOLDEN_CASES:
            a = run_cli(argv)
            b = run_cli(argv)
            assert a == b

    def test_subprocess_byte_identical(self):
        cmd = [sys.executable, "-m", "foliation_af", "af", "functor", "--genus", "1",
               "--field", "x^2-x-1", "--embed", "1,2", "--lambda", "1",
               "--lambda", "0,1", "--depth", "6"]
        env = dict(os.environ, PYTHONHASHSEED="random")
        first = subprocess.run(cmd, capture_output=True, env=env)
        second = subprocess.run(cmd, capture_output=True, env=env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


class TestBatch:
    def test_order_preserved(self, tmp_path):
        requests = [
            {"argv": ["cf", "7/3"]},
            {"argv": ["cf", "13/5"]},
            {"argv": ["cf", "not-a-number"]},
        ]
        path = tmp_path / "batch.ndjson"
        path.write_text("\n".join(json.dumps(r) for r in requests) + "\n")
        code, text = run_cli(["batch", str(path)])
        lines = [json.loads(line) for line in text.splitlines()]
        assert len(lines) == 3
        assert lines[0]["exit"] == 0
        assert lines[0]["output"]["expansion"]["digits"] == [2, 3]
        assert lines[1]["output"]["expansion"]["digits"] == [2, 1, 1, 2]
        assert lines[2]["exit"] == 1
        assert code == 1  # worst exit status propagates


    def test_malformed_line_isolated(self, tmp_path):
        good = [json.dumps({"argv": ["cf", "7/3"]}), json.dumps({"argv": ["cf", "13/5"]})]
        path = tmp_path / "batch.ndjson"
        path.write_text(f"{good[0]}\nnot json\n{good[1]}\n")
        code, text = run_cli(["batch", str(path)])
        records = text.splitlines()
        assert len(records) == 3
        assert json.loads(records[1]) == {"v": 1, "exit": 1, "output": ""}
        assert code == 1
        # the well-formed lines give the records they give on their own
        alone = tmp_path / "alone.ndjson"
        alone.write_text("\n".join(good) + "\n")
        alone_code, alone_text = run_cli(["batch", str(alone)])
        assert alone_code == 0
        assert [records[0], records[2]] == alone_text.splitlines()

    def test_line_without_argv_list(self, tmp_path):
        path = tmp_path / "batch.ndjson"
        path.write_text('{"args": ["cf", "7/3"]}\n[1, 2]\n{"argv": [7]}\n{"argv": ["cf", "7/3"]}\n')
        code, text = run_cli(["batch", str(path)])
        records = [json.loads(line) for line in text.splitlines()]
        assert [r["exit"] for r in records] == [1, 1, 1, 0]
        assert code == 1


class TestNegativeListValues:
    def test_mobius_with_leading_minus(self):
        base = ["af", "compare", "--poly", "x^2-2", "--embed", "1,2", "--depth", "40"]
        spaced = run_cli(base + ["--mobius", "-1,1,-3,2"])
        joined = run_cli(base + ["--mobius=-1,1,-3,2"])
        assert spaced == joined
        assert spaced[0] == 0
        assert json.loads(spaced[1])["report"]["equivalent"] is True

    def test_negative_embedding(self):
        spaced = run_cli(["cf", "--poly", "x^2-2", "--embed", "-2,-1", "--depth", "4"])
        joined = run_cli(["cf", "--poly", "x^2-2", "--embed=-2,-1", "--depth", "4"])
        assert spaced == joined
        assert spaced[0] == 0


class TestEnvPrecision:
    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv("FOLIATION_AF_PRECISION", "64")
        code, text = run_cli(["af", "trace", "--digits", "[[1],[1],[1]]",
                              "--level", "3"])
        assert code == 0
        assert json.loads(text)["trace"]["precision"] == 64

    def test_env_var_garbage(self, monkeypatch):
        monkeypatch.setenv("FOLIATION_AF_PRECISION", "lots")
        code, _ = run_cli(["cf", "7/3"])
        assert code == 1


class TestRunConfig:
    def test_validation(self):
        from foliation_af.cli import RunConfig

        with pytest.raises(ValueError):
            RunConfig(precision=4)
        with pytest.raises(ValueError):
            RunConfig(depth=0)
        with pytest.raises(ValueError):
            RunConfig(output="yaml")
