import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from omlie.algebra import MAX_DIM, commutator_algebra
from omlie.catalog import instantiate
from omlie.cli import run_command, theorem_targets
from omlie.fields import QQ
from omlie.fileformat import parse_algebra_text

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "report.schema.json"
SRC_PATH = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def schema():
    return json.loads(SCHEMA_PATH.read_text())


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def validate(schema, doc):
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(doc, schema)


def write_family(tmp_path, name, filename, params=(), field=None):
    argv = ["catalog", "emit", "--family", name, "--output", str(tmp_path / filename)]
    for p in params:
        argv += ["--param", p]
    if field:
        argv += ["--field", field]
    code = run_command(argv)
    assert code == 0
    return str(tmp_path / filename)


class TestCatalogCommands:
    def test_list_has_twelve_entries(self, capsys, schema):
        code, doc, _ = run_json(capsys, "catalog", "list")
        assert code == 0
        assert len(doc["report"]["entries"]) == 12
        validate(schema, doc)

    def test_list_kind_filter(self, capsys):
        code, doc, _ = run_json(capsys, "catalog", "list", "--kind", "lsa")
        assert code == 0
        assert [e["name"] for e in doc["report"]["entries"]] == ["LSA3-1", "LSA3-2"]

    def test_emit_then_perfect(self, capsys, tmp_path):
        path = write_family(tmp_path, "B", "b.alg")
        code, doc, _ = run_json(capsys, "perfect", path)
        assert code == 0
        assert doc["verdict"] == "true"
        assert doc["report"]["derived_dimension"] == 3

    def test_emit_round_trips(self, capsys, tmp_path):
        path = write_family(tmp_path, "P1", "p1.alg", params=["a=2", "h1=h0+f1"])
        algebra = parse_algebra_text(Path(path).read_text())
        assert algebra == instantiate("P1", {"a": "2", "h1": "h0+f1"}, QQ)

    def test_emit_bad_family_exit_2(self, capsys):
        code, out, err = run(capsys, "catalog", "emit", "--family", "Nope")
        assert code == 2 and "unknown family" in err

    def test_emit_side_condition_exit_2(self, capsys):
        code, _, err = run(capsys, "catalog", "emit", "--family", "C_alpha", "--param", "alpha=0")
        assert code == 2 and "alpha" in err

    @pytest.mark.parametrize(
        "family,param,named",
        [("B", "bogus=3", "none"), ("P1", "dim=2", "dim_h1"), ("LSA3-1", "alpha=1", "a1, a2, a3")],
    )
    def test_emit_unknown_param_exit_2(self, capsys, family, param, named):
        code, out, err = run(capsys, "catalog", "emit", "--family", family, "--param", param)
        assert code == 2 and out == ""
        assert repr(param.split("=")[0]) in err and named in err

    @pytest.mark.parametrize("family,param", [("P1", "dim_h1"), ("P2", "dim_h")])
    def test_emit_past_the_dimension_ceiling_exit_2(self, capsys, family, param):
        # rejected before any table is built: a dim^3 tensor would not fit
        started = time.perf_counter()
        argv = ["catalog", "emit", "--family", family, "--param", f"{param}={10**8}"]
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - started < 1
        assert code == 2 and out == "" and f"{param} <= {MAX_DIM - 3}" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("Q(alpha)", "alpha^400000000*x", "alpha-degree above 256"),
            ("Q", "10^9999999999*x", "more than 4096 bits"),
        ],
    )
    def test_file_with_an_oversized_scalar_exit_2(self, tmp_path, field, value, message):
        # Computed, either power would exhaust memory or run for minutes; the
        # parser refuses it first.  Run apart, with 1.5 GB of address space
        # and a time-out, so a regression fails here and goes no further.
        resource = pytest.importorskip("resource")
        path = tmp_path / "big.alg"
        path.write_text(f"kind = lie\nfield = {field}\ndim = 2\nbasis = x, y\n[brackets]\nx,y = {value}\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_PATH), env.get("PYTHONPATH")]))
        limit = 1500 * 2**20

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        done = subprocess.run([sys.executable, "-m", "omlie", "check", str(path)], capture_output=True,
                              text=True, env=env, timeout=60, preexec_fn=cap)
        assert done.returncode == 2 and done.stdout == ""
        assert f"line 6: scalar of {message}" in done.stderr and "Traceback" not in done.stderr

    def test_file_past_the_dimension_ceiling_exit_2(self, capsys, tmp_path):
        path = tmp_path / "big.alg"
        path.write_text(f"kind = lie\nfield = Q\ndim = {10**8}\nbasis = e\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2 and f"largest supported dimension {MAX_DIM}" in err


class TestCheckCommand:
    def test_valid_file_exits_zero(self, capsys, tmp_path):
        path = write_family(tmp_path, "A_alpha", "a.alg", field="Q(alpha)")
        code, doc, _ = run_json(capsys, "check", path)
        assert code == 0 and doc["verdict"] == "PASS"

    def test_invalid_file_exits_one_with_failures(self, capsys, tmp_path, schema):
        bad = tmp_path / "bad.alg"
        bad.write_text(
            "kind = lie\nfield = Q\ndim = 3\nbasis = x, y, z\n\n[brackets]\n"
            "x,y = x\nx,z = x + y\ny,z = z + 2*x\n\n[omega]\ny,z = 1\n"
        )
        code, doc, _ = run_json(capsys, "check", str(bad))
        assert code == 1
        assert doc["verdict"] == "FAIL"
        assert doc["report"]["failures"][0]["at"] == ["x", "y", "z"]
        assert doc["report"]["failures"][0]["residual"] == "-2*x"
        validate(schema, doc)

    def test_syntax_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "syntax.alg"
        bad.write_text("kind = lie\nfield = Q\ndim = 1\nbasis = u\n\n[omega]\nu = 1\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2 and "line" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/file.alg")
        assert code == 2


class TestCommutatorCommand:
    def test_commutator_emits_valid_lie_file(self, capsys, tmp_path):
        src = write_family(tmp_path, "LSA3-2", "l.alg", params=["a1=1", "a2=2", "a3=3"])
        code, out, _ = run(capsys, "commutator", src)
        assert code == 0
        derived = parse_algebra_text(out)
        expected = commutator_algebra(
            instantiate("LSA3-2", {"a1": "1", "a2": "2", "a3": "3"}, QQ)
        )
        assert derived == expected

    def test_lie_input_rejected(self, capsys, tmp_path):
        src = write_family(tmp_path, "B", "b.alg")
        code, _, err = run(capsys, "commutator", src)
        assert code == 2 and "lsa" in err


class TestAdmissibleCommand:
    def test_abelian_admissible_exit_zero(self, capsys, tmp_path, schema):
        f = tmp_path / "ab.alg"
        f.write_text("kind = lie\nfield = Q\ndim = 2\nbasis = u, v\n")
        code, doc, _ = run_json(capsys, "admissible", str(f))
        assert code == 0
        assert doc["verdict"] == "ADMISSIBLE"
        assert doc["report"]["witness"] is not None
        validate(schema, doc)

    def test_catalog_family_inadmissible_with_samples(self, capsys, tmp_path, schema):
        path = write_family(tmp_path, "C_alpha", "c.alg", field="Q(alpha)")
        code, doc, _ = run_json(
            capsys,
            "admissible", path,
            "--sample", "alpha=2", "--sample", "alpha=-2", "--sample", "alpha=1/2",
        )
        assert code == 0
        assert doc["verdict"] == "INADMISSIBLE"
        assert [s["status"] for s in doc["report"]["samples"]] == ["ok"] * 3
        assert all(s["matches"] for s in doc["report"]["samples"])
        validate(schema, doc)

    def test_module_only_reports_pinned_operators(self, capsys, tmp_path):
        path = write_family(tmp_path, "A_alpha", "a.alg", field="Q(alpha)")
        code, doc, _ = run_json(capsys, "admissible", path, "--mode", "module-only")
        assert code == 0
        ops = next(
            st["operators"] for st in doc["report"]["certificate"] if st["stage"] == "fixed_point"
        )
        assert ops == {"x": "0", "y": "0", "z": "(-1)*id"}

    def test_sample_on_rational_file_rejected(self, capsys, tmp_path):
        f = tmp_path / "ab.alg"
        f.write_text("kind = lie\nfield = Q\ndim = 2\nbasis = u, v\n")
        code, _, err = run(capsys, "admissible", str(f), "--sample", "alpha=2")
        assert code == 2 and "Q(alpha)" in err

    def test_sample_at_tracked_denominator_root_is_rejected(self, capsys, tmp_path):
        # the generic run divides by alpha + 1, so alpha = -1 cannot specialise
        path = write_family(tmp_path, "C_alpha", "c.alg", field="Q(alpha)")
        code, doc, _ = run_json(capsys, "admissible", path, "--sample", "alpha=-1")
        assert code == 0
        (row,) = doc["report"]["samples"]
        assert row["status"] == "rejected"

    def test_unknown_exit_code_three(self, capsys, tmp_path):
        src = write_family(tmp_path, "LSA3-1", "l1.alg")
        code, out, _ = run(capsys, "commutator", src)
        lie_path = tmp_path / "l1c.alg"
        lie_path.write_text(out)
        code, doc, _ = run_json(
            capsys,
            "admissible", str(lie_path),
            "--degree-cap", "1", "--witness-search-budget", "0",
        )
        assert code == 3
        assert doc["verdict"] == "UNKNOWN"

    def test_lsa_commutator_witness_in_report(self, capsys, tmp_path):
        src = write_family(tmp_path, "LSA3-2", "l.alg")
        code, out, _ = run(capsys, "commutator", src)
        lie_path = tmp_path / "lc.alg"
        lie_path.write_text(out)
        code, doc, _ = run_json(capsys, "admissible", str(lie_path))
        assert code == 0
        assert doc["verdict"] == "ADMISSIBLE"
        products = doc["report"]["witness"]["products"]
        witness = parse_algebra_text(
            "kind = lsa\nfield = Q\ndim = 3\nbasis = e1, e2, e3\n\n[products]\n"
            + "\n".join(f"{k} = {v}" for k, v in products.items())
            + "\n\n[omega]\ne2,e3 = 2\n"
        )
        from omlie.admissible import verify_witness

        assert verify_witness(parse_algebra_text(lie_path.read_text()), witness.product)


class TestVerifyTheorem1:
    def test_all_families_inadmissible(self, capsys, schema):
        code, doc, _ = run_json(capsys, "verify-theorem1")
        assert code == 0
        assert doc["verdict"] == "PASS"
        rows = doc["report"]["results"]
        assert len(rows) == 12  # 10 families, P1 and P2 twice
        assert all(r["verdict"] == "INADMISSIBLE" for r in rows)
        assert doc["report"]["all_inadmissible"] is True
        validate(schema, doc)

    def test_target_listing(self):
        targets = theorem_targets()
        names = [t[0] for t in targets]
        assert names.count("P1") == 2 and names.count("P2") == 2
        assert len(targets) == 12


class TestDeterminism:
    def strip_timing(self, out):
        doc = json.loads(out)
        doc.pop("timing_ms")
        return json.dumps(doc, indent=2)

    @pytest.mark.parametrize(
        "argv",
        [
            ("catalog", "list"),
            ("verify-theorem1",),
        ],
        ids=["catalog-list", "verify-theorem1"],
    )
    def test_reports_byte_identical_modulo_timing(self, capsys, argv):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert self.strip_timing(out1) == self.strip_timing(out2)

    def test_admissible_report_byte_identical(self, capsys, tmp_path):
        path = write_family(tmp_path, "G1_alpha", "g.alg", field="Q(alpha)")
        _, out1, _ = run(capsys, "admissible", path)
        _, out2, _ = run(capsys, "admissible", path)
        assert self.strip_timing(out1) == self.strip_timing(out2)

    def test_emitters_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "catalog", "emit", "--family", "P2")
        _, out2, _ = run(capsys, "catalog", "emit", "--family", "P2")
        assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ["admissible", "{f}", "--degree-cap", "-1", "--witness-search-budget", "0"],
        ["admissible", "{f}", "--witness-search-budget", "-1"],
        ["admissible", "{f}", "--degree-cap", "two"],
        ["verify-theorem1", "--degree-cap", "-1"],
    ],
)
def test_negative_bounds_exit_2(capsys, tmp_path, argv):
    f = tmp_path / "ab.alg"
    f.write_text("kind = lie\nfield = Q\ndim = 2\nbasis = u, v\n")
    code, out, err = run(capsys, *(a.format(f=f) for a in argv))
    assert code == 2 and out == ""
    assert "non-negative integer" in err


def test_usage_error_exit_code(capsys):
    assert run_command(["no-such-command"]) == 2
    assert run_command([]) == 2


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_PATH), env.get("PYTHONPATH")]))

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", "omlie", *argv], capture_output=True,
                              text=True, env=env, cwd=tmp_path, timeout=60)

    missing = python_m("admissible", str(tmp_path / "missing.alg"))
    assert missing.returncode == 2
    assert "error:" in missing.stderr and "Traceback" not in missing.stderr
    listing = python_m("catalog", "list")
    assert listing.returncode == 0
    assert json.loads(listing.stdout)["command"] == ["catalog", "list"]
