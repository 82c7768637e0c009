import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

from trialgebra import cli
from trialgebra import clifford as cl
from trialgebra import lie_tools as lt
from trialgebra.triality import default_dtheta
from trialgebra import parameters as par


def run_cli(args, tmp_path=None):
    return cli.main(args)


def test_exit_code_semantics(tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--suite", "weyl", "--seed", "7", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert all(c["status"] == "pass" for s in rep["suites"] for c in s["checks"])


def test_mismatch_exit_code(tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--suite", "parameters", "--seed", "7", "--out", str(out)])
    assert code == 2
    rep = json.loads(out.read_text())
    statuses = {c["status"] for s in rep["suites"] for c in s["checks"]}
    assert "paper_mismatch" in statuses
    assert "fail" not in statuses


def test_usage_errors():
    assert cli.main(["verify", "--suite", "bogus"]) == 64
    assert cli.main(["verify", "--samples", "0"]) == 64
    assert cli.main(["frobnicate"]) == 64
    assert cli.main([]) == 64
    assert cli.main(["enumerate", "shapes", "--total", "5"]) == 64


def test_unwritable_output_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("the command did its work before it checked the output path")

    monkeypatch.setattr(cli, "run_suites", no_work)
    monkeypatch.setattr(cli.tri, "default_dtheta", no_work)
    path = tmp_path / "missing" / "out.json"
    for target in (str(path), ""):  # the empty path is a path, not stdout
        for args in (["verify", "--suite", "weyl", "--out", target],
                     ["enumerate", "shapes", "--out", target],
                     ["compute", "dtheta", "--dump", target]):
            assert cli.main(args) == 64
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"usage error: cannot write {target}: " in captured.err
    assert not path.parent.exists()


def test_output_replaces_an_existing_file(tmp_path, capsys):
    out = tmp_path / "shapes.json"
    out.write_text("x" * 100_000)
    assert cli.main(["verify", "--suite", "bogus", "--out", str(out)]) == 64
    assert out.read_text() == "x" * 100_000  # a usage error leaves the file alone
    assert cli.main(["enumerate", "shapes"]) == 0
    want = capsys.readouterr().out
    assert cli.main(["enumerate", "shapes", "--out", str(out)]) == 0
    assert out.read_text() == want


def test_output_to_a_device_or_a_pipe(tmp_path, capsys):
    """Only a regular file is truncated; a device or a FIFO is just written."""
    for args in (["verify", "--suite", "weyl", "--out", os.devnull],
                 ["enumerate", "shapes", "--out", os.devnull],
                 ["compute", "dtheta", "--dump", os.devnull]):
        assert cli.main(args) == 0, args
    assert capsys.readouterr().err == ""
    assert cli.main(["enumerate", "shapes"]) == 0
    want = capsys.readouterr().out
    fifo = tmp_path / "shapes.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    code = cli.main(["enumerate", "shapes", "--out", str(fifo)])
    reader.join(timeout=60)
    assert code == 0 and got == [want]


def test_a_closed_stdout_pipe_is_a_usage_error():
    """A reader that closed its end of the pipe costs one line on stderr and
    exit 64, not a traceback from the write or from the flush at exit."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for args, name in ((["enumerate", "shapes"], "<stdout>"),
                       (["verify", "--suite", "weyl"], "<stdout>"),
                       (["compute", "dtheta", "--dump", "/dev/stdout"], "/dev/stdout")):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "trialgebra", *args], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr, args
        assert proc.returncode == 64, (args, proc.stderr)
        assert proc.stderr == f"usage error: cannot write {name}: Broken pipe\n"


def test_samples_bound_is_documented(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    assert f"1 to {cli.MAX_SAMPLES}" in " ".join(capsys.readouterr().out.split())
    assert cli.main(["verify", "--samples", str(cli.MAX_SAMPLES + 1)]) == 64
    assert str(cli.MAX_SAMPLES) in capsys.readouterr().err


def test_report_schema(tmp_path):
    out = tmp_path / "r.json"
    cli.main(["verify", "--suite", "octonion", "--seed", "1", "--samples", "20",
              "--out", str(out)])
    rep = json.loads(out.read_text())
    assert set(rep) == {"version", "seed", "samples", "suites"}
    assert rep["seed"] == 1 and rep["samples"] == 20
    for s in rep["suites"]:
        assert set(s) == {"name", "checks"}
        for c in s["checks"]:
            assert set(c) == {"name", "status", "expected", "actual",
                              "provenance", "paper_ref"}
            assert c["status"] in ("pass", "fail", "paper_mismatch")
            assert c["provenance"] in ("paper", "trivial", "derived")


def test_every_paper_check_has_reference(golden_run):
    rep = json.loads(golden_run[1])
    for s in rep["suites"]:
        for c in s["checks"]:
            if c["status"] == "paper_mismatch":
                assert c["paper_ref"], (s["name"], c["name"])


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["verify", "--suite", "octonion", "--seed", "9", "--samples", "30",
              "--out", str(a)])
    cli.main(["verify", "--suite", "octonion", "--seed", "9", "--samples", "30",
              "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_different_seeds_differ(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["verify", "--suite", "octonion", "--seed", "9", "--samples", "30",
              "--out", str(a)])
    cli.main(["verify", "--suite", "octonion", "--seed", "10", "--samples", "30",
              "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_subprocess_determinism(tmp_path):
    """Byte-identical reports across fresh interpreter processes."""
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "trialgebra.cli", "verify", "--suite", "weyl",
             "--seed", "5", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_markdown_format(tmp_path):
    out = tmp_path / "r.md"
    cli.main(["verify", "--suite", "weyl", "--format", "md", "--out", str(out)])
    text = out.read_text()
    assert text.startswith("# verification report")
    assert "| check | status |" in text


def test_compute_dtheta_dump(tmp_path):
    out = tmp_path / "m.json"
    assert cli.main(["compute", "dtheta", "--dump", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["rows"] == data["cols"] == 28
    assert all(len(e) == 8 for e in data["entries"])
    assert data == default_dtheta().to_json()


def test_enumerate_shapes_dump(tmp_path):
    out = tmp_path / "shapes.json"
    assert cli.main(["enumerate", "shapes", "--total", "8", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["count"] == par.FROZEN_SHAPE_COUNT
    assert len(data["shapes"]) == data["count"]
    shapes = par.enumerate_shapes()
    assert data["shapes"] == [par.shape_to_json(s) for s in shapes]
    assert par.validate(shapes[0]) == []


def test_stdout_output(capsys):
    code = cli.main(["verify", "--suite", "weyl", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert rep["suites"][0]["name"] == "weyl"


def test_a_wrong_longest_element_fails_one_weyl_check(monkeypatch):
    def records():
        return [(c["name"], c["status"])
                for c in cli.run_suites(["weyl"], 7, 100)["suites"][0]["checks"]]

    want = records()
    monkeypatch.setattr(cli.rw, "longest_element", lambda: cli.rw._length_layers()[5][0])
    got = records()
    assert [name for name, _ in got] == [name for name, _ in want]
    assert [pair for pair in got if pair not in want] == \
        [("longest-element-is-minus-identity", cli.FAIL)]


def test_raising_suite_is_recorded_and_run_continues(monkeypatch, tmp_path):
    def broken(rng, samples):
        raise ZeroDivisionError("boom")
    monkeypatch.setitem(cli.SUITES, "octonion", broken)
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--suite", "all", "--seed", "1", "--samples", "2",
                     "--out", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert [s["name"] for s in rep["suites"]] == cli.SUITE_ORDER
    first = rep["suites"][0]
    assert first["checks"] == [{"name": "suite-completes", "status": "fail",
                                "expected": "no exception",
                                "actual": "ZeroDivisionError: boom",
                                "provenance": "derived", "paper_ref": ""}]
    assert all(s["checks"] for s in rep["suites"][1:])


def test_datum_table_shows_computed_coefficients(monkeypatch):
    real = cli.endo.twisted_coefficients()
    monkeypatch.setattr(cli.endo, "twisted_coefficients",
                        lambda: {**real, "SO4": Fraction(1, 2)})
    checks = cli.suite_endoscopy(random.Random(7), 2)
    (table,) = [c for c in checks if c.name == "datum-table"]
    rows = {row["name"]: row for row in json.loads(table.actual)}
    assert rows["SO4"]["coefficient"] == "1/2"
    assert rows["SL3"]["coefficient"] == "1/3"


def test_vector_rep_homomorphism_check_runs_one_pin_test_per_element(monkeypatch):
    """Eight spin elements: one pin test for each, one for each of the seven
    products, 15 in all."""
    calls, at_check = [0], {}
    columns, holds = cl._conjugation_columns, cli.holds

    def counted(x):
        calls[0] += 1
        return columns(x)

    def recorded(name, *args, **kwargs):
        at_check[name] = calls[0]
        return holds(name, *args, **kwargs)

    monkeypatch.setattr(cl, "_conjugation_columns", counted)
    monkeypatch.setattr(cli, "holds", recorded)
    checks = cli.suite_clifford(random.Random("7:clifford"), 100)
    assert next(c for c in checks if c.name == "vector-rep-homomorphism").status == cli.PASS
    assert at_check["vector-rep-homomorphism"] - at_check["vector-rep-2-blade"] == 15


def test_pair_and_triple_checks_see_a_tuple_at_few_samples(monkeypatch):
    """The three checks over consecutive pairs or triples of drawn elements
    each multiply at least one tuple, even at one or two samples."""
    calls, at_check = [0], {}
    clif_mul, holds = cl.clif_mul, cli.holds

    def counted(x, y):
        calls[0] += 1
        return clif_mul(x, y)

    def recorded(name, *args, **kwargs):
        at_check[name] = calls[0]
        return holds(name, *args, **kwargs)

    monkeypatch.setattr(cl, "clif_mul", counted)
    monkeypatch.setattr(cli, "holds", recorded)
    for samples in (1, 2):
        checks = cli.suite_clifford(random.Random("7:clifford"), samples)
        assert all(c.status != cli.FAIL for c in checks)
        for before, name in (("reversal-of-2-blade", "conjugation-anti-automorphism"),
                             ("conjugation-anti-automorphism", "associativity"),
                             ("vector-rep-2-blade", "vector-rep-homomorphism")):
            assert at_check[name] > at_check[before], (samples, name)


def test_s3_ordering_check_tests_the_recorded_ordering(monkeypatch):
    """The printed s3 tuple is no automorphism and the all-ones tuple is no
    reordering of it; with either recorded, this check alone fails."""
    real = lt.centralizer_report()
    assert all(c.status != cli.FAIL for c in cli.suite_lie(random.Random(7), 2))
    for used in (lt.S3_TUPLE, (1,) * 7):
        report = {**real, "s3": {**real["s3"], "ordering_used": used}}
        monkeypatch.setattr(lt, "centralizer_report", lambda: report)
        checks = cli.suite_lie(random.Random(7), 2)
        assert [c.name for c in checks if c.status == cli.FAIL] == ["s3-ordering-recorded"]
