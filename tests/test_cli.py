import argparse
import json
import math
import re
import time

import pytest
from support import sqrt_a1_context, two_element_context_json

from qacclab import budget
from qacclab.algebra import get_context, save_context
from qacclab.cli import main


@pytest.fixture()
def hadamard_file(tmp_path):
    path = tmp_path / "h.qc"
    path.write_text("circuit n=1 aux=0 context=cyclotomic2\nlayer { H [0] }\n")
    return str(path)


@pytest.fixture()
def bell_file(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text(
        "circuit n=2 aux=0 context=cyclotomic2\nlayer { H [0] }\ncnotlayer { 0 -> 1 }\n"
    )
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exit_code_matrix(capsys, hadamard_file, bell_file, tmp_path):
    big = tmp_path / "big.qc"
    big.write_text("circuit n=21 aux=0\n")
    bad = tmp_path / "bad.qc"
    bad.write_text("circuit n=1 aux=0\nlayer { H [ }\n")
    not_json = tmp_path / "not_json.json"
    not_json.write_text("not json\n")
    no_key = tmp_path / "no_key.json"
    no_key.write_text('{"basis": ["1"]}\n')

    cases = [
        (["simulate", "--circuit", hadamard_file, "--input", "0"], 0),
        (["simulate", "--circuit", hadamard_file, "--input", "0", "--json"], 0),
        (["simulate", "--circuit", big.as_posix(), "--input", "0" * 21], 0),
        (["simulate", "--circuit", bad.as_posix(), "--input", "0"], 2),
        (["simulate", "--circuit", str(tmp_path / "nope.qc"), "--input", "0"], 2),
        (["amplitude", "--circuit", hadamard_file, "--input", "0", "--target", "1"], 0),
        (["amplitude", "--circuit", bell_file, "--input", "00", "--target", "11"], 0),
        (["accept", "--circuit", hadamard_file, "--input", "0", "--target", "1", "--mode", "N"], 0),
        (["accept", "--circuit", hadamard_file, "--input", "0", "--target", "1", "--mode", "E"], 1),
        (["accept", "--circuit", hadamard_file, "--input", "0", "--target", "1", "--mode", "B"], 1),
        (["accept", "--circuit", bell_file, "--input", "00", "--target", "10", "--mode", "N"], 1),
        (["build", "--builder", "f_from_fq", "--n", "2", "--q", "3"], 0),
        (["build", "--builder", "nonsense", "--n", "1", "--q", "2"], 2),
        (["check", "--builder", "modq_from_mq", "--n", "3", "--q", "3"], 0),
        (["check", "--builder", "modqr_from_modq", "--n", "2", "--q", "3", "--r", "2"], 0),
        (["check", "--builder", "modhat", "--n", "3", "--q", "5"], 0),
        (["check", "--builder", "modqr_from_modq", "--n", "12", "--q", "2"], 0),
        (["check", "--builder", "modqr_from_modq", "--n", "24", "--q", "2"], 3),
        (["check", "--builder", "modhat", "--n", "2", "--q", "5", "--r", "7"], 2),
        (["check", "--builder", "modhat", "--n", "-1", "--q", "3"], 2),
        (["build", "--builder", "modqr_from_modq", "--n", "2", "--q", "3", "--r", "-1"], 2),
        (["build", "--builder", "f_from_fq", "--n", "1", "--q", "1"], 2),
        (["check", "--builder", "modq_from_mq", "--n", "2", "--q", "3", "--r", "2"], 2),
        (["build", "--builder", "f_from_fq", "--n", "2", "--q", "3", "--r", "1"], 2),
        (["build", "--builder", "f_from_fq", "--n", "2", "--q", "3", "--r", "0"], 0),
        (["check", "--builder", "mq_from_modq", "--n", "100000", "--q", "7"], 3),
        (["graph", "--circuit", bell_file, "--input", "00"], 0),
        (["graph", "--circuit", bell_file, "--input", "00", "--target", "11", "--method", "dp"], 0),
        (["graph", "--circuit", bell_file, "--input", "00", "--target", "11", "--method", "paths"], 0),
        (["graph", "--circuit", bell_file, "--input", "00", "--target", "11"], 0),
        (["graph", "--circuit", bell_file, "--input", "00", "--method", "dp"], 2),
        (["graph", "--circuit", bell_file, "--input", "00", "--method", "paths", "--json"], 2),
        (["metrics", "--circuit", bell_file, "--input", "00"], 0),
        (["simulate", "--circuit", hadamard_file, "--input", "0", "--bogus"], 2),
        (["check", "--builder", "mq_via_conjugation", "--n", "0", "--q", "3"], 2),
        (["build", "--builder", "mq_via_conjugation", "--n", "0", "--q", "3"], 2),
        (["build", "--builder", "modhat", "--n", "0", "--q", "3", "--r", "1"], 2),
        (["check", "--builder", "modhat", "--n", "0", "--q", "2"], 2),
        (["build", "--builder", "mq_from_modq", "--n", "0", "--q", "3"], 2),
        (["check", "--builder", "mq_from_modq", "--n", "0", "--q", "2"], 2),
        (["build", "--builder", "modqr_from_modq", "--n", "0", "--q", "2"], 2),
        (["check", "--builder", "modqr_from_modq", "--n", "0", "--q", "3"], 2),
        (["build", "--builder", "modqr_from_modq", "--n", "0", "--q", "2", "--r", "1"], 0),
        (["check", "--builder", "modqr_from_modq", "--n", "0", "--q", "3", "--r", "1"], 0),
        (["simulate", "--circuit", hadamard_file, "--input", "0",
          "--context-file", not_json.as_posix()], 2),
        (["simulate", "--circuit", hadamard_file, "--input", "0",
          "--context-file", no_key.as_posix()], 2),
        (["graph", "--circuit", hadamard_file, "--input", "0", "--target", "2"], 2),
        (["graph", "--circuit", hadamard_file, "--input", "2"], 2),
        (["simulate", "--circuit", hadamard_file, "--input", "2"], 2),
        (["simulate", "--circuit", hadamard_file, "--input", "00"], 2),
        (["metrics", "--circuit", hadamard_file, "--input", "00"], 2),
        (["graph", "--circuit", hadamard_file, "--input", "0", "--target", "11"], 2),
    ]
    for argv, want in cases:
        code, _out, _err = run_cli(capsys, *argv)
        assert code == want, (argv, code)


def test_fourier_outside_context_exits_2_with_one_line(capsys, tmp_path):
    qc = tmp_path / "h3.qc"
    qc.write_text("circuit n=1 aux=0 context=cyclotomic3\nlayer { H [0] }\n")
    for cmd in ("simulate", "graph", "metrics"):
        code, out, err = run_cli(capsys, cmd, "--circuit", qc.as_posix(), "--input", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: layer 0: ") and err.count("\n") == 1


def test_a_context_header_with_a_leading_zero_exits_2_with_one_line(capsys, tmp_path):
    qc = tmp_path / "z02.qc"
    qc.write_text("circuit n=1 aux=0 context=cyclotomic02\nlayer { H [0] }\n")
    code, out, err = run_cli(capsys, "simulate", "--circuit", qc.as_posix(), "--input", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "leading zero" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--builder", "modhat", "--n", "2", "--q", "5", "--r", "7"],
        ["check", "--builder", "modhat", "--n", "-1", "--q", "3"],
        ["build", "--builder", "mq_from_modq", "--n", "-2", "--q", "3"],
        ["check", "--builder", "mq_via_conjugation", "--n", "0", "--q", "3"],
        ["build", "--builder", "mq_via_conjugation", "--n", "0", "--q", "3"],
        ["check", "--builder", "modq_from_mq", "--n", "2", "--q", "3", "--r", "2"],
        ["build", "--builder", "mq_from_modq", "--n", "1", "--q", "3", "--r", "1"],
        ["build", "--builder", "modhat", "--n", "0", "--q", "3", "--r", "1"],
        ["check", "--builder", "modhat", "--n", "0", "--q", "2"],
        ["build", "--builder", "mq_from_modq", "--n", "0", "--q", "3"],
        ["check", "--builder", "mq_from_modq", "--n", "0", "--q", "2"],
        ["build", "--builder", "modqr_from_modq", "--n", "0", "--q", "2"],
        ["check", "--builder", "modqr_from_modq", "--n", "0", "--q", "3"],
    ],
)
def test_builder_argument_errors_are_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "--input", "0", "--target", "2"],
        ["graph", "--input", "2"],
        ["graph", "--input", "0", "--target", "11"],
        ["graph", "--input", "0", "--method", "dp"],
        ["graph", "--input", "0", "--method", "paths", "--json"],
        ["simulate", "--input", "2"],
        ["simulate", "--input", "00"],
        ["metrics", "--input", "00"],
        ["amplitude", "--input", "0", "--target", "x"],
        ["simulate", "--input", "0", "--context-file", "{not_json}"],
        ["simulate", "--input", "0", "--context-file", "{no_key}"],
    ],
)
def test_input_errors_are_one_line(capsys, tmp_path, hadamard_file, argv):
    (tmp_path / "not_json.json").write_text("not json\n")
    (tmp_path / "no_key.json").write_text('{"basis": ["1"]}\n')
    paths = {"not_json": tmp_path / "not_json.json", "no_key": tmp_path / "no_key.json"}
    argv = [a.format(**paths) for a in argv]
    code, out, err = run_cli(capsys, argv[0], "--circuit", hadamard_file, *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unreadable_files_exit_2_with_one_line(capsys, tmp_path, hadamard_file):
    latin1 = tmp_path / "latin1.qc"
    latin1.write_bytes(b"circuit n=1 aux=0 # caf\xe9\n")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for argv in (
        ["--circuit", str(tmp_path)],
        ["--circuit", str(latin1)],
        ["--circuit", hadamard_file, "--context-file", str(tmp_path)],
        ["--circuit", hadamard_file, "--context-file", str(deep)],
    ):
        code, out, err = run_cli(capsys, "simulate", "--input", "0", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_circuit_wider_than_the_budget_exits_3(capsys, tmp_path):
    # refused before a key or graph of 10^12 lines is built
    wide = tmp_path / "wide.qc"
    wide.write_text("circuit n=1 aux=1000000000000\nlayer { H [0] }\n")
    for cmd in ("simulate", "graph", "metrics"):
        code, out, err = run_cli(capsys, cmd, "--circuit", str(wide), "--input", "0")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    huge = str(10**12)
    code, out, err = run_cli(capsys, "build", "--builder", "modhat", "--n", huge, "--q", "3")
    assert code == 3 and out == "" and "memory budget" in err


def test_gate_tables_past_the_memory_budget_exit_3(capsys, tmp_path):
    # a table of 2^26 values for the graph's dense lowering, and q x 2^17
    # codes for a modular add at q = 70000, are refused before building
    mod = tmp_path / "mod.qc"
    mod.write_text(f"circuit n=26 aux=0\nlayer {{ MOD 3 0 [{' '.join(map(str, range(25)))} -> 25] }}\n")
    code, out, err = run_cli(capsys, "simulate", "--circuit", str(mod), "--input", "0" * 26)
    assert code == 0 and out.startswith("|" + "0" * 25 + "1>")
    add = tmp_path / "add.qc"
    blocks = " ".join(map(str, range(17))), " ".join(map(str, range(17, 34)))
    add.write_text("circuit n=34 aux=0\nlayer {{ MQ 70000 [({}) -> ({})] }}\n".format(*blocks))
    for cmd, path, width in (("metrics", mod, 26), ("simulate", add, 34)):
        code, out, err = run_cli(capsys, cmd, "--circuit", str(path), "--input", "0" * width)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "memory budget" in err
    small = tmp_path / "small.qc"
    small.write_text("circuit n=6 aux=0\nlayer { MQ 7 [(0 1 2) -> (3 4 5)] }\n")
    code, out, _ = run_cli(capsys, "simulate", "--circuit", str(small), "--input", "101011")
    assert code == 0 and out.startswith("|101001>  1 ")


def test_oversized_check_exits_3_before_building(capsys, monkeypatch):
    # every candidate has at least n + 1 compared lines and each input
    # costs a unit, so 2^25 inputs at n = 24 are past the work budget
    # whatever the builder; the builder must not run
    from qacclab import transforms

    def refuse(*_args):
        raise AssertionError("builder called for a check past the work budget")

    spec = transforms.BUILDERS["modq_from_mq"]
    monkeypatch.setitem(
        transforms.BUILDERS,
        "modq_from_mq",
        transforms.BuilderSpec(False, refuse, spec.target, spec.size),
    )
    for n in ("24", "100000"):
        code, out, err = run_cli(capsys, "check", "--builder", "modq_from_mq", "--n", n, "--q", "3")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "work budget" in err


def test_graph_json_makes_no_indented_dump(capsys, monkeypatch, bell_file):
    dumps = json.dumps
    indented = []

    def spy(obj, **kwargs):
        indented.append("indent" in kwargs)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", spy)
    code, out, _ = run_cli(capsys, "graph", "--circuit", bell_file, "--input", "00", "--json")
    assert code == 0 and "nodes" in json.loads(out)
    assert indented == [False]
    code, out, _ = run_cli(capsys, "graph", "--circuit", bell_file, "--input", "00")
    assert code == 0 and out.startswith("{\n")
    assert indented == [False, True]


def test_work_budget_exits_3_with_one_line(capsys, monkeypatch, bell_file):
    get_context("cyclotomic2")  # cached first: its 2^3-entry table is over a budget of 4
    monkeypatch.setattr(budget, "BUDGET", 4)
    code, out, err = run_cli(capsys, "metrics", "--circuit", bell_file, "--input", "00")
    assert code == 3 and out == ""
    assert err == "error: 5 tensor graph nodes exceed the memory budget of 4\n"


def test_oversized_contexts_exit_3_with_one_line(capsys, tmp_path):
    # a cyclotomic context is charged its d^3 table before it is built
    path = tmp_path / "big.qc"
    for q in (193, 840, 10007, 10**12):
        path.write_text(f"circuit n=1 aux=0 context=cyclotomic{q}\n")
        for argv in (
            ("simulate", "--circuit", str(path), "--input", "0"),
            ("build", "--builder", "f_from_fq", "--n", "1", "--q", str(q)),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3 and out == "", (q, argv)
            refusal = rf"error: \d+ table entries \(.*\) of cyclotomic{q} exceed"
            assert re.match(refusal, err), (q, argv)
            assert err.count("\n") == 1, (q, argv)


def test_dense_lowering_past_the_memory_budget_exits_3_with_one_line(capsys, tmp_path):
    # 2^k variants, each past the first adding a copy of the k + 1 nodes of
    # the span: refused before the first copy is built
    for k in (20, 16):
        path = tmp_path / f"mod{k}.qc"
        inputs = " ".join(map(str, range(k - 1)))
        path.write_text(
            f"circuit n={k} aux=0 context=cyclotomic5\nlayer {{ MOD 5 0 [{inputs} -> {k - 1}] }}\n"
        )
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "metrics", "--circuit", str(path), "--input", "0" * k)
        assert time.perf_counter() - t0 < 5, k
        assert code == 3 and out == "", k
        assert err == (
            f"error: {(k + 1) << k} tensor graph nodes after the span copies of a {k}-line "
            "gate exceed the memory budget of 1048576\n"
        )


def test_work_budget_exits_3_with_one_error_line(capsys, monkeypatch, bell_file):
    monkeypatch.setattr(budget, "WORK", 3)
    for argv in (
        ("simulate", "--circuit", bell_file, "--input", "00"),
        ("check", "--builder", "modq_from_mq", "--n", "1", "--q", "3"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert "work budget of 3 units" in err, argv


def test_graph_dp_past_the_work_budget_exits_3_with_one_line(capsys, monkeypatch, bell_file):
    monkeypatch.setattr(budget, "WORK", 1)
    argv = ("graph", "--circuit", bell_file, "--input", "00", "--target", "11")
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "error: the amplitude DP over 7 nodes exceeds the work budget of 1 units\n"


def test_wide_builds_are_refused_by_their_size(capsys, monkeypatch):
    # 13,760,248 gate lines: refused before the builder runs
    from qacclab import transforms

    def refuse(*_args):
        raise AssertionError("builder called for a build past the memory budget")

    spec = transforms.BUILDERS["mq_from_modq"]
    monkeypatch.setitem(
        transforms.BUILDERS,
        "mq_from_modq",
        transforms.BuilderSpec(False, refuse, spec.target, spec.size, spec.inputs),
    )
    argv = ("build", "--builder", "mq_from_modq", "--n", "10000", "--q")
    code, out, err = run_cli(capsys, *argv, "16")
    assert code == 3 and out == ""
    assert err == (
        "error: 13760248 gate lines of the built circuit exceed the memory budget of 1048576\n"
    )
    # a q whose context table is past the memory budget is refused by it first
    code, out, err = run_cli(capsys, *argv, "1000003")
    assert code == 3 and out == "" and err.count("\n") == 1
    assert err.startswith("error: 1061208 table entries (at least: d > 101) of cyclotomic1000003")


def test_accept_n_output(capsys, hadamard_file):
    code, out, _ = run_cli(
        capsys, "accept", "--circuit", hadamard_file, "--input", "0", "--target", "1", "--mode", "N"
    )
    assert code == 0 and out.strip() == "accept"


def test_check_reports_equivalent(capsys):
    code, out, _ = run_cli(capsys, "check", "--builder", "modq_from_mq", "--n", "3", "--q", "3")
    assert code == 0 and out.strip() == "equivalent"


def test_check_json_shape(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--builder", "f_from_fq", "--n", "1", "--q", "3", "--json"
    )
    data = json.loads(out)
    assert code == 0 and data["verdict"] == "equivalent" and data["aux_restored"] is True


def test_later_calls_build_no_parser(capsys, monkeypatch):
    check = ("check", "--builder", "modhat", "--n", "3", "--q", "2")
    assert run_cli(capsys, *check)[0] == 0  # the first call may build the parser
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(capsys, *check) == (0, "equivalent\n", "")
    assert run_cli(capsys, "build", "--builder", "f_from_fq", "--n", "1", "--q", "2")[0] == 0
    code, _, err = run_cli(capsys, "check", "--builder", "modhat", "--n", "x", "--q", "2")
    assert code == 2 and "invalid int value: 'x'" in err
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and out.startswith("usage: qacc")
    assert built == []


def test_graph_methods_agree(capsys, bell_file):
    _, dp_out, _ = run_cli(
        capsys, "graph", "--circuit", bell_file, "--input", "00",
        "--target", "11", "--method", "dp", "--json",
    )
    _, paths_out, _ = run_cli(
        capsys, "graph", "--circuit", bell_file, "--input", "00",
        "--target", "11", "--method", "paths", "--json",
    )
    _, default_out, _ = run_cli(
        capsys, "graph", "--circuit", bell_file, "--input", "00", "--target", "11", "--json",
    )
    dp = json.loads(dp_out)
    paths = json.loads(paths_out)
    assert dp["exact"] == paths["exact"]
    assert default_out == dp_out  # --method defaults to dp when a target is given


def test_build_output_reparses(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "build", "--builder", "mq_via_conjugation", "--n", "1", "--q", "3")
    assert code == 0
    from qacclab.dsl import parse_circuit

    c = parse_circuit(out)
    assert c.width == 4


def test_json_outputs_deterministic(capsys, bell_file):
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "simulate", "--circuit", bell_file, "--input", "00", "--json")
        outs.add(out)
    assert len(outs) == 1


def test_context_file_override(capsys, tmp_path, hadamard_file):
    path = tmp_path / "ctx.json"
    save_context(get_context("cyclotomic2"), path)
    code, out, _ = run_cli(
        capsys, "simulate", "--circuit", hadamard_file, "--input", "0",
        "--context-file", str(path),
    )
    assert code == 0 and "0.707106781" in out


def test_context_file_fourier_constants_in_its_own_arithmetic(capsys, tmp_path):
    # cyclotomic5 with u = 10 gives cyclotomic5's amplitudes; a file whose
    # zeta = b has b*b = 2 is refused when it is read
    hq5 = tmp_path / "hq5.qc"
    hq5.write_text("circuit n=3 aux=0 context=cyclotomic5\nlayer { HQ 5 [(0 1 2)] }\n")
    u10 = tmp_path / "u10.json"
    u10.write_text(json.dumps({**get_context("cyclotomic5").to_json(), "u": [[10, []]]}))
    _, want, _ = run_cli(capsys, "simulate", "--circuit", str(hq5), "--input", "000")
    code, out, err = run_cli(
        capsys, "simulate", "--circuit", str(hq5), "--input", "000", "--context-file", str(u10)
    )
    assert code == 0 and out == want and err == "" and out.count("0.447213595") == 5
    hq4 = tmp_path / "hq4.qc"
    hq4.write_text("circuit n=2 aux=0 context=cyclotomic4\nlayer { HQ 4 [(0 1)] }\n")
    bb2 = tmp_path / "bb2.json"
    bb2.write_text(json.dumps(two_element_context_json(2, 2, 4)))
    code, out, err = run_cli(
        capsys, "simulate", "--circuit", str(hq4), "--input", "01", "--context-file", str(bb2)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: fourier_q=4: ") and err.count("\n") == 1


def _simulate_u_swap(capsys, tmp_path, context: dict):
    """qacc simulate of a one-qubit swap U gate in the context file `context`."""
    circuit, path = tmp_path / "u.qc", tmp_path / "ctx.json"
    circuit.write_text("circuit n=1 aux=0\nlayer { U [[0, 1], [1, 0]] [0] }\n")
    path.write_text(json.dumps(context))
    return run_cli(
        capsys, "simulate", "--circuit", str(circuit), "--input", "0", "--context-file", str(path)
    )


def test_a_one_qubit_gate_in_a_context_without_a_conjugation_exits_2(capsys, tmp_path):
    one = {"num": [[1, []]], "r": 0}
    context = {"indeterminates": [], "basis": ["1"], "mult_table": [[[one]]], "u": [[1, []]]}
    code, out, err = _simulate_u_swap(capsys, tmp_path, context)
    assert code == 2 and out == ""
    assert err == "error: layer 0: a one-qubit gate needs a context with a conjugation\n"


_ONE, _ZERO = {"num": [[1, []]], "r": 0}, {"num": [], "r": 0}


def _two_element_context_with_conjugation() -> dict:
    """Basis 1, b with b*b = 2, u = 2, and the identity as its conjugation
    (b = sqrt(2) is real)."""
    return {**two_element_context_json(2, 2, None), "conjugation": [[_ONE, _ZERO], [_ZERO, _ONE]]}


@pytest.mark.parametrize(
    "change, message",
    [
        # two vectors of three entries, the third a coordinate no basis element has
        ({"conjugation": [[_ONE, _ZERO, _ZERO], [_ZERO, _ONE, _ZERO]]}, "conjugation is not 2 x 2"),
        # one vector: the image of b would be read as 0
        ({"conjugation": [[_ONE, _ZERO]]}, "conjugation is not 2 x 2"),
        # b*b given as the vector [2]: its b coordinate would be read as 0
        (
            {"mult_table": [[[_ONE, _ZERO], [_ZERO, _ONE]], [[_ZERO, _ONE], [{"num": [[2, []]]}]]]},
            "mult_table is not 2 x 2 x 2",
        ),
    ],
)
def test_a_context_file_with_tables_of_the_wrong_shape_exits_2(capsys, tmp_path, change, message):
    context = {**_two_element_context_with_conjugation(), **change}
    code, out, err = _simulate_u_swap(capsys, tmp_path, context)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def _non_integer_contexts():
    """Context files that each hold one number that is not an int, and load
    as a valid context where it is truncated by int()."""
    for u in (1.5, "7", True):  # a coefficient of u, once read as 1, 7 and 1
        yield {**_two_element_context_with_conjugation(), "u": [[u, []]]}
    data = sqrt_a1_context().to_json()  # u = a1, and b*b = 1/u
    yield {**data, "u": [[1, [1.0]]]}  # an exponent, once read as 1
    power = json.loads(json.dumps(data))
    power["mult_table"][1][1][0]["r"] = 1.5  # a power of u, once read as 1
    yield power


@pytest.mark.parametrize("context", list(_non_integer_contexts()))
def test_a_context_file_number_that_is_not_an_int_exits_2(capsys, tmp_path, context):
    code, out, err = _simulate_u_swap(capsys, tmp_path, context)
    assert code == 2 and out == ""
    assert err.startswith("error: context file ") and "is malformed" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "change, message",
    [
        # each part of a numeric value is a JSON number, not read by float()
        (
            {"numeric": {"b": ["1.4142135623730951", "0"]}},
            "numeric value ['1.4142135623730951', '0'] is not a pair of numbers",
        ),
        (
            {"numeric": {"b": [2**0.5, False]}},
            "numeric value [1.4142135623730951, False] is not a pair of numbers",
        ),
        # serialize_circuit writes the name after context=, where the DSL
        # reads one NAME: context=5 would not parse back
        ({"name": 5}, "context name 5 is not a DSL name"),
        ({"name": "my context"}, "context name 'my context' is not a DSL name"),
    ],
)
def test_a_context_file_with_a_non_number_value_or_a_non_name_name_exits_2(
    capsys, tmp_path, change, message
):
    context = {**_two_element_context_with_conjugation(), **change}
    code, out, err = _simulate_u_swap(capsys, tmp_path, context)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("part", [math.nan, math.inf, -math.inf])
def test_a_context_file_with_a_non_finite_numeric_value_exits_2(capsys, tmp_path, part):
    # json.load reads NaN and Infinity; with b = NaN, abs(b*b - 2) > 1e-9
    # is false, so the numeric check alone would let b*b = 2 pass
    context = {**_two_element_context_with_conjugation(), "numeric": {"b": [part, 0.0]}}
    code, out, err = _simulate_u_swap(capsys, tmp_path, context)
    assert code == 2 and out == ""
    assert err == f"error: numeric value [{part!r}, 0.0] is not a pair of finite numbers\n"


def test_a_context_file_numeric_value_past_the_float_range_exits_2(capsys, tmp_path):
    context = {**_two_element_context_with_conjugation(), "numeric": {"b": [10**400, 0.0]}}
    code, out, err = _simulate_u_swap(capsys, tmp_path, context)
    assert code == 2 and out == ""
    assert err.startswith("error: context file ") and "is malformed: int too large" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "change, shown",
    [
        ({"basis": "1b"}, "basis '1b'"),
        ({"indeterminates": ""}, "indeterminates ''"),
        ({"basis": ["1", 2]}, "basis ['1', 2]"),
    ],
)
def test_a_context_file_whose_names_are_not_a_list_of_strings_exits_2(
    capsys, tmp_path, change, shown
):
    # a string is a sequence too, but "1b" does not name the basis 1, b
    context = {**_two_element_context_with_conjugation(), **change}
    code, out, err = _simulate_u_swap(capsys, tmp_path, context)
    assert code == 2 and out == ""
    assert err.startswith("error: context file ")
    assert err.endswith(f" is malformed: {shown} is not a list of strings\n")
    assert err.count("\n") == 1


def test_a_context_file_whose_u_evaluates_to_0_exits_2(capsys, tmp_path):
    # u = a1 and b*b = 1/u: with a1 = 0 the table entry cannot be evaluated
    context = sqrt_a1_context().to_json()
    context["numeric"]["a1"] = [0, 0]
    code, out, err = _simulate_u_swap(capsys, tmp_path, context)
    assert code == 2 and out == ""
    assert err == (
        "error: numeric assignment makes u ~0, but mult_table at (1,1) divides by a power of u\n"
    )


def _non_associative_cyclotomic3() -> dict:
    """cyclotomic3 without its Fourier constants, the constant term of z*z
    moved by 3^-40: within the numeric check's 1e-9, but 10 of its 64
    basis triples are not associative."""
    data = get_context("cyclotomic3").to_json()
    del data["fourier_q"], data["name"]
    data["mult_table"][1][1][0] = {"num": [[1 - 3**40, []]], "r": 40}
    return data


def _cyclotomic3_conjugated_by_sigma() -> dict:
    """cyclotomic3 (basis 1, z, s, z*s) with the field automorphism
    sigma: z -> z^2, s -> -s as its conjugation.  sigma fixes 1, is an
    involution and is multiplicative, but s*sigma(s) = -1/3."""
    minus = {"num": [[-1, []]], "r": 0}
    sigma = [
        [_ONE, _ZERO, _ZERO, _ZERO],
        [minus, minus, _ZERO, _ZERO],  # z^2 = -1 - z
        [_ZERO, _ZERO, minus, _ZERO],
        [_ZERO, _ZERO, _ONE, _ONE],  # (-1 - z)(-s) = s + z*s
    ]
    return {**get_context("cyclotomic3").to_json(), "conjugation": sigma}


@pytest.mark.parametrize(
    "context, message",
    [
        (_non_associative_cyclotomic3(), "mult_table is not associative at (z*z)*s"),
        (
            _cyclotomic3_conjugated_by_sigma(),
            "conjugation: s*conj(s) = -1/3, but |s|^2 is positive",
        ),
    ],
)
def test_a_context_file_that_fails_an_exact_check_exits_2(capsys, tmp_path, context, message):
    code, out, err = _simulate_u_swap(capsys, tmp_path, context)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_a_mod_gate_of_no_inputs_in_a_circuit_exits_2(capsys, tmp_path):
    # a check target may be a MOD gate of no inputs (modqr_from_modq at
    # n = 0), but a circuit may not hold one
    path = tmp_path / "mod.qc"
    path.write_text("circuit n=1 aux=0\nlayer { MOD 3 1 [-> 0] }\n")
    code, out, err = run_cli(capsys, "simulate", "--circuit", str(path), "--input", "0")
    assert code == 2 and out == ""
    assert err == "error: layer 0: MOD gate needs at least one input\n"


def _cyclotomic2_over_x() -> dict:
    """cyclotomic2's context file lifted over one indeterminate x: every
    table entry, and u = 2, a constant polynomial in x."""
    data = get_context("cyclotomic2").to_json()

    def lift(entry):
        return {**entry, "num": [[c, [0]] for c, _ in entry["num"]]}

    data.update(
        indeterminates=["x"],
        numeric={**data["numeric"], "x": [0.5, 0.0]},
        u=[[2, [0]]],
        mult_table=[[[lift(e) for e in vec] for vec in row] for row in data["mult_table"]],
        conjugation=[[lift(e) for e in vec] for vec in data["conjugation"]],
    )
    return data


@pytest.mark.parametrize(
    "command, want",
    [
        (
            ["simulate"],
            "|10>  ([[1, [0]]])*s ~ (+0.707106781+0.000000000i)\n"
            "|11>  ([[-1, [0]]])*s ~ (-0.707106781+0.000000000i)\n",
        ),
        (
            ["simulate", "--json"],
            '[{"amplitude":{"coords":[{"num":[],"r":0},{"num":[[1,[0]]],"r":0}]},'
            '"approx":[0.7071067811865475,0.0],"basis":"10"},'
            '{"amplitude":{"coords":[{"num":[],"r":0},{"num":[[-1,[0]]],"r":0}]},'
            '"approx":[-0.7071067811865475,0.0],"basis":"11"}]\n',
        ),
        (
            ["amplitude", "--target", "11"],
            "<11|C|01> = ([[-1, [0]]])*s ~ (-0.707106781+0.000000000i)\n",
        ),
        (
            ["amplitude", "--target", "11", "--json"],
            '{"approx":[-0.7071067811865475,0.0],'
            '"exact":{"coords":[{"num":[],"r":0},{"num":[[-1,[0]]],"r":0}]}}\n',
        ),
        (["amplitude", "--target", "00"], "<00|C|01> = 0 ~ (+0.000000000+0.000000000i)\n"),
    ],
)
def test_a_context_with_an_indeterminate_runs_end_to_end(capsys, tmp_path, command, want):
    # the state vector's branching steps on polynomial numerators, and the
    # repr fallback for scalars the DSL cannot print
    circuit, path = tmp_path / "hc.qc", tmp_path / "x.json"
    circuit.write_text(
        "circuit n=2 aux=0\nlayer { H [0]; H [1] }\ncnotlayer { 0 -> 1 }\nlayer { H [0] }\n"
    )
    path.write_text(json.dumps(_cyclotomic2_over_x()))
    argv = ["--circuit", str(circuit), "--input", "01", "--context-file", str(path)]
    assert run_cli(capsys, command[0], *argv, *command[1:]) == (0, want, "")


def test_build_json_holds_the_circuit_text(capsys):
    args = ("build", "--builder", "f_from_fq", "--n", "1", "--q", "2")
    code, text, _ = run_cli(capsys, *args)
    assert code == 0
    want = json.dumps({"dsl": text}, separators=(",", ":")) + "\n"
    assert run_cli(capsys, *args, "--json") == (0, want, "")


def test_check_names_the_counterexample_on_one_line(capsys, monkeypatch):
    # a candidate built for residue r + 1 against the target of residue r
    from qacclab import transforms

    spec = transforms.BUILDERS["modqr_from_modq"]
    monkeypatch.setitem(
        transforms.BUILDERS,
        "modqr_from_modq",
        transforms.BuilderSpec(
            True, lambda n, q, r=0: spec.build(n, q, (r + 1) % q), spec.target, spec.size
        ),
    )
    argv = ("check", "--builder", "modqr_from_modq", "--n", "2", "--q", "3", "--r", "1")
    assert run_cli(capsys, *argv) == (1, "counterexample at input 010, output 010\n", "")
    code, out, _ = run_cli(capsys, *argv, "--json")
    data = json.loads(out)
    assert code == 1 and data["verdict"] == "counterexample"
    assert (data["counterexample"]["input"], data["counterexample"]["output"]) == ("010", "010")


def test_accept_b_json_reports_the_exact_probability(capsys, tmp_path):
    # the (3/5, 4/5) rotation twice: |<1|U U|0>|^2 = 576/625, |<0|U U|0>|^2 = 49/625
    path = tmp_path / "rot.qc"
    path.write_text(
        "circuit n=1 aux=0 context=rational5\n"
        + "layer { U [[3/5, -4/5], [4/5, 3/5]] [0] }\n" * 2
    )
    argv = ("accept", "--circuit", str(path), "--input", "0", "--mode", "B", "--json")
    assert run_cli(capsys, *argv, "--target", "1") == (
        0, '{"decision":"accept","mode":"B","probability":"576/625"}\n', ""
    )
    assert run_cli(capsys, *argv, "--target", "0") == (
        1, '{"decision":"reject","mode":"B","probability":"49/625"}\n', ""
    )
