import json

import pytest

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
    from qacclab import circuit as cir

    monkeypatch.setattr(cir, "BUDGET", 4)
    code, out, err = run_cli(capsys, "metrics", "--circuit", bell_file, "--input", "00")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_work_budget_exits_3_with_one_error_line(capsys, monkeypatch, bell_file):
    from qacclab import circuit as cir

    monkeypatch.setattr(cir, "WORK", 3)
    for argv in (
        ("simulate", "--circuit", bell_file, "--input", "00"),
        ("check", "--builder", "modq_from_mq", "--n", "1", "--q", "3"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert "work budget of 3 units" in err, argv


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
    assert err == "error: 13760248 gate lines exceed the memory budget 1048576\n"
    # an unsupported q is an input error, whatever the size
    code, out, err = run_cli(capsys, *argv, "1000003")
    assert code == 2 and out == "" and err.count("\n") == 1


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
    from qacclab.algebra import get_context, save_context

    path = tmp_path / "ctx.json"
    save_context(get_context("cyclotomic2"), path)
    code, out, _ = run_cli(
        capsys, "simulate", "--circuit", hadamard_file, "--input", "0",
        "--context-file", str(path),
    )
    assert code == 0 and "0.707106781" in out
