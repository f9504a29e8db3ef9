"""Seeded fuzz of the command line, run in-process through cli.main.

Inputs are builder-emitted DSL with tokens dropped, duplicated or swapped,
integers replaced and exponents added; malformed bit strings; malformed
context JSON; and misused flags.  Every run must end in a documented exit
code with no traceback, and an exit of 2 or 3 must end with an `error:`
line.  Circuits have at most 8 lines, so the whole run takes about two
seconds.
"""

import contextlib
import copy
import io
import json
import random
import re

from qacclab import cli
from qacclab.algebra import get_context, table_dim_bound

SEED = 11
RUNS = 250

# (builder, n, q, r): each builds a circuit of at most 8 lines whose tensor
# graph stays small; q = 3 Fourier gates lower densely, so mq_via_conjugation
# is taken at q = 2 (at q = 3 its graph has 9,584 nodes)
BASES = (
    ("mq_via_conjugation", 2, 2, 0),
    ("modqr_from_modq", 2, 3, 1),
    ("modq_from_mq", 1, 3, 0),
    ("modhat", 1, 3, 2),
    ("mq_from_modq", 1, 2, 0),
    ("f_from_fq", 1, 3, 0),
)
# a one-qubit gate whose symbol the exponent mutation can raise
SCALAR_LAYER = "layer { U [[1,0],[0,z]] [0] }\n"
INTS = ("-1", "0", "2", "99", str(10**12))
EXPONENTS = (2, 99, table_dim_bound(), table_dim_bound() + 1, 10**9, 10**12)
CONTEXT_NAMES = (
    "cyclotomic10007", "cyclotomic0", "rational0", "nonsense", "cyclotomic" + "9" * 5000,
)
BAD_BITS = ("", "2", "x", "0 ", "١", "-1", "01" * 50)
JSON_LEAVES = (-1, 0, 2, 99, 10**12, "x", None, 2.5, [], {})
TOKEN = re.compile(r"->|<-|\d+|\w+|\S")


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _mutate_dsl(rng, text: str) -> str:
    toks = TOKEN.findall(text)
    for _ in range(rng.choice((1, 1, 2, 3))):
        op = rng.choice(("drop", "dup", "swap", "int", "int", "exp", "context"))
        i = rng.randrange(len(toks))
        if op == "drop":
            del toks[i]
        elif op == "dup":
            toks.insert(i, toks[i])
        elif op == "swap":
            j = rng.randrange(len(toks))
            toks[i], toks[j] = toks[j], toks[i]
        elif op == "int":
            # half of these hit the header's line counts
            head = toks[: 6 if rng.random() < 0.5 else None]
            ints = [k for k, t in enumerate(head) if t.isdigit()]
            if ints:
                toks[rng.choice(ints)] = rng.choice(INTS)
        elif op == "exp":
            names = [k for k, t in enumerate(toks) if t in ("z", "s", "w")]
            if names:
                toks[rng.choice(names)] += f"^{rng.choice(EXPONENTS)}"
        else:
            names = [k for k, t in enumerate(toks) if t.startswith(("cyclotomic", "rational"))]
            if names:
                toks[rng.choice(names)] = rng.choice(CONTEXT_NAMES)
    return " ".join(toks)


def _bits(rng, width: int, bad: bool) -> str:
    if not bad:
        return "".join(rng.choice("01") for _ in range(width))
    if rng.random() < 0.5:
        return rng.choice(BAD_BITS)
    wrong = width + 1 if width == 0 or rng.random() < 0.5 else width - 1
    return "".join(rng.choice("01") for _ in range(wrong))


def _leaf_paths(obj, path=()):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaf_paths(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaf_paths(v, path + (i,))
    yield path


def _mutate_json(rng, data) -> str:
    data = copy.deepcopy(data)
    path = rng.choice([p for p in _leaf_paths(data) if p])
    owner = data
    for key in path[:-1]:
        owner = owner[key]
    if rng.random() < 0.3:
        del owner[path[-1]]
    else:
        owner[path[-1]] = rng.choice(JSON_LEAVES)
    return json.dumps(data)


def _context_files(rng, tmp_path) -> tuple[list[str], list[str]]:
    """(malformed files, mutated contexts) as paths; the first list also
    names a directory and a missing file."""
    rational = get_context("rational10").to_json()
    texts = [
        "not json\n",
        "",
        "[1]\n",
        "{}\n",
        "[" * 100_000,
        json.dumps({**rational, "fourier_q": 12000}),
        json.dumps({**rational, "fourier_q": 10**12}),
        json.dumps({**rational, "fourier_q": "3"}),
    ]
    for name in ("cyclotomic2", "cyclotomic3", "rational10"):
        data = get_context(name).to_json()
        texts += [_mutate_json(rng, data) for _ in range(12)]
    paths = []
    for i, text in enumerate(texts):
        path = tmp_path / f"ctx{i}.json"
        path.write_text(text)
        paths.append(str(path))
    return paths[:8] + [str(tmp_path), str(tmp_path / "missing.json")], paths[8:]


def _circuit_argv(rng, tmp_path, sources, contexts, index: int) -> list[str]:
    """One command on a circuit file, with at most one fault: mutated DSL,
    10^12 auxiliary lines, a bad --input or --target, a bad --context-file
    or an unreadable --circuit."""
    fault = rng.choices(("none", "dsl", "wide", "input", "target", "context", "file"),
                        (30, 35, 3, 8, 6, 15, 3))[0]
    text = rng.choice(sources)
    if fault == "dsl":
        text = _mutate_dsl(rng, text)
    elif fault == "wide":
        text = re.sub(r"aux=\d+", "aux=1000000000000", text)
    path = tmp_path / f"c{index}.qc"
    path.write_text(text)
    if fault == "file":  # a directory, a missing file, a file that is not UTF-8
        path = rng.choice((tmp_path, tmp_path / "missing.qc", tmp_path / "latin1.qc"))
    header = re.search(r"n\s*=\s*(\d+)\s+aux\s*=\s*(\d+)", text)
    n, aux = (int(header[1]), int(header[2])) if header else (1, 0)
    n, width = min(n, 100), min(n + aux, 100)
    cmd = rng.choice(("simulate", "amplitude", "accept", "graph", "metrics"))
    argv = [cmd, "--circuit", str(path), "--input", _bits(rng, n, fault == "input")]
    if cmd in ("amplitude", "accept") or cmd == "graph" and rng.random() < 0.5:
        argv += ["--target", _bits(rng, width, fault == "target")]
    if cmd == "accept":
        argv += ["--mode", rng.choice("ENB")]
    if cmd == "graph" and rng.random() < 0.5:
        argv += ["--method", rng.choice(("dp", "paths"))]
    if fault == "context":
        argv += ["--context-file", rng.choice(contexts)]
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


def _misused_flags(rng) -> list[str]:
    builder, n, q, r = rng.choice(BASES)
    argv = [rng.choice(("build", "check")), "--builder", builder,
            "--n", str(n), "--q", str(q), "--r", str(r)]
    op = rng.choice(("drop", "value", "value", "unknown", "command", "empty"))
    if op == "drop":
        del argv[rng.randrange(len(argv))]
    elif op == "value":
        slot = rng.choice((2, 4, 6, 8))
        argv[slot] = rng.choice(INTS + ("x", "", "1.5", "nonsense"))
    elif op == "unknown":
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(("--bogus", "-x", "--json=1")))
    elif op == "command":
        argv[0] = rng.choice(("simulate", "metrics", "nope", "--help"))
    else:
        argv = argv[: rng.randrange(2)]
    return argv


def _check(argv, runs: list) -> None:
    try:
        code, out, err = _cli(argv)
    except Exception as exc:
        raise AssertionError(f"{argv} raised {exc!r}") from exc
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in out + err, argv
    if code in (2, 3):
        assert "error:" in err.rstrip("\n").rsplit("\n", 1)[-1], (argv, err)
    runs.append((argv, (code, out, err)))


def test_cli_survives_malformed_input(tmp_path):
    rng = random.Random(SEED)
    sources = []
    for builder, n, q, r in BASES:
        code, out, _err = _cli(["build", "--builder", builder, "--n", str(n), "--q", str(q),
                                "--r", str(r)])
        assert code == 0
        n_in, aux = map(int, re.search(r"n=(\d+) aux=(\d+)", out).groups())
        assert n_in + aux <= 8, builder
        sources += [out, out + SCALAR_LAYER]
    malformed, mutated = _context_files(rng, tmp_path)
    (tmp_path / "latin1.qc").write_bytes(sources[0].encode() + b"# caf\xe9\n")
    runs: list = []  # (argv, (exit code, stdout, stderr))
    circuit = tmp_path / "c.qc"
    circuit.write_text(sources[0])
    zeros = "0" * int(re.search(r"n=(\d+)", sources[0])[1])
    for path in malformed:  # each once, then at random with the mutated ones
        _check(["simulate", "--circuit", str(circuit), "--input", zeros, "--context-file", path], runs)
    for i in range(RUNS):
        if rng.random() < 0.8:
            _check(_circuit_argv(rng, tmp_path, sources, malformed + mutated, i), runs)
        else:
            _check(_misused_flags(rng), runs)
    assert {result[0] for _argv, result in runs} == {0, 1, 2, 3}
    # a later call in the same process answers each command as its first did
    for argv, result in runs[::-5]:
        assert _cli(argv) == result, argv
