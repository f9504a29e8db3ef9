import itertools
import random

import pytest

from qacclab import transforms as tf
from qacclab.algebra import get_context
from qacclab import circuit as cir
from qacclab.circuit import (
    AddBlockGate,
    AddModGate,
    CNotLayer,
    Circuit,
    FanOutGate,
    FanOutModGate,
    FourierGate,
    ModGate,
    OneQubitGate,
    StagedCNotLayer,
    TensorLayer,
    ToffoliGate,
    ValidationError,
)
from qacclab import budget
from qacclab.algebra import table_dim_bound
from qacclab.dsl import ParseError, parse_circuit, scalar_to_text, serialize_circuit


def test_parse_hadamard_circuit():
    c = parse_circuit("circuit n=1 aux=0\nlayer { H [0] }")
    assert c.n_inputs == 1 and c.n_aux == 0
    (gate,) = c.layers[0].gates
    assert gate == FourierGate(2, (0,))


def test_parse_cnot_layer():
    c = parse_circuit("circuit n=2 aux=0\ncnotlayer { 0 -> 1 }")
    assert c.layers == (CNotLayer(((0, 1),)),)


def test_parse_staged_layer():
    c = parse_circuit("circuit n=4 aux=0\ncnotstages { 0 -> 1; 2 -> 3 | 1 -> 2 }")
    assert c.layers == (StagedCNotLayer((((0, 1), (2, 3)), ((1, 2),))),)


def test_duplicate_line_rejected_by_revalidation():
    with pytest.raises(ValidationError, match="overlap"):
        parse_circuit("circuit n=1 aux=0\nlayer { H [0]; H [0] }")


def test_parse_error_carries_position_and_expectation():
    with pytest.raises(ParseError) as info:
        parse_circuit("circuit n=2 aux=0\nlayer { TOF [0 1 2] }")
    err = info.value
    assert err.line == 2 and err.col > 0
    assert "->" in err.expected


def test_unknown_gate_keyword():
    with pytest.raises(ParseError) as info:
        parse_circuit("circuit n=1 aux=0\nlayer { FLIP [0] }")
    assert "TOF" in info.value.expected


def test_comments_and_whitespace():
    text = """# build a bell pair
circuit n=2 aux=0 context=cyclotomic2
layer { H [0] }   # hadamard
cnotlayer { 0 -> 1 }
"""
    c = parse_circuit(text)
    assert len(c.layers) == 2


def test_block_gates_round_trip():
    text = (
        "circuit n=6 aux=0 context=cyclotomic3\n"
        "layer { MQ 3 [(0 1) -> (2 3)] }\n"
        "layer { FQ' 3 [(0 1),(2 3) <- (4 5)] }\n"
        "layer { HQ 3 [(4 5)] }\n"
        "layer { T' 3 [(0 1) -> (4 5)] }\n"
        "layer { MOD 3 2 [0 1 2 -> 3] }\n"
    )
    c = parse_circuit(text)
    assert parse_circuit(serialize_circuit(c)) == c


def test_builders_round_trip():
    """Every circuit a builder makes parses back, n = 0 included: there
    block gates have no blocks and controlled-not layers no pairs."""
    for name, spec in tf.BUILDERS.items():
        for q, n in itertools.product((2, 3, 4, 5, 7), (0, 1, 2)):
            for r in range(q) if spec.needs_r else (0,):
                try:
                    circuit = spec.build(n, q, r)
                except tf.BuilderArgumentError:
                    continue
                text = serialize_circuit(circuit)
                assert parse_circuit(text) == circuit, (name, q, n, r, text)


def test_serialized_gates_sorted_by_lowest_line():
    ctx = get_context("cyclotomic2")
    layer = TensorLayer((ToffoliGate((4,), 5), FourierGate(2, (0,))))
    text = serialize_circuit(Circuit(6, 0, (layer,), ctx))
    assert text.index("H [0]") < text.index("TOF [4 -> 5]")


def test_a_weighted_mod_gate_is_refused_rather_than_printed_unweighted():
    ctx = get_context("cyclotomic2")
    weighted = Circuit(3, 0, (TensorLayer((ModGate(3, 1, (0, 1), 2, (1, 2)),)),), ctx)
    with pytest.raises(ValueError, match=r"^MOD gate weights \(1, 2\) have no DSL syntax$"):
        serialize_circuit(weighted)


def test_empty_circuit_serializes_to_header_only():
    ctx = get_context("cyclotomic3")
    text = serialize_circuit(Circuit(2, 1, (), ctx))
    assert text == "circuit n=2 aux=1 context=cyclotomic3\n"


def test_u_gate_scalars_exact():
    text = "circuit n=1 aux=0 context=cyclotomic2\nlayer { U [[s,s],[s,-s]] [0] }"
    c = parse_circuit(text)
    ctx = c.context
    gate = c.layers[0].gates[0]
    s = ctx.constants["s"]
    assert (gate.matrix[0][0] - s).is_zero()
    assert (gate.matrix[1][1] + s).is_zero()
    assert parse_circuit(serialize_circuit(c)) == c


def test_u_gate_symbol_powers():
    text = "circuit n=1 aux=0 context=cyclotomic5\nlayer { U [[1,0],[0,z^3*z^2]] [0] }"
    c = parse_circuit(text)
    gate = c.layers[0].gates[0]
    # z^5 = 1
    assert (gate.matrix[1][1] - c.context.one()).is_zero()


def test_exponent_above_the_cap_is_refused_at_its_token():
    # every basis name z^j of a context has j below its dimension, and the
    # cap is the largest dimension whose d^3-entry table the budget admits
    cap = max(d for d in range(1, 200) if d**3 <= budget.BUDGET)
    assert table_dim_bound() == cap == 101
    text = "circuit n=1 aux=0 context=cyclotomic5\nlayer {{ U [[1,0],[0,z^{}]] [0] }}"
    for k in (cap + 1, 10**9):
        with pytest.raises(ParseError, match=f"exponent {k} is above the cap {cap}$") as exc:
            parse_circuit(text.format(k))
        assert (exc.value.line, exc.value.col) == (2, 23)
    z = get_context("cyclotomic5").constants["z"]
    assert parse_circuit(text.format(2)).layers[0].gates[0].matrix[1][1] == z * z
    z_cap = parse_circuit(text.format(cap)).layers[0].gates[0].matrix[1][1]
    assert z_cap == get_context("cyclotomic5").fourier_scalars(5)[0][cap % 5]


def test_overlong_numbers_are_parse_errors():
    # int() converts at most 4300 digits; past that the token is refused
    with pytest.raises(ParseError, match="2:17: Exceeds the limit"):
        parse_circuit("circuit n=1 aux=0\nlayer { TOF [-> " + "1" * 5000 + "] }")
    with pytest.raises(ParseError, match="Exceeds the limit"):
        parse_circuit("circuit n=1 aux=0 context=cyclotomic" + "9" * 5000 + "\n")


def test_rational_literal_requires_compatible_denominator():
    with pytest.raises(ParseError, match="does not divide"):
        parse_circuit("circuit n=1 aux=0 context=rational5\nlayer { U [[1/3,0],[0,1]] [0] }")
    # no power of u is too large: the literal 1/3^65 loads in cyclotomic3
    text = "circuit n=1 aux=0 context=cyclotomic3\nlayer {{ U [[1/{0}*{0},0],[0,1]] [0] }}"
    c = parse_circuit(text.format(3**65))
    assert c.layers[0].gates[0].matrix[0][0] == c.context.one()


def test_unknown_symbol_reported():
    with pytest.raises(ParseError, match="symbol"):
        parse_circuit("circuit n=1 aux=0\nlayer { U [[w7,0],[0,1]] [0] }")


def test_scalar_rendering():
    ctx = get_context("cyclotomic3")
    z = ctx.constants["z"]
    s = ctx.constants["s"]
    value = ctx.from_int(2) - z * s
    assert scalar_to_text(value) == "2-z*s"
    assert scalar_to_text(ctx.zero()) == "0"


def test_context_header_resolution():
    c = parse_circuit("circuit n=2 aux=0 context=cyclotomic3\nlayer { HQ 3 [(0 1)] }")
    assert c.context.name == "cyclotomic3"
    with pytest.raises(ParseError, match="unknown context"):
        parse_circuit("circuit n=1 aux=0 context=bogus\n")


def test_float_literals_rejected():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_circuit("circuit n=1 aux=0\nlayer { U [[0.5,0],[0,1]] [0] }")


def _int_error(digits: str) -> str:
    try:
        int(digits)
    except ValueError as exc:  # the wording is the interpreter's
        return str(exc)
    raise AssertionError("int() converted an overlong literal")


_N2 = "circuit n=2 aux=0\n"
_C3 = "circuit n=4 aux=0 context=cyclotomic3\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (_N2 + "layer { FLIP [0] }",
         "2:9: found 'FLIP' (expected H, U, TOF, FAN, MOD, MQ, FQ, HQ, T)"),
        (_N2 + "layr { H [0] }", "2:1: found 'layr' (expected layer, cnotlayer, cnotstages)"),
        (_N2 + "layer { TOF [0 1] }", "2:17: found ']' (expected ->)"),
        (_N2 + "layer { TOF [0 -> 1 }", "2:21: found '}' (expected ])"),
        (_C3 + "layer { HQ 3 [()] }", "2:16: empty block (expected INT)"),
        (_N2 + "layer { FAN [1 <- 0", "2:20: unexpected end of input (expected ])"),
        (_N2 + "layer { H [0];",
         "2:15: unexpected end of input (expected H, U, TOF, FAN, MOD, MQ, FQ, HQ, T)"),
        ("circuit n=1 aux=0\nlayer { U [[1, 0], [0, ",
         "2:24: unexpected end of input (expected INT, NAME)"),
        (_N2 + "layer { TOF [-> " + "1" * 5000 + "] }", "2:17: " + _int_error("1" * 5000)),
        ("circuit n=1 aux=0 context=cyclotomic5\nlayer { U [[1,0],[0,z^102]] [0] }",
         "2:23: exponent 102 is above the cap 101"),
        (_N2 + "layer { U [[w7,0],[0,1]] [0] }", "2:13: context has no symbol 'w7'"),
        ("circuit n=1 aux=0 context=rational5\nlayer { U [[1/3,0],[0,1]] [0] }",
         "2:13: denominator 3 does not divide a power of u=5"),
        (_N2 + "layer { U [[1/0,0],[0,1]] [0] }", "2:16: zero denominator"),
        (_N2 + "\tlayer {\tH [0]\t@ }", "2:16: unexpected character '@'"),
        ("circuit n=1 aux=0\r\nlayer { H [0] }\r\n  $", "3:3: unexpected character '$'"),
        ("circuit n=1 aux=0 context=bogus\n", "1:27: unknown context name 'bogus'"),
        ("# comment\ncircuit n 1 aux=0\n", "2:11: found '1' (expected =)"),
        (_C3 + "layer { MQ 3 [(0 1), -> (2 3)] }  # comma", "2:22: found '->' (expected ()"),
        (_N2 + "cnotstages { 0 -> 1 | 1 0 }", "2:25: found '0' (expected ->)"),
    ],
)
def test_parse_error_messages(text, message):
    """Each malformed text fails with this exact line:column, message and
    expected list."""
    with pytest.raises(ParseError) as info:
        parse_circuit(text)
    assert str(info.value) == message


# -- round trip on seeded random canonical circuits ----------------------------


def _random_unitary(rng, ctx):
    """diag(±z^a, ±z^b), its antidiagonal twin, or for q = 2 the Hadamard
    matrix written out with s."""
    if ctx.fourier_q == 2 and rng.random() < 0.3:
        s = ctx.constants["s"]
        return ((s, s), (s, -s))
    zeta, _ = ctx.fourier_scalars(ctx.fourier_q)
    a, b = (rng.choice(zeta) * rng.choice((ctx.one(), -ctx.one())) for _ in range(2))
    zero = ctx.zero()
    return ((a, zero), (zero, b)) if rng.random() < 0.5 else ((zero, b), (a, zero))


def _random_gate(rng, ctx, avail: list):
    """A gate of a random kind on lines popped from avail, or None when too
    few lines are left for the kind drawn.  A Fourier gate at q = 2 prints
    as H, or as HQ' when inverse."""
    kind = rng.choice(("U", "TOF", "FAN", "MOD", "MQ", "FQ", "HQ", "T"))
    inverse = rng.random() < 0.5
    q = ctx.fourier_q if kind == "HQ" else rng.choice((2, 3, 4, 5))
    w = cir.block_width(q)

    def take(k):
        return tuple(avail.pop() for _ in range(k))

    def blocks(k):
        return tuple(take(w) for _ in range(k))

    need = {"U": 1, "TOF": 1, "FAN": 2, "MOD": 2, "MQ": 2 * w, "FQ": 2 * w,
            "HQ": w, "T": 2 * w}[kind]
    if len(avail) < need:
        return None
    if kind == "U":
        return OneQubitGate(_random_unitary(rng, ctx), avail.pop())
    if kind == "TOF":
        return ToffoliGate(take(rng.randint(0, min(2, len(avail) - 1))), avail.pop())
    if kind == "FAN":
        return FanOutGate(take(rng.randint(0, min(2, len(avail) - 1))), avail.pop())
    if kind == "MOD":
        return ModGate(q, rng.randrange(q), take(rng.randint(1, len(avail) - 1)), avail.pop())
    if kind == "HQ":
        return FourierGate(q, take(w), inverse=inverse)
    if kind == "T":
        return AddBlockGate(q, take(w), take(w), inverse=inverse)
    count = rng.randint(0, len(avail) // w - 1)
    if kind == "MQ":
        return AddModGate(q, blocks(count), take(w), inverse=inverse)
    return FanOutModGate(q, blocks(count), take(w), inverse=inverse)


def _random_pairs(rng, lines: int, staged: bool):
    """Disjoint pairs in random directions, sorted by lowest line; staged
    pairs join neighbouring lines, so their spans do not overlap.  Only
    unstaged pairs may be none: a lone empty stage has no spelling."""
    if staged:
        starts = range(rng.randrange(2), lines - 1, 2)
        pairs = [(a, a + 1) for a in starts if rng.random() < 0.7] or [(0, 1)]
        return tuple(p if rng.random() < 0.5 else p[::-1] for p in pairs)
    avail = list(range(lines))
    rng.shuffle(avail)
    pairs = [(avail.pop(), avail.pop()) for _ in range(rng.randint(0, lines // 2))]
    return tuple(sorted(pairs, key=min))


def _random_canonical_circuit(rng, ctx) -> Circuit:
    lines = rng.randint(6, 12)
    layers = []
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if roll < 0.15:
            layers.append(CNotLayer(_random_pairs(rng, lines, staged=False)))
        elif roll < 0.3:
            stages = tuple(_random_pairs(rng, lines, staged=True) for _ in range(rng.randint(0, 3)))
            layers.append(StagedCNotLayer(stages))
        else:
            avail = list(range(lines))
            rng.shuffle(avail)
            draws = (_random_gate(rng, ctx, avail) for _ in range(rng.randint(0, 4)))
            gates = [g for g in draws if g is not None]
            layers.append(cir.tensor_layer(*gates))
    n_aux = rng.randint(0, 2)
    return Circuit(lines - n_aux, n_aux, tuple(layers), ctx)


# The list in each layer or gate that may be empty.
_LISTS = {"TensorLayer": "gates", "CNotLayer": "pairs", "StagedCNotLayer": "stages",
          "FanOutGate": "targets", "AddModGate": "blocks", "FanOutModGate": "blocks"}


def test_round_trip_on_random_canonical_circuits():
    """parse(serialize(c)) == c for every gate kind, both inverse flags,
    controlled-not and staged layers, and every list left empty."""
    rng = random.Random(7531)
    seen, texts = set(), ""
    for i in range(120):
        ctx = get_context(f"cyclotomic{(2, 3, 5)[i % 3]}")
        c = _random_canonical_circuit(rng, ctx)
        text = serialize_circuit(c)
        assert parse_circuit(text) == c, text
        texts += text
        for layer in c.layers:
            seen.add(type(layer).__name__)
            for x in (layer, *getattr(layer, "gates", ())):
                name = type(x).__name__
                if name in _LISTS and not getattr(x, _LISTS[name]):
                    seen.add((name, "empty"))
            for g in getattr(layer, "gates", ()):
                seen.add((type(g).__name__, getattr(g, "inverse", None)))
    for name in ("AddModGate", "FanOutModGate", "FourierGate", "AddBlockGate"):
        assert {(name, False), (name, True)} <= seen
    assert "H [" in texts and "HQ' 2" in texts
    for name in ("OneQubitGate", "ToffoliGate", "FanOutGate", "ModGate"):
        assert (name, None) in seen
    assert {"TensorLayer", "CNotLayer", "StagedCNotLayer"} <= seen
    assert {(name, "empty") for name in _LISTS} <= seen
