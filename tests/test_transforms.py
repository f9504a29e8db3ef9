import hashlib
import itertools

import pytest

from support import _blockval, mutants

from qacclab import budget
from qacclab import circuit as cir
from qacclab import statevec as sv
from qacclab import transforms as tf
from qacclab.algebra import get_context, scalars
from qacclab.dsl import parse_circuit, serialize_circuit
from qacclab.circuit import (
    AddModGate,
    Circuit,
    FanOutGate,
    ModGate,
    TensorLayer,
    ToffoliGate,
)

GRID = [(q, n) for q in (2, 3, 4, 5) for n in (1, 2, 3)]


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4, 5) for n in (1, 2)])
def test_mq_via_conjugation_exact_on_every_basis_state(q, n):
    report = tf.check_builder("mq_via_conjugation", n, q)
    assert report.equivalent and report.aux_restored


@pytest.mark.parametrize("q,n", GRID)
def test_modqr_from_modq(q, n):
    for r in range(q):
        report = tf.check_builder("modqr_from_modq", n, q, r)
        assert report.equivalent and report.aux_restored, (q, n, r)


def test_modqr_r0_uses_no_extra_inputs():
    c = tf.build_modqr_from_modq(3, 3, 0)
    assert c.n_aux == 0
    assert len(c.layers) == 1


def test_modqr_truth_table():
    # n=3, q=3, r=1: flips the output iff the bit sum is 1 mod 3
    c = tf.build_modqr_from_modq(3, 3, 1)
    for x in range(8):
        bits = cir.key_to_bits(x, 3)
        state = sv.run(c, bits + "0")
        flip = bin(x).count("1") % 3 == 1
        expected = bits + ("1" if flip else "0") + "0" * c.n_aux
        assert state.support() == [int(expected, 2)]


@pytest.mark.parametrize("q,n", GRID)
def test_modq_from_mq(q, n):
    report = tf.check_builder("modq_from_mq", n, q)
    assert report.equivalent and report.aux_restored


def test_modq_from_mq_parity_case():
    # q=2 reduces to parity: check all 8 inputs of n=2 plus the b line
    c = tf.build_modq_from_mq(2, 2)
    for x1, x2, b in itertools.product((0, 1), repeat=3):
        bits = f"{x1}{x2}{b}"
        state = sv.run(c, bits)
        out_b = b ^ (1 if (x1 + x2) % 2 == 0 else 0)
        want = f"{x1}{x2}{out_b}" + "0" * c.n_aux
        assert state.support() == [int(want, 2)]


@pytest.mark.parametrize("q,n", GRID)
def test_modhat(q, n):
    for r in (0, q - 1):
        report = tf.check_builder("modhat", n, q, r)
        assert report.equivalent and report.aux_restored, (q, n, r)


def test_modhat_digit_example():
    # digits (1,2) with q=3, r=0: 1+2 = 0 mod 3 so the output flips
    c = tf.build_modhat(2, 3, 0)
    bits = "0110" + "0"  # digit blocks 01 and 10, then b
    state = sv.run(c, bits)
    key = state.support()[0]
    out = cir.key_to_bits(key, c.width)
    assert out[4] == "1"
    assert out[:4] == "0110" and set(out[5:]) <= {"0"}


def test_modhat_bit_weight_expansion():
    # the fanned-out copies give each bit its binary weight: exhaustive over
    # all 2-digit inputs for q=3
    c = tf.build_modhat(2, 3, 2)
    for d1 in range(4):
        for d2 in range(4):
            bits = cir.key_to_bits(d1, 2) + cir.key_to_bits(d2, 2) + "0"
            state = sv.run(c, bits)
            out = cir.key_to_bits(state.support()[0], c.width)
            assert out[4] == ("1" if (d1 + d2) % 3 == 2 else "0"), (d1, d2)


@pytest.mark.parametrize("q,n", GRID)
def test_mq_from_modq(q, n):
    report = tf.check_builder("mq_from_modq", n, q)
    assert report.equivalent and report.aux_restored


def test_mq_from_modq_uses_declared_gate_set():
    c = tf.build_mq_from_modq(2, 3)
    kinds = tf.gate_kinds(c)
    assert "AddModGate" not in kinds
    assert kinds <= {"ModGate", "FanOutGate", "ToffoliGate", "AddBlockGate"}


def test_mq_from_modq_sum_probe():
    # between the detector pipeline and the block add, the S block holds the
    # digit sum mod q for every qudigit input
    q, n = 3, 2
    full = tf.build_mq_from_modq(n, q)
    half_layers = full.layers[: (len(full.layers) - 1) // 2]
    c = Circuit(full.n_inputs, full.n_aux, half_layers, full.context)
    w = cir.block_width(q)
    s_block = tuple(range(full.width - w, full.width))
    for d1 in range(q):
        for d2 in range(q):
            bits = cir.key_to_bits(d1, w) + cir.key_to_bits(d2, w) + "0" * w
            state = sv.run(c, bits)
            key = state.support()[0]
            assert _blockval(key, s_block, c.width) == (d1 + d2) % q


@pytest.mark.parametrize("q,n", GRID)
def test_f_from_fq(q, n):
    report = tf.check_builder("f_from_fq", n, q)
    assert report.equivalent and report.aux_restored


def test_f_from_fq_truth_table():
    c = tf.build_f_from_fq(2, 3)
    for y1, y2, x in itertools.product((0, 1), repeat=3):
        bits = f"{y1}{y2}{x}"
        state = sv.run(c, bits)
        want = f"{y1 ^ x}{y2 ^ x}{x}" + "0" * c.n_aux
        assert state.support() == [int(want, 2)]


def test_equivalence_counterexample():
    ctx = get_context("cyclotomic2")
    identity = Circuit(1, 0, (), ctx)
    report = tf.equivalence_check(cir.x_gate(0), identity, 1)
    assert report.verdict == "counterexample"
    x, y, lhs, rhs = report.counterexample
    assert (x, y) == ("0", "0")


def test_aux_restoration_detected():
    # a circuit that dirties its auxiliary line must be flagged
    ctx = get_context("cyclotomic2")
    bad = Circuit(1, 1, (TensorLayer((cir.x_gate(1),)),), ctx)
    report = tf.equivalence_check(cir.x_gate(0), bad, 1)
    assert report.verdict == "counterexample"
    assert not report.aux_restored


def test_aux_counterexample_names_smallest_dirty_output():
    # |1,00> -> H -> (|0> - |1>)s, then X on the main line and on aux
    # line 2: the state holds 101 before 001, both aux-dirty
    ctx = get_context("cyclotomic2")
    layers = (
        TensorLayer((cir.hadamard_gate(0),)),
        TensorLayer((cir.x_gate(0), cir.x_gate(2))),
    )
    bad = Circuit(1, 2, layers, ctx)
    assert list(sv.run(bad, "1").entries) == [0b101, 0b001]
    report = tf.equivalence_check(Circuit(1, 0, (), ctx), bad, 1, inputs=[1])
    assert not report.aux_restored
    x, y, lhs, rhs = report.counterexample
    assert (x, y, lhs) == ("1", "0", None)
    assert rhs == -ctx.constants["s"]


def test_end_to_end_chain_mod3():
    base = tf.build_modq_from_mq(2, 3)
    chain = tf.expand_addmod(base)
    kinds = tf.gate_kinds(chain)
    assert "AddModGate" not in kinds
    assert kinds <= {"FourierGate", "FanOutModGate", "ToffoliGate", "CNotLayer"}
    report = tf.equivalence_check(ModGate(3, 0, (0, 1), 2), chain, 3)
    assert report.equivalent and report.aux_restored


def test_expand_addmod_preserves_other_gates():
    ctx = get_context("cyclotomic2")
    layer = TensorLayer((AddModGate(2, ((0,),), (1,)), cir.x_gate(2)))
    c = Circuit(3, 0, (layer,), ctx)
    expanded = tf.expand_addmod(c)
    assert len(expanded.layers) == 3
    report = tf.equivalence_check(AddModGate(2, ((0,),), (1,)), Circuit(2, 0, tuple(
        TensorLayer(tuple(g for g in l.gates if min(g.lines()) < 2)) for l in expanded.layers
    ), ctx), 2)
    assert report.equivalent


def test_main_cap_enforced(monkeypatch):
    # enumerating every input is charged up front, one unit per input; an
    # empty circuit's runs cost nothing more
    ctx = get_context("cyclotomic2")
    big = Circuit(13, 0, (), ctx)
    monkeypatch.setattr(budget, "WORK", 1 << 13)
    assert tf.equivalence_check(big, big, 13).equivalent
    monkeypatch.setattr(budget, "WORK", (1 << 13) - 1)
    with pytest.raises(
        sv.CapExceededError, match=r"^comparing 2\^13 inputs exceeds the work budget of 8191 units$"
    ):
        tf.equivalence_check(big, big, 13)


@pytest.mark.parametrize(
    "name, n, q", [("mq_from_modq", 6, 3), ("mq_from_modq", 7, 3), ("modq_from_mq", 12, 3),
                   ("f_from_fq", 12, 3), ("modhat", 6, 3)]
)
def test_checks_past_twelve_compared_lines_pass(name, n, q):
    # 13 to 16 compared lines, each a fraction of a second of work
    report = tf.check_builder(name, n, q)
    assert report.equivalent and report.aux_restored and report.lines_compared > 12


def test_identity_check_on_40_lines_is_refused_before_any_input_runs(monkeypatch):
    ctx = get_context("cyclotomic2")
    wide = Circuit(40, 0, (), ctx)
    monkeypatch.setattr(sv.Program, "apply", None)  # no input may run
    with pytest.raises(sv.CapExceededError, match=r"^comparing 2\^40 inputs exceeds the work"):
        tf.equivalence_check(wide, wide)


def _refused_arguments():
    c2, c3 = get_context("cyclotomic2"), get_context("cyclotomic3")
    x0, h0 = TensorLayer((cir.x_gate(0),)), TensorLayer((cir.hadamard_gate(0),))
    two, h = Circuit(2, 0, (x0,), c2), Circuit(2, 0, (h0,), c2)
    with_aux = Circuit(2, 1, (x0,), c2)
    other_context = Circuit(2, 0, (x0,), c3)
    yield "too many compared lines", two, two, 100, "^compared lines 100 not in 0..2"
    yield "negative compared lines", two, two, -1, "^compared lines -1 not in 0..2"
    yield "callable target", lambda x: x, two, None, "^target function is neither a gate nor a"
    yield "MOD target, a weight short", ModGate(3, 0, (0,), 1, (1, 2)), two, None, "^target MOD"
    yield "MOD target, a zero weight", ModGate(3, 0, (0,), 1, (0,)), h, None, r"weights \(0,\) are"
    yield "gate target on an aux line", cir.x_gate(2), with_aux, 2, "^target line 2 out of range$"
    yield "gate target reusing a line", ToffoliGate((0,), 0), two, None, "^target ToffoliGate reuses a"
    yield "MOD target, q = 0", ModGate(0, 0, (0,), 1), two, None, "^target q=0 must be at least 2$"
    yield "MOD target, r out of range", ModGate(3, 5, (0,), 1), two, None, "^target residue r=5"
    yield "ADD target, q = 1", AddModGate(1, ((0,),), (1,)), two, None, "^target q=1 must be"
    yield "context, permutation candidate", other_context, two, None, "context differs"
    yield "context, branching candidate", other_context, h, None, "context differs"


@pytest.mark.parametrize("case", list(_refused_arguments()), ids=lambda case: case[0])
def test_arguments_that_cannot_be_compared_are_refused_before_any_input_runs(monkeypatch, case):
    _, target, candidate, main, message = case
    monkeypatch.setattr(sv.Program, "apply", None)  # no per-input run may start
    monkeypatch.setattr(tf, "_input_column", None)  # no column run may start
    with pytest.raises(ValueError, match=message):
        tf.equivalence_check(target, candidate, main)


@pytest.mark.parametrize("layer", [
    TensorLayer((cir.hadamard_gate(0), cir.hadamard_gate(1))), TensorLayer((cir.x_gate(0),)),
])
def test_a_callable_target_is_refused_on_either_path(layer):
    # k + 4 maps every input off the two compared lines; the H candidate
    # takes the per-input path, the X candidate the column path
    candidate = Circuit(2, 0, (layer,), get_context("cyclotomic2"))
    with pytest.raises(ValueError, match="^target function is neither a gate nor a circuit$"):
        tf.equivalence_check(lambda k: k + 4, candidate)


def test_a_mod_gate_target_with_no_inputs_is_still_checked():
    # modqr_from_modq at n = 0 compares one line against MOD_3 of no inputs
    assert tf.check_builder("modqr_from_modq", 0, 3, 1).equivalent


@pytest.mark.parametrize(
    "args, message",
    [
        (("f_from_fq", 2, 3, 1), "^r=1 given, but builder 'f_from_fq' takes no r$"),
        (("modq_from_mq", -1, 3), "^n=-1 must be nonnegative$"),
        (("modhat", 2, 3, 3), "^r=3 must satisfy 0 <= r < q = 3$"),
        (("modhat", 2, 1, 0), "^q=1 must be at least 2$"),
        (("nonsense", 2, 3), "^unknown builder 'nonsense'"),
    ],
)
def test_check_builder_refuses_what_qacc_check_refuses(args, message):
    with pytest.raises(tf.BuilderArgumentError, match=message):
        tf.check_builder(*args)


def test_check_builder_refuses_by_context_and_size_before_building(monkeypatch):
    # the order qacc check exits in: domain (2), the context's table (3),
    # size (3), and only then the 2^(n + 1) work preflight; the builder
    # must not run

    def refuse(*_args):
        raise AssertionError("builder called for a check it refuses")

    spec = tf.BUILDERS["mq_from_modq"]
    monkeypatch.setitem(
        tf.BUILDERS, "mq_from_modq", tf.BuilderSpec(False, refuse, spec.target, spec.size, spec.inputs)
    )
    with pytest.raises(cir.CapExceededError, match="^4031688 gate lines of the built circuit"):
        tf.check_builder("mq_from_modq", 20, 132)
    with pytest.raises(cir.CapExceededError, match=r"^1061208 table entries \(at least: d > 101\)"):
        tf.check_builder("mq_from_modq", 10000, 1000003)  # past the size budget too
    with pytest.raises(tf.BuilderArgumentError):  # outside the domain, unsupported q too
        tf.check_builder("mq_from_modq", -1, 1000003)
    with pytest.raises(cir.CapExceededError, match="work budget"):  # fits, but 2^25 inputs
        tf.check_builder("mq_from_modq", 24, 3)


def test_check_charges_every_run_of_candidate_and_target(monkeypatch):
    # one H on one line: 2 inputs up front, then per input 2 key-gate
    # applications in the candidate and 2 in the circuit target
    ctx = get_context("cyclotomic2")
    h = Circuit(1, 0, (TensorLayer((cir.hadamard_gate(0),)),), ctx)
    monkeypatch.setattr(budget, "WORK", 2 + 2 * (2 + 2))
    assert tf.equivalence_check(h, h).equivalent
    monkeypatch.setattr(budget, "WORK", 2 + 2 * (2 + 2) - 1)
    with pytest.raises(sv.CapExceededError, match="^a state-vector run exceeds the work budget"):
        tf.equivalence_check(h, h)


def _gate_lines(c: Circuit) -> int:
    total = 0
    for layer in c.layers:
        if isinstance(layer, TensorLayer):
            total += sum(len(g.lines()) for g in layer.gates)
        elif isinstance(layer, cir.CNotLayer):
            total += 2 * len(layer.pairs)
        else:
            total += sum(2 * len(stage) for stage in layer.stages)
    return total


def test_builder_size_counts_the_built_gate_lines():
    built = 0
    for name, spec in tf.BUILDERS.items():
        for q in (2, 3, 4, 5, 6, 7, 8, 16):
            for n in range(6):
                for r in range(q) if spec.needs_r else (0,):
                    try:
                        c = spec.build(n, q, r)
                    except tf.BuilderArgumentError:
                        continue  # outside the construction's domain
                    assert spec.size(n, q, r) == _gate_lines(c), (name, n, q, r)
                    built += 1
    assert built > 700
    assert tf.BUILDERS["mq_from_modq"].size(10000, 16, 0) == 13_760_248
    assert tf.BUILDERS["mq_via_conjugation"].size(100000, 16, 0) == 1_200_012


def test_builder_outputs_restore_aux_structurally():
    # every builder: on every basis input, all reachable states keep aux = 0
    for name, spec in tf.BUILDERS.items():
        c = spec.build(2, 3, 1 if spec.needs_r else 0)
        aux = c.n_aux
        mask = (1 << aux) - 1
        for x in range(1 << c.n_inputs):
            state = sv.run(c, cir.key_to_bits(x, c.n_inputs))
            for key in state.entries:
                assert key & mask == 0, (name, x)


def test_conjugation_non_qudigit_states_fixed():
    # q=3 blocks with value 3 are inert for both the gate and the circuit
    circuit = tf.build_mq_via_conjugation(1, 3)
    for bits in ("1100", "1101", "1111", "0111"):
        state = sv.run(circuit, bits)
        amp = state.amplitude_of(bits)
        if bits[:2] == "11":  # non-qudigit digit block: nothing moves
            assert state.support() == [int(bits, 2)]
            assert (amp - circuit.context.one()).is_zero()
        else:  # non-qudigit result block: digits still fixed, b fixed
            assert state.support() == [int(bits, 2)]


# -- every builder is a conjugation -------------------------------------------

# Digest of "name n q r" and serialize_circuit of every build on the grid
# below: the gates, their order and their lines must not drift when the
# builders are reworked.
BUILD_BYTES_SHA256 = "e5479b4953223a56a926c2dd64b3c129933654549950043691fb867893a16d5e"

# builders whose centre is self-inverse, so the whole circuit is too
SELF_INVERSE = {"modqr_from_modq", "modhat", "modq_from_mq", "f_from_fq"}


def _build_grid():
    for name in sorted(tf.BUILDERS):
        spec = tf.BUILDERS[name]
        for q in (2, 3, 4, 5, 7):
            for n in (1, 2, 3):
                for r in range(q) if spec.needs_r else (0,):
                    yield name, n, q, r, spec.build(n, q, r)


def test_built_bytes_are_pinned():
    digest = hashlib.sha256()
    builds = 0
    for name, n, q, r, c in _build_grid():
        digest.update((f"{name} {n} {q} {r}\n" + serialize_circuit(c)).encode())
        builds += 1
    assert builds == 186
    assert digest.hexdigest() == BUILD_BYTES_SHA256


def test_every_builder_is_a_conjugation():
    # the layers mirror under inversion around the centre; where the centre
    # is self-inverse the circuit equals its own inverse
    for name, n, q, r, c in _build_grid():
        layers = c.layers
        for i in range(len(layers) // 2):
            assert layers[-1 - i] == cir.inverse_layer(layers[i]), (name, n, q, r, i)
        assert (cir.inverse_circuit(c) == c) == (name in SELF_INVERSE), (name, n, q, r)


def test_conjugate_mirrors_the_outer_layers():
    f, g = TensorLayer((cir.hadamard_gate(0),)), TensorLayer((cir.FourierGate(3, (1, 2)),))
    middle = TensorLayer((ToffoliGate((0,), 3),))
    assert tf.conjugate((f, g), (middle,)) == (
        f, g, middle, cir.inverse_layer(g), cir.inverse_layer(f)
    )
    assert tf.conjugate((), (middle,)) == (middle,)


def test_a_passing_check_builds_no_scalar_per_input(monkeypatch):
    # states stay raw numerators through every compared input, so the
    # scalars a passing check builds are its gates' multipliers alone; the
    # first check (on seed 1's first q = 3 block circuit of the
    # equiv-fourier benchmark) fills the context's caches
    c = parse_circuit(
        "circuit n=6 aux=0 context=cyclotomic3\n"
        "layer { HQ' 3 [(2 3)] }\n"
        "layer { MQ 3 [(2 3),(0 1) -> (4 5)] }\n"
        "layer { FQ 3 [(4 5),(2 3) <- (0 1)] }\n"
    )
    lowered = tf.expand_addmod(c)
    assert tf.equivalence_check(c, lowered, c.width, inputs=range(1)).equivalent
    calls = []
    build = scalars.from_numerators
    counted = lambda *args: calls.append(args) or build(*args)  # noqa: E731
    monkeypatch.setattr(scalars, "from_numerators", counted)
    monkeypatch.setattr(sv, "from_numerators", counted)
    counts = []
    for k in (8, 32, 64):
        calls.clear()
        assert tf.equivalence_check(c, lowered, c.width, inputs=range(k)).equivalent
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2] > 0


# -- the mutant corpus ----------------------------------------------------------

# Digest of "name n q r label verdict input" for every mutant below, the
# input being the counterexample's, or None for an equivalent mutant.  A
# new verdict engine must reach the same verdicts on the same corpus.
MUTANT_VERDICTS_SHA256 = "1b32ad4070fb4719d3311eded1dd2381da884dd671883369187ba07791d1334a"

# (mutants, equivalent) per builder over the three q; every equivalent
# mutant is an inverse flip at q = 2, where the Fourier gate and adding
# mod 2 are their own inverses (README lists them)
MUTANT_COUNTS = {
    "f_from_fq": (24, 2),
    "modhat": (30, 0),
    "modq_from_mq": (30, 2),
    "modqr_from_modq": (20, 0),
    "mq_from_modq": (298, 1),
    "mq_via_conjugation": (45, 7),
}


def _mutant_points():
    for q in (2, 5, 3):
        for name in sorted(tf.BUILDERS):
            n = {"modqr_from_modq": 3, "mq_from_modq": 1}.get(name, 2) if q == 3 else 2
            yield name, n, q, 1 if tf.BUILDERS[name].needs_r else 0


def test_mutant_verdicts_are_pinned():
    digest = hashlib.sha256()
    counts = {name: [0, 0] for name in tf.BUILDERS}
    for name, n, q, r in _mutant_points():
        spec = tf.BUILDERS[name]
        built = spec.build(n, q, r)
        for label, layers in mutants(built):
            candidate = Circuit(built.n_inputs, built.n_aux, layers, built.context)
            inputs = spec.inputs(n, q) if spec.inputs is not None else None
            report = tf.equivalence_check(spec.target(n, q, r), candidate, inputs=inputs)
            x = report.counterexample[0] if report.counterexample else None
            digest.update(f"{name} {n} {q} {r} {label} {report.verdict} {x}\n".encode())
            counts[name][0] += 1
            counts[name][1] += report.equivalent
    assert {name: tuple(c) for name, c in counts.items()} == MUTANT_COUNTS
    assert digest.hexdigest() == MUTANT_VERDICTS_SHA256
