"""The per-input equivalence check cut in the middle.

A check with a branching candidate C = A·B compares B|x,0> with
A⁻¹(T|x> ⊗ |0>); a check that does not cut is the cut at the last
boundary, where A and A⁻¹ are empty.  That is sound only if every layer's
inverse undoes it exactly, which is pinned first: for every permutation
gate kind on every key, non-qudigit block values included, and for
Fourier and one-qubit gates as exact state-vector runs; a one-qubit gate
in a context without a conjugation, which has no exact inverse, cannot be
made.  Reports are then compared, byte for byte, with
support.per_key_report, which runs the whole candidate on one input at a
time, on builders, their mutants and seeded random conjugations; and a
cut check's work charges are pinned unit for unit.
"""

import copy
import json
import random
from fractions import Fraction

import pytest

from support import (
    PERMUTATION_KINDS,
    per_key_report,
    random_permutation_gate,
    two_element_context_json,
)

from qacclab import budget
from qacclab import circuit as cir
from qacclab import statevec as sv
from qacclab import transforms as tf
from qacclab.algebra import AlgebraContext, get_context
from qacclab.circuit import (
    Circuit,
    FourierGate,
    OneQubitGate,
    TensorLayer,
    ToffoliGate,
    block_width,
    x_gate,
)

QS = (2, 3, 4, 5, 7)


def _spy_cuts(monkeypatch) -> list:
    """(cut, probe units, boundary of no cut) of every cut the checks
    choose, in order."""
    made = []
    choose = tf._choose_cut

    def spy(inverse, costs, state, work):
        cut, units = choose(inverse, costs, state, work)
        made.append((cut, units, len(costs) - 1))
        return cut, units

    monkeypatch.setattr(tf, "_choose_cut", spy)
    return made


# -- every layer has an exact inverse ------------------------------------------


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("kind", PERMUTATION_KINDS)
def test_inverse_permutation_gate_is_undone_on_every_key(kind, q):
    # each gate is checked with both inverse flags, on every key of its
    # width, so non-qudigit block values are covered
    rng = random.Random(f"cut:{kind}:{q}")
    done = 0
    while done < 6:
        width = rng.randint(1, 3 * block_width(q))
        gate = random_permutation_gate(rng, kind, q, list(range(width)))
        if gate is None:
            continue
        keys = list(range(1 << width))
        for g in (gate, cir.inverse_gate(gate)):
            act = cir.permutation_action(g, width)
            undo = cir.permutation_action(cir.inverse_gate(g), width)
            assert [act(undo(k)) for k in keys] == keys, (g, width)
        done += 1


def _one_qubit_gates(ctx, q):
    """Exactly unitary 2x2 gates of cyclotomic q: phases diag(1, ζ^k), ζ^k
    times X, and for q = 2 the Hadamard as a one-qubit gate."""
    zeta, s = ctx.fourier_scalars(q)
    one, zero = ctx.one(), ctx.zero()
    gates = []
    for k in range(q):
        gates.append(((one, zero), (zero, zeta[k])))
        gates.append(((zero, zeta[k]), (one, zero)))
    if q == 2:
        gates.append(((s, s), (s, -s)))
    return gates


def _basis_runs(layers, width, ctx):
    """The state of each key on `width` lines after the layers, exactly."""
    program = sv.Compiler(width, ctx).program(layers)
    return [program.apply({k: ctx.one()}, budget.Work()) for k in range(1 << width)]


@pytest.mark.parametrize("q", QS)
def test_inverse_fourier_and_one_qubit_gates_are_undone_exactly(q):
    ctx = get_context(f"cyclotomic{q}")
    w = block_width(q)
    width = w + 1
    identity = [{k: ctx.one()} for k in range(1 << width)]
    gates = [FourierGate(q, tuple(range(w)), inverse) for inverse in (False, True)]
    gates.append(FourierGate(q, tuple(reversed(range(1, width))), False))  # scattered order
    gates += [OneQubitGate(m, line) for m in _one_qubit_gates(ctx, q) for line in (0, w)]
    for gate in gates:
        layer = TensorLayer((gate,))
        for first, second in ((cir.inverse_layer(layer), layer), (layer, cir.inverse_layer(layer))):
            assert _basis_runs((first, second), width, ctx) == identity, gate
    # the Fourier gate fixes non-qudigit values, and so does its inverse
    if q & (q - 1):
        gate = TensorLayer((FourierGate(q, tuple(range(w)), True),))
        keys = [k for k in range(1 << width) if k >> 1 >= q]
        runs = _basis_runs((gate,), width, ctx)
        assert all(runs[k] == {k: ctx.one()} for k in keys)


def _no_conjugation_context():
    """Basis 1, b with b·b = 2 and u = 2, and no conjugation."""
    return AlgebraContext.from_json({**two_element_context_json(2, 2, 1), "fourier_q": None})


def _two_hadamards(ctx, s):
    h = OneQubitGate(((s, s), (s, -s)), 0)
    return Circuit(2, 0, (TensorLayer((h,)), TensorLayer((h,))), ctx)


def test_without_a_conjugation_a_one_qubit_circuit_cannot_be_made(monkeypatch):
    ctx = _no_conjugation_context()
    assert ctx.conjugation is None
    half = ctx.basis_element(1) * ctx.scalar_from_rational(Fraction(1, 2))
    h = OneQubitGate(((half, half), (half, -half)), 0)  # H = (b/2)[[1, 1], [1, -1]]
    with pytest.raises(ValueError, match="conjugation"):
        cir.inverse_gate(h)
    with pytest.raises(cir.ValidationError, match="needs a context with a conjugation"):
        _two_hadamards(ctx, half)
    # so every candidate has an exact inverse, and a check with a conjugation
    # makes the cut after the first H:
    # input 0 runs whole (6), the probe runs the second H back (2), and
    # inputs 1..3 each run one H forward and one back (2 + 2)
    c2 = get_context("cyclotomic2")
    s = c2.constants["s"]
    monkeypatch.setattr(budget, "WORK", 4 + 6 + 2 + 3 * 4)
    assert tf.equivalence_check(Circuit(2, 0, (), c2), _two_hadamards(c2, s)).equivalent
    monkeypatch.setattr(budget, "WORK", 4 + 6 + 2 + 3 * 4 - 1)
    with pytest.raises(sv.CapExceededError, match="work budget"):
        tf.equivalence_check(Circuit(2, 0, (), c2), _two_hadamards(c2, s))


# -- a cut check charges its runs and its probe ----------------------------------


def test_cut_check_charges_every_run_and_the_probe(monkeypatch):
    # C = H0, X1, H0 against the circuit X1, on 2 lines.  Input 0 runs C
    # layer by layer: 2 (H on 1 state), 2 (X on 2), 4 (H on 2), so the
    # boundaries cost 0, 2, 4, 8; its target run costs 1.  The probe runs
    # back from |01>: H (1 state x 2) reaches boundary 2 at 4 + 2 = 6 < 8,
    # the best; X (2 x 1) reaches boundary 1 at 2 + 4 = 6, no better; H on
    # 2 states would take the probe to 4 + 4 = 8 >= 6, so it stops there,
    # having spent 4.  Inputs 1..3 each run H and X forward (2 + 2), the
    # target (1) and H back (2).
    ctx = get_context("cyclotomic2")
    h = TensorLayer((cir.hadamard_gate(0),))
    candidate = Circuit(2, 0, (h, TensorLayer((x_gate(1),)), h), ctx)
    target = Circuit(2, 0, (TensorLayer((x_gate(1),)),), ctx)
    made = _spy_cuts(monkeypatch)
    units = 4 + (8 + 1) + 4 + 3 * (4 + 1 + 2)
    monkeypatch.setattr(budget, "WORK", units)
    assert tf.equivalence_check(target, candidate).equivalent
    assert made == [(2, 4, 3)]
    monkeypatch.setattr(budget, "WORK", units - 1)
    with pytest.raises(sv.CapExceededError, match="work budget"):
        tf.equivalence_check(target, candidate)


def test_a_dirty_input_is_charged_its_target_run(monkeypatch):
    # the per-input twin of test_columns' column charge pin: C = X on aux
    # line 2, H0, H0 dirties input 0.  2^2 inputs up front, then X (1 state
    # x 1), H (1 x 2) and H (2 x 2) forward, then the circuit target X0, X0
    # (1 state x 2) before the states are compared: 4 + 7 + 2
    ctx = get_context("cyclotomic2")
    h = TensorLayer((cir.hadamard_gate(0),))
    candidate = Circuit(2, 1, (TensorLayer((x_gate(2),)), h, h), ctx)
    x0 = TensorLayer((x_gate(0),))
    target = Circuit(2, 0, (x0, x0), ctx)
    monkeypatch.setattr(budget, "WORK", 4 + 7 + 2)
    report = tf.equivalence_check(target, candidate)
    assert not report.aux_restored and report.counterexample[0] == "00"
    monkeypatch.setattr(budget, "WORK", 4 + 7 + 1)
    with pytest.raises(sv.CapExceededError, match="work budget"):
        tf.equivalence_check(target, candidate)


def test_probe_stops_without_raising(monkeypatch):
    # the probe starts from 4 states, and its one backward layer is an H
    # (4 states x 2 = 8 units, 8 states held); the forward run to boundary
    # 0 costs nothing
    ctx = get_context("cyclotomic2")
    h = TensorLayer((cir.hadamard_gate(0),))
    inverse = lambda b: sv.Compiler(3, ctx).program((h,))  # noqa: E731
    state = {k: list(ctx.one().nums) for k in (0, 1, 2, 3)}  # raw entries, as the check passes

    def choose(costs, left=budget.WORK):
        work = budget.Work()
        work.left = left
        return tf._choose_cut(inverse, costs, dict(state), work)

    assert choose([0, 9]) == (0, 8)
    assert choose([0, 8]) == (1, 0)  # 8 units could at best tie the uncut 8
    assert choose([0, 9], left=7) == (1, 0)  # more than the meter has left
    monkeypatch.setattr(budget, "BUDGET", 7)  # 8 states would pass the memory budget
    assert choose([0, 9]) == (1, 0)
    monkeypatch.setattr(budget, "BUDGET", 8)
    assert choose([0, 9]) == (0, 8)


# -- reports equal the whole-candidate reference ---------------------------------


def _same(target, candidate, main=None, inputs=None):
    main = candidate.n_inputs if main is None else main
    got = tf.equivalence_check(target, candidate, main, None if inputs is None else iter(inputs))
    want = per_key_report(target, candidate, main, inputs)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    return got


def _with_layers(c: Circuit, layers) -> Circuit:
    return Circuit(c.n_inputs, c.n_aux, tuple(layers), c.context)


def _mutants(c: Circuit):
    """Each Fourier gate's inverse flag flipped, and each layer dropped."""
    for i, layer in enumerate(c.layers):
        before, after = c.layers[:i], c.layers[i + 1:]
        for j, g in enumerate(layer.gates if isinstance(layer, TensorLayer) else ()):
            if isinstance(g, FourierGate):
                gates = layer.gates[:j] + (cir.inverse_gate(g),) + layer.gates[j + 1:]
                yield _with_layers(c, before + (TensorLayer(gates),) + after)
        yield _with_layers(c, before + after)


@pytest.mark.parametrize("n,q", [(1, 2), (2, 2), (1, 3), (2, 3), (1, 4), (1, 5)])
def test_mq_via_conjugation_and_its_mutants_report_as_the_whole_candidate(monkeypatch, n, q):
    made = _spy_cuts(monkeypatch)
    candidate, target = tf.build_mq_via_conjugation(n, q), tf.mq_target(n, q)
    assert _same(target, candidate).equivalent
    assert made[0][0] == 2  # after the fan-out, where the two halves meet
    verdicts = [_same(target, mutant).verdict for mutant in _mutants(candidate)]
    assert len(verdicts) == 2 * (n + 1) + 3 and "counterexample" in verdicts


def _random_layer(rng, ctx, q, lines):
    """Fourier gates on random blocks, one-qubit gates (the Hadamard among
    them at q = 2), X and controlled-nots, on some of `lines`."""
    w = block_width(q)
    avail = rng.sample(lines, len(lines))
    gates = []
    while avail:
        kind = rng.choice(("fourier", "one", "x", "cnot", "skip"))
        if kind == "fourier" and len(avail) >= w:
            block = tuple(avail.pop() for _ in range(w))
            gates.append(FourierGate(q, block, rng.random() < 0.5))
        elif kind == "one":
            gates.append(OneQubitGate(rng.choice(_one_qubit_gates(ctx, q)), avail.pop()))
        elif kind == "x":
            gates.append(x_gate(avail.pop()))
        elif kind == "cnot" and len(avail) >= 2:
            gates.append(ToffoliGate((avail.pop(),), avail.pop()))
        else:
            avail.pop()
    return cir.tensor_layer(*gates)


def _random_conjugation(rng, ctx, q, main, aux):
    """(target, candidate): U·V·U⁻¹ on the main lines, U and V each holding
    a Fourier gate and a one-qubit gate besides random layers, as a target
    circuit and as a candidate with aux lines."""
    w = block_width(q)
    lines = list(range(main))

    def part():
        layers = [_random_layer(rng, ctx, q, lines) for _ in range(rng.randint(0, 1))]
        block = tuple(rng.sample(lines, w))
        rest = [l for l in lines if l not in block]
        one = OneQubitGate(rng.choice(_one_qubit_gates(ctx, q)), rng.choice(rest))
        layers.insert(rng.randint(0, len(layers)), cir.tensor_layer(FourierGate(q, block), one))
        return layers

    layers = tf.conjugate(part(), part())
    return Circuit(main, 0, layers, ctx), Circuit(main, aux, layers, ctx)


def _aux_mutants(rng, c: Circuit):
    """An X on an aux line in the centre (dirty on every input), a
    controlled-not from a main line onto one (dirty on some), and an X on an
    aux line before the first layer and after the last (restored)."""
    line = c.n_inputs + rng.randrange(c.n_aux)
    mid = len(c.layers) // 2
    flip = (TensorLayer((x_gate(line),)),)
    yield _with_layers(c, c.layers[:mid] + flip + c.layers[mid:])
    cnot = TensorLayer((ToffoliGate((rng.randrange(c.n_inputs),), line),))
    yield _with_layers(c, c.layers[:mid] + (cnot,) + c.layers[mid:])
    yield _with_layers(c, flip + c.layers + flip)


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_random_conjugations_report_as_the_whole_candidate(monkeypatch, q):
    made = _spy_cuts(monkeypatch)
    ctx = get_context(f"cyclotomic{q}")
    rng = random.Random(f"cut:random:{q}")
    main = 5 if q == 5 else 4
    # the whole candidate runs only for the first input and on a mismatch,
    # so a cut check that passes runs it once: count the runs of programs
    # that end at the candidate's last layer, each layer of the candidate
    # a copy of its own, so that no other program ends at that object
    whole, last = [], []
    compile_program = sv.Compiler.program

    class Counted(sv.Program):
        def apply_raw(self, state, work):
            whole.append(state)
            return super().apply_raw(state, work)

    def program(self, layers):
        layers = tuple(layers)
        p = compile_program(self, layers)
        return Counted(p.steps, p.r, p.ctx) if layers[-1:] and layers[-1] is last[0] else p

    check, runs = tf.equivalence_check, []  # the count of each check, not its reference's

    def counted_check(*args):
        whole.clear()
        report = check(*args)
        runs.append(len(whole))
        return report

    monkeypatch.setattr(sv.Compiler, "program", program)
    monkeypatch.setattr(tf, "equivalence_check", counted_check)
    seen = []  # (whether the check cut, its verdict)
    for _ in range(6):
        target, candidate = _random_conjugation(rng, ctx, q, main, rng.randint(1, 2))
        subset = sorted(rng.sample(range(1 << main), rng.randint(1, 1 << main)))
        for c in (candidate, *_aux_mutants(rng, candidate), *_mutants(candidate)):
            c = _with_layers(c, map(copy.copy, c.layers))
            last[:] = c.layers[-1:]
            for inputs in (None, subset):
                before = len(made)
                verdict = _same(target, c, main, inputs).verdict
                cut = len(made) > before and made[-1][0] < made[-1][2]
                seen.append((cut, verdict))
                if cut and verdict == "equivalent":
                    assert runs[-1] == 1
    # checks that cut, and both agree and report counterexamples found past
    # the cut, after A ran on B's state
    assert seen.count((True, "equivalent")) >= 10
    assert seen.count((True, "counterexample")) >= 2
    assert seen.count((False, "counterexample")) >= 50
