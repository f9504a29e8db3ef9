"""The column form of the permutation gates, and the equivalence checks
that run on it.

Each permutation gate kind is drawn at random (q in {2,3,4,5,7}, both
inverse flags, scattered line orders, widths up to 7) and its column form
is compared on every key, non-qudigit block values included, with
permutation_action.  The q-ary modular add and fan-out are checked, in both
forms, against the single-block adds they factor into.  Seeded random
permutation circuits are then checked through equivalence_check and
compared, byte for byte, with support.per_key_report, which runs one input
at a time.
"""

import json
import random
import time

import pytest

from support import PERMUTATION_KINDS, per_key_report, random_permutation_gate

from qacclab import budget
from qacclab import circuit as cir
from qacclab import transforms as tf
from qacclab.algebra import get_context
from qacclab.circuit import (
    AddBlockGate,
    AddModGate,
    Circuit,
    CNotLayer,
    FanOutModGate,
    StagedCNotLayer,
    TensorLayer,
)

QS = (2, 3, 4, 5, 7)


def _columns(width):
    """Input columns of every key on `width` lines, one bit per key."""
    return [
        sum(1 << k for k in range(1 << width) if k >> (width - 1 - l) & 1) for l in range(width)
    ]


def _keys(cols, width):
    return [
        sum((c >> k & 1) << (width - 1 - l) for l, c in enumerate(cols)) for k in range(1 << width)
    ]


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("kind", PERMUTATION_KINDS)
def test_column_form_matches_permutation_action_on_every_key(kind, q):
    rng = random.Random(f"columns:{kind}:{q}")
    done = 0
    while done < 6:
        width = rng.randint(1, 7)
        gate = random_permutation_gate(rng, kind, q, list(range(width)))
        if gate is None:
            continue
        cols = _columns(width)
        cir.permutation_columns(gate, cols, (1 << (1 << width)) - 1)
        act = cir.permutation_action(gate, width)
        assert _keys(cols, width) == [act(k) for k in range(1 << width)], (gate, width)
        done += 1


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("q", QS)
def test_block_gates_factor_into_single_block_adds(q, inverse):
    # M_q on k blocks is k AddBlock_q into its result, in sequence, and F_q
    # on k targets is k AddBlock_q from its control: on every key of 10
    # lines, non-qudigit block values included, as key maps and as columns
    width, w = 10, cir.block_width(q)
    rng = random.Random(f"factoring:{q}:{inverse}")
    ones = (1 << (1 << width)) - 1
    for k in range(1, width // w):
        lines = rng.sample(range(width), (k + 1) * w)
        *blocks, last = (tuple(lines[i * w:(i + 1) * w]) for i in range(k + 1))
        for gate, adds in (
            (AddModGate(q, tuple(blocks), last, inverse),
             [AddBlockGate(q, b, last, inverse) for b in blocks]),
            (FanOutModGate(q, tuple(blocks), last, inverse),
             [AddBlockGate(q, last, b, inverse) for b in blocks]),
        ):
            act = cir.permutation_action(gate, width)
            steps = [cir.permutation_action(a, width) for a in adds]
            for key in range(1 << width):
                want = key
                for step in steps:
                    want = step(want)
                assert act(key) == want, (gate, key)
            cols, want = _columns(width), _columns(width)
            cir.permutation_columns(gate, cols, ones)
            for a in adds:
                cir.permutation_columns(a, want, ones)
            assert cols == want, gate


def test_controlled_not_layers_in_column_form():
    rng = random.Random("columns:cnot")
    for _ in range(20):
        width = rng.randint(2, 7)
        lines = rng.sample(range(width), width - width % 2)
        pairs = tuple(zip(lines[::2], lines[1::2]))
        stages = (pairs[: len(pairs) // 2], pairs[len(pairs) // 2:])
        spans = all(
            max(a) < min(b) or max(b) < min(a)
            for stage in stages for i, a in enumerate(stage) for b in stage[i + 1:]
        )
        layers = [CNotLayer(pairs)] + ([StagedCNotLayer(stages)] if spans else [])
        for layer in layers:
            cols = _columns(width)
            cir.run_columns((layer,), cols, (1 << (1 << width)) - 1)
            maps = (
                [cir.cnot_action(layer.pairs, width)]
                if isinstance(layer, CNotLayer)
                else [cir.cnot_action(s, width) for s in layer.stages]
            )
            want = []
            for k in range(1 << width):
                for f in maps:
                    k = f(k)
                want.append(k)
            assert _keys(cols, width) == want, layer


def _random_layers(rng, q, lines, count):
    layers = []
    for _ in range(count):
        if rng.random() < 0.2 and len(lines) >= 2:
            picked = rng.sample(lines, 2 * rng.randint(1, len(lines) // 2))
            if rng.random() < 0.5:
                layers.append(CNotLayer(tuple(zip(picked[::2], picked[1::2]))))
            else:  # one stage of span-disjoint pairs, each either way round
                picked.sort()
                pairs = zip(picked[::2], picked[1::2])
                stage = tuple((a, b) if rng.random() < 0.5 else (b, a) for a, b in pairs)
                layers.append(StagedCNotLayer((stage,)))
            continue
        free, gates = list(lines), []
        for _ in range(rng.randint(1, 2)):
            gate = random_permutation_gate(rng, rng.choice(PERMUTATION_KINDS), q, free)
            if gate is not None:
                gates.append(gate)
                free = [l for l in free if l not in gate.lines()]
        if gates:
            layers.append(cir.tensor_layer(*gates))
    return tuple(layers)


def _random_check(rng):
    """(target, candidate, main, inputs): a conjugation U·V·U⁻¹ against V,
    as a gate or a circuit, then perhaps mutated."""
    q = rng.choice(QS)
    ctx = get_context(f"cyclotomic{q}")
    main, aux = rng.randint(1, 6), rng.randint(0, 4)
    width = main + aux
    inner = _random_layers(rng, q, list(range(main)), rng.randint(1, 2))
    outer = _random_layers(rng, q, list(range(width)), rng.randint(0, 3))
    layers = list(tf.conjugate(outer, inner))
    mutation = rng.choice(("none", "drop", "main", "aux"))
    at = rng.randint(0, len(layers))
    if mutation == "drop" and layers:
        del layers[rng.randrange(len(layers))]
    elif mutation == "main":
        layers.insert(at, TensorLayer((cir.x_gate(rng.randrange(main)),)))
    elif mutation == "aux" and aux:
        layers.insert(at, TensorLayer((cir.x_gate(main + rng.randrange(aux)),)))
    candidate = Circuit(main, aux, tuple(layers), ctx)
    spec = Circuit(main, 0, inner, ctx)
    kind = rng.choice(("circuit", "gate"))
    target = spec
    if kind == "gate" and len(inner) == 1 and isinstance(inner[0], TensorLayer):
        target = inner[0].gates[0] if len(inner[0].gates) == 1 else spec
    inputs = None
    if rng.random() < 0.4:
        inputs = sorted(rng.sample(range(1 << main), rng.randint(0, 1 << main)))
    return target, candidate, main, inputs


def test_column_checks_match_the_per_key_reference_on_random_circuits():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(600):
        target, candidate, main, inputs = _random_check(rng)
        got = tf.equivalence_check(target, candidate, main, inputs=inputs).to_json()
        want = per_key_report(target, candidate, main, inputs).to_json()
        assert json.dumps(got) == json.dumps(want), (target, candidate, inputs)
        seen.add((got["verdict"], got["aux_restored"], isinstance(target, Circuit)))
    # equivalent, aux-dirty and amplitude counterexamples, with gate targets
    # and with circuit targets
    assert seen >= {
        ("equivalent", True, False), ("counterexample", False, False),
        ("counterexample", True, False), ("equivalent", True, True),
        ("counterexample", False, True), ("counterexample", True, True),
    }


def test_dropping_the_last_layer_of_modqr_from_modq_reports_the_reference_aux_counterexample():
    full = tf.build_modqr_from_modq(4, 3, 1)
    mutant = Circuit(full.n_inputs, full.n_aux, full.layers[:-1], full.context)
    target = tf.BUILDERS["modqr_from_modq"].target(4, 3, 1)
    got = tf.equivalence_check(target, mutant)
    assert not got.aux_restored
    want = per_key_report(target, mutant, mutant.n_inputs)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


def test_every_permutation_builder_takes_the_column_path(monkeypatch):
    monkeypatch.setattr(tf.statevec, "compile_circuit", None)  # no per-input run may start
    monkeypatch.setattr(tf.statevec, "Compiler", None)
    for name in ("modqr_from_modq", "modq_from_mq", "modhat", "mq_from_modq", "f_from_fq"):
        assert tf.check_builder(name, 2, 3, 1 if tf.BUILDERS[name].needs_r else 0).equivalent


def test_modqr_from_modq_at_22_inputs_is_answered_within_two_seconds():
    t0 = time.perf_counter()
    assert tf.check_builder("modqr_from_modq", 22, 3, 0).equivalent
    assert time.perf_counter() - t0 < 2


def test_modhat_at_23_lines_is_answered_within_two_seconds():
    t0 = time.perf_counter()
    assert tf.check_builder("modhat", 22, 2, 1).equivalent
    assert time.perf_counter() - t0 < 2


@pytest.mark.parametrize("q", range(2, 8))
def test_modhat_target_flips_on_the_digit_sum_of_every_key(q):
    # the digit-sum formula modhat's target once was: bit k of every block
    # counted 2^k times; the column form is checked beside the key map
    w = cir.block_width(q)
    for n in (1, 2, 3):
        main = n * w + 1
        places = [
            (cir.lines_mask((i * w + (w - 1 - k) for i in range(n)), main), k) for k in range(w)
        ]
        for r in range(q):
            gate = tf.modhat_target(n, q, r)
            want = []
            for key in range(1 << main):
                total = sum((key & m).bit_count() << k for m, k in places)
                want.append(key ^ 1 if total % q == r else key)
            act = cir.permutation_action(gate, main)
            assert [act(key) for key in range(1 << main)] == want, (n, q, r)
            cols = _columns(main)
            cir.permutation_columns(gate, cols, (1 << (1 << main)) - 1)
            assert _keys(cols, main) == want, (n, q, r)


def test_modqr_from_modq_over_the_work_budget_is_still_refused():
    # 2^22 inputs up front, then 5 key maps per input: 2^22 * 6 > 2^24
    with pytest.raises(cir.CapExceededError, match="work budget"):
        tf.check_builder("modqr_from_modq", 21, 3, 1)


def test_column_run_charges_what_the_per_input_loop_charges(monkeypatch):
    # an X on the aux line dirties input 0: 2^2 inputs up front, then the
    # candidate's 2 key maps and the circuit target's 1 on input 0 answer
    # the check; a dirty input runs its target too
    ctx = get_context("cyclotomic2")
    layers = (TensorLayer((cir.x_gate(2),)), TensorLayer((cir.x_gate(0),)))
    candidate = Circuit(2, 1, layers, ctx)
    target = Circuit(2, 0, (TensorLayer((cir.x_gate(0),)),), ctx)
    monkeypatch.setattr(budget, "WORK", 4 + 3)
    report = tf.equivalence_check(target, candidate)
    assert not report.aux_restored and report.counterexample[0] == "00"
    monkeypatch.setattr(budget, "WORK", 4 + 2)
    with pytest.raises(cir.CapExceededError, match="^a column run exceeds the work budget of 6"):
        tf.equivalence_check(target, candidate)
    # without the aux flip every input costs 2 + 1 maps: 4 + 4 * 3 units
    clean = Circuit(2, 1, layers[1:] * 2 + layers[1:], ctx)
    monkeypatch.setattr(budget, "WORK", 4 + 4 * 4)
    assert tf.equivalence_check(target, clean).equivalent
    monkeypatch.setattr(budget, "WORK", 4 + 4 * 4 - 1)
    with pytest.raises(cir.CapExceededError, match="^a column run exceeds"):
        tf.equivalence_check(target, clean)


def test_columns_past_the_memory_budget_are_refused_before_they_are_built(monkeypatch):
    # 70 lines of 2^10 inputs hold 70 * 16 words; the 2^10 units charged up
    # front fit either budget
    ctx = get_context("cyclotomic2")
    candidate, target = Circuit(10, 60, (), ctx), Circuit(10, 0, (), ctx)
    monkeypatch.setattr(budget, "WORK", 70 * 16)
    assert tf.equivalence_check(target, candidate).equivalent
    monkeypatch.setattr(budget, "WORK", 70 * 16 - 1)
    monkeypatch.setattr(tf, "_input_column", None)  # no column may be built
    with pytest.raises(
        cir.CapExceededError,
        match="^holding 70 columns of 16 words exceeds the work budget of 1119 units$",
    ):
        tf.equivalence_check(target, candidate)


def test_inputs_must_increase_and_lie_on_the_compared_lines():
    ctx = get_context("cyclotomic2")
    for c in (Circuit(2, 0, (), ctx), Circuit(2, 0, (TensorLayer((cir.hadamard_gate(0),)),), ctx)):
        for inputs in ([2, 1], [1, 1], [4], [-1]):
            with pytest.raises(ValueError, match="is not above"):
                tf.equivalence_check(c, c, inputs=inputs)


def test_digit_inputs_mask_is_built_in_linear_time():
    # the largest k whose 2k columns of 2^(2k) inputs fit the memory budget:
    # 3^12 digit inputs over 2^24 keys
    k = max(k for k in range(1, 16) if 2 * k * (1 << 2 * k) // 64 <= budget.WORK)
    assert k == 12
    ctx = get_context("cyclotomic3")
    candidate = Circuit(2 * k, 0, (TensorLayer((cir.x_gate(0),)),), ctx)
    t0 = time.perf_counter()
    report = tf.equivalence_check(cir.x_gate(0), candidate, inputs=tf.qudigit_inputs(k, 3))
    assert report.equivalent
    assert time.perf_counter() - t0 < 5
