import json
import random
from fractions import Fraction

import pytest

from support import (
    numeric_simulate,
    random_bits,
    random_circuit,
    reference_run,
    sqrt_a1_context,
)

from qacclab import budget
from qacclab import circuit as cir
from qacclab import statevec as sv
from qacclab.algebra import ExactScalar, FScalar, get_context, polys, rational_context, scalars
from qacclab.circuit import (
    CNotLayer,
    Circuit,
    FanOutGate,
    FourierGate,
    OneQubitGate,
    TensorLayer,
    ToffoliGate,
    inverse_circuit,
)


@pytest.fixture(scope="module")
def c2():
    return get_context("cyclotomic2")


def test_hadamard_on_zero(c2):
    c = Circuit(1, 0, (TensorLayer((cir.hadamard_gate(0),)),), c2)
    state = sv.run(c, "0")
    s = c2.constants["s"]
    assert (state.amplitude_of("0") - s).is_zero()
    assert (state.amplitude_of("1") - s).is_zero()


def test_toffoli_flips_target(c2):
    c = Circuit(3, 0, (TensorLayer((ToffoliGate((0, 1), 2),)),), c2)
    assert sv.run(c, "110").support() == [0b111]
    assert sv.run(c, "010").support() == [0b010]


def test_fanout_copies_control(c2):
    c = Circuit(3, 0, (TensorLayer((FanOutGate((0, 1), 2),)),), c2)
    assert sv.run(c, "001").support() == [0b111]
    assert sv.run(c, "000").support() == [0b000]


def test_empty_circuit_unit_amplitude(c2):
    c = Circuit(2, 1, (), c2)
    state = sv.run(c, "10")
    assert state.support() == [0b100]
    assert (state.amplitude_of("100") - c2.one()).is_zero()


def test_two_hadamards_give_quarter_amplitudes(c2):
    c = Circuit(2, 0, (TensorLayer((cir.hadamard_gate(0), cir.hadamard_gate(1))),), c2)
    state = sv.run(c, "00")
    half = c2.scalar_from_rational(Fraction(1, 2))
    assert len(state.entries) == 4
    for key in range(4):
        assert (state.entries[key] - half).is_zero()


def test_append_inverse_recovers_input(c2):
    rng = random.Random(321)
    for _ in range(10):
        lines = rng.randint(2, 5)
        c = random_circuit(rng, lines, rng.randint(1, 3), c2)
        x = random_bits(rng, lines)
        both = Circuit(lines, 0, c.layers + inverse_circuit(c).layers, c2)
        state = sv.run(both, x)
        assert state.support() == [int(x, 2)]
        assert (state.amplitude_of(x) - c2.one()).is_zero()


def test_amplitude_examples(c2):
    c = Circuit(2, 0, (CNotLayer(((0, 1),)),), c2)
    assert (sv.amplitude(c, "10", "11") - c2.one()).is_zero()
    h = Circuit(1, 0, (TensorLayer((cir.hadamard_gate(0),)),), c2)
    assert (sv.amplitude(h, "0", "1") - c2.constants["s"]).is_zero()


def test_amplitude_matches_inverse_route(c2):
    rng = random.Random(77)
    for _ in range(5):
        c = random_circuit(rng, 4, 3, c2)
        x = random_bits(rng, 4)
        z = random_bits(rng, 4)
        direct = sv.amplitude(c, x, z)
        # <z|C|x> = conj(<x|C^-1|z>)
        back = sv.amplitude(inverse_circuit(c), z, x)
        assert (direct - back.conjugate()).is_zero()


def test_norm_preserved_per_layer(c2):
    rng = random.Random(88)
    for _ in range(5):
        lines = rng.randint(2, 5)
        c = random_circuit(rng, lines, 3, c2)
        state = sv.basis_state(random_bits(rng, lines), c2)
        for layer in c.layers:
            state = sv.apply_layer(state, layer)
            assert (sv.norm_squared(state) - c2.one()).is_zero()


def test_permutation_circuits_have_unit_support(c2):
    c = Circuit(
        4,
        0,
        (
            TensorLayer((ToffoliGate((0, 1), 2), cir.x_gate(3))),
            CNotLayer(((2, 3),)),
            TensorLayer((FanOutGate((1, 3), 0),)),
        ),
        c2,
    )
    for x in range(16):
        bits = cir.key_to_bits(x, 4)
        state = sv.run(c, bits)
        assert len(state.entries) == 1
        amp = next(iter(state.entries.values()))
        assert (amp - c2.one()).is_zero()


def test_work_budget_enforced(c2, monkeypatch):
    # width alone is never refused; the budget bounds the stored support
    assert sv.run(Circuit(21, 0, (), c2), "0" * 21).support() == [0]
    monkeypatch.setattr(budget, "BUDGET", 4)
    two = Circuit(3, 0, (TensorLayer((cir.hadamard_gate(0), cir.hadamard_gate(1))),), c2)
    assert len(sv.run(two, "000").entries) == 4
    three = Circuit(3, 0, (TensorLayer(tuple(cir.hadamard_gate(l) for l in range(3))),), c2)
    # refused at 4 stored states, before the step that would reach 8
    with pytest.raises(sv.CapExceededError, match="^8 basis-state branches of a 2-way step"):
        sv.run(three, "000")


def test_run_charges_support_times_cost_per_step(c2, monkeypatch):
    # three H steps from one state cost 1*2 + 2*2 + 4*2; a fused run of
    # three X gates then costs 8 states x 3 gates
    hs = TensorLayer(tuple(cir.hadamard_gate(l) for l in range(3)))
    xs = TensorLayer(tuple(cir.x_gate(l) for l in range(3)))
    c = Circuit(3, 0, (hs, xs), c2)
    monkeypatch.setattr(budget, "WORK", 14 + 24)
    assert len(sv.run(c, "000").entries) == 8
    monkeypatch.setattr(budget, "WORK", 14 + 23)
    with pytest.raises(
        sv.CapExceededError, match="^a state-vector run exceeds the work budget of 37 units$"
    ):
        sv.run(c, "000")
    monkeypatch.setattr(budget, "WORK", 13)
    with pytest.raises(sv.CapExceededError, match="work budget"):
        sv.apply_layer(sv.basis_state("000", c2), hs)


def test_numeric_agreement_with_double_simulator(c2):
    rng = random.Random(2024)
    for _ in range(10):
        lines = rng.randint(2, 5)
        c = random_circuit(rng, lines, rng.randint(1, 4), c2)
        x = random_bits(rng, lines)
        exact = sv.run(c, x)
        approx = numeric_simulate(c, x)
        for key in range(1 << lines):
            want = approx.get(key, 0j)
            got = exact.entries.get(key)
            got_num = got.numeric() if got is not None else 0j
            assert abs(want - got_num) < 1e-9


def test_state_dump_sorted_and_json(c2):
    c = Circuit(2, 0, (TensorLayer((cir.hadamard_gate(1),)),), c2)
    dump = sv.run(c, "10").to_json()
    assert [e["basis"] for e in dump] == ["10", "11"]
    json.dumps(dump)  # serializable


def test_accept_identity_e_mode(c2):
    c = Circuit(2, 1, (), c2)
    assert sv.accept(c, "10", "100", "E").accepted


def test_accept_h_n_mode(c2):
    h = Circuit(1, 0, (TensorLayer((cir.hadamard_gate(0),)),), c2)
    assert sv.accept(h, "0", "1", "N").accepted


def test_accept_h_e_mode_errors(c2):
    h = Circuit(1, 0, (TensorLayer((cir.hadamard_gate(0),)),), c2)
    with pytest.raises(sv.AcceptanceError, match="not an E-operator"):
        sv.accept(h, "0", "1", "E")


def test_accept_b_mode_requires_rational(c2):
    h = Circuit(1, 0, (TensorLayer((cir.hadamard_gate(0),)),), c2)
    with pytest.raises(sv.AcceptanceError, match="rational"):
        sv.accept(h, "0", "1", "B")


def test_accept_b_mode_decisions():
    ctx = rational_context(5)
    u = cir.one_qubit(ctx, [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]], 0)
    twice = Circuit(1, 0, (TensorLayer((u,)), TensorLayer((u,))), ctx)
    res = sv.accept(twice, "0", "1", "B")
    assert res.decision == "accept" and res.probability == Fraction(576, 625)
    res = sv.accept(twice, "0", "0", "B")
    assert res.decision == "reject" and res.probability == Fraction(49, 625)
    once = Circuit(1, 0, (TensorLayer((u,)),), ctx)
    assert sv.accept(once, "0", "0", "B").decision == "invalid-gap"


def test_accept_n_matches_numeric_threshold(c2):
    rng = random.Random(4141)
    for _ in range(5):
        c = random_circuit(rng, 3, 2, c2)
        x = random_bits(rng, 3)
        for z in range(8):
            zb = cir.key_to_bits(z, 3)
            verdict = sv.accept(c, x, zb, "N").accepted
            numeric = abs(sv.amplitude(c, x, zb).numeric()) ** 2 > 1e-9
            assert verdict == numeric


def test_block_gate_circuits_match_numeric_oracle():
    from qacclab.circuit import AddBlockGate, AddModGate, FanOutModGate, FourierGate, ModGate

    ctx = get_context("cyclotomic3")
    rng = random.Random(60601)
    gate_pool = [
        lambda: TensorLayer((FourierGate(3, (0, 1)), FourierGate(3, (2, 3), inverse=True))),
        lambda: TensorLayer((AddModGate(3, ((0, 1),), (2, 3)),)),
        lambda: TensorLayer((AddModGate(3, ((0, 1), (2, 3)), (4, 5), inverse=True),)),
        lambda: TensorLayer((FanOutModGate(3, ((0, 1), (2, 3)), (4, 5)),)),
        lambda: TensorLayer((AddBlockGate(3, (2, 3), (0, 1)),)),
        lambda: TensorLayer((ModGate(3, 1, (0, 1, 2), 3),)),
        lambda: CNotLayer(((0, 4), (1, 5))),
    ]
    for _ in range(12):
        layers = tuple(rng.choice(gate_pool)() for _ in range(rng.randint(1, 3)))
        c = Circuit(6, 0, layers, ctx)
        x = random_bits(rng, 6)
        exact = sv.run(c, x)
        approx = numeric_simulate(c, x)
        assert (sv.norm_squared(exact) - ctx.one()).is_zero()
        for key in range(64):
            got = exact.entries.get(key)
            got_value = got.numeric() if got is not None else 0j
            assert abs(approx.get(key, 0j) - got_value) < 1e-9, (x, key)


def test_apply_layer_leaves_input_state_untouched(c2):
    state = sv.basis_state("010", c2)
    before = dict(state.entries)
    sv.apply_layer(state, TensorLayer((cir.hadamard_gate(1),)))
    assert state.entries == before


# -- the branching steps against the per-branch fold ------------------------------


def _random_scalar(rng, ctx):
    """A sparse scalar: a few basis elements with small numerators over
    u^0..u^2, each coordinate its own power of u."""
    coords = [ctx.f_zero] * ctx.dim
    for j in rng.sample(range(ctx.dim), rng.randint(1, min(2, ctx.dim))):
        if ctx.arity:
            num = {(rng.randint(0, 2),): rng.choice([-3, -1, 1, 2, 5])}
        else:
            num = polys.const(0, rng.choice([-9, -4, -1, 1, 3, 10, 25]))
        coords[j] = FScalar(num, rng.randint(0, 2))
    return ExactScalar(ctx, coords)


def _random_branching_layer(rng, ctx, lines: int) -> TensorLayer:
    """One-qubit gates, Fourier gates where the context has them, and a
    Toffoli now and then.  The matrices ((a, b), (a, -b)) and ((a, a),
    (b, -b)) make branches of a superposition cancel exactly."""
    avail = list(range(lines))
    rng.shuffle(avail)
    q, gates = ctx.fourier_q, []
    while avail:
        kind = rng.choice(("cancel", "cancel", "dense", "fourier", "tof"))
        if kind == "fourier" and q is not None and len(avail) >= cir.block_width(q):
            block = sorted(avail.pop() for _ in range(cir.block_width(q)))
            gates.append(FourierGate(q, tuple(block), inverse=rng.random() < 0.5))
        elif kind == "tof" and len(avail) >= 2:
            gates.append(ToffoliGate((avail.pop(),), avail.pop()))
        else:
            a, b = _random_scalar(rng, ctx), _random_scalar(rng, ctx)
            if kind == "dense":
                m = ((a, b), (_random_scalar(rng, ctx), _random_scalar(rng, ctx)))
            elif rng.random() < 0.5:
                m = ((a, b), (a, -b))
            else:
                m = ((a, a), (b, -b))
            gates.append(OneQubitGate(m, avail.pop()))
    return cir.tensor_layer(*gates)


@pytest.mark.parametrize(
    "name", ["rational10", "cyclotomic2", "cyclotomic3", "cyclotomic5", "cyclotomic7", "sqrt_a1"]
)
def test_branching_steps_match_per_branch_fold(name):
    """Numerator accumulation gives the amplitudes, and the exact forms, of
    folding every branch through ExactScalar.__mul__ and __add__."""
    ctx = sqrt_a1_context() if name == "sqrt_a1" else get_context(name)
    rng = random.Random(f"branch-{name}")
    cancellations = 0
    for _ in range(12):
        lines = rng.randint(3, 6)
        layers = []
        for _ in range(rng.randint(2, 5)):
            if rng.random() < 0.2:
                layers.append(CNotLayer(((0, lines - 1),)))
            else:
                layers.append(_random_branching_layer(rng, ctx, lines))
        # the matrices need not be unitary, so the layers are compiled
        # without making a Circuit
        x = random_bits(rng, lines)
        want, cancelled = reference_run(layers, x, ctx)
        cancellations += cancelled
        program = sv.Compiler(lines, ctx).program(layers)
        start = {cir.parse_bits(x, lines): ctx.one()}
        got = sv.StateVector(program.apply(start, budget.Work()), lines, ctx)
        assert got.entries == want
        assert {k: a.key() for k, a in got.entries.items()} == {k: a.key() for k, a in want.items()}
        assert json.dumps(got.to_json()) == json.dumps(sv.StateVector(want, lines, ctx).to_json())
    assert cancellations > 0


def test_cancelled_branches_leave_the_third_terms_form():
    # Three branches into one key, the first two cancelling: the raw slot
    # keeps their power of u, and the scalar read from it has the form that
    # __mul__ gives the third term alone.
    ctx = sqrt_a1_context()
    x = ExactScalar(ctx, [FScalar({(1,): 3}, 2), ctx.f_zero])
    z = ExactScalar(ctx, [FScalar({(0,): 5}, 0), ctx.f_zero])
    t, rows = scalars.multiplier(ctx, ctx.one())
    step = sv._branch(0b11, (0,), {bits: rows for bits in range(3)}, ctx)
    entries = {k: sv.lifted(ctx, a.nums, x.r - a.r) for k, a in enumerate((x, -x, z))}
    out = sv.read(ctx, (step(entries), x.r + t))
    assert out[0].key() == (z * ctx.one()).key()


def _raw(ctx, amps: dict, r: int) -> tuple:
    """{key: scalar} as a raw state over u^r, r at least every scalar's."""
    return {k: sv.lifted(ctx, a.nums, r - a.r) for k, a in amps.items()}, r


@pytest.mark.parametrize("name", ["rational10", "cyclotomic5", "cyclotomic7", "sqrt_a1"])
def test_raw_states_compare_as_their_reduced_scalars(name):
    """same_state on raw states at different powers of u gives the verdict
    of == on the scalars read from them."""
    ctx = sqrt_a1_context() if name == "sqrt_a1" else get_context(name)
    rng = random.Random(f"raw-{name}")
    one = ctx.one()
    h = TensorLayer((OneQubitGate(((one, one), (one, -one)), 0),))  # the unnormalised H
    h = sv.Compiler(1, ctx).program((h,))
    verdicts = []
    for _ in range(40):
        amps = {k: _random_scalar(rng, ctx) for k in rng.sample(range(16), rng.randint(1, 4))}
        r = max(a.r for a in amps.values())
        a, b = _raw(ctx, amps, r), _raw(ctx, amps, r + rng.randint(1, 3))
        assert sv.same_state(ctx, a, b) and sv.same_state(ctx, b, a)  # equal at different r
        # a slot that cancelled to zero is dropped: H sends c|0> + c|1> to 2c|0>
        c = _random_scalar(rng, ctx)
        cancelled = h.apply_raw(_raw(ctx, {0: c, 1: c}, c.r), budget.Work())
        assert list(cancelled[0]) == [0]
        assert sv.same_state(ctx, cancelled, _raw(ctx, {0: c + c}, c.r + rng.randint(0, 2)))
        # the same numerators over another power of u, or one numerator
        # moved by one after alignment: unequal
        key = rng.choice(list(amps))
        other = dict(b[0])
        j = rng.randrange(ctx.dim)
        other[key] = list(other[key])
        other[key][j] = other[key][j] + ctx.u_power(0)
        changed, shifted = (other, b[1]), (a[0], a[1] + 1)
        for p, q in ((a, b), (a, changed), (changed, b), (b, cancelled), (a, shifted)):
            same = sv.same_state(ctx, p, q)
            assert same == (sv.read(ctx, p) == sv.read(ctx, q)) == sv.same_state(ctx, q, p)
            verdicts.append(same)
    assert verdicts.count(False) >= 40 and verdicts.count(True) >= 40
