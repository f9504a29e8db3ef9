"""Compiled gate kernels against the independent reference in support.py.

Every permutation gate kind is drawn at random (q in {2,3,5,7}, scattered
and reversed line orders, both inverse flags) and its bit-mask kernel is
compared on every basis key against support._numeric_gate.  The compiled,
fused run is then compared against layer-by-layer apply_layer.
"""

import random

import pytest

from support import _numeric_gate, numeric_simulate, random_bits, random_circuit

from qacclab import circuit as cir
from qacclab import statevec as sv
from qacclab.algebra import get_context
from qacclab.circuit import (
    AddBlockGate,
    AddModGate,
    Circuit,
    CNotLayer,
    FanOutGate,
    FanOutModGate,
    FourierGate,
    ModGate,
    StagedCNotLayer,
    TensorLayer,
    ToffoliGate,
    block_width,
)

MAX_WIDTH = 10
KINDS = ("toffoli", "fanout", "mod", "addmod", "fanoutmod", "addblock")


def _line_order(rng, width, count):
    """`count` distinct lines: scattered at random, or one reversed run."""
    if rng.random() < 0.5:
        return rng.sample(range(width), count)
    start = rng.randint(0, width - count)
    return list(range(start + count - 1, start - 1, -1))


def _random_gate(rng, kind, q):
    """(gate, width) with width <= MAX_WIDTH."""
    w = block_width(q)
    inverse = rng.random() < 0.5
    if kind in ("toffoli", "fanout", "mod"):
        width = rng.randint(2, MAX_WIDTH)
        many = rng.randint(0 if kind == "toffoli" else 1, width - 1)
        lines = _line_order(rng, width, many + 1)
        if kind == "toffoli":
            return ToffoliGate(tuple(lines[:-1]), lines[-1]), width
        if kind == "fanout":
            return FanOutGate(tuple(lines[:-1]), lines[-1]), width
        return ModGate(q, rng.randrange(q), tuple(lines[:-1]), lines[-1]), width
    n_blocks = 2 if kind == "addblock" else rng.randint(2, MAX_WIDTH // w)
    width = rng.randint(n_blocks * w, MAX_WIDTH)
    lines = _line_order(rng, width, n_blocks * w)
    blocks = tuple(tuple(lines[i * w:(i + 1) * w]) for i in range(n_blocks))
    if kind == "addmod":
        return AddModGate(q, blocks[:-1], blocks[-1], inverse), width
    if kind == "fanoutmod":
        return FanOutModGate(q, blocks[:-1], blocks[-1], inverse), width
    return AddBlockGate(q, blocks[0], blocks[1], inverse), width


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("kind", KINDS)
def test_permutation_kernels_match_reference(kind, q):
    rng = random.Random(f"kernels:{kind}:{q}")
    for _ in range(6):
        gate, width = _random_gate(rng, kind, q)
        act = cir.permutation_action(gate, width)
        for key in range(1 << width):
            want = _numeric_gate({key: 1}, gate, width)
            assert want == {act(key): 1}, (gate, width, key)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_fourier_kernel_matches_reference(q):
    ctx = get_context(f"cyclotomic{q}")
    rng = random.Random(f"kernels:fourier:{q}")
    w = block_width(q)
    for _ in range(4):
        width = rng.randint(w, 8)
        gate = FourierGate(q, tuple(_line_order(rng, width, w)), rng.random() < 0.5)
        kernel = cir.gate_kernel(gate, width, ctx)
        for key in range(1 << width):
            want = _numeric_gate({key: 1}, gate, width)
            got = {k: s.numeric() for k, s in kernel(key)}
            assert set(got) == {k for k, v in want.items() if abs(v) > 1e-12}
            for k, v in got.items():
                assert abs(v - want[k]) < 1e-9


def test_cnot_action_matches_reference():
    width = 4
    act = cir.cnot_action(((0, 1), (2, 3)), width)
    for key in range(1 << width):
        want = _numeric_gate({key: 1}, FanOutGate((1,), 0), width)
        want = _numeric_gate(want, FanOutGate((3,), 2), width)
        assert {act(key): 1} == want


def _layerwise(c, bits):
    state = sv.basis_state(bits + "0" * c.n_aux, c.context)
    for layer in c.layers:
        state = sv.apply_layer(state, layer)
    return state


def _assert_same_state(a, b):
    assert list(a.entries) == list(b.entries)
    assert a.to_json() == b.to_json()


def test_compiled_run_equals_layerwise_on_seeded_suite():
    c2 = get_context("cyclotomic2")
    rng = random.Random(2024)
    for _ in range(20):
        lines = rng.randint(2, 6)
        c = random_circuit(rng, lines, rng.randint(1, 5), c2)
        x = random_bits(rng, lines)
        _assert_same_state(sv.run(c, x), _layerwise(c, x))


def test_compiled_run_equals_layerwise_on_block_suites():
    ctx = get_context("cyclotomic3")
    rng = random.Random(60601)
    pool = [
        lambda: TensorLayer((FourierGate(3, (0, 1)), FourierGate(3, (3, 2), inverse=True))),
        lambda: TensorLayer((AddModGate(3, ((0, 1),), (2, 3)),)),
        lambda: TensorLayer((AddModGate(3, ((1, 0), (2, 3)), (4, 5), inverse=True),)),
        lambda: TensorLayer((FanOutModGate(3, ((0, 1), (5, 2)), (4, 3)),)),
        lambda: TensorLayer((AddBlockGate(3, (2, 3), (0, 1), inverse=True),)),
        lambda: TensorLayer((ModGate(3, 1, (0, 2, 4), 5), ToffoliGate((1,), 3))),
        lambda: CNotLayer(((0, 4), (1, 5))),
        lambda: StagedCNotLayer((((0, 1), (2, 3)), ((1, 2),))),
    ]
    for _ in range(30):
        layers = tuple(rng.choice(pool)() for _ in range(rng.randint(1, 5)))
        c = Circuit(6, 0, layers, ctx)
        x = random_bits(rng, 6)
        exact = sv.run(c, x)
        _assert_same_state(exact, _layerwise(c, x))
        approx = numeric_simulate(c, x)
        for key in range(64):
            got = exact.entries.get(key)
            assert abs(approx.get(key, 0j) - (got.numeric() if got else 0j)) < 1e-9
