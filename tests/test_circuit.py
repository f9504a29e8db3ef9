import pytest

from support import gate_matrix

from qacclab import circuit as cir
from qacclab import dsl, statevec
from qacclab.algebra import AlgebraContext, FScalar, get_context, polys
from qacclab.circuit import (
    AddBlockGate,
    AddModGate,
    CNotLayer,
    Circuit,
    FanOutGate,
    FourierGate,
    ModGate,
    StagedCNotLayer,
    TensorLayer,
    ToffoliGate,
    ValidationError,
    inverse_circuit,
    parse_bits,
    validate,
)


@pytest.fixture(scope="module")
def c2():
    return get_context("cyclotomic2")


@pytest.fixture(scope="module")
def c3():
    return get_context("cyclotomic3")


def _diagnostics(*fields) -> list[str]:
    """The diagnostics that making Circuit(*fields) raises."""
    with pytest.raises(ValidationError) as exc:
        Circuit(*fields)
    return [str(d) for d in exc.value.diagnostics]


def test_overlap_diagnostic(c2):
    layer = TensorLayer((cir.hadamard_gate(3), ToffoliGate((3,), 4)))
    diags = _diagnostics(5, 0, (TensorLayer(()), layer), c2)
    assert any("layer 1" in d and "line 3" in d for d in diags)


def test_empty_circuit_is_valid(c2):
    assert validate(Circuit(0, 0, (), c2)) == []


def test_non_disjoint_pairs_diagnostic(c2):
    assert any("non-disjoint" in d for d in _diagnostics(3, 0, (CNotLayer(((0, 1), (1, 2))),), c2))


def test_staged_layer_span_overlap(c2):
    diags = _diagnostics(4, 0, (StagedCNotLayer((((0, 2), (1, 3)),)),), c2)
    assert any("overlap" in d for d in diags)
    ok = Circuit(4, 0, (StagedCNotLayer((((0, 1), (2, 3)),)),), c2)
    assert validate(ok) == []


def test_block_size_enforced(c3):
    layer = TensorLayer((FourierGate(3, (0,)),))
    assert any("block" in d for d in _diagnostics(3, 0, (layer,), c3))


def test_mod_gate_weights_must_be_one_positive_int_per_input(c2):
    def layers(weights):
        return (TensorLayer((ModGate(3, 0, (0, 1), 2, weights),)),)

    for weights in ((1,), (1, 2, 3), (1, 0), (1, -2), (1, True), (1, 2.0), [1, 1]):
        assert _diagnostics(3, 0, layers(weights), c2) == [
            f"layer 0: MOD gate weights {weights!r} are not one positive int per input"
        ]
    for weights in ((), (1, 1), (4, 7)):
        assert validate(Circuit(3, 0, layers(weights), c2)) == []


def test_fourier_q_outside_context_diagnostic(c3):
    # cyclotomic3 holds no 1/sqrt(2): H = Fourier_2 is refused where the
    # circuit is made, by the DSL as well, before any engine can run it
    want = ["layer 0: context cyclotomic3 has no exact constants for q=2"]
    assert _diagnostics(1, 0, (TensorLayer((FourierGate(2, (0,)),)),), c3) == want
    with pytest.raises(ValidationError) as exc:
        dsl.parse_circuit("circuit n=1 aux=0 context=cyclotomic3\nlayer { H [0] }\n")
    assert [str(d) for d in exc.value.diagnostics] == want


def test_nonunitary_matrix_rejected(c2):
    g = cir.one_qubit(c2, [[1, 0], [0, 2]], 0)
    assert any("unitary" in d for d in _diagnostics(1, 0, (TensorLayer((g,)),), c2))


def test_a_one_qubit_gate_without_a_conjugation_is_refused():
    # a context without a conjugation has no exact U U^dagger, so it holds
    # no U gate, unitary or not
    one = FScalar(polys.const(0, 1), 0)
    ctx = AlgebraContext([], ["1"], [[(one,)]], polys.const(0, 1), {})
    assert ctx.conjugation is None
    want = ["layer 0: a one-qubit gate needs a context with a conjugation"]
    for matrix in ([[1, 0], [0, 2]], [[0, 1], [1, 0]]):
        gate = cir.one_qubit(ctx, matrix, 0)
        assert _diagnostics(1, 0, (TensorLayer((gate,)),), ctx) == want


def test_gate_matrix_cnot(c2):
    m = gate_matrix(cir.cnot_gate(0, 1), 2, c2)
    nonzero = {(i, j) for i in range(4) for j in range(4) if not m[i][j].is_zero()}
    assert nonzero == {(0, 0), (1, 1), (3, 2), (2, 3)}


def test_gate_matrix_h3_fixes_non_qudigit(c3):
    m = gate_matrix(FourierGate(3, (0, 1)), 2, c3)
    column = [not m[i][3].is_zero() for i in range(4)]
    assert column == [False, False, False, True]


def test_gate_matrix_mod3(c2):
    m = gate_matrix(ModGate(3, 0, (0, 1, 2), 3), 4, c2)
    # |1110> -> |1111>
    assert not m[0b1111][0b1110].is_zero()
    assert m[0b1110][0b1110].is_zero()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_gate_matrices_unitary(q):
    ctx = get_context(f"cyclotomic{q}")
    w = cir.block_width(q)
    gates = [
        FourierGate(q, tuple(range(w))),
        AddModGate(q, (tuple(range(w)),), tuple(range(w, 2 * w))),
        AddBlockGate(q, tuple(range(w)), tuple(range(w, 2 * w))),
    ]
    for g in gates:
        width = max(g.lines()) + 1
        m = gate_matrix(g, width, ctx)
        size = 1 << width
        for i in range(size):
            for j in range(size):
                entry = ctx.zero()
                for k in range(size):
                    entry = entry + m[i][k] * m[j][k].conjugate()
                want = ctx.one() if i == j else ctx.zero()
                assert (entry - want).is_zero(), (type(g).__name__, i, j)


def test_permutation_matrices_are_permutations(c3):
    for g, width in [
        (ToffoliGate((0, 1), 2), 3),
        (FanOutGate((0, 1), 2), 3),
        (ModGate(3, 1, (0, 1), 2), 3),
        (AddBlockGate(3, (0, 1), (2, 3)), 4),
    ]:
        m = gate_matrix(g, width, c3)
        size = 1 << width
        for j in range(size):
            col = [i for i in range(size) if not m[i][j].is_zero()]
            assert len(col) == 1
            assert (m[col[0]][j] - c3.one()).is_zero()
        for i in range(size):
            assert sum(1 for j in range(size) if not m[i][j].is_zero()) == 1


def test_double_inverse_identity_for_self_inverse_gates(c2):
    c = Circuit(
        3,
        0,
        (
            TensorLayer((ToffoliGate((0,), 1),)),
            CNotLayer(((1, 2),)),
            TensorLayer((FanOutGate((0,), 2),)),
        ),
        c2,
    )
    assert inverse_circuit(inverse_circuit(c)) == c


def test_inverse_of_cnot_layer_is_itself(c2):
    layer = CNotLayer(((0, 1), (2, 3)))
    c = Circuit(4, 0, (layer,), c2)
    assert inverse_circuit(c).layers == (layer,)


def test_addmod_then_inverse_is_identity(c3):
    # two 2-bit digit blocks plus a result block within 6 lines: all 2^6
    # basis states come back unchanged with unit amplitude
    g = AddModGate(3, ((0, 1), (2, 3)), (4, 5))
    c = Circuit(6, 0, (TensorLayer((g,)), TensorLayer((cir.inverse_gate(g),))), c3)
    for x in range(64):
        bits = cir.key_to_bits(x, 6)
        state = statevec.run(c, bits)
        assert state.support() == [x]
        assert (state.amplitude_of(bits) - c3.one()).is_zero()


def test_one_qubit_inverse_is_conjugate_transpose(c2):
    s = c2.constants["s"]
    h = cir.OneQubitGate(((s, s), (s, -s)), 0)
    inv = cir.inverse_gate(h)
    assert (inv.matrix[0][1] - s).is_zero()
    assert (inv.matrix[1][1] + s).is_zero()


def test_circuit_stats(c2):
    c = Circuit(
        3,
        0,
        (
            TensorLayer((cir.hadamard_gate(0), ToffoliGate((1,), 2))),
            CNotLayer(((0, 1),)),
        ),
        c2,
    )
    stats = cir.circuit_stats(c)
    # every gate variant except OneQubit counts toward the multi-line tally
    assert stats["multi_line_gates"] == 3
    assert stats["layers"] == 2
    assert stats["lines"] == 3


def test_circuit_stats_counts_equal_gates_once():
    # with u = a1: u/u and u^2/u^2 are one scalar, reduced to one form,
    # so the two (unitary) one-qubit gates below are one distinct gate
    from qacclab.algebra import AlgebraContext, ExactScalar, FScalar, polys

    one = FScalar(polys.const(1, 1), 0)
    ctx = AlgebraContext(
        ["a1"], ["1"], [[(one,)]], polys.variable(1, 0), {"a1": [2.0, 0.0]}, conjugation=[[one]]
    )
    u = polys.variable(1, 0)
    u_over_u = ExactScalar(ctx, [FScalar(u, 1)])
    u2_over_u2 = ExactScalar(ctx, [FScalar(polys.power(u, 2), 2)])
    assert u_over_u.key() == u2_over_u2.key()
    zero = ctx.zero()
    c = Circuit(
        2,
        0,
        (
            TensorLayer(
                (
                    cir.OneQubitGate(((u_over_u, zero), (zero, u_over_u)), 0),
                    cir.OneQubitGate(((u2_over_u2, zero), (zero, u2_over_u2)), 1),
                )
            ),
        ),
        ctx,
    )
    assert cir.circuit_stats(c)["distinct_one_qubit_gates"] == 1


def test_line_out_of_range_diagnostic(c2):
    diags = _diagnostics(2, 0, (TensorLayer((ToffoliGate((0,), 5),)),), c2)
    assert any("out of range" in d for d in diags)


def test_gate_matrix_width_cap(c3):
    with pytest.raises(ValueError, match="cap"):
        gate_matrix(ToffoliGate((0,), 1), 13, c3)


def test_parse_bits():
    assert parse_bits("", 0) == 0
    assert parse_bits("0110", 4) == 0b0110
    for bits, width in (("2", 1), ("0", 2), ("00", 1), ("0 ", 2), ("1b", 2), ("١", 1)):
        with pytest.raises(ValidationError, match="basis state"):
            parse_bits(bits, width)
