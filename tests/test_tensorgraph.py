import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from support import (
    multiline_gate_count,
    random_bits,
    random_circuit,
    random_cnot_layer,
    reference_run,
    sqrt_a1_context,
)

from qacclab import circuit as cir
from qacclab import statevec as sv
from qacclab import tensorgraph as tg
from qacclab.algebra import get_context
from qacclab.circuit import (
    AddBlockGate,
    CNotLayer,
    Circuit,
    FanOutGate,
    FourierGate,
    ModGate,
    OneQubitGate,
    StagedCNotLayer,
    TensorLayer,
    ToffoliGate,
)


@pytest.fixture(scope="module")
def c2():
    return get_context("cyclotomic2")


def one_gate(g, gate):
    return tg.apply_layer(g, TensorLayer((gate,)))


# -- color algebra ---------------------------------------------------------


def test_color_pair_collapse():
    b = tg.color(1)
    assert b.times(b) == tg.UNIT_PRODUCT
    assert b.times(tg.anticolor(1)) is None
    anti = tg.anticolor(1)
    assert anti.times(anti) == tg.UNIT_PRODUCT


def test_distinct_colors_commute():
    b, c = tg.color(1), tg.color(2)
    assert b.times(c) == c.times(b)


def test_nonassociative_fold_witness():
    a, anti = tg.color(5), tg.anticolor(5)
    # (a*a)*~a = ~a, while a*(a*~a) = 0
    assert a.times(a).times(anti) == anti
    inner = a.times(anti)
    assert inner is None


def test_color_term_rules(c2):
    one = c2.one()
    b = tg.ColorTerm(c2, {tg.color(1): one})
    anti = tg.ColorTerm(c2, {tg.anticolor(1): one})
    assert b.times(b).terms == {tg.UNIT_PRODUCT: one}
    assert b.times(anti).is_zero()


def test_color_term_distributes_over_random_pairs(c2):
    rng = random.Random(42)
    products = [tg.UNIT_PRODUCT, tg.color(1), tg.anticolor(1), tg.color(2),
                tg.color(1).times(tg.color(2))]

    def rand_term():
        terms = {}
        for p in rng.sample(products, rng.randint(1, 3)):
            k = rng.randint(-3, 3)
            if k:
                terms[p] = c2.from_int(k)
        return tg.ColorTerm(c2, terms)

    for _ in range(40):
        a, b, c = rand_term(), rand_term(), rand_term()
        lhs = a.times(b.plus(c))
        rhs = a.times(b).plus(a.times(c))
        assert lhs.terms.keys() == rhs.terms.keys()
        for key in lhs.terms:
            assert (lhs.terms[key] - rhs.terms[key]).is_zero()


# -- construction -----------------------------------------------------------


def test_init_chain(c2):
    g = tg.tg_init("10", c2)
    m = tg.tg_metrics(g)
    assert m.width == 1 and m.path_count == 1 and m.color_depth == 0
    assert (tg.tg_amplitude_dp(g, "10") - c2.one()).is_zero()
    assert tg.tg_amplitude_dp(g, "11").is_zero()
    assert tg.tg_amplitude_dp(g, "00").is_zero()


def test_one_qubit_preserves_shape(c2):
    g = tg.tg_init("0", c2)
    s = c2.constants["s"]
    h = ((s, s), (s, -s))
    g2 = one_gate(g, OneQubitGate(h, 0))
    assert tg.tg_metrics(g2).width == tg.tg_metrics(g).width == 1
    assert tg.tg_metrics(g2).path_count == 1
    assert (tg.tg_amplitude_dp(g2, "0") - s).is_zero()
    assert (tg.tg_amplitude_dp(g2, "1") - s).is_zero()


def test_x_swaps_amplitudes(c2):
    g = tg.tg_init("0", c2)
    g2 = one_gate(g, ToffoliGate((), 0))  # plain X
    assert (tg.tg_amplitude_dp(g2, "1") - c2.one()).is_zero()
    assert tg.tg_amplitude_dp(g2, "0").is_zero()


def test_toffoli_against_oracle(c2):
    for bits in ("110", "100", "111", "011"):
        g = one_gate(tg.tg_init(bits, c2), ToffoliGate((0, 1), 2))
        c = Circuit(3, 0, (TensorLayer((ToffoliGate((0, 1), 2),)),), c2)
        state = sv.run(c, bits)
        for z in range(8):
            zb = cir.key_to_bits(z, 3)
            assert (tg.tg_amplitude_dp(g, zb) - state.amplitude_of(zb)).is_zero()


def test_toffoli_path_count_at_most_doubles(c2):
    g = tg.tg_init("110", c2)
    before = tg.tg_path_count(g)
    after = tg.tg_path_count(one_gate(g, ToffoliGate((0, 1), 2)))
    assert after <= 2 * before


def test_fanout_against_oracle(c2):
    for bits in ("001", "000", "101"):
        g = one_gate(tg.tg_init(bits, c2), FanOutGate((0, 1), 2))
        c = Circuit(3, 0, (TensorLayer((FanOutGate((0, 1), 2),)),), c2)
        state = sv.run(c, bits)
        for z in range(8):
            zb = cir.key_to_bits(z, 3)
            assert (tg.tg_amplitude_dp(g, zb) - state.amplitude_of(zb)).is_zero()


def test_cnot_pair_against_oracle(c2):
    for bits in ("10", "00", "11"):
        g = tg.apply_layer(tg.tg_init(bits, c2), CNotLayer(((0, 1),)))
        c = Circuit(2, 0, (CNotLayer(((0, 1),)),), c2)
        state = sv.run(c, bits)
        for z in range(4):
            zb = cir.key_to_bits(z, 2)
            assert (tg.tg_amplitude_dp(g, zb) - state.amplitude_of(zb)).is_zero()


def test_cnot_layer_width_doubles_at_most_separated(c2):
    g = tg.tg_init("0000", c2)
    s = c2.constants["s"]
    g = one_gate(g, OneQubitGate(((s, s), (s, -s)), 0))
    before = tg.tg_metrics(g).width
    g2 = tg.apply_layer(g, CNotLayer(((0, 3),)))
    assert tg.tg_metrics(g2).width <= 2 * before


def test_color_appears_at_exactly_two_heights(c2):
    g = tg.apply_layer(tg.tg_init("0101", c2), CNotLayer(((0, 2), (1, 3))))
    heights: dict = {}
    for src, (dst, product, _a0, _a1) in g.vout.items():
        for cid, _anti in product.factors():
            heights.setdefault(cid, set()).add(g.nodes[dst])
    assert heights and all(len(hs) == 2 for hs in heights.values())
    assert tg.tg_metrics(g).color_consistent


# -- whole-circuit equivalence ----------------------------------------------


def test_build_random_circuits_match_oracle(c2):
    rng = random.Random(555)
    for _ in range(15):
        lines = rng.randint(2, 6)
        c = random_circuit(rng, lines, rng.randint(1, 4), c2)
        x = random_bits(rng, lines)
        state = sv.run(c, x)
        graph = tg.tg_build(c, x)
        for z in range(1 << lines):
            zb = cir.key_to_bits(z, lines)
            assert (tg.tg_amplitude_dp(graph, zb) - state.amplitude_of(zb)).is_zero()


def test_dp_and_oracle_amplitudes_print_alike(c2):
    # equal amplitudes have one exact form, so their JSON is byte-identical
    rng = random.Random(6067)
    compared = 0
    for _ in range(60):
        c = random_circuit(rng, 6, 3, c2)
        x = random_bits(rng, 6)
        state = sv.run(c, x)
        graph = tg.tg_build(c, x)
        for z in state.support():
            zb = cir.key_to_bits(z, 6)
            want = json.dumps(state.amplitude_of(zb).to_json())
            assert json.dumps(tg.tg_amplitude_dp(graph, zb).to_json()) == want
            compared += 1
    assert compared > 100


def test_paths_equal_dp(c2):
    rng = random.Random(777)
    for _ in range(10):
        lines = rng.randint(2, 5)
        c = random_circuit(rng, lines, 3, c2)
        x = random_bits(rng, lines)
        graph = tg.tg_build(c, x)
        for z in range(1 << lines):
            zb = cir.key_to_bits(z, lines)
            a = tg.tg_amplitude_dp(graph, zb)
            b = tg.tg_amplitude_paths(graph, zb)
            assert (a - b).is_zero()


def test_empty_circuit_is_initial_chain(c2):
    c = Circuit(2, 1, (), c2)
    g = tg.tg_build(c, "10")
    assert tg.tg_metrics(g).width == 1
    assert (tg.tg_amplitude_dp(g, "100") - c2.one()).is_zero()


def test_width_bound(c2):
    rng = random.Random(999)
    for _ in range(10):
        lines = rng.randint(2, 6)
        t = rng.randint(1, 4)
        c = random_circuit(rng, lines, t, c2)
        graph = tg.tg_init(random_bits(rng, lines), c2)
        applied = 0
        for layer in c.layers:
            graph = tg.apply_layer(graph, layer)
            applied += 1
            assert graph.width() <= 2 ** (2 ** (2 * applied))


def test_path_count_bound_per_gate(c2):
    rng = random.Random(31)
    for _ in range(10):
        lines = rng.randint(2, 6)
        c = random_circuit(rng, lines, rng.randint(1, 3), c2)
        graph = tg.tg_build(c, random_bits(rng, lines))
        g_count = multiline_gate_count(c)
        assert tg.tg_path_count(graph) <= 4**g_count


def test_dense_lowering_mod_gate(c2):
    c = Circuit(3, 0, (TensorLayer((ModGate(2, 1, (0, 1), 2),)),), c2)
    for x in range(8):
        xb = cir.key_to_bits(x, 3)
        graph = tg.tg_build(c, xb)
        state = sv.run(c, xb)
        for z in range(8):
            zb = cir.key_to_bits(z, 3)
            assert (tg.tg_amplitude_dp(graph, zb) - state.amplitude_of(zb)).is_zero()
    assert tg.tg_metrics(graph).dense_lowered_gates == 1


def test_dense_lowering_fourier_block():
    c3 = get_context("cyclotomic3")
    c = Circuit(2, 0, (TensorLayer((FourierGate(3, (0, 1)),)),), c3)
    for x in range(4):
        xb = cir.key_to_bits(x, 2)
        graph = tg.tg_build(c, xb)
        state = sv.run(c, xb)
        for z in range(4):
            zb = cir.key_to_bits(z, 2)
            assert (tg.tg_amplitude_dp(graph, zb) - state.amplitude_of(zb)).is_zero()
            assert (tg.tg_amplitude_paths(graph, zb) - state.amplitude_of(zb)).is_zero()


def test_dense_lowering_addblock():
    c3 = get_context("cyclotomic3")
    c = Circuit(4, 0, (TensorLayer((AddBlockGate(3, (0, 1), (2, 3)),)),), c3)
    for x in range(16):
        xb = cir.key_to_bits(x, 4)
        graph = tg.tg_build(c, xb)
        state = sv.run(c, xb)
        for z in range(16):
            zb = cir.key_to_bits(z, 4)
            assert (tg.tg_amplitude_dp(graph, zb) - state.amplitude_of(zb)).is_zero()


def test_path_cap(c2, monkeypatch):
    g = tg.tg_init("00", c2)
    for _ in range(3):
        g = one_gate(g, ToffoliGate((0,), 1))
    assert tg.tg_path_count(g) == 8
    # one unit per path and height: 8 paths of height 2 cost 16
    monkeypatch.setattr(cir, "WORK", 16)
    assert (tg.tg_amplitude_paths(g, "00") - tg.tg_amplitude_dp(g, "00")).is_zero()
    monkeypatch.setattr(cir, "WORK", 15)
    with pytest.raises(
        cir.CapExceededError,
        match="^summing 8 paths of height 2 exceeds the work budget of 15 units$",
    ):
        tg.tg_amplitude_paths(g, "00")


def _dp_held_terms(g, target):
    """(most color terms the DP holds at once, terms in every node's final
    value), counted from scratch after each contribution: a node's value is
    held from its first contribution until its out-edges are processed,
    and the terminal's to the end."""
    ctx = g.ctx
    held = {g.source: tg.ColorTerm(ctx, {tg.UNIT_PRODUCT: ctx.one()})}
    peak, every = 1, 0
    for node in tg._topo_nodes(g):
        value = held.get(node)
        if value is None:
            continue
        outs = [(dst, value) for dst in g.hout.get(node, ())]
        if node in g.vout:
            dst, product, a0, a1 = g.vout[node]
            amp = a0 if target[g.nodes[dst] - 1] == "0" else a1
            if not amp.is_zero():
                outs.append((dst, value.times(tg.ColorTerm(ctx, {product: amp}))))
        for dst, term in outs:
            held[dst] = held[dst].plus(term) if dst in held else term
            peak = max(peak, sum(len(v.terms) for v in held.values()))
        every += len(value.terms)
        if node != g.terminal:
            del held[node]
    return peak, every


def test_dp_budgets_are_exact(c2, monkeypatch):
    # one work unit per color-term product formed; the memory budget
    # bounds the terms of the values held at once, which are the
    # frontier's, not every node's
    rng = random.Random(11)
    c = random_circuit(rng, 6, 4, c2)
    x = random_bits(rng, 6)
    z = cir.key_to_bits(sv.run(c, x).support()[0], 6)
    g = tg.tg_build(c, x)
    products = []
    times = tg.ColorTerm.times

    def counted(a, b):
        products.append(len(a.terms) * len(b.terms))
        return times(a, b)

    monkeypatch.setattr(tg.ColorTerm, "times", counted)
    want = tg.tg_amplitude_dp(g, z)
    work = sum(products)
    peak, every = _dp_held_terms(g, z)
    assert not want.is_zero() and 1 < peak < every
    monkeypatch.setattr(cir, "WORK", work)
    assert (tg.tg_amplitude_dp(g, z) - want).is_zero()
    monkeypatch.setattr(cir, "WORK", work - 1)
    with pytest.raises(cir.CapExceededError, match="work budget of"):
        tg.tg_amplitude_dp(g, z)
    monkeypatch.setattr(cir, "WORK", work)
    monkeypatch.setattr(cir, "BUDGET", peak)
    assert (tg.tg_amplitude_dp(g, z) - want).is_zero()
    monkeypatch.setattr(cir, "BUDGET", peak - 1)
    refusal = f"hold {peak} color terms at once, over the memory budget of {peak - 1}$"
    with pytest.raises(cir.CapExceededError, match=refusal):
        tg.tg_amplitude_dp(g, z)


def test_path_count_runs_once_per_graph_structure(c2, monkeypatch):
    # the count tg_amplitude_paths charges its work from is kept on the
    # graph: several targets cost one counting pass, and a structure
    # change costs one more
    passes = []
    topo = tg._topo_nodes
    monkeypatch.setattr(tg, "_topo_nodes", lambda g: passes.append(1) or topo(g))
    g, _left, right = _uncolored_figure(c2, middle=False)
    expected = _uncolored_figure_amplitudes(c2)
    for zb in expected:
        tg.tg_amplitude_paths(g, zb)
    assert len(passes) == 1
    g.add_node(2, right[2])
    _right_middle_edges(g, right)
    for zb, want in expected.items():
        assert (tg.tg_amplitude_paths(g, zb) - want).is_zero()
    assert len(passes) == 2
    assert tg.tg_path_count(g) == 2 and len(passes) == 2


def test_dense_lowering_past_the_memory_budget_is_refused_before_building(c2):
    # a MOD gate on 26 lines lowers entry by entry from a table of 2^26
    # values; it is refused before the table is built
    c = Circuit(26, 0, (TensorLayer((ModGate(3, 0, tuple(range(25)), 25),)),), c2)
    t0 = time.perf_counter()
    with pytest.raises(cir.CapExceededError, match="2\\^26 values of 26 lines exceeds the memory"):
        tg.tg_build(c, "0" * 26)
    assert time.perf_counter() - t0 < 1


def test_node_budget(c2, monkeypatch):
    c = Circuit(2, 0, (TensorLayer((ToffoliGate((0,), 1),)),), c2)
    assert len(tg.tg_build(c, "10").nodes) == 6
    monkeypatch.setattr(cir, "BUDGET", 5)
    with pytest.raises(cir.CapExceededError, match="budget of 5 nodes"):
        tg.tg_build(c, "10")


# -- paper figures -----------------------------------------------------------


def _uncolored_figure(ctx, middle=True):
    """middle=False leaves out the right chain's height-2 node and the two
    vertical edges through it (_right_middle_edges)."""
    s = ctx.constants["s"]
    one, zero = ctx.one(), ctx.zero()
    half = ctx.scalar_from_rational(Fraction(1, 2))
    g = tg.TensorGraph(ctx, 3)
    left = [g.add_node(h) for h in range(4)]
    right = [4, 5, 6, 7]
    for h in range(4):
        if middle or h != 2:
            g.add_node(h, right[h])
    g.source, g.terminal = left[0], left[3]
    g.add_vedge(left[0], left[1], tg.UNIT_PRODUCT, zero, one)
    g.add_vedge(left[1], left[2], tg.UNIT_PRODUCT, s, s)
    g.add_vedge(left[2], left[3], tg.UNIT_PRODUCT, half, zero)
    g.add_vedge(right[0], right[1], tg.UNIT_PRODUCT, one, zero)
    if middle:
        _right_middle_edges(g, right)
    g.add_hedge(left[0], right[0])
    g.add_hedge(right[3], left[3])
    return g, left, right


def _right_middle_edges(g, right):
    s = g.ctx.constants["s"]
    half = g.ctx.scalar_from_rational(Fraction(1, 2))
    g.add_vedge(right[1], right[2], tg.UNIT_PRODUCT, s, -s)
    g.add_vedge(right[2], right[3], tg.UNIT_PRODUCT, half, g.ctx.zero())


def _uncolored_figure_amplitudes(ctx):
    # the sum of the figure's two product vectors
    s = ctx.constants["s"]
    half = ctx.scalar_from_rational(Fraction(1, 2))
    expected = {
        "100": s * half,
        "110": s * half,
        "000": s * half,
        "010": ctx.zero() - s * half,
    }
    targets = (cir.key_to_bits(z, 3) for z in range(8))
    return {zb: expected.get(zb, ctx.zero()) for zb in targets}


def test_uncolored_figure_two_path_vectors(c2):
    g, _left, _right = _uncolored_figure(c2)
    assert tg.tg_path_count(g) == 2
    for zb, want in _uncolored_figure_amplitudes(c2).items():
        assert (tg.tg_amplitude_dp(g, zb) - want).is_zero()
        assert (tg.tg_amplitude_paths(g, zb) - want).is_zero()


def _colored_figure(ctx, routed=True):
    """routed=False leaves out the hedge right[1] -> left[1]."""
    s = ctx.constants["s"]
    one, zero = ctx.one(), ctx.zero()
    g = tg.TensorGraph(ctx, 3)
    left = [g.add_node(h) for h in range(4)]
    right = [g.add_node(h) for h in range(4)]
    g.source, g.terminal = left[0], left[3]
    b, anti = tg.color(0), tg.anticolor(0)
    g.add_vedge(left[0], left[1], b, -s, -s)
    g.add_vedge(left[1], left[2], tg.UNIT_PRODUCT, -s, s)
    g.add_vedge(left[2], left[3], b, one, zero)
    g.add_vedge(right[0], right[1], anti, s, -s)
    g.add_vedge(right[1], right[2], tg.UNIT_PRODUCT, s, -s)
    g.add_vedge(right[2], right[3], anti, zero, one)
    g.add_hedge(left[0], right[0])
    g.add_hedge(right[3], left[3])
    if routed:
        g.add_hedge(right[1], left[1])
    g.add_hedge(right[2], left[2])
    return g, left, right


def test_colored_figure_amplitude_half(c2):
    g, _left, _right = _colored_figure(c2)
    half = c2.scalar_from_rational(Fraction(1, 2))
    m = tg.tg_metrics(g)
    assert m.path_count == 4 and m.color_consistent and m.color_depth == 1
    assert (tg.tg_amplitude_dp(g, "100") - half).is_zero()
    assert (tg.tg_amplitude_paths(g, "100") - half).is_zero()
    # only color-balanced paths survive; |001> flows through the right chain
    amp = tg.tg_amplitude_dp(g, "001")
    assert (amp - c2.constants["s"] * c2.constants["s"]).is_zero()


def test_extraction_order_follows_structure_changes(c2):
    # A query keeps the extraction order on the graph.  Each change below
    # adds a node the kept order lacks, or a hedge it runs against, so the
    # sums come out whole only if the change dropped that order.
    expected = _uncolored_figure_amplitudes(c2)
    g, _left, right = _uncolored_figure(c2, middle=False)
    assert tg.tg_path_count(g) == 1
    assert (tg.tg_amplitude_dp(g, "100") - expected["100"]).is_zero()
    g.add_node(2, right[2])
    _right_middle_edges(g, right)
    assert tg.tg_path_count(g) == 2
    for zb, want in expected.items():
        assert (tg.tg_amplitude_dp(g, zb) - want).is_zero()

    full, _left, _right = _colored_figure(c2)
    g, left, right = _colored_figure(c2, routed=False)
    assert tg.tg_path_count(g) == 3
    g.add_hedge(right[1], left[1])  # height 1 now visits right[1] before left[1]
    assert tg.tg_path_count(g) == tg.tg_path_count(full) == 4
    for z in range(8):
        zb = cir.key_to_bits(z, 3)
        assert (tg.tg_amplitude_dp(g, zb) - tg.tg_amplitude_dp(full, zb)).is_zero()


def test_horizontal_cycle_is_reported(c2):
    g = tg.tg_init("0", c2)
    a = g.add_node(1)
    b = g.add_node(1)
    g.add_hedge(a, b)
    g.add_hedge(b, a)
    with pytest.raises(tg.GraphError, match="horizontal cycle"):
        tg.tg_amplitude_dp(g, "0")
    with pytest.raises(tg.GraphError, match="horizontal cycle"):
        tg.tg_path_count(g)


# -- serialization ------------------------------------------------------------


def test_color_product_factors_are_sorted(c2):
    p = tg.anticolor(7).times(tg.color(2)).times(tg.color(40))
    assert list(p.factors()) == [(2, False), (7, True), (40, False)]
    assert repr(p) == "{c2*~c7*c40}" and repr(tg.UNIT_PRODUCT) == "{1}"
    g = tg.TensorGraph(c2, 1)
    g.source, g.terminal = g.add_node(0), g.add_node(1)
    g.add_vedge(g.source, g.terminal, p, c2.one(), c2.zero())
    assert tg.tg_to_json(g)["vedges"][0]["colors"] == [[2, 0], [7, 1], [40, 0]]


def test_malformed_color_graph_detected(c2):
    g = tg.tg_init("0", c2)
    src = g.source
    dst, product, a0, a1 = g.vout[src]
    g.vout[src] = (dst, tg.color(9), a0, a1)  # open color never closed
    with pytest.raises(tg.GraphError, match="color"):
        tg.tg_amplitude_dp(g, "0")
    with pytest.raises(tg.GraphError, match="color"):
        tg.tg_amplitude_paths(g, "0")


def test_color_consistency_after_every_apply(c2):
    rng = random.Random(2468)
    for _ in range(8):
        lines = rng.randint(3, 6)
        c = random_circuit(rng, lines, 3, c2)
        g = tg.tg_init(random_bits(rng, lines), c2)
        for layer in c.layers:
            g = tg.apply_layer(g, layer)
            assert tg.tg_metrics(g).color_consistent


def test_staged_layer_color_depth_bound(c2):
    g = tg.tg_init("0000", c2)
    staged = StagedCNotLayer((((0, 3),), ((1, 2),)))
    g = tg.apply_layer(g, staged)
    m = tg.tg_metrics(g)
    assert m.color_consistent
    # two nested stages: both colors active strictly inside the outer span
    assert m.color_depth == 2
    c = Circuit(4, 0, (staged,), c2)
    state = sv.run(c, "0110")
    for z in range(16):
        zb = cir.key_to_bits(z, 4)
        assert (tg.tg_amplitude_dp(tg.tg_build(c, "0110"), zb) - state.amplitude_of(zb)).is_zero()


def test_master_property_at_ten_lines(c2):
    rng = random.Random(1010)
    c = random_circuit(rng, 10, 3, c2)
    x = random_bits(rng, 10)
    state = sv.run(c, x)
    graph = tg.tg_build(c, x)
    for z in range(1 << 10):
        zb = cir.key_to_bits(z, 10)
        assert (tg.tg_amplitude_dp(graph, zb) - state.amplitude_of(zb)).is_zero()


def test_dense_gate_with_noncontiguous_lines(c2):
    # untouched lines threaded through the lowered span keep their state
    c = Circuit(5, 0, (TensorLayer((ModGate(2, 0, (0, 2), 4),)),), c2)
    for x in range(32):
        xb = cir.key_to_bits(x, 5)
        graph = tg.tg_build(c, xb)
        state = sv.run(c, xb)
        for z in range(32):
            zb = cir.key_to_bits(z, 5)
            assert (tg.tg_amplitude_dp(graph, zb) - state.amplitude_of(zb)).is_zero()


def test_fourier_block_with_reversed_lines():
    c3 = get_context("cyclotomic3")
    c = Circuit(2, 0, (TensorLayer((FourierGate(3, (1, 0)),)),), c3)
    for x in range(4):
        xb = cir.key_to_bits(x, 2)
        graph = tg.tg_build(c, xb)
        state = sv.run(c, xb)
        for z in range(4):
            zb = cir.key_to_bits(z, 2)
            assert (tg.tg_amplitude_dp(graph, zb) - state.amplitude_of(zb)).is_zero()


def test_dense_gate_composed_with_colored_span():
    # a controlled-not layer first, so the lowered block gate has to copy
    # color-tagged edges into its span variants
    c3 = get_context("cyclotomic3")
    c = Circuit(
        3,
        0,
        (CNotLayer(((0, 2),)), TensorLayer((FourierGate(3, (1, 2)),))),
        c3,
    )
    for x in range(8):
        xb = cir.key_to_bits(x, 3)
        graph = tg.tg_build(c, xb)
        state = sv.run(c, xb)
        assert tg.tg_metrics(graph).color_consistent
        for z in range(8):
            zb = cir.key_to_bits(z, 3)
            want = state.amplitude_of(zb)
            assert (tg.tg_amplitude_dp(graph, zb) - want).is_zero(), (xb, zb)
            assert (tg.tg_amplitude_paths(graph, zb) - want).is_zero(), (xb, zb)


def test_apply_functions_leave_input_graph_untouched(c2):
    rng = random.Random(11)
    c = random_circuit(rng, 4, 3, c2)
    x = random_bits(rng, 4)
    g = tg.tg_init(x, c2)
    snapshots = []
    for layer in c.layers:
        before = tg.tg_to_json(g)
        g2 = tg.apply_layer(g, layer)
        assert tg.tg_to_json(g) == before
        snapshots.append(g2)
        g = g2


# Digest of tg_to_json and tg_metrics over seeded random circuits and the
# dense-lowering circuits above: node ids, edge order and labels must not
# drift when the builder or the extraction order is reworked.
GRAPH_BYTES_SHA256 = "0eb27b7320b3a5628f30c346a2097bac7f661bf5745565fbac294a33812c3ae2"


def test_graph_bytes_are_pinned(c2):
    c3 = get_context("cyclotomic3")
    rng = random.Random(4321)
    cases = []
    for _ in range(20):
        lines = rng.randint(2, 6)
        c = random_circuit(rng, lines, rng.randint(1, 4), c2)
        cases.append((c, random_bits(rng, lines)))
    cases += [
        (Circuit(5, 0, (TensorLayer((ModGate(2, 0, (0, 2), 4),)),), c2), "10110"),
        (Circuit(4, 0, (TensorLayer((AddBlockGate(3, (0, 1), (2, 3)),)),), c3), "0110"),
        (Circuit(3, 0, (CNotLayer(((0, 2),)), TensorLayer((FourierGate(3, (1, 2)),))), c3), "101"),
        (Circuit(4, 0, (StagedCNotLayer((((0, 3),), ((1, 2),))),), c2), "0110"),
    ]
    digest = hashlib.sha256()
    for c, x in cases:
        g = tg.tg_build(c, x)
        digest.update(json.dumps(tg.tg_to_json(g), sort_keys=True).encode())
        digest.update(json.dumps(tg.tg_metrics(g).to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == GRAPH_BYTES_SHA256


# -- lowering branches the random layers never reach ---------------------------
#
# These pin behaviour across rewrites of the lowering; they stay out of the
# pinned digest above.


def _lowering_circuits():
    c2, c3 = get_context("cyclotomic2"), get_context("cyclotomic3")
    h, z = cir.hadamard_gate, c3.constants["z"]

    def h_prime(line):
        return FourierGate(2, (line,), inverse=True)

    return {
        "H'": Circuit(3, 0, (
            TensorLayer((h_prime(0), h_prime(2))),
            CNotLayer(((0, 1),)),
            TensorLayer((h_prime(1),)),
        ), c2),
        "FAN [<- c]": Circuit(3, 0, (
            TensorLayer((h(0),)),
            CNotLayer(((0, 2),)),
            TensorLayer((FanOutGate((), 1),)),
            TensorLayer((FanOutGate((), 0), h(1))),
        ), c2),
        "TOF [-> t] in a coloured span": Circuit(3, 0, (
            TensorLayer((h(0), h(1))),
            CNotLayer(((0, 2),)),
            TensorLayer((ToffoliGate((), 1),)),
        ), c2),
        "U with zero entries": Circuit(3, 0, (
            TensorLayer((FourierGate(3, (0, 1)),)),
            CNotLayer(((0, 2),)),
            TensorLayer((cir.one_qubit(c3, [[0, 1], [1, 0]], 1),
                         cir.one_qubit(c3, [[1, 0], [0, z]], 2))),
            TensorLayer((cir.one_qubit(c3, [[0, z], [1, 0]], 0),)),
        ), c3),
    }


@pytest.mark.parametrize("name", list(_lowering_circuits()))
def test_lowering_branch_matches_oracle(name):
    c = _lowering_circuits()[name]
    n = c.width
    for x in range(1 << n):
        xb = cir.key_to_bits(x, n)
        graph = tg.tg_build(c, xb)
        state = sv.run(c, xb)
        for z in range(1 << n):
            zb = cir.key_to_bits(z, n)
            want = state.amplitude_of(zb)
            assert (tg.tg_amplitude_dp(graph, zb) - want).is_zero(), (xb, zb)
            assert (tg.tg_amplitude_paths(graph, zb) - want).is_zero(), (xb, zb)


def test_one_line_gates_add_no_node():
    c3 = get_context("cyclotomic3")
    z = c3.constants["z"]
    g = tg.apply_layer(tg.tg_init("100", c3), CNotLayer(((0, 2),)))
    for gate in (
        cir.one_qubit(c3, [[0, z], [1, 0]], 1),
        cir.one_qubit(c3, [[1, 0], [0, z]], 0),
        ToffoliGate((), 2),
    ):
        g2 = one_gate(g, gate)
        assert g2.nodes == g.nodes and g2.hout == g.hout
        assert {s: e[:2] for s, e in g2.vout.items()} == {s: e[:2] for s, e in g.vout.items()}
        assert tg.tg_metrics(g2).dense_lowered_gates == 0
    c2 = get_context("cyclotomic2")
    g = tg.apply_layer(tg.tg_init("100", c2), CNotLayer(((0, 2),)))
    for gate in (cir.hadamard_gate(1), FourierGate(2, (2,), inverse=True)):
        g2 = one_gate(g, gate)
        assert g2.nodes == g.nodes and g2.hout == g.hout


def test_empty_fanout_adds_one_span_copy(c2):
    g = tg.apply_layer(tg.tg_init("010", c2), CNotLayer(((0, 2),)))
    g2 = one_gate(g, FanOutGate((), 1))
    # one copy of the height-2 span: its entry and landing node
    entries = len(g.vedges_at(2))
    assert len(g2.nodes) == len(g.nodes) + 2 * entries
    assert tg.tg_path_count(g2) == 2 * tg.tg_path_count(g)
    assert tg.tg_metrics(g2).dense_lowered_gates == 0


def _sqrt_a1_layer(rng, lines, matrices):
    avail = list(range(lines))
    rng.shuffle(avail)
    gates = []
    while avail:
        kind = rng.choice(("u", "u", "x", "tof", "fan", "mod"))
        if kind == "x":
            gates.append(ToffoliGate((), avail.pop()))
        elif kind == "tof" and len(avail) >= 2:
            gates.append(ToffoliGate((avail.pop(),), avail.pop()))
        elif kind == "fan" and len(avail) >= 2:
            gates.append(FanOutGate((avail.pop(),), avail.pop()))
        elif kind == "mod" and len(avail) >= 3:
            gates.append(ModGate(2, rng.randrange(2), (avail.pop(), avail.pop()), avail.pop()))
        else:
            gates.append(OneQubitGate(rng.choice(matrices), avail.pop()))
    return cir.tensor_layer(*gates)


def test_amplitudes_match_reference_with_an_indeterminate():
    # in Q(a1)(b) the matrices need not be unitary, so the layers are
    # applied without making a Circuit, against the per-branch reference
    ctx = sqrt_a1_context()
    one, zero, b = ctx.one(), ctx.zero(), ctx.basis_element(1)
    matrices = (((b, b), (b, -b)), ((zero, b), (one, zero)), ((one, zero), (b, b)))
    rng = random.Random("graph-sqrt-a1")
    compared = 0
    for _ in range(20):
        lines = rng.randint(3, 5)
        layers = [
            random_cnot_layer(rng, lines) if rng.random() < 0.25
            else _sqrt_a1_layer(rng, lines, matrices)
            for _ in range(rng.randint(2, 4))
        ]
        x = random_bits(rng, lines)
        want, _ = reference_run(layers, x, ctx)
        g = tg.tg_init(x, ctx)
        for layer in layers:
            g = tg.apply_layer(g, layer)
        for z in range(1 << lines):
            zb = cir.key_to_bits(z, lines)
            amp = want.get(z, zero)
            assert tg.tg_amplitude_dp(g, zb) == amp, (x, zb)
            assert tg.tg_amplitude_paths(g, zb) == amp, (x, zb)
            compared += not amp.is_zero()
    assert compared > 50
