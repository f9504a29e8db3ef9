"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is
stated inline; "exact" means structural equality of exact scalars
(zero tolerance).
"""

import random
import time
from fractions import Fraction

import pytest

from support import (
    multiline_gate_count,
    numeric_simulate,
    random_bits,
    random_circuit,
)

from qacclab import circuit as cir
from qacclab import statevec as sv
from qacclab import tensorgraph as tg
from qacclab import transforms as tf
from qacclab.algebra import (
    ExactScalar,
    FScalar,
    LatticeSpec,
    cyclotomic_context,
    get_context,
    ipoly_direct_product,
    ipoly_interpolated_product,
    polys,
    rational_context,
)
from qacclab.circuit import CNotLayer, Circuit, ModGate, TensorLayer


_T0 = 0.0


@pytest.fixture(autouse=True)
def _start_clock():
    global _T0
    _T0 = time.perf_counter()
    yield


def _report(number: int, text: str):
    elapsed = time.perf_counter() - _T0
    print(f"\n[acceptance] criterion {number}: PASS: {text} [{elapsed:.2f}s]")


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_conjugation_identity():
    """Fourier-conjugated fan-out equals modular addition exactly.

    Grid q in {2,3,4,5}, n in {1,2}; exact scalar equality on every basis
    state (zero tolerance).  Budget: < 30 s.
    """
    checked = 0
    for q in (2, 3, 4, 5):
        for n in (1, 2):
            report = tf.check_builder("mq_via_conjugation", n, q)
            assert report.equivalent and report.aux_restored, (q, n, report)
            checked += 1
    _report(1, f"conjugation identity exact on {checked} grid points")


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_gate_equivalence_suite():
    """Every gate-equivalence builder passes the exhaustive checker with
    auxiliaries restored, over q in {2,3,4,5}, n in {1,2,3}, every grid
    point run (the widest, mq_from_modq at q=5, n=3, has 32 lines).  Exact
    equality.  Budget: < 5 min.
    """
    names = ("modqr_from_modq", "modq_from_mq", "modhat", "mq_from_modq", "f_from_fq")
    passed = 0
    for name in names:
        spec = tf.BUILDERS[name]
        for q in (2, 3, 4, 5):
            for n in (1, 2, 3):
                r_values = (0, q - 1) if spec.needs_r else (0,)
                for r in r_values:
                    report = tf.check_builder(name, n, q, r)
                    assert report.equivalent, (name, q, n, r, report)
                    assert report.aux_restored, (name, q, n, r)
                    passed += 1
    _report(2, f"{passed} builder instances equivalent")


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_end_to_end_chain():
    """MOD_3 realized with one-qubit, Toffoli, fan-out and controlled-not
    layers plus q-ary fan-out/Fourier blocks only, n=2.  Exact.  < 1 min.
    """
    chain = tf.expand_addmod(tf.build_modq_from_mq(2, 3))
    kinds = tf.gate_kinds(chain)
    assert "AddModGate" not in kinds, kinds
    assert kinds <= {"FourierGate", "FanOutModGate", "ToffoliGate", "CNotLayer"}, kinds
    report = tf.equivalence_check(ModGate(3, 0, (0, 1), 2), chain, 3)
    assert report.equivalent and report.aux_restored, report
    _report(3, "MOD_3 chain over fan-out-derived blocks is exactly equivalent")


# -- criteria 4, 6, 9 share a seeded circuit suite --------------------------------


@pytest.fixture(scope="module")
def random_suite():
    ctx = get_context("cyclotomic2")
    rng = random.Random(20260808)
    suite = []
    for _ in range(100):
        lines = rng.randint(3, 6)
        n_layers = rng.randint(1, 4)
        c = random_circuit(rng, lines, n_layers, ctx, ensure_cnot_layer=True)
        suite.append((c, random_bits(rng, lines)))
    return suite


def test_criterion_4_tensor_graph_oracle_equivalence(random_suite):
    """100 seeded random circuits (<= 6 lines, <= 4 layers, mixed gate kinds
    with a controlled-not layer each): every amplitude from the graph DP
    equals the state-vector amplitude exactly; the path sum agrees wherever
    the path count is within 10^6.  Budget: < 5 min.
    """
    path_checked = 0
    for c, x in random_suite:
        state = sv.run(c, x)
        graph = tg.tg_build(c, x)
        enumerable = tg.tg_path_count(graph) <= 10**6
        for z in range(1 << c.width):
            zb = cir.key_to_bits(z, c.width)
            want = state.amplitude_of(zb)
            assert (tg.tg_amplitude_dp(graph, zb) - want).is_zero(), (x, zb)
            if enumerable:
                assert (tg.tg_amplitude_paths(graph, zb) - want).is_zero(), (x, zb)
                path_checked += 1
    _report(4, f"100 circuits match the oracle exactly ({path_checked} path-sum checks)")


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_worked_figures():
    """The two 3-height worked examples: the uncolored graph reproduces its
    two product-state paths, and the colored graph yields exactly 1/2 for
    |1,0,0> by both extraction methods.  Exact.  Budget: < 1 s.
    """
    ctx = get_context("cyclotomic2")
    s = ctx.constants["s"]
    one, zero = ctx.one(), ctx.zero()
    half = ctx.scalar_from_rational(Fraction(1, 2))

    g = tg.TensorGraph(ctx, 3)
    left = [g.add_node(h) for h in range(4)]
    right = [g.add_node(h) for h in range(4)]
    g.source, g.terminal = left[0], left[3]
    g.add_vedge(left[0], left[1], tg.UNIT_PRODUCT, zero, one)
    g.add_vedge(left[1], left[2], tg.UNIT_PRODUCT, s, s)
    g.add_vedge(left[2], left[3], tg.UNIT_PRODUCT, half, zero)
    g.add_vedge(right[0], right[1], tg.UNIT_PRODUCT, one, zero)
    g.add_vedge(right[1], right[2], tg.UNIT_PRODUCT, s, -s)
    g.add_vedge(right[2], right[3], tg.UNIT_PRODUCT, half, zero)
    g.add_hedge(left[0], right[0])
    g.add_hedge(right[3], left[3])
    assert tg.tg_path_count(g) == 2
    expected = {
        "100": s * half, "110": s * half,          # |1> (x) (s|0>+s|1>) (x) (1/2)|0>
        "000": s * half, "010": zero - s * half,   # |0> (x) (s|0>-s|1>) (x) (1/2)|0>
    }
    for z in range(8):
        zb = cir.key_to_bits(z, 3)
        want = expected.get(zb, zero)
        assert (tg.tg_amplitude_dp(g, zb) - want).is_zero()
        assert (tg.tg_amplitude_paths(g, zb) - want).is_zero()

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
    g.add_hedge(right[1], left[1])
    g.add_hedge(right[2], left[2])
    metrics = tg.tg_metrics(g)
    assert metrics.color_consistent and metrics.path_count == 4
    assert (tg.tg_amplitude_dp(g, "100") - half).is_zero()
    assert (tg.tg_amplitude_paths(g, "100") - half).is_zero()
    assert not tg.tg_amplitude_dp(g, "001").is_zero()
    _report(5, "both worked figures reproduce exactly (|100| amplitude = 1/2)")


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_6_bounds_as_assertions(random_suite):
    """Width <= 2^(2^(2t)) after every layer of every constructed graph;
    on a 20-circuit suite, the path count multiplies by at most 4 per
    multi-line gate and controlled-not layers (separated pairs) at most
    double the width.  Exact integer checks.  Budget: < 1 min.
    """
    for c, x in random_suite:
        graph = tg.tg_init(x + "0" * c.n_aux, c.context)
        for t, layer in enumerate(c.layers, start=1):
            graph = tg.apply_layer(graph, layer)
            assert graph.width() <= 2 ** (2 ** (2 * t)), (x, t)

    ctx = get_context("cyclotomic2")
    rng = random.Random(606060)
    for _ in range(20):
        lines = rng.randint(4, 6)
        c = random_circuit(
            rng, lines, rng.randint(1, 4), ctx,
            ensure_cnot_layer=True, separated_pairs=True,
        )
        x = random_bits(rng, lines)
        graph = tg.tg_init(x, ctx)
        total_gates = 0
        for layer in c.layers:
            if isinstance(layer, TensorLayer):
                for gate in layer.gates:
                    before = tg.tg_path_count(graph)
                    graph = tg.apply_layer(graph, TensorLayer((gate,)))
                    after = tg.tg_path_count(graph)
                    if cir.is_multiline(gate):
                        assert after <= 4 * before, (gate,)
                    else:
                        assert after == before
            elif isinstance(layer, CNotLayer):
                width_before = graph.width()
                paths_before = tg.tg_path_count(graph)
                graph = tg.apply_layer(graph, layer)
                assert graph.width() <= 2 * width_before, layer
                assert tg.tg_path_count(graph) <= paths_before * 4 ** len(layer.pairs)
        total_gates += multiline_gate_count(c)
        assert tg.tg_path_count(graph) <= 4 ** multiline_gate_count(c)
    _report(6, "width, path-count, and doubling bounds hold on all instances")


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_7_algebra_suite():
    """Interpolated iterated products equal direct products exactly on 200
    seeded instances (arity <= 3, product degree <= 8); ring axioms and the
    zero test hold exactly on 200 random triples in each of the cyclotomic
    3 and 5 contexts.  Budget: < 2 min.
    """
    rng = random.Random(77007)

    def rand_poly(m, max_deg):
        p = {}
        for _ in range(rng.randint(1, 4)):
            exps = []
            left = max_deg
            for _ in range(m):
                k = rng.randint(0, left)
                exps.append(k)
                left -= k
            coeff = rng.randint(-9, 9)
            if coeff:
                p = polys.add(p, {tuple(exps): coeff})
        return p

    for _ in range(200):
        m = rng.randint(1, 3)
        items = []
        remaining = 8
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(0, min(2, remaining))
            items.append(rand_poly(m, d))
            deg = polys.total_degree(items[-1])
            remaining -= deg if deg is not None else 0
        direct = ipoly_direct_product(items)
        interp = ipoly_interpolated_product(items, LatticeSpec(m, 8))
        assert interp == direct

    def rand_scalar(ctx):
        coords = []
        for _ in range(ctx.dim):
            coeff = rng.randint(-4, 4)
            coords.append(
                ctx.f_zero if coeff == 0 else FScalar(polys.const(0, coeff), rng.randint(0, 2))
            )
        return ExactScalar(ctx, coords)

    for q in (3, 5):
        ctx = cyclotomic_context(q)
        for _ in range(200):
            a, b, c = (rand_scalar(ctx) for _ in range(3))
            assert ((a + b) + c) == (a + (b + c))
            assert (a * b) == (b * a)
            assert ((a * b) * c) == (a * (b * c))
            assert (a * (b + c)) == (a * b + a * c)
            diff = a - a
            assert diff.is_zero() and abs(diff.numeric()) < 1e-9
            if (a - b).is_zero():
                assert abs(a.numeric() - b.numeric()) < 1e-9
    _report(7, "200 interpolation instances and 2x200 ring-axiom triples exact")


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_acceptance_predicates():
    """E/N/B verdicts on a ten-circuit hand-built suite, including the
    |amplitude|^2 = 1/2 E-mode error case.  Exact.  Budget: < 10 s.
    """
    ctx = get_context("cyclotomic2")
    h_layer = TensorLayer((cir.hadamard_gate(0),))
    hadamard = Circuit(1, 0, (h_layer,), ctx)
    double_h = Circuit(1, 0, (h_layer, h_layer), ctx)
    x_circ = Circuit(1, 0, (TensorLayer((cir.x_gate(0),)),), ctx)
    bell = Circuit(2, 0, (TensorLayer((cir.hadamard_gate(0),)), CNotLayer(((0, 1),))), ctx)
    rat = rational_context(5)
    rot = cir.one_qubit(rat, [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]], 0)
    rot_once = Circuit(1, 0, (TensorLayer((rot,)),), rat)
    rot_twice = Circuit(1, 0, (TensorLayer((rot,)), TensorLayer((rot,))), rat)

    assert sv.accept(Circuit(1, 1, (), ctx), "1", "10", "E").decision == "accept"
    assert sv.accept(x_circ, "0", "1", "E").decision == "accept"
    assert sv.accept(x_circ, "0", "0", "E").decision == "reject"
    assert sv.accept(hadamard, "0", "1", "N").decision == "accept"
    assert sv.accept(double_h, "0", "1", "N").decision == "reject"  # exact cancellation
    assert sv.accept(double_h, "0", "0", "E").decision == "accept"
    assert sv.accept(bell, "00", "10", "N").decision == "reject"
    assert sv.accept(rot_twice, "0", "1", "B").decision == "accept"  # 576/625 > 3/4
    assert sv.accept(rot_twice, "0", "0", "B").decision == "reject"  # 49/625 < 1/4
    assert sv.accept(rot_once, "0", "0", "B").decision == "invalid-gap"  # 9/25
    with pytest.raises(sv.AcceptanceError, match="not an E-operator"):
        sv.accept(hadamard, "0", "1", "E")  # |amp|^2 = 1/2
    with pytest.raises(sv.AcceptanceError, match="rational"):
        sv.accept(hadamard, "0", "1", "B")
    _report(8, "ten-circuit E/N/B suite matches expected verdicts")


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_9_numeric_cross_check(random_suite):
    """Exact amplitudes evaluated numerically agree with an independent
    double-precision simulator within 1e-6 across the random suite.
    Budget: < 1 min.
    """
    worst = 0.0
    for c, x in random_suite:
        exact = sv.run(c, x)
        approx = numeric_simulate(c, x)
        for z in range(1 << c.width):
            want = approx.get(z, 0j)
            got = exact.entries.get(z)
            got_value = got.numeric() if got is not None else 0j
            worst = max(worst, abs(want - got_value))
            assert abs(want - got_value) < 1e-6, (x, z)
    _report(9, f"numeric cross-check max deviation {worst:.3e} < 1e-6")
