"""Shared test helpers: an independent double-precision simulator, a
per-branch exact reference for the simulator's branching steps, a per-input
reference for equivalence checks that runs the whole candidate, dense gate
matrices, a Fraction reference for scalar arithmetic, a context with one
indeterminate, two-element context files, a seeded random-circuit
generator, a from-scratch count of the color terms the graph DP holds and
the one-edit mutants of a circuit.

The numeric simulator is deliberately written from scratch (own bit
conventions, cmath roots of unity) so it can serve as a cross-check
oracle for the exact engine rather than echoing its code paths.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import replace
from fractions import Fraction

from qacclab import budget
from qacclab import circuit as cir
from qacclab import tensorgraph
from qacclab.algebra import AlgebraContext, FScalar, polys
from qacclab.circuit import (
    AddBlockGate,
    AddModGate,
    CNotLayer,
    FanOutGate,
    FanOutModGate,
    FourierGate,
    ModGate,
    OneQubitGate,
    StagedCNotLayer,
    TensorLayer,
    ToffoliGate,
)


def _bit(key: int, line: int, width: int) -> int:
    return (key >> (width - 1 - line)) & 1


def _blockval(key: int, lines, width: int) -> int:
    value = 0
    for l in lines:
        value = 2 * value + _bit(key, l, width)
    return value


def _setblock(key: int, lines, width: int, value: int) -> int:
    for offset, l in enumerate(reversed(lines)):
        mask = 1 << (width - 1 - l)
        if (value >> offset) & 1:
            key |= mask
        else:
            key &= ~mask
    return key


def _numeric_gate(state: dict, gate, width: int) -> dict:
    out: dict = {}

    def put(key, amp):
        out[key] = out.get(key, 0j) + amp

    for key, amp in state.items():
        if isinstance(gate, OneQubitGate):
            b = _bit(key, gate.line, width)
            for y in (0, 1):
                entry = gate.matrix[y][b].numeric()
                if entry:
                    put(_setblock(key, (gate.line,), width, y), amp * entry)
        elif isinstance(gate, FourierGate):
            v = _blockval(key, gate.block, width)
            if v >= gate.q:
                put(key, amp)
            else:
                sign = -1 if gate.inverse else 1
                root = 1 / math.sqrt(gate.q)
                for y in range(gate.q):
                    phase = cmath.exp(sign * 2j * cmath.pi * v * y / gate.q)
                    put(_setblock(key, gate.block, width, y), amp * root * phase)
        elif isinstance(gate, ToffoliGate):
            if all(_bit(key, c, width) for c in gate.controls):
                key = _setblock(key, (gate.target,), width, 1 - _bit(key, gate.target, width))
            put(key, amp)
        elif isinstance(gate, FanOutGate):
            if _bit(key, gate.control, width):
                for t in gate.targets:
                    key = _setblock(key, (t,), width, 1 - _bit(key, t, width))
            put(key, amp)
        elif isinstance(gate, ModGate):
            weights = gate.weights or (1,) * len(gate.inputs)
            total = sum(w * _bit(key, l, width) for l, w in zip(gate.inputs, weights))
            if total % gate.q == gate.r:
                key = _setblock(key, (gate.output,), width, 1 - _bit(key, gate.output, width))
            put(key, amp)
        elif isinstance(gate, AddModGate):
            b = _blockval(key, gate.result, width)
            if b < gate.q:
                total = sum(
                    v
                    for blk in gate.blocks
                    if (v := _blockval(key, blk, width)) < gate.q
                )
                if gate.inverse:
                    total = -total
                key = _setblock(key, gate.result, width, (b + total) % gate.q)
            put(key, amp)
        elif isinstance(gate, FanOutModGate):
            c = _blockval(key, gate.control, width)
            if c < gate.q:
                delta = -c if gate.inverse else c
                for blk in gate.blocks:
                    v = _blockval(key, blk, width)
                    if v < gate.q:
                        key = _setblock(key, blk, width, (v + delta) % gate.q)
            put(key, amp)
        elif isinstance(gate, AddBlockGate):
            s = _blockval(key, gate.addend, width)
            y = _blockval(key, gate.result, width)
            if s < gate.q and y < gate.q:
                delta = -s if gate.inverse else s
                key = _setblock(key, gate.result, width, (y + delta) % gate.q)
            put(key, amp)
        else:
            raise TypeError(type(gate).__name__)
    return out


def _fold_branch(target: dict, key: int, amp) -> bool:
    """Add amp into target[key], deleting the key when the sum cancels;
    True when it did."""
    prev = target.get(key)
    if prev is None:
        target[key] = amp
        return False
    new = prev + amp
    if new.is_zero():
        del target[key]
        return True
    target[key] = new
    return False


def reference_run(layers, input_bits: str, ctx) -> tuple[dict, int]:
    """(state, cancellations): the state {basis key: ExactScalar} of the
    layers on the input, which spells every line, applied one layer and one
    gate at a time with each branch folded through ExactScalar.__mul__ and
    __add__, and how many partial sums cancelled to exactly zero.  The
    per-branch path the compiled branching steps are checked against."""
    width = len(input_bits)
    state = {cir.parse_bits(input_bits, width): ctx.one()}
    cancellations = 0
    for layer in layers:
        if isinstance(layer, TensorLayer):
            for gate in layer.gates:
                kernel = cir.gate_kernel(gate, width, ctx)
                out: dict = {}
                for key, amp in state.items():
                    for new_key, s in kernel(key):
                        cancellations += _fold_branch(out, new_key, amp if s is None else amp * s)
                state = out
        else:
            stages = layer.stages if isinstance(layer, StagedCNotLayer) else (layer.pairs,)
            for pairs in stages:
                act = cir.cnot_action(pairs, width)
                state = {act(key): amp for key, amp in state.items()}
    return state, cancellations


def per_key_report(target, candidate, main: int, inputs=None):
    """The EquivalenceReport of checking the candidate against the target
    one input at a time, the whole candidate on each: input x runs through
    statevec.compile_circuit(candidate), and target x is gate_kernel of a
    gate or a compiled run of a circuit.  The first
    failing input is reported, at its smallest aux-dirty output if any,
    else at its smallest output whose amplitudes differ.  The reference
    the column path and the cut of the per-input path are checked
    against."""
    from qacclab import statevec
    from qacclab.transforms import EquivalenceReport

    ctx = candidate.context
    one, zero = ctx.one(), ctx.zero()
    aux = candidate.width - main
    zeros = "0" * aux
    program = statevec.compile_circuit(candidate)
    if isinstance(target, cir.Circuit):
        target_program = statevec.compile_circuit(target)
        target_of = lambda x: target_program.apply({x: one}, budget.Work())  # noqa: E731
    else:
        kernel = cir.gate_kernel(target, main, ctx)
        target_of = lambda x: {k: one if s is None else s for k, s in kernel(x)}  # noqa: E731
    for x in range(1 << main) if inputs is None else inputs:
        state = program.apply({x << aux: one}, budget.Work())
        x_bits = cir.key_to_bits(x, main)
        dirty = sorted(key for key in state if key & ((1 << aux) - 1))
        if dirty:
            y_bits = cir.key_to_bits(dirty[0] >> aux, main)
            return EquivalenceReport(
                "counterexample", zeros, main, False, (x_bits, y_bits, None, state[dirty[0]])
            )
        want, got = target_of(x), {key >> aux: amp for key, amp in state.items()}
        for y in sorted(set(want) | set(got)):
            lhs, rhs = want.get(y, zero), got.get(y, zero)
            if lhs != rhs:
                y_bits = cir.key_to_bits(y, main)
                return EquivalenceReport(
                    "counterexample", zeros, main, True, (x_bits, y_bits, lhs, rhs)
                )
    return EquivalenceReport("equivalent", zeros, main, True)


GATE_MATRIX_CAP = 12


def gate_matrix(g, width: int, ctx) -> list[list]:
    """Dense 2^width matrix of the gate embedded in `width` lines, read off
    circuit.gate_kernel column by column (column = input)."""
    if width > GATE_MATRIX_CAP:
        raise ValueError(f"width {width} exceeds dense-matrix cap {GATE_MATRIX_CAP}")
    size = 1 << width
    zero = ctx.zero()
    one = ctx.one()
    cols = [[zero] * size for _ in range(size)]
    kernel = cir.gate_kernel(g, width, ctx)
    for x in range(size):
        for key, scalar in kernel(x):
            cols[key][x] = one if scalar is None else scalar
    return cols


def numeric_simulate(c, input_bits: str) -> dict:
    """Plain complex-double simulation; returns basis key -> amplitude."""
    width = c.width
    state = {int(input_bits + "0" * c.n_aux, 2) if width else 0: 1 + 0j}
    for layer in c.layers:
        if isinstance(layer, TensorLayer):
            for gate in layer.gates:
                state = _numeric_gate(state, gate, width)
        elif isinstance(layer, (CNotLayer, StagedCNotLayer)):
            stages = layer.stages if isinstance(layer, StagedCNotLayer) else (layer.pairs,)
            for pairs in stages:
                new = {}
                for key, amp in state.items():
                    nk = key
                    for ctrl, tgt in pairs:
                        if _bit(key, ctrl, width):
                            nk = _setblock(nk, (tgt,), width, 1 - _bit(nk, tgt, width))
                    new[nk] = new.get(nk, 0j) + amp
                state = new
        else:
            raise TypeError(type(layer).__name__)
    return state


# -- Fraction reference for exact scalars ----------------------------------------


class FractionReference:
    """Scalar arithmetic of a context redone with Fractions, as a check on
    the exact engine.  A scalar is its list of d rational coordinates;
    products fold through mult_table and conjugates through conjugation,
    entry by entry.  With indeterminates every polynomial is first
    evaluated at the rational `point`, a ring map wherever u does not
    vanish, so agreement at a few points checks an identity of low degree.
    """

    def __init__(self, ctx, point=()):
        self.point = tuple(Fraction(v) for v in point)
        self.u = Fraction(polys.evaluate(ctx.denominator, self.point))
        self.table = [[self.vector(vec) for vec in row] for row in ctx.mult_table]
        self.conj = [self.vector(vec) for vec in ctx.conjugation]

    def vector(self, coords) -> list[Fraction]:
        """FScalar coordinates as Fractions."""
        return [Fraction(polys.evaluate(f.num, self.point)) / self.u**f.r for f in coords]

    def of(self, x) -> list[Fraction]:
        return self.vector(x.coords)

    @staticmethod
    def add(a, b):
        return [x + y for x, y in zip(a, b)]

    @staticmethod
    def sub(a, b):
        return [x - y for x, y in zip(a, b)]

    def mul(self, a, b):
        out = [Fraction(0)] * len(a)
        for i, x in enumerate(a):
            for k, y in enumerate(b):
                for j, c in enumerate(self.table[i][k]):
                    out[j] += x * y * c
        return out

    def conjugate(self, a):
        out = [Fraction(0)] * len(a)
        for i, x in enumerate(a):
            for j, c in enumerate(self.conj[i]):
                out[j] += x * c
        return out


def sqrt_a1_context():
    """Q(a1)(b) with b = 1/sqrt(a1) and u = a1: one indeterminate, and the
    table entry b*b = 1/u lies over a power of u."""
    one, zero = FScalar(polys.const(1, 1), 0), FScalar({}, 0)
    return AlgebraContext(
        ["a1"],
        ["1", "b"],
        [[(one, zero), (zero, one)], [(zero, one), (FScalar(polys.const(1, 1), 1), zero)]],
        polys.variable(1, 0),
        {"a1": [2.0, 0.0], "b": [2**-0.5, 0.0]},
        conjugation=[[one, zero], [zero, one]],
    )


def two_element_context_json(square: int, u: int, fourier_q: int) -> dict:
    """A context file with basis 1, b where b*b = square (b is numerically
    sqrt(square)), denominator u, and Fourier constants asked for q =
    fourier_q."""
    one, zero = {"num": [[1, []]], "r": 0}, {"num": [], "r": 0}
    b_squared = {"num": [[square, []]], "r": 0}
    return {
        "indeterminates": [],
        "basis": ["1", "b"],
        "mult_table": [[[one, zero], [zero, one]], [[zero, one], [b_squared, zero]]],
        "u": [[u, []]],
        "numeric": {"b": [math.sqrt(square), 0.0]},
        "fourier_q": fourier_q,
    }


# -- seeded circuit generator ----------------------------------------------------


PERMUTATION_KINDS = ("toffoli", "fanout", "mod", "addmod", "fanoutmod", "addblock")


def random_permutation_gate(rng, kind, q, lines):
    """A random permutation gate of `kind` (one of PERMUTATION_KINDS) on
    some of `lines`, in a random line order and with a random inverse
    flag, or None if they are too few.  A MOD gate is weighted half the
    time, each weight drawn from 1..2q."""
    lines = rng.sample(lines, len(lines))
    inverse = rng.random() < 0.5
    if kind in ("toffoli", "fanout", "mod"):
        low = 0 if kind == "toffoli" else 1
        if len(lines) < low + 1:
            return None
        many = rng.randint(low, len(lines) - 1)
        if kind == "toffoli":
            return ToffoliGate(tuple(lines[:many]), lines[many])
        if kind == "fanout":
            return FanOutGate(tuple(lines[:many]), lines[many])
        weights = tuple(rng.randint(1, 2 * q) for _ in range(many)) if rng.random() < 0.5 else ()
        return ModGate(q, rng.randrange(q), tuple(lines[:many]), lines[many], weights)
    w = cir.block_width(q)
    most = len(lines) // w
    if most < 2:
        return None
    n_blocks = 2 if kind == "addblock" else rng.randint(2, most)
    blocks = tuple(tuple(lines[i * w:(i + 1) * w]) for i in range(n_blocks))
    if kind == "addmod":
        return AddModGate(q, blocks[:-1], blocks[-1], inverse)
    if kind == "fanoutmod":
        return FanOutModGate(q, blocks[:-1], blocks[-1], inverse)
    return AddBlockGate(q, blocks[0], blocks[1], inverse)


def random_tensor_layer(rng: random.Random, lines: int, ctx) -> TensorLayer:
    avail = list(range(lines))
    rng.shuffle(avail)
    gates = []
    while avail:
        kind = rng.choice(("h", "x", "z", "tof", "fan", "skip"))
        if kind == "h":
            gates.append(cir.hadamard_gate(avail.pop()))
        elif kind == "x":
            gates.append(cir.x_gate(avail.pop()))
        elif kind == "z":
            minus = ctx.zero() - ctx.one()
            gates.append(
                OneQubitGate(((ctx.one(), ctx.zero()), (ctx.zero(), minus)), avail.pop())
            )
        elif kind == "tof" and len(avail) >= 2:
            k = rng.randint(1, min(2, len(avail) - 1))
            controls = tuple(avail.pop() for _ in range(k))
            gates.append(ToffoliGate(controls, avail.pop()))
        elif kind == "fan" and len(avail) >= 2:
            k = rng.randint(1, min(2, len(avail) - 1))
            targets = tuple(avail.pop() for _ in range(k))
            gates.append(FanOutGate(targets, avail.pop()))
        else:
            avail.pop()
    if not gates:
        gates.append(cir.hadamard_gate(rng.randrange(lines)))
    return cir.tensor_layer(*gates)


def random_cnot_layer(rng: random.Random, lines: int, separated: bool = False) -> CNotLayer:
    """Random disjoint pairs; separated=True keeps all pair endpoints at
    mutual distance >= 2 (the regime where a layer provably at most
    doubles the graph width)."""
    avail = list(range(lines))
    rng.shuffle(avail)
    pairs = []
    used: list[int] = []
    while len(avail) >= 2:
        a = avail.pop()
        b = avail.pop()
        if separated and any(abs(a - u) <= 1 or abs(b - u) <= 1 for u in used):
            continue
        if separated and abs(a - b) <= 1:
            continue
        pairs.append((a, b))
        used.extend((a, b))
        if rng.random() < 0.4:
            break
    if not pairs:
        pairs = [(0, lines - 1)] if lines >= 3 or not separated else [(0, 1)]
    return CNotLayer(tuple(sorted(pairs, key=min)))


def random_circuit(
    rng: random.Random,
    lines: int,
    n_layers: int,
    ctx,
    ensure_cnot_layer: bool = True,
    separated_pairs: bool = False,
):
    layers = []
    cnot_at = rng.randrange(n_layers) if ensure_cnot_layer else -1
    for i in range(n_layers):
        if i == cnot_at or (rng.random() < 0.25 and lines >= 2):
            layers.append(random_cnot_layer(rng, lines, separated=separated_pairs))
        else:
            layers.append(random_tensor_layer(rng, lines, ctx))
    return cir.Circuit(lines, 0, tuple(layers), ctx)


def random_bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def multiline_gate_count(c) -> int:
    count = 0
    for layer in c.layers:
        if isinstance(layer, TensorLayer):
            count += sum(1 for g in layer.gates if cir.is_multiline(g))
        elif isinstance(layer, CNotLayer):
            count += len(layer.pairs)
        elif isinstance(layer, StagedCNotLayer):
            count += sum(len(s) for s in layer.stages)
    return count


def dp_held_terms(g, target):
    """(most color terms the DP holds at once, terms in every node's final
    value), counted from scratch after each contribution: a node's value is
    held from its first contribution until its out-edges are processed,
    and the terminal's to the end.  A value is a dict {(colors, antis):
    nonzero scalar}."""
    held = {g.source: {tensorgraph.UNIT_PRODUCT: g.ctx.one()}}
    peak, every = 1, 0
    for node in tensorgraph._topo_nodes(g):
        value = held.get(node)
        if value is None:
            continue
        outs = [(dst, value) for dst in g.hout.get(node, ())]
        if node in g.vout:
            dst, product, a0, a1 = g.vout[node]
            amp = a0 if target[g.nodes[dst] - 1] == "0" else a1
            if not amp.is_zero():
                products = {p: tensorgraph.times(p, product) for p in value}
                term = {pq: value[p] * amp for p, pq in products.items() if pq is not None}
                outs.append((dst, term))
        for dst, term in outs:
            total = dict(held.get(dst, {}))
            for p, s in term.items():
                total[p] = total[p] + s if p in total else s
            held[dst] = {p: s for p, s in total.items() if not s.is_zero()}
            peak = max(peak, sum(map(len, held.values())))
        every += len(value)
        if node != g.terminal:
            del held[node]
    return peak, every


# -- mutant corpus ----------------------------------------------------------------


def mutants(circuit):
    """(label, layers) for each one-edit mutant of `circuit`, in a fixed
    order: per layer, per gate, drop it; flip its `inverse`; drop the last
    fan-out target, Toffoli control or F_q block; move a MOD gate's r to
    (r + 1) mod q.  Per controlled-not pair, drop it.  A layer left empty
    stays in place."""
    layers = circuit.layers
    for i, layer in enumerate(layers):

        def at(new_layer, i=i):
            return layers[:i] + (new_layer,) + layers[i + 1:]

        if isinstance(layer, TensorLayer):
            gates = layer.gates
            for j, g in enumerate(gates):
                edits = [("drop", None)]
                if isinstance(g, (AddModGate, FanOutModGate, FourierGate, AddBlockGate)):
                    edits.append(("inverse", replace(g, inverse=not g.inverse)))
                if isinstance(g, FanOutGate) and g.targets:
                    edits.append(("drop target", replace(g, targets=g.targets[:-1])))
                if isinstance(g, ToffoliGate) and g.controls:
                    edits.append(("drop control", replace(g, controls=g.controls[:-1])))
                if isinstance(g, FanOutModGate) and g.blocks:
                    edits.append(("drop block", replace(g, blocks=g.blocks[:-1])))
                if isinstance(g, ModGate):
                    edits.append(("r+1", replace(g, r=(g.r + 1) % g.q)))
                for rule, new in edits:
                    kept = gates[:j] + ((new,) if new is not None else ()) + gates[j + 1:]
                    yield f"layer {i} gate {j} {rule}", at(TensorLayer(kept))
        elif isinstance(layer, CNotLayer):
            for j in range(len(layer.pairs)):
                kept = layer.pairs[:j] + layer.pairs[j + 1:]
                yield f"layer {i} pair {j} drop", at(CNotLayer(kept))
        else:
            stages = layer.stages
            for s, stage in enumerate(stages):
                for j in range(len(stage)):
                    kept = stages[:s] + (stage[:j] + stage[j + 1:],) + stages[s + 1:]
                    yield f"layer {i} stage {s} pair {j} drop", at(StagedCNotLayer(kept))
