"""Layered circuit IR for the QACC gate set.

Lines are indexed 0..width-1 and gates carry explicit line lists, so a
layer is a genuine Kronecker product with no unspoken permutations; wire
crossings only ever happen through controlled-not layers.  Block gates
address ceil(log2 q)-bit registers: the q-ary Fourier gate one, and the
q-ary modular add, q-ary fan-out and block-add transform add the digit
sum mod q of their source blocks into each destination (block_roles).  A
value >= q ("non-qudigit") reads as 0 and is left fixed, which keeps
every block gate unitary as a direct sum.

Basis states are ints whose binary expansion, read most significant bit
first, lists line 0 first.

A Circuit is well formed by construction: making one runs validate and
raises ValidationError with its diagnostics, so no engine validates again.

Every engine shares the two budgets of the `budget` module, BUDGET (items
held at once) and WORK (units one operation spends); going past either
raises CapExceededError.  Here BUDGET bounds the per-value tables a gate
kernel is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Union

from .algebra import AlgebraContext, ContextError, ExactScalar
from . import budget
from .budget import CapExceededError


class ValidationError(ValueError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass(frozen=True)
class Diagnostic:
    layer: int | None
    message: str

    def __str__(self):
        where = "circuit" if self.layer is None else f"layer {self.layer}"
        return f"{where}: {self.message}"


def block_width(q: int) -> int:
    return max(1, math.ceil(math.log2(q)))


# -- gates -------------------------------------------------------------------


@dataclass(frozen=True)
class OneQubitGate:
    matrix: tuple  # ((m00, m01), (m10, m11)) of ExactScalar, column = input
    line: int

    def lines(self):
        return (self.line,)


@dataclass(frozen=True)
class ToffoliGate:
    """m-controlled X; zero controls is a plain X, one control a CNot."""

    controls: tuple[int, ...]
    target: int

    def lines(self):
        return self.controls + (self.target,)


@dataclass(frozen=True)
class FanOutGate:
    """XORs the control bit onto every target bit, control unchanged."""

    targets: tuple[int, ...]
    control: int

    def lines(self):
        return self.targets + (self.control,)


@dataclass(frozen=True)
class ModGate:
    """Flips the output bit iff the input bit-sum is congruent to r mod q;
    input i counts weights[i] times, and every input once when weights is
    empty."""

    q: int
    r: int
    inputs: tuple[int, ...]
    output: int
    weights: tuple[int, ...] = ()

    def lines(self):
        return self.inputs + (self.output,)

    def input_weights(self) -> tuple[int, ...]:
        return self.weights or (1,) * len(self.inputs)


@dataclass(frozen=True)
class AddModGate:
    """Adds the sum of the qudigit blocks into the result block, mod q."""

    q: int
    blocks: tuple[tuple[int, ...], ...]
    result: tuple[int, ...]
    inverse: bool = False

    def lines(self):
        return tuple(l for b in self.blocks for l in b) + self.result


@dataclass(frozen=True)
class FanOutModGate:
    """Adds the control qudigit into every target block, mod q."""

    q: int
    blocks: tuple[tuple[int, ...], ...]
    control: tuple[int, ...]
    inverse: bool = False

    def lines(self):
        return tuple(l for b in self.blocks for l in b) + self.control


@dataclass(frozen=True)
class FourierGate:
    """q-ary Fourier transform on one block; fixes values >= q."""

    q: int
    block: tuple[int, ...]
    inverse: bool = False

    def lines(self):
        return self.block


@dataclass(frozen=True)
class AddBlockGate:
    """Adds the addend block into the result block mod q (both qudigits)."""

    q: int
    addend: tuple[int, ...]
    result: tuple[int, ...]
    inverse: bool = False

    def lines(self):
        return self.addend + self.result


Gate = Union[
    OneQubitGate,
    ToffoliGate,
    FanOutGate,
    ModGate,
    AddModGate,
    FanOutModGate,
    FourierGate,
    AddBlockGate,
]


def block_roles(g: Gate) -> tuple[tuple, tuple]:
    """(sources, destinations) of a q-ary block gate: it adds the digit sum
    of its source blocks (negated when inverse) into each destination, mod q."""
    if isinstance(g, AddModGate):
        return g.blocks, (g.result,)
    if isinstance(g, AddBlockGate):
        return (g.addend,), (g.result,)
    if isinstance(g, FanOutModGate):
        return (g.control,), g.blocks
    raise TypeError(f"{type(g).__name__} is not a block gate")


# -- layers ------------------------------------------------------------------


@dataclass(frozen=True)
class TensorLayer:
    gates: tuple[Gate, ...]


def tensor_layer(*gates: Gate) -> TensorLayer:
    """Tensor layer in canonical order (gates sorted by lowest line)."""
    return TensorLayer(tuple(sorted(gates, key=lambda g: min(g.lines()))))


@dataclass(frozen=True)
class CNotLayer:
    """Simultaneous controlled-nots between disjoint (control, target) pairs."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def stages(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The layer as one stage, read like a StagedCNotLayer's stages."""
        return (self.pairs,)


@dataclass(frozen=True)
class StagedCNotLayer:
    """Log-depth controlled-not layer: ordered stages of span-disjoint pairs."""

    stages: tuple[tuple[tuple[int, int], ...], ...]


Layer = Union[TensorLayer, CNotLayer, StagedCNotLayer]


@dataclass(frozen=True)
class Circuit:
    """A validated circuit: construction raises ValidationError when
    validate reports any diagnostic."""

    n_inputs: int
    n_aux: int
    layers: tuple[Layer, ...]
    context: AlgebraContext

    def __post_init__(self):
        diags = validate(self)  # the module global, so a wrapper of validate sees it
        if diags:
            raise ValidationError(diags)

    @property
    def width(self) -> int:
        return self.n_inputs + self.n_aux


# -- validation --------------------------------------------------------------


def validate(c: Circuit) -> list[Diagnostic]:
    """Structural diagnostics; empty list means the circuit is well formed."""
    out: list[Diagnostic] = []
    width = c.width
    if c.n_inputs < 0 or c.n_aux < 0:
        out.append(Diagnostic(None, "negative line counts"))
    for idx, layer in enumerate(c.layers):
        if isinstance(layer, TensorLayer):
            seen: dict[int, int] = {}
            for g in layer.gates:
                out.extend(_gate_diagnostics(g, idx, width, c.context))
                # in a circuit only (a target may have none); a refused q ends the list
                if isinstance(g, ModGate) and not g.inputs and g.q >= 2:
                    out.append(Diagnostic(idx, "MOD gate needs at least one input"))
                for l in g.lines():
                    if l in seen:
                        out.append(Diagnostic(idx, f"overlap on line {l}"))
                    seen[l] = 1
        elif isinstance(layer, CNotLayer):
            out.extend(_pair_diagnostics(layer.pairs, idx, width))
        elif isinstance(layer, StagedCNotLayer):
            for stage in layer.stages:
                out.extend(_pair_diagnostics(stage, idx, width))
                spans = sorted((min(p), max(p)) for p in stage)
                for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
                    if a2 <= b1:
                        out.append(
                            Diagnostic(idx, f"stage spans [{a1},{b1}] and [{a2},{b2}] overlap")
                        )
        else:
            out.append(Diagnostic(idx, f"unknown layer kind {type(layer).__name__}"))
    return out


def _pair_diagnostics(pairs, idx, width):
    out = []
    seen: set[int] = set()
    for ctrl, tgt in pairs:
        if ctrl == tgt:
            out.append(Diagnostic(idx, f"pair ({ctrl},{tgt}) is degenerate"))
        for l in (ctrl, tgt):
            if not 0 <= l < width:
                out.append(Diagnostic(idx, f"line {l} out of range"))
            if l in seen:
                out.append(Diagnostic(idx, f"non-disjoint pairs at line {l}"))
            seen.add(l)
    return out


def _gate_diagnostics(g: Gate, idx: int, width: int, ctx) -> list[Diagnostic]:
    out = []
    lines = g.lines()
    for l in lines:
        if not 0 <= l < width:
            out.append(Diagnostic(idx, f"line {l} out of range"))
    if len(set(lines)) != len(lines):
        out.append(Diagnostic(idx, f"{type(g).__name__} reuses a line"))
    if isinstance(g, (ModGate, AddModGate, FanOutModGate, FourierGate, AddBlockGate)):
        if g.q < 2:
            out.append(Diagnostic(idx, f"q={g.q} must be at least 2"))
            return out
    if isinstance(g, ModGate):
        if not 0 <= g.r < g.q:
            out.append(Diagnostic(idx, f"residue r={g.r} out of range for q={g.q}"))
        w = g.weights
        if not isinstance(w, tuple) or w and (
            len(w) != len(g.inputs) or not all(type(x) is int and x > 0 for x in w)
        ):
            out.append(
                Diagnostic(idx, f"MOD gate weights {w!r} are not one positive int per input")
            )
    if isinstance(g, (AddModGate, FanOutModGate, AddBlockGate)):
        sources, destinations = block_roles(g)
        out.extend(_block_diagnostics(sources + destinations, g.q, idx))
    if isinstance(g, FourierGate):
        out.extend(_block_diagnostics((g.block,), g.q, idx))
        try:
            ctx.fourier_scalars(g.q)
        except ContextError as exc:
            out.append(Diagnostic(idx, str(exc)))
    if isinstance(g, OneQubitGate):
        out.extend(_unitarity_diagnostics(g, idx, ctx))
    return out


def _block_diagnostics(blocks, q, idx):
    w = block_width(q)
    return [
        Diagnostic(idx, f"block {b} must have exactly {w} lines for q={q}")
        for b in blocks
        if len(b) != w
    ]


def _unitarity_diagnostics(g: OneQubitGate, idx: int, ctx) -> list[Diagnostic]:
    m = g.matrix
    if len(m) != 2 or any(len(row) != 2 for row in m):
        return [Diagnostic(idx, "one-qubit matrix must be 2x2")]
    if ctx.conjugation is None:
        return [Diagnostic(idx, "a one-qubit gate needs a context with a conjugation")]
    for i in range(2):
        for j in range(2):
            entry = sum(
                (m[i][k] * m[j][k].conjugate() for k in range(2)),
                start=ctx.zero(),
            )
            want = ctx.one() if i == j else ctx.zero()
            if not (entry - want).is_zero():
                return [Diagnostic(idx, "one-qubit matrix is not unitary")]
    return []


# -- basis-state helpers -----------------------------------------------------


def line_mask(line: int, width: int) -> int:
    """The key bit of `line`."""
    return 1 << (width - 1 - line)


def lines_mask(lines: Iterable[int], width: int) -> int:
    mask = 0
    for l in lines:
        mask |= line_mask(l, width)
    return mask


def key_to_bits(key: int, width: int) -> str:
    return format(key, f"0{width}b") if width else ""


def parse_bits(bits: str, width: int) -> int:
    """The basis key spelled by `bits`, which must be exactly `width`
    characters, each 0 or 1 (line 0 first)."""
    if len(bits) != width or bits.strip("01"):
        raise ValidationError(
            [Diagnostic(None, f"basis state {bits!r} must be {width} characters, each 0 or 1")]
        )
    return int(bits, 2) if bits else 0


# -- gate action -------------------------------------------------------------
#
# Gates act on basis keys through kernels built once per gate and width
# from bit masks and per-block tables.  A block table has one entry per
# value of the block's bits (2^len(block) entries), never one per key.


def block_codes(block: tuple[int, ...], width: int) -> list[int]:
    """Entry v holds the key bits that spell value v in the block.  A
    block with more than BUDGET values exceeds the memory budget before
    any entry is built."""
    budget.hold(1 << len(block), f"values of a {len(block)}-line block")
    codes = [0]
    for l in reversed(block):
        m = line_mask(l, width)
        codes += [c | m for c in codes]
    return codes


def _read_digit(v: int, q: int, sign: int) -> int:
    """The digit block value v reads as: sign * v mod q, or 0 for a
    non-qudigit value."""
    return (sign * v) % q if v < q else 0


def _add_digit(v: int, d: int, q: int) -> int:
    """Block value v after adding digit d: v + d mod q, or v unchanged for
    a non-qudigit value."""
    return (v + d) % q if v < q else v


def _modular_add(g: Gate, width: int) -> Callable[[int], int]:
    """The key map of every block gate (block_roles)."""
    sources, destinations = block_roles(g)
    q, sign = g.q, -1 if g.inverse else 1
    reads = []  # (block mask, table: block bits -> the digit they read as)
    for b in sources:
        codes = block_codes(b, width)
        reads.append((codes[-1], {c: _read_digit(v, q, sign) for v, c in enumerate(codes)}))
    adds = []  # (block mask, its complement, table: block bits -> their sums with 0..q-1)
    for b in destinations:
        budget.hold(q << len(b), f"modular-add codes of a {len(b)}-line block mod {q}")
        codes = block_codes(b, width)
        sums = [tuple(codes[_add_digit(v, d, q)] for d in range(q)) for v in range(len(codes))]
        adds.append((codes[-1], ~codes[-1], dict(zip(codes, sums))))

    def act(k):
        d = 0
        for m, digit in reads:
            d += digit[k & m]
        d %= q
        if d:
            for m, keep, shifted in adds:
                k = k & keep | shifted[k & m][d]
        return k

    return act


def permutation_action(g: Gate, width: int) -> Callable[[int], int] | None:
    """Basis-permutation map for the permutation gates, None for the rest."""
    if isinstance(g, ToffoliGate):
        c, t = lines_mask(g.controls, width), line_mask(g.target, width)
        return lambda k: k ^ t if k & c == c else k
    if isinstance(g, FanOutGate):
        c, t = line_mask(g.control, width), lines_mask(g.targets, width)
        return lambda k: k ^ t if k & c else k
    if isinstance(g, ModGate):
        masks: dict[int, int] = {}  # weight -> the key bits of its inputs
        for l, w in zip(g.inputs, g.input_weights()):
            masks[w] = masks.get(w, 0) | line_mask(l, width)
        pairs, o, q, r = tuple(masks.items()), line_mask(g.output, width), g.q, g.r
        return lambda k: k ^ o if sum(w * (k & m).bit_count() for w, m in pairs) % q == r else k
    if isinstance(g, (AddModGate, FanOutModGate, AddBlockGate)):
        return _modular_add(g, width)
    return None


def cnot_action(pairs, width: int) -> Callable[[int], int]:
    """Basis map of simultaneous controlled-nots: controls are read from the
    incoming key."""
    masks = tuple((line_mask(c, width), line_mask(t, width)) for c, t in pairs)

    def act(k):
        flips = 0
        for c, t in masks:
            if k & c:
                flips ^= t
        return k ^ flips

    return act


# -- column form ---------------------------------------------------------------
#
# The permutation gates above, run on many inputs at once (bitslicing):
# cols[l] is one int per line whose bit i is line l's value on input i, and
# `ones` has the bit of every input set.  Each form below restates its key
# map above in exact boolean operations, one branch again for the three
# adding block gates; the tests pin the two forms to each other on every key.


def _value_columns(block, cols: list, ones: int) -> list[int]:
    """Entry v is the column of the inputs on which the block holds value
    v (its first line the most significant bit)."""
    budget.hold(1 << len(block), f"values of a {len(block)}-line block")
    values = [ones]
    for l in block:
        c, nc = cols[l], ones ^ cols[l]
        values = [v for m in values for v in (m & nc, m & c)]
    return values


def _digit_columns(block, cols: list, ones: int, q: int, sign: int) -> list[int]:
    """Entry d is the column of the inputs on which the block reads as
    digit d (_read_digit)."""
    digits = [0] * q
    for v, m in enumerate(_value_columns(block, cols, ones)):
        digits[_read_digit(v, q, sign)] |= m
    return digits


def _sum_digits(a: list[int], b: list[int], q: int) -> list[int]:
    """The digit columns of a + b mod q, from those of a and b."""
    out = [0] * q
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[(i + j) % q] |= x & y
    return out


def _add_columns(block, digits: list[int], cols: list, ones: int, q: int) -> None:
    """Add the digit given by its columns into the block (_add_digit)."""
    budget.hold(q << len(block), f"modular-add codes of a {len(block)}-line block mod {q}")
    sums = [0] * (1 << len(block))
    for v, m in enumerate(_value_columns(block, cols, ones)):
        if m:
            for d, dm in enumerate(digits):
                sums[_add_digit(v, d, q)] |= m & dm
    for i, l in enumerate(block):
        bit = 1 << (len(block) - 1 - i)
        col = 0
        for v, m in enumerate(sums):
            if v & bit:
                col |= m
        cols[l] = col


def permutation_columns(g: Gate, cols: list, ones: int) -> None:
    """Apply permutation gate g to every input's columns, in place: the
    column form of permutation_action."""
    if isinstance(g, ToffoliGate):
        c = ones
        for l in g.controls:
            c &= cols[l]
        cols[g.target] ^= c
    elif isinstance(g, FanOutGate):
        c = cols[g.control]
        for t in g.targets:
            cols[t] ^= c
    elif isinstance(g, ModGate):
        # counts[j]: the inputs whose weighted bit sum so far is j mod q;
        # weights that total s leave at most s + 1 sums.  An input of weight
        # w moves the counts of the inputs it is set on up by w: counts[j - w]
        # wraps mod q when all q are kept, else it reads a sum not reached yet
        weights = g.input_weights()
        counts = [ones] + [0] * min(g.q - 1, sum(weights))
        for l, w in zip(g.inputs, weights):
            x, w = cols[l], w % g.q
            counts = [m ^ ((m ^ counts[j - w]) & x) for j, m in enumerate(counts)]
        if g.r < len(counts):
            cols[g.output] ^= counts[g.r]
    elif isinstance(g, (AddModGate, FanOutModGate, AddBlockGate)):
        sources, destinations = block_roles(g)
        sign = -1 if g.inverse else 1
        total = [ones] + [0] * (g.q - 1)
        for b in sources:
            total = _sum_digits(total, _digit_columns(b, cols, ones, g.q, sign), g.q)
        for b in destinations:
            _add_columns(b, total, cols, ones, g.q)
    else:
        raise TypeError(f"{type(g).__name__} is not a permutation gate")


def run_columns(layers, cols: list, ones: int) -> None:
    """Run permutation layers on every input's columns, in place; a
    controlled-not stage's pairs are disjoint, so each reads its control
    before any target changes."""
    for layer in layers:
        if isinstance(layer, TensorLayer):
            for g in layer.gates:
                permutation_columns(g, cols, ones)
        else:
            for stage in layer.stages:
                for c, t in stage:
                    cols[t] ^= cols[c]


def fourier_columns(g: FourierGate, ctx) -> list[list[tuple[int, ExactScalar]]]:
    """Column v of the block matrix as (output value, scalar) pairs."""
    zeta, invsq = ctx.fourier_scalars(g.q)
    q = g.q
    scaled = [invsq * z for z in zeta]  # entry e is invsq * zeta^e
    sign = -1 if g.inverse else 1
    return [
        [(y, scaled[sign * v * y % q]) for y in range(q)] if v < q else [(v, ctx.one())]
        for v in range(1 << block_width(q))
    ]


def gate_columns(g: Gate, width: int, ctx) -> tuple[int, dict]:
    """(mask, table) of a one-qubit or Fourier gate: the mask of its lines'
    bits in a key, and for each value of those bits the (bits, scalar)
    pairs its column sends them to, zero entries left out."""
    if isinstance(g, OneQubitGate):
        codes = (0, line_mask(g.line, width))
        columns = [
            [(codes[y], g.matrix[y][b]) for y in (0, 1) if not g.matrix[y][b].is_zero()]
            for b in (0, 1)
        ]
    elif isinstance(g, FourierGate):
        codes = block_codes(g.block, width)
        columns = [[(codes[y], s) for y, s in col] for col in fourier_columns(g, ctx)]
    else:
        raise TypeError(f"unknown gate {type(g).__name__}")
    return codes[-1], {c: tuple(col) for c, col in zip(codes, columns)}


def gate_kernel(g: Gate, width: int, ctx) -> Callable[[int], list]:
    """Map from a basis key to the list of (basis key, scalar or None) the
    gate sends it to, built once for the gate.

    A None scalar marks an amplitude carried over unchanged, which keeps
    permutation gates free of scalar arithmetic.
    """
    perm = permutation_action(g, width)
    if perm is not None:
        return lambda k: [(perm(k), None)]
    mask, table = gate_columns(g, width, ctx)
    keep = ~mask
    return lambda k: [(k & keep | bits, s) for bits, s in table[k & mask]]


def apply_gate_to_basis(g: Gate, key: int, width: int, ctx):
    """List of (basis key, scalar or None) the gate sends |key> to; a
    one-off use of gate_kernel."""
    return gate_kernel(g, width, ctx)(key)


# -- inversion ---------------------------------------------------------------


def inverse_gate(g: Gate) -> Gate:
    if isinstance(g, OneQubitGate):
        m = g.matrix
        conj = [[m[j][i].conjugate() for j in range(2)] for i in range(2)]
        return OneQubitGate((tuple(conj[0]), tuple(conj[1])), g.line)
    if isinstance(g, (ToffoliGate, FanOutGate, ModGate)):
        return g
    if isinstance(g, (AddModGate, FanOutModGate, FourierGate, AddBlockGate)):
        return replace(g, inverse=not g.inverse)
    raise TypeError(f"unknown gate {type(g).__name__}")


def inverse_layer(layer: Layer) -> Layer:
    if isinstance(layer, TensorLayer):
        return TensorLayer(tuple(inverse_gate(g) for g in layer.gates))
    if isinstance(layer, CNotLayer):
        return layer
    if isinstance(layer, StagedCNotLayer):
        return StagedCNotLayer(tuple(reversed(layer.stages)))
    raise TypeError(f"unknown layer {type(layer).__name__}")


def inverse_circuit(c: Circuit) -> Circuit:
    return Circuit(
        c.n_inputs,
        c.n_aux,
        tuple(inverse_layer(layer) for layer in reversed(c.layers)),
        c.context,
    )


# -- reporting helpers -------------------------------------------------------


def is_multiline(g: Gate) -> bool:
    return not isinstance(g, OneQubitGate)


def circuit_stats(c: Circuit) -> dict:
    """Reported metadata: gate counts and distinct one-qubit gate types."""
    multi = 0
    onequbit_kinds = set()
    gate_count = 0
    for layer in c.layers:
        if isinstance(layer, TensorLayer):
            for g in layer.gates:
                gate_count += 1
                if is_multiline(g):
                    multi += 1
                else:
                    onequbit_kinds.add(g.matrix)
        elif isinstance(layer, (CNotLayer, StagedCNotLayer)):
            n = sum(len(s) for s in layer.stages)
            multi += n
            gate_count += n
    return {
        "layers": len(c.layers),
        "gates": gate_count,
        "multi_line_gates": multi,
        "distinct_one_qubit_gates": len(onequbit_kinds),
        "lines": c.width,
    }


# -- convenience constructors --------------------------------------------------


def x_gate(line: int) -> ToffoliGate:
    return ToffoliGate((), line)


def cnot_gate(control: int, target: int) -> ToffoliGate:
    return ToffoliGate((control,), target)


def hadamard_gate(line: int) -> FourierGate:
    """The Hadamard is the binary Fourier gate on a single line."""
    return FourierGate(2, (line,))


def one_qubit(ctx, entries, line: int) -> OneQubitGate:
    """2x2 gate from ints/Fractions/ExactScalars."""
    rows = []
    for row in entries:
        cells = []
        for e in row:
            if isinstance(e, ExactScalar):
                cells.append(e)
            elif isinstance(e, Fraction):
                cells.append(ctx.scalar_from_rational(e))
            else:
                cells.append(ctx.from_int(e))
        rows.append(tuple(cells))
    return OneQubitGate(tuple(rows), line)
