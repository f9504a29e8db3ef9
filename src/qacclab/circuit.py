"""Layered circuit IR for the QACC gate set.

Lines are indexed 0..width-1 and gates carry explicit line lists, so a
layer is a genuine Kronecker product with no unspoken permutations; wire
crossings only ever happen through controlled-not layers.  Block gates
(q-ary modular add, q-ary fan-out, the q-ary Fourier gate, and the
block-add transform) address ceil(log2 q)-bit registers; register values
>= q ("non-qudigit" states) and control registers >= q are left fixed,
which keeps every block gate unitary as a direct sum.

Basis states are ints whose binary expansion, read most significant bit
first, lists line 0 first.

A Circuit is well formed by construction: making one runs validate and
raises ValidationError with its diagnostics, so no engine validates again.

Every engine shares two budgets, and going past either raises
CapExceededError.  The memory budget, BUDGET, bounds the items held at
once: basis states in a state vector, nodes in a tensor graph, the lines
of a circuit that runs (checked before any key or graph is built) and the
gate lines of a built circuit.  The work budget, WORK, bounds the units
one operation spends, charged to a Work meter where the work is done:
key-gate applications in a state-vector run, path steps in a path sum and
enumerated inputs in an equivalence check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Union

from .algebra import AlgebraContext, ContextError, ExactScalar


BUDGET = 1 << 20
WORK = 1 << 24


class CapExceededError(RuntimeError):
    """A run would go past the memory budget or the work budget."""


class Work:
    """The work meter of one operation: `left` of its WORK units remain."""

    __slots__ = ("left",)

    def __init__(self):
        self.left = WORK

    def charge(self, units: int, what: str) -> None:
        self.left -= units
        if self.left < 0:
            raise CapExceededError(f"{what} exceeds the work budget of {WORK} units")


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
    """Flips the output bit iff the input bit-sum is congruent to r mod q."""

    q: int
    r: int
    inputs: tuple[int, ...]
    output: int

    def lines(self):
        return self.inputs + (self.output,)


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
        if not g.inputs:
            out.append(Diagnostic(idx, "MOD gate needs at least one input"))
    if isinstance(g, AddModGate):
        out.extend(_block_diagnostics(g.blocks + (g.result,), g.q, idx))
    if isinstance(g, FanOutModGate):
        out.extend(_block_diagnostics(g.blocks + (g.control,), g.q, idx))
    if isinstance(g, FourierGate):
        out.extend(_block_diagnostics((g.block,), g.q, idx))
        try:
            ctx.fourier_scalars(g.q)
        except ContextError as exc:
            out.append(Diagnostic(idx, str(exc)))
    if isinstance(g, AddBlockGate):
        out.extend(_block_diagnostics((g.addend, g.result), g.q, idx))
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
    if ctx.conjugation is not None:
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
    vals = [[m[i][j].numeric() for j in range(2)] for i in range(2)]
    for i in range(2):
        for j in range(2):
            entry = sum(vals[i][k] * vals[j][k].conjugate() for k in range(2))
            if abs(entry - (1 if i == j else 0)) > 1e-9:
                return [Diagnostic(idx, "one-qubit matrix is not unitary (numeric)")]
    return []


def check_width(c: Circuit) -> None:
    """A basis key holds one bit per line: a circuit wider than BUDGET
    lines exceeds the memory budget before any key or graph is built."""
    if c.width > BUDGET:
        raise CapExceededError(f"{c.width} lines exceed the memory budget {BUDGET}")


# -- basis-state helpers -----------------------------------------------------


def line_mask(line: int, width: int) -> int:
    """The key bit of `line`."""
    return 1 << (width - 1 - line)


def lines_mask(lines: Iterable[int], width: int) -> int:
    mask = 0
    for l in lines:
        mask |= line_mask(l, width)
    return mask


def read_block(key: int, block: tuple[int, ...], width: int) -> int:
    v = 0
    for l in block:
        v = (v << 1) | ((key >> (width - 1 - l)) & 1)
    return v


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
    """Entry v holds the key bits that spell value v in the block."""
    codes = [0]
    for l in reversed(block):
        m = line_mask(l, width)
        codes += [c | m for c in codes]
    return codes


def _digit_reader(block, width: int, q: int, sign: int):
    """(block mask, table: block bits -> sign * value mod q), where a
    non-qudigit value reads as 0."""
    codes = block_codes(block, width)
    return codes[-1], {c: (sign * v) % q if v < q else 0 for v, c in enumerate(codes)}


def _digit_adder(block, width: int, q: int):
    """(block mask, table: block bits -> the bits after adding d, at index
    d for d in 0..q-1), where a non-qudigit value is left unchanged."""
    codes = block_codes(block, width)
    return codes[-1], {
        c: tuple(codes[(v + d) % q] for d in range(q)) if v < q else (c,) * q
        for v, c in enumerate(codes)
    }


def _modular_add(blocks, result, q: int, inverse: bool, width: int) -> Callable[[int], int]:
    digits = tuple(_digit_reader(b, width, q, -1 if inverse else 1) for b in blocks)
    rmask, shifted = _digit_adder(result, width, q)
    keep = ~rmask

    def act(k):
        d = 0
        for m, digit in digits:
            d += digit[k & m]
        return k & keep | shifted[k & rmask][d % q]

    return act


def _modular_fanout(g: FanOutModGate, width: int) -> Callable[[int], int]:
    cmask, control = _digit_reader(g.control, width, g.q, -1 if g.inverse else 1)
    targets = tuple(
        (m, ~m, shifted) for m, shifted in (_digit_adder(b, width, g.q) for b in g.blocks)
    )

    def act(k):
        d = control[k & cmask]
        if d:
            for m, keep, shifted in targets:
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
        m, o, q, r = lines_mask(g.inputs, width), line_mask(g.output, width), g.q, g.r
        return lambda k: k ^ o if (k & m).bit_count() % q == r else k
    if isinstance(g, AddModGate):
        return _modular_add(g.blocks, g.result, g.q, g.inverse, width)
    if isinstance(g, AddBlockGate):
        return _modular_add((g.addend,), g.result, g.q, g.inverse, width)
    if isinstance(g, FanOutModGate):
        return _modular_fanout(g, width)
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
        elif isinstance(layer, CNotLayer):
            multi += len(layer.pairs)
            gate_count += len(layer.pairs)
        elif isinstance(layer, StagedCNotLayer):
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
