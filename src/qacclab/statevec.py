"""Brute-force exact simulator and the E/N/B acceptance predicates.

States are sparse maps from basis keys to exact scalars; amplitudes that
become exactly zero are pruned eagerly.  A Circuit is validated when it
is made, so nothing here validates again.  A circuit runs through one
compile step: a Compiler builds every gate's kernel once from bit masks,
and makes Programs of any run of layers, fusing each maximal run of
permutation gates and controlled-not layers into a single key map.  A
Program runs any number of inputs; run, apply_layer and the equivalence
checker, which compiles a candidate's layers, their inverses and its
target with one Compiler, all go through it.  Permutation steps move keys
with no scalar arithmetic; only one-qubit and Fourier gates touch the algebra.
Each of their entries s is compiled once into a multiplier
(scalars.multiplier), so a branching step adds every product into its
output key's slot as integer numerators over one power of u and builds
one scalar per nonzero slot, not one per product or partial sum.

Both budgets raise CapExceededError.  The memory budget: a run's width is
at most circuit.BUDGET lines, and before a one-qubit or Fourier step runs,
support x 2^(lines of the gate) must be at most circuit.BUDGET.
Permutation steps map keys one-to-one, so they never grow the support.
The work budget: each step charges the run's Work meter, before it runs,
its support times its cost in key-gate applications: the number of key
maps a fused permutation run fuses (one per permutation gate or
controlled-not stage), or a branching step's fan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import ExactScalar
from .algebra.scalars import apply_rows, from_numerators, multiplier
from . import circuit as cir
from .circuit import (
    CapExceededError,
    Circuit,
    CNotLayer,
    Layer,
    StagedCNotLayer,
    TensorLayer,
    Work,
    check_width,
    cnot_action,
    gate_columns,
    key_to_bits,
    parse_bits,
    permutation_action,
)


class AcceptanceError(RuntimeError):
    pass


@dataclass(frozen=True)
class StateVector:
    entries: dict  # basis key -> ExactScalar, no exact zeros stored
    width: int
    context: object

    def amplitude_of(self, key) -> ExactScalar:
        if isinstance(key, str):
            key = parse_bits(key, self.width)
        return self.entries.get(key, self.context.zero())

    def support(self) -> list[int]:
        return sorted(self.entries)

    def to_json(self) -> list:
        out = []
        for key in sorted(self.entries):
            amp = self.entries[key]
            approx = amp.numeric()
            out.append(
                {
                    "basis": key_to_bits(key, self.width),
                    "amplitude": amp.to_json(),
                    "approx": [approx.real, approx.imag],
                }
            )
        return out


def basis_state(bits: str, ctx) -> StateVector:
    return StateVector({parse_bits(bits, len(bits)): ctx.one()}, len(bits), ctx)


@dataclass(frozen=True)
class Program:
    """A circuit compiled for repeated runs: each (step, cost) pair maps a
    sparse state (basis key -> amplitude) to the next, at cost key-gate
    applications per basis state."""

    steps: tuple

    def apply(self, entries: dict, work: Work) -> dict:
        left = work.left
        for step, cost in self.steps:
            left -= len(entries) * cost
            if left < 0:
                work.left = left
                work.charge(0, "a state-vector run")  # raises: the meter is spent
            entries = step(entries)
        work.left = left
        return entries


def _fuse(maps: list):
    if len(maps) == 1:
        return maps[0]
    maps = tuple(maps)

    def fused(key):
        for f in maps:
            key = f(key)
        return key

    return fused


def _permute(key_map):
    return lambda entries: {key_map(key): amp for key, amp in entries.items()}


def _branch(mask: int, table: dict, fan: int, ctx):
    """A step that sends each key to at most `fan` keys: table[key & mask]
    lists the (bits, multiplier) pairs of the gate's column.  Each product
    is added, as numerators, into its output key's [numerators, r] slot,
    whose r is the largest of its terms' (the alignment _combine makes);
    one reduced scalar is built per nonzero slot at the end, so the order
    the products arrive in does not change the form."""
    keep = ~mask
    dim, zero, mul = ctx.dim, ctx.num_zero, ctx.num_mul

    def step(entries):
        if len(entries) * fan > cir.BUDGET:
            raise CapExceededError(
                f"{len(entries)} basis states x {fan} branches exceed the memory budget "
                f"{cir.BUDGET}"
            )
        slots: dict = {}
        for key, amp in entries.items():
            rest, nums, r = key & keep, amp.nums, amp.r
            for bits, (t, rows) in table[key & mask]:
                out, rt = rest | bits, r + t
                slot = slots.get(out)
                if slot is None:
                    slot = slots[out] = [[zero] * dim, rt]
                acc, rs = slot
                terms = nums
                if rt < rs:
                    up = ctx.u_power(rs - rt)
                    terms = [mul(n, up) for n in nums]
                elif rt > rs:
                    up = ctx.u_power(rt - rs)
                    acc[:] = [mul(n, up) for n in acc]
                    slot[1] = rt
                apply_rows(ctx, terms, rows, acc)
        return {
            out: from_numerators(ctx, acc, r) for out, (acc, r) in slots.items() if any(acc)
        }

    return step


class Compiler:
    """Compiles layers on `width` lines of one context into Programs.  Each
    gate's kernel is built once, so programs made from overlapping runs of
    layers share them, and every program shares one multiplier per scalar
    form.  The equivalence checker compiles the candidate, its inverse
    layers and a circuit or gate target in one Compiler of the candidate's
    width, so the target runs on the candidate's keys and a gate they
    share is compiled once."""

    def __init__(self, width: int, ctx):
        self.width, self.ctx = width, ctx
        self._multipliers: dict = {}  # scalar form -> its multiplier
        self._gates: dict = {}  # gate -> its key map, or its (branch step, fan)

    def _multiplier(self, s):
        form = s.key()
        if form not in self._multipliers:
            self._multipliers[form] = multiplier(self.ctx, s)
        return self._multipliers[form]

    def _gate(self, gate):
        part = self._gates.get(gate)
        if part is None:
            part = permutation_action(gate, self.width)
            if part is None:
                mask, columns = gate_columns(gate, self.width, self.ctx)
                table = {
                    b: tuple((bits, self._multiplier(s)) for bits, s in col)
                    for b, col in columns.items()
                }
                fan = 1 << len(gate.lines())
                part = (_branch(mask, table, fan, self.ctx), fan)
            self._gates[gate] = part
        return part

    def program(self, layers) -> Program:
        """One step per one-qubit or Fourier gate, one fused key map per
        maximal run of permutation gates and controlled-not layers, each
        paired with its cost per basis state.  Gates in a tensor layer
        commute, so they are applied in sequence."""
        steps: list = []
        maps: list = []

        def close_run():
            if maps:
                steps.append((_permute(_fuse(maps)), len(maps)))
                maps.clear()

        for layer in layers:
            if isinstance(layer, TensorLayer):
                for gate in layer.gates:
                    part = self._gate(gate)
                    if callable(part):
                        maps.append(part)
                    else:
                        close_run()
                        steps.append(part)
            elif isinstance(layer, CNotLayer):
                maps.append(cnot_action(layer.pairs, self.width))
            elif isinstance(layer, StagedCNotLayer):
                maps.extend(cnot_action(stage, self.width) for stage in layer.stages)
            else:
                raise TypeError(f"unknown layer {type(layer).__name__}")
        close_run()
        return Program(tuple(steps))


def compile_circuit(c: Circuit) -> Program:
    """Build every gate's kernel once."""
    return Compiler(c.width, c.context).program(c.layers)


def apply_layer(state: StateVector, layer: Layer) -> StateVector:
    """Exact action of one layer, compiled as a one-layer circuit."""
    program = compile_circuit(Circuit(state.width, 0, (layer,), state.context))
    return StateVector(program.apply(state.entries, Work()), state.width, state.context)


def run(c: Circuit, input_bits: str) -> StateVector:
    """U_t ... U_1 |x, 0^aux> with exact amplitudes."""
    check_width(c)
    key = parse_bits(input_bits, c.n_inputs) << c.n_aux
    program = compile_circuit(c)
    return StateVector(program.apply({key: c.context.one()}, Work()), c.width, c.context)


def amplitude(c: Circuit, input_bits: str, target_bits: str) -> ExactScalar:
    """The single coefficient <target| C |input, 0^aux>."""
    target = parse_bits(target_bits, c.width)
    return run(c, input_bits).amplitude_of(target)


def norm_squared(state: StateVector) -> ExactScalar:
    total = state.context.zero()
    for amp in state.entries.values():
        total = total + amp * amp.conjugate()
    return total


@dataclass(frozen=True)
class AcceptResult:
    decision: str  # accept | reject | invalid-gap
    mode: str
    amplitude: ExactScalar
    probability: Fraction | None = None

    @property
    def accepted(self) -> bool:
        return self.decision == "accept"


def accept(c: Circuit, input_bits: str, target_bits: str, mode: str) -> AcceptResult:
    """Language-acceptance decision for the observed basis state.

    E: |amp|^2 must be exactly 0 or 1 and acceptance means 1.
    N: accept iff the amplitude is not exactly zero.
    B: exact rational |amp|^2 compared against 3/4 and 1/4; only contexts
       with rational amplitudes support it.
    """
    amp = amplitude(c, input_bits, target_bits)
    ctx = c.context
    if mode == "N":
        return AcceptResult("accept" if not amp.is_zero() else "reject", mode, amp)
    if mode == "E":
        if ctx.conjugation is None:
            raise AcceptanceError("E mode needs a context with conjugation")
        prob = amp * amp.conjugate()
        if prob.is_zero():
            return AcceptResult("reject", mode, amp)
        if (prob - ctx.one()).is_zero():
            return AcceptResult("accept", mode, amp)
        raise AcceptanceError("not an E-operator on this input: |amplitude|^2 is not 0 or 1")
    if mode == "B":
        if not ctx.is_rational:
            raise AcceptanceError("B mode requires a rational-amplitude context")
        prob = (amp * amp.conjugate()).as_fraction()
        if prob > Fraction(3, 4):
            return AcceptResult("accept", mode, amp, prob)
        if prob < Fraction(1, 4):
            return AcceptResult("reject", mode, amp, prob)
        return AcceptResult("invalid-gap", mode, amp, prob)
    raise ValueError(f"unknown acceptance mode {mode!r}")
