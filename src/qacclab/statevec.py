"""Brute-force exact simulator and the E/N/B acceptance predicates.

States are sparse maps from basis keys to exact scalars; amplitudes that
become exactly zero are pruned eagerly.  A Circuit is validated when it is
made, so nothing here validates again.  A circuit runs through one compile
step: compile_circuit builds every gate's kernel once from bit masks,
fusing each maximal run of permutation gates and controlled-not layers
into a single key map.  The resulting Program runs any number of inputs;
run and apply_layer both go through it.  Permutation steps move keys with
no scalar arithmetic at all; only one-qubit and Fourier gates touch the
algebra.  Each of their entries s is compiled once into a multiplier
(scalars.multiplier), so a branching step adds every product into its
output key's slot as integer numerators over one power of u and builds one
scalar per nonzero slot, not one per product or partial sum.

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
    one scalar is built per nonzero slot at the end."""
    keep = ~mask
    dim, zero, mul, arity = ctx.dim, ctx.num_zero, ctx.num_mul, ctx.arity

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
                if arity and not any(acc):
                    slot[1] = 0  # an unreduced zero restarts at r = 0, as in _combine
        return {
            out: from_numerators(ctx, acc, r) for out, (acc, r) in slots.items() if any(acc)
        }

    return step


def _compile_steps(layers, width: int, ctx) -> tuple:
    """One step per one-qubit or Fourier gate, one fused key map per maximal
    run of permutation gates and controlled-not layers, each paired with its
    cost per basis state.  Gates in a tensor layer commute, so they are
    applied in sequence."""
    steps: list = []
    maps: list = []
    built: dict = {}  # scalar form -> its multiplier, shared by the program's gates

    def multiplier_of(s):
        form = s.key()
        if form not in built:
            built[form] = multiplier(ctx, s)
        return built[form]

    def close_run():
        if maps:
            steps.append((_permute(_fuse(maps)), len(maps)))
            maps.clear()

    for layer in layers:
        if isinstance(layer, TensorLayer):
            for gate in layer.gates:
                perm = permutation_action(gate, width)
                if perm is not None:
                    maps.append(perm)
                else:
                    close_run()
                    mask, columns = gate_columns(gate, width, ctx)
                    table = {
                        b: tuple((bits, multiplier_of(s)) for bits, s in col)
                        for b, col in columns.items()
                    }
                    fan = 1 << len(gate.lines())
                    steps.append((_branch(mask, table, fan, ctx), fan))
        elif isinstance(layer, CNotLayer):
            maps.append(cnot_action(layer.pairs, width))
        elif isinstance(layer, StagedCNotLayer):
            maps.extend(cnot_action(stage, width) for stage in layer.stages)
        else:
            raise TypeError(f"unknown layer {type(layer).__name__}")
    close_run()
    return tuple(steps)


def compile_circuit(c: Circuit) -> Program:
    """Build every gate's kernel once."""
    return Program(_compile_steps(c.layers, c.width, c.context))


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
