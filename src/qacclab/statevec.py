"""Brute-force exact simulator and the E/N/B acceptance predicates.

States are sparse maps from basis keys to exact scalars; amplitudes that
become exactly zero are pruned eagerly.  A circuit runs through one compile
step: compile_circuit validates it once and builds every gate's kernel once
from bit masks, fusing each maximal run of permutation gates and
controlled-not layers into a single key map.  The resulting Program runs
any number of inputs; run and apply_layer both go through it.  Permutation
steps move keys with no scalar arithmetic at all; only one-qubit and
Fourier gates touch the algebra.  There is no cap on the width: before a
one-qubit or Fourier step runs, support x 2^(lines of the gate) must be at
most circuit.BUDGET, or it raises CapExceededError.  Permutation steps map
keys one-to-one, so they never grow the support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import ExactScalar
from . import circuit as cir
from .circuit import (
    CapExceededError,
    Circuit,
    CNotLayer,
    Layer,
    StagedCNotLayer,
    TensorLayer,
    check_valid,
    cnot_action,
    gate_kernel,
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


def _accumulate(target: dict, key: int, amp: ExactScalar):
    prev = target.get(key)
    if prev is None:
        target[key] = amp
        return
    new = prev + amp
    if new.is_zero():
        del target[key]
    else:
        target[key] = new


@dataclass(frozen=True)
class Program:
    """A circuit compiled for repeated runs: each step maps a sparse state
    (basis key -> amplitude) to the next."""

    steps: tuple

    def apply(self, entries: dict) -> dict:
        for step in self.steps:
            entries = step(entries)
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


def _branch(kernel, fan: int):
    """A step that sends each key to at most `fan` keys."""

    def step(entries):
        if len(entries) * fan > cir.BUDGET:
            raise CapExceededError(
                f"{len(entries)} basis states x {fan} branches exceed the work budget "
                f"{cir.BUDGET}"
            )
        out: dict = {}
        for key, amp in entries.items():
            for new_key, scalar in kernel(key):
                _accumulate(out, new_key, amp * scalar)
        return out

    return step


def _compile_steps(layers, width: int, ctx) -> tuple:
    """One step per one-qubit or Fourier gate, one fused key map per maximal
    run of permutation gates and controlled-not layers.  Gates in a tensor
    layer commute, so they are applied in sequence."""
    steps: list = []
    maps: list = []

    def close_run():
        if maps:
            steps.append(_permute(_fuse(maps)))
            maps.clear()

    for layer in layers:
        if isinstance(layer, TensorLayer):
            for gate in layer.gates:
                perm = permutation_action(gate, width)
                if perm is not None:
                    maps.append(perm)
                else:
                    close_run()
                    fan = 1 << len(gate.lines())
                    steps.append(_branch(gate_kernel(gate, width, ctx), fan))
        elif isinstance(layer, CNotLayer):
            maps.append(cnot_action(layer.pairs, width))
        elif isinstance(layer, StagedCNotLayer):
            maps.extend(cnot_action(stage, width) for stage in layer.stages)
        else:
            raise TypeError(f"unknown layer {type(layer).__name__}")
    close_run()
    return tuple(steps)


def compile_circuit(c: Circuit, check: bool = True) -> Program:
    """Validate once (unless check=False) and build every gate's kernel
    once."""
    if check:
        check_valid(c)
    return Program(_compile_steps(c.layers, c.width, c.context))


def apply_layer(state: StateVector, layer: Layer) -> StateVector:
    """Exact action of one layer, compiled as a one-layer circuit."""
    program = compile_circuit(Circuit(state.width, 0, (layer,), state.context))
    return StateVector(program.apply(state.entries), state.width, state.context)


def run(c: Circuit, input_bits: str, check: bool = True) -> StateVector:
    """U_t ... U_1 |x, 0^aux> with exact amplitudes."""
    key = parse_bits(input_bits, c.n_inputs) << c.n_aux
    program = compile_circuit(c, check=check)
    return StateVector(program.apply({key: c.context.one()}), c.width, c.context)


def amplitude(c: Circuit, input_bits: str, target_bits: str, check: bool = True) -> ExactScalar:
    """The single coefficient <target| C |input, 0^aux>."""
    target = parse_bits(target_bits, c.width)
    return run(c, input_bits, check=check).amplitude_of(target)


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
