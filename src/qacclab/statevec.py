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
Inside a run a state is raw, {key: list of d numerators}, over one power
u^r for the whole state.  A branching gate is compiled over its entries'
largest power t of u, so its step adds t to r and builds no scalar.
Program.apply reads its result as reduced scalars; the equivalence checker
compares raw states exactly at the larger r (same_state).

Going past either budget raises CapExceededError.  The memory budget, through
budget.hold: run holds the circuit's lines before it builds a key, and a
one-qubit or Fourier step holds support x 2^(lines of the gate), the
branches it can reach, before it runs.  Permutation steps map keys
one-to-one, so they never grow the support and hold nothing.
The work budget: each step charges the run's Work meter, before it runs,
its support times its cost in key-gate applications: the number of key
maps a fused permutation run fuses (one per permutation gate or
controlled-not stage), or a branching step's fan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import ExactScalar
from .algebra.scalars import from_numerators, multiplier
from .budget import CapExceededError, Work, hold
from .circuit import (
    Circuit,
    CNotLayer,
    Layer,
    StagedCNotLayer,
    TensorLayer,
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


def lifted(ctx, nums, k: int) -> list:
    """The numerators times u^k, as a fresh list."""
    if not k:
        return list(nums)
    up, mul = ctx.u_power(k), ctx.num_mul
    return [mul(n, up) for n in nums]


def same_state(ctx, a: tuple, b: tuple) -> bool:
    """Whether two raw states (entries, r) hold the same amplitudes: the
    lower-r numerators times u^Δ equal the others.  Exact, since at one r a
    value's numerators are unique; neither state holds an all-zero slot."""
    (x, rx), (y, ry) = sorted((a, b), key=lambda state: state[1])
    if rx == ry:
        return x == y
    return x.keys() == y.keys() and all(lifted(ctx, x[k], ry - rx) == y[k] for k in x)


def read(ctx, state: tuple) -> dict:
    """The raw state (entries, r) as {key: reduced ExactScalar}."""
    entries, r = state
    return {key: from_numerators(ctx, nums, r) for key, nums in entries.items()}


@dataclass(frozen=True)
class Program:
    """A circuit compiled for repeated runs: each (step, cost) pair maps a
    raw state's entries to the next, at cost key-gate applications per
    basis state, and the run adds r to the state's power of u."""

    steps: tuple
    r: int
    ctx: object

    def apply(self, entries: dict, work: Work) -> dict:
        """The run of a state {key: ExactScalar}, read as reduced scalars."""
        r = max((amp.r for amp in entries.values()), default=0)
        raw = {key: lifted(self.ctx, amp.nums, r - amp.r) for key, amp in entries.items()}
        return read(self.ctx, self.apply_raw((raw, r), work))

    def apply_raw(self, state: tuple, work: Work) -> tuple:
        """The run of a raw state (entries, r); its numerator lists are
        read, never changed."""
        entries, r = state
        left = work.left
        for step, cost in self.steps:
            left -= len(entries) * cost
            if left < 0:
                work.left = left
                work.charge(0, "a state-vector run")  # raises: the meter is spent
            entries = step(entries)
        work.left = left
        return entries, r + self.r


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
    return lambda entries: {key_map(key): nums for key, nums in entries.items()}


def _branch(mask: int, codes: tuple, table: dict, ctx):
    """A step that sends each key to at most fan = len(codes) keys:
    table[key & mask][i] lists the (p·d + j, numerator) cells that
    numerator i adds into numerator j of output codes[p].  Keys that share
    their bits outside the mask add into one list of fan·d numerators,
    sliced into output keys at the end; all-zero outputs are dropped."""
    keep, fan, dim = ~mask, len(codes), ctx.dim
    zero, add, mul = ctx.num_zero, ctx.num_add, ctx.num_mul
    what = f"basis-state branches of a {fan}-way step"

    def step(entries):
        hold(len(entries) * fan, what)
        sums: dict = {}
        for key, nums in entries.items():
            rest = key & keep
            acc = sums.get(rest)
            if acc is None:
                acc = sums[rest] = [zero] * (fan * dim)
            for a, cells in zip(nums, table[key & mask]):
                if a:
                    for p, c in cells:
                        acc[p] = add(acc[p], mul(a, c))
        out = {}
        for rest, acc in sums.items():
            for p, bits in enumerate(codes):
                nums = acc[p * dim:(p + 1) * dim]
                if any(nums):
                    out[rest | bits] = nums
        return out

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
        self._columns: dict = {}  # (t, column form) -> its cells
        self._gates: dict = {}  # gate -> its key map, or its (branch step, fan, t)

    def _multiplier(self, s):
        form = s.key()
        if form not in self._multipliers:
            self._multipliers[form] = multiplier(self.ctx, s)
        return self._multipliers[form]

    def _column(self, col: list, t: int) -> tuple:
        """For each input numerator i, the (p·d + j, numerator) cells that a
        column of (output position p, scalar) pairs adds over u^t: each
        scalar's multiplier rows, raised from its own power of u to t.
        Built once per form, so gates alike on other lines share it."""
        form = (t, tuple((p, s.key()) for p, s in col))
        if form not in self._columns:
            ctx, dim = self.ctx, self.ctx.dim
            rows = [(p * dim, *self._multiplier(s)) for p, s in col]
            self._columns[form] = tuple(
                tuple(
                    (at + j, c if te == t else ctx.num_mul(c, ctx.u_power(t - te)))
                    for at, te, cells in rows
                    for j, c in cells[i]
                )
                for i in range(dim)
            )
        return self._columns[form]

    def _gate(self, gate):
        """A permutation gate's key map, or a branching gate's (step, fan,
        t), its columns compiled over the largest power t of u among its
        entries' multipliers."""
        part = self._gates.get(gate)
        if part is None:
            part = permutation_action(gate, self.width)
            if part is None:
                mask, columns = gate_columns(gate, self.width, self.ctx)
                codes = tuple(columns)
                at = {bits: p for p, bits in enumerate(codes)}
                cols = {b: [(at[bits], s) for bits, s in col] for b, col in columns.items()}
                t = max(self._multiplier(s)[0] for col in cols.values() for _, s in col)
                table = {b: self._column(col, t) for b, col in cols.items()}
                part = (_branch(mask, codes, table, self.ctx), len(codes), t)
            self._gates[gate] = part
        return part

    def program(self, layers) -> Program:
        """One step per one-qubit or Fourier gate, one fused key map per
        maximal run of permutation gates and controlled-not layers, each
        paired with its cost per basis state.  Gates in a tensor layer
        commute, so they are applied in sequence."""
        steps: list = []
        maps: list = []
        r = 0

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
                        steps.append(part[:2])
                        r += part[2]
            elif isinstance(layer, (CNotLayer, StagedCNotLayer)):
                maps.extend(cnot_action(stage, self.width) for stage in layer.stages)
            else:
                raise TypeError(f"unknown layer {type(layer).__name__}")
        close_run()
        return Program(tuple(steps), r, self.ctx)


def compile_circuit(c: Circuit) -> Program:
    """Build every gate's kernel once."""
    return Compiler(c.width, c.context).program(c.layers)


def apply_layer(state: StateVector, layer: Layer) -> StateVector:
    """Exact action of one layer, compiled as a one-layer circuit."""
    program = compile_circuit(Circuit(state.width, 0, (layer,), state.context))
    return StateVector(program.apply(state.entries, Work()), state.width, state.context)


def run(c: Circuit, input_bits: str) -> StateVector:
    """U_t ... U_1 |x, 0^aux> with exact amplitudes."""
    hold(c.width, "circuit lines")  # a basis key holds one bit per line
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
