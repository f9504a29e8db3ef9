"""Executable gate-equivalence constructions and the exhaustive checker.

Each builder returns a circuit over main lines 0..m-1 followed by
auxiliary lines that start at 0 and are restored to 0 on every basis
input.  Every builder is a conjugation U·V·U⁻¹: its mirrored half, the
uncomputation that restores the auxiliary lines included, comes from
conjugate, not written out by hand.  equivalence_check compares the
candidate against its target amplitude-by-amplitude over all basis
inputs, with the auxiliary setting fixed to all zeros, and verifies the
restoration property.  Five builders use only permutation gates, and
their checks run every input at once as columns (circuit.run_columns);
a candidate with a one-qubit or Fourier gate runs one input at a time,
meeting in the middle (_per_input_check), as equivalence checkers cancel
G'⁻¹ against G (Burgholzer and Wille, IEEE TCAD 2021).  The target runs
on the candidate's keys, and every counterexample is a per-input report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .algebra import get_context
from . import circuit as cir
from .circuit import (
    AddBlockGate,
    AddModGate,
    CapExceededError,
    Circuit,
    CNotLayer,
    FanOutGate,
    FanOutModGate,
    FourierGate,
    Gate,
    ModGate,
    OneQubitGate,
    StagedCNotLayer,
    TensorLayer,
    ToffoliGate,
    block_width,
    x_gate,
)
from . import statevec
from .statevec import run  # noqa: F401  (run stays importable from here)

Target = Union[Gate, Circuit]


class BuilderArgumentError(ValueError):
    """A builder's (n, q, r) lies outside the domain its construction covers."""


@dataclass(frozen=True)
class EquivalenceReport:
    verdict: str  # "equivalent" | "counterexample"
    aux_setting: str
    lines_compared: int
    aux_restored: bool
    counterexample: tuple | None = None  # (x bits, y bits, lhs, rhs)

    @property
    def equivalent(self) -> bool:
        return self.verdict == "equivalent"

    def to_json(self) -> dict:
        data = {
            "verdict": self.verdict,
            "aux_setting": self.aux_setting,
            "lines_compared": self.lines_compared,
            "aux_restored": self.aux_restored,
        }
        if self.counterexample is not None:
            x, y, lhs, rhs = self.counterexample
            data["counterexample"] = {
                "input": x,
                "output": y,
                "target_amplitude": lhs.to_json() if lhs is not None else None,
                "candidate_amplitude": rhs.to_json() if rhs is not None else None,
            }
        return data


def _target_layers(target: Target) -> tuple:
    """A circuit target's layers, or a gate target as one layer."""
    return target.layers if isinstance(target, Circuit) else (TensorLayer((target,)),)


def _target_map(target: Target, compiler: statevec.Compiler, aux: int, work: cir.Work):
    """Function from a basis key x to target|x> ⊗ |0^aux> as {basis key:
    ExactScalar}, keyed like the candidate's states; the target is compiled
    once in the candidate's compiler.  A circuit target's runs charge work,
    a gate target's do not."""
    one = compiler.ctx.one()
    program = compiler.program(_target_layers(target))
    meter = work if isinstance(target, Circuit) else cir.Work()
    return lambda x: program.apply({x << aux: one}, meter)


def _charge_inputs(work: cir.Work, lines: int, bound: str = "") -> None:
    """Charge one unit per input on `lines` lines; 2^lines is capped just
    past the budget, so that a huge line count builds no huge int."""
    units = 1 << min(lines, cir.WORK.bit_length())
    work.charge(units, f"comparing {bound}2^{lines} inputs")


def _key_maps(target: Target) -> int | None:
    """The key maps one input's run of a circuit costs (a permutation gate
    or a controlled-not stage each count 1, as Program.apply charges a
    fused run), 0 for a permutation gate, or None when it holds a one-qubit
    or Fourier gate."""
    if not isinstance(target, Circuit):
        return None if isinstance(target, (OneQubitGate, FourierGate)) else 0
    maps = 0
    for layer in target.layers:
        if isinstance(layer, TensorLayer):
            if any(isinstance(g, (OneQubitGate, FourierGate)) for g in layer.gates):
                return None
            maps += len(layer.gates)
        else:
            maps += len(layer.stages) if isinstance(layer, StagedCNotLayer) else 1
    return maps


def _check_memory(lines: int, words: int) -> None:
    """Columns of `lines` lines, of `words` 64-bit words each, must fit in
    WORK words."""
    if lines * words > cir.WORK:
        raise CapExceededError(
            f"{lines} columns of {words} words exceed the column budget of {cir.WORK} words"
        )


def _input_column(shift: int, bits: int) -> int:
    """Bits 0..bits-1 of the column whose bit x is bit `shift` of x: the
    pattern of 2^shift zeros then 2^shift ones, doubled until it covers
    them (a division by 2^(2^(shift+1)) - 1 would take quadratic time)."""
    run = 1 << shift
    if run >= bits:
        return 0
    col, period = ((1 << run) - 1) << run, 2 * run
    while period < bits:
        col |= col << period
        period *= 2
    return col & ((1 << bits) - 1)


def _increasing(inputs, main: int):
    """The inputs, each checked to lie above the one before and below 2^main."""
    last, end = -1, 1 << main
    for x in inputs:
        if not last < x < end:
            raise ValueError(f"input {x} is not above {last} and below 2^{main}")
        last = x
        yield x


def _held_inputs(inputs, main: int, reach, lines: int) -> tuple[int, bytearray]:
    """(count, mask bytes) of the `inputs` the column check holds, bit x of
    the little-endian bytes set for input x.  It stops at the first input
    past `reach`, which count then exceeds; the columns' memory is checked
    as the mask grows, a word at a time."""
    seen, count, words = bytearray(), 0, 0
    for x in _increasing(inputs, main):
        count += 1
        if reach is not None and count > reach:
            break  # the meter cannot reach every input: the check cannot end equivalent
        if x >> 6 >= words:
            words = (x >> 6) + 1
            _check_memory(lines, words)
            seen += bytes(8 * words - len(seen))
        seen[x >> 3] |= 1 << (x & 7)
    return count, seen


def _column_check(target, candidate, main, inputs, work, maps, target_maps):
    """equivalence_check of a candidate and a target that permute basis
    states: every compared input runs at once, as columns
    (circuit.run_columns).  Only the inputs the work meter can reach are
    held; the charge is the per-input loop's, and so is the report: that
    of the first failing input alone."""
    width = candidate.width
    per = maps + target_maps
    reach = work.left // per if per else None  # the inputs the meter can reach
    if inputs is None:
        count = 1 << main
        bits = count if reach is None else min(count, reach)
        _check_memory(width, -(-bits // 64))
        mask = (1 << bits) - 1
    else:
        count, seen = _held_inputs(inputs, main, reach, width)
        mask = int.from_bytes(seen, "little")
        bits = mask.bit_length()
    ones = (1 << bits) - 1
    given = [_input_column(main - 1 - l, bits) for l in range(main)]
    cols = given + [0] * (width - main)
    cir.run_columns(candidate.layers, cols, ones)
    want = list(given)
    cir.run_columns(_target_layers(target), want, ones)
    bad = 0
    for c in cols[main:]:  # a dirty aux line
        bad |= c
    for c, t in zip(cols, want):
        bad |= c ^ t
    bad &= mask
    if not bad:
        work.charge(count * per, "a column run")
        return EquivalenceReport("equivalent", "0" * (width - main), main, aux_restored=True)
    low = bad & -bad
    x = low.bit_length() - 1
    index = x if inputs is None else (mask & (low - 1)).bit_count()
    work.charge((index + 1) * per, "a column run")
    return _per_input_check(target, candidate, main, (x,), cir.Work())


def equivalence_check(
    target: Target,
    candidate: Circuit,
    main_lines: int | None = None,
    inputs=None,
) -> EquivalenceReport:
    """Exhaustive exact comparison <y|target|x> = <y,0|candidate|x,0>.

    Also verifies that every reachable candidate state leaves the
    auxiliary lines at their initial zeros.  The compared lines are the
    first `main_lines` lines, by default the candidate's input lines.
    `inputs` optionally restricts the compared basis inputs, listed in
    increasing order (e.g. to qudigit-encoded states when the construction
    only promises to simulate the digit encoding).  A counterexample names
    the smallest failing input.

    The target is a gate or a circuit.  A ValueError, raised before any
    input is charged, refuses any other target, `main_lines` outside
    0..candidate.n_inputs, a circuit target that is not that wide, has aux
    lines or is in another context, and a gate target whose lines are not
    distinct compared lines or that fails circuit.validate's gate checks,
    bar the rule that a MOD gate needs an input.  The target runs on the
    candidate's keys, target|x> ⊗ |0^aux>, in the candidate's compiler.

    When the candidate and the target hold no one-qubit or Fourier gate,
    every input runs at once as columns, one int per line
    (circuit.run_columns); a mismatch is reported by the per-input check of
    the first failing input.  Otherwise each layer of the candidate, its
    inverse and the target are compiled once, in one statevec.Compiler, and
    run on one input at a time, the candidate cut in two where that is
    cheaper (_per_input_check); the report is the one the whole candidate
    gives.  Each input runs its target before its states are compared.

    The check has one Work meter: enumerating every input charges 2^main
    units up front, and the candidate's and a circuit target's runs charge
    their steps per input, on either path.  A cut check also charges its
    backward probe, at most the first input's forward run, and per input
    the units of B, of A⁻¹ and, on a mismatch, of A.  A column run charges
    the per-input loop's units up to and including the first failing input.
    A column holds one bit per key up to the largest input the meter can
    reach, and lines x ⌈keys/64⌉ must be at most WORK 64-bit words.
    """
    main = main_lines if main_lines is not None else candidate.n_inputs
    if not 0 <= main <= candidate.n_inputs:
        raise ValueError(f"compared lines {main} not in 0..{candidate.n_inputs} input lines")
    if isinstance(target, Circuit):
        if target.width != main:
            raise ValueError("target circuit width differs from compared lines")
        if target.n_aux:
            raise ValueError("target circuit must have no auxiliary lines")
        if target.context != candidate.context:
            raise ValueError("target circuit context differs from the candidate's")
    elif isinstance(target, Gate):
        lines = target.lines()
        if len(set(lines)) != len(lines) or not all(0 <= l < main for l in lines):
            raise ValueError(f"target gate lines {lines} are not distinct lines below {main}")
        # the circuit's own gate checks, but a MOD gate of no inputs is a target
        # (modqr_from_modq at n = 0)
        for d in cir._gate_diagnostics(target, 0, main, candidate.context):
            if d.message != "MOD gate needs at least one input":
                raise ValueError(f"target {d.message}")
    else:
        raise ValueError(f"target {type(target).__name__} is neither a gate nor a circuit")
    work = cir.Work()
    if inputs is None:
        _charge_inputs(work, main)
    maps, target_maps = _key_maps(candidate), _key_maps(target)
    if maps is not None and target_maps is not None:
        return _column_check(target, candidate, main, inputs, work, maps, target_maps)
    return _per_input_check(target, candidate, main, inputs, work)


def _report(x: int, entries: dict, want: dict, main: int, aux: int, ctx):
    """The counterexample of input x, or None when its candidate state
    equals its target state (keyed on the candidate's lines, with clean aux
    lines).  It names the smallest output that leaves an aux line dirty if
    there is one, else the smallest output whose amplitudes differ."""
    if want == entries:  # amplitudes compared with ExactScalar.__eq__
        return None
    aux_mask = (1 << aux) - 1
    dirty = [k for k in entries if k & aux_mask]
    if dirty:
        key = min(dirty)
        return EquivalenceReport(
            "counterexample", "0" * aux, main, aux_restored=False,
            counterexample=(
                cir.key_to_bits(x, main), cir.key_to_bits(key >> aux, main), None, entries[key]
            ),
        )
    zero = ctx.zero()
    for y in sorted(set(want) | set(entries)):
        lhs, rhs = want.get(y, zero), entries.get(y, zero)
        if lhs != rhs:
            y_bits = cir.key_to_bits(y >> aux, main)
            return EquivalenceReport(
                "counterexample", "0" * aux, main, aux_restored=True,
                counterexample=(cir.key_to_bits(x, main), y_bits, lhs, rhs),
            )
    return None


def _choose_cut(inverse, costs: list, state: dict, work: cir.Work) -> tuple[int, int]:
    """(cut, units): the layer boundary b that minimises costs[b], the
    forward units of the first input up to b, plus the units of running the
    inverse layers from the end back to b on its target state, and the
    units that backward probe spent.  The probe stops, without raising,
    before a step that would leave no boundary further back cheaper than
    the best so far (at first the whole forward run), that would spend more
    than the meter has left, or that would hold more than BUDGET states.
    The last boundary, len(costs) - 1, means no cut."""
    cut = len(costs) - 1
    best, spent = costs[cut], 0
    for b in range(cut - 1, -1, -1):
        for step, cost in inverse(b).steps:
            units = len(state) * cost
            if spent + units >= best or spent + units > work.left:
                return cut, spent
            try:
                state = step(state)
            except CapExceededError:  # over the memory budget, before any work
                return cut, spent
            spent += units
        if costs[b] + spent < best:
            best, cut = costs[b] + spent, b
    return cut, spent


def _per_input_check(target, candidate, main, inputs, work) -> EquivalenceReport:
    """equivalence_check one input at a time, meeting in the middle.

    The candidate C = A·B is cut at a layer boundary, and each input
    compares B|x,0> with A⁻¹(T|x> ⊗ |0>).  Every layer has an exact inverse
    (a one-qubit gate is only made in a context with a conjugation), so the
    two are equal iff C|x,0> = T|x> ⊗ |0>; on a mismatch A runs on B's
    state, and the report is made from C|x,0>.  For a conjugation U·V·U⁻¹
    the cut skips the U⁻¹ that collapses the superposition U spread.  The
    first input runs the whole candidate, layer by layer, and prices each
    cut (_choose_cut); no cut is the cut at the last boundary, where A and
    A⁻¹ have no steps."""
    ctx = candidate.context
    aux = candidate.width - main
    layers = candidate.layers
    compiler = statevec.Compiler(candidate.width, ctx)
    target_of = _target_map(target, compiler, aux, work)
    one = ctx.one()
    xs = iter(range(1 << main) if inputs is None else _increasing(inputs, main))
    x = next(xs, None)
    if x is None:
        return EquivalenceReport("equivalent", "0" * aux, main, aux_restored=True)
    state, costs = {x << aux: one}, [0]
    for layer in layers:
        left = work.left
        state = compiler.program((layer,)).apply(state, work)
        costs.append(costs[-1] + left - work.left)
    want = target_of(x)
    report = _report(x, state, want, main, aux, ctx)
    if report is not None:
        return report
    inverse_layers = [cir.inverse_layer(layer) for layer in layers]
    cut, spent = _choose_cut(lambda b: compiler.program((inverse_layers[b],)), costs, want, work)
    work.charge(spent, "a backward probe")
    front, rest = compiler.program(layers[:cut]), compiler.program(layers[cut:])
    back = compiler.program(reversed(inverse_layers[cut:]))
    for x in xs:
        mid = front.apply({x << aux: one}, work)
        want = target_of(x)
        if mid == back.apply(want, work):
            continue
        report = _report(x, rest.apply(mid, work), want, main, aux, ctx)
        if report is not None:
            return report
    return EquivalenceReport("equivalent", "0" * aux, main, aux_restored=True)


# -- builders ------------------------------------------------------------------


def _blocks(first_line: int, count: int, w: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(range(first_line + i * w, first_line + (i + 1) * w)) for i in range(count)
    )


def conjugate(outer: Iterable[cir.Layer], inner: Iterable[cir.Layer]) -> tuple[cir.Layer, ...]:
    """U·V·U⁻¹ as layers: `outer`, then `inner`, then the inverse of each
    `outer` layer in reverse order."""
    outer = tuple(outer)
    return outer + tuple(inner) + tuple(cir.inverse_layer(l) for l in reversed(outer))


def _nor(sources: tuple[int, ...], target: int) -> tuple:
    """Flip `target` iff every source line is 0: negations around a Toffoli."""
    negate = cir.tensor_layer(*(x_gate(l) for l in sources))
    return conjugate((negate,), (cir.tensor_layer(ToffoliGate(sources, target)),))


def build_mq_via_conjugation(n: int, q: int) -> Circuit:
    """Modular addition as Fourier, inverse q-ary fan-out, inverse Fourier:
    the one modular-add gate of mq_target, lowered by expand_addmod."""
    if q < 2 or n < 1:
        raise BuilderArgumentError("need q >= 2 and n >= 1")
    ctx = get_context(f"cyclotomic{q}")
    one_gate = Circuit((n + 1) * block_width(q), 0, (TensorLayer((mq_target(n, q),)),), ctx)
    return expand_addmod(one_gate)


def mq_target(n: int, q: int) -> AddModGate:
    w = block_width(q)
    blocks = _blocks(0, n + 1, w)
    return AddModGate(q, blocks[:-1], blocks[-1])


def build_modqr_from_modq(n: int, q: int, r: int) -> Circuit:
    """MOD_{q,r}: X flips on (q-r) mod q extra inputs around a MOD_q gate."""
    if not 0 <= r < q or (n < 1 and r == 0):
        raise BuilderArgumentError("need 0 <= r < q, and n >= 1 when r = 0")
    ctx = get_context(f"cyclotomic{q}")
    extra = (q - r) % q
    aux = tuple(range(n + 1, n + 1 + extra))
    flips = (cir.tensor_layer(*(x_gate(l) for l in aux)),) if extra else ()
    mod = cir.tensor_layer(ModGate(q, 0, tuple(range(n)) + aux, n))
    return Circuit(n + 1, extra, conjugate(flips, (mod,)), ctx)


def build_modq_from_mq(n: int, q: int) -> Circuit:
    """|x, b> -> |x, b xor Mod_q(x)>: a modular-add gate sums the bits mod q
    into a zeroed block, around a NOR of that block onto b."""
    ctx = get_context(f"cyclotomic{q}")
    w = block_width(q)
    b_line = n
    s_block = tuple(range(n + 1, n + 1 + w))
    pad_start = n + 1 + w
    digit_blocks = []
    pads = []
    for i in range(n):
        pad = tuple(range(pad_start + i * (w - 1), pad_start + (i + 1) * (w - 1)))
        pads.extend(pad)
        digit_blocks.append(pad + (i,))  # bit value sits in the low position
    add = cir.tensor_layer(AddModGate(q, tuple(digit_blocks), s_block))
    return Circuit(n + 1, w + len(pads), conjugate((add,), _nor(s_block, b_line)), ctx)


def _fan_copy_layout(n: int, q: int, first_aux: int):
    """Fan-out copies so bit k of each digit is counted 2^k times.

    Returns (fan-out layers, mod input lines, next free line).  Digit
    blocks are assumed at lines [i*w, (i+1)*w); bit k of digit i lives on
    line i*w + (w-1-k).
    """
    w = block_width(q)
    fans = []
    mod_inputs = []
    cursor = first_aux
    for i in range(n):
        for k in range(w):
            line = i * w + (w - 1 - k)
            mod_inputs.append(line)
            extra = (1 << k) - 1
            if extra:
                copies = tuple(range(cursor, cursor + extra))
                cursor += extra
                fans.append(FanOutGate(copies, line))
                mod_inputs.extend(copies)
    return ((cir.tensor_layer(*fans),) if fans else ()), tuple(mod_inputs), cursor


def _detector(fan_layers: tuple, q: int, r: int, mod_inputs: tuple, target: int) -> tuple:
    """Residue detector: flip `target` iff the digit sum is r mod q, by the
    fan-outs of _fan_copy_layout around one MOD gate."""
    return conjugate(fan_layers, (cir.tensor_layer(ModGate(q, r, mod_inputs, target)),))


def build_modhat(n: int, q: int, r: int) -> Circuit:
    """Digit-sum residue detector: constant fan-out feeding one MOD gate."""
    if n < 1 or not 0 <= r < q:
        raise BuilderArgumentError("need n >= 1 and 0 <= r < q")
    ctx = get_context(f"cyclotomic{q}")
    w = block_width(q)
    b_line = n * w
    fan_layers, mod_inputs, cursor = _fan_copy_layout(n, q, n * w + 1)
    layers = _detector(fan_layers, q, r, mod_inputs, b_line)
    return Circuit(n * w + 1, cursor - (n * w + 1), layers, ctx)


def modhat_target(n: int, q: int, r: int) -> ModGate:
    """Flip the bit after the n digit blocks iff the digit sum is r mod q:
    a MOD gate that counts bit k of each block 2^k times, as the fan-out
    copies of build_modhat do."""
    w = block_width(q)
    lines = tuple(range(n * w))
    return ModGate(q, r, lines, n * w, tuple(1 << (w - 1 - l % w) for l in lines))


def build_mq_from_modq(n: int, q: int) -> Circuit:
    """Modular addition of digits using only MOD gates, fan-outs, Toffolis
    and one primitive block-add transform.

    The residue detectors run in series for each r, each writing one
    indicator bit; the bits of the digit sum are assembled from the
    indicators with De-Morgan ORs (each OR is a NOR onto a fresh target,
    then an X); this forward pipeline is conjugated around the block-add
    transform that folds the sum into the result digit, so its mirror
    clears every auxiliary line.
    """
    if n < 1:
        raise BuilderArgumentError("need n >= 1")
    ctx = get_context(f"cyclotomic{q}")
    w = block_width(q)
    main = (n + 1) * w
    b_block = tuple(range(n * w, (n + 1) * w))
    fan_layers, mod_inputs, cursor = _fan_copy_layout(n, q, main)
    m_lines = tuple(range(cursor, cursor + q))
    cursor += q
    s_block = tuple(range(cursor, cursor + w))
    cursor += w

    forward: list[TensorLayer] = []
    for r in range(q):
        forward += _detector(fan_layers, q, r, mod_inputs, m_lines[r])
    for k in range(w):
        sources = tuple(m_lines[r] for r in range(q) if (r >> k) & 1)
        target = s_block[w - 1 - k]
        forward += _nor(sources, target)
        forward.append(cir.tensor_layer(x_gate(target)))

    t_layer = cir.tensor_layer(AddBlockGate(q, s_block, b_block))
    return Circuit(main, cursor - main, conjugate(forward, (t_layer,)), ctx)


def build_f_from_fq(n: int, q: int) -> Circuit:
    """Bit fan-out: one q-ary fan-out around a controlled-not layer.

    The bit to copy is placed as the low bit of the fan-out's control
    block; the q-ary fan-out writes it into n zeroed blocks, a
    controlled-not layer moves the copies onto the real targets, and the
    inverse fan-out clears the blocks.
    """
    if q < 2:
        raise BuilderArgumentError("need q >= 2")
    ctx = get_context(f"cyclotomic{q}")
    w = block_width(q)
    x_line = n
    blocks = _blocks(n + 1, n, w)
    pad = tuple(range(n + 1 + n * w, n + 1 + n * w + (w - 1)))
    control_block = pad + (x_line,)
    fq = cir.tensor_layer(FanOutModGate(q, blocks, control_block))
    pairs = tuple((blocks[i][-1], i) for i in range(n))
    return Circuit(n + 1, n * w + (w - 1), conjugate((fq,), (CNotLayer(pairs),)), ctx)


def expand_addmod(c: Circuit) -> Circuit:
    """Replace every modular-add gate by its Fourier-conjugated fan-out
    form; the layer's other gates join the first Fourier layer."""
    layers: list = []
    for layer in c.layers:
        gates = layer.gates if isinstance(layer, TensorLayer) else ()
        adds = [g for g in gates if isinstance(g, AddModGate)]
        if not adds:
            layers.append(layer)
            continue
        rest = tuple(g for g in gates if not isinstance(g, AddModGate))
        fourier = cir.tensor_layer(
            *(FourierGate(g.q, b) for g in adds for b in g.blocks + (g.result,))
        )
        fan = cir.tensor_layer(
            *(FanOutModGate(g.q, g.blocks, g.result, inverse=not g.inverse) for g in adds)
        )
        first, *others = conjugate((fourier,), (fan,))
        layers += [cir.tensor_layer(*first.gates, *rest), *others]
    return Circuit(c.n_inputs, c.n_aux, tuple(layers), c.context)


def gate_kinds(c: Circuit) -> set[str]:
    kinds = set()
    for layer in c.layers:
        if isinstance(layer, TensorLayer):
            kinds.update(type(g).__name__ for g in layer.gates)
        else:
            kinds.add(type(layer).__name__)
    return kinds


# -- builder registry (CLI surface) -------------------------------------------


def qudigit_inputs(n_blocks: int, q: int):
    """Basis keys whose blocks all hold values < q (the digit encoding), in
    increasing order."""
    w = block_width(q)
    places = [[v << (w * i) for v in range(q)] for i in reversed(range(n_blocks))]
    return map(sum, itertools.product(*places))


@dataclass(frozen=True)
class BuilderSpec:
    """A builder, its target, and size(n, q, r), the built circuit's gate
    lines (a gate counts its lines, a controlled-not pair counts 2), worked
    out without building it; the candidate's input lines are the compared
    lines."""

    needs_r: bool
    build: Callable
    target: Callable
    size: Callable
    inputs: Callable | None = None  # optional restriction to encoded inputs


def _detector_size(n: int, q: int) -> int:
    """Gate lines of one residue detector: a MOD gate on the fan-out copies
    of n digits, between two fan-out layers."""
    return n * (3 * 2 ** block_width(q) - 5) + 1


def _mq_from_modq_size(n: int, q: int) -> int:
    """q detectors, per sum bit k two negations of its s_k sources, their
    Toffoli and one X, all twice, around the block-add transform."""
    w = block_width(q)
    bits = sum(3 * sum(1 for r in range(q) if (r >> k) & 1) + 2 for k in range(w))
    return 2 * (q * _detector_size(n, q) + bits) + 2 * w


BUILDERS = {
    "mq_via_conjugation": BuilderSpec(
        False,
        lambda n, q, r=0: build_mq_via_conjugation(n, q),
        lambda n, q, r=0: mq_target(n, q),
        lambda n, q, r=0: 3 * (n + 1) * block_width(q),
    ),
    "modqr_from_modq": BuilderSpec(
        True,
        lambda n, q, r=0: build_modqr_from_modq(n, q, r),
        lambda n, q, r=0: ModGate(q, r, tuple(range(n)), n),
        lambda n, q, r=0: n + 1 + 3 * ((q - r) % q),
    ),
    "modq_from_mq": BuilderSpec(
        False,
        lambda n, q, r=0: build_modq_from_mq(n, q),
        lambda n, q, r=0: ModGate(q, 0, tuple(range(n)), n),
        lambda n, q, r=0: 2 * (n + 1) * block_width(q) + 3 * block_width(q) + 1,
    ),
    "modhat": BuilderSpec(
        True,
        lambda n, q, r=0: build_modhat(n, q, r),
        lambda n, q, r=0: modhat_target(n, q, r),
        lambda n, q, r=0: _detector_size(n, q),
    ),
    "mq_from_modq": BuilderSpec(
        False,
        lambda n, q, r=0: build_mq_from_modq(n, q),
        lambda n, q, r=0: mq_target(n, q),
        lambda n, q, r=0: _mq_from_modq_size(n, q),
        # the residue detectors read raw block values, so the simulation is
        # promised on the digit encoding's support only
        inputs=lambda n, q: qudigit_inputs(n + 1, q),
    ),
    "f_from_fq": BuilderSpec(
        False,
        lambda n, q, r=0: build_f_from_fq(n, q),
        lambda n, q, r=0: FanOutGate(tuple(range(n)), n),
        lambda n, q, r=0: 2 * (n + 1) * block_width(q) + 2 * n,
    ),
}


def builder_spec(name: str, n: int, q: int, r: int = 0) -> BuilderSpec:
    """The spec of builder `name`, once (n, q, r) is checked, in this order,
    against the domain every builder shares (n >= 0, q >= 2, 0 <= r < q,
    and r = 0 for a builder that takes no r; else BuilderArgumentError),
    the cyclotomic context of q (else ContextError), and the memory budget
    on the built circuit's gate lines (else CapExceededError).  A builder
    may refuse more (its build raises BuilderArgumentError)."""
    spec = BUILDERS.get(name)
    if spec is None:
        known = ", ".join(sorted(BUILDERS))
        raise BuilderArgumentError(f"unknown builder {name!r} (known: {known})")
    if n < 0:
        raise BuilderArgumentError(f"n={n} must be nonnegative")
    if q < 2:
        raise BuilderArgumentError(f"q={q} must be at least 2")
    if not 0 <= r < q:
        raise BuilderArgumentError(f"r={r} must satisfy 0 <= r < q = {q}")
    if r and not spec.needs_r:
        raise BuilderArgumentError(f"r={r} given, but builder {name!r} takes no r")
    get_context(f"cyclotomic{q}")  # an unsupported q is refused, whatever the size
    size = spec.size(n, q, r)
    if size > cir.BUDGET:
        raise CapExceededError(f"{size} gate lines exceed the memory budget {cir.BUDGET}")
    return spec


def check_builder(name: str, n: int, q: int, r: int = 0) -> EquivalenceReport:
    """Equivalence-check a builder's candidate against its target.

    (n, q, r) must pass builder_spec's checks.  Then, as every candidate
    has at least n + 1 input lines, all compared, and each input costs at
    least one unit, a check with 2^(n + 1) > WORK is refused before anything
    is built.
    """
    spec = builder_spec(name, n, q, r)
    _charge_inputs(cir.Work(), n + 1, "at least ")
    candidate = spec.build(n, q, r)
    inputs = spec.inputs(n, q) if spec.inputs is not None else None
    return equivalence_check(spec.target(n, q, r), candidate, inputs=inputs)
