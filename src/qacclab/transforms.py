"""Executable gate-equivalence constructions and the exhaustive checker.

Each builder returns a circuit over main lines 0..m-1 followed by
auxiliary lines that start at 0 and are restored to 0 on every basis
input.  equivalence_check compares the candidate against its target
amplitude-by-amplitude over all basis inputs, with the auxiliary setting
fixed to all zeros, and verifies the restoration property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

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
    TensorLayer,
    ToffoliGate,
    block_width,
    x_gate,
)
from . import statevec
from .statevec import run  # noqa: F401  (run stays importable from here)

EQUIVALENCE_MAIN_CAP = 12

Target = Union[Gate, Circuit, Callable[[int], int]]


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


def _target_map(target: Target, main: int, ctx) -> Callable[[int], dict]:
    """Function from a basis key x to target|x> as {basis key: ExactScalar},
    with the target compiled once."""
    one = ctx.one()
    if isinstance(target, Circuit):
        if target.width != main:
            raise ValueError("target circuit width differs from compared lines")
        if target.n_aux:
            raise ValueError("target circuit must have no auxiliary lines")
        program = statevec.compile_circuit(target)
        return lambda x: program.apply({x: one})
    if callable(target) and not isinstance(target, Gate):
        return lambda x: {target(x): one}
    perm = cir.permutation_action(target, main)
    if perm is not None:
        return lambda x: {perm(x): one}
    kernel = cir.gate_kernel(target, main, ctx)
    return lambda x: dict(kernel(x))


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
    `inputs` optionally restricts the compared basis inputs (e.g. to
    qudigit-encoded states when the construction only promises to simulate
    the digit encoding).  The candidate, and a circuit or gate target, are
    compiled once per check, not once per input; a circuit was validated
    when it was made.
    """
    main = main_lines if main_lines is not None else candidate.n_inputs
    if main > EQUIVALENCE_MAIN_CAP:
        raise CapExceededError(
            f"{main} compared lines exceed the equivalence cap {EQUIVALENCE_MAIN_CAP}"
        )
    ctx = candidate.context
    aux = candidate.width - main
    pad = candidate.n_inputs - main
    if aux < 0 or pad < 0:
        raise ValueError("candidate has fewer lines than the comparison space")
    aux_mask = (1 << aux) - 1
    zeros = "0" * aux
    program = statevec.compile_circuit(candidate)
    target_of = _target_map(target, main, ctx)
    one = ctx.one()

    for x in range(1 << main) if inputs is None else inputs:
        entries = program.apply({x << aux: one})
        for key in entries:
            if key & aux_mask:  # report the smallest aux-dirty output, not the first
                dirty = min(k for k in entries if k & aux_mask)
                return EquivalenceReport(
                    "counterexample",
                    zeros,
                    main,
                    aux_restored=False,
                    counterexample=(
                        cir.key_to_bits(x, main),
                        cir.key_to_bits(dirty >> aux, main),
                        None,
                        entries[dirty],
                    ),
                )
        want = target_of(x)
        got = {key >> aux: amp for key, amp in entries.items()}
        if want == got:  # amplitudes compared with ExactScalar.__eq__
            continue
        zero = ctx.zero()
        for y in sorted(set(want) | set(got)):
            lhs = want.get(y, zero)
            rhs = got.get(y, zero)
            if lhs != rhs:
                return EquivalenceReport(
                    "counterexample",
                    zeros,
                    main,
                    aux_restored=True,
                    counterexample=(
                        cir.key_to_bits(x, main), cir.key_to_bits(y, main), lhs, rhs
                    ),
                )
    return EquivalenceReport("equivalent", zeros, main, aux_restored=True)


# -- builders ------------------------------------------------------------------


def _blocks(first_line: int, count: int, w: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(range(first_line + i * w, first_line + (i + 1) * w)) for i in range(count)
    )


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
    """MOD_{q,r} from a MOD_q gate with (q-r) mod q extra inputs held at 1."""
    if not 0 <= r < q:
        raise BuilderArgumentError("need 0 <= r < q")
    ctx = get_context(f"cyclotomic{q}")
    extra = (q - r) % q
    aux = tuple(range(n + 1, n + 1 + extra))
    layers = []
    if extra:
        layers.append(cir.tensor_layer(*(x_gate(l) for l in aux)))
    layers.append(cir.tensor_layer(ModGate(q, 0, tuple(range(n)) + aux, n)))
    if extra:
        layers.append(cir.tensor_layer(*(x_gate(l) for l in aux)))
    return Circuit(n + 1, extra, tuple(layers), ctx)


def build_modq_from_mq(n: int, q: int) -> Circuit:
    """|x, b> -> |x, b xor Mod_q(x)>: add the bits mod q with a modular-add
    gate, detect a zero sum with an all-negated Toffoli, then uncompute."""
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
    add = AddModGate(q, tuple(digit_blocks), s_block)
    negate_s = cir.tensor_layer(*(x_gate(l) for l in s_block))
    layers = (
        cir.tensor_layer(add),
        negate_s,
        cir.tensor_layer(ToffoliGate(s_block, b_line)),
        negate_s,
        cir.tensor_layer(cir.inverse_gate(add)),
    )
    return Circuit(n + 1, w + len(pads), layers, ctx)


def _fan_copy_layout(n: int, q: int, first_aux: int):
    """Fan-out copies so bit k of each digit is counted 2^k times.

    Returns (fan gates, mod input lines, next free line).  Digit blocks are
    assumed at lines [i*w, (i+1)*w); bit k of digit i lives on line
    i*w + (w-1-k).
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
    return fans, tuple(mod_inputs), cursor


def build_modhat(n: int, q: int, r: int) -> Circuit:
    """Digit-sum residue detector: constant fan-out feeding one MOD gate."""
    if not 0 <= r < q:
        raise BuilderArgumentError("need 0 <= r < q")
    ctx = get_context(f"cyclotomic{q}")
    w = block_width(q)
    b_line = n * w
    fans, mod_inputs, cursor = _fan_copy_layout(n, q, n * w + 1)
    layers = []
    if fans:
        layers.append(cir.tensor_layer(*fans))
    layers.append(cir.tensor_layer(ModGate(q, r, mod_inputs, b_line)))
    if fans:
        layers.append(cir.tensor_layer(*fans))
    return Circuit(n * w + 1, cursor - (n * w + 1), tuple(layers), ctx)


def modhat_target(n: int, q: int, r: int) -> Callable[[int], int]:
    """Flip the bit after the n digit blocks iff the digit sum is r mod q;
    the sum weighs the bit count of each bit position of the digits."""
    w = block_width(q)
    main = n * w + 1
    weights = tuple(
        (cir.lines_mask((i * w + (w - 1 - k) for i in range(n)), main), k) for k in range(w)
    )
    out = cir.line_mask(n * w, main)

    def act(key: int) -> int:
        total = sum((key & m).bit_count() << k for m, k in weights)
        return key ^ out if total % q == r else key

    return act


def build_mq_from_modq(n: int, q: int) -> Circuit:
    """Modular addition of digits using only MOD gates, fan-outs, Toffolis
    and one primitive block-add transform.

    The residue detectors run in series for each r, each writing one
    indicator bit; the bits of the digit sum are assembled from the
    indicators with De-Morgan ORs (each OR is negations around a Toffoli
    onto a fresh target); the block-add transform folds the sum into the
    result digit; the whole detector pipeline is then reversed to clear
    every auxiliary line.
    """
    ctx = get_context(f"cyclotomic{q}")
    w = block_width(q)
    main = (n + 1) * w
    b_block = tuple(range(n * w, (n + 1) * w))
    fans, mod_inputs, cursor = _fan_copy_layout(n, q, main)
    m_lines = tuple(range(cursor, cursor + q))
    cursor += q
    s_block = tuple(range(cursor, cursor + w))
    cursor += w

    forward: list[TensorLayer] = []
    for r in range(q):
        if fans:
            forward.append(cir.tensor_layer(*fans))
        forward.append(cir.tensor_layer(ModGate(q, r, mod_inputs, m_lines[r])))
        if fans:
            forward.append(cir.tensor_layer(*fans))
    for k in range(w):
        sources = tuple(m_lines[r] for r in range(q) if (r >> k) & 1)
        target = s_block[w - 1 - k]
        negate = cir.tensor_layer(*(x_gate(l) for l in sources))
        forward.append(negate)
        forward.append(cir.tensor_layer(ToffoliGate(sources, target)))
        forward.append(negate)
        forward.append(cir.tensor_layer(x_gate(target)))

    t_layer = cir.tensor_layer(AddBlockGate(q, s_block, b_block))
    backward = [cir.inverse_layer(layer) for layer in reversed(forward)]
    layers = tuple(forward) + (t_layer,) + tuple(backward)
    return Circuit(main, cursor - main, layers, ctx)


def build_f_from_fq(n: int, q: int) -> Circuit:
    """Bit fan-out from one q-ary fan-out, controlled-nots, and its inverse.

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
    fq = FanOutModGate(q, blocks, control_block)
    pairs = tuple((blocks[i][-1], i) for i in range(n))
    layers = (
        cir.tensor_layer(fq),
        CNotLayer(pairs),
        cir.tensor_layer(cir.inverse_gate(fq)),
    )
    return Circuit(n + 1, n * w + (w - 1), layers, ctx)


def expand_addmod(c: Circuit) -> Circuit:
    """Replace every modular-add gate by its Fourier-conjugated fan-out form."""
    layers: list = []
    for layer in c.layers:
        if not isinstance(layer, TensorLayer) or not any(
            isinstance(g, AddModGate) for g in layer.gates
        ):
            layers.append(layer)
            continue
        adds = [g for g in layer.gates if isinstance(g, AddModGate)]
        rest = tuple(g for g in layer.gates if not isinstance(g, AddModGate))
        fourier, middle, fourier_inv = [], [], []
        for g in adds:
            all_blocks = g.blocks + (g.result,)
            fourier.extend(FourierGate(g.q, b) for b in all_blocks)
            middle.append(FanOutModGate(g.q, g.blocks, g.result, inverse=not g.inverse))
            fourier_inv.extend(FourierGate(g.q, b, inverse=True) for b in all_blocks)
        layers.append(cir.tensor_layer(*(tuple(fourier) + rest)))
        layers.append(cir.tensor_layer(*middle))
        layers.append(cir.tensor_layer(*fourier_inv))
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
    """Basis keys whose blocks all hold values < q (the digit encoding)."""
    w = block_width(q)
    main = n_blocks * w

    def keys():
        import itertools

        for values in itertools.product(range(q), repeat=n_blocks):
            key = 0
            for v in values:
                key = (key << w) | v
            yield key

    return keys() if main else iter((0,))


@dataclass(frozen=True)
class BuilderSpec:
    """A builder and its target; the candidate's input lines are the
    compared lines."""

    needs_r: bool
    build: Callable
    target: Callable
    inputs: Callable | None = None  # optional restriction to encoded inputs


BUILDERS = {
    "mq_via_conjugation": BuilderSpec(
        False,
        lambda n, q, r=0: build_mq_via_conjugation(n, q),
        lambda n, q, r=0: mq_target(n, q),
    ),
    "modqr_from_modq": BuilderSpec(
        True,
        lambda n, q, r=0: build_modqr_from_modq(n, q, r),
        lambda n, q, r=0: ModGate(q, r, tuple(range(n)), n),
    ),
    "modq_from_mq": BuilderSpec(
        False,
        lambda n, q, r=0: build_modq_from_mq(n, q),
        lambda n, q, r=0: ModGate(q, 0, tuple(range(n)), n),
    ),
    "modhat": BuilderSpec(
        True,
        lambda n, q, r=0: build_modhat(n, q, r),
        lambda n, q, r=0: modhat_target(n, q, r),
    ),
    "mq_from_modq": BuilderSpec(
        False,
        lambda n, q, r=0: build_mq_from_modq(n, q),
        lambda n, q, r=0: mq_target(n, q),
        # the residue detectors read raw block values, so the simulation is
        # promised on the digit encoding's support only
        inputs=lambda n, q: qudigit_inputs(n + 1, q),
    ),
    "f_from_fq": BuilderSpec(
        False,
        lambda n, q, r=0: build_f_from_fq(n, q),
        lambda n, q, r=0: FanOutGate(tuple(range(n)), n),
    ),
}


def check_builder(name: str, n: int, q: int, r: int = 0) -> EquivalenceReport:
    """Equivalence-check a builder's candidate against its target.

    Every candidate has at least n + 1 input lines, all compared, so a
    check past EQUIVALENCE_MAIN_CAP is refused before anything is built.
    """
    if n + 1 > EQUIVALENCE_MAIN_CAP:
        raise CapExceededError(
            f"at least {n + 1} compared lines exceed the equivalence cap {EQUIVALENCE_MAIN_CAP}"
        )
    spec = BUILDERS[name]
    candidate = spec.build(n, q, r)
    inputs = spec.inputs(n, q) if spec.inputs is not None else None
    return equivalence_check(spec.target(n, q, r), candidate, inputs=inputs)
