"""Seeded input generators for the benchmark.

Everything here is plain Python with no import of the program under test:
the generators turn a seed into DSL text, builder arguments, integer
coordinates and polynomial dicts, so the program receives only the
generated inputs.  One pass of a workload is generated from the pair
(seed, pass index); the same pair always gives the same inputs.
"""

from __future__ import annotations

import math
import random

# Compared lines are capped at 12 by the equivalence checker and whole
# circuits at 20 lines by the state-vector simulator.  These are the largest
# n each permutation-only builder fits under both caps, per q; the widths do
# not depend on r except through modqr_from_modq's extra lines, which stay
# within the cap for every r.
PERM_BUILDER_MAX_N = {
    "modqr_from_modq": {2: 11, 3: 11, 5: 11, 7: 11},
    "modq_from_mq": {2: 11, 3: 8, 5: 5, 7: 5},
    "modhat": {2: 11, 3: 5, 5: 2, 7: 2},
    "mq_from_modq": {2: 11, 3: 4, 5: 1, 7: 1},
    "f_from_fq": {2: 9, 3: 6, 5: 4, 7: 4},
}
PERM_BUILDERS_WITH_R = ("modqr_from_modq", "modhat")

# mq_via_conjugation grid: one point per q in {2,3,5,7}; (2,5) is the
# reference point for check_builder timings.  At q=2, n=5 costs about as
# much as the q=7 point and the q=7 block check, so that the tail of a run
# falls among ops of three kinds; with n=6 it fell on the boundary between
# n=6's checks and the q=7 block checks and jumped between the two.
FOURIER_GRID = ((2, 5), (1, 7), (5, 2), (2, 3))
# Random block circuits per pass, by q, and their qudigit blocks.  A check
# at q=7 costs several times one at q=5 and ten times one at q=3, so the mix
# is fixed rather than drawn; most are q=3 so that the median op is one of
# many alike.
FOURIER_RANDOM_MIX = {3: 10, 5: 3, 7: 1}
FOURIER_RANDOM_BLOCKS = {3: 3, 5: 2, 7: 2}

# algebra-products: context name -> (u, dimension, factor count of each
# product in a pass).  The counts are fixed because an interpolated
# product's lattice grows as C(k+d, d): they keep it to dimension <= 4 or
# few factors, and a fixed mix keeps the pass's cost from depending on draws.
SCALAR_CONTEXTS = {
    "rational10": (10, 1, (4, 8)),
    "cyclotomic2": (2, 2, (3, 6)),
    "cyclotomic3": (3, 4, (2, 4)),
    "cyclotomic5": (5, 4, (2, 4)),
    "cyclotomic7": (7, 12, (2, 2)),
}
# 2-variate integer polynomial products at LatticeSpec(2, 20), by factor
# count.  Every product has total degree exactly the bound, split as evenly
# as the factor count allows, and every factor has half of its monomials.
# They all cost about the same (the lattice's 231 basis polynomials
# dominate, not the factors), and the host this was tuned on alternates
# between a fast and a slow phase about 1.8 times apart.  A median that falls
# in the middle of many equal ops then jumps between the two phases; with
# 11 of these to the 10 scalar products, the median op is among the fastest
# polynomial products and the tail among the slowest, where it holds.
IPOLY_FACTOR_COUNTS = ((2, 3, 4) * 4)[:11]
IPOLY_DEGREE_BOUND = 20

# graph-amp runs one fixed suite of circuit structures in every pass; the
# seed and pass index pick each circuit's input and targets.  Graph size is
# the input size of this workload and varies by orders of magnitude between
# random circuits, so a suite drawn afresh per seed would make throughput
# measure which circuits were drawn rather than the engine.  For the same
# reason each tensor layer has a fixed number of Toffoli/fan-out gates: with
# a random count, graphs ranged from about 100 to 60,000 nodes and a single
# circuit could outlast a whole run.
GRAPH_SUITE_SEED = 0
GRAPH_SUITE_SIZE = 24
GRAPH_MULTI_GATES = 3


def pass_rng(seed: int, pass_index: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def block_width(q: int) -> int:
    return max(1, math.ceil(math.log2(q)))


def _block(lines) -> str:
    return "(" + " ".join(str(l) for l in lines) + ")"


# -- equiv-fourier -----------------------------------------------------------


def random_block_circuit(rng: random.Random, q: int) -> dict:
    """Three layers on whole qudigit blocks: a Fourier gate on one block, a
    modular add of every other block into one, and a q-ary fan-out from one
    block into the rest.  The seed picks the blocks' roles and which gates
    are inverses.  The gate counts are fixed, so a check's cost depends on
    q: with random gate counts it varied over a factor of four."""
    w = block_width(q)
    blocks = [_block(range(i * w, (i + 1) * w)) for i in range(FOURIER_RANDOM_BLOCKS[q])]

    def prime():
        return "'" if rng.random() < 0.5 else ""

    rng.shuffle(blocks)
    control = rng.choice(blocks)
    targets = [b for b in blocks if b != control]
    layers = [
        f"layer {{ HQ{prime()} {q} [{rng.choice(blocks)}] }}",
        f"layer {{ MQ{prime()} {q} [{','.join(blocks[1:])} -> {blocks[0]}] }}",
        f"layer {{ FQ{prime()} {q} [{','.join(targets)} <- {control}] }}",
    ]
    width = len(blocks) * w
    text = f"circuit n={width} aux=0 context=cyclotomic{q}\n" + "\n".join(layers) + "\n"
    return {"q": q, "width": width, "dsl": text}


def equiv_fourier_pass(seed: int, pass_index: int) -> list[dict]:
    """The mq_via_conjugation grid, then a fixed mix of random block circuits."""
    rng = pass_rng(seed, pass_index, "equiv-fourier")
    ops = [
        {"kind": "builder", "builder": "mq_via_conjugation", "n": n, "q": q, "r": 0}
        for n, q in FOURIER_GRID
    ]
    for q, count in FOURIER_RANDOM_MIX.items():
        ops += [{"kind": "blocks", **random_block_circuit(rng, q)} for _ in range(count)]
    return ops


# -- equiv-perm ----------------------------------------------------------------


def equiv_perm_pass(seed: int, pass_index: int) -> list[dict]:
    """Every permutation-only builder at every q, in a seeded order.  r
    walks a seeded permutation of 0..q-1 across passes, so a run covers the
    values of r evenly whatever the seed (r sets modqr_from_modq's extra
    lines and with them the check's cost)."""
    rng = pass_rng(seed, pass_index, "equiv-perm")
    ops = []
    for name, by_q in PERM_BUILDER_MAX_N.items():
        for q, n in by_q.items():
            r = 0
            if name in PERM_BUILDERS_WITH_R:
                order = list(range(q))
                random.Random(f"equiv-perm:{seed}:{name}:{q}").shuffle(order)
                r = order[pass_index % q]
            ops.append({"kind": "builder", "builder": name, "n": n, "q": q, "r": r})
    rng.shuffle(ops)
    return ops


# -- graph-amp -------------------------------------------------------------------

# gate specs: ("h", line) ("x", line) ("z", line) ("tof", controls, target)
# ("fan", targets, control); a cnot layer is ("cnot", pairs)


def _single_gates(rng, lines_left):
    gates = []
    for line in lines_left:
        kind = rng.choice(("h", "x", "z", "skip"))
        if kind != "skip":
            gates.append((kind, line))
    return gates


def _scattered_tensor_layer(rng, lines, multi):
    """`multi` Toffoli/fan-out gates on randomly scattered lines (the tests'
    random layout), one-qubit gates or nothing on the other lines."""
    avail = list(range(lines))
    rng.shuffle(avail)
    gates = []
    for _ in range(multi):
        k = rng.randint(1, 2)
        many = [avail.pop() for _ in range(k)]
        gates.append((rng.choice(("tof", "fan")), tuple(many), avail.pop()))
    return gates + _single_gates(rng, avail)


def _contiguous_tensor_layer(rng, lines, multi):
    """`multi` Toffoli/fan-out gates, each on a run of adjacent lines: the
    paper's layered form, in which wires cross only in controlled-not
    layers.  One-qubit gates or nothing on the other lines."""
    sizes = [rng.randint(2, 3) for _ in range(multi)]
    segments = sizes + [1] * (lines - sum(sizes))
    rng.shuffle(segments)
    gates, singles, line = [], [], 0
    for size in segments:
        span = list(range(line, line + size))
        line += size
        if size == 1:
            singles.extend(span)
            continue
        if rng.random() < 0.5:
            span.reverse()
        gates.append((rng.choice(("tof", "fan")), tuple(span[:-1]), span[-1]))
    return gates + _single_gates(rng, singles)


def _cnot_layer(rng, lines):
    avail = list(range(lines))
    rng.shuffle(avail)
    pairs = []
    while len(avail) >= 2:
        pairs.append((avail.pop(), avail.pop()))
        if rng.random() < 0.4:
            break
    return ("cnot", tuple(sorted(pairs, key=min)))


def random_graph_circuit(rng: random.Random, contiguous: bool, multi: int = GRAPH_MULTI_GATES) -> dict:
    lines = rng.randint(16, 20)
    n_layers = 4
    cnot_at = rng.randrange(n_layers)
    layers = []
    for i in range(n_layers):
        if i == cnot_at or rng.random() < 0.25:
            layers.append(_cnot_layer(rng, lines))
        elif contiguous:
            layers.append(_contiguous_tensor_layer(rng, lines, multi))
        else:
            layers.append(_scattered_tensor_layer(rng, lines, multi))
    return {"lines": lines, "layers": layers}


def graph_dsl(spec: dict) -> str:
    out = [f"circuit n={spec['lines']} aux=0 context=cyclotomic2"]
    for layer in spec["layers"]:
        if isinstance(layer, tuple) and layer[0] == "cnot":
            out.append("cnotlayer { " + "; ".join(f"{a} -> {b}" for a, b in layer[1]) + " }")
            continue
        texts = []
        for g in layer:
            kind = g[0]
            if kind == "h":
                texts.append(f"H [{g[1]}]")
            elif kind == "x":
                texts.append(f"TOF [-> {g[1]}]")
            elif kind == "z":
                texts.append(f"U [[1,0],[0,-1]] [{g[1]}]")
            elif kind == "tof":
                texts.append(f"TOF [{' '.join(map(str, g[1]))} -> {g[2]}]")
            else:
                texts.append(f"FAN [{' '.join(map(str, g[1]))} <- {g[2]}]")
        out.append("layer { " + "; ".join(texts) + " }")
    return "\n".join(out) + "\n"


def float_support(spec: dict, input_bits: str) -> list[str]:
    """Basis states with a non-negligible amplitude, from a double-precision
    simulation written independently of the program; used only to pick
    targets worth asking for."""
    width = spec["lines"]

    def bit(key, line):
        return (key >> (width - 1 - line)) & 1

    def flip(key, line):
        return key ^ (1 << (width - 1 - line))

    state = {int(input_bits, 2): 1 + 0j}
    root = 1 / math.sqrt(2)
    for layer in spec["layers"]:
        if isinstance(layer, tuple) and layer[0] == "cnot":
            new = {}
            for key, amp in state.items():
                out = key
                for ctrl, tgt in layer[1]:
                    if bit(key, ctrl):
                        out = flip(out, tgt)
                new[out] = new.get(out, 0j) + amp
            state = new
            continue
        for g in layer:
            new = {}
            for key, amp in state.items():
                kind = g[0]
                if kind == "h":
                    sign = -1 if bit(key, g[1]) else 1
                    new[key & ~(1 << (width - 1 - g[1]))] = (
                        new.get(key & ~(1 << (width - 1 - g[1])), 0j) + amp * root
                    )
                    one = key | (1 << (width - 1 - g[1]))
                    new[one] = new.get(one, 0j) + sign * amp * root
                    continue
                if kind == "x":
                    key = flip(key, g[1])
                elif kind == "z":
                    amp = -amp if bit(key, g[1]) else amp
                elif kind == "tof":
                    if all(bit(key, c) for c in g[1]):
                        key = flip(key, g[2])
                elif bit(key, g[2]):
                    for t in g[1]:
                        key = flip(key, t)
                new[key] = new.get(key, 0j) + amp
            state = new
    return sorted(
        format(key, f"0{width}b") for key, amp in state.items() if abs(amp) > 1e-9
    )


def graph_suite() -> list[dict]:
    """The fixed circuit structures graph-amp runs in every pass."""
    rng = random.Random(f"graph-suite:{GRAPH_SUITE_SEED}")
    return [random_graph_circuit(rng, contiguous=bool(i % 2)) for i in range(GRAPH_SUITE_SIZE)]


def graph_amp_pass(seed: int, pass_index: int) -> list[dict]:
    rng = pass_rng(seed, pass_index, "graph-amp")
    ops = []
    for i, spec in enumerate(graph_suite()):
        lines = spec["lines"]
        input_bits = "".join(rng.choice("01") for _ in range(lines))
        support = float_support(spec, input_bits)
        targets = rng.sample(support, min(4, len(support)))
        while len(targets) < 6:
            targets.append("".join(rng.choice("01") for _ in range(lines)))
        ops.append(
            {
                "kind": "graph",
                "index": i,
                "layout": "contiguous" if i % 2 else "scattered",
                "lines": lines,
                "dsl": graph_dsl(spec),
                "input": input_bits,
                "targets": targets,
            }
        )
    return ops


# -- algebra-products --------------------------------------------------------------


def random_scalar_coords(rng: random.Random, u: int, dim: int) -> list[tuple[int, int]]:
    """Coordinates as (numerator, power of u in the denominator), all
    nonzero, so a product's cost depends on its dimension and factor count
    rather than on how many zero coordinates were drawn."""
    return [(rng.choice(NONZERO_DIGITS), rng.randint(0, 2)) for _ in range(dim)]


NONZERO_DIGITS = tuple(v for v in range(-9, 10) if v)


def random_ipoly(rng: random.Random, degree: int) -> dict:
    """A 2-variate integer polynomial of total degree exactly `degree` with
    nonzero coefficients on half of its monomials, one of top degree."""
    top = [(i, degree - i) for i in range(degree + 1)]
    rest = [(i, j) for i in range(degree + 1) for j in range(degree - i)]
    count = (len(top) + len(rest)) // 2
    chosen = [rng.choice(top)] + rng.sample(rest, count - 1)
    return {e: rng.choice(NONZERO_DIGITS) for e in chosen}


def algebra_pass(seed: int, pass_index: int) -> list[dict]:
    rng = pass_rng(seed, pass_index, "algebra-products")
    ops = []
    for name, (u, dim, factor_counts) in SCALAR_CONTEXTS.items():
        for k in factor_counts:
            factors = [random_scalar_coords(rng, u, dim) for _ in range(k)]
            ops.append({"kind": "scalar", "context": name, "factors": factors})
    for k in IPOLY_FACTOR_COUNTS:
        q, extra = divmod(IPOLY_DEGREE_BOUND, k)
        degrees = [q + 1] * extra + [q] * (k - extra)
        rng.shuffle(degrees)
        factors = [[[list(e), c] for e, c in sorted(random_ipoly(rng, d).items())] for d in degrees]
        ops.append({"kind": "ipoly", "factors": factors})
    rng.shuffle(ops)
    return ops


PASS_GENERATORS = {
    "equiv-fourier": equiv_fourier_pass,
    "equiv-perm": equiv_perm_pass,
    "graph-amp": graph_amp_pass,
    "algebra-products": algebra_pass,
}


def make_pass(workload: str, seed: int, pass_index: int) -> list[dict]:
    return PASS_GENERATORS[workload](seed, pass_index)
