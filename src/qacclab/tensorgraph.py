"""Tensor graphs: a succinct representation of the state sets a layered
circuit produces, with amplitudes recoverable per basis vector.

A tensor graph is a DAG with one source and one terminal.  Vertical edges
carry a color product and an amplitude pair (for |0> and |1>); horizontal
edges are unlabeled routing between nodes of one height.  Every
source-to-terminal path crosses exactly one vertical edge per height, and
no node has vertical in- or out-degree above one.  A path denotes the
product state formed by its edges' amplitude pairs, weighted by the
product of its color factors; the amplitude of a basis vector is the sum
over paths of the per-height amplitudes times color products, evaluated
in path order.

Colors obey c*c = 1, anti*anti = 1 and c*anti = 0: a fresh color/anticolor
pair binds the two heights a controlled-not touches, so paths that pick
inconsistent control branches annihilate instead of the graph having to
fan out the span between the two lines.

A gate of a tensor layer lowers to a list of variants, and the gate is
their sum.  A variant maps some of the gate's lines to a local operator
(a0, a1) -> (b0, b1) on the amplitude pairs at that line's height; every
line it leaves out keeps the identity.  Variant 0 rewrites the edges of
the gate's span in place, and each further variant adds one parallel copy
of the span, so every path splits into one path per variant.  The
variants state these operator identities:

* Toffoli with controls, from AND_m(X) = I + P1(controls) (x) (X - I):
  [{}, {controls: P1, target: X - I}]; the empty variant keeps the span.
* fan-out, from F = P0 (x) I + P1 (x) X^(targets):
  [{control: P0}, {control: P1, targets: X}], with no targets too.
* every other gate is read off circuit.gate_kernel, the one statement of
  what it does.  On one line (U, H, H', a Toffoli with no controls) it is
  one in-place operator that sums its nonzero matrix entries: no
  structural change.  On k > 1 lines it is one variant per nonzero entry
  |y><x|, mapping each line to |y_i><x_i| with the entry's scalar on the
  gate's first line; such a gate is counted in dense_lowered_gates.

A controlled-not (c,t) in a layer, from P0 (x) I + P1 (x) X, is no sum of
span copies: every vertical edge at the control height splits into a
c-tagged (a0, 0) edge and an anticolor-tagged (0, a1) companion; at the
target height into a c-tagged unchanged edge and an anticolor-tagged
swapped companion.

The binding correctness contract for all of these is exact agreement with
the brute-force state-vector simulator.

apply_layer and tg_build leave their input unchanged: apply_layer copies
its input graph once and returns the copy.  The private rules behind it
(_apply_variants, _cnot_pair) change the graph they are given in place, so
a layer costs one copy, not one per gate.  The add_* methods change the
graph they are called on; they are for construction.

Every memory refusal goes through budget.hold.  A graph holds at most
budget.BUDGET nodes: add_node, through which every node passes, holds the
count the new node makes.  A gate on k > 1 lines lowered entry by entry
adds one copy of its span per variant past the first, so the graph's
nodes after all the copies are held before any is built: first with 2^k
variants, before the gate's kernel is built (a unitary has an entry in
every column), then with one variant per entry.  A path sum charges the
work budget one scalar product per vertical edge of each path, before it
walks.  The DP keeps one dict {(colors, antis): nonzero scalar} per node it
has reached but not yet left, and the terminal's, and merges each edge's
terms into the destination's dict in place.  It charges the work budget
one unit per color-term product, before it forms them, and holds the
terms of its dicts together after each merge.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from heapq import heapify, heappop, heappush

from .algebra import ExactScalar
from . import budget
from . import circuit as cir
from .budget import hold
from .circuit import (
    Circuit,
    CNotLayer,
    StagedCNotLayer,
    TensorLayer,
    ToffoliGate,
    FanOutGate,
    parse_bits,
)

PATH_CAP_DEFAULT = 10**6  # read by bench/worker.py alone, to choose the graphs it path-sums


class GraphError(RuntimeError):
    pass


# -- color algebra -------------------------------------------------------------


# A color product is a pair (colors, antis) of bit masks: bit i of colors is
# color i, bit i of antis its anticolor; no bit is set in both.  The empty
# product is the scalar 1.

UNIT_PRODUCT = (0, 0)


def color(cid: int) -> tuple[int, int]:
    return 1 << cid, 0


def anticolor(cid: int) -> tuple[int, int]:
    return 0, 1 << cid


def times(a, b):
    """The product a*b, or None when it annihilates (a color meets its
    anticolor); matching factors cancel pairwise."""
    (colors, antis), (other_colors, other_antis) = a, b
    if colors & other_antis or antis & other_colors:
        return None  # c * anti(c) = 0
    return colors ^ other_colors, antis ^ other_antis


def factors(p):
    """(color id, is anticolor) pairs of p, by color id."""
    colors, antis = p
    both = colors | antis
    while both:
        low = both & -both
        yield low.bit_length() - 1, bool(antis & low)
        both ^= low


# -- the graph -----------------------------------------------------------------


class TensorGraph:
    """Mutating builder methods are for construction; apply_layer never
    modifies its argument.

    levels indexes node ids by height, in insertion order.  The
    extraction order (_topo_nodes) is kept on the graph until add_node or
    add_hedge changes its structure; the path count (tg_path_count) is
    kept beside it, as (source, terminal, count), until add_node,
    add_vedge or add_hedge does.
    """

    def __init__(self, ctx, height: int):
        self.ctx = ctx
        self.height = height
        self.nodes: dict[int, int] = {}
        self.levels: dict[int, list[int]] = {}
        self.vout: dict[int, tuple] = {}  # src -> (dst, color product, a0, a1)
        self.vin: dict[int, int] = {}
        self.hout: dict[int, list[int]] = {}
        self.source: int | None = None
        self.terminal: int | None = None
        self._next_color = 0
        self.dense_lowered_gates = 0
        self._order: list[int] | None = None
        self._paths: tuple[int, int, int] | None = None

    # construction ---------------------------------------------------------

    def add_node(self, height: int) -> int:
        """A new node at `height`; node ids count up from 0."""
        nid = len(self.nodes)
        hold(nid + 1, "tensor graph nodes")
        self.nodes[nid] = height
        self.levels.setdefault(height, []).append(nid)
        self._order = self._paths = None
        return nid

    def add_vedge(self, src: int, dst: int, product: tuple[int, int], a0, a1):
        if src in self.vout:
            raise GraphError(f"node {src} already has a vertical out-edge")
        if dst in self.vin:
            raise GraphError(f"node {dst} already has a vertical in-edge")
        if self.nodes[dst] != self.nodes[src] + 1:
            raise GraphError("vertical edge must descend exactly one height")
        self.vout[src] = (dst, product, a0, a1)
        self.vin[dst] = src
        self._paths = None

    def add_hedge(self, src: int, dst: int):
        if self.nodes[src] != self.nodes[dst]:
            raise GraphError("horizontal edge must stay at one height")
        self.hout.setdefault(src, []).append(dst)
        self._order = self._paths = None

    def copy(self) -> "TensorGraph":
        g = TensorGraph(self.ctx, self.height)
        g.nodes = dict(self.nodes)
        g.levels = {h: list(ns) for h, ns in self.levels.items()}
        g.vout = dict(self.vout)
        g.vin = dict(self.vin)
        g.hout = {k: list(v) for k, v in self.hout.items()}
        g.source = self.source
        g.terminal = self.terminal
        g._next_color = self._next_color
        g.dense_lowered_gates = self.dense_lowered_gates
        return g

    # views ------------------------------------------------------------------

    def vedges_at(self, height: int) -> list[tuple]:
        """(src, dst, product, a0, a1) for vertical edges ending at height,
        by dst: the order span copies take their node ids in."""
        vout = self.vout
        out = [(src, *vout[src]) for src in self.levels.get(height - 1, ()) if src in vout]
        out.sort(key=lambda e: e[1])
        return out

    def width(self) -> int:
        return max(map(len, self.levels.values()), default=0)


def tg_init(bits: str, ctx) -> TensorGraph:
    """Width-1 chain for a basis state: edge k carries (1,0) or (0,1)."""
    parse_bits(bits, len(bits))  # refuses a character other than 0 or 1
    g = TensorGraph(ctx, len(bits))
    prev = g.add_node(0)
    g.source = prev
    one, zero = ctx.one(), ctx.zero()
    for k, b in enumerate(bits):
        node = g.add_node(k + 1)
        if b == "0":
            g.add_vedge(prev, node, UNIT_PRODUCT, one, zero)
        else:
            g.add_vedge(prev, node, UNIT_PRODUCT, zero, one)
        prev = node
    g.terminal = prev
    return g


# -- gate application ------------------------------------------------------------


def _local(entries, zero):
    """The local operator (a0, a1) -> (b0, b1) with b_y the sum of
    scalar * a_x over the (x, y, scalar) entries, in their order; a None
    scalar takes a_x as it is."""

    def op(a0, a1):
        a, b = (a0, a1), [None, None]
        for x, y, s in entries:
            term = a[x] if s is None else s * a[x]
            b[y] = term if b[y] is None else b[y] + term
        return [zero if v is None else v for v in b]

    return op


def _span_copy_nodes(g: TensorGraph, lines) -> int:
    """The nodes _apply_variants adds per variant past the first: one per
    edge into height lo, per node at heights lo..hi-1 and per edge into
    height hi."""
    lo, hi = min(lines) + 1, max(lines) + 1
    levels, vout = g.levels, g.vout
    inner = sum(len(levels.get(h, ())) for h in range(lo, hi))
    return inner + sum(src in vout for h in (lo - 1, hi - 1) for src in levels.get(h, ()))


def _lower(g: TensorGraph, gate) -> list[dict]:
    """The gate as a list of variants on g, by the identities in the module
    docstring; a gate lowered entry by entry is counted in
    g.dense_lowered_gates."""
    zero = g.ctx.zero()

    def p0(a0, a1):
        return a0, zero

    def p1(a0, a1):
        return zero, a1

    def flip(a0, a1):
        return a1, a0

    def flip_minus_id(a0, a1):
        return a1 - a0, a0 - a1

    if isinstance(gate, ToffoliGate) and gate.controls:
        return [{}, {**dict.fromkeys(gate.controls, p1), gate.target: flip_minus_id}]
    if isinstance(gate, FanOutGate):
        return [{gate.control: p0}, {**dict.fromkeys(gate.targets, flip), gate.control: p1}]
    lines = gate.lines()
    k = len(lines)
    if k > 1:  # a unitary has an entry in every column: at least 2^k variants
        copies = _span_copy_nodes(g, lines)
        what = f"tensor graph nodes after the span copies of a {k}-line gate"
        hold(len(g.nodes) + ((1 << k) - 1) * copies, what)
    codes = cir.block_codes(lines, g.height)  # value x of the lines -> key bits
    value_of = {c: x for x, c in enumerate(codes)}
    kernel = cir.gate_kernel(gate, g.height, g.ctx)
    entries = [(x, value_of[y], s) for x, c in enumerate(codes) for y, s in kernel(c)]
    if k == 1:
        return [{lines[0]: _local(entries, zero)}]
    hold(len(g.nodes) + (len(entries) - 1) * copies, what)
    g.dense_lowered_gates += 1
    return [
        {
            line: _local([(x >> sh & 1, y >> sh & 1, s if sh == k - 1 else None)], zero)
            for line, sh in zip(lines, range(k - 1, -1, -1))
        }
        for x, y, s in entries
    ]


def _apply_variants(g: TensorGraph, lines, variants) -> None:
    """Apply the sum of variants to the span of heights the lines cover:
    variants[0] in place, and one parallel copy of the span per further
    variant, entered by a horizontal edge at each height lo-1 node that
    starts a vertical edge and left through one at each height-hi landing
    node.  Each path splits into exactly len(variants) paths."""
    lo, hi = min(lines) + 1, max(lines) + 1
    vout = g.vout
    if len(variants) > 1:
        # the copies read this snapshot: the rewrite in place only relabels
        # original edges, and the copies only add nodes and edges
        span_edges = {h: g.vedges_at(h) for h in range(lo, hi + 1)}
    for line, op in variants[0].items():
        for src in g.levels.get(line, ()):
            edge = vout.get(src)
            if edge is not None:
                dst, product, a0, a1 = edge
                vout[src] = (dst, product, *op(a0, a1))
    if len(variants) == 1:
        return
    entry_nodes = [src for (src, *_rest) in span_edges[lo]]
    exit_nodes = [dst for (_src, dst, *_rest) in span_edges[hi]]
    internal = sorted(n for h in range(lo, hi) for n in g.levels.get(h, ()))
    for variant in variants[1:]:
        mapping = {}
        for n in entry_nodes + internal + exit_nodes:
            if n not in mapping:
                mapping[n] = g.add_node(g.nodes[n])
        for h in range(lo, hi + 1):
            op = variant.get(h - 1)
            for src, dst, product, a0, a1 in span_edges[h]:
                if op is not None:
                    a0, a1 = op(a0, a1)
                g.add_vedge(mapping[src], mapping[dst], product, a0, a1)
        for src in internal:
            for dst in g.hout.get(src, ()):  # routing inside the span
                if dst in mapping and lo <= g.nodes[dst] <= hi - 1:
                    g.add_hedge(mapping[src], mapping[dst])
        for n in entry_nodes:
            g.add_hedge(n, mapping[n])
        for n in exit_nodes:
            g.add_hedge(mapping[n], n)


def _cnot_pair(g: TensorGraph, control: int, target: int) -> None:
    """Color-bound split of the control and target heights.

    Control edges become (C*c, a0, 0) with an anticolor companion
    (C*~c, 0, a1); target edges become (C*c, a0, a1) with companion
    (C*~c, a1, a0).  Mixed picks annihilate through c*~c = 0, so only the
    two globally consistent branch choices survive.
    """
    cid = g._next_color
    g._next_color += 1
    c, anti = color(cid), anticolor(cid)
    zero = g.ctx.zero()
    for height, is_control in ((control + 1, True), (target + 1, False)):
        # control companions start no vertical edge at the target height,
        # so its pass reads the original edges there
        for src, dst, product, a0, a1 in g.vedges_at(height):
            tagged = times(product, c)
            companion_product = times(product, anti)
            if is_control:
                g.vout[src] = (dst, tagged, a0, zero)
                comp = (companion_product, zero, a1)
            else:
                g.vout[src] = (dst, tagged, a0, a1)
                comp = (companion_product, a1, a0)
            p = g.add_node(height - 1)
            r = g.add_node(height)
            g.add_hedge(src, p)
            g.add_vedge(p, r, *comp)
            g.add_hedge(r, dst)


def apply_layer(g: TensorGraph, layer) -> TensorGraph:
    """A copy of g with the layer applied; g itself is left unchanged."""
    if isinstance(layer, TensorLayer):
        out = g.copy()
        for gate in layer.gates:
            _apply_variants(out, gate.lines(), _lower(out, gate))
        return out
    if not isinstance(layer, (CNotLayer, StagedCNotLayer)):
        raise TypeError(f"unknown layer {type(layer).__name__}")
    out = g.copy()
    for stage in layer.stages:
        for control, target in stage:
            _cnot_pair(out, control, target)
    return out


def tg_build(c: Circuit, input_bits: str) -> TensorGraph:
    """Graph whose amplitude map equals running the circuit on |x, 0^aux>."""
    parse_bits(input_bits, c.n_inputs)
    hold(c.width, "circuit lines")  # a basis key holds one bit per line
    g = tg_init(input_bits + "0" * c.n_aux, c.context)
    for layer in c.layers:
        g = apply_layer(g, layer)
    return g


# -- amplitude extraction --------------------------------------------------------


def _topo_nodes(g: TensorGraph) -> list[int]:
    """Heights ascending; within one height, horizontal-edge topological,
    taking the smallest ready node id first so sums run in a fixed order.

    Kept on the graph until add_node or add_hedge changes it.
    """
    if g._order is not None:
        return g._order
    hout = g.hout
    order = []
    for h in sorted(g.levels):
        nodes = g.levels[h]
        indeg = dict.fromkeys(nodes, 0)
        for src in nodes:
            for dst in hout.get(src, ()):  # add_hedge keeps dst at height h
                indeg[dst] += 1
        ready = [n for n in nodes if not indeg[n]]
        heapify(ready)
        start = len(order)
        while ready:
            n = heappop(ready)
            order.append(n)
            for dst in hout.get(n, ()):
                indeg[dst] -= 1
                if not indeg[dst]:
                    heappush(ready, dst)
        if len(order) - start != len(nodes):
            raise GraphError(f"horizontal cycle at height {h}")
    g._order = order
    return order


def tg_amplitude_dp(g: TensorGraph, target_bits: str) -> ExactScalar:
    """Height-by-height dynamic program over color terms.

    Accumulates, per reached node, the amplitude of the target prefix over
    all partial paths as one dict {(colors, antis): nonzero ExactScalar}, into
    which each in-edge merges its terms in place; color products multiply in
    path order, the regime where the algebra behaves associatively.  A dict
    is dropped once its node's out-edges are processed, so the terms held
    after each contribution, at most budget.BUDGET, are the frontier's and
    the terminal's.  A Work meter is charged one unit per color-term
    product, before the products are formed.
    """
    parse_bits(target_bits, g.height)
    work = budget.Work()
    what = f"the amplitude DP over {len(g.nodes)} nodes"
    held_what = f"color terms held at once by {what}"
    acc = {g.source: {UNIT_PRODUCT: g.ctx.one()}}  # reached, not yet left
    held = 1  # terms in acc

    def add(dst, pairs):
        nonlocal held
        terms = acc.setdefault(dst, {})  # dst's own: a node feeds all its out-edges
        held -= len(terms)
        for product, scalar in pairs:
            prev = terms.get(product)
            new = scalar if prev is None else prev + scalar
            if new.is_zero():
                terms.pop(product, None)
            else:
                terms[product] = new
        held += len(terms)
        hold(held, held_what)

    for node in _topo_nodes(g):
        terms = acc.get(node)
        if terms is None:
            continue
        n = len(terms)
        if n:
            for dst in g.hout.get(node, ()):
                add(dst, terms.items())
            edge = g.vout.get(node)
            if edge is not None:
                dst, product, a0, a1 = edge
                amp = a0 if target_bits[g.nodes[dst] - 1] == "0" else a1
                if not amp.is_zero():
                    work.charge(n, what)
                    # p -> p*product XORs the masks: no two of these pairs share a product
                    add(dst, ((pq, s * amp) for p, s in terms.items()
                              if (pq := times(p, product)) is not None))
        if node != g.terminal:
            del acc[node]
            held -= n
    final = acc.get(g.terminal, {})
    if any(p != UNIT_PRODUCT for p in final):
        raise GraphError("terminal value keeps color factors: graph is not color consistent")
    return final.get(UNIT_PRODUCT, g.ctx.zero())


def tg_path_count(g: TensorGraph) -> int:
    """Number of source-terminal paths; kept on the graph as (source,
    terminal, count) until add_node, add_vedge or add_hedge drops it."""
    kept = g._paths
    if kept is not None and kept[0] == g.source and kept[1] == g.terminal:
        return kept[2]
    count = {g.source: 1}
    for node in _topo_nodes(g):
        c = count.get(node)
        if not c:
            continue
        for dst in g.hout.get(node, ()):
            count[dst] = count.get(dst, 0) + c
        if node in g.vout:
            dst = g.vout[node][0]
            count[dst] = count.get(dst, 0) + c
    n_paths = count.get(g.terminal, 0)
    g._paths = (g.source, g.terminal, n_paths)
    return n_paths


def tg_amplitude_paths(g: TensorGraph, target_bits: str) -> ExactScalar:
    """Sum over explicit source-terminal paths; color-annihilated paths drop.

    Charges a Work meter one unit per path and height up front."""
    parse_bits(target_bits, g.height)
    n_paths = tg_path_count(g)
    budget.Work().charge(n_paths * g.height, f"summing {n_paths} paths of height {g.height}")
    ctx = g.ctx
    total = ctx.zero()
    stack = [(g.source, UNIT_PRODUCT, ctx.one())]
    while stack:
        node, product, scalar = stack.pop()
        if node == g.terminal:
            if product != UNIT_PRODUCT:
                raise GraphError("path ends with open colors: graph is not color consistent")
            total = total + scalar
            continue
        for dst in g.hout.get(node, ()):
            stack.append((dst, product, scalar))
        if node in g.vout:
            dst, eproduct, a0, a1 = g.vout[node]
            amp = a0 if target_bits[g.nodes[dst] - 1] == "0" else a1
            if amp.is_zero():
                continue
            new_product = times(product, eproduct)
            if new_product is None:
                continue
            new_scalar = scalar * amp
            if new_scalar.is_zero():
                continue
            stack.append((dst, new_product, new_scalar))
    return total


# -- metrics ---------------------------------------------------------------------


@dataclass(frozen=True)
class GraphMetrics:
    width: int
    height: int
    path_count: int
    color_depth: int
    color_consistent: bool
    dense_lowered_gates: int

    def to_json(self) -> dict:
        return asdict(self)


def tg_metrics(g: TensorGraph) -> GraphMetrics:
    heights_of_color: dict[int, dict[bool, set]] = {}
    for src, (dst, product, _a0, _a1) in g.vout.items():
        h = g.nodes[dst]
        for cid, anti in factors(product):
            heights_of_color.setdefault(cid, {False: set(), True: set()})[anti].add(h)
    consistent = True
    spans = []
    for cid, polarity_heights in heights_of_color.items():
        all_heights = polarity_heights[False] | polarity_heights[True]
        if len(all_heights) != 2 or polarity_heights[False] != polarity_heights[True]:
            consistent = False
        if len(all_heights) >= 2:
            spans.append((min(all_heights), max(all_heights)))
    color_depth = 0
    for h in range(g.height + 1):
        active = sum(1 for lo, hi in spans if lo <= h < hi)
        color_depth = max(color_depth, active)
    return GraphMetrics(
        width=g.width(),
        height=g.height,
        path_count=tg_path_count(g),
        color_depth=color_depth,
        color_consistent=consistent,
        dense_lowered_gates=g.dense_lowered_gates,
    )


# -- serialization -----------------------------------------------------------------


def tg_to_json(g: TensorGraph) -> dict:
    nodes = [{"id": n, "height": h} for n, h in sorted(g.nodes.items())]
    vedges = []
    for src in sorted(g.vout):
        dst, product, a0, a1 = g.vout[src]
        vedges.append(
            {
                "from": src,
                "to": dst,
                "colors": [[cid, int(anti)] for cid, anti in factors(product)],
                "amp0": a0.to_json(),
                "amp1": a1.to_json(),
            }
        )
    hedges = [
        {"from": src, "to": dst}
        for src in sorted(g.hout)
        for dst in g.hout[src]
    ]
    return {
        "nodes": nodes,
        "vedges": vedges,
        "hedges": hedges,
        "source": g.source,
        "terminal": g.terminal,
    }
