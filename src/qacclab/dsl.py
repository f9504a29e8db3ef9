"""Text format for circuits, with a tolerant tokenizer and precise errors.

Grammar (EBNF):

    circuit   = header layer* ;
    header    = "circuit" "n" "=" INT "aux" "=" INT ["context" "=" NAME] ;
    layer     = "layer" "{" gate (";" gate)* "}"
              | "cnotlayer" "{" pair (";" pair)* "}"
              | "cnotstages" "{" stage ("|" stage)* "}" ;
    stage     = pair (";" pair)* ;
    pair      = INT "->" INT ;
    gate      = "H" "[" INT "]"
              | "U" matrix "[" INT "]"
              | "TOF" "[" INT* "->" INT "]"
              | "FAN" "[" INT* "<-" INT "]"
              | "MOD" INT INT "[" INT+ "->" INT "]"
              | "MQ" ["'"] INT "[" block ("," block)* "->" block "]"
              | "FQ" ["'"] INT "[" block ("," block)* "<-" block "]"
              | "HQ" ["'"] INT "[" block "]"
              | "T"  ["'"] INT "[" block "->" block "]" ;
    block     = "(" INT+ ")" ;
    matrix    = "[" row "," row "]" ;      row = "[" scalar "," scalar "]" ;
    scalar    = ["+"|"-"] term (("+"|"-") term)* ;
    term      = factor ("*" factor)* ;
    factor    = INT ["/" INT] | NAME ["^" INT] ;

"#" starts a comment running to the end of the line.  A prime after a
block-gate keyword marks the inverse gate.  Scalar literals are exact:
rationals (denominators must divide a power of the context's u) times
products of context symbols; floating literals are rejected by
construction.  One-qubit matrices use the column-is-input convention.

Serialization is canonical: gates sort by their lowest line, blocks print
their lines in order, and parse(serialize(c)) == c for canonical circuits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import CONTEXT_DIM_CAP, AlgebraContext, ContextError, ExactScalar, get_context
from .circuit import (
    AddBlockGate,
    AddModGate,
    Circuit,
    CNotLayer,
    FanOutGate,
    FanOutModGate,
    FourierGate,
    ModGate,
    OneQubitGate,
    StagedCNotLayer,
    TensorLayer,
    ToffoliGate,
)

GATE_KEYWORDS = ("H", "U", "TOF", "FAN", "MOD", "MQ", "FQ", "HQ", "T")

# NAME ^ INT multiplies INT times.  Every basis name z^j that scalar_to_text
# prints has j below a context's dimension, so it still parses.
EXPONENT_CAP = CONTEXT_DIM_CAP


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        full = f"{line}:{col}: {message}"
        if self.expected:
            full += f" (expected {', '.join(self.expected)})"
        super().__init__(full)


@dataclass(frozen=True)
class Token:
    kind: str  # INT | NAME | PUNCT | EOF
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r]+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<newline>\n)"
    r"|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>->|<-|[][}{)(;,=|'^*/+-])"
)


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        pos = m.end()
        if m.lastgroup == "newline":
            line += 1
            col = 1
            continue
        if m.lastgroup in ("ws", "comment"):
            col += len(m.group())
            continue
        kind = {"int": "INT", "name": "NAME", "punct": "PUNCT"}[m.lastgroup]
        tokens.append(Token(kind, m.group(), line, col))
        col += len(m.group())
    tokens.append(Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], context: AlgebraContext):
        self.tokens = tokens
        self.pos = 0
        self.ctx = context

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, expected=()):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col, expected)

    def expect(self, kind, text=None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(
                f"found {tok.text!r}" if tok.kind != "EOF" else "unexpected end of input",
                tok.line,
                tok.col,
                expected=(want,),
            )
        return self.next()

    def accept(self, kind, text=None) -> Token | None:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    # -- grammar ---------------------------------------------------------

    def parse_int(self) -> int:
        tok = self.expect("INT")
        try:
            return int(tok.text)
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(str(exc), tok.line, tok.col) from exc

    def parse_layers(self):
        layers = []
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                return layers
            if tok.kind != "NAME":
                self.fail(f"found {tok.text!r}", ("layer", "cnotlayer", "cnotstages"))
            if tok.text == "layer":
                self.next()
                layers.append(self.parse_tensor_layer())
            elif tok.text == "cnotlayer":
                self.next()
                self.expect("PUNCT", "{")
                pairs = [self.parse_pair()]
                while self.accept("PUNCT", ";"):
                    pairs.append(self.parse_pair())
                self.expect("PUNCT", "}")
                layers.append(CNotLayer(tuple(pairs)))
            elif tok.text == "cnotstages":
                self.next()
                self.expect("PUNCT", "{")
                stages = [self.parse_stage()]
                while self.accept("PUNCT", "|"):
                    stages.append(self.parse_stage())
                self.expect("PUNCT", "}")
                layers.append(StagedCNotLayer(tuple(stages)))
            else:
                self.fail(f"found {tok.text!r}", ("layer", "cnotlayer", "cnotstages"))

    def parse_stage(self):
        pairs = [self.parse_pair()]
        while self.accept("PUNCT", ";"):
            pairs.append(self.parse_pair())
        return tuple(pairs)

    def parse_pair(self):
        ctrl = self.parse_int()
        self.expect("PUNCT", "->")
        tgt = self.parse_int()
        return (ctrl, tgt)

    def parse_tensor_layer(self) -> TensorLayer:
        self.expect("PUNCT", "{")
        gates = [self.parse_gate()]
        while self.accept("PUNCT", ";"):
            gates.append(self.parse_gate())
        self.expect("PUNCT", "}")
        return TensorLayer(tuple(gates))

    def parse_gate(self):
        tok = self.peek()
        if tok.kind != "NAME" or tok.text not in GATE_KEYWORDS:
            self.fail(f"found {tok.text!r}", GATE_KEYWORDS)
        name = self.next().text
        if name == "H":
            self.expect("PUNCT", "[")
            line = self.parse_int()
            self.expect("PUNCT", "]")
            return FourierGate(2, (line,))
        if name == "U":
            matrix = self.parse_matrix()
            self.expect("PUNCT", "[")
            line = self.parse_int()
            self.expect("PUNCT", "]")
            return OneQubitGate(matrix, line)
        if name == "TOF":
            self.expect("PUNCT", "[")
            controls = self.parse_ints()
            self.expect("PUNCT", "->")
            target = self.parse_int()
            self.expect("PUNCT", "]")
            return ToffoliGate(tuple(controls), target)
        if name == "FAN":
            self.expect("PUNCT", "[")
            targets = self.parse_ints()
            self.expect("PUNCT", "<-")
            control = self.parse_int()
            self.expect("PUNCT", "]")
            return FanOutGate(tuple(targets), control)
        if name == "MOD":
            q = self.parse_int()
            r = self.parse_int()
            self.expect("PUNCT", "[")
            inputs = self.parse_ints()
            self.expect("PUNCT", "->")
            output = self.parse_int()
            self.expect("PUNCT", "]")
            return ModGate(q, r, tuple(inputs), output)
        inverse = self.accept("PUNCT", "'") is not None
        q = self.parse_int()
        self.expect("PUNCT", "[")
        if name == "MQ":
            blocks = self.parse_blocks()
            self.expect("PUNCT", "->")
            result = self.parse_block()
            self.expect("PUNCT", "]")
            return AddModGate(q, blocks, result, inverse)
        if name == "FQ":
            blocks = self.parse_blocks()
            self.expect("PUNCT", "<-")
            control = self.parse_block()
            self.expect("PUNCT", "]")
            return FanOutModGate(q, blocks, control, inverse)
        if name == "HQ":
            block = self.parse_block()
            self.expect("PUNCT", "]")
            return FourierGate(q, block, inverse)
        if name == "T":
            addend = self.parse_block()
            self.expect("PUNCT", "->")
            result = self.parse_block()
            self.expect("PUNCT", "]")
            return AddBlockGate(q, addend, result, inverse)
        raise AssertionError(name)

    def parse_ints(self) -> list[int]:
        out = []
        while self.peek().kind == "INT":
            out.append(self.parse_int())
        return out

    def parse_blocks(self):
        blocks = [self.parse_block()]
        while self.accept("PUNCT", ","):
            blocks.append(self.parse_block())
        return tuple(blocks)

    def parse_block(self):
        self.expect("PUNCT", "(")
        lines = self.parse_ints()
        if not lines:
            self.fail("empty block", ("INT",))
        self.expect("PUNCT", ")")
        return tuple(lines)

    def parse_matrix(self):
        self.expect("PUNCT", "[")
        row0 = self.parse_row()
        self.expect("PUNCT", ",")
        row1 = self.parse_row()
        self.expect("PUNCT", "]")
        return (row0, row1)

    def parse_row(self):
        self.expect("PUNCT", "[")
        a = self.parse_scalar()
        self.expect("PUNCT", ",")
        b = self.parse_scalar()
        self.expect("PUNCT", "]")
        return (a, b)

    def parse_scalar(self) -> ExactScalar:
        total = self.ctx.zero()
        sign = 1
        if self.accept("PUNCT", "-"):
            sign = -1
        else:
            self.accept("PUNCT", "+")
        while True:
            term = self.parse_term()
            total = total + (term if sign > 0 else -term)
            if self.accept("PUNCT", "+"):
                sign = 1
            elif self.accept("PUNCT", "-"):
                sign = -1
            else:
                return total

    def parse_term(self) -> ExactScalar:
        value = self.parse_factor()
        while self.accept("PUNCT", "*"):
            value = value * self.parse_factor()
        return value

    def parse_factor(self) -> ExactScalar:
        tok = self.peek()
        if tok.kind == "INT":
            num = self.parse_int()
            if self.accept("PUNCT", "/"):
                den = self.parse_int()
                if den == 0:
                    self.fail("zero denominator")
                try:
                    return self.ctx.scalar_from_rational(Fraction(num, den))
                except ContextError as exc:
                    raise ParseError(str(exc), tok.line, tok.col) from exc
            return self.ctx.from_int(num)
        if tok.kind == "NAME":
            name = self.next().text
            try:
                base = self.ctx.symbol(name)
            except ContextError as exc:
                raise ParseError(str(exc), tok.line, tok.col) from exc
            if self.accept("PUNCT", "^"):
                exp_tok = self.peek()
                k = self.parse_int()
                if k > EXPONENT_CAP:
                    raise ParseError(
                        f"exponent {k} is above the cap {EXPONENT_CAP}", exp_tok.line, exp_tok.col
                    )
                out = self.ctx.one()
                for _ in range(k):
                    out = out * base
                return out
            return base
        self.fail(f"found {tok.text!r}", ("INT", "NAME"))


def parse_circuit(text: str, context: AlgebraContext | None = None) -> Circuit:
    """Parse DSL text into a Circuit, which validates itself when made.

    The context is the one the header names, else cyclotomic2.  `context`
    overrides both (used when loading a circuit against a context from a
    JSON file).
    """
    tokens = tokenize(text)
    parser = _Parser(tokens, context if context is not None else get_context("cyclotomic2"))
    parser.expect("NAME", "circuit")
    parser.expect("NAME", "n")
    parser.expect("PUNCT", "=")
    n_inputs = parser.parse_int()
    parser.expect("NAME", "aux")
    parser.expect("PUNCT", "=")
    n_aux = parser.parse_int()
    if parser.accept("NAME", "context"):
        parser.expect("PUNCT", "=")
        name_tok = parser.expect("NAME")
        if context is None:
            try:
                parser.ctx = get_context(name_tok.text)
            except ContextError as exc:
                raise ParseError(str(exc), name_tok.line, name_tok.col) from exc
    layers = parser.parse_layers()
    return Circuit(n_inputs, n_aux, tuple(layers), parser.ctx)


# -- serialization ---------------------------------------------------------------


def scalar_to_text(x: ExactScalar) -> str:
    """Exact rendering of a scalar as a DSL literal."""
    ctx = x.ctx
    if ctx.u_int is None:
        raise ValueError("only contexts with constant u serialize to DSL literals")
    parts = []
    for j, name in enumerate(ctx.basis):
        value = x.as_fraction(j)
        if not value:
            continue
        mag = abs(value)
        head = "-" if value < 0 else ("+" if parts else "")
        body = str(mag) if mag.denominator != 1 else str(mag.numerator)
        if name != "1":
            body = f"{body}*{name}" if body != "1" else name
        parts.append(head + body)
    return "".join(parts) if parts else "0"


def _block_text(block) -> str:
    return "(" + " ".join(str(l) for l in block) + ")"


def _gate_text(g) -> str:
    if isinstance(g, FourierGate):
        if g.q == 2 and not g.inverse:
            return f"H [{g.block[0]}]"
        return f"HQ{_prime(g)} {g.q} [{_block_text(g.block)}]"
    if isinstance(g, OneQubitGate):
        rows = ",".join(
            "[" + ",".join(scalar_to_text(e) for e in row) + "]" for row in g.matrix
        )
        return f"U [{rows}] [{g.line}]"
    if isinstance(g, ToffoliGate):
        controls = " ".join(str(c) for c in g.controls)
        return f"TOF [{controls}{' ' if controls else ''}-> {g.target}]"
    if isinstance(g, FanOutGate):
        targets = " ".join(str(t) for t in g.targets)
        return f"FAN [{targets}{' ' if targets else ''}<- {g.control}]"
    if isinstance(g, ModGate):
        inputs = " ".join(str(i) for i in g.inputs)
        return f"MOD {g.q} {g.r} [{inputs} -> {g.output}]"
    if isinstance(g, AddModGate):
        blocks = ",".join(_block_text(b) for b in g.blocks)
        return f"MQ{_prime(g)} {g.q} [{blocks} -> {_block_text(g.result)}]"
    if isinstance(g, FanOutModGate):
        blocks = ",".join(_block_text(b) for b in g.blocks)
        return f"FQ{_prime(g)} {g.q} [{blocks} <- {_block_text(g.control)}]"
    if isinstance(g, AddBlockGate):
        return f"T{_prime(g)} {g.q} [{_block_text(g.addend)} -> {_block_text(g.result)}]"
    raise TypeError(f"unknown gate {type(g).__name__}")


def _prime(g) -> str:
    return "'" if g.inverse else ""


def serialize_circuit(c: Circuit) -> str:
    """Canonical text: header, then one line per layer, gates sorted by
    lowest line."""
    header = f"circuit n={c.n_inputs} aux={c.n_aux}"
    if c.context.name:
        header += f" context={c.context.name}"
    lines = [header]
    for layer in c.layers:
        if isinstance(layer, TensorLayer):
            gates = sorted(layer.gates, key=lambda g: min(g.lines()))
            lines.append("layer { " + "; ".join(_gate_text(g) for g in gates) + " }")
        elif isinstance(layer, CNotLayer):
            pairs = sorted(layer.pairs, key=min)
            lines.append(
                "cnotlayer { " + "; ".join(f"{a} -> {b}" for a, b in pairs) + " }"
            )
        elif isinstance(layer, StagedCNotLayer):
            stages = [
                "; ".join(f"{a} -> {b}" for a, b in sorted(stage, key=min))
                for stage in layer.stages
            ]
            lines.append("cnotstages { " + " | ".join(stages) + " }")
        else:
            raise TypeError(f"unknown layer {type(layer).__name__}")
    return "\n".join(lines) + "\n"
