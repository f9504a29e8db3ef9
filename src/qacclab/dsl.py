"""Text format for circuits, with a tolerant tokenizer and precise errors.

Grammar (EBNF):

    circuit   = header layer* ;
    header    = "circuit" "n" "=" INT "aux" "=" INT ["context" "=" NAME] ;
    layer     = "layer" "{" [gate (";" gate)*] "}"
              | "cnotlayer" "{" stage "}"
              | "cnotstages" "{" [stage ("|" stage)*] "}" ;
    stage     = [pair (";" pair)*] ;
    pair      = INT "->" INT ;
    gate      = "H" "[" INT "]"
              | "U" matrix "[" INT "]"
              | "TOF" "[" INT* "->" INT "]"
              | "FAN" "[" INT* "<-" INT "]"
              | "MOD" INT INT "[" INT* "->" INT "]"
              | "MQ" ["'"] INT "[" [block ("," block)*] "->" block "]"
              | "FQ" ["'"] INT "[" [block ("," block)*] "<-" block "]"
              | "HQ" ["'"] INT "[" block "]"
              | "T"  ["'"] INT "[" block "->" block "]" ;
    block     = "(" INT+ ")" ;
    matrix    = "[" row "," row "]" ;      row = "[" scalar "," scalar "]" ;
    scalar    = ["+"|"-"] term (("+"|"-") term)* ;
    term      = factor ("*" factor)* ;
    factor    = INT ["/" INT] | NAME ["^" INT] ;

The gate rules are the table GATE_SYNTAX, which the parser and the printer
both read.  `cnotstages { }` has no stages, so a staged layer whose only
stage is empty has no spelling.

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
from fractions import Fraction
from typing import NamedTuple

from .algebra import AlgebraContext, ContextError, ExactScalar, get_context, table_dim_bound
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

# keyword -> (gate class, fields the keyword fixes, parts after the keyword).
# A part is punctuation, "'" (an optional prime that sets `inverse`), or a
# (field, kind) pair; a "line" is one INT read as a one-line block.
GATE_SYNTAX = {
    "H": (FourierGate, {"q": 2}, ("[", ("block", "line"), "]")),
    "U": (OneQubitGate, {}, (("matrix", "matrix"), "[", ("line", "int"), "]")),
    "TOF": (ToffoliGate, {}, ("[", ("controls", "ints"), "->", ("target", "int"), "]")),
    "FAN": (FanOutGate, {}, ("[", ("targets", "ints"), "<-", ("control", "int"), "]")),
    "MOD": (ModGate, {}, (
        ("q", "int"), ("r", "int"), "[", ("inputs", "ints"), "->", ("output", "int"), "]")),
    "MQ": (AddModGate, {}, (
        "'", ("q", "int"), "[", ("blocks", "blocks"), "->", ("result", "block"), "]")),
    "FQ": (FanOutModGate, {}, (
        "'", ("q", "int"), "[", ("blocks", "blocks"), "<-", ("control", "block"), "]")),
    "HQ": (FourierGate, {}, ("'", ("q", "int"), "[", ("block", "block"), "]")),
    "T": (AddBlockGate, {}, (
        "'", ("q", "int"), "[", ("addend", "block"), "->", ("result", "block"), "]")),
}
GATE_KEYWORDS = tuple(GATE_SYNTAX)
_LAYER_KEYWORDS = ("layer", "cnotlayer", "cnotstages")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        full = f"{line}:{col}: {message}"
        if self.expected:
            full += f" (expected {', '.join(self.expected)})"
        super().__init__(full)


def _error(text: str, pos: int, message: str, expected=()) -> ParseError:
    """A ParseError at offset pos of text, with 1-based line and column."""
    line_start = text.rfind("\n", 0, pos) + 1
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - line_start + 1, expected)


class Token(NamedTuple):
    kind: str  # INT | NAME | PUNCT | EOF
    text: str
    pos: int  # offset into the text


# Blanks and comments, then one token; no token matched means the end of
# the text or a character no token starts with.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]|#[^\n]*)*"
    r"(?:(?P<INT>\d+)"
    r"|(?P<NAME>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<PUNCT>->|<-|[][}{)(;,=|'^*/+-]))?"
)


def tokenize(text: str) -> list[Token]:
    tokens, pos = [], 0
    while True:
        m = _TOKEN_RE.match(text, pos)
        pos = m.end()
        kind = m.lastgroup
        if kind is None:
            if pos < len(text):
                raise _error(text, pos, f"unexpected character {text[pos]!r}")
            tokens.append(Token("EOF", "", pos))
            return tokens
        tokens.append(Token(kind, m.group(kind), m.start(kind)))


class _Parser:
    def __init__(self, text: str, context: AlgebraContext):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.ctx = context

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, expected=(), tok=None) -> ParseError:
        """A ParseError at tok, by default at the next token."""
        return _error(self.text, (self.peek() if tok is None else tok).pos, message, expected)

    def unexpected(self, tok, expected) -> ParseError:
        """The error for a token that is none of `expected`."""
        found = f"found {tok.text!r}" if tok.kind != "EOF" else "unexpected end of input"
        return self.error(found, expected, tok)

    def expect(self, kind, text=None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise self.unexpected(tok, (text if text is not None else kind,))
        return self.next()

    def accept(self, kind, text=None) -> Token | None:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    def items(self, item, sep, end) -> tuple:
        """item (sep item)*, or no items when the next token is in end."""
        if self.peek().text in end:
            return ()
        out = [item()]
        while self.accept("PUNCT", sep):
            out.append(item())
        return tuple(out)

    # -- grammar ---------------------------------------------------------

    def parse_int(self) -> int:
        tok = self.expect("INT")
        try:
            return int(tok.text)
        except ValueError as exc:  # more digits than int() converts
            raise self.error(str(exc), tok=tok) from exc

    def parse_layers(self):
        layers = []
        while self.peek().kind != "EOF":
            tok = self.next()
            if tok.text not in _LAYER_KEYWORDS:
                raise self.unexpected(tok, _LAYER_KEYWORDS)
            self.expect("PUNCT", "{")
            if tok.text == "layer":
                layers.append(TensorLayer(self.items(self.parse_gate, ";", ("}",))))
            elif tok.text == "cnotlayer":
                layers.append(CNotLayer(self.parse_stage(("}",))))
            else:
                stages = self.items(lambda: self.parse_stage(("|", "}")), "|", ("}",))
                layers.append(StagedCNotLayer(stages))
            self.expect("PUNCT", "}")
        return layers

    def parse_stage(self, end):
        return self.items(self.parse_pair, ";", end)

    def parse_pair(self):
        ctrl = self.parse_int()
        self.expect("PUNCT", "->")
        tgt = self.parse_int()
        return (ctrl, tgt)

    def parse_gate(self):
        tok = self.next()
        if tok.text not in GATE_SYNTAX:
            raise self.unexpected(tok, GATE_KEYWORDS)
        cls, fixed, parts = GATE_SYNTAX[tok.text]
        fields = dict(fixed)
        for i, part in enumerate(parts):
            if part == "'":
                fields["inverse"] = self.accept("PUNCT", "'") is not None
            elif isinstance(part, str):
                self.expect("PUNCT", part)
            else:
                name, kind = part
                fields[name] = _READ[kind](self, parts[i + 1])
        return cls(**fields)

    def parse_ints(self) -> tuple[int, ...]:
        out = []
        while self.peek().kind == "INT":
            out.append(self.parse_int())
        return tuple(out)

    def parse_block(self):
        self.expect("PUNCT", "(")
        lines = self.parse_ints()
        if not lines:
            raise self.error("empty block", ("INT",))
        self.expect("PUNCT", ")")
        return lines

    def parse_two(self, item):
        """Two items in brackets: the rows of a matrix, or the scalars of a row."""
        self.expect("PUNCT", "[")
        first = item()
        self.expect("PUNCT", ",")
        second = item()
        self.expect("PUNCT", "]")
        return (first, second)

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
                    raise self.error("zero denominator")
                try:
                    return self.ctx.scalar_from_rational(Fraction(num, den))
                except ContextError as exc:
                    raise self.error(str(exc), tok=tok) from exc
            return self.ctx.from_int(num)
        if tok.kind == "NAME":
            name = self.next().text
            try:
                base = self.ctx.symbol(name)
            except ContextError as exc:
                raise self.error(str(exc), tok=tok) from exc
            if self.accept("PUNCT", "^"):
                exp_tok = self.peek()
                k = self.parse_int()
                # NAME ^ INT multiplies INT times.  Every basis name z^j that
                # scalar_to_text prints has j below a dimension the budget admits
                cap = table_dim_bound()
                if k > cap:
                    raise self.error(f"exponent {k} is above the cap {cap}", tok=exp_tok)
                out = self.ctx.one()
                for _ in range(k):
                    out = out * base
                return out
            return base
        raise self.unexpected(tok, ("INT", "NAME"))


# How each kind of field reads; a list ends at the part that follows it.
_READ = {
    "int": lambda p, end: p.parse_int(),
    "ints": lambda p, end: p.parse_ints(),
    "line": lambda p, end: (p.parse_int(),),
    "block": lambda p, end: p.parse_block(),
    "blocks": lambda p, end: p.items(p.parse_block, ",", (end,)),
    "matrix": lambda p, end: p.parse_two(lambda: p.parse_two(p.parse_scalar)),
}


def parse_circuit(text: str, context: AlgebraContext | None = None) -> Circuit:
    """Parse DSL text into a Circuit, which validates itself when made.

    The context is the one the header names, else cyclotomic2.  `context`
    overrides both (used when loading a circuit against a context from a
    JSON file).
    """
    parser = _Parser(text, context if context is not None else get_context("cyclotomic2"))
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
                raise parser.error(str(exc), tok=name_tok) from exc
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


def _ints_text(ints) -> str:
    return " ".join(map(str, ints))


def _block_text(block) -> str:
    return "(" + _ints_text(block) + ")"


# How each kind of field prints.
_SHOW = {
    "int": str,
    "ints": _ints_text,
    "line": _ints_text,
    "block": _block_text,
    "blocks": lambda blocks: ",".join(map(_block_text, blocks)),
    "matrix": lambda m: "[" + ",".join(
        "[" + ",".join(map(scalar_to_text, row)) + "]" for row in m) + "]",
}

# The keyword each gate class prints under; a keyword that fixes fields is
# a shorter spelling of another.
_KEYWORD = {cls: kw for kw, (cls, fixed, _) in GATE_SYNTAX.items() if not fixed}


def _gate_text(g) -> str:
    """The keyword and the gate's parts, joined by one space, with no space
    after "[" or before "]" and "'"; an empty list prints as nothing."""
    keyword = _KEYWORD.get(type(g))
    if keyword is None:
        raise TypeError(f"unknown gate {type(g).__name__}")
    if isinstance(g, ModGate) and g.weights:
        raise ValueError(f"MOD gate weights {g.weights} have no DSL syntax")
    if keyword == "HQ" and g.q == 2 and not g.inverse:
        keyword = "H"
    out = keyword
    for part in GATE_SYNTAX[keyword][2]:
        if part == "'":
            word = "'" if g.inverse else ""
        elif isinstance(part, str):
            word = part
        else:
            word = _SHOW[part[1]](getattr(g, part[0]))
        if word and not (out.endswith("[") or word in ("]", "'")):
            out += " "
        out += word
    return out


def _stage_text(pairs) -> str:
    return "; ".join(f"{a} -> {b}" for a, b in sorted(pairs, key=min))


def serialize_circuit(c: Circuit) -> str:
    """Canonical text: header, then one line per layer, gates sorted by
    lowest line.  A MOD gate with weights has no text and raises
    ValueError."""
    header = f"circuit n={c.n_inputs} aux={c.n_aux}"
    if c.context.name:
        header += f" context={c.context.name}"
    lines = [header]
    for layer in c.layers:
        if isinstance(layer, TensorLayer):
            gates = sorted(layer.gates, key=lambda g: min(g.lines()))
            lines.append("layer { " + "; ".join(_gate_text(g) for g in gates) + " }")
        elif isinstance(layer, CNotLayer):
            lines.append("cnotlayer { " + _stage_text(layer.pairs) + " }")
        elif isinstance(layer, StagedCNotLayer):
            lines.append("cnotstages { " + " | ".join(map(_stage_text, layer.stages)) + " }")
        else:
            raise TypeError(f"unknown layer {type(layer).__name__}")
    return "\n".join(lines) + "\n"
