"""Sparse multivariate polynomial arithmetic with exact coefficients.

A polynomial in m variables is a dict mapping exponent tuples of length m
to nonzero arbitrary-precision integer coefficients; the zero polynomial is
the empty dict.  Zero-coefficient terms are never stored, so dict equality
is polynomial equality.

A polynomial numerator of an exact scalar is a `Numerator`: the same dict,
with +, binary and unary - and * through add, sub, neg and mul, so scalar
kernels state their arithmetic once for int and polynomial numerators.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

Exponent = Tuple[int, ...]
Poly = Dict[Exponent, int]


def zero() -> Poly:
    return {}


def const(arity: int, value) -> Poly:
    """Constant polynomial `value` in `arity` variables."""
    if value == 0:
        return {}
    return {(0,) * arity: value}


def variable(arity: int, index: int) -> Poly:
    if not 0 <= index < arity:
        raise ValueError(f"variable index {index} out of range for arity {arity}")
    exps = [0] * arity
    exps[index] = 1
    return {tuple(exps): 1}


def is_zero(p: Poly) -> bool:
    return not p


def arity_of(p: Poly, default: int | None = None) -> int:
    """Arity inferred from a stored exponent tuple (needs a nonzero poly)."""
    for exps in p:
        return len(exps)
    if default is None:
        raise ValueError("cannot infer arity of the zero polynomial")
    return default


def check_arity(polys: Iterable[Poly], arity: int | None = None) -> int | None:
    """Verify all polynomials share one arity; returns it (None if all zero)."""
    for p in polys:
        for exps in p:
            if arity is None:
                arity = len(exps)
            elif len(exps) != arity:
                raise ValueError(
                    f"arity mismatch: expected {arity}, got {len(exps)}"
                )
            break
    return arity


def add(a: Poly, b: Poly) -> Poly:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for exps, coeff in b.items():
        new = out.get(exps, 0) + coeff
        if new == 0:
            out.pop(exps, None)
        else:
            out[exps] = new
    return out


def neg(a: Poly) -> Poly:
    return {exps: -coeff for exps, coeff in a.items()}


def sub(a: Poly, b: Poly) -> Poly:
    return add(a, neg(b))


def scale(a: Poly, factor) -> Poly:
    if factor == 0:
        return {}
    return {exps: coeff * factor for exps, coeff in a.items()}


def mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    if len(a) == 1 and len(b) == 1:
        (ea, ca), = a.items()
        (eb, cb), = b.items()
        return {tuple(x + y for x, y in zip(ea, eb)): ca * cb}
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            new = out.get(exps, 0) + ca * cb
            if new == 0:
                out.pop(exps, None)
            else:
                out[exps] = new
    return out


class Numerator(dict):
    """A polynomial with arithmetic operators; each returns a new Numerator.
    Unhashable, as a dict: it is mutable."""

    __slots__ = ()

    def __add__(self, other):
        return Numerator(add(self, other))

    def __sub__(self, other):
        return Numerator(sub(self, other))

    def __neg__(self):
        return Numerator(neg(self))

    def __mul__(self, other):
        return Numerator(mul(self, other))


def div_exact(a: Poly, b: Poly) -> Poly | None:
    """The quotient a / b when the nonzero b divides a in Z[x], else None.

    Divides leading terms in lex order.  In a monomial order
    lt(b * w) = lt(b) * lt(w), so if b divides a each leading-term division
    is exact, and one that is not proves b does not divide a.
    """
    lb = max(b)
    quotient: Poly = {}
    while a:
        la = max(a)
        e = tuple(x - y for x, y in zip(la, lb))
        c, rest = divmod(a[la], b[lb])
        if rest or min(e, default=0) < 0:
            return None
        quotient[e] = c
        a = sub(a, mul({e: c}, b))
    return quotient


def power(a: Poly, k: int) -> Poly:
    if k < 0:
        raise ValueError("negative exponent")
    result = const(arity_of(a, 0), 1) if a or k == 0 else {}
    base = a
    while k > 0:
        if k & 1:
            result = mul(result, base)
        base = mul(base, base)
        k >>= 1
    return result


def total_degree(p: Poly) -> int | None:
    """Max total degree; None for the zero polynomial."""
    if not p:
        return None
    return max(sum(exps) for exps in p)


def evaluate(p: Poly, point: Sequence) -> object:
    """Evaluate at a point; exact for int/Fraction inputs, works for complex."""
    total = 0
    for exps, coeff in p.items():
        term = coeff
        for e, v in zip(exps, point):
            if e:
                term = term * v**e
        total = total + term
    return total


def to_terms(p: Poly) -> list:
    """Deterministic [[coeff, [exponents...]], ...] form, for JSON dumps."""
    return [[p[exps], list(exps)] for exps in sorted(p)]


def from_terms(terms: Iterable, arity: int | None = None) -> Poly:
    out: Poly = {}
    for coeff, exps in terms:
        exps = tuple(exps)
        if type(coeff) is not int or not all(type(e) is int for e in exps):
            raise ValueError(f"term {coeff!r}, {list(exps)!r} holds a non-integer")
        if arity is not None and len(exps) != arity:
            raise ValueError(f"exponent vector {exps} has arity {len(exps)}, expected {arity}")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        if coeff:
            new = out.get(exps, 0) + coeff
            if new == 0:
                out.pop(exps, None)
            else:
                out[exps] = new
    return out

