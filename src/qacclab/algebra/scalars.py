"""Exact amplitude scalars.

An amplitude lives in the extension field G = Q(A)(B): it is stored as a
length-d coordinate vector over the basis B, each coordinate an FScalar
s/u^r where s is an integer polynomial in the indeterminates A and u is
the context's common denominator.  All arithmetic is exact; equality is
decided structurally after aligning denominator powers, which coincides
with field equality whenever the declared basis really is one.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import polys


class EvaluationError(ArithmeticError):
    """Numeric evaluation failed (denominator numerically ~ 0)."""


class FScalar:
    """A coefficient s/u^r: integer-polynomial numerator, denominator power."""

    __slots__ = ("num", "r")

    def __init__(self, num: polys.Poly, r: int = 0):
        if r < 0:
            raise ValueError("denominator power must be nonnegative")
        if not num:
            r = 0
        self.num = num
        self.r = r

    def is_zero(self) -> bool:
        return not self.num

    def key(self):
        return (self.r, tuple(sorted((e, c) for e, c in self.num.items())))

    def __repr__(self):
        return f"FScalar({self.num!r}, r={self.r})"


HASH_PRIME = (1 << 61) - 1


def _eval_mod(p: polys.Poly, point) -> int:
    total = 0
    for exps, coeff in p.items():
        term = coeff
        for e, v in zip(exps, point):
            if e:
                term = term * pow(v, e, HASH_PRIME) % HASH_PRIME
        total += term
    return total % HASH_PRIME


def hash_point(u: polys.Poly, arity: int):
    """(point, 1/u(point) mod HASH_PRIME) for a fixed pseudo-random integer
    point at which the denominator u does not vanish modulo HASH_PRIME."""
    rng = random.Random(0)
    while True:
        point = tuple(rng.randrange(1, HASH_PRIME) for _ in range(arity))
        u_at = _eval_mod(u, point)
        if u_at:
            return point, pow(u_at, -1, HASH_PRIME)


def f_from_int(value: int, arity: int) -> FScalar:
    return FScalar(polys.const(arity, value), 0)


def f_add(a: FScalar, b: FScalar, ctx) -> FScalar:
    """Add after rescaling both onto the larger denominator power of u."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    r0 = max(a.r, b.r)
    na = a.num if a.r == r0 else polys.mul(a.num, ctx.u_power(r0 - a.r))
    nb = b.num if b.r == r0 else polys.mul(b.num, ctx.u_power(r0 - b.r))
    return FScalar(polys.add(na, nb), r0)


def f_neg(a: FScalar) -> FScalar:
    return FScalar(polys.neg(a.num), a.r)


def f_sub(a: FScalar, b: FScalar, ctx) -> FScalar:
    return f_add(a, f_neg(b), ctx)


def f_mul(a: FScalar, b: FScalar) -> FScalar:
    if a.is_zero() or b.is_zero():
        return FScalar({}, 0)
    return FScalar(polys.mul(a.num, b.num), a.r + b.r)


def f_eq(a: FScalar, b: FScalar, ctx) -> bool:
    if a.r == b.r:
        return a.num == b.num
    r0 = max(a.r, b.r)
    na = a.num if a.r == r0 else polys.mul(a.num, ctx.u_power(r0 - a.r))
    nb = b.num if b.r == r0 else polys.mul(b.num, ctx.u_power(r0 - b.r))
    return na == nb


def f_numeric(a: FScalar, ctx) -> complex:
    if a.is_zero():
        return 0j
    value = complex(polys.evaluate(a.num, ctx.indeterminate_values))
    if a.r == 0:
        return value
    den = ctx.u_numeric
    if abs(den) < 1e-12:
        raise EvaluationError("denominator evaluates to ~0")
    return value / den**a.r


def f_to_json(a: FScalar) -> dict:
    return {"num": polys.to_terms(a.num), "r": a.r}


def f_from_json(data: dict, arity: int) -> FScalar:
    return FScalar(polys.from_terms(data["num"], arity), int(data.get("r", 0)))


class ExactScalar:
    """Element of G as a d-vector of FScalar coordinates over the basis."""

    __slots__ = ("ctx", "coords", "_key")

    def __init__(self, ctx, coords):
        coords = tuple(coords)
        if len(coords) != ctx.dim:
            raise ValueError(f"expected {ctx.dim} coordinates, got {len(coords)}")
        self.ctx = ctx
        self.coords = coords
        self._key = None

    def _same_context(self, other: "ExactScalar"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("scalars from different algebra contexts")

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        self._same_context(other)
        ctx = self.ctx
        return ExactScalar(
            ctx, [f_add(a, b, ctx) for a, b in zip(self.coords, other.coords)]
        )

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(self.ctx, [f_neg(a) for a in self.coords])

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        self._same_context(other)
        ctx = self.ctx
        return ExactScalar(
            ctx, [f_sub(a, b, ctx) for a, b in zip(self.coords, other.coords)]
        )

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        self._same_context(other)
        ctx = self.ctx
        cache = ctx._mul_cache
        if cache is not None:
            ck = (self.key(), other.key())
            hit = cache.get(ck)
            if hit is not None:
                return hit
        acc = [ctx.f_zero] * ctx.dim
        rows = ctx.mult_rows
        for i, a in enumerate(self.coords):
            if a.is_zero():
                continue
            row_i = rows[i]
            for k, b in enumerate(other.coords):
                if b.is_zero():
                    continue
                w = f_mul(a, b)
                for j, entry in row_i[k]:
                    acc[j] = f_add(acc[j], f_mul(w, entry), ctx)
        out = ExactScalar(ctx, acc)
        if cache is not None:
            if len(cache) > 200000:
                cache.clear()
            cache[ck] = out
        return out

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.coords)

    def key(self):
        """Hashable form for caches: equal keys mean equal scalars.

        With no indeterminates each coordinate reduces to one Fraction, so
        the key is canonical.  Otherwise coordinates are aligned onto the
        largest denominator power but not reduced, so equal scalars may
        still get different keys (1/u and u/u^2); __hash__ does not use it.
        """
        if self._key is None:
            ctx = self.ctx
            if ctx.arity == 0:
                self._key = tuple(
                    Fraction(a.num[()], ctx.u_int**a.r) if not a.is_zero() else None
                    for a in self.coords
                )
                return self._key
            parts = [a.key() if not a.is_zero() else (0, ()) for a in self.coords]
            rmax = max(p[0] for p in parts)
            if rmax:
                norm = []
                for a in self.coords:
                    if a.is_zero() or a.r == rmax:
                        norm.append(a)
                    else:
                        norm.append(
                            FScalar(polys.mul(a.num, ctx.u_power(rmax - a.r)), rmax)
                        )
                parts = [a.key() if not a.is_zero() else (0, ()) for a in norm]
            self._key = tuple(parts)
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        self._same_context(other)
        return all(
            f_eq(a, b, self.ctx) for a, b in zip(self.coords, other.coords)
        )

    def __hash__(self):
        ctx = self.ctx
        if ctx.arity == 0:
            return hash(self.key())
        # Each coordinate s/u^r evaluated at an integer point modulo a prime
        # where u does not vanish: a ring map, so equal scalars agree.
        point, inv_u = ctx.hash_point
        return hash(
            tuple(
                _eval_mod(a.num, point) * pow(inv_u, a.r, HASH_PRIME) % HASH_PRIME
                for a in self.coords
            )
        )

    def conjugate(self) -> "ExactScalar":
        ctx = self.ctx
        table = ctx.conjugation
        if table is None:
            raise ValueError("context does not define a conjugation involution")
        acc = [ctx.f_zero] * ctx.dim
        for i, a in enumerate(self.coords):
            if a.is_zero():
                continue
            for j, entry in table[i]:
                acc[j] = f_add(acc[j], f_mul(a, entry), ctx)
        return ExactScalar(ctx, acc)

    def numeric(self) -> complex:
        total = 0j
        for coeff, beta in zip(self.coords, self.ctx.basis_values):
            if not coeff.is_zero():
                total += f_numeric(coeff, self.ctx) * beta
        return total

    def as_fraction(self) -> Fraction:
        """Exact rational value; requires a rational (d=1, A=∅) context."""
        ctx = self.ctx
        if not ctx.is_rational:
            raise ValueError("scalar is not in a rational context")
        coeff = self.coords[0]
        if coeff.is_zero():
            return Fraction(0)
        num = coeff.num[()]
        return Fraction(num, ctx.u_int**coeff.r)

    def to_json(self) -> dict:
        return {"coords": [f_to_json(a) for a in self.coords]}

    def __repr__(self):
        terms = []
        for coeff, name in zip(self.coords, self.ctx.basis):
            if coeff.is_zero():
                continue
            terms.append(f"({_fmt_fscalar(coeff, self.ctx)}){'' if name == '1' else '*' + name}")
        return " + ".join(terms) if terms else "0"


def _fmt_fscalar(a: FScalar, ctx) -> str:
    if a.is_zero():
        return "0"
    if len(a.num) == 1 and () in a.num:
        num = str(a.num[()])
    else:
        num = str(polys.to_terms(a.num))
    if a.r == 0:
        return num
    return f"{num}/u^{a.r}"


def g_iterated_sum(xs, ctx=None) -> ExactScalar:
    """Exact sum of a sequence of scalars (empty sum needs a context)."""
    xs = list(xs)
    if not xs:
        if ctx is None:
            raise ValueError("empty sum needs an explicit context")
        return ctx.zero()
    total = xs[0]
    for x in xs[1:]:
        total = total + x
    return total


def g_iterated_product(xs, ctx=None, method: str = "table") -> ExactScalar:
    """Exact product; "table" folds through the basis multiplication table.

    The optional "interpolated" route (evaluation on a principal lattice
    followed by exact integer interpolation) lives in the interpolation
    module and is dispatched from here for convenience.
    """
    xs = list(xs)
    if method == "interpolated":
        from . import interpolation

        return interpolation.g_interpolated_product(xs, ctx)
    if method != "table":
        raise ValueError(f"unknown product method {method!r}")
    if not xs:
        if ctx is None:
            raise ValueError("empty product needs an explicit context")
        return ctx.one()
    total = xs[0]
    for x in xs[1:]:
        total = total * x
    return total
