"""Exact amplitude scalars.

An amplitude lives in the extension field G = Q(A)(B).  It is stored in one
form: d numerators over one power u^r of the context's common denominator
u, the scalar being sum_j (nums[j] / u^r) beta_j.  A numerator is an int
when the context has no indeterminates and a ``polys.Numerator`` (an
integer polynomial with +, - and *) otherwise, so each kernel writes its
arithmetic once, with + and *, for both; `lifted` alone raises numerators
to a higher power of u.  The form is reduced in every context: u is
stripped while r > 0 and it divides every numerator (polys.div_exact in
Z[A] with indeterminates).  Z[A] is a domain, so two reduced forms of one
value are equal whenever the declared basis really is one, and ==, hash
and key() compare the stored form.

Products run one loop over the context's structure constants: mult_table
and conjugation as numerators over one power of u each, computed once per
context.  Conjugates run one loop instead: each numerator times its row
of the conjugation's (j, numerator) cells.  A product by a scalar s fixed
in advance does the same with the rows of s's multiplier (basis_element(i)
* s, built once by the product loop); statevec lays those rows out flat.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from . import polys


class EvaluationError(ArithmeticError):
    """Numeric evaluation failed (denominator numerically ~ 0)."""


class FScalar:
    """A coefficient s/u^r: integer-polynomial numerator, denominator power.

    The form mult_table and conjugation entries are given in, and the view
    ExactScalar.coords gives of each coordinate.
    """

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

    def __repr__(self):
        return f"FScalar({self.num!r}, r={self.r})"


def numerators(ctx, coords, r: int | None = None) -> tuple[list, int]:
    """(numerators, r): FScalar coordinates over u^r, r their largest
    power of u unless given."""
    if r is None:
        r = max((c.r for c in coords), default=0)
    out = []
    for c in coords:
        n = polys.Numerator(c.num) if ctx.arity else (c.num[()] if c.num else 0)
        out.append(n if c.r == r else n * ctx.u_power(r - c.r))
    return out, r


def lifted(ctx, nums, k: int) -> list:
    """The numerators times u^k, as a fresh list."""
    if not k:
        return list(nums)
    up = ctx.u_power(k)
    return [n * up for n in nums]


def structure_constants(ctx, vectors) -> tuple[int, list]:
    """(t, cells): each FScalar vector as its nonzero (j, numerator) pairs,
    every numerator over the one power u^t."""
    vectors = list(vectors)
    t = max((c.r for vec in vectors for c in vec), default=0)
    cells = []
    for vec in vectors:
        nums, _ = numerators(ctx, vec, t)
        cells.append(tuple((j, n) for j, n in enumerate(nums) if n))
    return t, cells


def multiplier(ctx, s: "ExactScalar") -> tuple[int, list]:
    """(t, rows): rows[i] holds the (j, numerator) cells of
    basis_element(i) * s over one u^t, each product built by __mul__.  Then
    x * s has the numerators sum_i x.nums[i] * rows[i] over u^(x.r + t);
    statevec.Compiler raises a gate's rows to one t and runs them raw."""
    return structure_constants(ctx, ((ctx.basis_element(i) * s).coords for i in range(ctx.dim)))


def from_numerators(ctx, nums, r: int) -> "ExactScalar":
    """The scalar sum_j (nums[j] / u^r) beta_j in reduced form: u stripped
    while r > 0 and it divides every numerator (in Z[A] with
    indeterminates), so equal scalars are stored alike."""
    u = ctx.u_int
    if u is None:
        while r:  # all-zero numerators strip down to r = 0
            quotients = [polys.div_exact(n, ctx.denominator) for n in nums]
            if None in quotients:
                break
            nums, r = list(map(polys.Numerator, quotients)), r - 1
    elif r:
        # u^k divides every numerator iff it divides their gcd: strip the
        # largest such power, k <= r, in one division
        g, k = math.gcd(*nums), 0
        while k < r and g % u == 0:
            g //= u
            k += 1
        if not g:  # every numerator is 0: 0 divides by any power
            r = 0
        elif k:
            d = ctx.u_power(k)
            nums = [n // d for n in nums]
            r -= k
    x = object.__new__(ExactScalar)
    x.ctx = ctx
    x.nums = tuple(nums)
    x.r = r
    return x


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
    r = data.get("r", 0)
    if type(r) is not int:
        raise ValueError(f"denominator power {r!r} is not an integer")
    return FScalar(polys.from_terms(data["num"], arity), r)


class ExactScalar:
    """Element of G: numerators `nums` over one power u^r (see the module
    docstring).  Built from FScalar coordinates; read them back through
    `coords`."""

    __slots__ = ("ctx", "nums", "r")

    def __init__(self, ctx, coords):
        coords = tuple(coords)
        if len(coords) != ctx.dim:
            raise ValueError(f"expected {ctx.dim} coordinates, got {len(coords)}")
        x = from_numerators(ctx, *numerators(ctx, coords))
        self.ctx, self.nums, self.r = ctx, x.nums, x.r

    @property
    def coords(self) -> tuple[FScalar, ...]:
        """The coordinates as FScalars.  Without indeterminates each has
        its least power of u; with them each has the scalar's (reduced) r."""
        u = self.ctx.u_int
        if u is None:
            return tuple(FScalar(n, self.r) for n in self.nums)
        out = []
        for n in self.nums:
            r = self.r
            while r and n % u == 0:
                n //= u
                r -= 1
            out.append(FScalar(polys.const(0, n), r))
        return tuple(out)

    def _same_context(self, other: "ExactScalar"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("scalars from different algebra contexts")

    def _combine(self, other: "ExactScalar", op) -> "ExactScalar":
        """Numerators combined by `op`, both lifted to the larger power of u."""
        ctx = self.ctx
        if other.ctx is not ctx:
            self._same_context(other)
        r = max(self.r, other.r)
        a, b = lifted(ctx, self.nums, r - self.r), lifted(ctx, other.nums, r - other.r)
        return from_numerators(ctx, list(map(op, a, b)), r)

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        return self._combine(other, operator.add)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "ExactScalar":
        return from_numerators(self.ctx, [-n for n in self.nums], self.r)

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        ctx = self.ctx
        if other.ctx is not ctx:
            self._same_context(other)
        acc = [ctx.num_zero] * ctx.dim
        for a, row in zip(self.nums, ctx.mul_constants):
            if a:
                for b, cell in zip(other.nums, row):
                    if b:
                        w = a * b
                        for j, c in cell:
                            acc[j] += w * c
        return from_numerators(ctx, acc, self.r + other.r + ctx.mul_r)

    def conjugate(self) -> "ExactScalar":
        ctx = self.ctx
        if ctx.conjugation is None:
            raise ValueError("context does not define a conjugation involution")
        acc = [ctx.num_zero] * ctx.dim
        for a, cells in zip(self.nums, ctx.conj_constants):
            if a:
                for j, c in cells:
                    acc[j] += a * c
        return from_numerators(ctx, acc, self.r + ctx.conj_r)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def key(self):
        """The reduced form as a hashable tuple: equal keys exactly when
        the scalars are equal."""
        if self.ctx.arity == 0:
            return (self.r, self.nums)
        return (self.r, tuple(tuple(sorted(n.items())) for n in self.nums))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        self._same_context(other)
        return self.r == other.r and self.nums == other.nums

    def __hash__(self):
        return hash(self.key())

    def numeric(self) -> complex:
        total = 0j
        for coeff, beta in zip(self.coords, self.ctx.basis_values):
            if not coeff.is_zero():
                total += f_numeric(coeff, self.ctx) * beta
        return total

    def as_fraction(self, j: int | None = None) -> Fraction:
        """Exact rational coefficient of basis element j, in a context
        without indeterminates.  With no j, the scalar's value, which
        requires a rational (d=1, A=∅) context."""
        ctx = self.ctx
        if j is None:
            if not ctx.is_rational:
                raise ValueError("scalar is not in a rational context")
            j = 0
        elif ctx.arity:
            raise ValueError("coefficients with indeterminates are not rational")
        return Fraction(self.nums[j], ctx.u_int**self.r)

    def to_json(self) -> dict:
        return {"coords": [f_to_json(a) for a in self.coords]}

    def __repr__(self):
        terms = []
        for coeff, name in zip(self.coords, self.ctx.basis):
            if coeff.is_zero():
                continue
            terms.append(f"({_fmt_fscalar(coeff)}){'' if name == '1' else '*' + name}")
        return " + ".join(terms) if terms else "0"


def _fmt_fscalar(a: FScalar) -> str:
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


def g_iterated_product(xs, ctx=None) -> ExactScalar:
    """Exact product, folded through the basis multiplication table.

    interpolation.g_interpolated_product computes the same product by
    evaluation on a principal lattice and exact integer interpolation.
    """
    xs = list(xs)
    if not xs:
        if ctx is None:
            raise ValueError("empty product needs an explicit context")
        return ctx.one()
    total = xs[0]
    for x in xs[1:]:
        total = total * x
    return total
