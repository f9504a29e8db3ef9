"""Algebra contexts: the field G = Q(A)(B) an amplitude lives in.

A context fixes the ordered indeterminates A, the basis B (with basis
element 0 being 1), the d x d basis multiplication table, the common
denominator u, and floating approximations used only for sanity checks.
From the table (and the conjugation, when given) it computes once the
structure constants the scalar kernel reads: for each basis product
beta_a beta_b the nonzero (j, numerator) pairs of its coordinates over one
power u^mul_r (`mul_constants`), and likewise over u^conj_r for the
conjugates (`conj_constants`).  Numerators are ints without
indeterminates and polynomials with them.

Shipped contexts:

* ``cyclotomic(q)``: exact arithmetic for the entries of the q-ary Fourier
  gate.  The basis is the power basis 1, z, ..., z^(phi(q)-1) of the q-th
  root of unity z, reduced by the q-th cyclotomic polynomial, with the
  extra element s = 1/sqrt(q) adjoined only when sqrt(q) is not already in
  Q(z).  Otherwise (q = 0, 1 mod 4) sqrt(q) is computed in the context's
  own arithmetic from the quadratic Gauss sum sum_a z^(a^2), and
  z^q = 1 and s*s*q = 1 are checked exactly, as for every context file
  that declares a ``fourier_q``.  The common denominator is u = q.

* ``rational(u)``: plain rational amplitudes a/u^r (d = 1), as required by
  bounded-error acceptance.

User contexts load from JSON; their basis independence is declared, not
decided: it is only sanity-checked numerically.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from fractions import Fraction

from . import polys
from .scalars import (
    ExactScalar,
    FScalar,
    f_from_json,
    f_numeric,
    f_to_json,
    numerator_ring,
    structure_constants,
)


CONTEXT_DIM_CAP = 64  # basis size of a cyclotomic context; its table grows as d^3
U_POWER_CAP = 64  # largest power of u in a rational literal or a context-table entry
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")  # the DSL's NAME token


class ContextError(ValueError):
    pass


class AlgebraContext:
    def __init__(
        self,
        indeterminates,
        basis,
        mult_table,
        denominator,
        numeric,
        conjugation=None,
        fourier_q=None,
        name=None,
    ):
        self.indeterminates = tuple(indeterminates)
        self.basis = tuple(basis)
        if not self.basis or self.basis[0] != "1":
            raise ContextError("basis element 0 must be the unit, named '1'")
        self.dim = d = len(self.basis)
        self.arity = len(self.indeterminates)
        self.mult_table = tuple(tuple(tuple(v) for v in row) for row in mult_table)
        if len(self.mult_table) != d or any(
            len(row) != d or any(len(v) != d for v in row) for row in self.mult_table
        ):
            raise ContextError(f"mult_table is not {d} x {d} x {d}")
        self.denominator = dict(denominator)
        if polys.is_zero(self.denominator):
            raise ContextError("denominator u must be nonzero")
        self.numeric = dict(numeric)
        if name is not None and not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
            raise ContextError(f"context name {name!r} is not a DSL name")
        self.name = name

        self.is_rational = self.dim == 1 and self.arity == 0
        self.u_int = None if self.arity else self.denominator[()]
        self.num_zero, self.num_add, self.num_sub, self.num_neg, self.num_mul = (
            numerator_ring(self.arity)
        )
        self.f_zero = FScalar({}, 0)
        self.f_one = FScalar(polys.const(self.arity, 1), 0)

        self.mul_r, cells = structure_constants(
            self, (vec for row in self.mult_table for vec in row)
        )
        self.mul_constants = tuple(tuple(cells[i * d:(i + 1) * d]) for i in range(d))
        self.conjugation = self.conj_r = self.conj_constants = None
        if conjugation is not None:
            self.conjugation = tuple(tuple(vec) for vec in conjugation)
            if len(self.conjugation) != d or any(len(v) != d for v in self.conjugation):
                raise ContextError(f"conjugation is not {d} x {d}")
            self.conj_r, self.conj_constants = structure_constants(self, self.conjugation)

        self.indeterminate_values = [
            complex(*_pair(self.numeric[a])) if a in self.numeric else None
            for a in self.indeterminates
        ]
        if any(v is None for v in self.indeterminate_values):
            raise ContextError("numeric assignment missing for an indeterminate")
        self.basis_values = []
        for b in self.basis:
            if b == "1":
                self.basis_values.append(1 + 0j)
            elif b in self.numeric:
                self.basis_values.append(complex(*_pair(self.numeric[b])))
            else:
                raise ContextError(f"numeric assignment missing for basis element {b!r}")
        self.u_numeric = complex(polys.evaluate(self.denominator, self.indeterminate_values))

        self.constants = {}
        self.fourier_q = fourier_q
        self._zero = ExactScalar(self, [self.f_zero] * self.dim)
        one = [self.f_zero] * self.dim
        one[0] = self.f_one
        self._one = ExactScalar(self, one)

        self.validate()

    # -- basic element constructors ------------------------------------

    def zero(self) -> ExactScalar:
        return self._zero

    def one(self) -> ExactScalar:
        return self._one

    def from_int(self, value: int) -> ExactScalar:
        coords = [self.f_zero] * self.dim
        if value:
            coords[0] = FScalar(polys.const(self.arity, value), 0)
        return ExactScalar(self, coords)

    def basis_element(self, j: int) -> ExactScalar:
        coords = [self.f_zero] * self.dim
        coords[j] = self.f_one
        return ExactScalar(self, coords)

    def scalar_from_rational(self, value) -> ExactScalar:
        """a/b as an exact scalar; b must divide some power of u."""
        value = Fraction(value)
        coords = [self.f_zero] * self.dim
        coords[0] = self.f_from_rational(value)
        return ExactScalar(self, coords)

    def f_from_rational(self, value: Fraction) -> FScalar:
        if self.u_int is None:
            raise ContextError("rational coefficients need a constant denominator u")
        num, den = value.numerator, value.denominator
        if num == 0:
            return self.f_zero
        r, cur = 0, 1
        while cur % den:
            r += 1
            cur *= self.u_int
            if r > U_POWER_CAP:
                raise ContextError(
                    f"denominator {den} does not divide a power of u={self.u_int}"
                )
        return FScalar(polys.const(self.arity, num * (cur // den)), r)

    def u_power(self, k: int):
        """u^k as a numerator: an int without indeterminates, else a polynomial."""
        if self.u_int is not None:
            return self.u_int**k
        return polys.power(self.denominator, k)

    def symbol(self, name: str) -> ExactScalar:
        if name in self.constants:
            return self.constants[name]
        raise ContextError(f"context has no symbol {name!r}")

    def fourier_scalars(self, q: int):
        """(powers of zeta_q, 1/sqrt(q)) as exact scalars, if this context has them."""
        if self.fourier_q != q:
            raise ContextError(
                f"context {self.name or '<anonymous>'} has no exact constants for q={q}"
            )
        return self._zeta_pows, self.constants["s"]

    # -- verification ----------------------------------------------------

    def validate(self):
        d = self.dim
        unit = self.u_power(self.mul_r)
        for b in range(d):
            if self.mul_constants[0][b] != ((b, unit),):
                raise ContextError("identity row of mult_table is not the unit vector")
        for a in range(d):
            for b in range(a + 1, d):
                if self.mul_constants[a][b] != self.mul_constants[b][a]:
                    raise ContextError(f"mult_table not symmetric at ({a},{b})")
        for a in range(d):
            for b in range(d):
                direct = self.basis_values[a] * self.basis_values[b]
                via_table = sum(
                    f_numeric(entry, self) * self.basis_values[j]
                    for j, entry in enumerate(self.mult_table[a][b])
                    if not entry.is_zero()
                )
                if abs(direct - via_table) > 1e-9:
                    raise ContextError(
                        f"numeric assignment violates mult_table at ({a},{b}): "
                        f"{direct} vs {via_table}"
                    )

    # -- equality / serialization ----------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, AlgebraContext):
            return NotImplemented
        if (
            self.indeterminates != other.indeterminates
            or self.basis != other.basis
            or self.denominator != other.denominator
        ):
            return False
        return self.mul_r == other.mul_r and self.mul_constants == other.mul_constants

    def __hash__(self):
        return hash((self.indeterminates, self.basis, tuple(sorted(self.denominator.items()))))

    def __repr__(self):
        return f"AlgebraContext({self.name or 'anonymous'}, d={self.dim}, m={self.arity})"

    def to_json(self) -> dict:
        data = {
            "indeterminates": list(self.indeterminates),
            "basis": list(self.basis),
            "mult_table": [
                [[f_to_json(entry) for entry in vec] for vec in row]
                for row in self.mult_table
            ],
            "u": polys.to_terms(self.denominator),
            "numeric": {k: _pair(v) for k, v in self.numeric.items()},
        }
        if self.conjugation is not None:
            data["conjugation"] = [
                [f_to_json(entry) for entry in vec] for vec in self.conjugation
            ]
        if self.fourier_q is not None:
            data["fourier_q"] = self.fourier_q
        if self.name is not None:
            data["name"] = self.name
        return data

    @classmethod
    def from_json(cls, data: dict) -> "AlgebraContext":
        arity = len(data["indeterminates"])

        def entry(e) -> FScalar:
            f = f_from_json(e, arity)
            if not 0 <= f.r <= U_POWER_CAP:
                raise ContextError(f"table entry over u^{f.r}, outside u^0..u^{U_POWER_CAP}")
            return f

        mult_table = [[[entry(e) for e in vec] for vec in row] for row in data["mult_table"]]
        conj = None
        if "conjugation" in data:
            conj = [[entry(e) for e in vec] for vec in data["conjugation"]]
        ctx = cls(
            data["indeterminates"],
            data["basis"],
            mult_table,
            polys.from_terms(data["u"], arity),
            {k: complex(*_pair(v)) for k, v in data.get("numeric", {}).items()},
            conjugation=conj,
            fourier_q=data.get("fourier_q"),
            name=data.get("name"),
        )
        if ctx.fourier_q is not None:
            _attach_fourier_constants(ctx, ctx.fourier_q)
        return ctx


def _pair(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if len(v) != 2 or not all(isinstance(x, (int, float)) and type(x) is not bool for x in v):
        raise ContextError(f"numeric value {v!r} is not a pair of numbers")
    return [float(v[0]), float(v[1])]


# ---------------------------------------------------------------------------
# cyclotomic machinery (dense one-variable integer polynomials as lists)


def cyclotomic_polynomial(q: int) -> list[int]:
    """Coefficients (ascending) of the q-th cyclotomic polynomial."""
    if q < 1:
        raise ValueError("q must be positive")
    memo = {}

    def build(n: int) -> list[int]:
        if n in memo:
            return memo[n]
        # X^n - 1 divided by the product of all proper-divisor cyclotomics
        num = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                num = _poly_div_exact(num, build(d))
        memo[n] = num
        return num

    return build(q)


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1]:
            raise ArithmeticError("non-exact polynomial division")
        c //= den[-1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return out


def _poly_mod(coeffs: list[int], phi: list[int]) -> list[int]:
    """Remainder of a dense integer polynomial modulo monic phi."""
    rem = list(coeffs)
    deg = len(phi) - 1
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j in range(deg + 1):
                rem[i - deg + j] -= c * phi[j]
    rem = rem[:deg]
    rem += [0] * (deg - len(rem))
    return rem


def _totient(q: int, bound: int) -> int | None:
    """Euler's phi(q) if it is at most `bound`, else None.  phi(q) >=
    sqrt(q/2), so a q above 2 bound^2 is refused before any counting."""
    if q > 2 * bound * bound:
        return None
    phi = sum(math.gcd(k, q) == 1 for k in range(q))
    return phi if phi <= bound else None


def _cyclotomic_parts(q: int):
    """(deg, red): the degree phi(q) of Q(zeta_q) and zeta^e in its power
    basis for e = 0..q-1."""
    phi = cyclotomic_polynomial(q)
    return len(phi) - 1, [_poly_mod([0] * e + [1], phi) for e in range(q)]


def _coords(
    vec: list[int], dim: int, offset: int = 0, r: int = 0, arity: int = 0
) -> list[FScalar]:
    """Integer coordinates over u^r, placed from basis index `offset` on."""
    coords = [FScalar({}, 0)] * dim
    for j, c in enumerate(vec):
        if c:
            coords[offset + j] = FScalar(polys.const(arity, c), r)
    return coords


def cyclotomic_context(q: int) -> AlgebraContext:
    """Exact context for circuits over the q-ary Fourier gate set.  Its
    dimension, phi(q), or 2 phi(q) when sqrt(q) is not in Q(zeta_q) (q = 2,
    3 mod 4), must be at most CONTEXT_DIM_CAP: the table grows as d^3."""
    if q < 2:
        raise ContextError("q must be at least 2")
    if _totient(q, CONTEXT_DIM_CAP // (2 if q % 4 in (2, 3) else 1)) is None:
        raise ContextError(f"cyclotomic{q} would have dimension above the cap {CONTEXT_DIM_CAP}")
    deg, red = _cyclotomic_parts(q)
    extended = q % 4 in (2, 3)
    d = 2 * deg if extended else deg
    heads = ["1" if j == 0 else "z" if j == 1 else f"z^{j}" for j in range(deg)]
    basis = heads + (["s"] + [f"{h}*s" for h in heads[1:]] if extended else [])

    table = []
    for a in range(d):
        row = []
        ja, ea = a % deg, a // deg
        for b in range(d):
            jb, eb = b % deg, b // deg
            # z^ja * z^jb folds through z^q = 1, then reduces modulo phi_q;
            # s^(ea + eb) is 1, s or s*s = 1/q
            e_sum = ea + eb
            row.append(_coords(red[(ja + jb) % q], d, e_sum % 2 * deg, e_sum // 2))
        table.append(row)

    zeta_num = cmath.exp(2j * cmath.pi / q)
    invsq_num = 1 / math.sqrt(q)
    numeric = {}
    for idx, name in enumerate(basis):
        if name == "1":
            continue
        j, eps = idx % deg, idx // deg
        numeric[name] = zeta_num**j * (invsq_num if eps else 1)

    conjugation = [_coords(red[(q - a % deg) % q], d, a // deg * deg) for a in range(d)]

    ctx = AlgebraContext(
        [],
        basis,
        table,
        polys.const(0, q),
        numeric,
        conjugation=conjugation,
        fourier_q=q,
        name=f"cyclotomic{q}",
    )
    _attach_fourier_constants(ctx, q, (deg, red))
    return ctx


def _attach_fourier_constants(ctx, q, parts=None):
    """Bind z (= w), s and the zeta power list used by gates, computed in
    the context's own arithmetic from (deg, red) = `parts`, or else
    `_cyclotomic_parts(q)`.  s is basis element phi(q) for q = 2, 3 mod 4,
    and 1 for q = 1; otherwise sqrt(q) is the Gauss sum G = sum zeta^(a^2),
    or G (1 - i)/2 with i = zeta^(q/4) when 4 | q, and dividing it by q
    needs a constant u.  Raises ContextError, before Phi_q is
    built, when phi(q), doubled for q = 2, 3 mod 4, exceeds the dimension,
    and unless zeta^q = 1 and s*s*q = 1 hold exactly."""
    if type(q) is not int or q < 1:  # a JSON true is no q
        raise ContextError(f"fourier_q={q!r} must be a positive integer")
    if _totient(q, ctx.dim // (2 if q % 4 in (2, 3) else 1)) is None:
        raise ContextError(f"fourier_q={q}: phi(q) exceeds the context dimension {ctx.dim}")
    deg, red = parts or _cyclotomic_parts(q)
    zeta = [ExactScalar(ctx, _coords(z, ctx.dim, arity=ctx.arity)) for z in red]
    if q % 4 in (2, 3):
        s = ctx.basis_element(deg)
    elif q == 1:
        s = ctx.one()
    else:
        root = sum((zeta[a * a % q] for a in range(q)), ctx.zero())
        try:
            if q % 4 == 0:
                root = root * (ctx.one() - zeta[q // 4]) * ctx.scalar_from_rational(Fraction(1, 2))
            s = root * ctx.scalar_from_rational(Fraction(1, q))
        except ContextError as exc:  # no constant u to divide by
            raise ContextError(f"fourier_q={q}: {exc}") from exc
    z = zeta[1 % q]
    if any(zeta[e] * z != zeta[(e + 1) % q] for e in range(q)):
        raise ContextError(
            f"fourier_q={q}: zeta^0..zeta^{q - 1} are not the powers of a zeta "
            "with zeta^q = 1 in this context"
        )
    if s * s * ctx.from_int(q) != ctx.one():
        raise ContextError(f"fourier_q={q}: s*s*q = 1 fails in this context")
    ctx._zeta_pows = zeta
    ctx.constants.update({"z": z, "w": z, "s": s})


def rational_context(u: int = 10) -> AlgebraContext:
    """Amplitudes a/u^r in Q; the context bounded-error acceptance needs."""
    if u == 0:
        raise ContextError("u must be nonzero")
    table = [[(FScalar(polys.const(0, 1), 0),)]]
    ctx = AlgebraContext(
        [],
        ["1"],
        table,
        polys.const(0, u),
        {},
        conjugation=[[FScalar(polys.const(0, 1), 0)]],
        name=f"rational{u}",
    )
    return ctx


_REGISTRY_CACHE: dict[str, AlgebraContext] = {}


def get_context(name: str) -> AlgebraContext:
    """Resolve a context name: cyclotomic<q> or rational<u> (default u=10)."""
    if name in _REGISTRY_CACHE:
        return _REGISTRY_CACHE[name]
    m = re.fullmatch(r"(cyclotomic|rational)(\d*)", name)
    if m is None or m.group(1) == "cyclotomic" and not m.group(2):
        raise ContextError(f"unknown context name {name!r}")
    try:
        number = int(m.group(2)) if m.group(2) else 10
    except ValueError as exc:  # more digits than int() converts
        raise ContextError(f"context name {name!r}: {exc}") from exc
    ctx = cyclotomic_context(number) if m.group(1) == "cyclotomic" else rational_context(number)
    _REGISTRY_CACHE[name] = ctx
    return ctx


def save_context(ctx: AlgebraContext, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ctx.to_json(), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_context(path) -> AlgebraContext:
    """Read a context written by save_context.  A file that is not JSON, or
    whose JSON does not describe a context, raises ContextError."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ContextError(f"context file {path} is not JSON: {exc}") from exc
        except RecursionError as exc:
            raise ContextError(f"context file {path} nests too deeply") from exc
    if not isinstance(data, dict):
        raise ContextError(f"context file {path} does not hold a JSON object")
    try:
        return AlgebraContext.from_json(data)
    except ContextError:
        raise
    except KeyError as exc:
        raise ContextError(f"context file {path} lacks the key {exc}") from exc
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise ContextError(f"context file {path} is malformed: {exc}") from exc
