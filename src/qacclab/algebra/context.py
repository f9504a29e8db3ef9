"""Algebra contexts: the field G = Q(A)(B) an amplitude lives in.

A context fixes the ordered indeterminates A, the basis B (with basis
element 0 being 1), the d x d basis multiplication table, the common
denominator u, and floating approximations of the basis elements.  The
approximations serve display alone: each must be finite, validate()
refuses a table they disagree with by more than 1e-9 or that divides by a
u they evaluate to ~0, and no verdict reads them.
From the table (and the conjugation, when given) it computes once the
structure constants the scalar kernel reads: for each basis product
beta_a beta_b the nonzero (j, numerator) pairs of its coordinates over one
power u^mul_r (`mul_constants`), and likewise over u^conj_r for the
conjugates (`conj_constants`).  Numerators are ints without
indeterminates and polys.Numerator polynomials with them.

Shipped contexts:

* ``cyclotomic(q)``: exact arithmetic for the entries of the q-ary Fourier
  gate.  The basis is the power basis 1, z, ..., z^(phi(q)-1) of the q-th
  root of unity z, reduced by the q-th cyclotomic polynomial, with the
  extra element s = 1/sqrt(q) adjoined only when sqrt(q) is not already in
  Q(z).  Otherwise (q = 0, 1 mod 4) sqrt(q) is computed in the context's
  own arithmetic from the quadratic Gauss sum sum_a z^(a^2).  Phi_q(z) = 0
  (z^q = 1 and sum_(j<m) z^(jq/m) = 0 for every m > 1 dividing q) and
  s*s*q = 1 are checked exactly, as for every context file that declares
  a ``fourier_q``.  The common denominator is u = q.  Its table of d^3
  entries is held against budget.BUDGET before it is built.

* ``rational(u)``: plain rational amplitudes a/u^r (d = 1), as required by
  bounded-error acceptance.

User contexts load from JSON.  Their table is checked exactly for
associativity and their conjugation for its laws; their basis independence
is declared, not decided.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import re
from fractions import Fraction

from .. import budget
from . import polys
from .scalars import (
    EvaluationError,
    ExactScalar,
    FScalar,
    f_from_json,
    f_numeric,
    f_to_json,
    structure_constants,
)


# Largest power of u in a context file's table entry.  A JSON r names the
# size of u^r, which its few digits do not show, so r is checked as input.
U_POWER_CAP = 64
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
        self.num_zero = polys.Numerator() if self.arity else 0
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
        # den divides u^r for the least r at which stripping gcd(rest, u)
        # r times leaves 1; a gcd of 1 before that means no power will do
        r, rest = 0, den
        while rest != 1:
            g = math.gcd(rest, self.u_int)
            if g == 1:
                raise ContextError(
                    f"denominator {den} does not divide a power of u={self.u_int}"
                )
            r, rest = r + 1, rest // g
        return FScalar(polys.const(self.arity, num * (self.u_int**r // den)), r)

    def u_power(self, k: int):
        """u^k as a numerator: an int without indeterminates, else a Numerator."""
        if self.u_int is not None:
            return self.u_int**k
        return polys.Numerator(polys.power(self.denominator, k))

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
                try:
                    via_table = sum(
                        f_numeric(entry, self) * self.basis_values[j]
                        for j, entry in enumerate(self.mult_table[a][b])
                        if not entry.is_zero()
                    )
                except EvaluationError:
                    raise ContextError(
                        f"numeric assignment makes u ~0, but mult_table at ({a},{b}) "
                        "divides by a power of u"
                    ) from None
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
        _check_file_exactly(ctx)
        if ctx.fourier_q is not None:
            _attach_fourier_constants(ctx, ctx.fourier_q)
        return ctx


def _check_file_exactly(ctx) -> None:
    """Raise ContextError unless the table is associative on basis triples,
    and the conjugation, if any, is an involution, is multiplicative on basis
    pairs (so it fixes 1) and makes each b*conj(b) nonzero and, where
    rational, positive (it must be |b|^2).  Generated contexts pass."""
    name, table, zero = ctx.basis, ctx.mul_constants, ctx.num_zero

    # sparse, as ExactScalar products are not: with them a d = 64 file loads 5x slower
    def times(cells, k):  # (sum of n * b_m over the cells) * b_k, over u^(2 mul_r)
        acc = {}
        for m, n in cells:
            for p, c in table[m][k]:
                acc[p] = acc.get(p, zero) + n * c
        return {p: v for p, v in acc.items() if v}

    # triples with 1 hold by the identity row, (k, j, i) with (i, j, k) by symmetry
    for i, j, k in itertools.product(range(1, ctx.dim), repeat=3):
        if i <= k and times(table[i][j], k) != times(table[j][k], i):
            raise ContextError(f"mult_table is not associative at ({name[i]}*{name[j]})*{name[k]}")
    if ctx.conjugation is None:
        return
    basis = [ctx.basis_element(j) for j in range(ctx.dim)]
    conj = [b.conjugate() for b in basis]
    for i, (a, b, cb) in enumerate(zip(name, basis, conj)):
        if cb.conjugate() != b:
            raise ContextError(f"conjugation is not an involution at {a}")
        for j in range(i, ctx.dim):
            if (b * basis[j]).conjugate() != cb * conj[j]:
                raise ContextError(f"conjugation is not multiplicative at {a}*{name[j]}")
        value = _rational_value(b * cb)  # 0 is rational
        if value is not None and value <= 0:
            raise ContextError(f"conjugation: {a}*conj({a}) = {value}, but |{a}|^2 is positive")


def _rational_value(x: ExactScalar) -> Fraction | None:
    """x as a Fraction when it is a rational number, else None (`as_fraction`
    refuses every x of a context with indeterminates, constants too)."""
    f, const, u = x.coords[0], (0,) * x.ctx.arity, x.ctx.denominator
    if any(x.nums[1:]) or set(f.num) - {const}:  # not a constant times 1
        return None
    if f.r and set(u) != {const}:  # over a power of a non-constant u
        return None
    return Fraction(f.num.get(const, 0), u.get(const, 1) ** f.r)


def _pair(v):
    if isinstance(v, complex):
        v = [v.real, v.imag]
    elif len(v) != 2 or not all(isinstance(x, (int, float)) and type(x) is not bool for x in v):
        raise ContextError(f"numeric value {v!r} is not a pair of numbers")
    pair = [float(v[0]), float(v[1])]
    if not all(map(math.isfinite, pair)):  # json.load reads NaN and Infinity
        raise ContextError(f"numeric value {v!r} is not a pair of finite numbers")
    return pair


# ---------------------------------------------------------------------------
# cyclotomic machinery (dense one-variable integer polynomials as lists)


def cyclotomic_polynomial(q: int) -> list[int]:
    """Coefficients (ascending) of the q-th cyclotomic polynomial: for q > 1
    the product over d | q of (1 - x^d)^mu(q/d), run as a power series cut
    at its degree phi(q).  mu(q/d) is (-1)^k when q/d is a product of k of
    the primes of q, found by trial division, and 0 otherwise."""
    if q < 1:
        raise ValueError("q must be positive")
    primes = [p for p in range(2, q + 1) if q % p == 0 and all(p % f for f in range(2, p))]
    deg = q // math.prod(primes) * math.prod(p - 1 for p in primes)  # phi(q)
    coeffs = [1] + [0] * deg
    for k in range(len(primes) + 1):
        for chosen in itertools.combinations(primes, k):
            d = q // math.prod(chosen)
            if k % 2:  # over 1 - x^d: times 1 + x^d + x^(2d) + ...
                for i in range(d, deg + 1):
                    coeffs[i] += coeffs[i - d]
            else:  # times 1 - x^d
                for i in range(deg, d - 1, -1):
                    coeffs[i] -= coeffs[i - d]
    return coeffs if q > 1 else [-1, 1]  # Phi_1 = x - 1 = -(1 - x)


def _dimension(q: int, bound: int) -> int | None:
    """The dimension q's Fourier constants need, phi(q), doubled for q = 2,
    3 mod 4 (s = 1/sqrt(q) is adjoined), or None when q alone shows it is
    above `bound`: phi(q) >= sqrt(q/2), so a q above 2 bound^2 is not
    counted."""
    if q > 2 * bound * bound:
        return None
    return sum(math.gcd(k, q) == 1 for k in range(q)) * (2 if q % 4 in (2, 3) else 1)


def table_dim_bound() -> int:
    """The largest dimension d whose d x d x d basis table fits the memory
    budget, budget.BUDGET (101 at 2^20)."""
    d = round(budget.BUDGET ** (1 / 3))
    return d if d**3 <= budget.BUDGET else d - 1


def _coords(vec: list[int], dim: int, offset: int = 0, r: int = 0) -> list[FScalar]:
    """Integer coordinates over u^r, placed from basis index `offset` on."""
    coords = [FScalar({}, 0)] * dim
    for j, c in enumerate(vec):
        if c:
            coords[offset + j] = FScalar(polys.const(0, c), r)
    return coords


def cyclotomic_context(q: int) -> AlgebraContext:
    """Exact context for circuits over the q-ary Fourier gate set.  Its
    dimension d is phi(q), or 2 phi(q) when sqrt(q) is not in Q(zeta_q)
    (q = 2, 3 mod 4).  Its table's d^3 entries are charged to the memory
    budget from q alone, before anything is built: d above table_dim_bound()
    raises CapExceededError.  A q too large to count phi(q) for is charged
    (table_dim_bound() + 1)^3 entries, a lower bound of its table."""
    if q < 2:
        raise ContextError("q must be at least 2")
    bound = table_dim_bound()
    d = _dimension(q, bound)
    if d is None:
        budget.hold((bound + 1) ** 3, f"table entries (at least: d > {bound}) of cyclotomic{q}")
    budget.hold(d**3, f"table entries (d = {d}) of cyclotomic{q}")
    phi = cyclotomic_polynomial(q)
    deg = len(phi) - 1
    # zeta^e in the power basis for e = 0..q-1: each is the one before times
    # z, its top coefficient folded back through the monic phi_q
    red = [[1] + [0] * (deg - 1)]
    for _ in range(q - 1):
        top = red[-1][-1]
        red.append([c - top * p for c, p in zip([0] + red[-1][:-1], phi)])
    extended = d > deg
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
    _attach_fourier_constants(ctx, q)
    return ctx


def _attach_fourier_constants(ctx, q):
    """Bind z (= w), s and the zeta power list used by gates, computed in
    the context's own arithmetic: z is basis element 1 (-1 for q = 2, 1 for
    q = 1) and zeta^e = z^e.  s is basis element phi(q) for q = 2, 3 mod 4,
    and 1 for q = 1; otherwise sqrt(q) is the Gauss sum G = sum zeta^(a^2),
    or G (1 - i)/2 with i = zeta^(q/4) when 4 | q, and dividing it by q
    needs a constant u.  Raises ContextError when phi(q), doubled for
    q = 2, 3 mod 4, exceeds the dimension, and unless s*s*q = 1 and
    Phi_q(z) = 0 hold exactly, the latter as z^q = 1 and sum_(j<m)
    zeta^(jq/m) = 0 for every m > 1 dividing q, with no Phi_q built."""
    if type(q) is not int or q < 1:  # a JSON true is no q
        raise ContextError(f"fourier_q={q!r} must be a positive integer")
    d = _dimension(q, ctx.dim)
    if d is None or d > ctx.dim:
        raise ContextError(f"fourier_q={q}: phi(q) exceeds the context dimension {ctx.dim}")
    z = ctx.from_int(-1) if q == 2 else ctx.one() if q == 1 else ctx.basis_element(1)
    zeta = [ctx.one()]
    for _ in range(q - 1):
        zeta.append(zeta[-1] * z)
    if q % 4 in (2, 3):
        s = ctx.basis_element(d // 2)
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
    if zeta[-1] * z != ctx.one() or any(
        not sum(zeta[:: q // m], ctx.zero()).is_zero() for m in range(2, q + 1) if q % m == 0
    ):
        raise ContextError(f"fourier_q={q}: zeta is not a root of Phi_{q} in this context")
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
    m = re.fullmatch(r"(cyclotomic|rational)([0-9]*)", name)  # not \d: int() reads other digits
    if m is None or m.group(1) == "cyclotomic" and not m.group(2):
        raise ContextError(f"unknown context name {name!r}")
    if m.group(2)[:1] == "0" and len(m.group(2)) > 1:  # another spelling of another name
        raise ContextError(f"context name {name!r}: its number has a leading zero")
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
        for key in ("indeterminates", "basis"):  # a string would be read as its characters
            names = data[key]
            if not (isinstance(names, list) and all(isinstance(x, str) for x in names)):
                raise TypeError(f"{key} {names!r} is not a list of strings")
        return AlgebraContext.from_json(data)
    except ContextError:
        raise
    except KeyError as exc:
        raise ContextError(f"context file {path} lacks the key {exc}") from exc
    except (TypeError, ValueError, AttributeError, IndexError, OverflowError) as exc:
        raise ContextError(f"context file {path} is malformed: {exc}") from exc
