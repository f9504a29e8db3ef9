"""Iterated sums and products of integer polynomials, with the product
recoverable by multivariate interpolation on the principal lattice of a
simplex.

The interpolation route evaluates every factor at each lattice point,
multiplies the resulting integers pointwise, and rebuilds the product from
those values in integers only, in the Newton form on the lattice:

* forward differences along each coordinate line give the Newton
  coefficients c_a = Delta^a f(0), so f(y) = sum_a c_a prod_s C(y_s, a_s);
* a_s! C(y, a_s) = sum_k s(a_s, k) y^k (signed Stirling numbers of the
  first kind) and the integer weight p'!/prod_s a_s! carry the binomial
  basis to monomials over the one common denominator p'!;
* one exact division by p'! ends it, and a nonzero remainder raises.

The principal lattice is unisolvent for total degree <= p' (Chung & Yao,
SIAM J. Numer. Anal. 1977), so the result agrees exactly with direct
convolution whenever the true product degree fits the lattice order; a
violated degree bound is rejected rather than silently returning a wrong
polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import polys
from .scalars import ExactScalar, from_numerators


class DegreeBoundError(ValueError):
    """The product's true degree exceeds the lattice's interpolation order."""


@dataclass(frozen=True)
class LatticeSpec:
    """Principal lattice of the m'-simplex at order p'."""

    arity: int
    degree_bound: int

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("lattice arity must be at least 1")
        if self.degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")

    @property
    def point_count(self) -> int:
        return math.comb(self.degree_bound + self.arity, self.arity)


def principal_lattice(spec: LatticeSpec) -> list[tuple[int, ...]]:
    """All nonnegative integer points with coordinate sum <= p', lex order."""
    points: list[tuple[int, ...]] = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            points.append(tuple(prefix))
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], spec.degree_bound, spec.arity)
    points.sort()
    assert len(points) == spec.point_count
    return points


def _coordinate_lines(points: list[tuple[int, ...]], arity: int) -> list[list[list[int]]]:
    """For each coordinate s, the lattice lines along s as lists of point
    indices, ordered by the s-th coordinate (lex order makes them so).
    Lines of one point are left out: both transforms fix them."""
    per_coord = []
    for s in range(arity):
        lines: dict = {}
        for i, point in enumerate(points):
            lines.setdefault(point[:s] + point[s + 1:], []).append(i)
        per_coord.append([line for line in lines.values() if len(line) > 1])
    return per_coord


def _stirling_first(p: int) -> list[list[int]]:
    """rows[n][k] = s(n, k), so that y(y-1)...(y-n+1) = sum_k s(n, k) y^k."""
    rows = [[1]]
    for n in range(1, p + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [prev[k - 1] - (n - 1) * prev[k] for k in range(1, n + 1)])
    return rows


def _scaled_interpolant(spec: LatticeSpec, values) -> tuple[list, list[int]]:
    """(lattice points, p'! times the interpolant's coefficients), the
    coefficient of y^e at the index of point e.

    `values` holds one integer per lattice point in principal_lattice
    order; the interpolant is the unique polynomial of total degree <= p'
    taking those values, and p'! times it has integer coefficients.
    """
    p = spec.degree_bound
    points = principal_lattice(spec)
    v = list(values)
    if len(v) != len(points):
        raise ValueError(f"expected {len(points)} lattice values, got {len(v)}")
    lines = _coordinate_lines(points, spec.arity)
    # forward differences along every coordinate leave c_a = Delta^a f(0) at a
    for coord_lines in lines:
        for line in coord_lines:
            col = [v[i] for i in line]
            for k in range(1, len(col)):
                for i in range(len(col) - 1, k - 1, -1):
                    col[i] -= col[i - 1]
            for i, c in zip(line, col):
                v[i] = c
    # p'! c_a prod_s C(y_s, a_s) = c_a (p'!/prod_s a_s!) prod_s a_s! C(y_s, a_s),
    # and the weight p'!/prod_s a_s! is an integer because sum(a) <= p'
    fact = [math.factorial(k) for k in range(p + 1)]
    for i, point in enumerate(points):
        if v[i]:
            w = fact[p]
            for a in point:
                w //= fact[a]
            v[i] *= w
    # a! C(y, a) = sum_k s(a, k) y^k, applied along every coordinate
    stirling = _stirling_first(p)
    for coord_lines in lines:
        for line in coord_lines:
            col = [v[i] for i in line]
            for k, i in enumerate(line):
                v[i] = sum(stirling[a][k] * col[a] for a in range(k, len(col)) if col[a])
    return points, v


def interpolate(spec: LatticeSpec, values) -> polys.Poly:
    """The integer polynomial of total degree <= p' taking `values` (one
    integer per lattice point, in principal_lattice order).

    Raises ValueError if that polynomial does not have integer
    coefficients: the final division by p'! must be exact.
    """
    points, scaled = _scaled_interpolant(spec, values)
    denom = math.factorial(spec.degree_bound)
    out: polys.Poly = {}
    for point, c in zip(points, scaled):
        if c:
            quo, rem = divmod(c, denom)
            if rem:
                raise ValueError(
                    f"non-integral interpolant: coefficient of {point} is {c}/{denom}"
                )
            out[point] = quo
    return out


def lagrange_basis(spec: LatticeSpec) -> list[dict]:
    """One Fraction-coefficient polynomial per lattice point, delta-valued
    on the lattice and of total degree <= p'.

    Basis polynomial j is the interpolant of the j-th unit vector, read off
    the integer kernel as (p'! p_j) / p'!.
    """
    n = spec.point_count
    denom = math.factorial(spec.degree_bound)
    basis = []
    for j in range(n):
        points, scaled = _scaled_interpolant(spec, [int(i == j) for i in range(n)])
        basis.append(
            {point: Fraction(c, denom) for point, c in zip(points, scaled) if c}
        )
    return basis


def ipoly_iterated_sum(items, arity: int | None = None) -> polys.Poly:
    """Exact coefficient-wise sum of integer polynomials."""
    items = list(items)
    polys.check_arity(items, arity)
    total: polys.Poly = {}
    for p in items:
        total = polys.add(total, p)
    return total


def ipoly_direct_product(items, arity: int | None = None) -> polys.Poly:
    """Exact product by sequential convolution (the cross-check reference)."""
    items = list(items)
    m = polys.check_arity(items, arity)
    total = polys.const(m if m is not None else (arity or 0), 1)
    for p in items:
        total = polys.mul(total, p)
    return total


def ipoly_interpolated_product(items, spec: LatticeSpec) -> polys.Poly:
    """Product reconstructed from lattice evaluations; exact or rejected."""
    items = list(items)
    polys.check_arity(items, spec.arity)
    degrees = [polys.total_degree(p) for p in items]
    if any(d is None for d in degrees):
        return polys.zero()
    true_degree = sum(degrees)
    if true_degree > spec.degree_bound:
        raise DegreeBoundError(
            f"product degree {true_degree} exceeds lattice order {spec.degree_bound}"
        )
    points = principal_lattice(spec)
    values = [1] * len(points)
    for p in items:
        for i, v in enumerate(_lattice_values(p, spec, points)):
            values[i] *= v
    return interpolate(spec, values)


def _lattice_values(p: polys.Poly, spec: LatticeSpec, points) -> list[int]:
    """p at every lattice point, in `points` order, one variable at a time:
    stage s maps (x_0..x_{s-1}, e_s..e_{m-1}) to the partial sum with the
    first s variables evaluated, so each term meets each value of x_s once
    rather than once per lattice point."""
    bound = spec.degree_bound
    powers = [[x**e for e in range(bound + 1)] for x in range(bound + 1)]
    partial = p
    for s in range(spec.arity):
        staged: dict = {}
        for key, c in partial.items():
            head, e, tail = key[:s], key[s], key[s + 1:]
            for x in range(bound - sum(head) + 1):
                k = head + (x,) + tail
                staged[k] = staged.get(k, 0) + c * powers[x][e]
        partial = staged
    return [partial.get(point, 0) for point in points]


# ---------------------------------------------------------------------------
# interpolated products in G


def g_interpolated_product(xs: list[ExactScalar], ctx=None) -> ExactScalar:
    """Iterated product in G via lattice evaluation of d-variate linear forms.

    Factor i, sum_j (n_ij / u^r_i) beta_j, contributes its numerators as the
    integer linear form sum_j n_ij y_j.  The product of those forms is
    interpolated on the principal lattice of order k = number of factors;
    each of its monomials y^e then has beta^e substituted once, through the
    context's structure constants over u^t.  The result is over
    u^(sum_i r_i + (k-1) t), reduced.  Exact for contexts without
    indeterminates; the mult-table fold remains the source of truth.
    """
    if xs:
        ctx = xs[0].ctx
    if ctx is None:
        raise ValueError("empty product needs an explicit context")
    if ctx.arity != 0:
        raise ValueError("interpolated products need a context with no indeterminates")
    if not xs:
        return ctx.one()
    d = ctx.dim
    spec = LatticeSpec(arity=d, degree_bound=len(xs))
    values = []
    for point in principal_lattice(spec):
        v = 1
        for x in xs:
            v *= sum(lam * y for lam, y in zip(x.nums, point) if y)
            if not v:
                break
        values.append(v)
    product = interpolate(spec, values)

    # beta_k beta_j as integer vectors over u^t; every monomial of a product
    # of k linear forms has degree k, so every beta^e below is a vector over
    # the same u^((k-1) t)
    table = ctx.mul_constants
    powers: dict = {}

    def beta_power(exps: tuple[int, ...]) -> list[int]:
        vec = powers.get(exps)
        if vec is None:
            j = max(s for s, e in enumerate(exps) if e)
            lower = exps[:j] + (exps[j] - 1,) + exps[j + 1:]
            vec = [0] * d
            if any(lower):
                for k, a in enumerate(beta_power(lower)):
                    if a:
                        for l, entry in table[k][j]:
                            vec[l] += a * entry
            else:
                vec[j] = 1
            powers[exps] = vec
        return vec

    total = [0] * d
    for exps, coeff in product.items():
        for l, b in enumerate(beta_power(exps)):
            if b:
                total[l] += coeff * b
    r_total = sum(x.r for x in xs) + (len(xs) - 1) * ctx.mul_r
    return from_numerators(ctx, total, r_total)
