import random
from fractions import Fraction

import pytest

from qacclab.algebra import (
    DegreeBoundError,
    ExactScalar,
    FScalar,
    LatticeSpec,
    cyclotomic_context,
    g_interpolated_product,
    g_iterated_product,
    get_context,
    ipoly_direct_product,
    ipoly_interpolated_product,
    ipoly_iterated_sum,
    lagrange_basis,
    principal_lattice,
    polys,
)
from qacclab.algebra import interpolation


def test_lattice_m2_p2():
    points = principal_lattice(LatticeSpec(2, 2))
    assert points == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


def test_lattice_m1_p3():
    assert [p[0] for p in principal_lattice(LatticeSpec(1, 3))] == [0, 1, 2, 3]


def test_lattice_counting_formula():
    assert len(principal_lattice(LatticeSpec(3, 4))) == 35
    assert LatticeSpec(3, 4).point_count == 35


def test_linear_basis_m1_p1():
    b = lagrange_basis(LatticeSpec(1, 1))
    assert b[0] == {(0,): Fraction(1), (1,): Fraction(-1)}  # 1 - y
    assert b[1] == {(1,): Fraction(1)}  # y


def test_basis_m1_p2_against_vandermonde_oracle():
    # oracle: solve the 3-point Vandermonde system for the node-1 basis poly
    # p(y) = c0 + c1 y + c2 y^2 with p(0)=0, p(1)=1, p(2)=0
    # => c0 = 0, c1 + c2 = 1, 2c1 + 4c2 = 0 => c1 = 2, c2 = -1: p = y(2-y)
    b = lagrange_basis(LatticeSpec(1, 2))
    node_index = principal_lattice(LatticeSpec(1, 2)).index((1,))
    assert b[node_index] == {(1,): Fraction(2), (2,): Fraction(-1)}


@pytest.mark.parametrize("spec", [LatticeSpec(1, 2), LatticeSpec(2, 3), LatticeSpec(3, 2)])
def test_kronecker_delta_property(spec):
    points = principal_lattice(spec)
    for j, pj in enumerate(lagrange_basis(spec)):
        assert polys.total_degree(pj) <= spec.degree_bound
        for i, point in enumerate(points):
            assert polys.evaluate(pj, point) == (1 if i == j else 0)


@pytest.mark.parametrize("spec", [LatticeSpec(1, 3), LatticeSpec(2, 2)])
def test_partition_of_unity_at_nodes(spec):
    total = {}
    for pj in lagrange_basis(spec):
        total = polys.add(total, pj)
    # the interpolant of the constant 1
    assert total == polys.const(spec.arity, Fraction(1))


def test_iterated_sum_examples():
    one = polys.const(1, 1)
    a = polys.variable(1, 0)
    assert ipoly_iterated_sum([polys.add(one, a), polys.sub(one, a)]) == polys.const(1, 2)
    assert ipoly_iterated_sum([]) == polys.zero()


def test_direct_product_examples():
    one = polys.const(1, 1)
    a = polys.variable(1, 0)
    assert ipoly_direct_product([]) == polys.const(0, 1)
    p = polys.add(one, a)
    assert ipoly_direct_product([p]) == p


def test_interpolated_product_simple():
    one = polys.const(1, 1)
    a = polys.variable(1, 0)
    got = ipoly_interpolated_product([polys.add(one, a), polys.sub(one, a)], LatticeSpec(1, 2))
    assert got == polys.sub(one, polys.power(a, 2))


def test_interpolated_product_random_vs_direct():
    rng = random.Random(4242)

    def rand_poly(m, deg):
        p = {}
        for _ in range(rng.randint(1, 4)):
            exps = []
            left = deg
            for _ in range(m):
                k = rng.randint(0, left)
                exps.append(k)
                left -= k
            c = rng.randint(-9, 9)
            if c:
                p = polys.add(p, {tuple(exps): c})
        return p

    for _ in range(40):
        items = [rand_poly(2, 2) for _ in range(rng.randint(1, 10))]
        direct = ipoly_direct_product(items)
        assert ipoly_interpolated_product(items, LatticeSpec(2, 20)) == direct


def test_degree_bound_violation_rejected():
    with pytest.raises(DegreeBoundError):
        ipoly_interpolated_product([polys.variable(1, 0)], LatticeSpec(1, 0))


def test_zero_factor_short_circuits():
    got = ipoly_interpolated_product([polys.zero(), polys.variable(1, 0)], LatticeSpec(1, 1))
    assert got == polys.zero()


def test_g_interpolated_product_matches_fold():
    for q in (3, 5):
        ctx = cyclotomic_context(q)
        z = ctx.constants["z"]
        s = ctx.constants["s"]
        values = [ctx.one() + z, z * s, ctx.from_int(2) - s, s * s]
        fold = g_iterated_product(values, ctx)
        interp = g_interpolated_product(values, ctx)
        assert (fold - interp).is_zero()
        numeric = 1
        for v in values:
            numeric *= v.numeric()
        assert abs(fold.numeric() - numeric) < 1e-9


def test_g_interpolated_empty_product_is_one():
    ctx = cyclotomic_context(3)
    assert (g_interpolated_product([], ctx) - ctx.one()).is_zero()


# -- the integer kernel against direct convolution and the table fold ----------


def _random_poly(rng, m, degree):
    """Integer polynomial with signed coefficients and total degree exactly
    `degree`."""
    coeffs = (-7, -3, -1, 1, 2, 5, 11)

    def exponents(total):
        exps, left = [], total
        for _ in range(m - 1):
            k = rng.randint(0, left)
            exps.append(k)
            left -= k
        exps.append(left)
        rng.shuffle(exps)
        return tuple(exps)

    p = {}
    for _ in range(rng.randint(0, 5)):
        p = polys.add(p, {exponents(rng.randint(0, degree)): rng.choice(coeffs)})
    top, c = exponents(degree), rng.choice(coeffs)
    p[top] = p.get(top, 0) + c or c
    return p


LATTICE_BOUNDS = {
    1: range(21),
    2: (0, 1, 2, 3, 5, 8, 13, 20),
    3: (0, 1, 2, 4, 7, 11, 20),
    4: (0, 1, 3, 6, 10, 20),
}


@pytest.mark.parametrize("arity", sorted(LATTICE_BOUNDS))
def test_kernel_random_products_vs_direct(arity):
    rng = random.Random(1000 + arity)
    for bound in LATTICE_BOUNDS[arity]:
        spec = LatticeSpec(arity, bound)
        for trial in range(4):
            # trial 0 fills the bound exactly; the others stay below it
            budget = bound if trial == 0 else rng.randint(0, bound)
            degree, items = budget, []
            while budget > 0:
                d = budget if len(items) == 4 else rng.randint(1, budget)
                budget -= d
                items.append(_random_poly(rng, arity, d))
            direct = ipoly_direct_product(items, arity)
            assert polys.total_degree(direct) == degree
            assert ipoly_interpolated_product(items, spec) == direct


def test_kernel_cancellation_and_zero_products():
    a, b = polys.variable(2, 0), polys.variable(2, 1)
    plus, minus = polys.add(a, b), polys.sub(a, b)
    spec = LatticeSpec(2, 6)
    # (a+b)(a-b)(a^2+b^2) = a^4 - b^4: every mixed term cancels
    square_sum = polys.add(polys.power(a, 2), polys.power(b, 2))
    got = ipoly_interpolated_product([plus, minus, square_sum], spec)
    assert got == {(4, 0): 1, (0, 4): -1}
    # a factor that is zero after cancellation makes the product zero
    assert ipoly_interpolated_product([plus, polys.sub(plus, plus)], spec) == {}
    assert interpolation.interpolate(spec, [0] * spec.point_count) == {}
    # a negative constant and a large coefficient survive the division by p'!
    big = polys.const(2, -(10**30) - 7)
    assert ipoly_interpolated_product([big, minus], spec) == polys.scale(minus, -(10**30) - 7)


def test_kernel_rejects_non_integral_interpolant():
    # the values 0, 0, 1 at y = 0, 1, 2 interpolate to y(y-1)/2
    with pytest.raises(ValueError, match="non-integral"):
        interpolation.interpolate(LatticeSpec(1, 2), [0, 0, 1])
    with pytest.raises(ValueError, match="non-integral"):
        interpolation.interpolate(LatticeSpec(2, 2), [0, 0, 0, 0, 0, 1])


def _least_r_form(x):
    """The coordinates as ctx.f_from_rational writes them: least power of u."""
    ctx = x.ctx
    coords = [ctx.f_from_rational(x.as_fraction(j)) for j in range(ctx.dim)]
    return ExactScalar(ctx, coords).to_json()


@pytest.mark.parametrize(
    "name,max_factors",
    [("rational10", 8), ("cyclotomic2", 6), ("cyclotomic3", 4),
     ("cyclotomic5", 4), ("cyclotomic7", 3)],
)
def test_g_interpolated_product_random_vs_fold(name, max_factors):
    ctx = get_context(name)
    u = ctx.u_int
    rng = random.Random(name)

    def rand_scalar():
        coords = []
        for _ in range(ctx.dim):
            n = rng.choice([0, 0, -9, -4, -1, 1, 3, 10, 25])
            coords.append(FScalar(polys.const(0, n), rng.randint(0, 3)))
        return ExactScalar(ctx, coords)

    for k in range(1, max_factors + 1):
        for _ in range(3):
            xs = [rand_scalar() for _ in range(k)]
            interp = g_interpolated_product(xs)
            fold = g_iterated_product(xs, ctx)
            assert interp == fold and interp.to_json() == fold.to_json()
            for c in interp.coords:
                assert c.r == 0 or c.num[()] % u != 0  # least r, no zero stored
            assert interp.to_json() == _least_r_form(interp)
    zero_factor = [rand_scalar(), ctx.zero(), rand_scalar()]
    assert g_interpolated_product(zero_factor).to_json() == ctx.zero().to_json()
