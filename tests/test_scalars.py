import random
from fractions import Fraction

import pytest

from support import FractionReference, sqrt_a1_context

from qacclab.algebra import scalars
from qacclab.algebra import (
    ContextError,
    ExactScalar,
    FScalar,
    cyclotomic_context,
    g_iterated_sum,
    get_context,
    polys,
    rational_context,
)


@pytest.fixture(scope="module")
def c3():
    return get_context("cyclotomic3")


def _first_coord(ctx, num, r):
    """The scalar (num / u^r) * 1, written with the given power of u."""
    return ExactScalar(ctx, [FScalar(polys.const(0, num), r)] + [ctx.f_zero] * (ctx.dim - 1))


def test_f_add_common_denominator(c3):
    # s/u^2 + t/u -> (s + t*u)/u^2
    out = _first_coord(c3, 5, 2) + _first_coord(c3, 7, 1)
    assert out.coords[0].r == 2
    assert out.coords[0].num == polys.const(0, 5 + 7 * 3)


def test_f_add_zero_identity(c3):
    a = _first_coord(c3, 4, 1)
    assert (a + c3.zero()).key() == a.key()
    assert c3.zero() + a == a


def test_f_mul_denominators_accumulate(c3):
    inv_u = _first_coord(c3, 1, 1)
    out = (inv_u * inv_u).coords[0]
    assert out.r == 2 and out.num == polys.const(0, 1)


def test_f_eq_across_denominator_powers(c3):
    # 3/u == 9/u^2 for u = 3, and both are stored as 1
    a, b = _first_coord(c3, 3, 1), _first_coord(c3, 9, 2)
    assert a == b == c3.one()
    assert a.key() == b.key() and a.to_json() == c3.one().to_json()


def test_gaussian_integers_product():
    # basis {1, i}: (1+i)(1-i) = 2
    ctx = get_context("cyclotomic4")
    i = ctx.constants["z"]
    one = ctx.one()
    assert ((one + i) * (one - i) - ctx.from_int(2)).is_zero()


def test_sqrt2_product():
    # (1+sqrt2)(-1+sqrt2) = 1, with sqrt2 = 2*(1/sqrt2)
    ctx = get_context("cyclotomic2")
    sqrt2 = ctx.constants["s"] + ctx.constants["s"]
    one = ctx.one()
    assert ((one + sqrt2) * (sqrt2 - one) - one).is_zero()


def test_mul_by_one_and_zero(c3):
    z = c3.constants["z"]
    x = z + c3.from_int(3)
    assert (x * c3.one() - x).is_zero()
    assert (x * c3.zero()).is_zero()


def test_zero_test_hadamard_identity():
    # (1/sqrt2)*(1/sqrt2) - 1/2 is exactly zero
    ctx = get_context("cyclotomic2")
    s = ctx.constants["s"]
    half = ctx.scalar_from_rational(Fraction(1, 2))
    assert (s * s - half).is_zero()


def test_iterated_sum(c3):
    z = c3.constants["z"]
    assert g_iterated_sum([z, -z], c3).is_zero()
    b1 = c3.basis_element(1)
    two_b1 = g_iterated_sum([b1, b1], c3)
    assert (two_b1 - (b1 + b1)).is_zero()
    assert g_iterated_sum([], c3).is_zero()


def _random_scalar(rng, ctx) -> ExactScalar:
    coords = []
    for _ in range(ctx.dim):
        c = rng.randint(-4, 4)
        if c == 0:
            coords.append(ctx.f_zero)
        else:
            coords.append(FScalar(polys.const(0, c), rng.randint(0, 2)))
    return ExactScalar(ctx, coords)


@pytest.mark.parametrize("q", [3, 5])
def test_ring_axioms_on_random_triples(q):
    ctx = cyclotomic_context(q)
    rng = random.Random(900 + q)
    for _ in range(60):
        a, b, c = (_random_scalar(rng, ctx) for _ in range(3))
        assert ((a + b) + c) == (a + (b + c))
        assert (a + b) == (b + a)
        assert (a * b) == (b * a)
        assert ((a * b) * c) == (a * (b * c))
        assert (a * (b + c)) == (a * b + a * c)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_numeric_cross_checks(q):
    ctx = cyclotomic_context(q)
    rng = random.Random(7000 + q)
    for _ in range(40):
        a = _random_scalar(rng, ctx)
        b = _random_scalar(rng, ctx)
        assert abs((a * b).numeric() - a.numeric() * b.numeric()) < 1e-9
        assert abs((a + b).numeric() - (a.numeric() + b.numeric())) < 1e-9
        if a.is_zero():
            assert abs(a.numeric()) < 1e-9
    x = _random_scalar(rng, ctx)
    assert abs((x * x).numeric() - x.numeric() ** 2) < 1e-9


def test_sum_numeric_agreement():
    ctx = cyclotomic_context(3)
    rng = random.Random(555)
    values = [_random_scalar(rng, ctx) for _ in range(20)]
    total = g_iterated_sum(values, ctx)
    assert abs(total.numeric() - sum(v.numeric() for v in values)) < 1e-9


def test_rational_context_fraction():
    ctx = rational_context(10)
    x = ctx.scalar_from_rational(Fraction(3, 4))
    assert x.as_fraction() == Fraction(3, 4)
    with pytest.raises(ContextError):
        ctx.scalar_from_rational(Fraction(1, 3))


def test_conjugation_fixes_reals():
    for q in (2, 3, 4, 5):
        ctx = cyclotomic_context(q)
        s = ctx.constants["s"]
        assert (s.conjugate() - s).is_zero()
        z = ctx.constants["z"]
        assert abs(z.conjugate().numeric() - z.numeric().conjugate()) < 1e-9


def test_exact_half_evaluates():
    ctx = get_context("cyclotomic2")
    half = ctx.scalar_from_rational(Fraction(1, 2))
    assert half.numeric() == 0.5 + 0j


def test_root_of_unity_coordinates():
    # basis vector (0, 1) in cyclotomic 3 is exp(2 pi i / 3)
    ctx = get_context("cyclotomic3")
    z = ctx.basis_element(1)
    assert abs(z.numeric() - complex(-0.5, 0.8660254037844386)) < 1e-9


def test_numeric_evaluation_fails_on_vanishing_denominator():
    from qacclab.algebra import AlgebraContext, EvaluationError

    one = FScalar(polys.const(1, 1), 0)
    ctx = AlgebraContext(
        ["a1"],
        ["1"],
        [[(one,)]],
        polys.variable(1, 0),
        {"a1": [1e-15, 0.0]},
    )
    tiny = ExactScalar(ctx, [FScalar(polys.const(1, 3), 1)])
    with pytest.raises(EvaluationError):
        tiny.numeric()


def test_iterated_sum_arity_mismatch_rejected():
    from qacclab.algebra import ipoly_iterated_sum

    with pytest.raises(ValueError, match="arity"):
        ipoly_iterated_sum([polys.variable(1, 0), polys.variable(2, 1)])


def test_hash_consistent_with_equality(c3):
    # q/q and 1 are the same scalar through different representations
    q_over_q = ExactScalar(c3, [FScalar(polys.const(0, 3), 1)] + [c3.f_zero] * 3)
    assert q_over_q == c3.one()
    assert hash(q_over_q) == hash(c3.one())
    assert q_over_q.key() == c3.one().key()


def test_hash_consistent_with_equality_with_indeterminates():
    # with u = a1: 1/u and u/u^2 are one scalar in two representations
    from qacclab.algebra import AlgebraContext

    one = FScalar(polys.const(1, 1), 0)
    ctx = AlgebraContext(["a1"], ["1"], [[(one,)]], polys.variable(1, 0), {"a1": [2.0, 0.0]})
    inv_u = ExactScalar(ctx, [FScalar(polys.const(1, 1), 1)])
    u_over_u2 = ExactScalar(ctx, [FScalar(polys.variable(1, 0), 2)])
    assert inv_u == u_over_u2
    assert hash(inv_u) == hash(u_over_u2)
    assert len({inv_u, u_over_u2}) == 1
    assert len({inv_u, ctx.one()}) == 2


def test_hash_invariant_under_rescaling_two_indeterminates():
    # u = a1 - a2 + 1 vanishes on the line a2 = a1 + 1; scaling a numerator
    # by u^k and raising r by k must not change the hash
    from qacclab.algebra import AlgebraContext

    one = FScalar(polys.const(2, 1), 0)
    u = polys.from_terms([[1, [1, 0]], [-1, [0, 1]], [1, [0, 0]]], 2)
    ctx = AlgebraContext(
        ["a1", "a2"], ["1"], [[(one,)]], u, {"a1": [3.0, 0.0], "a2": [0.5, 0.0]}
    )
    rng = random.Random(31)
    for _ in range(20):
        num = {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-5, 5) or 1}
        r, k = rng.randint(0, 2), rng.randint(1, 3)
        a = ExactScalar(ctx, [FScalar(num, r)])
        b = ExactScalar(ctx, [FScalar(polys.mul(num, ctx.u_power(k)), r + k)])
        assert a == b and hash(a) == hash(b)


def test_rescaled_scalars_share_one_form_two_indeterminates():
    # basis 1, b with b*b = 1/u and u = a1 - a2 + 1: numerators times u^k
    # over u^(r+k) reduce to the same stored form, and == holds exactly when
    # the values agree at rational points (checked against Fractions)
    from qacclab.algebra import AlgebraContext

    one, zero = FScalar(polys.const(2, 1), 0), FScalar({}, 0)
    u = polys.from_terms([[1, [1, 0]], [-1, [0, 1]], [1, [0, 0]]], 2)
    ctx = AlgebraContext(
        ["a1", "a2"],
        ["1", "b"],
        [[(one, zero), (zero, one)], [(zero, one), (FScalar(polys.const(2, 1), 1), zero)]],
        u,
        {"a1": [3.0, 0.0], "a2": [0.5, 0.0], "b": [3.5**-0.5, 0.0]},
        conjugation=[[one, zero], [zero, one]],
    )
    refs = [FractionReference(ctx, p) for p in ((2, 5), (Fraction(1, 3), 4), (7, -1))]
    rng = random.Random(32)

    def numerator():
        p = {}
        for _ in range(rng.randint(0, 3)):
            p = polys.add(p, {(rng.randint(0, 2), rng.randint(0, 1)): rng.choice([-2, 1, 3])})
        return p

    made = []
    for _ in range(40):
        cs = [FScalar(numerator(), rng.randint(0, 2)) for _ in range(ctx.dim)]
        k = rng.randint(1, 3)
        a = ExactScalar(ctx, cs)
        up = ctx.u_power(k)
        b = ExactScalar(ctx, [FScalar(polys.mul(f.num, up), f.r + k) for f in cs])
        assert a.key() == b.key() and hash(a) == hash(b) and a.to_json() == b.to_json()
        made += [a, b, a * b, (a + b) * ctx.basis_element(1)]
    forms = [([ref.of(x) for ref in refs], x.key(), x.to_json()) for x in made]
    equal_pairs = 0
    for x, (values, key, data) in zip(made, forms):
        for y, (y_values, y_key, y_data) in zip(made, forms):
            assert (x == y) == (values == y_values) == (key == y_key) == (data == y_data)
            equal_pairs += x == y
    assert equal_pairs >= 3 * len(made) // 2  # x == x, and a == b each round


# -- the flat form against an independent Fraction reference -------------------


REFERENCE_CONTEXTS = {
    "rational10": [()],
    "cyclotomic2": [()],
    "cyclotomic3": [()],
    "cyclotomic5": [()],
    "cyclotomic7": [()],
    "sqrt_a1": [(2,), (3,), (Fraction(-5, 2),), (7,), (Fraction(1, 3),)],
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CONTEXTS))
def test_arithmetic_matches_fraction_reference(name):
    ctx = sqrt_a1_context() if name == "sqrt_a1" else get_context(name)
    refs = [FractionReference(ctx, p) for p in REFERENCE_CONTEXTS[name]]
    rng = random.Random(name)

    def numerator():
        if ctx.arity == 0:
            return polys.const(0, rng.choice([0, 0, -9, -4, -1, 1, 3, 10, 25]))
        p = {}
        for _ in range(rng.randint(0, 2)):
            p = polys.add(p, {(rng.randint(0, 2),): rng.choice([-3, -1, 1, 2, 5])})
        return p

    def coords():
        return [FScalar(numerator(), rng.randint(0, 2)) for _ in range(ctx.dim)]

    def rescaled(cs, k):
        """The same coordinates with numerators times u^k over u^(r+k)."""
        up = polys.power(ctx.denominator, k)
        return [FScalar(polys.mul(f.num, up), f.r + k) for f in cs]

    for _ in range(30):
        ca, cb = coords(), coords()
        a, b = ExactScalar(ctx, ca), ExactScalar(ctx, cb)
        for ref in refs:
            ra, rb = ref.vector(ca), ref.vector(cb)
            assert ref.of(a) == ra
            assert ref.of(a + b) == ref.add(ra, rb)
            assert ref.of(a - b) == ref.sub(ra, rb)
            assert ref.of(-a) == ref.sub([0] * ctx.dim, ra)
            assert ref.of(a * b) == ref.mul(ra, rb)
            assert ref.of(a.conjugate()) == ref.conjugate(ra)
        assert (a == b) == all(ref.vector(ca) == ref.vector(cb) for ref in refs)
        same = ExactScalar(ctx, rescaled(ca, rng.randint(1, 3)))
        assert same == a and hash(same) == hash(a)
        assert a * b - b * a == ctx.zero() and (a - b) + b == a
        assert same.key() == a.key() and same.to_json() == a.to_json()

    # 1/u and u/u^2: one scalar in two representations
    rest = [FScalar({}, 0)] * (ctx.dim - 1)
    inv_u = ExactScalar(ctx, [FScalar(polys.const(ctx.arity, 1), 1)] + rest)
    u_over_u2 = ExactScalar(ctx, [FScalar(dict(ctx.denominator), 2)] + rest)
    assert inv_u == u_over_u2 and hash(inv_u) == hash(u_over_u2)
    assert all(ref.of(inv_u) == ref.of(u_over_u2) for ref in refs)
    assert inv_u * ExactScalar(ctx, [FScalar(dict(ctx.denominator), 0)] + rest) == ctx.one()
    assert inv_u.key() == u_over_u2.key() and inv_u.to_json() == u_over_u2.to_json()


def _strip_power_by_power(ctx, nums, r):
    """The reduction from_numerators makes, as one divisibility scan per
    power of u: the slow path its gcd reduction replaced."""
    u = ctx.u_int
    while r and not any(n % u for n in nums):
        nums = [n // u for n in nums]
        r -= 1
    return tuple(nums), r


@pytest.mark.parametrize(
    "name", ["rational10", "rational12", "cyclotomic2", "cyclotomic3", "cyclotomic5", "cyclotomic7"]
)
def test_gcd_reduction_matches_the_power_by_power_scan(name):
    # u = 10 and u = 12 are composite: numerators divisible by a factor of
    # u, but not by u, must keep their r
    ctx = get_context(name)
    u = ctx.u_int
    rng = random.Random(f"gcd:{name}")
    stripped = kept = 0
    for trial in range(600):
        r = trial % 7
        power = u ** rng.randint(0, 8)
        if trial % 50 == 0:
            nums = [0] * ctx.dim
        else:
            nums = [
                rng.choice((0, 1, -1, 2, 3, 5, -4, 25, rng.randint(-10**15, 10**15))) * power
                for _ in range(ctx.dim)
            ]
        x = scalars.from_numerators(ctx, nums, r)
        assert (x.nums, x.r) == _strip_power_by_power(ctx, nums, r), (nums, r)
        stripped += x.r < r
        kept += 0 < x.r == r
    assert stripped > 100 and kept > 20
