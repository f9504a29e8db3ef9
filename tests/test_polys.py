import random

import pytest

from qacclab.algebra import polys


def test_const_and_zero():
    assert polys.zero() == {}
    assert polys.const(2, 0) == {}
    assert polys.const(2, 5) == {(0, 0): 5}


def test_add_cancels_to_zero():
    one = polys.const(1, 1)
    a = polys.variable(1, 0)
    p = polys.add(one, a)  # 1 + a
    q = polys.sub(one, a)  # 1 - a
    assert polys.add(p, q) == {(0,): 2}


def test_iterated_sum_matches_naive_accumulation():
    # independent oracle: accumulate term maps directly
    rng = random.Random(101)
    items = []
    for _ in range(50):
        p = {}
        for _ in range(rng.randint(0, 6)):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            c = rng.randint(-5, 5)
            if c:
                p[e] = p.get(e, 0) + c
                if p[e] == 0:
                    del p[e]
        items.append(p)
    expected = {}
    for p in items:
        for e, c in p.items():
            expected[e] = expected.get(e, 0) + c
    expected = {e: c for e, c in expected.items() if c}
    total = {}
    for p in items:
        total = polys.add(total, p)
    assert total == expected


def test_mul_difference_of_squares():
    one = polys.const(1, 1)
    a = polys.variable(1, 0)
    prod = polys.mul(polys.mul(polys.add(one, a), polys.sub(one, a)), polys.add(one, polys.power(a, 2)))
    assert prod == polys.sub(one, polys.power(a, 4))


def test_mul_degree_adds():
    a = polys.variable(2, 0)
    b = polys.variable(2, 1)
    p = polys.add(polys.power(a, 2), b)
    q = polys.add(a, polys.const(2, 3))
    assert polys.total_degree(polys.mul(p, q)) == 3
    assert polys.total_degree(polys.zero()) is None


def test_evaluate_exact():
    a = polys.variable(2, 0)
    b = polys.variable(2, 1)
    p = polys.add(polys.mul(a, b), polys.const(2, -7))
    assert polys.evaluate(p, (3, 4)) == 5


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        polys.check_arity([polys.variable(1, 0), polys.variable(2, 0)])


def test_terms_round_trip_is_sorted():
    p = {(2, 0): 3, (0, 1): -1}
    terms = polys.to_terms(p)
    assert terms == [[-1, [0, 1]], [3, [2, 0]]]
    assert polys.from_terms(terms) == p


def _random_poly(rng, arity, terms, degree=2):
    p = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, degree) for _ in range(arity))
        p = polys.add(p, {e: rng.choice([-7, -3, -1, 1, 2, 5, 12])})
    return p


def test_div_exact_recovers_the_factor_of_a_product():
    rng = random.Random(41)
    recovered = 0
    for _ in range(200):
        arity = rng.randint(1, 3)
        a = _random_poly(rng, arity, rng.randint(1, 4))
        b = _random_poly(rng, arity, rng.randint(1, 3))
        if not a or not b:
            continue
        assert polys.div_exact(polys.mul(a, b), b) == a
        assert polys.div_exact(polys.mul(a, b), a) == b
        recovered += 1
    assert recovered > 150


def test_div_exact_refuses_a_non_divisor():
    x, y = polys.variable(2, 0), polys.variable(2, 1)
    two_x = polys.scale(x, 2)
    assert polys.div_exact(x, two_x) is None  # by coefficient: x / 2x is not in Z[x, y]
    assert polys.div_exact(polys.add(two_x, polys.const(2, 1)), polys.const(2, 2)) is None
    assert polys.div_exact(x, polys.mul(x, x)) is None  # by exponent
    assert polys.div_exact(x, y) is None and polys.div_exact(y, x) is None  # across variables
    assert polys.div_exact(polys.mul(x, y), y) == x


def test_div_exact_of_zero_is_zero():
    u = polys.add(polys.variable(2, 0), polys.const(2, 3))
    assert polys.div_exact({}, u) == {}


def test_div_exact_by_a_binomial_denominator():
    # u = a1 - a2 + 1: w * u^k divides back by u^k and by u, and adding 1
    # breaks divisibility, since u divides the product but not 1
    u = polys.from_terms([[1, [1, 0]], [-1, [0, 1]], [1, [0, 0]]], 2)
    rng = random.Random(43)
    for k in range(1, 4):
        w = _random_poly(rng, 2, 3) or polys.const(2, 1)
        product = polys.mul(w, polys.power(u, k))
        assert polys.div_exact(product, polys.power(u, k)) == w
        assert polys.div_exact(product, u) == polys.mul(w, polys.power(u, k - 1))
        assert polys.div_exact(polys.add(product, polys.const(2, 1)), u) is None
    assert polys.div_exact(polys.variable(2, 1), u) is None
