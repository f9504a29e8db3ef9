import hashlib
import json
import math
import time
from fractions import Fraction

import pytest
from support import sqrt_a1_context, two_element_context_json

from qacclab import budget
from qacclab.algebra import (
    AlgebraContext,
    ContextError,
    FScalar,
    cyclotomic_context,
    cyclotomic_polynomial,
    get_context,
    load_context,
    polys,
    rational_context,
    save_context,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(5) == [1, 1, 1, 1, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_cyclotomic_polynomials_multiply_to_x_q_minus_1():
    # Phi_105 is the first with a coefficient outside -1..1
    phi = cyclotomic_polynomial(105)
    assert len(phi) == 49 and [k for k, c in enumerate(phi) if abs(c) > 1] == [7, 41]
    assert phi[7] == phi[41] == -2
    for q in range(1, 201):
        product = [1]
        for d in range(1, q + 1):
            if q % d == 0:
                factor = cyclotomic_polynomial(d)
                out = [0] * (len(product) + len(factor) - 1)
                for i, a in enumerate(product):
                    for j, b in enumerate(factor):
                        out[i + j] += a * b
                product = out
        assert product == [-1] + [0] * (q - 1) + [1], q


@pytest.mark.parametrize("q,dim", [(2, 2), (3, 4), (4, 2), (5, 4), (6, 4), (7, 12), (8, 4)])
def test_basis_dimensions(q, dim):
    # sqrt(q) already lies in the cyclotomic field iff q is square or 0,1 mod 4
    assert cyclotomic_context(q).dim == dim


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 8])
def test_root_constant_squares_to_inverse_q(q):
    ctx = cyclotomic_context(q)
    s = ctx.constants["s"]
    lhs = s * s
    # q * s^2 == 1 exactly
    assert (ctx.from_int(q) * lhs - ctx.one()).is_zero()
    assert abs(s.numeric() - 1 / math.sqrt(q)) < 1e-12


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_geometric_root_sum_vanishes(q):
    # sum of zeta^(a*l) over l is exactly zero unless a = 0 mod q
    ctx = cyclotomic_context(q)
    zeta, _ = ctx.fourier_scalars(q)
    for a in range(1, q):
        total = ctx.zero()
        for l in range(q):
            total = total + zeta[(a * l) % q]
        assert total.is_zero(), (q, a)
    total = ctx.zero()
    for _ in range(q):
        total = total + zeta[0]
    assert (total - ctx.from_int(q)).is_zero()


def test_json_round_trip_bit_exact(tmp_path):
    for name in ("cyclotomic3", "cyclotomic5", "rational10"):
        ctx = get_context(name)
        path = tmp_path / f"{name}.json"
        save_context(ctx, path)
        loaded = load_context(path)
        assert loaded == ctx
        # dumping again is byte-identical
        second = tmp_path / f"{name}-2.json"
        save_context(loaded, second)
        assert path.read_text() == second.read_text()


@pytest.mark.parametrize(
    "text", ["not json\n", '{"basis": ["1"]}\n', "[1]\n", '{"indeterminates": 5}\n']
)
def test_malformed_context_file_is_context_error(tmp_path, text):
    path = tmp_path / "ctx.json"
    path.write_text(text)
    with pytest.raises(ContextError, match="context file"):
        load_context(path)


def test_registry_names():
    assert get_context("cyclotomic3") is get_context("cyclotomic3")
    assert get_context("rational").u_int == 10
    assert get_context("rational5").u_int == 5
    with pytest.raises(ContextError):
        get_context("nonsense")


@pytest.mark.parametrize("name", ["cyclotomic02", "cyclotomic007", "rational010", "rational00"])
def test_a_context_number_with_a_leading_zero_is_refused(name):
    # not read as the context its digits name, which would build a second table
    with pytest.raises(ContextError, match="leading zero"):
        get_context(name)


@pytest.mark.parametrize("name", ["cyclotomic\u0663", "rational\uff11\uff10"])
def test_a_context_number_in_other_digits_is_unknown(name):
    # int() reads Arabic-Indic or fullwidth digits as 3 or 10
    with pytest.raises(ContextError, match="unknown context name"):
        get_context(name)


@pytest.mark.parametrize(
    "name,message",
    [("cyclotomic0", "q must be at least 2"), ("cyclotomic1", "q must be at least 2"),
     ("rational0", "u must be nonzero")],
)
def test_a_context_number_out_of_range_keeps_its_message(name, message):
    with pytest.raises(ContextError, match=f"^{message}$"):
        get_context(name)


def test_identity_row_enforced():
    bad = [
        [(FScalar(polys.const(0, 1), 0), FScalar({}, 0)), (FScalar({}, 0), FScalar(polys.const(0, 1), 0))],
        [(FScalar({}, 0), FScalar(polys.const(0, 1), 0)), (FScalar(polys.const(0, 2), 0), FScalar({}, 0))],
    ]
    with pytest.raises(ContextError):
        AlgebraContext([], ["1", "b"], bad, polys.const(0, 2), {"b": [0.5, 0]})


def test_numeric_consistency_enforced():
    # claim b*b = 1 while numerically b = 2: should be rejected
    one = FScalar(polys.const(0, 1), 0)
    zero = FScalar({}, 0)
    table = [[(one, zero), (zero, one)], [(zero, one), (one, zero)]]
    with pytest.raises(ContextError):
        AlgebraContext([], ["1", "b"], table, polys.const(0, 2), {"b": [2.0, 0.0]})


def test_zero_denominator_rejected():
    with pytest.raises(ContextError):
        AlgebraContext([], ["1"], [[(FScalar(polys.const(0, 1), 0),)]], polys.zero(), {})


def test_context_with_indeterminate_round_trips(tmp_path):
    # user-declared transcendental: basis {1}, u = a1, numeric a1 = pi
    one = FScalar(polys.const(1, 1), 0)
    ctx = AlgebraContext(
        ["a1"],
        ["1"],
        [[(one,)]],
        polys.variable(1, 0),
        {"a1": [math.pi, 0.0]},
        name=None,
    )
    path = tmp_path / "user.json"
    save_context(ctx, path)
    loaded = load_context(path)
    assert loaded == ctx
    data = json.loads(path.read_text())
    assert set(data) >= {"indeterminates", "basis", "mult_table", "u", "numeric"}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 7, 8])
def test_conjugation_table_is_a_numeric_involution(q):
    ctx = cyclotomic_context(q)
    for j in range(ctx.dim):
        beta = ctx.basis_element(j)
        conj = beta.conjugate()
        assert abs(conj.numeric() - beta.numeric().conjugate()) < 1e-9, (q, j)
        assert (conj.conjugate() - beta).is_zero(), (q, j)


def test_cyclotomic_dimension_cap_refuses_before_building(monkeypatch):
    # d^3 table entries against BUDGET = 2^20, so d <= 101
    t0 = time.perf_counter()
    for q in (10007, 193, 254, 840, 10**12):
        refusal = rf"^\d+ table entries \(.*\) of cyclotomic{q} exceed the memory budget of "
        with pytest.raises(budget.CapExceededError, match=refusal):
            get_context(f"cyclotomic{q}")
    assert time.perf_counter() - t0 < 1
    # the boundary, exactly: cyclotomic5 (d = 4) holds 4^3 = 64 entries
    monkeypatch.setattr(budget, "BUDGET", 64)
    assert cyclotomic_context(5).dim == 4
    monkeypatch.setattr(budget, "BUDGET", 63)
    refusal = r"^64 table entries \(d = 4\) of cyclotomic5 exceed the memory budget of 63$"
    with pytest.raises(budget.CapExceededError, match=refusal):
        cyclotomic_context(5)
    # the dimension is worked out from q alone: phi(q), doubled for q = 2, 3 mod 4
    monkeypatch.setattr(budget, "BUDGET", 12**3)
    for q in range(2, 40):
        try:
            dim = cyclotomic_context(q).dim
        except budget.CapExceededError:
            dim = None
        phi = sum(math.gcd(k, q) == 1 for k in range(1, q + 1))
        want = phi * (2 if q % 4 in (2, 3) else 1)
        assert dim == (want if want <= 12 else None), q


def test_context_file_fourier_q_beyond_its_dimension(tmp_path):
    path = tmp_path / "ctx.json"
    data = rational_context(10).to_json()
    t0 = time.perf_counter()
    # q = 2 and 3 also need the basis element s = 1/sqrt(q) after phi(q)
    for q in (2, 3, 12000, 10**12):
        path.write_text(json.dumps({**data, "fourier_q": q}))
        with pytest.raises(ContextError, match=f"fourier_q={q}: phi"):
            load_context(path)
    for q in ("3", 0, -5, 2.5, True):
        path.write_text(json.dumps({**data, "fourier_q": q}))
        with pytest.raises(ContextError, match="positive integer"):
            load_context(path)
    assert time.perf_counter() - t0 < 1


def test_fourier_constants_are_pinned():
    # cyclotomic2..20 and their exact zeta powers and s, as they were when
    # sqrt(q) was found by squaring dense polynomials modulo Phi_q
    h = hashlib.sha256()
    for q in range(2, 21):
        ctx = cyclotomic_context(q)
        zeta, s = ctx.fourier_scalars(q)
        h.update(f"{q}\n".encode())
        h.update((json.dumps(ctx.to_json(), sort_keys=True) + "\n").encode())
        scalars = [s.to_json()] + [z.to_json() for z in zeta]
        h.update((json.dumps(scalars, sort_keys=True) + "\n").encode())
    assert h.hexdigest() == "5b164c63c1f61cb7892eb8aefa00b629d1bd5df1d3fb92921974144023f2d47f"


def test_cyclotomic420_is_within_the_budget_and_its_constants_are_exact():
    # L = lcm(4 * 3, 4 * 5, 4 * 7) = 420 holds the roots MOD_3 = MOD_5 = MOD_7 needs;
    # d = phi(420) = 96, and 96^3 table entries fit BUDGET = 2^20
    ctx = get_context("cyclotomic420")
    assert ctx.dim == 96
    zeta, s = ctx.fourier_scalars(420)
    z = ctx.constants["z"]
    assert all(zeta[e] * z == zeta[(e + 1) % 420] for e in range(420))
    assert zeta[419] * z == ctx.one() != zeta[210]
    assert s * s * ctx.from_int(420) == ctx.one()
    assert abs(s.numeric() - 1 / math.sqrt(420)) < 1e-12


def test_any_power_of_u_divides_exactly():
    ctx = get_context("cyclotomic3")
    for k in (64, 65, 200):
        x = ctx.scalar_from_rational(Fraction(7, 3**k))
        assert x.r == k and x.as_fraction(0) == Fraction(7, 3**k)
    # the least power: in rational6, 1/12 is 3/6^2 and 5/6 is 5/6^1
    six = rational_context(6)
    fs = [six.f_from_rational(Fraction(1, 12)), six.f_from_rational(Fraction(5, 6))]
    assert [(f.num[()], f.r) for f in fs] == [(3, 2), (5, 1)]
    with pytest.raises(ContextError, match="^denominator 3 does not divide a power of u=5$"):
        rational_context(5).scalar_from_rational(Fraction(1, 3))
    with pytest.raises(ContextError, match="^denominator 12 does not divide a power of u=10$"):
        rational_context(10).scalar_from_rational(Fraction(1, 12))


def test_context_file_fourier_constants_do_not_assume_u_is_q(tmp_path):
    # no table entry of cyclotomic5 lies over u, so any u loads; with u = 10
    # s is still 1/sqrt(5), computed in the file's own arithmetic
    data = get_context("cyclotomic5").to_json()
    path = tmp_path / "ctx.json"
    path.write_text(json.dumps({**data, "u": [[10, []]]}))
    ctx = load_context(path)
    zeta, s = ctx.fourier_scalars(5)
    assert s * s * ctx.from_int(5) == ctx.one()
    assert abs(s.numeric() - 5**-0.5) < 1e-12
    assert [z.numeric() for z in zeta] == pytest.approx(
        [z.numeric() for z in get_context("cyclotomic5").fourier_scalars(5)[0]]
    )


@pytest.mark.parametrize(
    "square,u,q,match",
    [
        (2, 2, 4, "fourier_q=4: zeta"),  # zeta = b has zeta^2 = 2, not -1
        (1, 2, 4, "fourier_q=4: zeta"),  # zeta = b has zeta^4 = 1, but order 2
        (1, 1, 2, "fourier_q=2: s\\*s\\*q"),  # s = b has s*s*2 = 2
    ],
)
def test_context_file_with_false_fourier_constants_is_refused(tmp_path, square, u, q, match):
    path = tmp_path / "ctx.json"
    path.write_text(json.dumps(two_element_context_json(square, u, q)))
    with pytest.raises(ContextError, match=match):
        load_context(path)


def test_a_root_of_unity_that_is_not_a_root_of_phi_q_is_refused(tmp_path):
    # Q[C3] (x) Q[s]/(3s^2 - 1), basis z^a s^b: z^3 = 1, z != 1 and s*s*3 = 1,
    # but 1 + z + z^2 != 0, so an F_3 built from z would not be unitary
    index = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (2, 1)]
    zero = {"num": [], "r": 0}

    def vec(a, b):  # z^a s^b, with s^2 = 1/3
        out = [zero] * 6
        out[index.index((a % 3, b % 2))] = {"num": [[1, []]], "r": b // 2}
        return out

    omega = complex(-0.5, math.sqrt(3) / 2)
    data = {
        "indeterminates": [],
        "basis": ["1", "z", "s", "z^2", "z*s", "z^2*s"],
        "mult_table": [[vec(a + c, b + e) for c, e in index] for a, b in index],
        "u": [[3, []]],
        "numeric": {
            name: [(omega**a / 3 ** (b / 2)).real, (omega**a / 3 ** (b / 2)).imag]
            for name, (a, b) in zip(["1", "z", "s", "z^2", "z*s", "z^2*s"][1:], index[1:])
        },
        "conjugation": [vec(-a, b) for a, b in index],
        "fourier_q": 3,
    }
    path = tmp_path / "ctx.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ContextError, match="^fourier_q=3: zeta is not a root of Phi_3"):
        load_context(path)
    del data["fourier_q"]
    path.write_text(json.dumps(data))
    load_context(path)  # the algebra itself is a valid context


def test_fourier_q_with_indeterminates_names_fourier_q(tmp_path):
    # u = a1 is no constant: q = 1 needs no division (s = 1), and q = 4's
    # Gauss sum cannot be divided, which the error pins on fourier_q
    path = tmp_path / "ctx.json"
    data = sqrt_a1_context().to_json()
    path.write_text(json.dumps({**data, "fourier_q": 1}))
    ctx = load_context(path)
    zeta, s = ctx.fourier_scalars(1)
    assert zeta == [ctx.one()] and s == ctx.one()
    path.write_text(json.dumps({**data, "fourier_q": 4}))
    with pytest.raises(
        ContextError, match="^fourier_q=4: rational coefficients need a constant denominator u$"
    ):
        load_context(path)


def test_fourier_constants_with_indeterminates_live_in_their_ring():
    # cyclotomic2's table over one indeterminate x, u still 2: zeta^1 is
    # -1 as a polynomial in x, not a constant of another arity
    data = get_context("cyclotomic2").to_json()

    def lift(entry):
        return {**entry, "num": [[c, [0]] for c, _ in entry["num"]]}

    data.update(
        indeterminates=["x"],
        numeric={**data["numeric"], "x": [0.5, 0.0]},
        u=[[2, [0]]],
        mult_table=[[[lift(e) for e in vec] for vec in row] for row in data["mult_table"]],
        conjugation=[[lift(e) for e in vec] for vec in data["conjugation"]],
    )
    ctx = AlgebraContext.from_json(data)
    zeta, s = ctx.fourier_scalars(2)
    assert zeta[1] == -ctx.one() and zeta[1].nums == ({(0,): -1}, {})
    assert s * s * ctx.from_int(2) == ctx.one()


def test_context_file_table_exponents_are_bounded(tmp_path):
    data = get_context("cyclotomic2").to_json()
    data["mult_table"][1][1][0]["r"] = 10**12
    path = tmp_path / "ctx.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ContextError, match="outside u\\^0..u\\^64"):
        load_context(path)


def test_deeply_nested_context_file_is_context_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ContextError, match="nests too deeply"):
        load_context(path)


def test_a_context_files_table_must_be_associative():
    # cyclotomic3 without Fourier constants loads; moving the constant term
    # of z*z by 3^-40 passes the numeric check but not the exact one
    data = get_context("cyclotomic3").to_json()
    del data["fourier_q"]
    assert AlgebraContext.from_json(data) == get_context("cyclotomic3")
    data["mult_table"][1][1][0] = {"num": [[1 - 3**40, []]], "r": 40}
    with pytest.raises(ContextError, match=r"^mult_table is not associative at \(z\*z\)\*s$"):
        AlgebraContext.from_json(data)


_ONE, _ZERO = {"num": [[1, []]], "r": 0}, {"num": [], "r": 0}


def _n(k):
    return {"num": [[k, []]], "r": 0}


@pytest.mark.parametrize(
    "square, conjugation, match",
    [
        # basis 1, b with b*b = square; each conjugation lists conj(1), conj(b)
        (2, [[_n(-1), _ZERO], [_ZERO, _ONE]], r"^conjugation is not multiplicative at 1\*1$"),
        (2, [[_ONE, _ZERO], [_ZERO, _n(2)]], "^conjugation is not an involution at b$"),
        # 1 - b is an involution, but conj(b*b) = 2 and conj(b)^2 = 3 - 2b
        (2, [[_ONE, _ZERO], [_ONE, _n(-1)]], r"^conjugation is not multiplicative at b\*b$"),
        # b -> -b is an automorphism of Q(sqrt 2), but no complex conjugation
        (2, [[_ONE, _ZERO], [_ZERO, _n(-1)]], r"b\*conj\(b\) = -2, but \|b\|\^2 is positive"),
        # b*b = 0 holds numerically at b = 0; b*conj(b) = 0 cannot be |b|^2
        (0, [[_ONE, _ZERO], [_ZERO, _ONE]], r"b\*conj\(b\) = 0, but "),
    ],
)
def test_a_context_files_conjugation_is_checked_exactly(square, conjugation, match):
    data = {**two_element_context_json(square, 2, None), "conjugation": conjugation}
    with pytest.raises(ContextError, match=match):
        AlgebraContext.from_json(data)


def test_a_conjugation_with_indeterminates_is_checked_where_rational():
    # sqrt_a1's b*conj(b) = 1/a1 is not rational, so it has no sign to check;
    # with b*b = 2 instead, conj(b) = -b makes it -2
    data = sqrt_a1_context().to_json()
    assert AlgebraContext.from_json(data) == sqrt_a1_context()
    data["mult_table"][1][1][0] = {"num": [[2, [0]]], "r": 0}
    data["numeric"]["b"] = [2**0.5, 0.0]
    data["conjugation"][1][1] = {"num": [[-1, [0]]], "r": 0}
    with pytest.raises(ContextError, match=r"^conjugation: b\*conj\(b\) = -2, but "):
        AlgebraContext.from_json(data)


def test_two_loads_of_one_file_are_one_context(tmp_path):
    # b*b = 2 over u = 2; the copy's b*b = 2 + 2^-40 passes every check a
    # two-element table meets, and is another context
    data = two_element_context_json(2, 2, 4)
    del data["fourier_q"]
    path, changed = tmp_path / "b.json", tmp_path / "changed.json"
    path.write_text(json.dumps(data))
    data["mult_table"][1][1][0] = {"num": [[2**41 + 1, []]], "r": 40}
    changed.write_text(json.dumps(data))
    first, second, other = load_context(path), load_context(path), load_context(changed)
    assert first is not second and first == second and hash(first) == hash(second)
    b1, b2 = first.basis_element(1), second.basis_element(1)
    assert b1 * b2 == first.from_int(2) and b2 * b1 == second.from_int(2)
    assert b1 + b2 == first.from_int(2) * b1 and b1 - b2 == second.zero()
    assert first != other and other != first
    b3 = other.basis_element(1)
    for mix in (lambda: b1 + b3, lambda: b3 - b1, lambda: b1 * b3, lambda: b1 == b3):
        with pytest.raises(ValueError, match="^scalars from different algebra contexts$"):
            mix()
