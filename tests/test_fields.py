"""Polynomials, quotient-ring contexts and discrete logs over prime fields."""

import itertools
import math
import random

import pytest

from orbitcodes import (
    DomainError,
    FieldCtx,
    NonUnitError,
    NoSuchPolynomialError,
    Poly,
    PrimeField,
    dlog,
    field_context,
    find_irreducible_with_order,
    is_irreducible,
    is_primitive,
    least_primitive,
    phi,
    phi_inv,
    poly_order,
)
from orbitcodes.fields import (
    RHO_STEP_LIMIT,
    factorize,
    irreducible_polys,
    monic_polys,
    multiplicative_order,
)

from conftest import (
    P2,
    P3,
    X2_1_F3,
    X2_X_2_F3,
    X4_NONPRIM,
    X4_X_1,
    X6_X_1,
    mul_by_x,
    poly_of,
    pow_mod,
    ref_mod,
    ref_mul,
)

SEED = 1729
_rng = random.Random(SEED)


def rand_poly(rng, q, max_deg):
    deg = rng.randrange(max_deg + 1)
    coeffs = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]
    return Poly.make(PrimeField(q), coeffs)


# -- integer helpers --------------------------------------------------------


def test_factorize_small():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(1023) == {3: 1, 11: 1, 31: 1}


def _fermat_prime(p):
    # an independent check for the factors below 10^12: no base below 50
    # is a Fermat witness, and no small prime divides p unless p is it
    return all(p == d or p % d for d in range(2, 50)) and all(
        pow(a, p - 1, p) == 1 for a in range(2, 50) if a % p
    )


def test_factorize_large_primes():
    # trial division needs ~10^9 steps for these; rho and Miller-Rabin don't
    assert factorize(2**61 - 1) == {2**61 - 1: 1}
    assert factorize(2**62 - 1) == {3: 1, 715827883: 1, 2147483647: 1}
    assert factorize(2**67 - 1) == {193707721: 1, 761838257287: 1}
    assert factorize(1000003**2) == {1000003: 2}


def test_factorize_gives_up_past_the_rho_step_limit():
    # two primes near 2^60: rho would need about 2^30 squarings
    m = 1152921504606847009 * 1152921504606847067
    with pytest.raises(DomainError, match=f"cannot factorize {m}: .* limit of {RHO_STEP_LIMIT} "):
        factorize(m)


def test_factorize_round_trips():
    rng = random.Random(SEED)
    for _ in range(300):
        m = rng.randrange(1, 10**12)
        f = factorize(m)
        assert list(f) == sorted(f)
        assert math.prod(p**e for p, e in f.items()) == m
        assert all(_fermat_prime(p) for p in f)


@pytest.mark.parametrize("a,m,expect", [(2, 7, 3), (2, 21, 6), (3, 10, 4), (2, 341, 10)])
def test_multiplicative_order(a, m, expect):
    assert multiplicative_order(a, m) == expect


def test_prime_field_validation():
    with pytest.raises(DomainError):
        PrimeField(4)
    with pytest.raises(DomainError):
        PrimeField(1)
    assert PrimeField(7).inv(3) == 5


# -- polynomial ring --------------------------------------------------------


def evaluate(p, a):
    """p(a) by Horner."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = (acc * a + c) % p.field.q
    return acc


@pytest.mark.parametrize("q", [2, 3, 5])
def test_poly_mul_matches_pointwise_evaluation(q):
    # (a*b)(t) == a(t) * b(t) for every field point: independent of the
    # convolution code path
    rng = random.Random(SEED + q)
    for _ in range(40):
        a = rand_poly(rng, q, 5)
        b = rand_poly(rng, q, 5)
        ab = a * b
        for t in range(q):
            assert evaluate(ab, t) == (evaluate(a, t) * evaluate(b, t)) % q


@pytest.mark.parametrize("q", [2, 3, 5])
def test_poly_divmod_identity(q):
    rng = random.Random(SEED ^ q)
    for _ in range(60):
        a = rand_poly(rng, q, 7)
        b = rand_poly(rng, q, 4)
        quo, rem = divmod(a, b)
        assert quo * b + rem == a
        assert rem.is_zero or rem.degree < b.degree


def test_poly_text_round_trip():
    p = poly_of(3, [2, 0, 1, 1])
    assert Poly.from_text(P3, p.to_text()) == p
    with pytest.raises(DomainError):
        Poly.from_text(P2, "1 x 0")


@pytest.mark.parametrize("text,bad", [("1 3 0 0 0 0 -1", 3), ("1 1 0 0 0 0 -1", -1)])
def test_poly_text_outside_the_field(text, bad):
    # not read as x^6 + x + 1 by reducing mod 2
    with pytest.raises(DomainError) as err:
        Poly.from_text(P2, text)
    msg = str(err.value)
    assert repr(text) in msg and f"entry {bad}" in msg and "q = 2" in msg


def test_poly_str_human_form():
    assert str(poly_of(2, [1, 1, 0, 0, 1])) == "x^4 + x + 1"
    assert str(poly_of(3, [2])) == "2"


def test_poly_encoding_orders_enumeration():
    # monic quadratics over F_2 in ascending integer encoding
    got = [p.coeffs for p in monic_polys(P2, 2)]
    assert got == [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]


# counts of monic irreducibles per degree, from the necklace formula
@pytest.mark.parametrize(
    "q,degree,count",
    [(2, 1, 2), (2, 2, 1), (2, 3, 2), (2, 4, 3), (2, 5, 6), (2, 6, 9),
     (3, 1, 3), (3, 2, 3), (3, 3, 8), (3, 4, 18)],
)
def test_irreducible_counts(q, degree, count):
    polys = list(irreducible_polys(PrimeField(q), degree))
    assert len(polys) == count
    assert all(is_irreducible(p) for p in polys)


def test_reducible_rejected():
    assert not is_irreducible(poly_of(2, [1, 0, 1]))       # (x+1)^2
    assert not is_irreducible(poly_of(2, [0, 1, 1]))       # x(x+1)
    assert not is_irreducible(poly_of(3, [2, 0, 1]))       # x^2+2 = (x+1)(x+2)


@pytest.mark.parametrize(
    "p,order",
    [
        (X4_NONPRIM, 5),
        (X6_X_1, 63),
        (X4_X_1, 15),
        (X2_1_F3, 4),
        (poly_of(2, [1, 3, 3, 1]), 4),  # (x+1)^3
        (poly_of(2, [1, 5, 10, 10, 5, 1]), 8),  # (x+1)^5
    ],
)
def test_poly_order_goldens(p, order):
    assert poly_order(p) == order


def test_poly_order_of_large_reducible_modulus():
    # (x^5+x^2+1)(x^31+x^3+1): primitive factors of orders 31 and 2^31 - 1,
    # both prime; x has order below 2^36 but far too large to step to
    p5 = poly_of(2, [1, 0, 1, 0, 0, 1])
    p31 = poly_of(2, [1, 0, 0, 1] + [0] * 27 + [1])
    f = p5 * p31
    o = poly_order(f)
    assert o == 31 * (2**31 - 1)
    x, one = poly_of(2, [0, 1]), poly_of(2, [1])
    assert pow_mod(x, o, f) == one
    for r in (31, 2**31 - 1):
        assert pow_mod(x, o // r, f) != one


def _trial_irreducible(f):
    """Reference: no monic polynomial of degree 1..deg/2 divides f."""
    return all(
        not ref_mod(f, g).is_zero
        for d in range(1, f.degree // 2 + 1)
        for g in monic_polys(f.field, d)
    )


def _stepped_order(f):
    """Reference: the least e >= 1 with x^e = 1 mod f, stepping e."""
    x, one = Poly.make(f.field, [0, 1]), Poly.make(f.field, [1])
    acc, e = ref_mod(x, f), 1
    while acc != one:
        acc, e = ref_mod(ref_mul(acc, x), f), e + 1
    return e


@pytest.mark.parametrize("q,max_degree", [(2, 8), (3, 5), (5, 3)])
def test_irreducibility_and_order_brute_force(q, max_degree):
    # every monic polynomial: the packed Frobenius/gcd test against trial
    # division, and the order from one factorization against stepping
    for degree in range(1, max_degree + 1):
        for f in monic_polys(PrimeField(q), degree):
            assert is_irreducible(f) == _trial_irreducible(f), f
            if f.coeff(0):
                assert poly_order(f) == _stepped_order(f), f


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_degree_one_orders(q):
    # x is the constant a mod x - a, so its order is a's order mod q
    for a in range(1, q):
        assert poly_order(poly_of(q, [-a, 1])) == multiplicative_order(a, q)


# least primitive polynomials, ascending coefficients
LEAST_PRIMITIVE = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1),
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 14): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 15): (1, 1) + (0,) * 13 + (1,),
    (2, 16): (1, 0, 1, 1, 0, 1) + (0,) * 10 + (1,),
    (3, 2): (2, 1, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (1, 2, 1, 0, 0, 0, 0, 1),
    (3, 8): (2, 0, 0, 1, 0, 0, 0, 0, 1),
}


@pytest.mark.parametrize("q,degree", sorted(LEAST_PRIMITIVE))
def test_least_primitive_pinned(q, degree):
    assert least_primitive(PrimeField(q), degree).coeffs == LEAST_PRIMITIVE[q, degree]


@pytest.mark.parametrize(
    "degree,order,coeffs",
    [
        (12, 273, (1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1)),
        (10, 33, (1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1)),
        (16, 4369, (1, 0, 1, 0, 1, 0, 1, 1, 1) + (0,) * 7 + (1,)),
    ],
)
def test_irreducible_with_order_pinned(degree, order, coeffs):
    assert find_irreducible_with_order(P2, degree, order).coeffs == coeffs


def test_large_modulus_refused_at_the_index_limit():
    # x^61+x^5+x^2+x+1 is primitive (2^61 - 1 is prime): the order is found
    # at once, and the context refuses the 2^61 - 1 element cycle index on
    # its first read
    f = poly_of(2, [1, 1, 1, 0, 0, 1] + [0] * 55 + [1])
    assert poly_order(f) == 2**61 - 1
    ctx = field_context(f)
    assert ctx.is_primitive
    with pytest.raises(DomainError, match=r"q=2, degree 61.*limit of 4194304"):
        ctx.cycle_of_code(1)


@pytest.mark.parametrize("q,degree", [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3)])
def test_order_divides_group_order(q, degree):
    field = PrimeField(q)
    for p in irreducible_polys(field, degree):
        assert (q**degree - 1) % poly_order(p) == 0
        assert is_primitive(p) == (poly_order(p) == q**degree - 1)


def test_primitivity_goldens():
    assert is_primitive(X6_X_1)
    assert is_primitive(X4_X_1)
    assert not is_primitive(X4_NONPRIM)
    assert not is_primitive(X2_1_F3)


def test_find_irreducible_with_order():
    assert find_irreducible_with_order(P2, 6, 63) == X6_X_1
    assert find_irreducible_with_order(P2, 4, 5) == X4_NONPRIM
    # order 21 requires degree ord_21(2) = 6
    p21 = find_irreducible_with_order(P2, 6, 21)
    assert poly_order(p21) == 21
    with pytest.raises(NoSuchPolynomialError):
        find_irreducible_with_order(P2, 4, 7)
    with pytest.raises(NoSuchPolynomialError):
        find_irreducible_with_order(P2, 5, 6)
    # 2^15000 - 1 has more digits than an int may print
    with pytest.raises(NoSuchPolynomialError, match=r"order must divide 2\^15000 - 1"):
        find_irreducible_with_order(P2, 15000, 19)


def test_least_primitive_is_first_in_encoding_order():
    assert least_primitive(P2, 4) == X4_X_1
    assert least_primitive(P2, 6) == X6_X_1
    p = least_primitive(P3, 2)
    assert is_primitive(p)
    for cand in irreducible_polys(P3, 2):
        if cand.encoding() < p.encoding():
            assert not is_primitive(cand)


# -- quotient-ring context --------------------------------------------------


def test_context_rejects_nonsense():
    with pytest.raises(DomainError):
        field_context(poly_of(2, [1]))  # constant modulus
    ctx = field_context(poly_of(2, [1, 0, 1]))  # (x+1)^2: ring, not a field
    assert not ctx.is_irreducible
    with pytest.raises(NonUnitError):
        ctx.inv((1, 1))  # x+1 is a zero divisor mod (x+1)^2


def test_context_field_arithmetic():
    ctx = field_context(X4_X_1)
    rng = random.Random(3)
    for _ in range(100):
        a = tuple(rng.randrange(2) for _ in range(4))
        b = tuple(rng.randrange(2) for _ in range(4))
        assert ctx.mul(a, b) == ctx.mul(b, a)
        if any(a):
            assert ctx.mul(a, ctx.inv(a)) == ctx.one
        # mul_by_x is multiplication by x
        assert mul_by_x(ctx, a) == ctx.mul(a, ctx.x)


@pytest.mark.parametrize("p", [X4_X_1, X6_X_1, X4_NONPRIM, X2_X_2_F3])
def test_x_power_matches_pow_mod(p):
    ctx = field_context(p)
    for e in range(0, 2 * ctx.x_order + 3, 7):
        expect = pow_mod(Poly.make(p.field, [0, 1]), e, p)
        got = ctx.x_power(e)
        assert ctx.to_poly(got) == expect


def test_x_order_and_log():
    ctx = field_context(X6_X_1)
    assert ctx.x_order == 63
    for e in (0, 1, 9, 18, 62):
        assert ctx.x_log(ctx.x_power(e)) == e
    assert ctx.x_log(tuple([0] * 6)) is None
    # a primitive modulus: every nonzero element has its log
    assert [ctx.x_log(ctx.x_power(e)) for e in range(63)] == list(range(63))
    assert ctx.x_log_code(ctx.pack(ctx.x_power(9))) == 9
    ctx5 = field_context(X4_NONPRIM)
    assert ctx5.x_order == 5 and not ctx5.is_primitive
    # elements outside <x> have no x-log
    assert ctx5.x_log((0, 0, 1, 1)) is None
    logs = [ctx5.x_log(v) for v in itertools.product(range(2), repeat=4) if any(v)]
    assert sorted(e for e in logs if e is not None) == list(range(5))


def test_orbit_index_partitions_nonzero_elements():
    ctx = field_context(X4_NONPRIM)
    assert len({ctx.cycle_of(v)[0] for v in itertools.product(range(2), repeat=4) if any(v)}) == 3
    seen = {}
    for v in ((1, 0, 0, 0), (0, 0, 1, 1), (1, 0, 1, 1), (0, 1, 0, 0)):
        oid, exp, _ = ctx.cycle_of(v)
        assert ctx.mul(ctx.x_power(exp), _orbit_base(ctx, oid)) == v
        seen.setdefault(oid, set()).add(exp)
    # exponents live mod the x-order
    assert all(all(0 <= e < 5 for e in exps) for exps in seen.values())


@pytest.mark.parametrize("coeffs", [(1, 0, 1, 0, 1), (1, 1, 1, 1, 1), (1, 1, 0, 0, 1), (1, 1, 1)])
def test_cycle_index_partitions_nonzero_elements(coeffs):
    # (x^2+x+1)^2, a non-primitive field, a primitive field and x^2+x+1
    ctx = field_context(Poly.make(P2, coeffs))
    seen = set()
    for code in range(1, 2**ctx.n):
        v = tuple((code >> i) & 1 for i in range(ctx.n))
        cid, pos, length = ctx.cycle_of(v)
        seen.add((cid, pos))
        assert 0 <= pos < length and ctx.x_order % length == 0
        assert _mul_x_power(ctx, v, 1) == mul_by_x(ctx, v)
        assert _mul_x_power(ctx, v, length) == v
        assert _mul_x_power(ctx, v, -3) == ctx.mul(v, ctx.x_power(-3))
    assert len(seen) == 2**ctx.n - 1
    assert ctx.cycle_of(ctx.one) == (0, 0, ctx.x_order)
    assert _mul_x_power(ctx, ctx.zero, 5) == ctx.zero


def _mul_x_power(ctx, v, e):
    return ctx.lanes.unpack(ctx.mul_x_power_code(ctx.pack(v), e))


def test_cycle_index_beyond_byte_coefficients():
    # q = 257 does not fit a byte; x = 3 there, a primitive root mod 257
    ctx = field_context(poly_of(257, [-3, 1]))
    assert ctx.x_order == 256
    assert ctx.x_power(5) == (3**5 % 257,)
    assert ctx.x_log((3**5 % 257,)) == 5
    assert ctx.x_log((1,)) == 0
    assert [ctx.x_log(ctx.x_power(e)) for e in range(256)] == list(range(256))


def test_poly_products_of_many_degrees_share_few_packings():
    from orbitcodes import fields

    before = fields.lanes.cache_info().currsize
    x_1 = poly_of(2, [1, 1])
    for d in range(1, 400):
        assert (poly_of(2, [1] + [0] * (d - 1) + [1]) * x_1).degree == d + 1
    assert fields.lanes.cache_info().currsize - before <= 10


def test_cycle_index_size_limit(monkeypatch):
    from orbitcodes import fields

    monkeypatch.setattr(fields, "CYCLE_INDEX_LIMIT", 2**10)
    # a primitive modulus builds its index on first read, as any other does
    ctx = FieldCtx(least_primitive(P2, 12))
    with pytest.raises(DomainError, match=r"q=2, degree 12.* 1024"):
        ctx.x_order
    ctx = FieldCtx(poly_of(2, [1, 1, 0, 0, 0, 0, 1]) * poly_of(2, [1, 1, 0, 0, 0, 0, 1]))
    assert mul_by_x(ctx, ctx.one) == ctx.x
    with pytest.raises(DomainError, match=r"q=2, degree 12.* 1024"):
        ctx.cycle_of(ctx.one)
    assert FieldCtx(X6_X_1).x_order == 63


def _orbit_base(ctx, oid):
    # recover the base element of an orbit: exponent-0 member
    for enc in range(1, ctx.q**ctx.n):
        v, rem = [], enc
        for _ in range(ctx.n):
            v.append(rem % ctx.q)
            rem //= ctx.q
        v = tuple(v)
        o, e, _ = ctx.cycle_of(v)
        if o == oid and e == 0:
            return v
    raise AssertionError("orbit base not found")


# every tuple entry point checks the length before packing
WRONG_LENGTH_CALLS = {
    "cycle_of": lambda ctx, v: ctx.cycle_of(v),
    "x_log": lambda ctx, v: ctx.x_log(v),
    "mul_left": lambda ctx, v: ctx.mul(v, ctx.one),
    "mul_right": lambda ctx, v: ctx.mul(ctx.one, v),
    "inv": lambda ctx, v: ctx.inv(v),
    "phi": lambda ctx, v: phi(v, ctx),
}


@pytest.mark.parametrize("name", sorted(WRONG_LENGTH_CALLS))
@pytest.mark.parametrize("v", [(0, 0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0, 1), (1, 1, 0, 0, 0), ()])
def test_tuple_entry_points_reject_wrong_length(name, v):
    ctx = field_context(X6_X_1)
    with pytest.raises(DomainError, match=rf"needs 6 coefficients, got {len(v)}"):
        WRONG_LENGTH_CALLS[name](ctx, v)


def test_phi_bijection_and_dlog():
    ctx = field_context(X6_X_1)
    rng = random.Random(11)
    for _ in range(50):
        v = tuple(rng.randrange(2) for _ in range(6))
        assert phi_inv(phi(v, ctx)) == v
    assert dlog(phi((0, 0, 0, 1, 1, 0), ctx)) == 9
    assert dlog(phi((1, 1, 1, 1, 0, 0), ctx)) == 18
    with pytest.raises(DomainError):
        dlog(phi((0,) * 6, ctx))


def test_ring_elem_operators():
    ctx = field_context(X4_X_1)
    a = phi((1, 1, 0, 0), ctx)
    b = phi((0, 1, 0, 1), ctx)
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a * b) / b == a
    assert a**5 == a * a * a * a * a
    assert a * a.inverse() == phi((1, 0, 0, 0), ctx)
