"""Property tests: the packed-integer kernels against tuple references.

Vectors of F_q^n and ring elements are stored as packed ints and travel
that way through RREF, span enumeration, the cycle index, the orbit walk,
ring arithmetic and the L_f set. Each property rebuilds the public result
with plain tuple or Poly arithmetic and demands exact equality, for q = 2
(one bit per coordinate), odd q (guarded lanes) and q = 257 (lanes wider
than a byte).
"""

import random
import tracemalloc
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitcodes import (
    ElementaryDivisorSpec,
    FieldCtx,
    Poly,
    PrimeField,
    Subspace,
    analyze_naive,
    enumerate_orbit,
    field_context,
    make_code,
    phi,
    phi_inv,
    subspace_distance,
)
from orbitcodes.decoder import lf_set, lf_vector_count
from orbitcodes.errors import DomainError, NonUnitError
from orbitcodes.canonical import poly_pow
from orbitcodes.fields import PackedRing, is_irreducible, lanes, primitive_root
from orbitcodes.linalg import intersection_dim

from conftest import (
    mul_by_x,
    poly_of,
    pow_mod,
    ref_add,
    ref_divmod,
    ref_ext_gcd,
    ref_mod,
    ref_mul,
    ref_pow,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

FIELDS = [2, 3, 5, 257]


# -- tuple references -------------------------------------------------------


def ref_rref(rows, q):
    """Gauss-Jordan on lists of ints, column by column."""
    rows = [[x % q for x in r] for r in rows]
    if not rows:
        return (), ()
    pivots = []
    r = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], q - 2, q)
        rows[r] = [(x * inv) % q for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(a - c * b) % q for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def ref_elements(rows, q, n):
    """sum(c_i * rows[i]) for every (c_0, ..., c_{k-1}) in product order."""
    out = []
    for coeffs in product(range(q), repeat=len(rows)):
        v = [0] * n
        for c, row in zip(coeffs, rows):
            for j, x in enumerate(row):
                v[j] = (v[j] + c * x) % q
        out.append(tuple(v))
    return out


@lru_cache(maxsize=None)
def ref_cycles(q, coeffs):
    """(cycle id, position, length) of every nonzero element of
    F_q[x]/(f), the cycle of 1 first and then the others by least integer
    encoding, each walked with tuple multiply-by-x; and the first element
    of each cycle."""
    ctx = field_context(Poly.make(PrimeField(q), coeffs))
    order = [ctx.one] + [
        tuple(reversed(v)) for v in product(range(q), repeat=ctx.n) if any(v)
    ]
    place, firsts = {}, []
    for v in order:
        if v in place:
            continue
        cycle = [v]
        w = mul_by_x(ctx, v)
        while w != v:
            cycle.append(w)
            w = mul_by_x(ctx, w)
        for pos, w in enumerate(cycle):
            place[w] = (len(firsts), pos, len(cycle))
        firsts.append(v)
    return ctx, place, firsts


# -- strategies -------------------------------------------------------------


def rows_of(draw, q, n, k):
    return draw(
        st.lists(
            st.lists(st.integers(-q, 2 * q), min_size=n, max_size=n),
            min_size=k,
            max_size=k,
        )
    )


@st.composite
def row_sets(draw, max_n=6, max_span=None):
    """(q, n, rows): up to n + 1 rows, dependent ones included, entries
    not yet reduced mod q; with max_span, q^rows stays below it."""
    q = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3 if q == 257 else max_n))
    max_k = n + 1
    while max_span and q**max_k > max_span:
        max_k -= 1
    return q, n, rows_of(draw, q, n, draw(st.integers(0, max_k)))


@st.composite
def row_set_pairs(draw):
    q, n, rows = draw(row_sets(max_n=4, max_span=729))
    return q, n, rows, rows_of(draw, q, n, len(rows))


# moduli of every lane width; the q = 257 ones are (x - 16)^2 and x - 3
MODULI = [
    (2, (1, 1, 0, 0, 1)),
    (2, (1, 1, 1, 1, 1)),
    (2, (1, 0, 1, 0, 1)),
    (2, (1, 1, 0, 1, 0, 1)),
    (3, (2, 1, 1)),
    (3, (1, 0, 1)),
    (3, (1, 2, 1)),
    (3, (1, 2, 0, 1)),
    (5, (2, 1, 1)),
    (5, (1, 2, 1)),
    (257, (256, 225, 1)),
    (257, (254, 1)),
]


@st.composite
def ring_elements(draw):
    q, coeffs = draw(st.sampled_from(MODULI))
    n = len(coeffs) - 1
    v = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n).filter(any))
    return q, coeffs, tuple(v)


def spec_of(q, blocks):
    field = PrimeField(q)
    return ElementaryDivisorSpec.make(field, [(poly_of(q, c), e) for c, e in blocks])


# block specs whose orbits stay short enough to walk in a test
SPECS = [
    spec_of(2, [((1, 1, 0, 0, 1), 1)]),
    spec_of(2, [((1, 1, 1, 1, 1), 1)]),
    spec_of(2, [((1, 1, 1), 1), ((1, 1, 0, 1), 1)]),
    spec_of(2, [((1, 1, 1), 2)]),
    spec_of(2, [((1, 1), 3), ((1, 1, 1), 1)]),
    spec_of(3, [((2, 1, 1), 1)]),
    spec_of(3, [((1, 1), 1), ((2, 1, 1), 1)]),
    spec_of(3, [((2, 1, 1), 2)]),
    spec_of(5, [((2, 1, 1), 1)]),
    spec_of(5, [((1, 1), 2), ((3, 1), 1)]),
    spec_of(257, [((241, 1), 1), ((255, 1), 1)]),  # x = 16 (order 4), x = 2 (order 16)
]


@st.composite
def codes(draw):
    spec = draw(st.sampled_from(SPECS))
    q, n = spec.field.q, spec.n
    k = draw(st.integers(1, n - 1))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
            min_size=k,
            max_size=k,
        ).filter(lambda rs: Subspace.from_rows(q, n, rs).dim == k)
    )
    return make_code(spec, rows)


# -- properties -------------------------------------------------------------


@SETTINGS
@given(row_sets())
def test_from_rows_matches_tuple_rref(case):
    q, n, rows = case
    S = Subspace.from_rows(q, n, rows)
    assert (S.rows, S.pivots) == ref_rref(rows, q)
    assert S.dim == len(S.pivots)
    # the echelon under it: each row is 1 at its own pivot lane, 0 below it
    # and 0 at the lanes of the pairs before it
    L = lanes(q, n)
    codes = [L.pack(r) for r in rows]
    piv = L.echelon(codes)
    assert len(piv) == len(ref_rref(rows, q)[1])
    for i, (s, r) in enumerate(piv):
        assert (r >> s) & L.m == 1 and not r & ((1 << s) - 1)
        assert all(not (r >> t) & L.m for t, _ in piv[:i])
    # extending an echelon by more rows is the echelon of all of them
    for cut in range(len(codes) + 1):
        assert len(L.echelon(codes[cut:], L.echelon(codes[:cut]))) == len(piv)


@SETTINGS
@given(row_sets(max_span=729))
def test_element_order_matches_product_order(case):
    q, n, rows = case
    S = Subspace.from_rows(q, n, rows)
    expected = ref_elements(S.rows, q, n)
    assert list(S.elements()) == expected
    assert list(S.nonzero_elements()) == expected[1:]


@SETTINGS
@given(row_set_pairs())
def test_intersection_matches_brute_force(case):
    q, n, rows_u, rows_v = case
    U, V = Subspace.from_rows(q, n, rows_u), Subspace.from_rows(q, n, rows_v)
    common = set(ref_elements(U.rows, q, n)) & set(ref_elements(V.rows, q, n))
    assert q ** intersection_dim(U, V) == len(common)
    assert subspace_distance(U, V) == U.dim + V.dim - 2 * intersection_dim(U, V)
    assert all(U.contains(v) == (v in common) for v in ref_elements(V.rows, q, n))


@SETTINGS
@given(ring_elements())
def test_cycle_of_matches_tuple_walk(case):
    q, coeffs, v = case
    ctx, place, firsts = ref_cycles(q, coeffs)
    assert ctx.cycle_of(v) == place[v]
    cid, pos, length = place[v]
    code = ctx.pack(v)
    assert ctx.lanes.unpack(ctx.mul_x_power_code(code, length - pos)) == firsts[cid]
    assert ctx.lanes.unpack(ctx.mul_x_power_code(code, 1)) == mul_by_x(ctx, v)


# one cycle (primitive), many cycles (non-primitive irreducible) and p^e
# moduli over F_2, F_3 and F_5; in (x + 1)^6 over F_2 a cycle of length 8
# starts after one of length 4, so a position is not its slot mod 8
GROUPING_MODULI = [
    (2, (1, 1, 0, 0, 1)),
    (2, (1, 1, 1, 1, 1)),
    (2, (1, 0, 1, 0, 1)),
    (2, (1, 0, 1, 0, 1, 0, 1)),
    (3, (2, 1, 1)),
    (3, (1, 0, 1)),
    (3, (1, 2, 1)),
    (5, (2, 1, 1)),
    (5, (2, 0, 1)),
    (5, (1, 2, 1)),
]


@st.composite
def grouping_cases(draw):
    q, coeffs = draw(st.sampled_from(GROUPING_MODULI))
    ctx = field_context(poly_of(q, coeffs))
    vectors = st.lists(st.integers(0, q - 1), min_size=ctx.n, max_size=ctx.n).filter(any)
    codes = [ctx.pack(v) for v in draw(st.lists(vectors, max_size=24))]
    return ctx, codes, draw(st.integers(0, len(codes)))


@SETTINGS
@given(grouping_cases())
def test_cycle_groups_match_cycle_of_code(case):
    ctx, codes, at = case
    q = ctx.q
    # f = q - 1 where some power of x is the least primitive root, as for
    # the one block of a spec with M^sigma = zeta I
    for f in (1, q - 1) if ctx.x_log_code(primitive_root(q)) is not None else (1,):
        expect = {}
        for code in codes:
            cid, pos, length = ctx.cycle_of_code(code)
            assert length % f == 0
            expect.setdefault(cid, (length // f, []))[1].append(pos % (length // f))
        assert list(ctx.cycle_groups(codes, f).items()) == list(expect.items())
        with pytest.raises(DomainError, match="zero"):
            ctx.cycle_groups(codes[:at] + [0] + codes[at:], f)


@SETTINGS
@given(codes())
def test_naive_walk_matches_orbit_enumeration(code):
    orbit = enumerate_orbit(code)
    dist = [0] * (code.k + 1)
    for W in orbit:
        dist[subspace_distance(code.start, W) // 2] += 1
    params = analyze_naive(code)
    assert params.cardinality == len(orbit) == len(set(orbit))
    assert params.distribution == tuple(dist)
    nonzero = [i for i in range(1, code.k + 1) if dist[i]]
    assert params.min_distance == (2 * nonzero[0] if nonzero else None)


def test_large_prime_allocates_nothing_of_size_q():
    # the kernels cost per coordinate and per row, never per field element:
    # a table of q entries would take megabytes at this q
    q = 1000003
    tracemalloc.start()
    try:
        ctx = FieldCtx(poly_of(q, [q - 4, 1]))  # x = 4, a square: not primitive
        assert not ctx.is_primitive
        L = ctx.lanes
        assert L.unpack(ctx.mul_by_x_code(L.pack((q - 1,)))) == mul_by_x(ctx, (q - 1,)) == (q - 4,)
        rng = random.Random(3)
        U, V = (
            Subspace.from_rows(q, 8, [[rng.randrange(q) for _ in range(8)] for _ in range(4)])
            for _ in range(2)
        )
        W = Subspace.from_rows(q, 8, U.rows[:2] + V.rows[:2])
        assert (U.dim, V.dim, W.dim) == (4, 4, 4)
        assert intersection_dim(U, W) == intersection_dim(W, V) == 2
        assert subspace_distance(U, V) == 8
        assert W.contains(U.rows[1]) and not W.contains(U.rows[3])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# -- packed ring arithmetic and the stored subspace encoding ----------------


def _ring_moduli():
    """Per q, an irreducible p, p^2 and (x + 1)^3."""
    out = []
    for q, p in [(2, (1, 1, 0, 1)), (3, (1, 0, 1)), (5, (2, 0, 1)), (257, (254, 0, 1))]:
        p = poly_of(q, p)
        assert is_irreducible(p)
        x1 = poly_of(q, (1, 1))
        out += [p, p * p, x1 * x1 * x1]
    return out


RING_MODULI = _ring_moduli()


@st.composite
def ring_pairs(draw):
    """(context, a, b): two coefficient lists, entries not yet reduced mod q."""
    ctx = field_context(draw(st.sampled_from(RING_MODULI)))
    q, n = ctx.q, ctx.n
    a, b = (draw(st.lists(st.integers(-q, 2 * q), min_size=n, max_size=n)) for _ in range(2))
    return ctx, a, b


@SETTINGS
@given(ring_pairs())
def test_mul_code_matches_poly_product(case):
    ctx, a, b = case
    got = ctx.mul_code(ctx.pack(a), ctx.pack(b))
    expect = ref_mod(ref_mul(ctx.to_poly(a), ctx.to_poly(b)), ctx.modulus)
    assert ctx.to_poly(ctx.lanes.unpack(got)) == expect
    assert ctx.mul(a, b) == ctx.lanes.unpack(got)


@SETTINGS
@given(ring_pairs(), st.integers(0, 40))
def test_ring_elem_matches_poly_arithmetic(case, e):
    ctx, a, b = case
    f = ctx.modulus
    pa, pb = ref_mod(ctx.to_poly(a), f), ref_mod(ctx.to_poly(b), f)
    A, B = phi(a, ctx), phi(b, ctx)
    one = Poly.make(f.field, [1])

    def poly(u):
        return ctx.to_poly(u.coeffs)

    assert phi_inv(A) == tuple(x % ctx.q for x in a) and A == phi(phi_inv(A), ctx)
    assert poly(A + B) == ref_mod(ref_add(pa, pb), f)
    assert poly(A - B) == ref_mod(ref_add(pa, -pb), f)
    assert poly(-A) == ref_mod(-pa, f)
    assert poly(A * B) == ref_mod(ref_mul(pa, pb), f)
    assert poly(A**e) == pow_mod(pa, e, f)
    assert A.is_zero == pa.is_zero
    unit = ref_ext_gcd(pb, f)[0] == one
    assert B.is_unit == unit
    if unit:
        assert ref_mod(ref_mul(poly(A / B), pb), f) == pa
        assert ref_mod(ref_mul(poly(B**-e), pow_mod(pb, e, f)), f) == one
    else:
        with pytest.raises(NonUnitError):
            A / B


@st.composite
def poly_pairs(draw):
    """Two polynomials over one field, each of degree below 41: zero,
    constants and leading coefficients other than 1 all come up."""
    field = PrimeField(draw(st.sampled_from(FIELDS)))
    coeffs = st.lists(st.integers(0, field.q - 1), max_size=41)
    return Poly.make(field, draw(coeffs)), Poly.make(field, draw(coeffs))


# zero by zero, zero by a constant, a constant by another, and a divisor
# with leading coefficient q - 1 over each odd q
EDGE_PAIRS = [
    (poly_of(2, []), poly_of(2, [])),
    (poly_of(3, []), poly_of(3, [2])),
    (poly_of(5, [4]), poly_of(5, [3])),
    (poly_of(5, [1, 2, 3, 4, 0, 1]), poly_of(5, [2, 0, 4])),
    (poly_of(257, [5] * 41), poly_of(257, [1, 256])),
]


def _with_edge_pairs(test):
    for pair in EDGE_PAIRS:
        test = example(pair)(test)
    return test


@settings(max_examples=200, deadline=None, derandomize=True)
@given(poly_pairs())
@_with_edge_pairs
def test_poly_arithmetic_matches_tuple_reference(case):
    a, b = case
    assert a + b == b + a == ref_add(a, b)
    assert a - b == ref_add(a, -b)
    assert a * b == b * a == ref_mul(a, b)
    if b.is_zero:
        with pytest.raises(NonUnitError, match="polynomial division by zero"):
            divmod(a, b)
    else:
        assert divmod(a, b) == (a // b, a % b) == ref_divmod(a, b)


@SETTINGS
@given(poly_pairs())
@_with_edge_pairs
def test_ring_inverse_matches_tuple_ext_gcd(case):
    # the extended Euclid on codes, against a monic modulus of any
    # factorization: a unit exactly when the reference gcd is 1, and then
    # the inverse is the reference cofactor
    a, f = case
    assume(f.degree >= 1)
    f = f.monic()
    ring = PackedRing(f)
    a = ref_mod(a, f)
    g, s, _ = ref_ext_gcd(a, f)
    code = ring.lanes.pack(a.coeffs)
    if g == poly_of(f.field.q, [1]):
        assert Poly.make(f.field, ring.lanes.unpack(ring.inv_code(code))) == ref_mod(s, f)
    else:
        with pytest.raises(NonUnitError):
            ring.inv_code(code)


@SETTINGS
@given(poly_pairs(), st.integers(0, 8))
@example((poly_of(3, []), poly_of(3, [])), 0)
def test_poly_pow_matches_repeated_products(case, e):
    p = case[0]
    assert poly_pow(p, e) == ref_pow(p, e)


@SETTINGS
@given(row_sets(), st.randoms(use_true_random=False))
def test_subspace_codes_and_rows_round_trip(case, rnd):
    q, n, rows = case
    L = lanes(q, n)
    S = Subspace.from_rows(q, n, rows)
    assert S.codes == tuple(L.pack(r) for r in S.rows)
    assert S.rows == tuple(L.unpack(c) for c in S.codes)
    assert Subspace(q, n, S.codes, S.pivots) == S
    assert Subspace.from_rows(q, n, S.rows) == S == Subspace.from_packed(q, n, S.codes)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    T = Subspace.from_rows(q, n, shuffled)
    assert T == S and hash(T) == hash(S) and T.rows == S.rows


def ref_lf_set(rows, f, q):
    """The L_f vectors as the tuple loop that first defined their order."""
    kp, n = len(rows), len(rows[0])
    out = []
    for s in range(1, f + 2):
        for idxs in combinations(range(kp), s):
            for coeffs in product(range(1, q), repeat=s):
                v = [0] * n
                for c, i in zip(coeffs, idxs):
                    for j, x in enumerate(rows[i]):
                        v[j] = (v[j] + c * x) % q
                out.append(tuple(v))
    return out


@st.composite
def lf_cases(draw):
    """(q, rows, f): independent rows, entries not yet reduced mod q, and an
    f whose L_f set stays below 5000 vectors."""
    q, n, rows = draw(row_sets(max_n=5))
    kp = Subspace.from_rows(q, n, rows).dim
    assume(kp == len(rows) and kp >= 1)
    max_f = 0
    while max_f + 1 < kp and lf_vector_count(q, kp, max_f + 1) < 5000:
        max_f += 1
    return q, rows, draw(st.integers(0, max_f))


@SETTINGS
@given(lf_cases())
def test_lf_set_order_is_pinned(case):
    q, rows, f = case
    assert lf_set(rows, f, q) == ref_lf_set(rows, f, q)
