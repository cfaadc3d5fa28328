"""Elementary divisors, characteristic polynomials and matrix types."""

import math
import pickle
import random
import time

import pytest

from orbitcodes import (
    DomainError,
    ElementaryDivisorSpec,
    Mat,
    Poly,
    PrimeField,
    SingularMatrixError,
    build_generator,
    char_poly,
    companion_matrix,
    factor_poly,
    is_irreducible,
    matrix_order,
    matrix_type,
    poly_order,
    same_group_type,
)
from orbitcodes.canonical import MAX_CLASSIFY_DIM, poly_pow

from conftest import (
    P2,
    P3,
    X2_X_1,
    X3_X_1,
    X4_NONPRIM,
    X4_X_1,
    X6_X_1,
    poly_of,
    ref_mul,
    ref_pow,
)

SEED = 90125


def poly_det(entries, q):
    """Cofactor expansion along the first row; entries are Poly objects."""
    m = len(entries)
    if m == 1:
        return entries[0][0]
    field = entries[0][0].field
    acc = Poly.make(field, [0])
    for j in range(m):
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        term = ref_mul(entries[0][j], poly_det(minor, q))
        if j % 2:
            term = ref_mul(Poly.make(field, [q - 1]), term)
        acc = acc + term
    return acc


def char_poly_oracle(A):
    """det(xI - A) via cofactors, independent of the library routine."""
    field = PrimeField(A.q)
    x = Poly.make(field, [0, 1])
    entries = [
        [
            (x if i == j else Poly.make(field, [0]))
            + Poly.make(field, [(-A.rows[i][j]) % A.q])
            for j in range(A.nrows)
        ]
        for i in range(A.nrows)
    ]
    return poly_det(entries, A.q)


_rng = random.Random(SEED)
_char_cases = [
    (q, _rng.randrange(1, 5), _rng.getrandbits(30)) for q in (2, 3, 5, 7) for _ in range(6)
]


@pytest.mark.parametrize("q,n,salt", _char_cases)
def test_char_poly_matches_cofactor_oracle(q, n, salt):
    rng = random.Random(salt)
    A = Mat.make(q, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
    assert char_poly(A) == char_poly_oracle(A)


@pytest.mark.parametrize("p", [X4_X_1, X6_X_1, X4_NONPRIM, X2_X_1])
def test_char_poly_of_companion_is_the_polynomial(p):
    assert char_poly(companion_matrix(p)) == p


def rand_square(rng, q, n):
    return Mat.make(q, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])


def eval_at_matrix(f, A):
    """f(A) by Horner on coefficient tuples, independent of the library."""
    q, n = A.q, A.nrows
    out = [[0] * n for _ in range(n)]
    for c in reversed(f.coeffs):
        out = [
            [
                (sum(row[t] * A.rows[t][j] for t in range(n)) + (c if i == j else 0)) % q
                for j in range(n)
            ]
            for i, row in enumerate(out)
        ]
    return out


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_char_poly_cayley_hamilton(q):
    rng = random.Random(SEED + 11 * q)
    for _ in range(4):
        n = rng.randrange(1, 21)
        A = rand_square(rng, q, n)
        if rng.randrange(2):
            # a repeated row makes A singular
            A = Mat.make(q, A.rows[:-1] + A.rows[:1])
        chi = char_poly(A)
        assert chi.is_monic and chi.degree == n
        assert eval_at_matrix(chi, A) == [[0] * n for _ in range(n)]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_char_poly_is_a_similarity_invariant(q):
    rng = random.Random(SEED + 13 * q)
    for _ in range(8):
        n = rng.randrange(1, 9)
        A = rand_square(rng, q, n)
        while True:
            S = rand_square(rng, q, n)
            if S.rank() == n:
                break
        assert char_poly(S.inverse() * A * S) == char_poly(A)


def test_char_poly_of_a_dense_n32_matrix_is_fast():
    A = rand_square(random.Random(SEED), 3, 32)
    t0 = time.perf_counter()
    chi = char_poly(A)
    assert time.perf_counter() - t0 < 1.0
    assert chi.degree == 32 and eval_at_matrix(chi, A) == [[0] * 32] * 32


@pytest.mark.parametrize("q,max_deg,cases", [(2, 6, 25), (3, 4, 20)])
def test_factor_poly_reassembles(q, max_deg, cases):
    field = PrimeField(q)
    rng = random.Random(SEED + q)
    for _ in range(cases):
        deg = rng.randrange(1, max_deg + 1)
        coeffs = [rng.randrange(q) for _ in range(deg)] + [1]
        f = Poly.make(field, coeffs)
        factors = factor_poly(f)
        prod = Poly.make(field, [1])
        for p, mult in factors:
            assert is_irreducible(p)
            assert p.is_monic
            for _ in range(mult):
                prod = ref_mul(prod, p)
        assert prod == f
        # ascending order by (degree, encoding)
        keys = [(p.degree, p.encoding()) for p, _ in factors]
        assert keys == sorted(keys)


def test_factor_poly_goldens():
    f = poly_of(2, [1, 0, 1, 0, 1])  # x^4+x^2+1 = (x^2+x+1)^2
    assert factor_poly(f) == [(poly_of(2, [1, 1, 1]), 2)]
    g = poly_of(2, [0, 1, 1])  # x(x+1)
    assert factor_poly(g) == [(poly_of(2, [0, 1]), 1), (poly_of(2, [1, 1]), 1)]
    # a prime residual of degree 31 is recognised, not trial-divided
    p31 = poly_of(2, [1, 0, 0, 1] + [0] * 27 + [1])  # x^31+x^3+1
    h = X2_X_1 * X2_X_1 * poly_of(2, [1, 1]) * p31
    assert factor_poly(h) == [(poly_of(2, [1, 1]), 1), (X2_X_1, 2), (p31, 1)]


# -- elementary divisor specs ----------------------------------------------


def test_spec_validation():
    with pytest.raises(DomainError):
        ElementaryDivisorSpec.make(P2, [])
    with pytest.raises(DomainError):
        ElementaryDivisorSpec.make(P2, [(poly_of(2, [1, 0, 1]), 1)])  # reducible
    with pytest.raises(DomainError):
        ElementaryDivisorSpec.make(P2, [(X2_X_1, 0)])


def test_spec_dimensions_and_orders():
    spec = ElementaryDivisorSpec.make(P2, [(X4_X_1, 1), (X6_X_1, 1)])
    assert spec.n == 10
    # (bit offset, bit mask, p^e) of each block: one bit per coordinate over F_2
    assert spec.compiled.layout == ((0, 0b1111, X4_X_1), (4, 0b111111, X6_X_1))
    assert spec.generator_order() == math.lcm(15, 63)
    sq = ElementaryDivisorSpec.make(P2, [(X2_X_1, 2)])
    assert sq.n == 4
    # order of a p^e block: ord(p) * q^ceil(log_q e)
    assert sq.generator_order() == 6


def test_spec_pickles_its_fields_only():
    # n and the compiled form are built once per object; a --jobs worker
    # gets the fields and builds them again
    cases = [
        (P2, [(X4_X_1, 1), (X2_X_1, 2)], 8, None),
        # x = -1 and a primitive cubic with -1 = x^13
        (P3, [(poly_of(3, [1, 1]), 1), (poly_of(3, [1, 2, 0, 1]), 1)], 4, 13),
    ]
    for field, blocks, n, sigma in cases:
        spec = ElementaryDivisorSpec.make(field, blocks)
        fresh = pickle.dumps(ElementaryDivisorSpec.make(field, blocks))
        c = spec.compiled
        assert (spec.n, hash(spec)) == (n, hash((spec.field, spec.blocks)))
        # every part, sigma and the placer included, before pickling
        assert (c.generator, c.order) == (build_generator(spec), spec.generator_order())
        assert c.blocks and c.group and c.sigma == sigma
        assert pickle.dumps(spec) == fresh
        back = pickle.loads(fresh)
        assert back == spec and hash(back) == hash(spec) and back.n == n
        assert "compiled" not in vars(back) and back.compiled.generator == c.generator
        assert back != ElementaryDivisorSpec.make(field, [(p, e + 1) for p, e in blocks])


def test_build_generator_block_layout():
    spec = ElementaryDivisorSpec.make(P2, [(X4_X_1, 1), (X6_X_1, 1)])
    M = build_generator(spec)
    C1, C2 = companion_matrix(X4_X_1), companion_matrix(X6_X_1)
    for i in range(10):
        for j in range(10):
            if i < 4 and j < 4:
                assert M.rows[i][j] == C1.rows[i][j]
            elif i >= 4 and j >= 4:
                assert M.rows[i][j] == C2.rows[i - 4][j - 4]
            else:
                assert M.rows[i][j] == 0


@pytest.mark.parametrize(
    "blocks",
    [
        [(X4_X_1, 1), (X6_X_1, 1)],
        [(X2_X_1, 2), (X3_X_1, 1), (X2_X_1, 1)],
        [(poly_of(3, [1, 0, 1]), 2), (poly_of(3, [1, 1]), 1)],
        [(poly_of(5, [2, 1]), 3), (poly_of(5, [2, 0, 1]), 1)],
    ],
)
def test_build_generator_matches_tuple_assembly(blocks):
    spec = ElementaryDivisorSpec.make(blocks[0][0].field, blocks)
    n = spec.n
    rows = [[0] * n for _ in range(n)]
    off = 0
    for p, e in blocks:
        C = companion_matrix(poly_pow(p, e))
        for i, row in enumerate(C.rows):
            rows[off + i][off : off + C.nrows] = row
        off += C.nrows
    assert build_generator(spec) == Mat.make(spec.field.q, rows)


def _lucas(e, i, q):
    """C(e, i) mod q by Lucas's theorem: the product over the base-q digits."""
    out = 1
    while e or i:
        out, e, i = out * math.comb(e % q, i % q) % q, e // q, i // q
    return out


@pytest.mark.parametrize("q", [2, 3])
def test_poly_pow_of_a_huge_exponent_by_lucas(q):
    # (x + 1)^e has C(e, i) mod q at x^i; over F_2 that is 1 exactly when
    # every bit of i is a bit of e
    e = 20000
    start = time.perf_counter()
    p = poly_pow(poly_of(q, [1, 1]), e)
    assert time.perf_counter() - start < 1
    assert p.coeffs == tuple(_lucas(e, i, q) for i in range(e + 1))
    if q == 2:
        assert p.coeffs == tuple(int(i & e == i) for i in range(e + 1))


def test_build_generator_rejects_singular():
    spec = ElementaryDivisorSpec.make(P2, [(poly_of(2, [0, 1]), 1)])  # p = x
    with pytest.raises(SingularMatrixError):
        build_generator(spec)


@pytest.mark.parametrize(
    "blocks,order",
    [
        ([(X2_X_1, 1)], 3),
        ([(X2_X_1, 2)], 6),
        ([(X3_X_1, 1), (X2_X_1, 1)], 21),
        ([(X4_NONPRIM, 1)], 5),
        # exponents e >= q lift ord(p) by q^ceil(log_q e)
        ([(poly_of(2, [1, 1]), 3)], 4),
        ([(X3_X_1, 2)], 14),
        ([(poly_of(3, [1, 1]), 4)], 18),
    ],
)
def test_generator_order_matches_matrix_order(blocks, order):
    spec = ElementaryDivisorSpec.make(blocks[0][0].field, blocks)
    assert spec.generator_order() == order
    assert matrix_order(build_generator(spec)) == order
    # chi is the product of the elementary divisors
    chi = Poly.make(spec.field, [1])
    for p, e in blocks:
        chi = ref_mul(chi, ref_pow(p, e))
    assert char_poly(build_generator(spec)) == chi


def _primes_dividing(m):
    """The primes of m by trial division."""
    out, r = [], 2
    while r * r <= m:
        if m % r == 0:
            out.append(r)
            while m % r == 0:
                m //= r
        r += 1
    return out + [m] * (m > 1)


def rand_invertible(rng, q, n):
    while True:
        M = rand_square(rng, q, n)
        if M.rank() == n:
            return M


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_matrix_order_of_random_invertible_matrices(q):
    # the least t with M^t = I, checked by matrix powers
    rng = random.Random(SEED + 7 * q)
    for _ in range(12):
        n = rng.randrange(1, 11)
        M = rand_invertible(rng, q, n)
        o = matrix_order(M)
        I = Mat.identity(q, n)
        assert M**o == I
        for r in _primes_dividing(o):
            assert M ** (o // r) != I


@pytest.mark.parametrize(
    "blocks",
    [
        [(X2_X_1, 1), (X2_X_1, 2)],
        [(poly_of(2, [1, 1]), 1), (poly_of(2, [1, 1]), 3), (X3_X_1, 1)],
        [(X3_X_1, 2), (X3_X_1, 1), (X2_X_1, 1)],
        [(poly_of(3, [1, 1]), 2), (poly_of(3, [1, 1]), 2), (poly_of(3, [1, 0, 1]), 1)],
        [(poly_of(5, [2, 1]), 1), (poly_of(5, [2, 1]), 5), (poly_of(5, [2, 0, 1]), 1)],
    ],
)
def test_matrix_order_of_conjugated_block_generators(blocks):
    # repeated factors with several exponents, hidden by a change of basis
    spec = ElementaryDivisorSpec.make(blocks[0][0].field, blocks)
    B = build_generator(spec)
    rng = random.Random(SEED + spec.n)
    for _ in range(3):
        S = rand_invertible(rng, spec.field.q, spec.n)
        assert matrix_order(S.inverse() * B * S) == spec.generator_order()


def test_matrix_order_of_a_degree_100_companion_is_fast():
    # x^100 + x^37 + 1 is primitive over F_2: the order is 2^100 - 1
    p = poly_of(2, [1] + [0] * 36 + [1] + [0] * 62 + [1])
    t0 = time.perf_counter()
    order = matrix_order(companion_matrix(p))
    assert time.perf_counter() - t0 < 1.0
    assert order == 2**100 - 1 and is_irreducible(p)


def test_matrix_order_rejects_singular():
    with pytest.raises(SingularMatrixError, match="^a singular matrix has no multiplicative order"):
        matrix_order(Mat.make(2, [[1, 1], [1, 1]]))
    with pytest.raises(SingularMatrixError, match="^order of a non-square matrix$"):
        matrix_order(Mat.make(2, [[1, 0, 0], [0, 1, 0]]))


# -- matrix types -----------------------------------------------------------


def test_matrix_type_single_blocks():
    t = matrix_type(companion_matrix(X4_X_1))
    assert t.partitions == ((1,),)
    assert t.orders == (15,)
    t2 = matrix_type(build_generator(ElementaryDivisorSpec.make(P2, [(X2_X_1, 2)])))
    assert t2.partitions == ((2,),)
    assert t2.orders == (6,)


def test_matrix_type_two_blocks():
    spec = ElementaryDivisorSpec.make(P2, [(X4_X_1, 1), (X6_X_1, 1)])
    t = matrix_type(build_generator(spec))
    assert t.partitions == ((1,), (1,))
    assert set(t.orders) == {15, 63}


def test_matrix_type_repeated_factor_partition():
    # two blocks with the same p: partition collects both exponents
    spec = ElementaryDivisorSpec.make(P2, [(X2_X_1, 2), (X2_X_1, 1)])
    t = matrix_type(build_generator(spec))
    assert t.partitions == ((2, 1),)
    assert t.orders == (6,)


def test_same_type_under_coprime_powers():
    A = companion_matrix(X6_X_1)
    for i in (2, 5, 10, 62):
        assert math.gcd(i, 63) == 1
        assert same_group_type(A, A**i)
    # power with gcd > 1 changes the generated group
    assert not same_group_type(A, A**7)


def test_same_type_distinct_orders():
    assert not same_group_type(
        companion_matrix(X4_X_1), companion_matrix(X4_NONPRIM)
    )


def test_type_invariant_under_conjugation(rng):
    spec = ElementaryDivisorSpec.make(P2, [(X2_X_1, 1), (X3_X_1, 1)])
    A = build_generator(spec)
    base = matrix_type(A)
    n = spec.n
    for _ in range(15):
        while True:
            S = Mat.make(2, [[rng.randrange(2) for _ in range(n)] for _ in range(n)])
            if S.rank() == n:
                break
        assert matrix_type(S.inverse() * A * S) == base


def test_matrix_type_guards():
    with pytest.raises(SingularMatrixError):
        matrix_type(Mat.make(2, [[1, 1], [1, 1]]))
    with pytest.raises(DomainError):
        matrix_type(Mat.identity(2, MAX_CLASSIFY_DIM + 1))
    with pytest.raises(DomainError):
        matrix_type(Mat.make(2, [[1, 0, 0], [0, 1, 0]]))
