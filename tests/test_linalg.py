"""Matrices, subspaces, duals and companion matrices."""

import dataclasses
import random
from itertools import product

import pytest

from orbitcodes import (
    DomainError,
    Mat,
    Poly,
    PrimeField,
    SingularMatrixError,
    Subspace,
    companion_matrix,
    dual,
    field_context,
    intersection_dim,
    matrix_order,
    phi,
    psi,
    psi_inv,
    subspace_distance,
    subspace_sum,
)
from orbitcodes.fields import lanes

from conftest import (
    P2,
    X2_X_2_F3,
    X4_NONPRIM,
    X4_X_1,
    X6_X_1,
    mul_by_x,
    poly_of,
    rand_full_rank,
    row_times_mat,
    span_size,
)

SEED = 424242


def rand_mat(rng, q, r, c):
    return Mat.make(q, [[rng.randrange(q) for _ in range(c)] for _ in range(r)])


def naive_mul(A, B):
    """Triple-loop product, no shortcuts."""
    q = A.q
    out = []
    for i in range(A.nrows):
        row = []
        for j in range(B.ncols):
            row.append(sum(A.rows[i][t] * B.rows[t][j] for t in range(A.ncols)) % q)
        out.append(row)
    return Mat.make(q, out)


_mul_rng = random.Random(SEED)
_mul_cases = [
    (q, _mul_rng.randrange(1, 5), _mul_rng.randrange(1, 5), _mul_rng.randrange(1, 5))
    for q in (2, 3, 5, 7)
    for _ in range(8)
] + [
    # A with one row, B with one column, and A with one column times B with one row
    (q, r, m, c)
    for q in (2, 3, 5, 7)
    for r, m, c in ((1, 5, 6), (6, 5, 1), (5, 1, 6))
]


@pytest.mark.parametrize("q,r,m,c", _mul_cases)
def test_mat_mul_matches_naive(q, r, m, c):
    rng = random.Random((q, r, m, c).__hash__())
    A = rand_mat(rng, q, r, m)
    B = rand_mat(rng, q, m, c)
    assert A * B == naive_mul(A, B)


def test_mat_text_round_trip():
    M = Mat.make(3, [(0, 1, 2), (2, 2, 0)])
    assert Mat.from_text(3, M.to_text()) == M


@pytest.mark.parametrize("line,bad", [("1 0 7", 7), ("-1 1 0", -1), ("0 2 1", 2)])
def test_mat_text_outside_the_field(line, bad):
    with pytest.raises(DomainError) as err:
        Mat.from_text(2, "1 0 0\n" + line + "\n")
    msg = str(err.value)
    assert repr(line) in msg and f"entry {bad}" in msg and "q = 2" in msg


def test_mat_shape_mismatch():
    with pytest.raises(DomainError):
        Mat.make(2, [[1, 0], [1]])
    with pytest.raises(DomainError):
        rand_mat(random.Random(0), 2, 2, 3) * rand_mat(random.Random(1), 2, 2, 3)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_inverse_round_trip(q):
    rng = random.Random(SEED + q)
    I = Mat.identity(q, 4)
    found = 0
    while found < 10:
        A = rand_mat(rng, q, 4, 4)
        try:
            B = A.inverse()
        except SingularMatrixError:
            continue
        found += 1
        assert A * B == I
        assert B * A == I
        assert A ** (-1) == B


def test_singular_inverse_raises():
    A = Mat.make(2, [[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError):
        A.inverse()
    rng = random.Random(SEED)
    for q in (3, 5, 7):
        # the last row is a combination of the others
        A = rand_mat(rng, q, 4, 5)
        last = [(2 * a + (q - 1) * b) % q for a, b in zip(A.rows[0], A.rows[2])]
        with pytest.raises(SingularMatrixError):
            Mat.make(q, [*A.rows, last]).inverse()
    with pytest.raises(SingularMatrixError):
        rand_mat(rng, 3, 2, 3).inverse()  # not square


@pytest.mark.parametrize("q", [2, 3])
def test_rank_matches_span_size(q):
    rng = random.Random(SEED ^ q)
    for _ in range(25):
        A = rand_mat(rng, q, rng.randrange(1, 4), rng.randrange(1, 5))
        assert q ** A.rank() == span_size(list(A.rows), q)


def rref(M):
    """Reduced row echelon form (same shape, zero rows at the bottom) and rank."""
    S = Subspace.from_matrix(M)
    return Mat(M.q, M.ncols, S.codes + (0,) * (M.nrows - S.dim)), S.dim


def test_rref_shape_and_idempotence():
    A = Mat.make(2, [[1, 1, 0, 1], [1, 1, 1, 0], [0, 0, 1, 1]])
    R, rank = rref(A)
    assert R.nrows == A.nrows  # zero-row padded to the input shape
    assert rank == 2
    R2, rank2 = rref(R)
    assert (R2, rank2) == (R, rank)


def test_mat_stores_packed_rows():
    M = Mat.make(3, [(0, 1, 2), (2, 2, 0)])
    assert [f.name for f in dataclasses.fields(Mat)] == ["q", "ncols", "codes"]
    w = lanes(3, 3).w
    assert M.codes == (1 << w | 2 << 2 * w, 2 | 2 << w)
    assert M.rows == ((0, 1, 2), (2, 2, 0))
    # (1, 2) M = (1, 2, 2)
    assert M.apply(1 | 2 << w) == (Mat.make(3, [(1, 2)]) * M).codes[0] == 1 | 2 << w | 2 << 2 * w
    assert (M.nrows, M.ncols) == (2, 3)
    assert M.transpose().rows == ((0, 2), (1, 2), (2, 0))


def test_transform_matches_tuple_row_times_matrix(rng):
    for q in (2, 3, 5, 7):
        for _ in range(10):
            n, m = rng.randrange(1, 6), rng.randrange(1, 6)
            U = rand_full_rank(rng, q, rng.randrange(1, n + 1), n)
            M = rand_mat(rng, q, n, m)
            images = [
                [sum(u[i] * M.rows[i][j] for i in range(n)) % q for j in range(m)]
                for u in U.rows
            ]
            assert U.transform(M) == Subspace.from_rows(q, m, images)
            assert [row_times_mat(u, M) for u in U.rows] == [tuple(v) for v in images]


def test_pow_negative_and_zero():
    M = companion_matrix(X4_X_1)
    assert M**0 == Mat.identity(2, 4)
    assert M**3 * M**-3 == Mat.identity(2, 4)
    assert M**-1 * M == Mat.identity(2, 4)


# -- subspaces --------------------------------------------------------------


def test_subspace_canonical_representation(rng):
    for _ in range(30):
        q = rng.choice((2, 3))
        n = rng.randrange(2, 6)
        k = rng.randrange(1, n + 1)
        S = rand_full_rank(rng, q, k, n)
        # remix the basis by a random invertible matrix: same subspace
        while True:
            L = rand_mat(rng, q, k, k)
            if L.rank() == k:
                break
        T = Subspace.from_rows(q, n, (L * S.matrix).rows)
        assert S == T
        assert S.rows == T.rows


def test_subspace_membership_matches_enumeration():
    S = Subspace.from_rows(2, 5, [(1, 0, 1, 0, 1), (0, 1, 1, 0, 0)])
    members = set(S.elements())
    assert len(members) == 4
    for v in product(range(2), repeat=5):
        assert (v in S) == (v in members)


def test_zero_subspace():
    Z = Subspace.from_rows(3, 4, [])
    assert Z.dim == 0
    assert list(Z.nonzero_elements()) == []
    assert Z.contains((0, 0, 0, 0))
    assert not Z.contains((1, 0, 0, 0))


def test_distance_formula_and_sum(rng):
    for _ in range(40):
        q, n = rng.choice(((2, 5), (3, 4)))
        U = rand_full_rank(rng, q, rng.randrange(1, n), n)
        V = rand_full_rank(rng, q, rng.randrange(1, n), n)
        i = intersection_dim(U, V)
        s = subspace_sum(U, V).dim
        assert U.dim + V.dim == i + s
        assert subspace_distance(U, V) == U.dim + V.dim - 2 * i


def test_dual_properties(rng):
    for _ in range(30):
        q, n = rng.choice(((2, 6), (3, 4)))
        U = rand_full_rank(rng, q, rng.randrange(1, n), n)
        Ud = dual(U)
        assert Ud.dim == n - U.dim
        for u in U.rows:
            for w in Ud.rows:
                assert sum(a * b for a, b in zip(u, w)) % q == 0
        assert dual(Ud) == U


def test_dual_transform_rule(rng):
    # (U A)^perp = U^perp (A^{-1})^t
    q, n = 2, 5
    for _ in range(20):
        U = rand_full_rank(rng, q, 2, n)
        while True:
            A = rand_mat(rng, q, n, n)
            if A.rank() == n:
                break
        left = dual(U.transform(A))
        right = dual(U).transform(A.inverse().transpose())
        assert left == right


# -- companion matrices -----------------------------------------------------


def test_companion_matrix_golden():
    M = companion_matrix(X4_X_1)
    assert M.rows == (
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 1, 0, 0),
    )
    M3 = companion_matrix(X2_X_2_F3)  # x^2 + x + 2 over F_3: last row -2, -1
    assert M3.rows == ((0, 1), (1, 2))


def test_companion_requires_monic_nonconstant():
    with pytest.raises(DomainError):
        companion_matrix(poly_of(3, [1, 2]))  # not monic
    with pytest.raises(DomainError):
        companion_matrix(poly_of(2, [1]))


@pytest.mark.parametrize(
    "p,order",
    [
        (X4_X_1, 15),
        (X6_X_1, 63),
        (X4_NONPRIM, 5),
        (X2_X_2_F3, 8),
        # x^16+x^5+x^3+x^2+1, primitive: far too many powers to step through
        (poly_of(2, [1, 0, 1, 1, 0, 1] + [0] * 10 + [1]), 2**16 - 1),
    ],
)
def test_matrix_order(p, order):
    M = companion_matrix(p)
    assert matrix_order(M) == order


def test_matrix_order_of_identity():
    assert matrix_order(Mat.identity(2, 3)) == 1


def test_row_action_is_multiplication_by_x():
    # v M_f = (x * phi(v)) as coefficient vectors
    for p in (X4_X_1, X6_X_1, X2_X_2_F3):
        ctx = field_context(p)
        M = companion_matrix(p)
        rng = random.Random(p.encoding())
        for _ in range(20):
            v = tuple(rng.randrange(p.field.q) for _ in range(p.degree))
            assert row_times_mat(v, M) == mul_by_x(ctx, v)


def test_psi_round_trip_and_commutation():
    ctx = field_context(X4_X_1)
    M = companion_matrix(X4_X_1)
    rng = random.Random(5)
    for e in (0, 1, 2, 7, 14):
        A = M**e
        u = psi(A, ctx)
        assert psi_inv(u) == A
        # phi(v A) = phi(v) * psi(A)
        for _ in range(10):
            v = tuple(rng.randrange(2) for _ in range(4))
            lhs = phi(row_times_mat(v, A), ctx)
            rhs = phi(v, ctx) * u
            assert lhs == rhs


def test_psi_rejects_outsiders():
    ctx = field_context(X4_X_1)
    A = Mat.make(2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    with pytest.raises(DomainError):
        psi(A, ctx)
