"""Rational-canonical generator construction and matrix-type classification.

A cyclic subgroup of GL_n(F_q) is determined up to conjugacy by the "type"
of any generator: for each irreducible factor p of the characteristic
polynomial, the partition formed by the exponents of its elementary
divisors, together with the multiplicative order of p. This module builds
block-diagonal generators from elementary-divisor data and recovers the
type of an arbitrary invertible matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import DomainError, InternalInvariantError, SingularMatrixError
from .fields import Poly, PrimeField, factor_poly, is_irreducible, lanes, power_order
from .linalg import Mat, companion_matrix

# Classification relies on exhaustive factor search; keep inputs desk-sized.
MAX_CLASSIFY_DIM = 12


def poly_pow(p: Poly, e: int) -> Poly:
    out = Poly.make(p.field, [1])
    for _ in range(e):
        out = out * p
    return out


@dataclass(frozen=True)
class ElementaryDivisorSpec:
    """Block data for a generator: (p, e) pairs, p monic irreducible, e >= 1.

    Repeated pairs are allowed; the implied ambient dimension is
    sum(deg(p) * e).
    """

    field: PrimeField
    blocks: tuple[tuple[Poly, int], ...]

    @classmethod
    def make(cls, field: PrimeField, blocks) -> "ElementaryDivisorSpec":
        checked = []
        for p, e in blocks:
            p = p.monic()
            if p.field != field:
                raise DomainError("block polynomial over the wrong field")
            if not is_irreducible(p):
                raise DomainError(f"block polynomial {p} is reducible")
            if e < 1:
                raise DomainError(f"block exponent must be >= 1, got {e}")
            checked.append((p, int(e)))
        if not checked:
            raise DomainError("spec needs at least one block")
        return cls(field, tuple(checked))

    @cached_property
    def n(self) -> int:
        return sum(p.degree * e for p, e in self.blocks)

    @cached_property
    def _hash(self) -> int:
        return hash((self.field, self.blocks))

    def __hash__(self) -> int:
        # each lru_cache keyed by the spec hashes it; its Poly tuples are
        # hashed once per object
        return self._hash

    def __getstate__(self) -> dict:
        # the fields only: n and the hash are recomputed on first read
        return {"field": self.field, "blocks": self.blocks}

    @property
    def block_degrees(self) -> tuple[int, ...]:
        return tuple(p.degree * e for p, e in self.blocks)

    def generator_order(self) -> int:
        """lcm over the blocks of ord(p^e) = ord(p) * q^ceil(log_q e)."""
        return math.lcm(*(power_order(p, e) for p, e in self.blocks))


@lru_cache(maxsize=128)
def build_generator(spec: ElementaryDivisorSpec) -> Mat:
    """Block-diagonal matrix of companion blocks, one per (p, e) with poly p^e.
    Cached per spec: search and the oracle re-check build the same one."""
    q = spec.field.q
    n = spec.n
    if any(p.coeff(0) == 0 for p, _ in spec.blocks):
        raise SingularMatrixError(
            "generator is singular: a block polynomial has p(0) = 0"
        )
    w = lanes(q, n).w
    codes: list[int] = []
    for p, e in spec.blocks:
        # a block's rows sit at lane offset len(codes), its own row count
        shift = w * len(codes)
        codes += [c << shift for c in companion_matrix(poly_pow(p, e)).codes]
    return Mat(q, n, tuple(codes))


@dataclass(frozen=True)
class MatrixType:
    """Conjugacy invariant of a cyclic subgroup: one (partition, order) per
    distinct irreducible factor of the characteristic polynomial, sorted by
    (order, factor degree, partition) so equality is structural.

    The sort order is a convention of this implementation; normalize before
    comparing against types computed elsewhere.
    """

    partitions: tuple[tuple[int, ...], ...]
    orders: tuple[int, ...]


def char_poly(A: Mat) -> Poly:
    """det(xI - A) over F_q[x] by Krylov elimination; monic.

    For each unit vector e in turn, the rows e A^t, t = 0, 1, ..., are
    forward-eliminated against the pivot rows so far until one reduces to
    zero. Row t enters with a 1 in tag lane t, so the zero row's tags are,
    up to a scalar, a monic g with e g(A) in the span W of the earlier runs.
    W plus the run is A-invariant and g is the characteristic polynomial of
    A on it modulo W, so chi is the product of the g (g = 1 for an e
    already in W)."""
    n = A.nrows
    if n != A.ncols:
        raise DomainError("characteristic polynomial of a non-square matrix")
    q = A.q
    field = PrimeField(q)
    # n ambient lanes, then n + 1 tag lanes
    L = lanes(q, 2 * n + 1)
    top = L.w * n
    ambient = (1 << top) - 1
    chi = Poly.make(field, [1])
    piv: list[tuple[int, int]] = []  # (bit offset of the pivot lane, row)
    for e in Mat.identity(q, n).codes:
        if len(piv) == n:
            break
        run = len(piv)
        k, t = e, 0  # k = e A^t
        while True:
            piv = L.echelon([k | (1 << (top + L.w * t))], piv)
            # the row always joins: its tag lane t is 1 and no pivot is there
            if piv[-1][0] >= top:
                break
            k, t = A.apply(k), t + 1
        g = Poly.make(field, lanes(q, t + 1).unpack(piv.pop()[1] >> top))
        chi = chi * g.monic()
        # the run's rows join W; the next run's tags must not pick up theirs
        piv[run:] = [(s, r & ambient) for s, r in piv[run:]]
    return chi


def matrix_order(M: Mat) -> int:
    """Least t >= 1 with M^t = I: the order of x modulo the minimal
    polynomial prod p^e, e the largest part of p's partition, which is the
    lcm of the orders in M's type."""
    n = M.nrows
    if n != M.ncols:
        raise SingularMatrixError("order of a non-square matrix")
    if M.rank() != n:
        raise SingularMatrixError("a singular matrix has no multiplicative order")
    return math.lcm(*(order for order, _, _ in _primary_parts(M)))


def _evaluate_at_matrix(p: Poly, A: Mat) -> Mat:
    """p(A) by Horner on packed rows: out <- out A + c I per coefficient."""
    L = lanes(A.q, A.nrows)
    codes = [0] * A.nrows
    for c in reversed(p.coeffs):
        codes = [L.add(A.apply(r), c << s) for r, s in zip(codes, L.shifts)]
    return Mat(A.q, A.ncols, tuple(codes))


def _primary_parts(A: Mat) -> list[tuple[int, int, tuple[int, ...]]]:
    """(order, degree, partition) per irreducible factor p of the
    characteristic polynomial of a square invertible A. The partition comes
    from the kernel dimensions dim ker p(A)^j; the order is ord(p^e), e its
    largest part, the order of A on the p-primary component."""
    n = A.nrows
    records = []
    for p, mult in factor_poly(char_poly(A)):
        deg = p.degree
        B = _evaluate_at_matrix(p, A)
        counts: list[int] = []
        Bj = B
        k_prev = 0
        while True:
            k_j = n - Bj.rank()
            step = k_j - k_prev
            if step % deg:
                raise InternalInvariantError("kernel growth not a multiple of deg p")
            c_j = step // deg
            if c_j == 0:
                break
            counts.append(c_j)
            if k_j >= deg * mult:
                break
            k_prev = k_j
            Bj = Bj * B
        parts: list[int] = []
        for j in range(len(counts)):
            exact = counts[j] - (counts[j + 1] if j + 1 < len(counts) else 0)
            parts.extend([j + 1] * exact)
        partition = tuple(sorted(parts, reverse=True))
        if sum(partition) != mult:
            raise InternalInvariantError("partition does not sum to the multiplicity")
        records.append((power_order(p, partition[0]), deg, partition))
    return records


def matrix_type(A: Mat) -> MatrixType:
    """Recover (partitions, orders) from the kernel-dimension sequences
    dim ker p(A)^j of each irreducible factor p of the characteristic
    polynomial."""
    n = A.nrows
    if n != A.ncols:
        raise DomainError("matrix type of a non-square matrix")
    if n > MAX_CLASSIFY_DIM:
        raise DomainError(f"classification limited to n <= {MAX_CLASSIFY_DIM}")
    if A.rank() != n:
        raise SingularMatrixError("matrix type needs an invertible matrix")
    records = sorted(_primary_parts(A))
    return MatrixType(
        partitions=tuple(r[2] for r in records),
        orders=tuple(r[0] for r in records),
    )


def same_group_type(A: Mat, B: Mat) -> bool:
    """Decides conjugacy of the cyclic groups <A> and <B>."""
    if A.nrows != B.nrows or A.q != B.q:
        raise DomainError("matrices of different size or base field")
    return matrix_type(A) == matrix_type(B)
