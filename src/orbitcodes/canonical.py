"""Rational-canonical generator construction and matrix-type classification.

A cyclic subgroup of GL_n(F_q) is determined up to conjugacy by the "type"
of any generator: for each irreducible factor p of the characteristic
polynomial, the partition formed by the exponents of its elementary
divisors, together with the multiplicative order of p. This module builds
block-diagonal generators from elementary-divisor data, compiles a spec's
block form once per spec, and recovers the type of an invertible matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

from .errors import DomainError, InternalInvariantError, SingularMatrixError
from .fields import (
    FieldCtx,
    PackedRing,
    Poly,
    PrimeField,
    factor_poly,
    field_context,
    is_irreducible,
    lanes,
    power_order,
    primitive_root,
)
from .linalg import Mat, companion_matrix

# Classification relies on exhaustive factor search; keep inputs desk-sized.
MAX_CLASSIFY_DIM = 12


def poly_pow(p: Poly, e: int) -> Poly:
    """p^e for e >= 0, by square and multiply on packed codes in
    F_q[x]/(x^N) with N above the degree of p^e, where nothing of p^e is
    reduced away."""
    ring = PackedRing(Poly.make(p.field, [0] * (max(p.degree, 0) * e + 1) + [1]))
    return Poly.make(p.field, ring.lanes.unpack(ring.pow_code(ring.lanes.pack(p.coeffs), e)))


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
    def compiled(self) -> CompiledSpec:
        """The block form every layer reads, built on first read."""
        return CompiledSpec(self)

    def __getstate__(self) -> dict:
        # the fields only: n and the compiled form are rebuilt on first read
        return {"field": self.field, "blocks": self.blocks}

    def generator_order(self) -> int:
        return self.compiled.order


class CompiledSpec:
    """A spec's generator M as diagonal companion blocks p^e, M multiplying
    block i by x in F_q[x]/(p^e). A packed vector of F_q^n (fields.Lanes)
    holds block i's part at bit offset s_i under mask m_i: `layout` lists
    (s_i, m_i, p^e) and is the one place the offsets are worked out, and a
    block with p(0) = 0 (M singular) is refused there. The rest is built on
    first read and kept; the naive oracle reads only `step`, index-free
    rings off the layout, so it builds no cycle index.
    """

    def __init__(self, spec: ElementaryDivisorSpec):
        if any(p.coeff(0) == 0 for p, _ in spec.blocks):
            raise SingularMatrixError("generator is singular: a block polynomial has p(0) = 0")
        self.spec = spec
        self.lanes = lanes(spec.field.q, spec.n)
        layout, s = [], 0
        for p, e in spec.blocks:
            f = poly_pow(p, e)
            width = f.degree * self.lanes.w
            layout.append((s, (1 << width) - 1, f))
            s += width
        self.layout: tuple[tuple[int, int, Poly], ...] = tuple(layout)

    @cached_property
    def generator(self) -> Mat:
        return build_generator(self.spec)

    @cached_property
    def order(self) -> int:
        """lcm over the blocks of ord(p^e) = ord(p) * q^ceil(log_q e)."""
        return math.lcm(*(power_order(p, e) for p, e in self.spec.blocks))

    @cached_property
    def blocks(self) -> tuple[tuple[int, int, FieldCtx], ...]:
        """(bit offset, bit mask, context of F_q[x]/(p^e)) of each block."""
        return tuple((s, mask, field_context(f)) for s, mask, f in self.layout)

    @cached_property
    def step(self):
        """v -> vM on packed vectors, on rings with no cycle index."""
        parts = [(s, m, PackedRing(f).mul_by_x_code) for s, m, f in self.layout]
        if len(parts) == 1:
            return parts[0][2]

        def step(v):
            out = 0
            for s, mask, mul_x in parts:
                out |= mul_x((v >> s) & mask) << s
            return out

        return step

    @cached_property
    def power(self):
        """(v, e) -> vM^e on packed vectors, read off the cycle indexes."""
        blocks = self.blocks
        if len(blocks) == 1:
            return blocks[0][2].mul_x_power_code
        # the blocks' bits are disjoint, so the sum of the parts is their OR
        return lambda v, e: sum(c.mul_x_power_code((v >> s) & m, e) << s for s, m, c in blocks)

    @cached_property
    def group(self):
        """The grouping (codes, f) -> {M-cycle key: (L // f, [P mod L // f])}
        of nonzero packed codes, which refuses a zero code. With one block
        the M-cycles are the block's own cycles, so it is cycle_groups."""
        if len(self.blocks) == 1:
            return self.blocks[0][2].cycle_groups
        # a positional partial: a keyword one builds a dict per call
        return partial(_group_places, self.blocks)

    @cached_property
    def sigma(self) -> int | None:
        """sigma with M^sigma = zeta I for the least primitive root zeta of
        F_q, or None when q = 2 or no power of M is zeta I.

        M^sigma = zeta I says x^sigma = zeta in every block: zeta lies on
        cycle 0 (the powers of x) of each block at its x-log, and sigma solves
        those logs mod the orders of x by the CRT step of _place, which records
        no shift exactly when they agree.
        """
        q = self.spec.field.q
        if q == 2:
            return None
        zeta = primitive_root(q)
        try:
            # the constant zeta in every block: zeta in the first lane of each
            key, sigma, _ = _place(self.blocks, sum(zeta << s for s, _, _ in self.layout))
        except DomainError:
            # a block too large to index: the general route indexes only the
            # blocks a start lives in
            return None
        return sigma if all(c == (0, 0) for c in key) else None


def _place(blocks, v: int) -> tuple[tuple, int, int]:
    """(M-cycle key, position P, cycle length L) of a nonzero packed vector v.

    Per live block, v's part has a cycle id, a position e and a length m,
    and vM^h = w needs h = e_w - e_v mod m in every live block. The
    positions are merged by CRT into one P mod L = lcm of the m. Where two
    moduli share a factor g the system only has a solution when the
    positions agree mod g, so e is first shifted by (P - e) mod g and the
    shift goes into the key: two elements then share a key exactly when
    some power of M maps one to the other.
    """
    key = []
    P, L = 0, 1
    for s, mask, ctx in blocks:
        part = (v >> s) & mask
        if not part:
            key.append(None)
            continue
        cid, e, m = ctx.cycle_of_code(part)
        if L == 1:
            # nothing to merge yet: the CRT step below would give e, m, 0
            P, L = e, m
            key.append((cid, 0))
            continue
        g = math.gcd(L, m)
        shift = (P - e) % g
        mg = m // g
        P += L * ((e + shift - P) // g * pow(L // g, -1, mg) % mg)
        L *= mg
        key.append((cid, shift))
    return tuple(key), P, L


def _group_places(blocks, codes, f: int) -> dict:
    """cycle_groups over the M-cycles of several blocks: {M-cycle key:
    (L // f, [P mod L // f of each code on it, in input order])}, each code
    placed by _place."""
    if not all(codes):
        raise DomainError("zero lies on no cycle of the generator")
    groups: dict = {}
    for v in codes:
        key, P, L = _place(blocks, v)
        if key not in groups:
            groups[key] = (L // f, [])
        L, ps = groups[key]
        ps.append(P % L)
    return groups


def build_generator(spec: ElementaryDivisorSpec) -> Mat:
    """Block-diagonal matrix of companion blocks, one per (p, e) with poly
    p^e, each at its offset in the spec's layout."""
    codes = [c << s for s, _, f in spec.compiled.layout for c in companion_matrix(f).codes]
    return Mat(spec.field.q, spec.n, tuple(codes))


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
