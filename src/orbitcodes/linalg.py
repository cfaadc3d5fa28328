"""Linear algebra over F_q: matrices, canonical subspaces, the subspace
metric, duality, companion matrices, and the algebra isomorphism psi.

Matrices and subspaces hold their rows packed, one int per row (see
fields.Lanes). Subspaces are always stored as the unique RREF of their row
space, so structural equality is subspace equality and Subspace objects can
be dict keys. Row vectors act on matrices from the left throughout (v M, U A).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, SingularMatrixError
from .fields import FieldCtx, Lanes, Poly, RingElem, check_entries, lanes

Row = tuple[int, ...]


def _rref_rows(codes, lanes_: Lanes) -> tuple[list[int], tuple[int, ...]]:
    """The nonzero RREF rows of packed rows in pivot order, and their pivot
    columns: two echelon passes.

    After the first pass each row is 1 at its pivot, 0 below it and 0 at
    the earlier pivots. The second pass takes the rows from the highest
    pivot down, so it clears each row at every pivot after its own and
    leaves its pivot and the lanes below alone: the unique RREF."""
    echelon, w = lanes_.echelon, lanes_.w
    piv = echelon(codes)
    piv.sort(reverse=True)
    piv = echelon([r for _, r in piv])
    piv.reverse()
    return [r for _, r in piv], tuple([s // w for s, _ in piv])


@dataclass(frozen=True)
class Mat:
    """Dense matrix over F_q: the column count and one packed row of F_q^ncols
    per row; `rows` reads them as tuples. Build through make/identity/from_text;
    the raw constructor trusts its codes."""

    q: int
    ncols: int
    codes: tuple[int, ...]

    @classmethod
    def make(cls, q: int, rows) -> "Mat":
        rows = [tuple(row) for row in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DomainError("ragged matrix rows")
        return cls(q, ncols, tuple(map(lanes(q, ncols).pack, rows)))

    @classmethod
    def identity(cls, q: int, n: int) -> "Mat":
        return cls(q, n, tuple(1 << s for s in lanes(q, n).shifts))

    @classmethod
    def from_text(cls, q: int, text: str) -> "Mat":
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = [int(tok) for tok in line.split()]
            except ValueError as exc:
                raise DomainError(f"matrix row must be space-separated integers: {line!r}") from exc
            check_entries(row, q, f"matrix row {line!r}")
            rows.append(row)
        if not rows:
            raise DomainError("empty matrix text")
        return cls.make(q, rows)

    def to_text(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        unpack = lanes(self.q, self.ncols).unpack
        return tuple([unpack(c) for c in self.codes])

    @property
    def nrows(self) -> int:
        return len(self.codes)

    def apply(self, v: int) -> int:
        """The packed row vector v of F_q^nrows times this matrix, packed:
        the sum of v_i times row i."""
        L = lanes(self.q, self.ncols)
        w, m, add, scale = L.w, L.m, L.add, L.scale
        out = 0
        for r in self.codes:
            if not v:
                break
            c = v & m
            if c:
                out = add(out, r if c == 1 else scale(r, c))
            v >>= w
        return out

    def __mul__(self, other: "Mat") -> "Mat":
        if self.q != other.q or self.ncols != other.nrows:
            raise DomainError("matrix product shape/field mismatch")
        return Mat(self.q, other.ncols, tuple([other.apply(r) for r in self.codes]))

    def __pow__(self, e: int) -> "Mat":
        if self.nrows != self.ncols:
            raise DomainError("power of a non-square matrix")
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        result = Mat.identity(self.q, self.nrows)
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def transpose(self) -> "Mat":
        L, rows = lanes(self.q, self.ncols), list(enumerate(self.codes))
        cols = [sum(((r >> s) & L.m) << (L.w * i) for i, r in rows) for s in L.shifts]
        return Mat(self.q, self.nrows, tuple(cols))

    def rank(self) -> int:
        return len(lanes(self.q, self.ncols).echelon(self.codes))

    def inverse(self) -> "Mat":
        """The RREF of [A | I], I packed into the high lanes."""
        n = self.nrows
        if n != self.ncols:
            raise SingularMatrixError("inverse of a non-square matrix")
        L = lanes(self.q, 2 * n)
        top = L.w * n
        aug = [r | (1 << (top + s)) for r, s in zip(self.codes, L.shifts)]
        reduced, pivots = _rref_rows(aug, L)
        if pivots != tuple(range(n)):
            raise SingularMatrixError("matrix is singular")
        return Mat(self.q, n, tuple([r >> top for r in reduced]))


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_q^n in canonical form.

    `codes` is the unique RREF basis (no zero rows), packed one int per
    row (see fields.Lanes), so equal subspaces are equal objects. `rows`
    reads the same basis as coefficient tuples. Construct through
    from_rows/from_packed/from_matrix; the raw constructor trusts its
    input.
    """

    q: int
    n: int
    codes: tuple[int, ...]
    pivots: tuple[int, ...]

    @classmethod
    def from_rows(cls, q: int, n: int, rows) -> "Subspace":
        L = lanes(q, n)
        codes = []
        for row in rows:
            if len(row) != n:
                raise DomainError(f"rows must have length {n}")
            codes.append(L.pack(row))
        return cls.from_packed(q, n, codes)

    @classmethod
    def from_packed(cls, q: int, n: int, codes) -> "Subspace":
        """The row space of packed rows of F_q^n."""
        reduced, pivots = _rref_rows(codes, lanes(q, n))
        return cls(q, n, tuple(reduced), pivots)

    @classmethod
    def from_matrix(cls, M: Mat) -> "Subspace":
        return cls.from_packed(M.q, M.ncols, M.codes)

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        unpack = lanes(self.q, self.n).unpack
        return tuple([unpack(c) for c in self.codes])

    @property
    def dim(self) -> int:
        return len(self.codes)

    @property
    def matrix(self) -> Mat:
        return Mat(self.q, self.n, self.codes)

    @cached_property
    def pivot_rows(self) -> tuple[tuple[int, int], ...]:
        """(bit offset of the pivot lane, packed row) per RREF basis row."""
        w = lanes(self.q, self.n).w
        return tuple(zip([p * w for p in self.pivots], self.codes))

    def residual_rank(self, codes) -> int:
        """dim(self + span(codes)) - dim(self) for packed rows of F_q^n: how
        far the rows lengthen the echelon of this RREF basis."""
        return len(lanes(self.q, self.n).echelon(codes, self.pivot_rows)) - self.dim

    def contains(self, v) -> bool:
        if len(v) != self.n:
            raise DomainError("vector/ambient dimension mismatch")
        return not self.residual_rank([lanes(self.q, self.n).pack(v)])

    def __contains__(self, v) -> bool:
        return self.contains(v)

    def elements(self):
        """Every vector of the subspace (q^dim of them), zero included, in
        itertools.product order of the coefficients on the basis rows."""
        return map(lanes(self.q, self.n).unpack, self.element_codes())

    def element_codes(self) -> list[int]:
        """elements(), packed."""
        return lanes(self.q, self.n).span(self.codes)

    def nonzero_elements(self):
        # the basis is independent, so only the all-zero combination,
        # which comes first, is the zero vector
        return map(lanes(self.q, self.n).unpack, self.element_codes()[1:])

    def transform(self, M: Mat) -> "Subspace":
        """The image subspace { uM : u in U }, canonicalized."""
        if M.nrows != self.n:
            raise DomainError("transform shape mismatch")
        return Subspace.from_packed(self.q, M.ncols, [M.apply(c) for c in self.codes])

    def __repr__(self) -> str:
        return f"Subspace(q={self.q}, n={self.n}, dim={self.dim})"


def intersection_dim(U: Subspace, V: Subspace) -> int:
    """dim(U meet V) = dim V - (dim(U + V) - dim U)."""
    if U.n != V.n or U.q != V.q:
        raise DomainError("subspaces live in different ambient spaces")
    return V.dim - U.residual_rank(V.codes)


def subspace_distance(U: Subspace, V: Subspace) -> int:
    """The subspace metric dim U + dim V - 2 dim(U meet V)."""
    if U.n != V.n or U.q != V.q:
        raise DomainError("subspaces live in different ambient spaces")
    return U.dim + V.dim - 2 * intersection_dim(U, V)


def subspace_sum(U: Subspace, V: Subspace) -> Subspace:
    if U.n != V.n or U.q != V.q:
        raise DomainError("subspaces live in different ambient spaces")
    return Subspace.from_packed(U.q, U.n, U.codes + V.codes)


def dual(U: Subspace) -> Subspace:
    """Orthogonal complement under the standard dot product."""
    q, n, k = U.q, U.n, U.dim
    free = [c for c in range(n) if c not in U.pivots]
    basis = []
    for c in free:
        # one kernel vector per free column of the RREF basis
        v = [0] * n
        v[c] = 1
        for row, p in zip(U.rows, U.pivots):
            v[p] = (-row[c]) % q
        basis.append(v)
    assert len(basis) == n - k
    return Subspace.from_rows(q, n, basis)


def companion_matrix(f: Poly) -> Mat:
    """Companion matrix: superdiagonal ones, last row -f_0 ... -f_{n-1}.

    With row vectors acting from the left, v -> vM is multiplication by x
    mod f on coefficient vectors.
    """
    if not f.is_monic:
        raise DomainError("companion matrix needs a monic polynomial")
    n = f.degree
    if n < 1:
        raise DomainError("companion matrix needs degree >= 1")
    q = f.field.q
    L = lanes(q, n)
    last = L.pack([-f.coeff(j) for j in range(n)])
    return Mat(q, n, tuple(1 << s for s in L.shifts[1:]) + (last,))


def psi(A: Mat, ctx: FieldCtx) -> RingElem:
    """Algebra isomorphism F_q[P] -> F_q[x]/(f), sum(c_i P^i) -> sum(c_i x^i).

    P is the companion matrix of the ctx modulus. The coefficient vector is
    the first row of A; membership in F_q[P] is verified by rebuilding the
    matrix, so inputs outside span{I, P, ..., P^(n-1)} are rejected.
    """
    if A.nrows != ctx.n or A.ncols != ctx.n or A.q != ctx.q:
        raise DomainError("matrix shape does not match the context")
    u = RingElem(ctx, A.codes[0])
    if psi_inv(u) != A:
        raise DomainError("matrix is not a polynomial in the companion matrix")
    return u


def psi_inv(u: RingElem) -> Mat:
    """Inverse of psi: row j of the result is x^j * u mod f."""
    ctx = u.ctx
    codes = [u.code]
    for _ in range(ctx.n - 1):
        codes.append(ctx.mul_by_x_code(codes[-1]))
    return Mat(ctx.q, ctx.n, tuple(codes))
