"""Linear algebra over F_q: matrices, canonical subspaces, the subspace
metric, duality, companion matrices, and the algebra isomorphism psi.

Subspaces are always stored as the unique RREF of their row space, so
structural equality is subspace equality and Subspace objects can be dict
keys. Row vectors act on matrices from the left throughout (v M, U A).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, SingularMatrixError
from .fields import FieldCtx, Lanes, Poly, RingElem, check_entries, lanes, phi

Row = tuple[int, ...]


def _rref_rows(codes, lanes_: Lanes) -> tuple[list[int], tuple[int, ...]]:
    """Gauss-Jordan on packed rows: the nonzero RREF rows in pivot order,
    and their pivot columns.

    Rows enter one at a time. Each is reduced against the pivot rows so
    far; if anything is left, its lowest lane is a new pivot, which is
    scaled to 1 and cleared from the earlier rows. That keeps every row's
    leading lane at its pivot, so the result is the unique RREF.
    """
    q, w, m = lanes_.q, lanes_.w, lanes_.m
    add, scale = lanes_.add, lanes_.scale
    piv: dict[int, int] = {}  # bit offset of the pivot lane -> row
    for v in codes:
        for s, r in piv.items():
            c = (v >> s) & m
            if c:
                # subtract c * r, which is adding r when c = q - 1
                v = add(v, r if c == q - 1 else scale(r, q - c))
        if not v:
            continue
        s = (v & -v).bit_length() - 1
        s -= s % w
        c = (v >> s) & m
        if c != 1:
            v = scale(v, pow(c, -1, q))
        for t, r in piv.items():
            c = (r >> s) & m
            if c:
                piv[t] = add(r, v if c == q - 1 else scale(v, q - c))
        piv[s] = v
    order = sorted(piv)
    return [piv[s] for s in order], tuple(s // w for s in order)


def _rref_tuples(rows, q: int, ncols: int) -> tuple[list[Row], tuple[int, ...]]:
    """_rref_rows for rows given as sequences of ints."""
    L = lanes(q, ncols)
    reduced, pivots = _rref_rows([L.pack(r) for r in rows], L)
    return [L.unpack(c) for c in reduced], pivots


@dataclass(frozen=True)
class Mat:
    """Dense matrix over F_q, entries reduced mod q, row-major tuples."""

    q: int
    rows: tuple[Row, ...]

    @classmethod
    def make(cls, q: int, rows) -> "Mat":
        out = tuple(tuple(int(x) % q for x in row) for row in rows)
        if out and any(len(r) != len(out[0]) for r in out):
            raise DomainError("ragged matrix rows")
        return cls(q, out)

    @classmethod
    def identity(cls, q: int, n: int) -> "Mat":
        return cls(q, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

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

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __mul__(self, other: "Mat") -> "Mat":
        if self.q != other.q or self.ncols != other.nrows:
            raise DomainError("matrix product shape/field mismatch")
        q = self.q
        cols = list(zip(*other.rows))
        return Mat(
            q,
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) % q for col in cols)
                for row in self.rows
            ),
        )

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
        return Mat(self.q, tuple(zip(*self.rows)))

    def rank(self) -> int:
        return len(_rref_tuples(self.rows, self.q, self.ncols)[1])

    def inverse(self) -> "Mat":
        n = self.nrows
        if n != self.ncols:
            raise SingularMatrixError("inverse of a non-square matrix")
        q = self.q
        aug = [list(self.rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
        reduced, pivots = _rref_tuples(aug, q, 2 * n)
        if len(pivots) != n or pivots != tuple(range(n)):
            raise SingularMatrixError("matrix is singular")
        return Mat(q, tuple(row[n:] for row in reduced))


def row_times_mat(v: Row, M: Mat) -> Row:
    q = M.q
    return tuple(
        sum(v[i] * M.rows[i][j] for i in range(len(v))) % q for j in range(M.ncols)
    )


def rref(M: Mat) -> tuple[Mat, int]:
    """Reduced row echelon form (same shape, zero rows at the bottom) and rank."""
    reduced, pivots = _rref_tuples(M.rows, M.q, M.ncols)
    rank = len(pivots)
    pad = tuple((0,) * M.ncols for _ in range(M.nrows - rank))
    return Mat(M.q, tuple(reduced) + pad), rank


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
        return cls.from_rows(M.q, M.ncols, M.rows)

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        unpack = lanes(self.q, self.n).unpack
        return tuple([unpack(c) for c in self.codes])

    @property
    def dim(self) -> int:
        return len(self.codes)

    @property
    def matrix(self) -> Mat:
        return Mat(self.q, self.rows)

    @cached_property
    def _pivot_rows(self) -> tuple[tuple[int, int], ...]:
        """(bit offset of the pivot lane, packed row) per RREF basis row."""
        w = lanes(self.q, self.n).w
        return tuple(zip([p * w for p in self.pivots], self.codes))

    def residual_rank(self, codes) -> int:
        """dim(self + span(codes)) - dim(self) for packed rows of F_q^n:
        the rank of what is left of the rows after reducing them against
        this RREF basis.

        Forward elimination only: each row is cleared at the pivot lanes
        found so far, in the order they were found, and a row with anything
        left adds its lowest lane as a pivot. Every pivot row is zero at the
        pivot lanes before it, so clearing a later lane never refills an
        earlier one; rows already placed are not reduced further."""
        L = lanes(self.q, self.n)
        q, w, m, add, scale = L.q, L.w, L.m, L.add, L.scale
        piv = list(self._pivot_rows)
        for v in codes:
            for s, r in piv:
                c = (v >> s) & m
                if c:
                    v = add(v, r if c == q - 1 else scale(r, q - c))
            if v:
                s = (v & -v).bit_length() - 1
                s -= s % w
                c = (v >> s) & m
                piv.append((s, v if c == 1 else scale(v, pow(c, -1, q))))
        return len(piv) - self.dim

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
        return Subspace.from_rows(
            self.q, M.ncols, [row_times_mat(r, M) for r in self.rows]
        )

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
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = 1
    for j in range(n):
        rows[n - 1][j] = (-f.coeff(j)) % q
    return Mat.make(q, rows)


def psi(A: Mat, ctx: FieldCtx) -> RingElem:
    """Algebra isomorphism F_q[P] -> F_q[x]/(f), sum(c_i P^i) -> sum(c_i x^i).

    P is the companion matrix of the ctx modulus. The coefficient vector is
    the first row of A; membership in F_q[P] is verified by rebuilding the
    matrix, so inputs outside span{I, P, ..., P^(n-1)} are rejected.
    """
    if A.nrows != ctx.n or A.ncols != ctx.n or A.q != ctx.q:
        raise DomainError("matrix shape does not match the context")
    u = phi(A.rows[0], ctx)
    if psi_inv(u) != A:
        raise DomainError("matrix is not a polynomial in the companion matrix")
    return u


def psi_inv(u: RingElem) -> Mat:
    """Inverse of psi: row j of the result is x^j * u mod f."""
    ctx = u.ctx
    rows = []
    code = u.code
    for _ in range(ctx.n):
        rows.append(ctx.lanes.unpack(code))
        code = ctx.mul_by_x_code(code)
    return Mat(ctx.q, tuple(rows))
