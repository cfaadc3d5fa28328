"""Minimum-distance decoding for cyclic orbit codes with a single
irreducible companion-block generator.

Every codeword intersecting the received space R nontrivially shows up as
a candidate U P^e with v = u x^e for some pair of nonzero vectors v in R,
u in U. Such an e exists exactly when v and u lie on the same cycle of
multiplication by x, and then it is the difference of their positions on
that cycle, read from the field context's cycle index. Scanning all pairs
and keeping the candidate of maximal intersection is a full
nearest-codeword search. The L_f variant restricts v to low-support
combinations of R's basis and stops as soon as a candidate is provably
the unique nearest codeword.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .analysis import CodeParams, CyclicOrbitCode, analyze, codeword
from .errors import DomainError
from .fields import FieldCtx, field_context
from .linalg import Subspace, intersection_dim


@dataclass(frozen=True)
class DecodeResult:
    """Nearest-codeword answer.

    group_exponent is reduced mod the code cardinality. When several
    candidates tie at the maximal intersection the smallest exponent wins
    and unique is False; a distance within the unique-decoding radius
    always comes with unique True.
    """

    codeword: Subspace
    group_exponent: int
    distance: int
    unique: bool
    candidates_examined: int


@lru_cache(maxsize=128)
def _code_info(code: CyclicOrbitCode) -> tuple[FieldCtx, CodeParams]:
    spec = code.block_structure
    if spec is None or len(spec.blocks) != 1 or spec.blocks[0][1] != 1:
        raise DomainError(
            "decoding needs a single irreducible companion-block generator"
        )
    ctx = field_context(spec.blocks[0][0])
    if not ctx.is_irreducible:
        raise DomainError("decoding needs an irreducible generator polynomial")
    params = analyze(code, method="fast")
    return ctx, params


def _check_received(R: Subspace, code: CyclicOrbitCode) -> None:
    if R.q != code.q or R.n != code.n:
        raise DomainError("received space lives in the wrong ambient space")
    if R.dim < 1:
        raise DomainError("received space must be nonzero")


class _CandidateScan:
    """Shared state for one decode: candidate construction, caching by
    exponent mod cardinality, and best tracking."""

    def __init__(self, R: Subspace, code: CyclicOrbitCode):
        self.R = R
        self.code = code
        self.ctx, self.params = _code_info(code)
        self.card = self.params.cardinality
        self.k = code.k
        self.kp = R.dim
        self.examined = 0
        self.cache: dict[int, tuple[Subspace, int]] = {}
        self.best_dim = 0
        self.best_exps: set[int] = set()
        self.u_places = [self.ctx.cycle_of_code(u)[:2] for u in code.start.element_codes()[1:]]

    def _candidate(self, e: int) -> tuple[Subspace, int]:
        key = e % self.card
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        W = codeword(self.code, key)
        entry = (W, intersection_dim(self.R, W))
        self.cache[key] = entry
        return entry

    def exponents_for(self, v: int):
        """Candidate exponents from pairing a packed v with every nonzero u
        in U.

        Yields one exponent per pair on a common cycle; the other pairs
        (possible only for non-primitive generators, which have several
        cycles) are counted as examined but yield nothing.
        """
        cv, pv, r = self.ctx.cycle_of_code(v)
        for cu, pu in self.u_places:
            self.examined += 1
            if cu == cv:
                yield (pv - pu) % r

    def consider(self, e: int) -> tuple[Subspace, int]:
        W, dim = self._candidate(e)
        key = e % self.card
        if dim > self.best_dim:
            self.best_dim = dim
            self.best_exps = {key}
        elif dim == self.best_dim and dim > 0:
            self.best_exps.add(key)
        return W, dim

    def result(self) -> DecodeResult:
        if self.best_exps:
            exp = min(self.best_exps)
            W, dim = self.cache[exp]
            unique = len(self.best_exps) == 1
        else:
            # no pair produced a candidate: every codeword meets R trivially
            exp = 0
            W, dim = self._candidate(0)
            unique = self.card == 1
        return DecodeResult(
            codeword=W,
            group_exponent=exp,
            distance=self.k + self.kp - 2 * dim,
            unique=unique,
            candidates_examined=self.examined,
        )


def decode_exhaustive(R: Subspace, code: CyclicOrbitCode) -> DecodeResult:
    """Algorithm-style full pair scan: examines exactly
    (q^k - 1)(q^k' - 1) pairs, no early exit. Ambiguity is reported
    through unique=False with the smallest tied exponent."""
    _check_received(R, code)
    scan = _CandidateScan(R, code)
    for v in R.element_codes()[1:]:
        for e in scan.exponents_for(v):
            scan.consider(e)
    return scan.result()


def lf_set(basis_rows, f: int, q: int) -> list[tuple[int, ...]]:
    """Combinations of the basis with support size <= f+1 and nonzero
    coefficients on the support, smallest support first.

    The count is sum_{i=1}^{f+1} C(k', i) (q-1)^i; a size-f-support
    reading of the same construction is this function at f-1.
    """
    rows = [tuple(int(x) % q for x in r) for r in basis_rows]
    kp = len(rows)
    if not 0 <= f < kp:
        raise DomainError(f"need 0 <= f < k' = {kp}, got f = {f}")
    n = len(rows[0])
    if Subspace.from_rows(q, n, rows).dim != kp:
        raise DomainError("basis rows are linearly dependent")
    out = []
    for s in range(1, f + 2):
        for idxs in itertools.combinations(range(kp), s):
            for coeffs in itertools.product(range(1, q), repeat=s):
                v = [0] * n
                for c, i in zip(coeffs, idxs):
                    for j, x in enumerate(rows[i]):
                        v[j] = (v[j] + c * x) % q
                out.append(tuple(v))
    return out


def lf_vector_count(q: int, k_prime: int, f: int) -> int:
    """sum_{i=1}^{f+1} C(k', i) (q-1)^i, the loop count of the L_f decoder."""
    return sum(math.comb(k_prime, i) * (q - 1) ** i for i in range(1, f + 2))


def error_capability(code: CyclicOrbitCode, k_prime: int) -> int:
    """floor((k' - k + delta - 1)/2) clamped to [0, k'-1].

    A cardinality-1 code has no minimum distance; everything decodes to
    the single codeword, so the capability degenerates to the maximal
    clamp k' - 1.
    """
    if k_prime < 1:
        raise DomainError("k' must be >= 1")
    _, params = _code_info(code)
    if params.min_distance is None:
        return k_prime - 1
    delta = params.min_distance // 2
    f = (k_prime - code.k + delta - 1) // 2
    return max(0, min(f, k_prime - 1))


def decode_lf(R: Subspace, code: CyclicOrbitCode, f: int | None = None) -> DecodeResult:
    """L_f decoding: pair only low-support combinations of R's basis,
    returning as soon as a candidate is within the unique-decoding radius
    (distance <= delta - 1). With f = error_capability (the default) this
    agrees with decode_exhaustive whenever R is uniquely decodable."""
    _check_received(R, code)
    if f is None:
        f = error_capability(code, R.dim)
    scan = _CandidateScan(R, code)
    delta = None
    if scan.params.min_distance is not None:
        delta = scan.params.min_distance // 2
    k, kp = code.k, R.dim
    # distance <= delta-1 is equivalent to this intersection dimension
    exit_dim = None
    if delta is not None:
        exit_dim = math.ceil((k + kp - delta + 1) / 2)
    pack = scan.ctx.lanes.pack
    for v in lf_set(R.rows, f, code.q):
        for e in scan.exponents_for(pack(v)):
            _, dim = scan.consider(e)
            if exit_dim is not None and dim >= exit_dim:
                W, dim = scan.cache[e % scan.card]
                return DecodeResult(
                    codeword=W,
                    group_exponent=e % scan.card,
                    distance=k + kp - 2 * dim,
                    unique=True,
                    candidates_examined=scan.examined,
                )
    return scan.result()
