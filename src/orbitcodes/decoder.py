"""Minimum-distance decoding for cyclic orbit codes with a single
irreducible companion-block generator.

Multiplication by x permutes the nonzero vectors of F_q^n in cycles of
length r = ord(x), and v = u x^e for nonzero u, v exactly when both lie on
one cycle and e is the difference of their positions there, read from the
field context's cycle index. For the start U and a received space R that
gives the count identity

    #{(u, v) : u in U - 0, v in R - 0, v = u x^e} = q^dim(R cap U x^e) - 1.

U x^e depends only on e mod the code's cardinality N, which divides r, so
the pairs on a common cycle whose positions differ by c mod N number
(r/N)(q^d - 1) with d = dim(R cap U x^c). One count of position
differences therefore gives R's intersection with every codeword at once,
with no rank and no canonical form, and decode_exhaustive takes the
largest. The L_f variant pairs only low-support combinations of R's basis
with U, ranks each exponent it meets by reducing the rows of U x^e against
R's RREF, and stops as soon as a candidate is provably the unique nearest
codeword.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterator, NamedTuple

from .analysis import PAIR_LIMIT, CodeParams, CyclicOrbitCode, analyze, codeword
from .errors import DomainError, InternalInvariantError
from .fields import Lanes, lanes
from .linalg import Subspace


@dataclass(frozen=True, slots=True)
class DecodeResult:
    """Nearest-codeword answer.

    group_exponent is reduced mod the code cardinality. When several
    candidates tie at the maximal intersection the smallest exponent wins
    and unique is False; a distance within the unique-decoding radius
    always comes with unique True. The answer is the exponent: codeword,
    U M^group_exponent of the decoded code, is built on each read (slots
    leave no __dict__ to keep it in).
    """

    code: CyclicOrbitCode = field(repr=False)
    group_exponent: int
    distance: int
    unique: bool
    candidates_examined: int

    @property
    def codeword(self) -> Subspace:
        return codeword(self.code, self.group_exponent)


class _Tables(NamedTuple):
    """What every decode of one code needs. It holds no FieldCtx, so a code
    that carries it still pickles to --jobs workers."""

    params: CodeParams
    # (cycle id, position) of each nonzero element of U, element_codes order
    places: tuple[tuple[int, int], ...]
    # cycle id -> (position mod cardinality, how many of U's elements sit there)
    residues: dict[int, list[tuple[int, int]]]


def _tables(code: CyclicOrbitCode) -> _Tables:
    """The code's decoder tables, built on its first decode and kept in its
    __dict__, as cached_property keeps CyclicOrbitCode.regime: a decode
    neither hashes the code nor rebuilds them."""
    tables = vars(code).get("decoder_tables")
    if tables is not None:
        return tables
    spec = code.block_structure
    if spec is None or len(spec.blocks) != 1 or spec.blocks[0][1] != 1:
        raise DomainError("decoding needs a single irreducible companion-block generator")
    ctx = spec.compiled.blocks[0][2]
    params = analyze(code, method="fast")
    places = tuple(ctx.cycle_of_code(u)[:2] for u in code.start.element_codes()[1:])
    card = params.cardinality
    residues: dict[int, list[tuple[int, int]]] = {}
    for (c, a), na in Counter((c, p % card) for c, p in places).items():
        residues.setdefault(c, []).append((a, na))
    tables = vars(code)["decoder_tables"] = _Tables(params, places, residues)
    return tables


def _check_received(R: Subspace, code: CyclicOrbitCode) -> None:
    if R.q != code.q or R.n != code.n:
        raise DomainError("received space lives in the wrong ambient space")
    if R.dim < 1:
        raise DomainError("received space must be nonzero")


def _result(
    R: Subspace, code: CyclicOrbitCode, exponent: int, dim: int, unique: bool, examined: int
) -> DecodeResult:
    """The answer for codeword U x^exponent, which meets R in dimension dim."""
    return DecodeResult(code, exponent, code.k + R.dim - 2 * dim, unique, examined)


def decode_exhaustive(R: Subspace, code: CyclicOrbitCode) -> DecodeResult:
    """Full nearest-codeword search by the count identity: every pair of
    nonzero u in U, v in R is accounted for, and candidates_examined is
    (q^k - 1)(q^k' - 1). Ambiguity is reported through unique=False with
    the smallest tied exponent."""
    _check_received(R, code)
    params, _, residues = _tables(code)
    ctx = code.block_structure.compiled.blocks[0][2]
    q, k, kp = code.q, code.k, R.dim
    examined = (q**k - 1) * (q**kp - 1)
    if examined > PAIR_LIMIT:
        raise DomainError(
            f"an exhaustive decode of a k = {k} code against a k' = {kp} received "
            f"space scans {examined} pairs, above the limit of {PAIR_LIMIT}"
        )
    card = params.cardinality
    r_at = Counter((c, p % card) for c, p, _ in map(ctx.cycle_of_code, R.element_codes()[1:]))
    # pairs on a common cycle by position difference mod card; elements at
    # equal positions mod card pair alike, so they are counted together
    counts: Counter = Counter()
    for (c, b), nb in r_at.items():
        for a, na in residues.get(c, ()):
            counts[(b - a) % card] += na * nb
    if not counts:
        # no pair: every codeword meets R trivially
        return _result(R, code, 0, 0, card == 1, examined)
    # each codeword's class holds r/card exponents mod r, each of which
    # pairs q^dim - 1 elements of R with their preimages in U
    per = ctx.x_order // card
    dim_of = {per * (q**d - 1): d for d in range(1, min(k, kp) + 1)}
    if not dim_of.keys() >= set(counts.values()):
        raise InternalInvariantError("a pair count is not (r/card)(q^dim - 1)")
    top = max(counts.values())
    tied = [e for e, c in counts.items() if c == top]
    return _result(R, code, min(tied), dim_of[top], len(tied) == 1, examined)


def _check_f(f: int, kp: int) -> None:
    if not 0 <= f < kp:
        raise DomainError(f"need 0 <= f < k' = {kp}, got f = {f}")


def _lf_codes(codes, f: int, lanes_: Lanes) -> Iterator[int]:
    """lf_set on packed independent rows, packed and in the same order."""
    add = lanes_.add
    multiples = [[lanes_.scale(r, c) for c in range(1, lanes_.q)] for r in codes]
    for s in range(1, f + 2):
        for support in itertools.combinations(multiples, s):
            for terms in itertools.product(*support):
                yield reduce(add, terms)


def lf_set(basis_rows, f: int, q: int) -> list[tuple[int, ...]]:
    """Combinations of the basis with support size <= f+1 and nonzero
    coefficients on the support, smallest support first.

    The count is sum_{i=1}^{f+1} C(k', i) (q-1)^i; a size-f-support
    reading of the same construction is this function at f-1.
    """
    rows = [tuple(int(x) % q for x in r) for r in basis_rows]
    kp = len(rows)
    _check_f(f, kp)
    n = len(rows[0])
    if Subspace.from_rows(q, n, rows).dim != kp:
        raise DomainError("basis rows are linearly dependent")
    L = lanes(q, n)
    return [L.unpack(v) for v in _lf_codes([L.pack(r) for r in rows], f, L)]


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
    params = _tables(code).params
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
    params, u_places, _ = _tables(code)
    ctx = code.block_structure.compiled.blocks[0][2]
    card = params.cardinality
    k, kp = code.k, R.dim
    _check_f(f, kp)
    # distance <= delta-1 is equivalent to this intersection dimension
    exit_dim = None
    if params.min_distance is not None:
        delta = params.min_distance // 2
        exit_dim = math.ceil((k + kp - delta + 1) / 2)
    start, mul = code.start.codes, code.block_structure.compiled.power
    dims: dict[int, int] = {}

    def dim_at(e: int) -> int:
        # dim(R cap U x^e) = k - rank of U x^e's rows reduced against R
        d = dims.get(e)
        if d is None:
            d = dims[e] = k - R.residual_rank([mul(u, e) for u in start])
        return d

    examined = 0
    best_dim = 0
    best: set[int] = set()
    for v in _lf_codes(R.codes, f, ctx.lanes):
        cv, pv, _ = ctx.cycle_of_code(v)
        for cu, pu in u_places:
            examined += 1
            if cu != cv:
                continue
            e = (pv - pu) % card
            d = dim_at(e)
            if exit_dim is not None and d >= exit_dim:
                return _result(R, code, e, d, True, examined)
            if d > best_dim:
                best_dim, best = d, {e}
            elif d == best_dim:
                best.add(e)
    if best:
        return _result(R, code, min(best), best_dim, len(best) == 1, examined)
    # no pair among the L_f vectors; U itself may still meet R
    return _result(R, code, 0, dim_at(0), card == 1, examined)
