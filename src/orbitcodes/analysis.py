"""Cyclic orbit codes and their analysis.

A cyclic orbit code is the orbit of a k-dim subspace U of F_q^n under the
cyclic group generated by an invertible matrix M. The naive analyzer
enumerates the orbit. The fast analyzer needs M as diagonal companion
blocks of elementary divisors p^e, where M multiplies each block by x in
F_q[x]/(p^e). Each nonzero start element v sits on one cycle of that
action per live block; combining the blocks by CRT puts v on one cycle of
M with a position P_v mod L. Then vM^h = w exactly when v and w share the
M-cycle and h = P_w - P_v mod L, so one scan of position differences gives

    count(h) = #{v in U - 0 : vM^h in U} = q^dim(U cap U M^h) - 1

for every h at once. Scalars commute with M, so when M^sigma = zeta I for
a primitive root zeta of F_q, the q - 1 multiples of v lie on v's M-cycle
L/(q - 1) apart, and with P(U) one vector per 1-dim subspace of U

    count(h) = (q - 1) #{(v, w) in P(U)^2 : one M-cycle, P_w - P_v = h mod L/(q - 1)}

which scans (q - 1)^2 fewer pairs. The fast results are exact, not
bounds; tests enforce equality against the naive oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .canonical import ElementaryDivisorSpec
from .errors import (
    DomainError,
    InternalInvariantError,
    OrbitCapError,
    ShapeMismatchError,
)
from .fields import Poly, PrimeField, check_entries, field_context, lanes
from .linalg import Mat, Subspace, dual

ORBIT_CAP = 2**20
# the most pairs one quadratic scan may take: the fast analyzer per M-cycle
# (pairs of 1-dim subspaces when the scalars lie in <M>), the exhaustive
# decoder per decode
PAIR_LIMIT = 2**24


@dataclass(frozen=True, slots=True)
class CodeParams:
    """Cardinality, minimum distance, and (optionally) the full distance
    distribution (D_0, D_2, ..., D_2k). min_distance is None for a
    cardinality-1 code, where no second codeword exists."""

    cardinality: int
    min_distance: int | None
    distribution: tuple[int, ...] | None = None


@dataclass(frozen=True)
class CyclicOrbitCode:
    """An orbit code U<M>. Build through make_code/general_code.

    block_structure describes M as diagonal companion blocks when known;
    the fast analyzer, O(n)-per-row orbit stepping and the generator (built
    on first read) come from it. A code built from a bare matrix has
    block_structure None and keeps the matrix.
    """

    start: Subspace
    block_structure: ElementaryDivisorSpec | None
    matrix: Mat | None = None

    @property
    def generator(self) -> Mat:
        spec = self.block_structure
        return self.matrix if spec is None else spec.compiled.generator

    @property
    def q(self) -> int:
        return self.start.q

    @property
    def n(self) -> int:
        return self.start.n

    @property
    def k(self) -> int:
        return self.start.dim

    @cached_property
    def regime(self) -> str:
        """The label of the block shape, "general" for a bare matrix; read
        lazily, since telling "primitive" from "irreducible" factors q^n - 1."""
        return "general" if self.block_structure is None else _regime(self.block_structure)


def _regime(spec: ElementaryDivisorSpec) -> str:
    blocks = spec.blocks
    if len(blocks) == 1:
        p, e = blocks[0]
        if e == 1:
            return "primitive" if field_context(p).is_primitive else "irreducible"
        if e == 2:
            return "non_semisimple"
        return "general"
    if all(e == 1 for _, e in blocks):
        return "completely_reducible"
    return "general"


def make_code(spec: ElementaryDivisorSpec, start_rows) -> CyclicOrbitCode:
    """Orbit code from elementary-divisor data and start subspace rows."""
    spec.compiled  # the layout only; it refuses a block with p(0) = 0
    if isinstance(start_rows, Subspace):
        start = start_rows
        if start.n != spec.n or start.q != spec.field.q:
            raise DomainError("start subspace does not match the generator")
    else:
        rows = [tuple(r) for r in start_rows]
        start = Subspace.from_rows(spec.field.q, spec.n, rows)
        if start.dim != len(rows):
            raise DomainError("start rows must be linearly independent")
    if start.dim < 1:
        raise DomainError("start subspace must have dimension >= 1")
    return CyclicOrbitCode(start, spec)


def general_code(generator: Mat, start: Subspace) -> CyclicOrbitCode:
    """Orbit code under an arbitrary invertible generator."""
    if generator.nrows != generator.ncols:
        raise DomainError("generator must be square")
    if generator.nrows != start.n or generator.q != start.q:
        raise DomainError("start subspace does not match the generator")
    if start.dim < 1:
        raise DomainError("start subspace must have dimension >= 1")
    if generator.rank() != generator.nrows:
        raise DomainError("generator must be invertible")
    return CyclicOrbitCode(start, None, generator)


# -- orbit stepping ---------------------------------------------------------


def codeword(code: CyclicOrbitCode, exponent: int) -> Subspace:
    """The orbit element U M^exponent, canonicalized."""
    if code.block_structure is None:
        return code.start.transform(code.generator**exponent)
    power = code.block_structure.compiled.power
    return Subspace.from_packed(code.q, code.n, [power(v, exponent) for v in code.start.codes])


def _walk(code: CyclicOrbitCode):
    """Yields (packed rows of UM^h, r) for h = 1, 2, ... until UM^h = U.

    The rows are reduced against RREF(U); what is left has rank
    r = k - dim(U cap UM^h), and r = 0 means the orbit has closed. An
    orbit of more than ORBIT_CAP codewords raises OrbitCapError.
    """
    spec = code.block_structure
    step_row = code.generator.apply if spec is None else spec.compiled.step
    start = code.start
    # start.residual_rank(rows), with the packing and pivots bound once
    echelon, piv, k = lanes(code.q, code.n).echelon, start.pivot_rows, start.dim
    rows = start.codes
    h = 1
    while True:
        rows = [step_row(v) for v in rows]
        r = len(echelon(rows, piv)) - k
        if not r:
            return
        if h >= ORBIT_CAP:
            raise OrbitCapError(f"orbit exceeds the cap of {ORBIT_CAP} subspaces")
        yield rows, r
        h += 1


def enumerate_orbit(code: CyclicOrbitCode) -> list[Subspace]:
    """[U, UM, UM^2, ...] up to the first repeat of U; all canonical."""
    return [code.start] + [Subspace.from_packed(code.q, code.n, rows) for rows, _ in _walk(code)]


def analyze_naive(code: CyclicOrbitCode) -> CodeParams:
    """Exhaustive orbit walk. Distances are measured from the start
    subspace only; the transversal argument makes that the full picture.
    Each step multiplies k packed rows by the generator and reads the
    distance 2r of UM^h from the start off their residual (see _walk); no
    Subspace is built and no cycle index is read."""
    k = code.k
    dist = [1] + [0] * k
    for _, r in _walk(code):
        dist[r] += 1
    best = next((2 * r for r in range(1, k + 1) if dist[r]), None)
    return CodeParams(sum(dist), best, tuple(dist))


# -- the fast analyzer -------------------------------------------------------


def analyze_packed(
    spec: ElementaryDivisorSpec, codes, with_distribution: bool = False
) -> CodeParams:
    """Exact parameters of U<M> for the generator M of `spec`, with U the
    span of `codes`: linearly independent packed rows of F_q^n (see
    fields.Lanes), in any basis of U. Empty or dependent rows, and ints
    that are not packed vectors of F_q^n, raise DomainError.

    Within an M-cycle of length L, vM^h = w for w on the same cycle exactly
    when h = P_w - P_v mod L, so count(h) sums, over the M-cycles, the
    number of position differences equal to h mod L. The positions U has
    on an M-cycle repeat under some least shift, its period; U M^h = U
    exactly when h is a multiple of every period, so the cardinality is
    their lcm.
    """
    k = len(codes)
    compiled = spec.compiled
    packing = compiled.lanes
    packing.check(codes, "codes")
    if not 0 < k < spec.n:
        # no rows, or the whole space, fixed by every generator; checked
        # before the placement, which indexes the blocks
        if k != spec.n or len(packing.echelon(codes)) < k:
            raise DomainError(f"codes must be 1 to n = {spec.n} linearly independent rows")
        return CodeParams(1, None, (1,) + (0,) * k if with_distribution else None)
    sigma = compiled.sigma
    q = packing.q
    if sigma is None:
        # U's nonzero elements, packed; the zero combination comes first
        f, vectors = 1, packing.span(codes)[1:]
    else:
        # c v = v M^(j sigma) for every scalar c = zeta^j, so the q - 1
        # multiples of v lie on v's M-cycle of length L, L/(q - 1) apart:
        # one vector per 1-dim subspace, its position taken mod L/(q - 1),
        # stands for all of them, and count(h) is q - 1 times its count
        f, vectors = q - 1, packing.points(codes)
    try:
        groups = compiled.group(vectors, f)
    except DomainError:
        # a nonzero combination of independent rows is never zero
        if 0 in vectors:
            raise DomainError("codes must be linearly independent") from None
        raise
    cardinality = 1
    cycles = []
    for L, ps in groups.values():
        n = len(ps)
        if n * (n - 1) // 2 > PAIR_LIMIT:
            raise DomainError(
                f"the pair scan of a k = {k} start would count {n * (n - 1) // 2} "
                f"pairs of positions on one M-cycle (one position per 1-dim "
                f"subspace when the scalars lie in <M>), above the limit of {PAIR_LIMIT}"
            )
        # count(d) on this M-cycle is the number of ordered pairs of its
        # positions that differ by d mod L (distinct elements have distinct
        # positions). It is symmetric, count(d) = count(L - d), so each pair
        # a < b is counted once, at the smaller of b - a and L - (b - a);
        # a pair at exactly L/2 stands for both orders.
        ps.sort()
        half = L // 2
        cnt = Counter([b - a if b - a <= half else L - b + a for a, b in combinations(ps, 2)])
        if L % 2 == 0 and half in cnt:
            cnt[half] *= 2
        # a shift maps the positions onto themselves iff every one of the n
        # pairs it moves lands on a position; the least one divides L
        period = L
        if cnt and max(cnt.values()) == n:
            period = next(d for d in (p - ps[0] for p in ps[1:]) if d <= half and cnt[d] == n)
        cardinality = math.lcm(cardinality, period)
        cycles.append((L, n, cnt))
    if cardinality == 1:
        return CodeParams(1, None, (1,) + (0,) * k if with_distribution else None)
    if not with_distribution and len(cycles) == 1:
        # count has period cardinality, so off the multiples of the
        # cardinality (U itself) this cycle's counts are the values count
        # takes for 0 < h < cardinality. Every primitive-block search trial
        # lands here, and the general fold below costs it about a fifth more.
        L, _, counts = cycles[0]
        for d in range(cardinality, L // 2 + 1, cardinality):
            del counts[d]
    else:
        # count(h) for the 0 < h < cardinality where it is nonzero; count
        # has period cardinality, so these h cover every other codeword
        counts = Counter()
        for L, n, cnt in cycles:
            full = {0: n}
            for d, c in cnt.items():
                full[d] = full[L - d] = c
            if L % cardinality:
                counts.update({h: c for d, c in full.items() for h in range(d, cardinality, L)})
            else:
                # every h < cardinality <= L is its own residue mod L
                counts.update({d: c for d, c in full.items() if d < cardinality})
        del counts[0]
    # f count(h) + 1 = q^dim(U cap UM^h) with dim < k for 0 < h < cardinality,
    # and UM^h lies at distance 2(k - dim)
    dim_of = {(q**d - 1) // f: d for d in range(k)}
    try:
        if not with_distribution:
            # the nearest codeword shares the most with U
            return CodeParams(cardinality, 2 * (k - dim_of[max(counts.values(), default=0)]))
        dist = [0] * (k + 1)
        dist[0] = 1
        dist[k] = cardinality - 1 - len(counts)
        for c, times in Counter(counts.values()).items():
            dist[k - dim_of[c]] += times
    except KeyError:
        raise InternalInvariantError(
            "a pair count is not (q^dim - 1)/f with dim < k, f = q - 1 or 1"
        ) from None
    min_distance = next((2 * i for i in range(1, k + 1) if dist[i]), None)
    return CodeParams(cardinality, min_distance, tuple(dist))


def analyze(
    code: CyclicOrbitCode, method: str = "auto", with_distribution: bool = False
) -> CodeParams:
    """Analyze by the requested method.

    "fast" needs a block-structured generator and fails on a bare matrix;
    "auto" falls back to the naive oracle there; "naive" always enumerates.
    """
    if method not in ("auto", "fast", "naive"):
        raise DomainError(f"unknown analysis method {method!r}")
    if method != "naive" and code.block_structure is not None:
        return analyze_packed(code.block_structure, code.start.codes, with_distribution)
    if method == "fast":
        raise DomainError("the fast analyzer needs a block-structured generator, not a bare matrix")
    params = analyze_naive(code)
    # the oracle computes the distribution anyway; drop it unless asked
    if not with_distribution:
        return CodeParams(params.cardinality, params.min_distance)
    return params


# -- block bounds -----------------------------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    """Block-structure bounds for an orbit code.

    shape: "diag" (each start row lives in one block), "concat" (every
    block slice has full rank k), or "single". cardinality is exact for
    diag/single (lcm of component cardinalities), None for concat.
    distance_exact is set when the bound is provably tight (pairwise
    coprime component cardinalities, or a single block). window is the
    divisibility interval (lo, hi) with lo | stabilizer exponent | hi.
    """

    shape: str
    component_params: tuple[CodeParams, ...]
    cardinality: int | None
    distance_lower: int | None
    distance_exact: int | None
    sum_bound: int | None
    window: tuple[int, int]


def block_bounds(code: CyclicOrbitCode) -> BoundsReport:
    """Bounds from per-block component codes.

    Component i is the orbit code, under block i alone, of the nonzero
    slices the start rows have in block i; a block with none is the
    invariant zero component, of cardinality 1 and no distance. The start
    must be block-diagonal (each row lives in one block) or a full-rank
    concatenation (every slice has rank k), unless there is one block. The
    cardinality is a multiple of the lcm of the component cardinalities,
    and equals it except for a concatenation, and divides the lcm of the
    slice periods; the distance is at least the least component distance.
    """
    spec = code.block_structure
    if spec is None:
        raise ShapeMismatchError("block bounds need a block-structured generator")
    blocks = spec.compiled.blocks
    slices = [[(v >> s) & mask for v in code.start.codes] for s, mask, _ in blocks]
    if len(blocks) == 1:
        shape = "single"
    elif all(sum(map(bool, parts)) == 1 for parts in zip(*slices)):
        shape = "diag"
    elif all(len(ctx.lanes.echelon(sl)) == code.k for sl, (_, _, ctx) in zip(slices, blocks)):
        shape = "concat"
    else:
        raise ShapeMismatchError("start is neither block-diagonal nor a full-rank concatenation")
    live = [[v for v in sl if v] for sl in slices]
    # each component under its block alone, by its nonzero slices: a basis
    # of it in every shape above
    solo = [ElementaryDivisorSpec(spec.field, (block,)) for block in spec.blocks]
    comps = tuple(analyze_packed(c, vs) if vs else CodeParams(1, None) for c, vs in zip(solo, live))
    cards = [c.cardinality for c in comps]
    lo = math.lcm(*cards)
    lower = min((c.min_distance for c in comps if c.min_distance is not None), default=None)
    coprime = all(math.gcd(a, b) == 1 for a, b in combinations(cards, 2))
    sum_bound = None
    if shape == "diag" and lo in cards:
        # the components short of the lcm, each at its own distance
        sum_bound = sum(c.min_distance or 0 for c in comps if c.cardinality != lo)
    hi = math.lcm(*(ctx.cycle_of_code(v)[2] for vs, (_, _, ctx) in zip(live, blocks) for v in vs))
    return BoundsReport(
        shape=shape,
        component_params=comps,
        cardinality=None if shape == "concat" else lo,
        distance_lower=lower,
        distance_exact=lower if shape != "concat" and coprime else None,
        sum_bound=sum_bound,
        window=(lo, hi),
    )


# -- distribution and duality ----------------------------------------------


def dual_code(code: CyclicOrbitCode) -> CyclicOrbitCode:
    """The dual orbit code (U^perp)<M^t>."""
    return general_code(code.generator.transpose(), dual(code.start))


def macwilliams_check(code: CyclicOrbitCode) -> bool:
    """True iff the code and its dual share the nonzero distance enumerator."""
    D = analyze_naive(code).distribution
    Dd = analyze_naive(dual_code(code)).distribution
    m = max(len(D), len(Dd))
    pad = lambda t: t + (0,) * (m - len(t))
    return pad(D) == pad(Dd)


# -- code spec (de)serialization -------------------------------------------


def code_to_json_dict(code: CyclicOrbitCode, shape: str = "free") -> dict:
    if code.block_structure is None:
        raise DomainError("only block-structured codes serialize to spec files")
    return {
        "q": code.q,
        "blocks": [
            {"poly": p.to_text(), "exp": e} for p, e in code.block_structure.blocks
        ],
        "start": [" ".join(str(x) for x in row) for row in code.start.rows],
        "shape": shape,
    }


def _is_json_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def code_from_json_dict(data: dict) -> tuple[CyclicOrbitCode, str]:
    """Parse {"q", "blocks", "start", "shape"}; returns (code, shape)."""
    if not isinstance(data, dict):
        raise DomainError("code spec must be a JSON object")
    q = data.get("q")
    if not _is_json_int(q):
        raise DomainError(f'code spec needs an integer "q", got {q!r}')
    try:
        field = PrimeField(q)
    except DomainError as err:
        raise DomainError(f'"q": {err}') from None
    raw_blocks = data.get("blocks")
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise DomainError('code spec needs a non-empty "blocks" list')
    blocks = []
    for i, b in enumerate(raw_blocks):
        if not isinstance(b, dict) or "poly" not in b:
            raise DomainError(f'blocks[{i}] needs a "poly" entry')
        p = Poly.from_text(field, str(b["poly"]))
        e = b.get("exp", 1)
        if not _is_json_int(e):
            raise DomainError(f"blocks[{i}].exp must be an integer, got {e!r}")
        blocks.append((p, e))
    spec = ElementaryDivisorSpec.make(field, blocks)
    raw_start = data.get("start")
    if not isinstance(raw_start, list) or not raw_start:
        raise DomainError('code spec needs a non-empty "start" list of rows')
    rows = []
    for row in raw_start:
        try:
            ints = [int(tok) for tok in str(row).split()]
        except ValueError:
            raise DomainError(f"start row must be space-separated integers: {row!r}") from None
        check_entries(ints, q, f"start row {row!r}")
        rows.append(ints)
    shape = data.get("shape", "free")
    if shape not in ("diag", "concat", "free"):
        raise DomainError(f'shape must be "diag", "concat" or "free", got {shape!r}')
    try:
        start = Subspace.from_rows(field.q, spec.n, rows)
    except DomainError as err:
        raise DomainError(f"start rows invalid: {err}") from None
    if start.dim != len(rows):
        raise DomainError("start rows must be linearly independent")
    return make_code(spec, start), shape
