"""Spread codes from cyclic orbits.

A k-spread partitions the nonzero vectors of F_q^n into subspaces of
dimension k (needs k | n). The primitive construction takes the orbit of
the subfield-like start span{phi_inv(alpha^(i*c))} under a primitive
companion matrix; the non-primitive construction uses a generator of
order exactly c = (q^n - 1)/(q^k - 1) together with a start whose nonzero
elements lie in pairwise distinct <x>-orbits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .analysis import CyclicOrbitCode, enumerate_orbit, make_code
from .canonical import ElementaryDivisorSpec
from .errors import DomainError
from .fields import (
    FieldCtx,
    Poly,
    PrimeField,
    check_index_limit,
    field_context,
    find_irreducible_with_order,
    is_primitive,
    least_primitive,
)
from .linalg import Subspace


@dataclass(frozen=True)
class SpreadSpec:
    """Parameters of a primitive spread construction."""

    q: int
    k: int
    n: int
    p: Poly
    c: int

    @classmethod
    def make(cls, q: int, k: int, n: int, p: Poly | None = None) -> "SpreadSpec":
        if k < 1 or n < 1:
            raise DomainError("spread needs k >= 1 and n >= 1")
        if n % k != 0:
            raise DomainError(f"spread needs k | n, got k={k}, n={n}")
        field = PrimeField(q)
        check_index_limit(q, n)
        if p is None:
            p = least_primitive(field, n)
        else:
            p = p.monic()
            if p.field != field:
                raise DomainError("spread polynomial over the wrong field")
            if p.degree != n:
                raise DomainError(f"spread polynomial must have degree {n}")
            if not is_primitive(p):
                raise DomainError(f"spread polynomial {p} is not primitive")
        c = (q**n - 1) // (q**k - 1)
        return cls(q, k, n, p, c)


def spread_start_rows(spec: SpreadSpec) -> list[tuple[int, ...]]:
    """Rows phi_inv(alpha^(i*c)), i = 0..k-1; they span a k-dim subspace."""
    ctx = field_context(spec.p)
    return [ctx.x_power(i * spec.c) for i in range(spec.k)]


def build_spread(spec: SpreadSpec) -> CyclicOrbitCode:
    """The primitive spread code; cardinality c, minimum distance 2k."""
    block = ElementaryDivisorSpec.make(spec.p.field, [(spec.p, 1)])
    return make_code(block, spread_start_rows(spec))


def verify_spread(code: CyclicOrbitCode) -> bool:
    """True iff the orbit is a spread: right cardinality and the codewords
    cover every nonzero vector exactly once."""
    q, n, k = code.q, code.n, code.k
    if (q**n - 1) % (q**k - 1) != 0:
        return False
    expected = (q**n - 1) // (q**k - 1)
    orbit = enumerate_orbit(code)
    if len(orbit) != expected:
        return False
    seen: set[tuple[int, ...]] = set()
    for W in orbit:
        for v in W.nonzero_elements():
            if v in seen:
                return False
            seen.add(v)
    return len(seen) == q**n - 1


# -- non-primitive spreads --------------------------------------------------


def distinct_orbit_start(ctx: FieldCtx, k: int) -> Subspace | None:
    """Deterministic search for a k-dim subspace whose nonzero elements lie
    in pairwise distinct <x>-orbits.

    Candidate vectors are tried in ascending integer encoding with
    backtracking, so the result is unique and reproducible. Returns None
    when no such subspace exists.

    Extending a span S, whose nonzero elements use the orbits O, by v adds
    the elements c*v + e (c in F_q^*, e in S); v fits when they lie on
    pairwise distinct orbits outside O. Going deeper only enlarges S and
    O, so a vector that does not fit at one level fits at no deeper level.
    Each level therefore checks only the vectors that fitted at the level
    above, after the one chosen there, and the survivors keep their
    ascending order: the search takes the same branches, in the same
    order, as a scan over every vector, and returns the same start. Orbit
    ids come from one table built from the cycle index per call.
    """
    if not ctx.is_irreducible:
        raise DomainError("distinct-orbit start search needs an irreducible modulus")
    q, n = ctx.q, ctx.n
    lanes_ = ctx.lanes
    add, scale = lanes_.add, lanes_.scale
    scalars = range(1, q)
    orbit_of = {v: c for c, members in enumerate(ctx.cycles()) for v in members}

    def grow(v: int, span: list, orbits: set):
        """The elements c*v + e (c in F_q^*, e in span) and their orbits,
        or None when two share an orbit or one lies on an orbit in use.
        span[0] is 0, so a v inside the span fails at c = 1, e = 0, before
        any c*v + e could be 0."""
        new_elems, new_orbits = [], set()
        for c in scalars:
            cv = scale(v, c)
            for e in span:
                w = add(e, cv)
                oid = orbit_of[w]
                if oid in orbits or oid in new_orbits:
                    return None
                new_orbits.add(oid)
                new_elems.append(w)
        return new_elems, new_orbits

    def extend(rows: list, span: list, orbits: set, candidates: list):
        if len(rows) == k:
            return Subspace.from_packed(q, n, rows)
        fits = [v for v in candidates if grow(v, span, orbits)]
        for i, v in enumerate(fits):
            new_elems, new_orbits = grow(v, span, orbits)
            found = extend(rows + [v], span + new_elems, orbits | new_orbits, fits[i + 1 :])
            if found is not None:
                return found
        return None

    # packed vectors in ascending integer encoding, zero left out
    return extend([], [0], set(), list(itertools.islice(lanes_.ascending(), 1, None)))


def build_nonprimitive_spread(q: int, k: int, n: int) -> CyclicOrbitCode:
    """Spread from a non-primitive generator of order (q^n-1)/(q^k-1).

    The generator polynomial is the least irreducible of degree n with
    that order; the start comes from distinct_orbit_start. Raises when the
    polynomial or the start does not exist.
    """
    if k < 1 or n % k != 0:
        raise DomainError(f"spread needs k | n, got k={k}, n={n}")
    field = PrimeField(q)
    check_index_limit(q, n)
    c = (q**n - 1) // (q**k - 1)
    p = find_irreducible_with_order(field, n, c)
    ctx = field_context(p)
    start = distinct_orbit_start(ctx, k)
    if start is None:
        raise DomainError(
            f"no distinct-orbit start of dimension {k} exists for order {c}"
        )
    block = ElementaryDivisorSpec.make(field, [(p, 1)])
    return make_code(block, start)
