"""Channel simulation and randomized code search.

Randomness policy: stdlib random.Random (Mersenne Twister, stable across
platforms), never the global instance. Multi-trial operations derive the
trial-t stream as Random(seed ^ t), so serial and parallel runs see
identical streams and merge deterministically by trial index.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, fields

from . import analysis
from .analysis import CyclicOrbitCode, analyze, analyze_naive, analyze_packed, codeword, make_code
from .canonical import ElementaryDivisorSpec
from .decoder import decode_exhaustive, decode_lf
from .errors import DomainError, InternalInvariantError, OrbitCapError
from .fields import Poly, lanes
from .linalg import Mat, Subspace


@dataclass(frozen=True)
class ChannelConfig:
    """erasures: dimensions dropped from the sent space; errors: random
    dimensions adjoined outside it; seed: 64-bit stream seed."""

    erasures: int
    errors: int
    seed: int


def _run_chunks(fn, args: tuple, trials: int, jobs: int) -> list:
    """fn(*args, lo, hi) over the trials [0, trials), results in chunk order.

    A serial run, or one with fewer than 4 trials per job, is one chunk.
    Otherwise `jobs` chunks go to a process pool with at most one worker
    per CPU. Chunks, not workers, fix the trial split, so the output does
    not depend on the CPU count. The pool import waits for first use: it
    pulls in multiprocessing, which a serial run never needs.
    """
    if jobs <= 1 or trials < 4 * jobs:
        return [fn(*args, 0, trials)]
    from concurrent.futures import ProcessPoolExecutor

    bounds = [(i * trials) // jobs for i in range(jobs + 1)]
    with ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as pool:
        futures = [pool.submit(fn, *args, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        return [fut.result() for fut in futures]


def _random_rows(rng: random.Random, q: int, rows: int, cols: int) -> list[int]:
    """`rows` random vectors of F_q^cols, packed. Each coordinate, row by row,
    is drawn by randrange(q)'s rule, getrandbits(q.bit_length()) until it is
    below q, so the draws take the same generator words in the same order
    as rng.randrange(q) per coordinate and leave the same state."""
    bits, getrandbits = q.bit_length(), rng.getrandbits
    shifts = lanes(q, cols).shifts
    out = []
    for _ in range(rows):
        code = 0
        for s in shifts:
            c = getrandbits(bits)
            while c >= q:
                c = getrandbits(bits)
            code |= c << s
        out.append(code)
    return out


def _random_full_rank_rows(rng: random.Random, q: int, rows: int, cols: int) -> list[int]:
    """Rejection-sample a full-rank rows x cols matrix; returns its packed
    rows. One forward elimination decides each attempt."""
    echelon = lanes(q, cols).echelon
    while True:
        raw = _random_rows(rng, q, rows, cols)
        if len(echelon(raw)) == rows:
            return raw


def _transmit(V: Subspace, erasures: int, errors: int, rng: random.Random) -> Subspace:
    q, n, k = V.q, V.n, V.dim
    if erasures < 0 or errors < 0:
        raise DomainError("erasures and errors must be >= 0")
    if erasures > k:
        raise DomainError(f"cannot erase {erasures} dimensions from a {k}-dim space")
    # V' = random keep-dim subspace of V via a random full-rank coefficient matrix
    coeff = _random_full_rank_rows(rng, q, k - erasures, k)
    r_rows = list((Mat(q, k, tuple(coeff)) * V.matrix).codes)
    # each error vector is sampled outside V + the errors so far, so the
    # received space has dimension keep+errors and meets V exactly in V'
    echelon = lanes(q, n).echelon
    blocked = echelon(V.codes)
    for _ in range(errors):
        if len(blocked) == n:
            raise DomainError("ambient space exhausted: no room for an error vector")
        while True:
            v = _random_rows(rng, q, 1, n)[0]
            grown = echelon((v,), blocked)
            if len(grown) > len(blocked):
                break
        r_rows.append(v)
        blocked = grown
    # no random remix of these rows: the canonical row space returned is
    # the same for every basis of it
    return Subspace.from_packed(q, n, r_rows)


def transmit(V: Subspace, cfg: ChannelConfig) -> Subspace:
    """Send V through the erasure+error channel; deterministic per seed.

    Stream order: erasure coefficient matrix, then each error vector."""
    return _transmit(V, cfg.erasures, cfg.errors, random.Random(cfg.seed))


@dataclass(slots=True)
class SimulationStats:
    """Aggregated decode outcomes over simulate_decoding trials."""

    trials: int = 0
    success_exhaustive: int = 0
    success_lf: int = 0
    unique_exhaustive: int = 0
    unique_lf: int = 0
    examined_exhaustive: int = 0
    examined_lf: int = 0
    agree: int = 0

    def merge(self, other: "SimulationStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_json_dict(self) -> dict:
        t = max(self.trials, 1)
        return {
            "trials": self.trials,
            "success_rate_exhaustive": self.success_exhaustive / t,
            "success_rate_lf": self.success_lf / t,
            "unique_rate_exhaustive": self.unique_exhaustive / t,
            "unique_rate_lf": self.unique_lf / t,
            "avg_examined_exhaustive": self.examined_exhaustive / t,
            "avg_examined_lf": self.examined_lf / t,
            "decoder_agreement_rate": self.agree / t,
        }


def _simulate_range(code: CyclicOrbitCode, cfg: ChannelConfig, lo: int, hi: int) -> SimulationStats:
    card = analyze(code, method="fast").cardinality
    stats = SimulationStats()
    for t in range(lo, hi):
        rng = random.Random(cfg.seed ^ t)
        exponent = rng.randrange(card)
        V = codeword(code, exponent)
        R = _transmit(V, cfg.erasures, cfg.errors, rng)
        res_ex = decode_exhaustive(R, code)
        res_lf = decode_lf(R, code)
        stats.trials += 1
        # h -> U M^h is one-to-one mod card, so a decode found V exactly
        # when it found its exponent
        stats.success_exhaustive += res_ex.group_exponent == exponent
        stats.success_lf += res_lf.group_exponent == exponent
        stats.unique_exhaustive += res_ex.unique
        stats.unique_lf += res_lf.unique
        stats.examined_exhaustive += res_ex.candidates_examined
        stats.examined_lf += res_lf.candidates_examined
        stats.agree += res_ex.group_exponent == res_lf.group_exponent
    return stats


def simulate_decoding(
    code: CyclicOrbitCode, cfg: ChannelConfig, trials: int, jobs: int = 1
) -> SimulationStats:
    """Per trial: uniform random codeword, transmit, decode both ways.

    Trial t draws from Random(cfg.seed ^ t): first the codeword exponent,
    then the transmit stream. Deterministic for any jobs value."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    stats = SimulationStats()
    for chunk in _run_chunks(_simulate_range, (code, cfg), trials, jobs):
        stats.merge(chunk)
    return stats


# -- randomized code search -------------------------------------------------


@dataclass(frozen=True, slots=True)
class CellRecord:
    """Best code found for one target minimum distance."""

    distance: int
    cardinality: int
    trial: int
    start_rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, slots=True)
class SearchReport:
    """Outcome of a seeded random search over start subspaces.

    Cells map each observed minimum distance to the best (largest)
    cardinality found, with the witnessing trial index and start rows.
    Every cell is re-verified against the naive oracle before the report
    is constructed.
    """

    q: int
    k: int
    n: int
    blocks: tuple[tuple[tuple[int, ...], int], ...]
    generator_order: int
    trials: int
    seed: int
    cells: tuple[CellRecord, ...] = field(default_factory=tuple)

    def cell(self, distance: int) -> CellRecord | None:
        for c in self.cells:
            if c.distance == distance:
                return c
        return None

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "k": self.k,
            "n": self.n,
            "blocks": [
                {"poly": " ".join(str(c) for c in coeffs), "exp": e}
                for coeffs, e in self.blocks
            ],
            "generator_order": self.generator_order,
            "trials": self.trials,
            "seed": self.seed,
            "cells": [
                {
                    "distance": c.distance,
                    "cardinality": c.cardinality,
                    "trial": c.trial,
                    "start": [" ".join(str(x) for x in r) for r in c.start_rows],
                }
                for c in self.cells
            ],
        }

    def to_csv_rows(self) -> list[list]:
        header = ["q", "n", "k", "generator_order", "distance", "cardinality", "trial"]
        rows = [header]
        for c in self.cells:
            rows.append(
                [self.q, self.n, self.k, self.generator_order, c.distance, c.cardinality, c.trial]
            )
        return rows


def _better(a: tuple[int, int], b: tuple[int, int] | None) -> bool:
    """Is (cardinality, trial) a an improvement over b? Larger cardinality
    wins; equal cardinality keeps the earliest trial."""
    if b is None:
        return True
    return a[0] > b[0] or (a[0] == b[0] and a[1] < b[1])


def _search_range(
    spec: ElementaryDivisorSpec, k: int, seed: int, lo: int, hi: int
) -> dict[int, tuple[int, int, tuple]]:
    q, n = spec.field.q, spec.n
    best: dict[int, tuple[int, int, tuple]] = {}
    for t in range(lo, hi):
        rng = random.Random(seed ^ t)
        # the drawn rows are analyzed as they are; only a start that enters
        # a cell is canonicalized
        raw = _random_full_rank_rows(rng, q, k, n)
        params = analyze_packed(spec, raw)
        if params.min_distance is None:
            continue
        d = params.min_distance
        cur = best.get(d)
        if _better((params.cardinality, t), cur and (cur[0], cur[1])):
            best[d] = (params.cardinality, t, Subspace.from_packed(q, n, raw).rows)
    return best


def random_search(
    q: int,
    k: int,
    n: int,
    generator_spec: ElementaryDivisorSpec | Poly,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> SearchReport:
    """Sample `trials` random k-dim starts (full-rank k x n matrices),
    fast-analyze each drawn basis, and keep the best cardinality per
    minimum distance, with its start in RREF. Reproducible per seed for any
    jobs value."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if isinstance(generator_spec, Poly):
        generator_spec = ElementaryDivisorSpec.make(
            generator_spec.field, [(generator_spec, 1)]
        )
    if generator_spec.n != n:
        raise DomainError(
            f"generator acts on dimension {generator_spec.n}, expected {n}"
        )
    if generator_spec.field.q != q:
        raise DomainError("generator field does not match q")
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}")
    best: dict[int, tuple[int, int, tuple]] = {}
    for chunk in _run_chunks(_search_range, (generator_spec, k, seed), trials, jobs):
        for d, (card, t, rows) in chunk.items():
            cur = best.get(d)
            if _better((card, t), cur and (cur[0], cur[1])):
                best[d] = (card, t, rows)

    # Before any oracle walk, each cell is checked on its fast count: an
    # orbit's size divides ord(M), so a count that does not is a fast-path
    # fault, and a cell above the oracle's cap is refused, not verified.
    cap, order = analysis.ORBIT_CAP, generator_spec.generator_order()
    for d, (card, _, _) in sorted(best.items()):
        if order % card:
            raise InternalInvariantError(
                f"fast analyzer reported cardinality {card} at distance {d}, "
                f"which does not divide the generator order {order}"
            )
        if card > cap:
            raise OrbitCapError(
                f"the cell at distance {d} has cardinality {card}, above the "
                f"oracle's orbit cap of {cap} subspaces, so it cannot be re-verified"
            )
    # naive re-verification of every cell before it enters the report
    cells = []
    for d in sorted(best):
        card, t, rows = best[d]
        check = analyze_naive(make_code(generator_spec, rows))
        if check.cardinality != card or check.min_distance != d:
            raise InternalInvariantError(
                f"fast analyzer reported ({card}, {d}) but the oracle found "
                f"({check.cardinality}, {check.min_distance})"
            )
        cells.append(CellRecord(d, card, t, rows))
    return SearchReport(
        q=q,
        k=k,
        n=n,
        blocks=tuple((p.coeffs, e) for p, e in generator_spec.blocks),
        generator_order=order,
        trials=trials,
        seed=seed,
        cells=tuple(cells),
    )
