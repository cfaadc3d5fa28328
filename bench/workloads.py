"""The benchmark's workloads: search, simulate and analyze.

A workload is built once per worker (its set-up), then runs rounds of
ops. A round is one op of each kind in KINDS, in order, so every round
has the same mix. Op i draws its input from op_rng(workload, seed, i), so
no op reuses another op's input and a memo cache cannot pass for a
speed-up. Only ``run`` is timed; input generation and every check happen
outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import cached_property
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
DEFAULT_SEED = 1


def op_rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds are hashed with SHA-512, so streams are stable across runs
    return random.Random(f"{workload}:{seed}:{index}")


def warmup_rng(workload: str, seed: int, kind: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:warmup:{kind}")


def report_digest(report) -> str:
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class Search:
    """Seeded random searches over start subspaces: the table-building
    path. Three ops in four use q=2, n=8, k=4 with the least primitive
    polynomial; the fourth uses q=3, n=6, k=3, which shows whether a
    q=2-only kernel costs odd q."""

    name = "search"
    KINDS = ("q2n8k4", "q2n8k4", "q2n8k4", "q3n6k3")
    TRIALS = 200
    DIGEST_FILE = EXPECTED_DIR / "search-digests.json"

    def __init__(self, oc, seed: int):
        self.oc = oc
        self.seed = seed
        F2, F3 = oc.PrimeField(2), oc.PrimeField(3)
        self.configs = {
            "q2n8k4": (2, 4, 8, oc.least_primitive(F2, 8)),
            "q3n6k3": (3, 3, 6, oc.least_primitive(F3, 6)),
        }

    def make_input(self, kind: str, rng: random.Random) -> int:
        return rng.getrandbits(64)

    def run(self, kind: str, search_seed: int):
        q, k, n, p = self.configs[kind]
        # random_search re-verifies every cell against the naive oracle and
        # raises InternalInvariantError when they disagree
        return self.oc.random_search(q, k, n, p, self.TRIALS, search_seed)

    def check(self, index: int, kind: str, search_seed: int, report) -> bool:
        q, k, n, _ = self.configs[kind]
        distances = [c.distance for c in report.cells]
        if (report.q, report.k, report.n) != (q, k, n) or report.trials != self.TRIALS:
            return False
        if report.seed != search_seed or distances != sorted(set(distances)):
            return False
        for c in report.cells:
            if c.distance % 2 or not 2 <= c.distance <= 2 * k:
                return False
            if report.generator_order % c.cardinality or not 0 <= c.trial < self.TRIALS:
                return False
            if len(c.start_rows) != k:
                return False
        return index >= len(self.digests) or report_digest(report) == self.digests[index]

    @cached_property
    def digests(self) -> list[str]:
        """Report digests of the first ops at DEFAULT_SEED (none at other seeds)."""
        if self.seed != DEFAULT_SEED:
            return []
        expected = json.loads(self.DIGEST_FILE.read_text())
        if expected["trials"] != self.TRIALS:
            raise ValueError(f"{self.DIGEST_FILE} was made with {expected['trials']} trials")
        return expected["digests"]


class Simulate:
    """Channel simulation with both decoders side by side, on three codes:
    the q=2 (12,4) primitive spread, the q=2 non-primitive (12,4) spread
    (decoded through x_log and FieldCtx.mul instead of dlog lookups) and
    the q=3 (6,3) spread. Every channel stays inside the unique-decoding
    radius, so both decoders must always succeed and agree."""

    name = "simulate"
    KINDS = ("prim12", "nonprim12", "q3n6")
    TRIALS = 10
    # (erasures, errors); each sum is below the codes' min distance / 2
    CHANNELS = {"prim12": (1, 2), "nonprim12": (1, 1), "q3n6": (1, 1)}

    def __init__(self, oc, seed: int):
        self.oc = oc
        self.codes = {
            "prim12": oc.build_spread(oc.SpreadSpec.make(2, 4, 12)),
            "nonprim12": oc.build_nonprimitive_spread(2, 4, 12),
            "q3n6": oc.build_spread(oc.SpreadSpec.make(3, 3, 6)),
        }

    def make_input(self, kind: str, rng: random.Random) -> int:
        return rng.getrandbits(64)

    def run(self, kind: str, channel_seed: int):
        erasures, errors = self.CHANNELS[kind]
        cfg = self.oc.ChannelConfig(erasures, errors, channel_seed)
        return self.oc.simulate_decoding(self.codes[kind], cfg, self.TRIALS)

    def check(self, index: int, kind: str, channel_seed: int, stats) -> bool:
        d = stats.to_json_dict()
        return d["trials"] == self.TRIALS and (
            d["success_rate_exhaustive"] == d["success_rate_lf"]
            == d["decoder_agreement_rate"] == 1.0
        )


class Analyze:
    """analyze(code, with_distribution=True) with method "auto" on a fresh
    seeded start per op. Four generators fall back to the naive orbit
    enumeration at this commit, three are heavy fast pair scans, and the
    (16,4) spread brings a 65535-entry dlog table into set-up."""

    name = "analyze"
    KINDS = (
        "prim3+4+5",    # three primitive blocks, n=12: naive, orbit 3255
        "p3^2+p5",      # p^2 + p', n=11: naive; twice per round, so that the
        "p3^2+p5",      # median latency lies inside one kind, not between two
        "np4+p6",       # non-primitive + primitive, n=10: naive
        "p3^3",         # p^3, n=9: naive
        "q3:p3+p4",     # q=3, two primitive blocks, n=7, k=6: fast pair scan
        "(x4+x+1)^2",   # p^2 block, n=8, k=6: fast pair scan
        "prim12",       # primitive, n=12, k=6: fast pair scan
        "spread16",     # a random codeword of the (16,4) spread as start
    )
    ORACLE_ROUNDS = 1

    def __init__(self, oc, seed: int):
        self.oc = oc
        F2, F3 = oc.PrimeField(2), oc.PrimeField(3)
        lp = oc.least_primitive

        def spec(field, blocks):
            return oc.ElementaryDivisorSpec.make(field, blocks)

        x4_x3_x2_x_1 = oc.Poly.make(F2, (1, 1, 1, 1, 1))  # irreducible, order 5
        x4_x_1 = oc.Poly.make(F2, (1, 1, 0, 0, 1))
        self.specs = {
            "prim3+4+5": (spec(F2, [(lp(F2, 3), 1), (lp(F2, 4), 1), (lp(F2, 5), 1)]), 3),
            "p3^2+p5": (spec(F2, [(lp(F2, 3), 2), (lp(F2, 5), 1)]), 3),
            "np4+p6": (spec(F2, [(x4_x3_x2_x_1, 1), (lp(F2, 6), 1)]), 3),
            "p3^3": (spec(F2, [(lp(F2, 3), 3)]), 3),
            "q3:p3+p4": (spec(F3, [(lp(F3, 3), 1), (lp(F3, 4), 1)]), 6),
            "(x4+x+1)^2": (spec(F2, [(x4_x_1, 2)]), 6),
            "prim12": (spec(F2, [(lp(F2, 12), 1)]), 6),
        }
        spread = oc.build_spread(oc.SpreadSpec.make(2, 4, 16))
        self.specs["spread16"] = (spread.block_structure, 4)
        self.spread16_ctx = oc.field_context(spread.block_structure.blocks[0][0])
        self.spread16_step = (2**16 - 1) // (2**4 - 1)

    def make_input(self, kind: str, rng: random.Random) -> list[list[int]]:
        spec, k = self.specs[kind]
        q, n = spec.field.q, spec.n
        if kind == "spread16":
            # x^h * F_16 for a random h: another start of the same spread
            h = rng.randrange(2**16 - 1)
            return [list(self.spread16_ctx.x_power(h + i * self.spread16_step)) for i in range(k)]
        while True:
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
            if self.oc.Subspace.from_rows(q, n, rows).dim == k:
                return rows

    def run(self, kind: str, rows):
        code = self.oc.make_code(self.specs[kind][0], rows)
        return self.oc.analyze(code, with_distribution=True)

    def check(self, index: int, kind: str, rows, params) -> bool:
        spec, k = self.specs[kind]
        dist = params.distribution
        if dist is None or len(dist) != k + 1 or dist[0] != 1:
            return False
        if sum(dist) != params.cardinality or spec.generator_order() % params.cardinality:
            return False
        nonzero = [i for i in range(1, k + 1) if dist[i]]
        if params.min_distance != (2 * nonzero[0] if nonzero else None):
            return False
        # the naive oracle costs as much whatever the analyzer does, so it
        # checks a fixed number of ops, not every op of a faster program
        if index >= self.ORACLE_ROUNDS * len(self.KINDS):
            return True
        code = self.oc.make_code(spec, rows)
        return self.oc.analyze_naive(code) == params


WORKLOADS = {w.name: w for w in (Search, Simulate, Analyze)}
