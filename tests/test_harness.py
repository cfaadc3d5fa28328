"""Channel model, decoding simulation, and seeded random search."""

import concurrent.futures
import functools
import os
import pickle
import random

import pytest

from orbitcodes import (
    ChannelConfig,
    DomainError,
    ElementaryDivisorSpec,
    InternalInvariantError,
    OrbitCapError,
    Poly,
    PrimeField,
    SpreadSpec,
    Subspace,
    analyze,
    build_nonprimitive_spread,
    build_spread,
    codeword,
    decode_exhaustive,
    decode_lf,
    least_primitive,
    make_code,
    random_search,
    simulate_decoding,
    subspace_distance,
    transmit,
)
from orbitcodes import decoder, harness
from orbitcodes.fields import lanes
from orbitcodes.harness import SimulationStats, _better, _random_full_rank_rows, _transmit

from conftest import P2, X4_X_1, X6_X_1, poly_of, rand_full_rank, single_block


SEED = 424242


def spread_code():
    return build_spread(SpreadSpec.make(2, 3, 6))


# -- channel ----------------------------------------------------------------


@pytest.mark.parametrize("erasures,errors", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (3, 1)])
def test_transmit_dimension_and_distance(erasures, errors):
    rng = random.Random(SEED + erasures * 10 + errors)
    code = spread_code()
    for _ in range(10):
        V = codeword(code, rng.randrange(9))
        cfg = ChannelConfig(erasures=erasures, errors=errors, seed=rng.randrange(1 << 30))
        R = transmit(V, cfg)
        assert R.dim == V.dim - erasures + errors
        assert subspace_distance(V, R) == erasures + errors


def test_transmit_deterministic():
    code = spread_code()
    V = codeword(code, 2)
    cfg = ChannelConfig(erasures=1, errors=2, seed=99)
    assert transmit(V, cfg) == transmit(V, cfg)
    assert transmit(V, ChannelConfig(1, 2, 100)) != transmit(V, cfg)


def test_transmit_validation():
    V = codeword(spread_code(), 0)
    with pytest.raises(DomainError):
        transmit(V, ChannelConfig(erasures=4, errors=0, seed=1))
    with pytest.raises(DomainError):
        transmit(V, ChannelConfig(erasures=-1, errors=0, seed=1))
    with pytest.raises(DomainError):
        transmit(V, ChannelConfig(erasures=0, errors=-2, seed=1))


def test_transmit_ambient_exhaustion():
    # k = n leaves no room for an error vector outside the span
    from orbitcodes import Mat

    code = make_code(single_block(X4_X_1), Mat.identity(2, 4).rows)
    with pytest.raises(DomainError):
        transmit(codeword(code, 0), ChannelConfig(erasures=0, errors=1, seed=5))


def test_transmit_full_erasure_then_error():
    code = spread_code()
    V = codeword(code, 1)
    R = transmit(V, ChannelConfig(erasures=3, errors=1, seed=7))
    assert R.dim == 1
    assert subspace_distance(V, R) == 4


# transmit(V, ChannelConfig(erasures, errors, seed)).codes for one spread
# codeword per q and seeds 7 and 12345, each with the next getrandbits(32)
# of the stream after it, so the number of draws (rejected error vectors
# included) is fixed too. (0, 3) over F_2 and F_3 and (0, 2) over F_5 fill
# the space up to n.
TRANSMIT_CODEWORDS = {2: ((3, 6), 2), 3: ((3, 6), 1), 5: ((2, 4), 3)}
TRANSMIT_GOLDEN = {
    (2, 0, 0): (((35, 4, 56), 3551302831), ((35, 4, 56), 645415300)),
    (2, 1, 1): (((17, 50, 56), 3551302831), ((51, 20, 40), 636282949)),
    (2, 2, 2): (((17, 2, 8), 2478638287), ((45, 38, 16), 3170323834)),
    (2, 3, 1): (((5,), 1570621944), ((45,), 2430986565)),
    (2, 0, 3): (((1, 2, 4, 8, 16, 32), 3002158228), ((1, 2, 4, 8, 16, 32), 2064918280)),
    (2, 1, 3): (((33, 2, 36, 8, 48), 3002158228), ((1, 2, 36, 40, 48), 28661629)),
    (3, 0, 0): (((1179905, 16, 1183744), 2922295636), ((1179905, 16, 1183744), 694443915)),
    (3, 1, 1): (((2097153, 2228480, 1183744), 922121676), ((2097409, 16, 1114112), 3754550193)),
    (3, 2, 1): (((2101249, 65792), 2503055453), ((1188353, 8464), 694443915)),
    (3, 0, 3): (
        ((1, 16, 256, 4096, 65536, 1048576), 3758686919),
        ((1, 16, 256, 4096, 65536, 1048576), 2512780184),
    ),
    (3, 3, 3): (((1180161, 2162704, 69632), 2390857534), ((65537, 8208, 8448), 2280811246)),
    (5, 0, 1): (((4097, 32, 32768), 2503055453), ((4097, 32, 32768), 694443915)),
    (5, 1, 1): (((98305, 1024), 404285457), ((4097, 36896), 2430986565)),
    (5, 2, 2): (((132097, 66592), 161042648), ((98369, 1024), 1121373020)),
    (5, 0, 2): (((1, 32, 1024, 32768), 161042648), ((1, 32, 1024, 32768), 1121373020)),
    (5, 1, 2): (((98305, 32, 1024), 3907149204), ((98305, 131104, 99328), 533722196)),
}


@pytest.mark.parametrize("q,erasures,errors", list(TRANSMIT_GOLDEN))
def test_transmit_golden(q, erasures, errors):
    (k, n), index = TRANSMIT_CODEWORDS[q]
    V = codeword(build_spread(SpreadSpec.make(q, k, n)), index)
    for seed, (codes, after) in zip((7, 12345), TRANSMIT_GOLDEN[q, erasures, errors]):
        assert transmit(V, ChannelConfig(erasures, errors, seed)).codes == codes
        rng = random.Random(seed)
        _transmit(V, erasures, errors, rng)
        assert rng.getrandbits(32) == after


# -- simulation -------------------------------------------------------------


def test_simulate_clean_channel():
    stats = simulate_decoding(spread_code(), ChannelConfig(0, 0, seed=1), trials=12)
    d = stats.to_json_dict()
    assert stats.trials == 12
    assert stats.success_exhaustive == stats.success_lf == 12
    assert stats.unique_exhaustive == stats.unique_lf == 12
    assert stats.agree == 12
    assert d["success_rate_exhaustive"] == 1.0
    assert d["success_rate_lf"] == 1.0


def test_simulate_within_radius_spread():
    # erasure+error distance 2 = delta - 1: both decoders always recover
    stats = simulate_decoding(spread_code(), ChannelConfig(1, 1, seed=3), trials=30)
    assert stats.success_exhaustive == 30
    assert stats.success_lf == 30
    assert stats.unique_lf == 30
    assert stats.agree == 30
    assert stats.examined_lf <= stats.examined_exhaustive


def test_simulate_deterministic_and_parallel_merge():
    code = spread_code()
    cfg = ChannelConfig(1, 1, seed=17)
    a = simulate_decoding(code, cfg, trials=16)
    b = simulate_decoding(code, cfg, trials=16)
    c = simulate_decoding(code, cfg, trials=16, jobs=2)
    assert a == b == c


def test_simulate_validation():
    with pytest.raises(DomainError):
        simulate_decoding(spread_code(), ChannelConfig(0, 0, seed=1), trials=0)


def test_simulate_beyond_radius_sometimes_fails():
    # distance-4 corruption on a distance-6 code lands ambiguously: the
    # restricted L_f scan may even settle on a different exponent than the
    # full scan, so agreement is no longer guaranteed
    stats = simulate_decoding(spread_code(), ChannelConfig(2, 2, seed=23), trials=40)
    assert stats.trials == 40
    assert stats.success_exhaustive < 40
    assert stats.agree < 40
    assert stats.examined_lf < stats.examined_exhaustive


# simulate_decoding(code, ChannelConfig(erasures, errors, seed), 10 trials)
# at seeds 1, 2, 3 and 0x5EED1234, as (success_rate_exhaustive,
# success_rate_lf, unique_rate_exhaustive, unique_rate_lf,
# avg_examined_exhaustive, avg_examined_lf, decoder_agreement_rate). Seeds 2
# and 3 read alike: trial t draws from Random(seed ^ t), and for t < 10 the
# two seeds give the same ten streams. (2, 3) on prim12 lies beyond the
# unique-decoding radius, so it covers ties.
SIMULATE_GOLDEN = {
    ("prim12", (1, 2)): [
        (1.0, 1.0, 1.0, 1.0, 465.0, 56.5, 1.0),
        (1.0, 1.0, 1.0, 1.0, 465.0, 55.0, 1.0),
        (1.0, 1.0, 1.0, 1.0, 465.0, 55.0, 1.0),
        (1.0, 1.0, 1.0, 1.0, 465.0, 56.5, 1.0),
    ],
    ("nonprim12", (1, 1)): [
        (1.0, 1.0, 1.0, 1.0, 225.0, 14.5, 1.0),
        (1.0, 1.0, 1.0, 1.0, 225.0, 13.7, 1.0),
        (1.0, 1.0, 1.0, 1.0, 225.0, 13.7, 1.0),
        (1.0, 1.0, 1.0, 1.0, 225.0, 16.5, 1.0),
    ],
    ("q3n6", (1, 1)): [
        (1.0, 1.0, 1.0, 1.0, 676.0, 118.0, 1.0),
        (1.0, 1.0, 1.0, 1.0, 676.0, 123.2, 1.0),
        (1.0, 1.0, 1.0, 1.0, 676.0, 123.2, 1.0),
        (1.0, 1.0, 1.0, 1.0, 676.0, 97.2, 1.0),
    ],
    ("prim12", (2, 3)): [
        (0.7, 0.7, 0.6, 0.6, 465.0, 375.0, 1.0),
        (0.6, 0.6, 0.5, 0.5, 465.0, 375.0, 1.0),
        (0.6, 0.6, 0.5, 0.5, 465.0, 375.0, 1.0),
        (0.5, 0.5, 0.5, 0.5, 465.0, 375.0, 1.0),
    ],
}
GOLDEN_SEEDS = (1, 2, 3, 0x5EED1234)


@functools.lru_cache(maxsize=None)
def golden_code(name):
    if name == "prim12":
        return build_spread(SpreadSpec.make(2, 4, 12))
    if name == "nonprim12":
        return build_nonprimitive_spread(2, 4, 12)
    return build_spread(SpreadSpec.make(3, 3, 6))


@pytest.mark.parametrize("name,channel", list(SIMULATE_GOLDEN), ids=lambda x: str(x))
@pytest.mark.parametrize("jobs", [1, 2])
def test_simulate_golden(name, channel, jobs):
    code = golden_code(name)
    for seed, rates in zip(GOLDEN_SEEDS, SIMULATE_GOLDEN[name, channel]):
        stats = simulate_decoding(code, ChannelConfig(*channel, seed=seed), trials=10, jobs=jobs)
        ex, lf, uex, ulf, avg_ex, avg_lf, agree = rates
        assert stats.to_json_dict() == {
            "trials": 10,
            "success_rate_exhaustive": ex,
            "success_rate_lf": lf,
            "unique_rate_exhaustive": uex,
            "unique_rate_lf": ulf,
            "avg_examined_exhaustive": avg_ex,
            "avg_examined_lf": avg_lf,
            "decoder_agreement_rate": agree,
        }, (seed, jobs)


@pytest.mark.parametrize("name", ["prim12", "nonprim12", "q3n6"])
def test_simulate_counts_exponents_past_the_radius(monkeypatch, name):
    code = golden_code(name)
    card = analyze(code).cardinality
    for channel in ((2, 2), (2, 3), (0, 3)):
        for seed in (1, 0x5EED1234):
            cfg = ChannelConfig(*channel, seed=seed)
            # the same trials, judged on the decoders' codewords
            ref = SimulationStats()
            for t in range(12):
                rng = random.Random(seed ^ t)
                V = codeword(code, rng.randrange(card))
                R = _transmit(V, cfg.erasures, cfg.errors, rng)
                res_ex, res_lf = decode_exhaustive(R, code), decode_lf(R, code)
                ref.merge(
                    SimulationStats(
                        trials=1,
                        success_exhaustive=res_ex.codeword == V,
                        success_lf=res_lf.codeword == V,
                        unique_exhaustive=res_ex.unique,
                        unique_lf=res_lf.unique,
                        examined_exhaustive=res_ex.candidates_examined,
                        examined_lf=res_lf.candidates_examined,
                        agree=res_ex.codeword == res_lf.codeword,
                    )
                )
            assert simulate_decoding(code, cfg, trials=12) == ref, (channel, seed)
            if (name, channel, seed) == ("q3n6", (2, 2), 1):
                # the decoders settle on different codewords here
                assert ref.agree < 12

    built = {"harness": 0, "decoder": 0}

    def counting(module):
        def build(c, e):
            built[module] += 1
            return codeword(c, e)

        return build

    monkeypatch.setattr(harness, "codeword", counting("harness"))
    monkeypatch.setattr(decoder, "codeword", counting("decoder"))
    simulate_decoding(code, ChannelConfig(2, 2, seed=3), trials=7)
    # each trial builds the codeword it sends, and no decoder builds one
    assert built == {"harness": 7, "decoder": 0}
    R = _transmit(codeword(code, 2), 1, 1, random.Random(5))
    for res in (decode_exhaustive(R, code), decode_lf(R, code)):
        assert built["decoder"] == 0
        assert res.codeword == codeword(code, res.group_exponent)
        assert built["decoder"] == 1
        built["decoder"] = 0


def test_simulation_stats_pickle_round_trip():
    # the --jobs pool sends each chunk's SimulationStats back by pickle
    stats = simulate_decoding(spread_code(), ChannelConfig(1, 1, seed=5), trials=6)
    back = pickle.loads(pickle.dumps(stats))
    assert back == stats
    assert back.to_json_dict() == stats.to_json_dict()
    assert not hasattr(back, "__dict__")
    total = SimulationStats()
    total.merge(back)
    assert total == stats


def test_frozen_results_pickle_round_trip():
    code = spread_code()
    report = random_search(2, 3, 6, code.block_structure, trials=20, seed=SEED)
    decoded = decode_exhaustive(codeword(code, 2), code)
    for obj in (report, report.cells[0], analyze(code, with_distribution=True), decoded):
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj
        assert hash(back) == hash(obj)
        assert not hasattr(back, "__dict__")


# -- random search ----------------------------------------------------------


def test_better_ordering():
    assert _better((15, 3), None)
    assert _better((15, 3), (5, 1))
    assert _better((15, 1), (15, 3))
    assert not _better((15, 3), (15, 1))
    assert not _better((5, 0), (15, 9))


def test_random_search_quartic_goldens():
    rep = random_search(2, 2, 4, single_block(X4_X_1), trials=500, seed=1009)
    assert rep.generator_order == 15
    assert rep.trials == 500 and rep.seed == 1009
    assert rep.cell(2).cardinality == 15
    assert rep.cell(4).cardinality == 5
    assert rep.cell(6) is None
    # recorded start really produces the recorded cell
    cell = rep.cell(4)
    code = make_code(single_block(X4_X_1), cell.start_rows)
    params = analyze(code, method="naive")
    assert (params.cardinality, params.min_distance) == (5, 4)


def test_random_search_deterministic_across_jobs():
    spec = single_block(X6_X_1)
    a = random_search(2, 3, 6, spec, trials=60, seed=5)
    b = random_search(2, 3, 6, spec, trials=60, seed=5)
    c = random_search(2, 3, 6, spec, trials=60, seed=5, jobs=3)
    assert a == b == c
    assert random_search(2, 3, 6, spec, trials=60, seed=6) != a


def test_process_pool_is_capped_at_cpu_count(monkeypatch):
    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    cpus = os.cpu_count() or 1
    jobs = cpus + 1
    trials = 4 * jobs + 8
    spec = single_block(X6_X_1)
    serial = random_search(2, 3, 6, spec, trials=trials, seed=5)
    assert random_search(2, 3, 6, spec, trials=trials, seed=5, jobs=jobs) == serial
    code = spread_code()
    cfg = ChannelConfig(1, 1, 7)
    pooled = simulate_decoding(code, cfg, trials=trials, jobs=jobs)
    assert pooled == simulate_decoding(code, cfg, trials=trials)
    assert sizes == [cpus, cpus]


def test_random_search_accepts_bare_polynomial():
    rep = random_search(2, 2, 4, X4_X_1, trials=50, seed=2)
    assert rep.blocks == ((X4_X_1.coeffs, 1),)


def test_random_search_refuses_a_cell_above_the_orbit_cap_before_any_walk(monkeypatch):
    from orbitcodes import analysis

    def refuse(code):
        raise AssertionError("the oracle walk started")

    # the cells are (distance 2, cardinality 15) and (4, 5); the cap is
    # read at call time
    monkeypatch.setattr(analysis, "ORBIT_CAP", 10)
    monkeypatch.setattr(analysis, "_walk", refuse)
    with pytest.raises(OrbitCapError, match=r"distance 2 has cardinality 15.*cap of 10 "):
        random_search(2, 2, 4, single_block(X4_X_1), trials=500, seed=1009)


def test_random_search_refuses_a_cardinality_that_does_not_divide_the_order(monkeypatch):
    from orbitcodes import analysis, harness

    def overstated(spec, raw):
        params = analysis.analyze_packed(spec, raw)
        return analysis.CodeParams(params.cardinality + 1, params.min_distance)

    # ord(M) = 15, and the true cells (2, 15) and (4, 5) become 16 and 6
    monkeypatch.setattr(harness, "analyze_packed", overstated)
    with pytest.raises(InternalInvariantError, match=r"cardinality 16 at distance 2.*order 15$"):
        random_search(2, 2, 4, single_block(X4_X_1), trials=500, seed=1009)


def test_random_search_validation():
    with pytest.raises(DomainError):
        random_search(2, 5, 4, single_block(X4_X_1), trials=10, seed=1)
    with pytest.raises(DomainError):
        random_search(3, 2, 4, single_block(X4_X_1), trials=10, seed=1)
    with pytest.raises(DomainError):
        random_search(2, 2, 4, single_block(X4_X_1), trials=0, seed=1)


def test_report_serialization():
    rep = random_search(2, 2, 4, single_block(X4_X_1), trials=200, seed=1009)
    d = rep.to_json_dict()
    assert d["q"] == 2 and d["n"] == 4 and d["k"] == 2
    assert d["generator_order"] == 15
    assert {c["distance"] for c in d["cells"]} == {2, 4}
    for c in d["cells"]:
        assert isinstance(c["start"], list) and all(isinstance(r, str) for r in c["start"])
    rows = rep.to_csv_rows()
    assert rows[0] == ["q", "n", "k", "generator_order", "distance", "cardinality", "trial"]
    assert len(rows) == 1 + len(d["cells"])


def test_search_covers_orbit_sizes_n6():
    # 2000 trials over the primitive sextic reliably hits all three orbit
    # cardinalities that exist at k = 3
    rep = random_search(2, 3, 6, single_block(X6_X_1), trials=2000, seed=1009)
    assert rep.cell(2).cardinality == 63
    assert rep.cell(4).cardinality == 63
    assert rep.cell(6).cardinality == 9


# random_search(q, k, n, least primitive, 200 trials, seed).to_json_dict()
# cells, as (distance, cardinality, trial, start rows), captured before the
# projective count, the packed sampler and the forward-elimination oracle
SEARCH_GOLDEN = {
    (2, 4, 8, 1): [
        (2, 255, 20, ["1 0 0 0 0 0 0 0", "0 1 0 1 1 1 0 0", "0 0 1 0 1 1 0 1", "0 0 0 0 0 0 1 1"]),
        (4, 255, 0, ["1 0 0 0 1 0 0 1", "0 0 1 0 1 1 0 1", "0 0 0 1 1 0 0 1", "0 0 0 0 0 0 1 0"]),
    ],
    (2, 4, 8, 0x5EED): [
        (2, 255, 27, ["1 0 0 0 0 0 1 0", "0 1 0 1 0 0 0 1", "0 0 1 1 0 1 1 0", "0 0 0 0 1 0 0 0"]),
        (4, 255, 0, ["1 0 0 1 1 0 0 0", "0 1 0 1 1 1 0 0", "0 0 1 1 1 1 0 1", "0 0 0 0 0 0 1 0"]),
    ],
    (3, 3, 6, 1): [
        (2, 364, 4, ["1 0 2 0 0 1", "0 1 1 0 1 0", "0 0 0 1 1 0"]),
        (4, 364, 0, ["1 0 0 0 1 2", "0 1 0 2 0 2", "0 0 1 1 1 1"]),
    ],
    (3, 3, 6, 0x5EED): [
        (2, 364, 1, ["1 0 0 0 0 0", "0 1 0 1 1 0", "0 0 1 2 0 2"]),
        (4, 364, 0, ["1 0 0 1 2 0", "0 1 0 0 2 1", "0 0 1 0 1 2"]),
    ],
}
SEARCH_POLYS = {2: "1 0 1 1 1 0 0 0 1", 3: "2 1 0 0 0 0 1"}
SEARCH_ORDERS = {2: 255, 3: 728}


@pytest.mark.parametrize("q,k,n,seed", list(SEARCH_GOLDEN))
def test_random_search_golden(q, k, n, seed):
    rep = random_search(q, k, n, least_primitive(PrimeField(q), n), trials=200, seed=seed)
    assert rep.to_json_dict() == {
        "q": q,
        "k": k,
        "n": n,
        "blocks": [{"poly": SEARCH_POLYS[q], "exp": 1}],
        "generator_order": SEARCH_ORDERS[q],
        "trials": 200,
        "seed": seed,
        "cells": [
            {"distance": d, "cardinality": card, "trial": t, "start": start}
            for d, card, t, start in SEARCH_GOLDEN[q, k, n, seed]
        ],
    }


# (q, k, blocks as (coefficients, exponent)) beyond the single primitive block
SEARCH_BLOCK_SPECS = {
    "q2_nonprimitive": (2, 3, [([1, 1, 1, 0, 1, 0, 1], 1)]),  # order 21
    "q2_two_blocks": (2, 3, [([1, 1, 0, 1], 1), ([1, 1, 0, 0, 1], 1)]),
    "q2_square": (2, 3, [([1, 1, 0, 1], 2)]),
    "q3_nonprimitive": (3, 2, [([1, 1, 1, 1, 1], 1)]),  # order 5
    "q3_two_blocks": (3, 2, [([1, 1], 1), ([1, 2, 0, 1], 1)]),  # M^13 = 2I
    "q3_square": (3, 2, [([2, 1, 1], 2)]),
}
# random_search(q, k, n, spec, 80 trials, seed 2024) cells, as in
# SEARCH_GOLDEN, captured before search trials analyzed their packed rows
SEARCH_BLOCK_GOLDEN = {
    "q2_nonprimitive": [
        (2, 21, 2, ["1 0 0 0 0 1", "0 1 0 0 1 1", "0 0 0 1 0 1"]),
        (4, 21, 0, ["1 0 0 1 0 0", "0 1 0 0 1 0", "0 0 1 1 1 1"]),
    ],
    "q2_two_blocks": [
        (2, 105, 0, ["1 0 1 0 0 1 1", "0 1 0 0 0 0 0", "0 0 0 0 1 0 1"]),
        (4, 105, 4, ["1 0 0 1 1 0 0", "0 0 1 1 0 0 0", "0 0 0 0 0 1 0"]),
    ],
    "q2_square": [
        (2, 14, 5, ["1 0 0 0 0 0", "0 1 0 0 1 0", "0 0 1 1 0 1"]),
        (4, 14, 0, ["1 0 0 1 0 0", "0 1 0 0 1 0", "0 0 1 1 1 1"]),
    ],
    "q3_nonprimitive": [
        (2, 5, 2, ["1 0 0 1", "0 1 2 2"]),
        (4, 5, 0, ["1 0 2 0", "0 0 0 1"]),
    ],
    "q3_two_blocks": [
        (2, 13, 0, ["1 0 2 0", "0 0 0 1"]),
    ],
    "q3_square": [
        (2, 12, 0, ["1 0 2 0", "0 0 0 1"]),
        (4, 4, 1, ["1 0 1 2", "0 1 0 2"]),
    ],
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(SEARCH_BLOCK_SPECS))
def test_random_search_block_golden(name, jobs):
    q, k, blocks = SEARCH_BLOCK_SPECS[name]
    spec = ElementaryDivisorSpec.make(PrimeField(q), [(poly_of(q, c), e) for c, e in blocks])
    rep = random_search(q, k, spec.n, spec, trials=80, seed=2024, jobs=jobs)
    cells = [
        (c.distance, c.cardinality, c.trial, [" ".join(map(str, r)) for r in c.start_rows])
        for c in rep.cells
    ]
    assert cells == SEARCH_BLOCK_GOLDEN[name]


@pytest.mark.parametrize("q", [2, 3, 5, 7, 257])
def test_sampler_draws_as_randrange(q):
    # the packed sampler must leave the generator exactly where a loop of
    # randrange(q) per coordinate does, rejected matrices included
    rows, cols = (3, 3) if q > 2 else (4, 4)
    for seed in range(40):
        rng, ref = random.Random(seed), random.Random(seed)
        codes = _random_full_rank_rows(rng, q, rows, cols)
        space = Subspace.from_packed(q, cols, codes)
        while True:
            raw = [[ref.randrange(q) for _ in range(cols)] for _ in range(rows)]
            if Subspace.from_rows(q, cols, raw).dim == rows:
                break
        assert rng.getstate() == ref.getstate()
        assert space == Subspace.from_rows(q, cols, raw)
        assert [lanes(q, cols).unpack(c) for c in codes] == [tuple(r) for r in raw]
