"""Command-line front end: construct, classify, analyze, decode, search,
simulate, and self-test orbit codes.

Exit codes: 0 success, 1 domain error (message on stderr names the offending
input), 2 usage error (argparse).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from .analysis import (
    analyze,
    block_bounds,
    code_from_json_dict,
    code_to_json_dict,
    enumerate_orbit,
    macwilliams_check,
    make_code,
)
from .canonical import ElementaryDivisorSpec, build_generator, matrix_type, same_group_type
from .decoder import decode_exhaustive, decode_lf
from .errors import DomainError
from .fields import (
    Poly,
    PrimeField,
    check_index_limit,
    field_context,
    find_irreducible_with_order,
    is_irreducible,
    is_primitive,
    least_primitive,
    poly_order,
)
from .harness import ChannelConfig, random_search, simulate_decoding
from .linalg import Mat, Subspace, companion_matrix, subspace_distance
from .spread import SpreadSpec, build_nonprimitive_spread, build_spread, spread_start_rows, verify_spread


def _read_text_source(tokens: list[str], what: str) -> str:
    """Flag value that is either a file path (single token) or inline text."""
    if len(tokens) == 1 and os.path.isfile(tokens[0]):
        try:
            with open(tokens[0], "r", encoding="ascii") as fh:
                return fh.read()
        except OSError as exc:
            raise DomainError(f"cannot read {what} file {tokens[0]}: {exc}") from exc
    return " ".join(tokens)


def _poly_from_args(q: int, tokens: list[str]) -> Poly:
    return Poly.from_text(PrimeField(q), _read_text_source(tokens, "polynomial"))


def _load_code(path: str):
    try:
        with open(path, "r", encoding="ascii") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read code spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"code spec {path} is not valid JSON: {exc}") from exc
    return code_from_json_dict(data)


def _emit_json(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _params_dict(params) -> dict:
    out = {"cardinality": params.cardinality, "min_distance": params.min_distance}
    if params.distribution is not None:
        out["distance_distribution"] = list(params.distribution)
    return out


def cmd_analyze(args) -> int:
    code, shape = _load_code(args.code)
    params = analyze(code, method=args.method, with_distribution=args.distribution)
    out = {"q": code.q, "n": code.n, "k": code.k, "regime": code.regime, "shape": shape}
    out.update(_params_dict(params))
    if shape in ("diag", "concat"):
        rep = block_bounds(code)
        if rep.shape != shape:
            raise DomainError(
                f'spec declares shape "{shape}" but the start subspace is {rep.shape}-shaped'
            )
        out["bounds"] = {
            "shape": rep.shape,
            "components": [
                {"cardinality": p.cardinality, "min_distance": p.min_distance}
                for p in rep.component_params
            ],
            "cardinality": rep.cardinality,
            "distance_lower": rep.distance_lower,
            "distance_exact": rep.distance_exact,
            "sum_bound": rep.sum_bound,
            "cardinality_window": list(rep.window),
        }
    _emit_json(out)
    return 0


def cmd_classify(args) -> int:
    if args.code:
        code, _ = _load_code(args.code)
        A = code.generator
    elif args.poly:
        if args.q is None:
            raise DomainError("classify --poly needs --q")
        A = companion_matrix(_poly_from_args(args.q, args.poly))
    else:
        raise DomainError("classify needs --code or --poly")
    mt = matrix_type(A)
    _emit_json(
        {
            "partitions": [list(p) for p in mt.partitions],
            "orders": list(mt.orders),
            "group_order": math.lcm(*mt.orders),
        }
    )
    return 0


def cmd_spread(args) -> int:
    if args.q is None or args.n is None or args.k is None:
        raise DomainError("spread needs --q, --n and --k")
    if args.nonprimitive:
        code = build_nonprimitive_spread(args.q, args.k, args.n)
    else:
        p = _poly_from_args(args.q, args.poly) if args.poly else None
        code = build_spread(SpreadSpec.make(args.q, args.k, args.n, p))
    _emit_json(code_to_json_dict(code, shape="free"))
    return 0


def _check_jobs(args) -> None:
    if args.jobs < 1:
        raise DomainError(f"--jobs must be at least 1, got {args.jobs}")


def cmd_search(args) -> int:
    if args.q is None or args.n is None or args.k is None:
        raise DomainError("search needs --q, --n and --k")
    _check_jobs(args)
    field = PrimeField(args.q)
    # the generator is one degree-n polynomial, whose ring is indexed
    check_index_limit(args.q, args.n)
    if args.poly:
        p = _poly_from_args(args.q, args.poly)
    elif args.order is not None:
        p = find_irreducible_with_order(field, args.n, args.order)
    else:
        p = least_primitive(field, args.n)
    report = random_search(
        args.q, args.k, args.n, p, trials=args.trials, seed=args.seed, jobs=args.jobs
    )
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(report.to_csv_rows())
    else:
        _emit_json(report.to_json_dict())
    return 0


def cmd_decode(args) -> int:
    code, _ = _load_code(args.code)
    try:
        with open(args.received, "r", encoding="ascii") as fh:
            R = Subspace.from_matrix(Mat.from_text(code.q, fh.read()))
    except OSError as exc:
        raise DomainError(f"cannot read received matrix {args.received}: {exc}") from exc
    if args.decoder == "exhaustive":
        res = decode_exhaustive(R, code)
    else:
        res = decode_lf(R, code, f=args.f)
    _emit_json(
        {
            "codeword": [" ".join(str(x) for x in row) for row in res.codeword.rows],
            "group_exponent": res.group_exponent,
            "distance": res.distance,
            "unique": res.unique,
            "candidates_examined": res.candidates_examined,
        }
    )
    return 0


def cmd_simulate(args) -> int:
    _check_jobs(args)
    code, _ = _load_code(args.code)
    cfg = ChannelConfig(erasures=args.erasures, errors=args.errors, seed=args.seed)
    stats = simulate_decoding(code, cfg, trials=args.trials, jobs=args.jobs)
    _emit_json(stats.to_json_dict())
    return 0


# -- selftest golden anchors ------------------------------------------------


class _AnchorFailure(Exception):
    pass


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise _AnchorFailure(msg)


def _anchor_poly_orders() -> None:
    F2 = PrimeField(2)
    p5 = Poly.make(F2, [1, 1, 1, 1, 1])
    _expect(is_irreducible(p5), "x^4+x^3+x^2+x+1 should be irreducible")
    _expect(poly_order(p5) == 5, "x^4+x^3+x^2+x+1 should have order 5")
    _expect(not is_primitive(p5), "x^4+x^3+x^2+x+1 should not be primitive")
    p63 = Poly.make(F2, [1, 1, 0, 0, 0, 0, 1])
    _expect(poly_order(p63) == 63, "x^6+x+1 should have order 63")
    _expect(is_primitive(p63), "x^6+x+1 should be primitive")
    _expect(is_irreducible(Poly.make(F2, [1, 1, 0, 0, 1])), "x^4+x+1 should be irreducible")


def _anchor_order_scan() -> None:
    F2 = PrimeField(2)
    _expect(
        find_irreducible_with_order(F2, 6, 63).coeffs == (1, 1, 0, 0, 0, 0, 1),
        "least order-63 sextic should be x^6+x+1",
    )
    _expect(
        find_irreducible_with_order(F2, 4, 5).coeffs == (1, 1, 1, 1, 1),
        "least order-5 quartic should be x^4+x^3+x^2+x+1",
    )


def _anchor_dlog() -> None:
    ctx = field_context(Poly.make(PrimeField(2), [1, 1, 0, 0, 0, 0, 1]))
    _expect(ctx.x_power(9) == (0, 0, 0, 1, 1, 0), "alpha^9 should be alpha^4+alpha^3")
    _expect(ctx.x_power(18) == (1, 1, 1, 1, 0, 0), "alpha^18 expansion mismatch")
    _expect(ctx.x_log((0, 0, 0, 1, 1, 0)) == 9, "dlog(alpha^4+alpha^3) should be 9")


def _two_block_spec() -> ElementaryDivisorSpec:
    F2 = PrimeField(2)
    p1 = Poly.make(F2, [1, 1, 0, 0, 1])
    p2 = Poly.make(F2, [1, 1, 0, 0, 0, 0, 1])
    return ElementaryDivisorSpec.make(F2, [(p1, 1), (p2, 1)])


def _anchor_block_generator() -> None:
    spec = _two_block_spec()
    M = build_generator(spec)
    _expect(M.nrows == 10, "two-block generator should be 10x10")
    C1 = companion_matrix(spec.blocks[0][0])
    C2 = companion_matrix(spec.blocks[1][0])
    _expect(
        all(M.rows[i][j] == C1.rows[i][j] for i in range(4) for j in range(4)),
        "top-left block should be the first companion matrix",
    )
    _expect(
        all(M.rows[4 + i][4 + j] == C2.rows[i][j] for i in range(6) for j in range(6)),
        "bottom-right block should be the second companion matrix",
    )
    _expect(spec.generator_order() == 315, "block generator order should be lcm(15,63)")


def _anchor_p_squared() -> None:
    F2 = PrimeField(2)
    p = Poly.make(F2, [1, 1, 1])
    sq = p * p
    _expect(sq.coeffs == (1, 0, 1, 0, 1), "(x^2+x+1)^2 should be x^4+x^2+1")
    spec = ElementaryDivisorSpec.make(F2, [(p, 2)])
    _expect(
        build_generator(spec) == companion_matrix(sq),
        "generator of a p^2 block should be the companion matrix of p^2",
    )


def _anchor_matrix_types() -> None:
    F2 = PrimeField(2)
    A = companion_matrix(Poly.make(F2, [1, 1, 0, 0, 0, 0, 1]))
    _expect(same_group_type(A, A**2), "A and A^2 should generate same-type groups")
    B = companion_matrix(Poly.make(F2, [1, 1, 0, 0, 1]))
    C = companion_matrix(Poly.make(F2, [1, 1, 1, 1, 1]))
    _expect(not same_group_type(B, C), "order-15 vs order-5 groups should differ")


def _anchor_spread_6_3() -> None:
    spec = SpreadSpec.make(2, 3, 6)
    rows = spread_start_rows(spec)
    _expect(
        rows == [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0), (1, 1, 1, 1, 0, 0)],
        f"3-dim spread start rows mismatch: {rows}",
    )
    code = build_spread(spec)
    _expect(len(enumerate_orbit(code)) == 9, "3-dim spread orbit should have 9 subspaces")
    params = analyze(code, method="fast")
    _expect(
        (params.cardinality, params.min_distance) == (9, 6),
        f"3-dim spread params should be (9, 6), got {params}",
    )
    orbit = enumerate_orbit(code)
    worst = min(
        subspace_distance(a, b) for i, a in enumerate(orbit) for b in orbit[i + 1 :]
    )
    _expect(worst == 6, "distinct spread codewords should be at distance 2k")
    _expect(verify_spread(code), "3-dim orbit should cover every nonzero vector once")
    _expect(macwilliams_check(code), "spread distance distribution should match its dual")


def _anchor_spread_6_2() -> None:
    spec = SpreadSpec.make(2, 2, 6)
    code = build_spread(spec)
    params = analyze(code, method="fast")
    _expect(
        (params.cardinality, params.min_distance) == (21, 4),
        f"2-dim spread params should be (21, 4), got {params}",
    )
    # start = the quartic subfield; canonical rows (100000),(010111)
    _expect(
        code.start
        == Subspace.from_rows(2, 6, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 1, 1, 1)]),
        "2-dim spread start should span the order-3 subfield",
    )
    _expect(verify_spread(code), "2-dim orbit should cover every nonzero vector once")


def _anchor_nonprimitive_spread() -> None:
    code = build_nonprimitive_spread(2, 2, 4)
    _expect(
        code.block_structure.blocks[0][0].coeffs == (1, 1, 1, 1, 1),
        "non-primitive spread generator should be x^4+x^3+x^2+x+1",
    )
    _expect(
        code.start == Subspace.from_rows(2, 4, [(1, 0, 0, 0), (0, 0, 1, 1)]),
        "non-primitive spread start should be rs[(1000),(0011)]",
    )
    params = analyze(code, method="fast")
    _expect(
        (params.cardinality, params.min_distance) == (5, 4),
        f"non-primitive spread params should be (5, 4), got {params}",
    )
    _expect(verify_spread(code), "non-primitive orbit should be a spread")


def _block_example_codes():
    spec = _two_block_spec()
    U1 = [(1, 0, 0, 0), (0, 1, 1, 0)]
    U2 = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 1, 1, 1)]
    return spec, U1, U2


def _anchor_block_components() -> None:
    spec, U1, U2 = _block_example_codes()
    c1 = make_code(ElementaryDivisorSpec.make(spec.field, [spec.blocks[0]]), U1)
    c2 = make_code(ElementaryDivisorSpec.make(spec.field, [spec.blocks[1]]), U2)
    p1 = analyze(c1, method="fast")
    p2 = analyze(c2, method="fast")
    _expect(
        (p1.cardinality, p1.min_distance) == (5, 4),
        f"first component should be (5, 4), got {p1}",
    )
    _expect(
        (p2.cardinality, p2.min_distance) == (21, 4),
        f"second component should be (21, 4), got {p2}",
    )


def _anchor_block_diag() -> None:
    spec, U1, U2 = _block_example_codes()
    rows = [r + (0,) * 6 for r in U1] + [(0,) * 4 + r for r in U2]
    code = make_code(spec, rows)
    params = analyze(code, method="fast")
    _expect(
        (params.cardinality, params.min_distance) == (105, 4),
        f"diagonal block code should be (105, 4), got {params}",
    )
    rep = block_bounds(code)
    _expect(rep.shape == "diag", "start should be recognized as block-diagonal")
    _expect(rep.cardinality == 105, "diag cardinality should be lcm(5, 21)")
    _expect(rep.distance_exact == 4, "coprime components should pin the distance")


def _anchor_block_concat() -> None:
    spec, U1, U2 = _block_example_codes()
    rows = [a + b for a, b in zip(U1, U2)]
    code = make_code(spec, rows)
    params = analyze(code, method="fast")
    _expect(
        (params.cardinality, params.min_distance) == (315, 4),
        f"concatenated block code should be (315, 4), got {params}",
    )
    rep = block_bounds(code)
    _expect(rep.shape == "concat", "start should be recognized as concatenated")
    _expect(rep.distance_lower == 4, "concat lower bound should be min component distance")


def _search_cells(q, k, n, p, trials, seed):
    report = random_search(q, k, n, p, trials=trials, seed=seed)
    return {c.distance: c.cardinality for c in report.cells}


def _anchor_search_n4() -> None:
    cells = _search_cells(2, 2, 4, least_primitive(PrimeField(2), 4), 500, 1009)
    _expect(cells.get(2) == 15, f"n=4 search should find (d=2, 15), got {cells}")
    _expect(cells.get(4) == 5, f"n=4 search should find (d=4, 5), got {cells}")


def _anchor_search_n6() -> None:
    cells = _search_cells(2, 3, 6, least_primitive(PrimeField(2), 6), 2000, 1009)
    _expect(cells.get(2) == 63, f"n=6 search should find (d=2, 63), got {cells}")
    _expect(cells.get(4) == 63, f"n=6 search should find (d=4, 63), got {cells}")
    _expect(cells.get(6) == 9, f"n=6 search should find (d=6, 9), got {cells}")


def _anchor_search_order33() -> None:
    p = find_irreducible_with_order(PrimeField(2), 10, 33)
    cells = _search_cells(2, 2, 10, p, 2000, 1009)
    _expect(cells.get(2) == 33, f"order-33 search should find (d=2, 33), got {cells}")
    _expect(cells.get(4) == 33, f"order-33 search should find (d=4, 33), got {cells}")


def _anchor_spec_roundtrip() -> None:
    code = build_spread(SpreadSpec.make(2, 3, 6))
    data = code_to_json_dict(code, shape="free")
    back, shape = code_from_json_dict(json.loads(json.dumps(data)))
    _expect(shape == "free", "round-tripped shape tag should survive")
    _expect(back.start == code.start, "round-tripped start should survive")
    params = analyze(back, method="fast")
    _expect(
        (params.cardinality, params.min_distance) == (9, 6),
        "round-tripped spread should still analyze to (9, 6)",
    )


_ANCHORS = (
    ("poly-orders", _anchor_poly_orders),
    ("least-poly-with-order", _anchor_order_scan),
    ("discrete-log-table", _anchor_dlog),
    ("block-generator", _anchor_block_generator),
    ("p-squared-generator", _anchor_p_squared),
    ("matrix-types", _anchor_matrix_types),
    ("spread-6-3", _anchor_spread_6_3),
    ("spread-6-2", _anchor_spread_6_2),
    ("nonprimitive-spread-4-2", _anchor_nonprimitive_spread),
    ("block-components", _anchor_block_components),
    ("block-diag-105", _anchor_block_diag),
    ("block-concat-315", _anchor_block_concat),
    ("search-table-n4", _anchor_search_n4),
    ("search-table-n6", _anchor_search_n6),
    ("search-order-33", _anchor_search_order33),
    ("spec-roundtrip", _anchor_spec_roundtrip),
)


def cmd_selftest(args) -> int:
    failures = 0
    for name, fn in _ANCHORS:
        try:
            fn()
        except _AnchorFailure as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        except Exception as exc:  # noqa: BLE001 - selftest must report, not crash
            failures += 1
            print(f"FAIL {name}: unexpected {type(exc).__name__}: {exc}")
        else:
            print(f"ok {name}")
    print(f"{len(_ANCHORS) - failures}/{len(_ANCHORS)} anchors passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitcodes",
        description="Cyclic orbit subspace codes: build, analyze, decode, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, code=False, received=False, seeded=False, qnk=False, poly=False):
        """Adds the shared flags; with poly, returns the group that --poly
        sits in, for the one flag that conflicts with it."""
        group = None
        if qnk:
            p.add_argument("--q", type=int, help="prime field size")
            p.add_argument("--n", type=int, help="ambient dimension")
            p.add_argument("--k", type=int, help="codeword dimension")
        if poly:
            group = p.add_mutually_exclusive_group()
            group.add_argument(
                "--poly",
                nargs="+",
                metavar="FILE|COEFF",
                help="polynomial: file path or ascending coefficients",
            )
        if code:
            p.add_argument("--code", required=True, help="code spec JSON file")
        if received:
            p.add_argument("--received", required=True, help="received matrix text file")
        if seeded:
            p.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
            p.add_argument("--trials", type=int, default=1000)
            p.add_argument(
                "--jobs",
                type=int,
                default=1,
                help="trial chunks, run on at most one process per CPU; "
                "the output does not depend on it",
            )
        return group

    p = sub.add_parser("analyze", help="cardinality/distance of a code spec")
    add_common(p, code=True)
    p.add_argument("--method", choices=("auto", "fast", "naive"), default="auto")
    p.add_argument("--distribution", action="store_true", help="include the distance distribution")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="matrix type of a generator")
    add_common(p, qnk=True, poly=True).add_argument(
        "--code", help="code spec JSON file (classify its generator)"
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("spread", help="emit a spread code spec")
    add_common(p, qnk=True, poly=True).add_argument(
        "--nonprimitive",
        action="store_true",
        help="use the least irreducible of order (q^n-1)/(q^k-1) instead of a primitive polynomial",
    )
    p.set_defaults(func=cmd_spread)

    p = sub.add_parser("search", help="seeded random search over start subspaces")
    add_common(p, qnk=True, poly=True, seeded=True).add_argument(
        "--order", type=int, help="pick the least irreducible with this order"
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("decode", help="decode a received subspace")
    add_common(p, code=True, received=True)
    p.add_argument("--decoder", choices=("exhaustive", "lf"), default="lf")
    p.add_argument("--f", type=int, default=None, help="support bound for the lf decoder")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="channel + decoder simulation")
    add_common(p, code=True, seeded=True)
    p.add_argument("--erasures", type=int, default=0)
    p.add_argument("--errors", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("selftest", help="run the golden anchor suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
