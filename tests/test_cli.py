"""End-to-end CLI checks through main(argv): exit codes and JSON output."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import orbitcodes
from orbitcodes import (
    SpreadSpec,
    build_spread,
    code_from_json_dict,
    code_to_json_dict,
    codeword,
    make_code,
)
from orbitcodes.cli import main
from orbitcodes.fields import CYCLE_INDEX_LIMIT, RHO_STEP_LIMIT

from conftest import X4_X_1, X6_X_1, single_block


@pytest.fixture
def spread_spec_file(tmp_path):
    code = build_spread(SpreadSpec.make(2, 3, 6))
    path = tmp_path / "spread.json"
    path.write_text(json.dumps(code_to_json_dict(code, shape="free")))
    return path


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 0, err
    return json.loads(out)


# -- analyze ----------------------------------------------------------------


def test_analyze_spread(capsys, spread_spec_file):
    data = run_json(capsys, ["analyze", "--code", str(spread_spec_file)])
    assert data["cardinality"] == 9
    assert data["min_distance"] == 6
    assert data["regime"] == "primitive"
    assert data["shape"] == "free"
    assert "distance_distribution" not in data


def test_analyze_distribution_flag(capsys, spread_spec_file):
    data = run_json(
        capsys,
        ["analyze", "--code", str(spread_spec_file), "--distribution", "--method", "naive"],
    )
    assert data["distance_distribution"] == [1, 0, 0, 8]


def _two_block_dict(shape):
    spec = ["1 1 0 0 1", "1 1 0 0 0 0 1"]
    if shape == "diag":
        start = ["1 0 0 0 0 0 0 0 0 0", "0 1 1 0 0 0 0 0 0 0",
                 "0 0 0 0 1 0 0 0 0 0", "0 0 0 0 0 1 0 1 1 1"]
    else:
        start = ["1 0 0 0 1 0 0 0 0 0", "0 1 1 0 0 1 0 1 1 1"]
    return {
        "q": 2,
        "blocks": [{"poly": spec[0]}, {"poly": spec[1]}],
        "start": start,
        "shape": shape,
    }


def test_analyze_diag_bounds(capsys, tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(_two_block_dict("diag")))
    data = run_json(capsys, ["analyze", "--code", str(path)])
    assert data["cardinality"] == 105
    assert data["min_distance"] == 4
    assert data["bounds"]["cardinality"] == 105
    assert data["bounds"]["distance_exact"] == 4
    assert [c["cardinality"] for c in data["bounds"]["components"]] == [5, 21]


def test_analyze_concat_bounds(capsys, tmp_path):
    path = tmp_path / "concat.json"
    path.write_text(json.dumps(_two_block_dict("concat")))
    data = run_json(capsys, ["analyze", "--code", str(path)])
    assert data["cardinality"] == 315
    assert data["bounds"]["shape"] == "concat"
    assert data["bounds"]["cardinality_window"] == [105, 315]


def test_analyze_shape_mismatch(capsys, tmp_path):
    wrong = _two_block_dict("diag")
    wrong["shape"] = "concat"
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(wrong))
    rc, out, err = run(capsys, ["analyze", "--code", str(path)])
    assert rc == 1
    assert "concat" in err and "diag" in err


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.pop("q"), "q"),
        (lambda d: d.update(blocks=[]), "blocks"),
        (lambda d: d["blocks"][0].update(poly="1 x"), "polynomial"),
        (lambda d: d.update(start=["1 0", "0 1"]), "start"),
        (lambda d: d.update(shape="wedge"), "shape"),
    ],
)
def test_analyze_malformed_spec(capsys, tmp_path, mutate, needle):
    data = _two_block_dict("diag")
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc, out, err = run(capsys, ["analyze", "--code", str(path)])
    assert rc == 1
    assert needle in err


def test_analyze_unreadable_inputs(capsys, tmp_path):
    rc, _, err = run(capsys, ["analyze", "--code", str(tmp_path / "missing.json")])
    assert rc == 1 and "missing.json" in err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    rc, _, err = run(capsys, ["analyze", "--code", str(garbled)])
    assert rc == 1 and "JSON" in err


# -- classify ---------------------------------------------------------------


def test_classify_poly(capsys):
    data = run_json(capsys, ["classify", "--q", "2", "--poly", "1", "1", "0", "0", "0", "0", "1"])
    assert data == {"partitions": [[1]], "orders": [63], "group_order": 63}


def test_classify_from_code(capsys, spread_spec_file):
    data = run_json(capsys, ["classify", "--code", str(spread_spec_file)])
    assert data["group_order"] == 63


def test_classify_poly_file(capsys, tmp_path):
    path = tmp_path / "poly.txt"
    path.write_text("1 1 0 0 1\n")
    data = run_json(capsys, ["classify", "--q", "2", "--poly", str(path)])
    assert data["group_order"] == 15


def test_classify_needs_input(capsys):
    rc, _, err = run(capsys, ["classify", "--q", "2"])
    assert rc == 1 and "--code or --poly" in err


# -- spread -----------------------------------------------------------------


def test_spread_chain_to_analyze(capsys, tmp_path):
    data = run_json(capsys, ["spread", "--q", "2", "--n", "6", "--k", "2"])
    code, _ = code_from_json_dict(data)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    out = run_json(capsys, ["analyze", "--code", str(path), "--method", "fast"])
    assert (out["cardinality"], out["min_distance"]) == (21, 4)


def test_spread_nonprimitive(capsys):
    data = run_json(capsys, ["spread", "--q", "2", "--n", "4", "--k", "2", "--nonprimitive"])
    code, _ = code_from_json_dict(data)
    assert code.block_structure.blocks[0][0].coeffs == (1, 1, 1, 1, 1)


@pytest.mark.parametrize(
    "argv,degree",
    [
        (["search", "--q", "2", "--n", "61", "--k", "1", "--seed", "1", "--trials", "1"], 61),
        (["spread", "--q", "2", "--n", "62", "--k", "2"], 62),
        # refused before the scan of the 2^40 monic polynomials for this order
        (
            ["search", "--q", "2", "--n", "40", "--k", "1", "--order", "1048577"]
            + ["--seed", "1", "--trials", "1"],
            40,
        ),
        # 2^15000 - 1 has more digits than Python prints: the message must
        # not form it
        (["search", "--q", "2", "--n", "15000", "--k", "2", "--seed", "1", "--trials", "1"], 15000),
    ],
)
def test_oversized_field_refused_at_the_index_limit(capsys, argv, degree):
    # the cycle index of 2^degree - 1 elements is refused before any
    # polynomial is sought
    rc, out, err = run(capsys, argv)
    assert rc == 1 and out == ""
    assert f"(q=2, degree {degree})" in err and "limit of 4194304" in err


def test_huge_q_refused_at_the_rho_step_limit(capsys, tmp_path):
    # q - 1 = 2 p1 p2 with primes p1, p2 near 10^18: the field context's
    # order test would factor it for ~10^9 rho steps
    spec = {"q": 2000000000000000068000000000000000187, "blocks": [{"poly": "1 1"}], "start": ["1"]}
    path = tmp_path / "huge_q.json"
    path.write_text(json.dumps(spec))
    rc, out, err = run(capsys, ["analyze", "--code", str(path)])
    assert rc == 1 and out == ""
    assert f"limit of {RHO_STEP_LIMIT} squarings" in err


def test_huge_exponent_refused_at_the_index_limit(capsys, tmp_path):
    # one block (x + 1)^20000: its power is built by squaring, and the first
    # placement refuses the cycle index of 2^20000 - 1 elements
    spec = {"q": 2, "blocks": [{"poly": "1 1", "exp": 20000}], "start": ["1" + " 0" * 19999]}
    path = tmp_path / "huge_exp.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    rc, out, err = run(capsys, ["analyze", "--code", str(path)])
    assert time.perf_counter() - start < 1
    assert rc == 1 and out == ""
    assert "(q=2, degree 20000)" in err and f"limit of {CYCLE_INDEX_LIMIT}" in err


@pytest.mark.parametrize("method", ["fast", "naive"])
def test_analyze_refuses_a_singular_block(capsys, tmp_path, method):
    # the block x^2 (p = x, p(0) = 0) gives a singular generator
    spec = {"q": 2, "blocks": [{"poly": "0 1", "exp": 2}], "start": ["1 0"]}
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(spec))
    rc, out, err = run(capsys, ["analyze", "--code", str(path), "--method", method])
    assert rc == 1 and out == ""
    assert "generator is singular" in err


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["spread", "--q", "2", "--n", "4", "--k", "2", "--nonprimitive"]
    src = str(Path(orbitcodes.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-m", "orbitcodes", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == run_json(capsys, argv)


def test_spread_invalid_k(capsys):
    rc, _, err = run(capsys, ["spread", "--q", "2", "--n", "6", "--k", "4"])
    assert rc == 1 and "k | n" in err


# -- search -----------------------------------------------------------------


def test_search_json_golden(capsys):
    data = run_json(
        capsys,
        ["search", "--q", "2", "--n", "4", "--k", "2", "--seed", "1009", "--trials", "300"],
    )
    cells = {c["distance"]: c["cardinality"] for c in data["cells"]}
    assert cells[2] == 15 and cells[4] == 5


def test_search_csv(capsys):
    rc, out, err = run(
        capsys,
        ["search", "--q", "2", "--n", "4", "--k", "2", "--seed", "7",
         "--trials", "100", "--format", "csv"],
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,n,k,generator_order,distance,cardinality,trial"
    assert all(line.startswith("2,4,2,15,") for line in lines[1:])


def test_search_by_order(capsys):
    data = run_json(
        capsys,
        ["search", "--q", "2", "--n", "4", "--k", "2", "--order", "5",
         "--seed", "3", "--trials", "100"],
    )
    assert data["generator_order"] == 5
    cells = {c["distance"]: c["cardinality"] for c in data["cells"]}
    assert cells[4] == 5


def test_search_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--q", "2", "--n", "4", "--k", "2"])
    assert exc.value.code == 2


# -- decode and simulate ----------------------------------------------------


def _write_received(tmp_path, rows):
    path = tmp_path / "received.txt"
    path.write_text("\n".join(" ".join(str(x) for x in r) for r in rows) + "\n")
    return path


def test_decode_exact_codeword(capsys, tmp_path, spread_spec_file):
    code = build_spread(SpreadSpec.make(2, 3, 6))
    received = _write_received(tmp_path, codeword(code, 4).rows)
    for decoder in ("exhaustive", "lf"):
        data = run_json(
            capsys,
            ["decode", "--code", str(spread_spec_file), "--received", str(received),
             "--decoder", decoder],
        )
        assert data["group_exponent"] == 4
        assert data["distance"] == 0
        assert data["unique"] is True


def test_decode_corrupted(capsys, tmp_path, spread_spec_file):
    code = build_spread(SpreadSpec.make(2, 3, 6))
    W = codeword(code, 7)
    rows = list(W.rows[:2]) + [(0, 0, 0, 0, 0, 1)]
    received = _write_received(tmp_path, rows)
    data = run_json(
        capsys, ["decode", "--code", str(spread_spec_file), "--received", str(received)]
    )
    assert data["group_exponent"] == 7
    assert data["distance"] <= 2
    rows_back = [tuple(int(t) for t in r.split()) for r in data["codeword"]]
    assert tuple(rows_back) == W.rows


@pytest.mark.parametrize("entry", [7, -1, 2])
def test_decode_received_outside_the_field(capsys, tmp_path, spread_spec_file, entry):
    received = _write_received(tmp_path, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, entry, 0)])
    for decoder in ("exhaustive", "lf"):
        rc, out, err = run(
            capsys,
            ["decode", "--code", str(spread_spec_file), "--received", str(received),
             "--decoder", decoder],
        )
        assert rc == 1 and not out
        assert f"entry {entry}" in err and "q = 2" in err


def test_decode_missing_received(capsys, tmp_path, spread_spec_file):
    rc, _, err = run(
        capsys,
        ["decode", "--code", str(spread_spec_file), "--received", str(tmp_path / "nope.txt")],
    )
    assert rc == 1 and "nope.txt" in err


def test_simulate_cmd(capsys, spread_spec_file):
    data = run_json(
        capsys,
        ["simulate", "--code", str(spread_spec_file), "--seed", "9", "--trials", "25",
         "--erasures", "1", "--errors", "1"],
    )
    assert data["trials"] == 25
    assert data["success_rate_exhaustive"] == 1.0
    assert data["success_rate_lf"] == 1.0


@pytest.mark.parametrize("command", ["search", "simulate"])
def test_jobs_below_one_rejected(capsys, spread_spec_file, command):
    argv = (
        ["search", "--q", "2", "--n", "4", "--k", "2"]
        if command == "search"
        else ["simulate", "--code", str(spread_spec_file)]
    )
    rc, out, err = run(capsys, argv + ["--seed", "1", "--trials", "20", "--jobs", "0"])
    assert rc == 1 and out == ""
    assert "--jobs" in err


# -- selftest and usage errors ----------------------------------------------


def test_selftest_all_green(capsys):
    rc, out, _ = run(capsys, ["selftest"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("ok ") for line in lines[:-1])
    assert lines[-1].endswith("anchors passed")


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # --code is required
    assert exc.value.code == 2
    # flags that pick the same thing two ways are refused, not one dropped
    for argv in (
        ["spread", "--q", "2", "--n", "6", "--k", "3", "--nonprimitive", "--poly", "1", "1", "0",
         "0", "0", "0", "1"],
        ["search", "--q", "2", "--n", "4", "--k", "2", "--seed", "1", "--poly", "1", "1", "0",
         "0", "1", "--order", "15"],
        ["classify", "--code", "spec.json", "--q", "2", "--poly", "1", "1", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
