"""CLI: exit codes, schema validity, determinism, format details."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from skrates.cli import main

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def check_schema(name, payload):
    schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text())
    jsonschema.validate(payload, schema)


@pytest.fixture
def triangle_path(tmp_path, triangle):
    from skrates.source import dumps_source

    p = tmp_path / "triangle.json"
    p.write_text(dumps_source(triangle))
    return str(p)


def test_entropy_subcommand(capsys, triangle_path):
    code, out, _ = run_cli(capsys, "entropy", "--source", triangle_path, "--set", "1,2")
    assert code == 0
    payload = json.loads(out)
    check_schema("entropy", payload)
    assert payload["entropy"] == "3" and payload["conditional_entropy"] == "1"


def test_mmi_subcommand(capsys, triangle_path):
    code, out, _ = run_cli(capsys, "mmi", "--source", triangle_path)
    payload = json.loads(out)
    check_schema("mmi", payload)
    assert code == 0 and payload["value"] == "3/2"
    assert payload["fundamental"] == [["1"], ["2"], ["3"]]


def test_capacity_subcommand(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--source", "motivating")
    payload = json.loads(out)
    check_schema("capacity", payload)
    assert payload["C_S"] == "1" and payload["R_CO"] == "2"


def test_bounds_subcommand(capsys):
    point = json.dumps({"r_K": "1", "r": {"1": "0", "2": "1", "3": "0"}})
    code, out, _ = run_cli(capsys, "bounds", "--source", "motivating", "--point", point)
    payload = json.loads(out)
    check_schema("bounds", payload)
    assert code == 0 and payload["verdict"] == "feasible-under-outer-bound"

    point = json.dumps({"r_K": "1", "r": {"1": "0", "2": "1/2", "3": "0"}})
    code, out, _ = run_cli(capsys, "bounds", "--source", "motivating", "--point", point)
    payload = json.loads(out)
    check_schema("bounds", payload)
    assert payload["verdict"] == "violated" and payload["violations"]


def test_curve_csv(capsys):
    code, out, _ = run_cli(capsys, "curve", "--source", "motivating", "--r-max", "2", "--step", "1/2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "R,upper_bound,achievable"
    assert lines[1] == "0,0,0"
    assert lines[2] == "1/2,1/2,1/2"
    assert lines[-1] == "2,1,1"
    assert "\r" not in out


def test_curve_json(capsys):
    code, out, _ = run_cli(capsys, "curve", "--source", "triangle", "--r-max", "2", "--step", "1", "--output", "json")
    payload = json.loads(out)
    check_schema("curve", payload)
    assert payload[-1] == {"R": "2", "upper_bound": "3/2", "achievable": "3/2"}


def test_curve_non_pin_has_no_achievable_column(capsys):
    code, out, _ = run_cli(capsys, "curve", "--source", "three_user_hyper", "--r-max", "1", "--step", "1")
    assert out.splitlines()[0] == "R,upper_bound"


def test_curve_refuses_a_grid_over_the_row_cap(capsys, monkeypatch):
    import skrates.cli

    code, out, err = run_cli(capsys, "curve", "--source", "triangle", "--r-max", "1", "--step", "1/1000000000")
    assert code == 1 and out == ""
    assert "1000000001 rows" in err and str(skrates.cli.CURVE_MAX_ROWS) in err
    monkeypatch.setattr(skrates.cli, "CURVE_MAX_ROWS", 3)
    code, out, _ = run_cli(capsys, "curve", "--source", "triangle", "--r-max", "2", "--step", "1")
    assert code == 0 and len(out.splitlines()) == 4
    code, _, err = run_cli(capsys, "curve", "--source", "triangle", "--r-max", "3", "--step", "1")
    assert code == 1 and "4 rows; the limit is 3" in err


def test_pack_subcommand(capsys):
    code, out, _ = run_cli(capsys, "pack", "--source", "triangle")
    payload = json.loads(out)
    check_schema("pack", payload)
    assert payload["value"] == "3/2"
    assert payload["rate_point"]["r_K"] == "3/2"


def test_pack_rejects_non_pin(capsys):
    code, _, err = run_cli(capsys, "pack", "--source", "three_user_hyper")
    assert code == 1 and "PIN" in err


def test_simulate_subcommand(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--source", "triangle", "--exhaustive")
    payload = json.loads(out)
    check_schema("simulate", payload)
    assert payload["n"] == 2
    assert payload["report"]["verdict"] == "perfect"
    assert payload["report"]["exhaustive_uniform"] is True
    assert payload["rates"]["r_K"] == "3/2"


def test_exhaustive_cap_is_21_bits(capsys, tmp_path):
    from skrates.source import HypergraphSource, dumps_source

    for h, expected in ((21, 0), (22, 1)):
        p = tmp_path / f"two{h}.json"
        p.write_text(dumps_source(HypergraphSource.of(["1", "2"], [("a", ["1", "2"], h)])))
        code, out, err = run_cli(capsys, "simulate", "--source", str(p), "--exhaustive")
        assert code == expected
    assert not out
    assert err == "error: exhaustive check capped at 21 bits, protocol has 22\n"


def test_simulate_bad_blocklength(capsys):
    code, _, err = run_cli(capsys, "simulate", "--source", "triangle", "--n", "1")
    assert code == 1


def test_greedy_subcommand(capsys):
    code, out, _ = run_cli(capsys, "greedy", "--weights", '{"x": "3", "y": "1"}')
    payload = json.loads(out)
    check_schema("greedy", payload)
    assert payload["mu"] == [
        {"set": ["x"], "value": "2"},
        {"set": ["x", "y"], "value": "1"},
    ]


def test_analyze_subcommand(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--source", "motivating", "--simulate")
    payload = json.loads(out)
    check_schema("analyze", payload)
    assert payload["pin"] is True
    assert payload["capacity"]["C_S"] == "1"
    assert payload["tree_pin"]["C_S"] == "1"
    assert payload["pin_curve"] == {"C_S": "1", "R_S": "1"}
    assert payload["packing"]["value"] == "1"
    assert payload["simulation"]["report"]["verdict"] == "perfect"
    assert payload["certificates"]["thm1"] == 7  # 3 pairs + 4 partitions of V
    assert payload["certificates"]["thm3"] == 4


def test_analyze_non_pin(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--source", "six_user_hyper")
    payload = json.loads(out)
    check_schema("analyze", payload)
    assert payload["pin"] is False and payload["packing"] is None


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(capsys, "capacity", "--source", str(bad))
    assert code == 2 and err
    code, _, _ = run_cli(capsys, "capacity", "--source", str(tmp_path / "missing.json"))
    assert code == 2


def test_byte_identical_output():
    env = dict(os.environ)
    runs = [
        subprocess.run(
            [sys.executable, "-m", "skrates.cli", "analyze", "--source", "triangle"],
            capture_output=True,
            env=env,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1] and runs[0]


def _path_source(tmp_path, m):
    from skrates.source import HypergraphSource, dumps_source

    vertices = [str(i) for i in range(m)]
    edges = [(f"e{i}", [str(i), str(i + 1)], 1) for i in range(m - 1)]
    p = tmp_path / f"path{m}.json"
    p.write_text(dumps_source(HypergraphSource.of(vertices, edges)))
    return str(p)


def test_certificate_cap_names_the_source_size(capsys, tmp_path):
    path = _path_source(tmp_path, 11)
    point = json.dumps({"r_K": "0", "r": {str(i): "0" for i in range(11)}})
    for argv in (
        ["bounds", "--source", path, "--point", point],
        ["curve", "--source", path, "--r-max", "1", "--step", "1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and not out
        assert err == "error: certificate enumeration capped at m <= 10 vertices; this source has m = 11\n"


def test_mmi_cap_names_the_set_size(capsys, tmp_path):
    code, out, err = run_cli(capsys, "mmi", "--source", _path_source(tmp_path, 17))
    assert code == 1 and not out
    assert err == "error: MMI capped at |B| <= 16; this set has |B| = 17\n"


def test_analyze_streams_the_certificates(capsys, tmp_path):
    import random
    import tracemalloc

    from oracles import bell_numbers, random_hypergraph
    from skrates.source import dumps_source

    p = tmp_path / "m8.json"
    p.write_text(dumps_source(random_hypergraph(random.Random(8900), 8)))
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "analyze", "--source", str(p))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    bell = bell_numbers(8)
    pairs = sum(math.comb(8, size) * (bell[size] - 1) for size in range(2, 9))
    counts = json.loads(out)["certificates"]
    assert (counts["thm1"], counts["thm3"]) == (pairs, bell[8] - 1)
    assert peak < 5_000_000, peak


def test_analyze_triangle_matches_worked_values(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--source", "triangle")
    payload = json.loads(out)
    assert payload["capacity"]["C_S"] == "3/2"
    assert payload["pin_curve"]["R_S"] == "3/2"
    assert payload["capacity"]["fundamental"] == [["1"], ["2"], ["3"]]
    assert payload["tree_pin"] is None


def test_analyze_pin_runs_capacity_once(capsys, monkeypatch):
    import skrates.bounds
    import skrates.cli

    _, expected, _ = run_cli(capsys, "analyze", "--source", "triangle")
    original = skrates.cli.capacity
    calls = []

    def counted(source):
        calls.append(source)
        return original(source)

    monkeypatch.setattr(skrates.cli, "capacity", counted)
    monkeypatch.setattr(skrates.bounds, "capacity", counted)
    code, out, _ = run_cli(capsys, "analyze", "--source", "triangle")
    assert code == 0 and out == expected
    assert len(calls) == 1
