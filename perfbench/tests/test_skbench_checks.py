"""The benchmark's own reference values and checkers.

Every checker must accept the program's real output and reject a corrupted
copy of it; the reference capacities must match values derived by hand.
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import skrates.cli  # noqa: E402
from skbench import checks, gen  # noqa: E402
from skbench.oracle import Reference, set_partitions  # noqa: E402

DATA = ROOT / "src" / "skrates" / "data"


def bundled(name: str) -> dict:
    return json.loads((DATA / f"{name}.json").read_text())


def run_cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert skrates.cli.main(argv) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def checker():
    return checks.Checker(ROOT / "docs" / "schemas")


def make_op(argv, name, kind, extra):
    return gen.Op(argv, hash(name), kind, bundled(name), extra)


@pytest.mark.parametrize(
    "name, C_S, R_CO",
    [
        # Three unit edges on a triangle: every pair shares one bit, and the
        # singleton partition gives (2 + 2 + 2 - 3) / 2.
        ("triangle", Fraction(3, 2), Fraction(3, 2)),
        # Pair weights 1 on {1,2} and 2 on {2,3}: a tree, so C_S is the
        # smallest weight and R_CO = H - C_S = 3 - 1.
        ("motivating", Fraction(1), Fraction(2)),
        # Path with weights 2, 1, 3.
        ("tree_pin_4", Fraction(1), Fraction(5)),
        # The shared edge c plus one more bit from a and b: every partition
        # into two or three blocks gives at least 2.
        ("three_user_hyper", Fraction(2), Fraction(1)),
    ],
)
def test_reference_capacity_by_hand(name, C_S, R_CO):
    ref = Reference(bundled(name))
    assert ref.C_S == C_S
    assert ref.R_CO == R_CO


def test_set_partitions_counts_bell_numbers():
    assert [sum(1 for _ in set_partitions(list(range(n)))) for n in range(1, 7)] == [1, 2, 5, 15, 52, 203]


def curve_op():
    argv = ["curve", "--source", str(DATA / "motivating.json"), "--r-max", "2", "--step", "1/2", "--output", "json"]
    return make_op(argv, "motivating", "pin", {"r_max": Fraction(2), "step": Fraction(1, 2)})


def test_curve_checker_accepts_and_rejects_achievable_off_by_half(checker):
    op = curve_op()
    text = run_cli(op.argv)
    assert checker.check(op, text) == []
    rows = json.loads(text)
    rows[1]["achievable"] = str(Fraction(rows[1]["achievable"]) + Fraction(1, 2))
    assert checker.check(op, json.dumps(rows))


def test_curve_checker_rejects_upper_bound_below_capacity_past_rco(checker):
    op = curve_op()
    rows = json.loads(run_cli(op.argv))
    rows[-1]["upper_bound"] = rows[-1]["achievable"] = "1/2"
    assert checker.check(op, json.dumps(rows))


def bounds_op(name, kind, point):
    argv = ["bounds", "--source", str(DATA / f"{name}.json"), "--point", json.dumps(point)]
    return make_op(argv, name, kind, {"point": point, "cold": True})


def test_region_checker_rejects_flipped_verdict(checker):
    point = {"r_K": "2", "r": {"1": "1", "2": "1", "3": "1"}}
    op = bounds_op("triangle", "pin", point)
    text = run_cli(op.argv)
    assert checker.check(op, text) == []
    obj = json.loads(text)
    assert obj["verdict"] == checks.VIOLATED
    obj["verdict"] = checks.FEASIBLE
    assert checker.check(op, json.dumps(obj))
    obj["violations"] = []
    assert any("C_S" in err for err in checker.check(op, json.dumps(obj)))


def test_region_checker_rejects_wrong_rhs(checker):
    point = {"r_K": "1", "r": {"1": "0", "2": "0", "3": "0"}}
    op = bounds_op("triangle", "pin", point)
    obj = json.loads(run_cli(op.argv))
    assert obj["violations"]
    ineq = obj["violations"][0]["inequality"]
    ineq["rhs"] = str(Fraction(ineq["rhs"]) - 1)
    assert any("inequality" in err for err in checker.check(op, json.dumps(obj)))


def test_region_checker_uses_tree_pin_closed_form(checker):
    point = {"r_K": "1", "r": {"1": "0", "2": "1", "3": "1", "4": "0"}}
    op = bounds_op("tree_pin_4", "tree", point)
    text = run_cli(op.argv)
    assert json.loads(text)["verdict"] == checks.FEASIBLE
    assert checker.check(op, text) == []
    obj = json.loads(text)
    obj["verdict"] = checks.VIOLATED
    assert any("tree PIN" in err for err in checker.check(op, json.dumps(obj)))


def test_protocol_checker_rejects_key_rate_other_than_capacity(checker):
    argv = ["simulate", "--source", str(DATA / "triangle.json"), "--exhaustive"]
    op = make_op(argv, "triangle", "pin", {"bits": 6})
    text = run_cli(op.argv)
    assert checker.check(op, text) == []
    obj = json.loads(text)
    obj["rates"]["r_K"] = "1"
    assert any("C_S" in err for err in checker.check(op, json.dumps(obj)))


def test_checker_rejects_schema_violation(checker):
    op = curve_op()
    rows = json.loads(run_cli(op.argv))
    rows[0]["extra"] = "1"
    assert checker.check(op, json.dumps(rows))[0].startswith("schema:")


def test_generated_inputs_repeat_for_a_seed():
    a = gen.pin_source(random.Random("s"), 5, 7)
    assert a == gen.pin_source(random.Random("s"), 5, 7)
    assert a != gen.pin_source(random.Random("t"), 5, 7)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_protocol_sources_have_integral_capacity_and_exact_bits(m):
    rng = random.Random(m)
    for bits in (16, 20):
        source = gen.protocol_source(rng, m, bits)
        ref = Reference(source)
        assert sum(h for _, h in ref.edges) == bits
        assert ref.C_S.denominator == 1
        assert (m - 1) * ref.C_S <= gen.PROTOCOL_MAX_FORMS
