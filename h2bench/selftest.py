"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q h2bench/selftest.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _snapshot(make, seed, directory):
    ops = make(seed, directory)
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    argvs = [[a.replace(str(directory), "<dir>") for a in op.argv] for op in ops]
    return files, argvs, [(op.key, op.kind, op.expect_code) for op in ops]


@pytest.mark.parametrize("make", [gen.report_inputs, gen.validate_pool])
def test_generator_is_a_function_of_the_seed(tmp_path, make):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _snapshot(make, 7, dirs[0])
    assert _snapshot(make, 7, dirs[1]) == first
    assert _snapshot(make, 8, dirs[2])[0] != first[0]


def test_inputs_have_the_promised_shape(tmp_path):
    assert len(gen.STATES) == 676 and gen.STATES[0] == "AA" and gen.STATES[-1] == "ZZ"
    ops = gen.report_inputs(1, tmp_path)
    assert [op.expect["scenario"] for op in ops] == [f"s{i:02d}" for i in range(16)]
    slopes = {op.expect["price_slope"] for op in ops}
    assert 0.0 in slopes and 1.0 in slopes and len(slopes) > 2  # all price rules
    scenarios = json.loads((tmp_path / "report.json").read_text())["scenarios"]
    carbon_free = [i for i, sc in enumerate(scenarios)
                   if sc["grid_trajectory"].get("zero_year", 9999) <= sc["target_year"]]
    assert carbon_free == list(gen.ALL_TIES)
    assert all(scenarios[i]["electricity_price_rule"]["kind"] == "fixed"
               for i in gen.ALL_TIES)
    pool = gen.validate_pool(1, tmp_path)
    kinds = [op.kind for op in pool]
    assert len(pool) == gen.POOL_SIZE
    assert sorted(k for k in kinds if k != "valid") == sorted(gen.INVALID_KINDS)
    assert any("--no-strict" in op.argv for op in pool)
    assert len(gen.cli_cold_ops(1, Path("cfg.json"))) == 10


def test_self_time_of_a_hand_built_span_tree():
    tracer = spans.Tracer()
    root = tracer.add("cli.main", 0.0, 10.0, -1, op=1)
    a = tracer.add("analysis.state_table", 1.0, 4.0, root, op=1)
    tracer.add("electrolysis.lcoh", 2.0, 3.0, a, op=1)
    tracer.add("cli._summary", 3.0, 6.0, root, op=1)       # overlaps a
    tracer.add("cli._rows_csv", 9.0, 12.0, root, op=1)     # runs past root
    tracer.add("cli.main", 20.0, 21.5, -1, op=2)
    assert spans.self_times(tracer.start, tracer.end, tracer.parent) == [
        10.0 - 5.0 - 1.0, 2.0, 1.0, 3.0, 3.0, 1.5]
    by_op = spans.per_op(tracer)
    assert by_op[1]["cli.main"] == [1, 4.0]
    assert by_op[2]["cli.main"] == [1, 1.5]
    m = spans.op_metrics(by_op[1], {})
    assert m["cli.self_ms"] == pytest.approx((4.0 + 3.0 + 3.0) * 1e3)
    assert m["electrolysis.lcoh.calls"] == 1


def test_importtime_parser():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:       300 |        300 |       dataclasses",
        "import time:      2000 |       2300 |     h2cost.model",
        "import time:        50 |       2350 |   h2cost",
        "import time:       400 |        400 |   argparse",
        "import time:       600 |       3350 | h2cost.cli",
    ])
    m = spans.parse_importtime(text)
    assert m["import.h2cost.model.self_ms"] == 2.0
    assert m["import.h2cost.cli.self_ms"] == 0.6
    assert m["import.h2cost.total_ms"] == 3.35
    assert m["import.stdlib_ms"] == pytest.approx(0.7)


def test_layer_map_covers_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["map"]
    mapped = [name for row in layers for name in row["layers"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])


def test_checks_reject_tracebacks_and_silent_acceptance():
    op = gen.Op(["validate"], "validate:0", expect_code=1, kind="price_inf")
    ok = checks.Outcome(1, "", "h2cost: error: bad price\n", b"")
    assert checks.check(op, ok) is None
    assert checks.check(op, checks.Outcome(0, "", "", b"")) == "exit code 0, expected 1"
    tb = checks.Outcome(None, "", "Traceback (most recent call last):\n...", b"")
    assert checks.check(op, tb) == "traceback"


def test_tracer_sees_every_lcoh_call_of_a_report(tmp_path):
    """One report-676 op calls electrolysis.lcoh 676 x 3 + 3 = 2031 times:
    one per (state, technology) row plus one breakeven floor per
    technology. A missed alias would show as a lower count here and as a
    mismatch against the profiler's count."""
    from h2cost import cli
    op = gen.report_inputs(1, tmp_path)[0]
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        checked = run.self_check(cli.main, op, tracer, undo, op_id=0)
    finally:
        spans.uninstall(undo)
    assert checked["missed"] == {}
    assert checked["traced_calls"]["electrolysis.lcoh"] == 676 * 3 + 3
    assert checked["traced_calls"]["analysis.StateResult.new"] == 676 * 5
    assert all(getattr(m, a) is orig for m, a, orig, _ in undo)
