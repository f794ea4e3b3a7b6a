"""h2cost benchmark: one workload per process, one closed-loop client.

Run from the root of a checkout; the package is used from ``src/``, not
installed:

    python3 h2bench/run.py --workload report-676 --seed 1 --seconds 30 --trace 0
    python3 -m pytest -q h2bench/selftest.py      # the benchmark's own tests

Workloads (BENCHMARK.json says why each exists):

- ``cli-cold``: one ``python -m h2cost.cli`` process per operation, cycling
  through a fixed command list on the packaged 51-state dataset and
  ``configs/example_config.json``.
- ``report-676``: in-process ``cli.main(["lcoh", "--format", "json", ...])``
  on a seeded 676-state dataset, cycling through 16 seeded scenarios.
- ``validate-676``: in-process ``cli.main(["validate", ...])`` over a seeded
  pool of 64 inputs, one in eight of them invalid.

Each operation runs only after the previous one returned, with no threads.
Every operation's output is checked (checks.py). An operation on a valid
input fails when it does not end as expected; ``failed`` counts those, and
any of them, or a tracer that misses calls, makes ``correct`` false. The
invalid inputs of validate-676 exercise known gaps in input handling: one
the program does not reject cleanly is not a failed operation but a miss,
counted per kind in the record and measured by ``ok_rate``.

``--trace 0`` measures the end-to-end metrics. Times are rescaled to a
nominal machine speed with references taken next to each sample
(speed.py); the raw wall times are printed and recorded too.

- ``setup_s``: median of 7 set-ups, each generating the inputs and
  importing h2cost.cli in a fresh interpreter.
- ``op_ms.p50``, ``op_ms.p90``: time per operation, at least 100 samples
  that cover whole cycles of the workload's input list.
- ``ops_per_s``: operations per second of operation time.
- ``ok_rate``: of those same operations, the share that ended as expected,
  failures and misses both counted against it, that is 1 - error rate (a
  metric that can read 0 cannot be bounded). ``attempted`` counts every
  operation of the run.
- ``peak_rss_mb``: maximum RSS of this process, or for cli-cold of the
  largest CLI process.
- ``cli_vs_python.p50``: median over interleaved pairs of the wall time of
  a CLI process running the workload's operation over that of
  ``python -c pass``; in-process workloads run these pairs in the last
  half of the run.
- ``import_ms.p50``: ``import h2cost.cli`` timed inside a fresh interpreter.

``--trace 1`` runs the outside-in tracer (spans.py) and measures the
per-layer metrics that h2bench/layers.json maps to the end-to-end ones.
Every metric is printed by name and unit; the last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A fuller record (sample counts, per-op series, report
sha256s, failures, environment) is written to ``.h2bench_out/``, and the
spans of a traced run next to it.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import gen
import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXAMPLE_CONFIG = ROOT / "configs" / "example_config.json"
OUT_DIR = ROOT / ".h2bench_out"
TMP_DIR = ROOT / ".h2bench_tmp"
WORKLOADS = ("cli-cold", "report-676", "validate-676")

SETUP_REPEATS = 7       # set-ups per run; setup_s is their median
MIN_OPS = 100           # at least ten op_ms samples lie beyond p90
MIN_PAIRS = 20          # CLI / bare-interpreter pairs per run
COLD_IMPORT_EVERY = 3   # cli-cold: an import probe after every third pair,
                        # so more of the run goes to op_ms samples
LOOP_SHARE = 0.5        # in-process: share of --seconds for the op loop
WARMUP_OPS = 2
IMPORT_PROFILES = 8     # fresh `-X importtime` interpreters per traced run
SPAN_BUDGET = 250_000   # traced in-process ops stop past this many spans
MIN_TRACED_OPS = 10     # per traced run, traced and untraced each
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import h2cost.cli; "
                "print((time.perf_counter() - t0) * 1e3)")


def _p(samples, q: int) -> float:
    """q-th percentile (q in 10..90) of at least two samples."""
    return statistics.quantiles(samples, n=10)[q // 10 - 1]


class Tally:
    """Attempted operations, and which did not end as expected and why.

    ``failed`` counts operations on valid inputs only; an invalid input the
    program does not reject cleanly is a miss, counted in ``by_kind``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.missed = 0
        self.by_kind: dict[str, list[int]] = {}   # kind -> [attempted, not ok]
        self.reasons: dict[str, str] = {}          # kind -> first reason
        self.valid_failures: list[str] = []
        self.determinism = checks.Determinism()

    def record(self, op: gen.Op, res: checks.Outcome) -> bool:
        """Check one outcome; True when the op ended as expected."""
        reason = checks.check(op, res)
        if reason is None and op.kind == "valid":
            reason = self.determinism.check(op, res)
        self.attempted += 1
        cell = self.by_kind.setdefault(op.kind, [0, 0])
        cell[0] += 1
        if reason is not None:
            cell[1] += 1
            self.reasons.setdefault(op.kind, f"{op.key}: {reason}")
            if op.kind != "valid":
                self.missed += 1
            else:
                self.failed += 1
                if len(self.valid_failures) < 5:
                    self.valid_failures.append(f"{op.key}: {reason}")
        return reason is None


class Children:
    """Runs child interpreters with the checkout's src/ on PYTHONPATH."""

    def __init__(self, tmp: Path) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # Children compile h2cost once and reuse the cached bytecode, as an
        # installed package does.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.stdout, self.stderr = tmp / "child.out", tmp / "child.err"

    def run(self, argv: list[str]):
        """(wall seconds, exit code, stdout bytes, stderr text, max RSS KiB)."""
        with open(self.stdout, "wb") as so, open(self.stderr, "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=so, stderr=se, env=self.env,
                                    cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (t1 - t0, proc.returncode, self.stdout.read_bytes(),
                self.stderr.read_text(encoding="utf-8", errors="replace"),
                usage.ru_maxrss)

    def bare(self) -> float:
        return self.run([sys.executable, "-c", "pass"])[0]

    def import_ms(self) -> float:
        _, code, out, err, _ = self.run([sys.executable, "-c", IMPORT_PROBE])
        if code != 0:
            raise RuntimeError(f"import h2cost.cli failed: {err}")
        return float(out)

    def cli(self, op: gen.Op, prefix=None):
        """Run op as a CLI process: (wall seconds, Outcome, max RSS KiB)."""
        if op.out:
            Path(op.out).unlink(missing_ok=True)
        argv = prefix or [sys.executable, "-m", "h2cost.cli"]
        wall, code, out, err, rss = self.run([*argv, *op.argv])
        return wall, _outcome(op, code, out, err), rss

    def importtime(self) -> dict[str, float]:
        _, code, _, err, _ = self.run(
            [sys.executable, "-X", "importtime", "-c", "import h2cost.cli"])
        if code != 0:
            raise RuntimeError(f"import h2cost.cli failed: {err}")
        return spans.parse_importtime(err)


def _outcome(op: gen.Op, code, stdout: bytes, stderr: str) -> checks.Outcome:
    payload = stdout
    if op.out:
        out = Path(op.out)
        payload = out.read_bytes() if out.exists() else b""
    return checks.Outcome(code, stdout.decode("utf-8", errors="replace"),
                          stderr, payload)


def run_inprocess(main, op: gen.Op):
    """Call cli.main(op.argv) in this process: (wall seconds, Outcome)."""
    if op.out:
        Path(op.out).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    raised = None
    # Start each op with no garbage pending, so a collection triggered by
    # the previous op's checks does not land inside this op's time.
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # escaped main: a traceback, a failed op
            code, raised = None, exc
        t1 = time.perf_counter()
    stderr = err.getvalue()
    if raised is not None:
        stderr += "".join(traceback.format_exception(raised))
    return t1 - t0, _outcome(op, code, out.getvalue().encode("utf-8"), stderr)


def freeze_heap() -> None:
    """Move everything alive after set-up out of the collector's reach, so
    the collection before each op only scans that op's neighbours."""
    gc.collect()
    gc.freeze()


def make_inputs(workload: str, seed: int, directory: Path) -> list[gen.Op]:
    if workload == "cli-cold":
        return gen.cli_cold_ops(seed, EXAMPLE_CONFIG)
    if workload == "report-676":
        return gen.report_inputs(seed, directory)
    return gen.validate_pool(seed, directory)


def setup(workload: str, seed: int, tmp: Path, children: Children,
          repeats: int):
    """Generate the inputs and import h2cost.cli in a fresh interpreter,
    `repeats` times. Returns (ops of the last set-up, set-up seconds, wall
    milliseconds of a bare interpreter started before each set-up)."""
    times, refs, ops = [], [], []
    for k in range(repeats):
        refs.append(children.bare() * 1e3)
        directory = tmp / f"inputs{k}"
        t0 = time.perf_counter()
        directory.mkdir()
        ops = make_inputs(workload, seed, directory)
        children.import_ms()
        times.append(time.perf_counter() - t0)
        if k + 1 < repeats:
            shutil.rmtree(directory)
    return ops, times, refs


def loop_until(seconds: float, minimum: int, cycle: int = 1):
    """Yield 0, 1, 2, ... until `seconds` passed, `minimum` were yielded and
    the count is a whole number of `cycle`s."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < minimum or i % cycle or time.perf_counter() < deadline:
        yield i
        i += 1


def cli_pairs(ops, children: Children, tally: Tally, seconds: float,
              minimum: int, cycle: int, record: dict,
              import_every: int = 1) -> None:
    """Interleaved (CLI op, bare interpreter) pairs, and an import probe
    after every `import_every`-th pair."""
    for i in loop_until(seconds, minimum, cycle):
        op = ops[i % len(ops)]
        if i % 2:
            bare = children.bare()
        wall, res, rss = children.cli(op)
        if not i % 2:
            bare = children.bare()
        record["ok"].append(tally.record(op, res))
        record["key"].append(op.key)
        record["cli_ms"].append(wall * 1e3)
        record["bare_ms"].append(bare * 1e3)
        record["ratio"].append(wall / bare)
        record["cli_rss_kb"].append(rss)
        if not i % import_every:
            record["import_ms"].append(children.import_ms())
            record["import_ref_ms"].append(bare * 1e3)


def measure(workload: str, seed: int, seconds: float, tmp: Path) -> dict:
    """--trace 0: every end-to-end metric."""
    children = Children(tmp)
    tally = Tally()
    ops, setup_times, setup_refs = setup(workload, seed, tmp, children,
                                         SETUP_REPEATS)
    pairs = {"key": [], "ok": [], "cli_ms": [], "bare_ms": [], "ratio": [],
             "cli_rss_kb": [], "import_ms": [], "import_ref_ms": []}
    if workload == "cli-cold":
        for op in ops[:WARMUP_OPS]:
            tally.record(op, children.cli(op)[1])
        cli_pairs(ops, children, tally, seconds, MIN_OPS, len(ops), pairs,
                  COLD_IMPORT_EVERY)
        keys, op_ms, refs = pairs["key"], pairs["cli_ms"], pairs["bare_ms"]
        oks = pairs["ok"]
        op_norm = speed.rescale(op_ms, refs, speed.BARE_NOMINAL_MS)
        peak_rss_kb = max(pairs["cli_rss_kb"])
    else:
        from h2cost import cli
        for op in ops[:WARMUP_OPS]:
            tally.record(op, run_inprocess(cli.main, op)[1])
        freeze_heap()
        keys, op_ms, refs, oks = [], [], [], []
        for i in loop_until(seconds * LOOP_SHARE, MIN_OPS, len(ops)):
            op = ops[i % len(ops)]
            keys.append(op.key)
            refs.append(speed.kernel())
            wall, res = run_inprocess(cli.main, op)
            op_ms.append(wall * 1e3)
            oks.append(tally.record(op, res))
        op_norm = speed.rescale(op_ms, refs, speed.KERNEL_NOMINAL_MS)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        cli_pairs(ops, children, tally, seconds * (1 - LOOP_SHARE), MIN_PAIRS, 1,
                  pairs)
    setup_norm = speed.rescale(setup_times, setup_refs, speed.BARE_NOMINAL_MS)
    import_norm = speed.rescale(pairs["import_ms"], pairs["import_ref_ms"],
                                speed.BARE_NOMINAL_MS)
    metrics = {
        "setup_s": statistics.median(setup_norm),
        "op_ms.p50": statistics.median(op_norm),
        "op_ms.p90": _p(op_norm, 90),
        "ops_per_s": len(op_norm) / (sum(op_norm) / 1e3),
        "ok_rate": sum(oks) / len(oks),
        "peak_rss_mb": peak_rss_kb / 1024,
        "cli_vs_python.p50": statistics.median(pairs["ratio"]),
        "import_ms.p50": statistics.median(import_norm),
    }
    raw = {"setup_s": statistics.median(setup_times),
           "op_ms.p50": statistics.median(op_ms), "op_ms.p90": _p(op_ms, 90),
           "import_ms.p50": statistics.median(pairs["import_ms"])}
    samples = {"op_ms": len(op_ms), "setup": len(setup_times),
               "pairs": len(pairs["ratio"]), "import_ms": len(pairs["import_ms"])}
    env = {"bare_python_ms.p50": statistics.median(pairs["bare_ms"])}
    series = {"key": keys, "op_ms": op_ms, "ref_ms": refs, "op_ms_rescaled": op_norm}
    return {"metrics": metrics, "raw": raw, "tally": tally, "samples": samples,
            "env": env, "self_check": None, "series": series}


def self_check(main, op: gen.Op, tracer: spans.Tracer, undo: list, op_id: int):
    """Run op once with the tracer and a profiler; every wrapped function
    must have run exactly as often as its wrapper recorded."""
    tracer.op = op_id
    real = spans.call_counts(spans.traced_codes(undo),
                             lambda: run_inprocess(main, op))
    seen = {}
    for nid, o in zip(tracer.name, tracer.op_of):
        if o == op_id:
            name = tracer.names[nid]
            seen[name] = seen.get(name, 0) + 1
    missed = {k: (seen.get(k, 0), real.get(k, 0))
              for k in set(real) | set(seen) if seen.get(k, 0) != real.get(k, 0)}
    return {"op": op.key, "traced_calls": seen, "missed": missed}


def measure_traced(workload: str, seed: int, seconds: float, tmp: Path,
                   spans_path: Path) -> dict:
    """--trace 1: every per-layer metric."""
    children = Children(tmp)
    tally = Tally()
    ops = setup(workload, seed, tmp, children, 1)[0]
    imports = spans.metric_medians([children.importtime()
                                    for _ in range(IMPORT_PROFILES)])
    from h2cost import cli
    tracer = spans.Tracer()
    plain_ms, traced_ms, traced_ops = [], [], []
    check_op = next((op for op in ops if op.argv[0] == "lcoh"), ops[0])
    if workload != "cli-cold":
        for op in ops[:WARMUP_OPS]:
            tally.record(op, run_inprocess(cli.main, op)[1])
        freeze_heap()
        for i in loop_until(seconds * 0.4, MIN_TRACED_OPS):
            op = ops[i % len(ops)]
            wall, res = run_inprocess(cli.main, op)
            plain_ms.append(wall * 1e3)
            tally.record(op, res)
    undo = spans.install(tracer)
    try:
        checked = self_check(cli.main, check_op, tracer, undo, op_id=0)
        if workload != "cli-cold":
            for i in loop_until(seconds * 0.4, MIN_TRACED_OPS):
                if i >= MIN_TRACED_OPS and len(tracer) > SPAN_BUDGET:
                    break
                op = ops[i % len(ops)]
                tracer.op = i + 1
                wall, res = run_inprocess(cli.main, op)
                traced_ms.append(wall * 1e3)
                traced_ops.append((i + 1, op, res))
                tally.record(op, res)
    finally:
        spans.uninstall(undo)
    if workload == "cli-cold":
        child_spans = tmp / "child_spans.tsv"
        prefix = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                  str(child_spans)]
        for i in loop_until(seconds, MIN_TRACED_OPS):
            op = ops[i % len(ops)]
            wall, res, _ = children.cli(op)
            plain_ms.append(wall * 1e3)
            tally.record(op, res)
            child_spans.unlink(missing_ok=True)
            wall, res, _ = children.cli(op, prefix=prefix)
            traced_ms.append(wall * 1e3)
            tally.record(op, res)
            tracer.extend(spans.load(child_spans), op=i + 1)
            traced_ops.append((i + 1, op, res))

    by_op = spans.per_op(tracer)
    per_op_metrics = []
    for op_id, op, res in traced_ops:
        m = spans.op_metrics(by_op.get(op_id, {}),
                             {k: v for (o, k), v in tracer.counters.items()
                              if o == op_id})
        m["cli.bytes_out"] = len(res.stdout.encode("utf-8")) + (
            len(res.payload) if op.out else 0)
        kept = tracer.counters.get((op_id, "ingest.rows_kept"))
        if kept is not None:
            m["ingest.rows_kept_ratio"] = kept / op.rows_total
        per_op_metrics.append(m)
    metrics = spans.metric_medians(per_op_metrics)
    metrics.setdefault("ingest.rows_kept_ratio", 0.0)
    metrics.update(imports)
    metrics["trace.overhead_ms"] = (statistics.median(traced_ms)
                                    - statistics.median(plain_ms))
    tracer.dump(spans_path)
    samples = {"plain_ops": len(plain_ms), "traced_ops": len(traced_ms),
               "spans": len(tracer), "import_profiles": IMPORT_PROFILES}
    return {"metrics": metrics, "raw": {}, "tally": tally, "samples": samples,
            "env": {}, "self_check": checked, "series": None}


def load_metric_specs(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "h2cost" / "cli.py").is_file() or not EXAMPLE_CONFIG.is_file():
        print(f"h2bench: no h2cost checkout at {ROOT} (need src/h2cost and "
              "configs/example_config.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    specs = load_metric_specs(args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    TMP_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=TMP_DIR))
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed, args.seconds, tmp,
                                    OUT_DIR / f"{stem}.spans.tsv.gz")
        else:
            result = measure(args.workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP_DIR.exists() and not any(TMP_DIR.iterdir()):
            TMP_DIR.rmdir()

    tally, measured = result["tally"], result["metrics"]
    problems = [f"output check failed on a valid input: {r}"
                for r in tally.valid_failures]
    checked = result["self_check"]
    if checked is not None and checked["missed"]:
        problems.append("tracer missed calls (wrapper count, real count): "
                        f"{checked['missed']}")
    missing = [s["name"] for s in specs if s["name"] not in measured]
    problems += [f"metric not measured: {name}" for name in missing]
    metrics = {s["name"]: {"value": measured[s["name"]], "unit": s["unit"]}
               for s in specs if s["name"] in measured}
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           **result["env"]}

    print(f"h2bench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for name, value in result["raw"].items():
        print(f"  raw wall {name:<35} {value:>14.6g}")
    print("  samples: " + ", ".join(f"{k}={v}" for k, v in result["samples"].items()))
    not_ok = tally.failed + tally.missed
    print(f"  operations: attempted={tally.attempted} failed={tally.failed} "
          f"missed_invalid={tally.missed} "
          f"error_rate={not_ok / tally.attempted:.6g}")
    for kind, (n, bad) in sorted(tally.by_kind.items()):
        if bad:
            print(f"    {kind}: {bad}/{n} not as expected, "
                  f"e.g. {tally.reasons[kind]}")
    if checked is not None:
        lcoh = checked["traced_calls"].get("electrolysis.lcoh", 0)
        print(f"  tracer self-check on {checked['op']}: "
              f"{'ok' if not checked['missed'] else 'MISSED CALLS'}, "
              f"electrolysis.lcoh.calls={lcoh}")
    for p in problems:
        print(f"  FAIL: {p}")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "metrics": metrics, "raw_wall": result["raw"],
              "samples": result["samples"],
              "attempted": tally.attempted, "failed": tally.failed,
              "missed_invalid": tally.missed,
              "failures_by_kind": {k: {"attempted": n, "not_ok": bad,
                                       "example": tally.reasons.get(k)}
                                   for k, (n, bad) in tally.by_kind.items()},
              "sha256": tally.determinism.sha, "self_check": checked,
              "series": result["series"],
              "problems": problems}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")
    print(f"  record: {(OUT_DIR / f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
