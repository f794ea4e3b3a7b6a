"""The golden corpus: what the CLI prints for a fixed list of probes.

golden/manifest.json maps each probe, the shell words after `h2cost`, to
its exit code, its stderr text, and the sha256 and length of its stdout
and of the file its --out names. A probe runs with golden/ as the working
directory and COLUMNS=80, so no path or terminal width of the machine
reaches stderr or help. In a probe, {out} stands for a fresh file outside
the tree, and a last word ">&-" runs it with stdout closed.

    python tests/golden.py [--python PATH]... [--write DIR]

runs every probe as `PATH -m h2cost.cli ...` (PATH defaults to this
interpreter) with this checkout's src/ on PYTHONPATH, prints each probe
whose record differs from the manifest, and exits 1 if any does. Given
--python more than once, it checks the corpus under each interpreter in
turn, with one summary line each. --write, which takes a single --python,
also writes DIR/manifest.json, the records of this run, and the bytes of
the n-th probe as DIR/<n>.stdout, DIR/<n>.stderr and DIR/<n>.out, so that
the outputs of two checkouts can be diffed. A change that moves bytes on
purpose copies DIR/manifest.json over golden/manifest.json and names each
probe that moved. tests/test_golden.py runs the same probes in-process.
"""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"
SRC = GOLDEN.parents[1] / "src"
EXAMPLE = "../../configs/example_config.json"
CLOSED = ">&-"

_SCENARIOS = ("", " --scenario aps-2050",
              f" --config {EXAMPLE} --scenario offpeak-2020",
              f" --config {EXAMPLE} --scenario nze-2050")
PROBES = [
    # Reports: both formats, the shipped and the example scenarios.
    *(f"{command} --format {fmt}{scenario}{out}"
      for command in ("lcoh", "frontier") for fmt in ("csv", "json")
      for scenario in _SCENARIOS for out in ("", " --out {out}")),
    "breakeven", "breakeven --target 2.0", "breakeven --technology PEM",
    "breakeven --technology SOEC --target 2.5",
    f"breakeven --config {EXAMPLE} --scenario nze-2050",
    f"breakeven --config {EXAMPLE} --scenario offpeak-2020 --target 9",
    "crossover", "crossover --zero-year 2040", "crossover --constant",
    f"crossover --config {EXAMPLE}",
    f"crossover --config {EXAMPLE} --zero-year 2050",
    "validate", f"validate --config {EXAMPLE}",
    # Help, usage and version.
    "", "--help", "--version", *(f"{command} --help" for command in (
        "lcoh", "breakeven", "crossover", "frontier", "validate")),
    # Argument errors (exit 2), input errors (1), no solution (3).
    "bogus", "lcoh --format xml", "breakeven --target",
    # A word that starts with "--=" is the top level's ambiguous option.
    "lcoh --=x", "validate '--= x'", "bogus --=x",
    # A first word of "--" is the invalid command on every release.
    "-- bogus", "-- lcoh",
    "breakeven --technology pem",
    "crossover --zero-year 2_040", "crossover --zero-year 2040 --constant",
    "lcoh --scenario nowhere", f"breakeven --config {EXAMPLE}",
    "breakeven --target abc", "breakeven --target 0",
    "crossover --zero-year 2020",
    "lcoh --dataset ''", "validate --config ''", "lcoh --out ''",
    "lcoh --out .", f"validate {CLOSED}", f"lcoh {CLOSED}",
    f"lcoh --format json --out {{out}} {CLOSED}",
    "validate --config bad.json", "validate --config leakage.json",
    "lcoh --config leakage.json", "validate --config underflow.json",
    # validate passes a price rule that overflows each state's cells.
    "validate --config multiplier.json",
    "lcoh --config multiplier.json --scenario m",
    "validate --dataset latin1.csv", "validate --dataset below-base.json",
    # Missing paths, as messages print them.
    "validate --dataset ./missing.csv", "validate --dataset .//missing.csv",
    "validate --dataset nowhere//missing.csv",
    "validate --dataset ../missing.csv",
    "validate --dataset nowhere/../missing.csv",
    "validate --dataset missing.csv/", "validate --config ./missing.json/",
    "validate --dataset //missing.csv",
    # Paths that name a file or directory by another spelling.
    "validate --dataset .", "validate --dataset ./crlf.csv/", "lcoh --out ./",
    # A cumulative target below its technology's base.
    "validate --config below-base.json", "lcoh --config below-base.json",
    "crossover --config below-base.json",
    # Datasets the plain split refuses, and plain ones with bad cells.
    *(f"{command} --dataset {name}" for name in ("crlf.csv", "quoted.csv")
      for command in ("lcoh", "lcoh --format json", "frontier", "breakeven",
                      "crossover", "validate")),
    "validate --dataset bad-crlf.csv", "lcoh --dataset bad-crlf.csv",
    "validate --dataset bad-cell.csv",
    "lcoh --no-strict --dataset bad-cell.csv",
    "validate --dataset blank-rows.csv",
    "lcoh --no-strict --dataset blank-rows.csv",
    "lcoh --format json --no-strict --dataset blank-rows.csv",
    "validate --no-strict --dataset blank-rows.csv",
    "validate --no-strict --dataset no-rows.csv",
    # A breakeven price beyond the float range, in the command and the report.
    "breakeven --config breakeven-inf.json",
    "lcoh --format json --config breakeven-inf.json",
    # A fixed-target breakeven builds every line, as validate checks them.
    "breakeven --technology PEM --target 3 --config alkaline-overflow.json",
    # crossover builds no LCOH record, so an overflowing cost still solves.
    "crossover --config alkaline-overflow.json",
    # A PEM efficiency other than the registry default: the command's years
    # and the report's come from the same kWh/kg.
    "crossover --config pem-efficiency.json --zero-year 2071",
    "lcoh --format json --config pem-efficiency.json",
    # A state code that prints as AK but holds a Greek capital alpha.
    "validate --dataset look-alike.csv",
    # CR-only line ends, and plain files whose cells parse but fail a check.
    "validate --dataset cr.csv", "lcoh --format json --dataset cr.csv",
    "validate --dataset inf.csv", "lcoh --dataset inf.csv",
    "validate --dataset duplicate.csv",
    # Config checks: a repeated key or scenario name, an unknown name, field,
    # key or section.
    *(f"validate --config {name}.json" for name in (
        "repeated-key", "repeated-scenario", "unknown-technology",
        "unknown-target", "unknown-case", "unknown-tech-field",
        "unknown-smr-field", "unknown-rule-key", "unknown-trajectory-key",
        "unknown-scenario-key", "unknown-section")),
    # A config that lists no scenario.
    "validate --config no-scenarios.json", "lcoh --config no-scenarios.json",
    # Messages whose text holds a line break: a scenario name, and paths
    # (quoted, so that the word keeps its break).
    "validate --config newline-scenario.json",
    "lcoh --dataset 'a\nb.csv'", "validate --config 'c\nd.json'",
    "validate --dataset 'e\r\v\f\x1c\x1d\x1e\x85\u2028\u2029f.csv'",
    # The checks of TechnologyParams, SmrParams and Scenario: one probe for
    # each message a config file can reach.
    *(f"validate --config {name}.json" for name in (
        "tech-learning-rate", "tech-discount-rate", "tech-unit-cost",
        "tech-efficiency", "smr-base-cost", "smr-one-anchor", "smr-anchor-ci",
        "smr-anchor-order", "smr-leakage", "scenario-capacity-factor",
        "scenario-zero-target", "scenario-lifetime", "scenario-om",
        "scenario-target-year")),
]


def words(probe: str) -> tuple[list[str], bool]:
    """The argv of probe, and whether it runs with stdout closed."""
    argv = shlex.split(probe)
    closed = argv[-1:] == [CLOSED]
    return argv[:-1] if closed else argv, closed


def _digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def record(code: int, stdout: bytes, stderr: bytes, out: bytes | None) -> dict:
    """A probe's manifest entry: out is the --out file's bytes, or None if
    the probe wrote none."""
    entry = {"exit": code, "stderr": stderr.decode(), "stdout": _digest(stdout)}
    if out is not None:
        entry["out"] = _digest(out)
    return entry


def run_process(python: str, probe: str, tmp: Path) -> tuple:
    """(record, stdout, stderr, out bytes) of probe run as a process."""
    argv, closed = words(probe)
    out = tmp / "out"
    out.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(SRC), COLUMNS="80", PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [python, "-m", "h2cost.cli",
         *(word.replace("{out}", str(out)) for word in argv)],
        cwd=GOLDEN, env=env, capture_output=True,
        preexec_fn=(lambda: os.close(1)) if closed else None)
    written = out.read_bytes() if out.exists() else None
    return (record(proc.returncode, proc.stdout, proc.stderr, written),
            proc.stdout, proc.stderr, written)


def check(python: str, expected: dict, dump: Path | None) -> int:
    """Run every probe under python, print each whose record differs from
    expected and a summary line, and return how many differ. With dump,
    write this run's manifest and output bytes there."""
    records, differ = {}, 0
    with tempfile.TemporaryDirectory() as tmp:
        for n, probe in enumerate(PROBES):
            entry, stdout, stderr, out = run_process(python, probe, Path(tmp))
            records[probe] = entry
            if entry != expected.get(probe):
                differ += 1
                print(f"differs: h2cost {probe}\n  manifest: "
                      f"{expected.get(probe)}\n  this run: {entry}")
            if dump:
                (dump / f"{n}.stdout").write_bytes(stdout)
                (dump / f"{n}.stderr").write_bytes(stderr)
                if out is not None:
                    (dump / f"{n}.out").write_bytes(out)
    if dump:
        (dump / "manifest.json").write_text(json.dumps(records, indent=1)
                                            + "\n")
    print(f"{len(PROBES) - differ} of {len(PROBES)} probes match the manifest "
          f"under {python}")
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--python", action="append",
                        help="interpreter to run the CLI with (default: this "
                             "one); repeat it to check under each in turn")
    parser.add_argument("--write", metavar="DIR",
                        help="write this run's manifest and output bytes here")
    args = parser.parse_args(argv)
    pythons = args.python or [sys.executable]
    if args.write and len(pythons) > 1:
        parser.error("--write takes a single --python")
    expected = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    dump = Path(args.write) if args.write else None
    if dump:
        dump.mkdir(parents=True, exist_ok=True)
    differ = [check(python, expected, dump) for python in pythons]
    return 1 if any(differ) else 0


if __name__ == "__main__":
    sys.exit(main())
