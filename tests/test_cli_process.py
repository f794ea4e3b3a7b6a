"""The CLI run as its own process, as `python -m h2cost.cli` and the
installed `h2cost` script run it.

A process's `main()` freezes the collector's heap once its command has
returned, so the collections at interpreter exit skip it; an in-process
`main(argv)` never does. Each command ends the same way in a process as
in-process, and a command that would write to a closed stdout is one
error line.
"""

import gc
import os
import string
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "h2bench"))

import gen  # noqa: E402
import run as bench  # noqa: E402

from h2cost.cli import COMMANDS, main  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
# With PYTHONUNBUFFERED set, CPython drops the rest of a write that a
# closed pipe cut short and exits 0; the children run with the default.
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
       "PYTHONPATH": str(SRC), "COLUMNS": "80"}
CLOSED = "h2cost: error: standard output is closed\n"


def child(argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "h2cost.cli", *argv],
                          capture_output=True, env=ENV, **kwargs)


def in_process(capsys, argv):
    """(exit code, stdout, stderr) of main(argv) in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


COLD_OPS = gen.cli_cold_ops(1, bench.EXAMPLE_CONFIG)
OTHER_ARGV = {
    "help": ["--help"],
    "command-help": ["frontier", "--help"],
    "version": ["--version"],
    "no-command": [],
    "usage-error": ["lcoh", "--format", "xml"],
    "input-error": ["lcoh", "--scenario", "nowhere"],
    "no-solution": ["breakeven", "--target", "0"],
}


@pytest.mark.parametrize(
    "argv", [op.argv for op in COLD_OPS] + list(OTHER_ARGV.values()),
    ids=[op.key for op in COLD_OPS] + list(OTHER_ARGV))
def test_a_process_ends_as_main_argv_does(monkeypatch, capsys, argv):
    """Every cli-cold command, and help, version and the error exits, give
    the same exit code, stdout and stderr as a process as in-process."""
    monkeypatch.setenv("COLUMNS", ENV["COLUMNS"])   # the width of help
    proc = child(argv)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) \
        == in_process(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["lcoh"], ["lcoh", "--format", "json"],
    ["frontier"], ["frontier", "--format", "json"],
], ids=["lcoh-csv", "lcoh-json", "frontier-csv", "frontier-json"])
@pytest.mark.parametrize("stdout_closed", [False, True],
                         ids=["stdout", "stdout-closed"])
def test_a_process_writes_the_out_bytes_main_argv_writes(tmp_path, capsys,
                                                          argv, stdout_closed):
    """--out gets the same bytes from a process, whether its stdout is
    open or closed."""
    out = tmp_path / "out"
    argv = [*argv, "--out", str(out)]
    assert in_process(capsys, argv) == (0, "", "")
    expected = out.read_bytes()
    out.unlink()
    proc = child(argv, preexec_fn=(lambda: os.close(1)) if stdout_closed
                 else None)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert out.read_bytes() == expected


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_with_stdout_closed_is_one_error_line(command):
    """Each command exits 1 with one line when fd 1 is closed, instead of
    a traceback (lcoh, frontier) or a silent exit 0 (the others)."""
    proc = child([command], preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr.decode()) == (1, CLOSED)


def test_main_argv_with_stdout_none_is_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["validate"]) == 1
    assert capsys.readouterr().err == CLOSED


def test_a_reader_that_closes_early_is_one_broken_pipe_line(tmp_path):
    """A JSON report larger than a pipe buffer, read for 10 bytes: the
    process exits 1 with one line."""
    codes = [a + b for a in string.ascii_uppercase
             for b in string.ascii_uppercase]
    dataset = tmp_path / "states676.csv"
    dataset.write_text(
        "state,electricity_usd_per_kwh,gas_usd_per_mmbtu,grid_ci_kg_per_kwh\n"
        + "".join(f"{code},0.0{5 + i % 5},4.5,0.{i % 9}\n"
                  for i, code in enumerate(codes)), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "h2cost.cli", "lcoh", "--format", "json",
         "--dataset", str(dataset)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (head, proc.wait(), err) == (
        b'{\n  "metad', 1, b"h2cost: error: [Errno 32] Broken pipe\n")


def run_into(command, stdout, env=ENV):
    """(exit code, stderr) of command, its words split at spaces, run as a
    process with stdout, an open file descriptor or file."""
    proc = subprocess.run([sys.executable, "-m", "h2cost.cli",
                           *command.split()],
                          stdout=stdout, stderr=subprocess.PIPE, env=env)
    return proc.returncode, proc.stderr.decode()


# Each command, and the output argparse writes before it exits.
SHORT_OUTPUTS = [*COMMANDS, "--version", "--help", "lcoh --help"]


@pytest.mark.parametrize("command", SHORT_OUTPUTS)
def test_a_short_output_to_a_closed_pipe_is_one_error_line(command):
    """Output smaller than the stdio buffer fails in the flush before exit,
    not at exit, which would print two lines and exit 120."""
    read, write = os.pipe()
    os.close(read)   # the reader has gone before the child writes
    try:
        result = run_into(command, write)
    finally:
        os.close(write)
    assert result == (1, "h2cost: error: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", SHORT_OUTPUTS)
def test_a_short_output_to_a_full_device_is_one_error_line(command):
    with open("/dev/full", "wb") as full:
        result = run_into(command, full)
    assert result == (1, "h2cost: error: [Errno 28] No space left on device\n")


# argparse's own writer drops an OSError, which an unbuffered stdout raises
# at the write itself; h2cost's lets it reach main.
UNBUFFERED = {**ENV, "PYTHONUNBUFFERED": "1"}
ARGPARSE_OUTPUTS = ["--version", "--help", "lcoh --help"]


@pytest.mark.parametrize("command", ARGPARSE_OUTPUTS)
def test_unbuffered_help_to_a_closed_pipe_is_one_error_line(command):
    read, write = os.pipe()
    os.close(read)
    try:
        result = run_into(command, write, UNBUFFERED)
    finally:
        os.close(write)
    assert result == (1, "h2cost: error: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", ARGPARSE_OUTPUTS)
def test_unbuffered_help_to_a_full_device_is_one_error_line(command):
    with open("/dev/full", "wb") as full:
        result = run_into(command, full, UNBUFFERED)
    assert result == (1, "h2cost: error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("command", ARGPARSE_OUTPUTS)
def test_unbuffered_help_still_prints(command):
    proc = subprocess.run([sys.executable, "-m", "h2cost.cli", *command.split()],
                          capture_output=True, env=UNBUFFERED)
    buffered = subprocess.run([sys.executable, "-m", "h2cost.cli",
                               *command.split()], capture_output=True, env=ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, buffered.stdout, b"")
    assert proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_usage_error_to_a_full_stderr_still_exits_2():
    """Only stdout's errors reach main: argparse still drops a failed write
    of usage to stderr, and exits 2."""
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "h2cost.cli", "bogus"],
                              stdout=subprocess.PIPE, stderr=full, env=UNBUFFERED)
    assert (proc.returncode, proc.stdout) == (2, b"")


@pytest.fixture
def freezes(monkeypatch):
    """The calls of gc.freeze, which is spied on, so that this process's
    heap is never frozen."""
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append(None))
    return calls


@pytest.mark.parametrize("argv", [
    ["validate"], ["lcoh", "--scenario", "nowhere"], ["breakeven", "--target", "0"],
], ids=["ok", "input-error", "no-solution"])
def test_main_of_the_process_freezes_once_and_returns_main_argv(
        monkeypatch, capsys, freezes, argv):
    code = main(argv)
    expected = capsys.readouterr()
    assert freezes == []
    monkeypatch.setattr(sys, "argv", ["h2cost", *argv])
    assert main() == code
    assert capsys.readouterr() == expected
    assert freezes == [None]


@pytest.mark.parametrize("argv", [["--version"], ["lcoh", "--format", "xml"]],
                         ids=["version", "usage-error"])
def test_main_of_the_process_freezes_when_argparse_exits(monkeypatch, capsys,
                                                         freezes, argv):
    monkeypatch.setattr(sys, "argv", ["h2cost", *argv])
    with pytest.raises(SystemExit) as exited:
        main()
    assert freezes == [None]
    with pytest.raises(SystemExit) as again:
        main(argv)
    assert again.value.code == exited.value.code
    assert freezes == [None]


@pytest.mark.parametrize("call, frozen", [
    ("h2cost.cli.main()", True), ("h2cost.cli.main(['validate'])", False),
], ids=["main", "main-argv"])
def test_only_main_of_the_process_leaves_a_frozen_heap(call, frozen):
    # Python 3.12 starts with objects in the permanent generation already.
    script = ("import gc, io, sys\n"
              "import h2cost.cli\n"
              "sys.argv = ['h2cost', 'validate']\n"
              "out, sys.stdout = sys.stdout, io.StringIO()\n"
              "before = gc.get_freeze_count()\n"
              f"code = {call}\n"
              "sys.stdout = out\n"
              "print(code, gc.get_freeze_count() > before)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=ENV, check=True)
    assert proc.stdout == f"0 {frozen}\n"


def test_a_zero_year_int_cannot_read_is_one_usage_error_in_both_forms():
    # int() refuses a string of more digits than the interpreter's limit.
    # The word form then goes to argparse, as the "=" form always does.
    limit = sys.get_int_max_str_digits()
    year = "1" * (limit + 1)
    split, joined = (child(["crossover", *words]) for words in
                     (["--zero-year", year], [f"--zero-year={year}"]))
    assert (split.returncode, split.stdout, split.stderr) == (
        joined.returncode, joined.stdout, joined.stderr)
    assert split.returncode == 2 and split.stdout == b""
    assert split.stderr.endswith(f"invalid int value: '{year}'\n".encode())
    assert b"Traceback" not in split.stderr
    at_limit = child(["crossover", "--zero-year", "1" * limit])
    assert (at_limit.returncode, at_limit.stderr) == (0, b"")
    assert len(at_limit.stdout.splitlines()) == 8
