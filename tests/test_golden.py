"""The golden corpus of tests/golden.py run in-process: each probe's exit
code, stderr and output bytes from main(argv) are those the manifest
records, which the same probes give as processes on every supported
Python."""

import json
import sys

import pytest

import golden
from h2cost.cli import main

MANIFEST = json.loads(golden.MANIFEST.read_text())


def test_the_manifest_records_each_probe_once():
    assert list(MANIFEST) == golden.PROBES


@pytest.mark.parametrize("probe", golden.PROBES)
def test_a_probe_prints_what_the_manifest_records(monkeypatch, capsys,
                                                  tmp_path, probe):
    monkeypatch.chdir(golden.GOLDEN)
    monkeypatch.setenv("COLUMNS", "80")
    argv, closed = golden.words(probe)
    out = tmp_path / "out"
    if closed:
        monkeypatch.setattr(sys, "stdout", None)
    try:
        code = main([word.replace("{out}", str(out)) for word in argv])
    except SystemExit as exc:   # help, version and usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert golden.record(code, captured.out.encode(), captured.err.encode(),
                         out.read_bytes() if out.exists() else None) \
        == MANIFEST[probe]
