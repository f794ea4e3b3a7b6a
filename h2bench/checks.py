"""Output checks applied to every operation.

``check`` returns None when an operation ended as expected, else the
reason. An invalid input is expected to end with exit code 1 and exactly
one ``h2cost: error:`` line on stderr; a traceback never passes. A valid
input is expected to exit 0 with an empty stderr and an output whose
shape, numbers and bytes are right.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional

from gen import PATHWAYS, TECHS, Op

# Paper anchors, with the tolerances of the release gate in
# tests/test_acceptance.py (criteria 2, 4 and 5).
SMR_CI = {"SMR": 12.9, "SMR+CCS": 5.3}
MEANS = {"2020": ((4.6, 4.5, 6.3), 0.5), "2050": ((3.2, 3.1, 2.6), 0.1)}
ERROR_PREFIX = "h2cost: error: "


@dataclass
class Outcome:
    """What one run of an operation left behind."""

    code: Optional[int]   # exit code; None when main raised
    stdout: str
    stderr: str
    payload: bytes        # the report: --out file or stdout bytes


def _finite_numbers(obj) -> bool:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    return all(_finite_numbers(v) for v in obj)


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _check_rows(rows: list[dict], op: Op) -> Optional[str]:
    exp = op.expect
    if len(rows) != exp["states"] * len(PATHWAYS):
        return f"{len(rows)} rows, expected {exp['states']} x {len(PATHWAYS)}"
    by_path: dict[str, list[dict]] = {p: [] for p in PATHWAYS}
    for r in rows:
        by_path.setdefault(r["pathway"], []).append(r)
    if any(len(v) != exp["states"] for v in by_path.values()):
        return "pathway row counts differ from the state count"
    if "anchor" in exp:
        for label, ci in SMR_CI.items():
            if any(abs(r["carbon_intensity_kg_per_kg"] - ci) > 1e-12 * ci
                   for r in by_path[label]):
                return f"{label} carbon intensity is not {ci} kg/kg"
        targets, tol = MEANS[exp["anchor"]]
        for tech, target in zip(TECHS, targets):
            mean = sum(r["lcoh_usd_per_kg"] for r in by_path[tech]) / exp["states"]
            if abs(mean - target) > tol:
                return f"{tech} mean LCOH {mean:.4f} not within {tol} of {target}"
    if "price_slope" in exp:
        # LCOH is affine in the electricity price paid, with slope equal to
        # the efficiency (kWh/kg): LCOH - slope * price is one constant per
        # technology, up to the 4-decimal rounding of the report.
        for tech in TECHS:
            slope = exp["efficiency"][tech] * exp["price_slope"]
            floors = [r["lcoh_usd_per_kg"] - slope * exp["prices"][r["state"]]
                      for r in by_path[tech]]
            if max(floors) - min(floors) > 1.1e-4:
                return f"{tech} LCOH is not affine in the electricity price"
        smr = exp["smr"]
        for label, adder in (("SMR", 0.0), ("SMR+CCS", smr["ccs_adder"])):
            for r in by_path[label]:
                cost = (smr["base_cost"] + adder
                        + smr["gas_sensitivity"] * exp["gas"][r["state"]]
                        + smr["electricity_sensitivity"] * exp["prices"][r["state"]])
                if abs(r["lcoh_usd_per_kg"] - cost) > 5.1e-5:
                    return f"{label} LCOH of {r['state']} is not the SMR cost line"
    return None


def _check_json(op: Op, text: str) -> Optional[str]:
    report = json.loads(text)
    if not _finite_numbers(report):
        return "report holds a non-finite number"
    if report["metadata"]["scenario"] != op.expect["scenario"]:
        return "report is for another scenario"
    return _check_rows(report["rows"], op)


def _check_csv(text: str, rows_ok) -> Optional[str]:
    lines = text.splitlines()
    if lines[0] != "state,pathway,lcoh_usd_per_kg,carbon_intensity_kg_per_kg":
        return "unexpected CSV header"
    for line in lines[1:]:
        _, _, cost, ci = line.split(",")
        _float(cost), _float(ci)
    return None if rows_ok(len(lines) - 1) else f"{len(lines) - 1} CSV rows"


def _check_text(op: Op, text: str) -> Optional[str]:
    fmt, lines = op.expect["format"], text.splitlines()
    if fmt == "validate":
        want = [f"dataset: {op.expect['states']} states, vintage 2020",
                f"technologies: {list(TECHS)}",
                f"scenarios: {op.expect['scenarios']}"]
        return None if lines == want else f"validate printed {lines!r}"
    if fmt == "breakeven":
        if len(lines) != len(TECHS):
            return f"{len(lines)} breakeven lines"
        for line in lines:
            words = line.split()
            _float(words[-6]), _float(words[-2])
        return None
    if fmt == "crossover":
        if len(lines) != 2 * (len(TECHS) + 1):
            return f"{len(lines)} crossover lines"
        for line in lines:
            if not line.rsplit(": ", 1)[1].isdigit():
                return f"no crossover year in {line!r}"
        return None
    return f"unknown output format {fmt!r}"


def check(op: Op, res: Outcome) -> Optional[str]:
    if "Traceback (most recent call last)" in res.stderr or res.code is None:
        return "traceback"
    if res.code != op.expect_code:
        return f"exit code {res.code}, expected {op.expect_code}"
    if op.expect_code != 0:
        lines = res.stderr.splitlines()
        if len(lines) != 1 or not lines[0].startswith(ERROR_PREFIX):
            return f"stderr is not one '{ERROR_PREFIX.strip()}' line: {lines!r}"
        return None
    if res.stderr:
        return f"unexpected stderr {res.stderr[:200]!r}"
    try:
        text = res.payload.decode("utf-8")
        fmt = op.expect["format"]
        if fmt == "json":
            return _check_json(op, text)
        if fmt == "csv":
            return _check_csv(
                text, lambda n: n == op.expect["states"] * len(PATHWAYS))
        if fmt == "frontier":
            return _check_csv(text, lambda n: n >= 1)
        return _check_text(op, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


class Determinism:
    """Same input, same bytes: the sha256 of each key's first output."""

    def __init__(self) -> None:
        self.sha: dict[str, str] = {}

    def check(self, op: Op, res: Outcome) -> Optional[str]:
        digest = hashlib.sha256(res.payload).hexdigest()
        first = self.sha.setdefault(op.key, digest)
        if first != digest:
            return f"output of {op.key} differs from its first run"
        return None
