"""Outside-in tracer for the h2cost package, and the per-layer arithmetic.

The tracer changes no file of the package. ``install`` replaces each
traced function by a wrapper at every place a caller can look it up: the
attribute of its own module and every ``from ... import`` alias held by
another ``h2cost`` module. The ``__post_init__`` of each traced dataclass
is wrapped on its class, so each instance built counts as a ``.new``.

A wrapper records a span (name, start, end, parent span, operation id)
in flat in-memory arrays; nothing is written until ``dump`` at the end.
A span's self time is its duration minus the part of it its child spans
cover. ``call_counts`` counts real executions of the original code objects
with ``sys.setprofile``; a wrapper count that differs from it means the
tracer missed a way to reach that function.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

# module -> functions traced as spans named "<module>.<function>"
FUNCTIONS = {
    "model": ("default_registry", "default_smr_params", "default_scenarios",
              "with_overrides"),
    "finance": ("pvifa", "lifetime_hours_to_years", "wright_capital_cost"),
    "electrolysis": ("lcoh", "carbon_intensity"),
    "smr": ("smr_lcoh", "smr_emissions"),
    "scenario": ("project_params", "effective_electricity_price", "grid_ci_at",
                 "breakeven_electricity_price", "average_crossover_year",
                 "crossover_year"),
    "analysis": ("state_table", "national_average", "pareto_frontier",
                 "electrolysis_results"),
    "ingest": ("load_state_profiles", "reference_dataset", "load_config"),
    "cli": ("main", "build_parser", "_load_inputs", "_summary", "_rows_csv",
            "_sha256_path", "cmd_lcoh", "cmd_breakeven", "cmd_crossover",
            "cmd_frontier", "cmd_validate"),
}
# module -> dataclasses whose __post_init__ is traced as "<module>.<Class>.new"
CLASSES = {
    "model": ("TechnologyParams", "StateEnergyProfile", "LcohBreakdown",
              "SmrParams", "PriceRule", "GridTrajectory", "Scenario"),
    "electrolysis": ("EmissionsResult",),
    "analysis": ("StateResult",),
    "ingest": ("Dataset",),
}
# span name -> (counter name, value taken from the call's result)
RESULT_COUNTERS = {
    "analysis.pareto_frontier": ("analysis.frontier_size", len),
    "ingest.load_state_profiles": ("ingest.rows_kept", lambda d: len(d.profiles)),
    "ingest.reference_dataset": ("ingest.rows_kept", lambda d: len(d.profiles)),
}
LAYERS = ("model", "finance", "electrolysis", "smr", "scenario", "analysis",
          "ingest", "cli")


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.op = 0
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: float, end: float, parent: int,
            op: int) -> int:
        """Append one finished span; returns its index."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op_of.append(op)
        return len(self.name) - 1

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, ops, stack = self.parent, self.op_of, self._stack
        counter = RESULT_COUNTERS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counter is not None:
                tracer.counters[tracer.op, counter[0]] += counter[1](result)
            return result
        return wrapper

    def __len__(self) -> int:
        return len(self.name)

    def extend(self, dumped: dict, op: int) -> None:
        """Append the spans another process dumped, as operation ``op``."""
        base = len(self.name)
        for nid, start, end, parent, _ in dumped["spans"]:
            self.add(dumped["names"][nid], start, end,
                     parent + base if parent >= 0 else -1, op)
        for (_, key), value in dumped["counters"]:
            self.counters[op, key] += value

    def dump(self, path) -> None:
        """Write a JSON header line (names, counters), then one
        tab-separated line per span: name id, start, end, parent, op.
        A path ending in .gz is gzip-compressed."""
        opener = functools.partial(gzip.open, compresslevel=1) \
            if str(path).endswith(".gz") else open
        with opener(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "fields": ["name", "start", "end", "parent", "op"],
                "names": self.names,
                "counters": [[list(k), v] for k, v in self.counters.items()],
            }) + "\n")
            for span in zip(self.name, self.start, self.end, self.parent,
                            self.op_of):
                fh.write("%d\t%r\t%r\t%d\t%d\n" % span)


def load(path) -> dict:
    """Read what Tracer.dump wrote."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:
        dumped = json.loads(fh.readline())
        dumped["spans"] = [(int(n), float(s), float(e), int(p), int(o))
                           for n, s, e, p, o in (line.split("\t") for line in fh)]
    return dumped


def _h2cost_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "h2cost" or n.startswith("h2cost."))]


def install(tracer: Tracer) -> list:
    """Wrap every traced function and __post_init__ that exists.

    Returns the undo list for ``uninstall``. Targets the program no longer
    has are skipped; their metrics read 0.
    """
    modules = _h2cost_modules()
    undo = []
    for short, funcs in FUNCTIONS.items():
        mod = sys.modules.get(f"h2cost.{short}")
        for fname in funcs:
            orig = getattr(mod, fname, None)
            if not callable(orig):
                continue
            name = f"{short}.{fname}"
            wrapper = tracer.wrap(orig, name)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        undo.append((m, attr, orig, name))
                        setattr(m, attr, wrapper)
    for short, classes in CLASSES.items():
        mod = sys.modules.get(f"h2cost.{short}")
        for cname in classes:
            cls = getattr(mod, cname, None)
            orig = getattr(cls, "__dict__", {}).get("__post_init__")
            if orig is None:
                continue
            name = f"{short}.{cname}.new"
            undo.append((cls, "__post_init__", orig, name))
            setattr(cls, "__post_init__", tracer.wrap(orig, name))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, orig, _ in reversed(undo):
        setattr(owner, attr, orig)


def traced_codes(undo: list) -> dict:
    """Code object of each wrapped original -> its span name."""
    return {orig.__code__: name for _, _, orig, name in undo}


def call_counts(codes: dict, thunk) -> Counter:
    """Run thunk() and count executions of the given code objects."""
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                counts[name] += 1
    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return counts


def self_times(start, end, parent) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    each child clipped to the parent."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(start, end)):
        covered = 0.0
        run_s = run_e = None
        for c in sorted(children.get(i, ()), key=start.__getitem__):
            cs, ce = max(start[c], s), min(end[c], e)
            if ce <= cs:
                continue
            if run_e is None or cs > run_e:
                if run_e is not None:
                    covered += run_e - run_s
                run_s, run_e = cs, ce
            else:
                run_e = max(run_e, ce)
        if run_e is not None:
            covered += run_e - run_s
        out.append((e - s) - covered)
    return out


def per_op(tracer: Tracer) -> dict[int, dict[str, list]]:
    """op id -> span name -> [calls, self seconds]."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    ops: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    names = tracer.names
    for nid, op, st in zip(tracer.name, tracer.op_of, selfs):
        cell = ops[op][names[nid]]
        cell[0] += 1
        cell[1] += st
    return ops


def op_metrics(spans: dict[str, list], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one operation from its span totals."""
    def calls(name):
        return spans[name][0] if name in spans else 0

    def self_ms(prefix):
        return sum(v[1] for k, v in spans.items() if k.startswith(prefix)) * 1e3

    m = {}
    for short, funcs in FUNCTIONS.items():
        for f in funcs:
            name = f"{short}.{f}"
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.self_ms"] = spans[name][1] * 1e3 if name in spans else 0.0
    for short, classes in CLASSES.items():
        for c in classes:
            m[f"{short}.{c}.new"] = calls(f"{short}.{c}.new")
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = self_ms(f"{layer}.")
    m["cli.cmd.self_ms"] = self_ms("cli.cmd_")
    lcoh_calls = calls("electrolysis.lcoh")
    m["electrolysis.rows_per_lcoh_call"] = (
        calls("analysis.StateResult.new") / lcoh_calls if lcoh_calls else 0.0)
    m["analysis.frontier_size"] = counters.get("analysis.frontier_size", 0)
    return m


def metric_medians(per_op_metrics: list[dict[str, float]]) -> dict[str, float]:
    keys = sorted({k for m in per_op_metrics for k in m})
    return {k: statistics.median([m[k] for m in per_op_metrics if k in m])
            for k in keys}


def parse_importtime(stderr: str) -> dict[str, float]:
    """import.* metrics from ``python -X importtime -c 'import h2cost.cli'``.

    Lines are printed children first, indented two spaces per level, so the
    nested imports of a top-level entry are the indented lines just above it.
    """
    selfs: dict[str, float] = {}
    total_us = stdlib_us = 0.0
    pending: list[tuple[str, float]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|", 2)
        name = name[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        name = name.strip()
        self_us, cumulative_us = float(self_us), float(cumulative_us)
        if name.startswith("h2cost"):
            selfs[name] = selfs.get(name, 0.0) + self_us
        if depth > 0:
            pending.append((name, self_us))
            continue
        if name == "h2cost" or name.startswith("h2cost."):
            total_us += cumulative_us
            stdlib_us += sum(s for n, s in pending if not n.startswith("h2cost"))
        pending = []
    m = {f"import.h2cost.{mod}.self_ms": selfs.get(f"h2cost.{mod}", 0.0) / 1e3
         for mod in ("model", "ingest", "analysis", "cli")}
    m["import.h2cost.total_ms"] = total_us / 1e3
    m["import.stdlib_ms"] = stdlib_us / 1e3
    return m
