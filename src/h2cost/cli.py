"""Batch command-line front end.

Subcommands: lcoh, breakeven, crossover, frontier, validate.
Exit codes: 0 success, 1 input error, 2 computation error, 3 no solution.
Output is deterministic: fixed row ordering and fixed 4-decimal float
formatting so identical inputs produce byte-identical reports.
"""

import math
import os
import sys
from collections.abc import Sequence
from itertools import repeat
from types import SimpleNamespace

from . import __version__, analysis, scenario as scenario_mod, smr
from .errors import DomainError, SchemaError, ValidationError
from .ingest import (
    REFERENCE_DATASET,
    _plain_ascii,
    load_config,
    load_state_profiles,
    read_input,
    shown_path,
)
from .model import (
    BASE_YEAR,
    ELECTROLYSIS_PATHWAYS,
    Dataset,
    GridTrajectory,
    Scenario,
    SmrParams,
    TechnologyParams,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_COMPUTE = 2
EXIT_NO_SOLUTION = 3


# Each character at which str.splitlines() breaks a line, as repr writes it,
# so that an error is one line whatever names or paths it quotes.
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in
                              "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _fail(msg: str, code: int) -> int:
    print(f"h2cost: error: {msg.translate(_LINE_BREAKS)}", file=sys.stderr)
    return code


def _sha256(data: bytes) -> str:
    # Only JSON reports hash. They use the built-in module hashlib falls back
    # to, named by version so that no import fails. hashlib loads OpenSSL,
    # whose import costs about what its faster digest saves on 1 MB of input.
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:   # a build without built-in hashes
        from hashlib import sha256
    return sha256(data).hexdigest()


def _load_inputs(args) -> tuple[Dataset, list[TechnologyParams], SmrParams,
                                list[Scenario], bytes, bytes | None]:
    """The inputs args names, each file read once, and the bytes parsed
    (config None for the defaults), so a report hashes what it used."""
    dataset_bytes = read_input(args.dataset, "dataset")
    dataset = load_state_profiles(dataset_bytes, args.dataset, args.strict)
    config_bytes = (None if args.config is None
                    else read_input(args.config, "config"))
    registry, smr_params, scenarios = load_config(config_bytes, args.config)
    return dataset, registry, smr_params, scenarios, dataset_bytes, config_bytes


def _scenario_inputs(args) -> tuple:
    """(dataset, scenario, lines, benchmarks, dataset bytes, config bytes)
    from _load_inputs(args): the scenario --scenario names, the record of
    each technology under it, and the two SMR benchmark records."""
    dataset, registry, smr_params, scenarios, *files = _load_inputs(args)
    for sc in scenarios:
        if sc.name == args.scenario:
            return (dataset, sc, [scenario_mod.lcoh_line(t, sc) for t in registry],
                    smr.smr_lines(smr_params), *files)
    raise SchemaError(f"unknown scenario {args.scenario!r}; available: "
                      f"{[s.name for s in scenarios]}")


# The fields of a row, in CSV column order.
_ROW_FIELDS = ("state", "pathway", "lcoh_usd_per_kg", "carbon_intensity_kg_per_kg")


def _rows_csv(row: str, rows) -> str:
    """The CSV header, then row % r for each tuple r."""
    return ",".join(_ROW_FIELDS) + "\n" + "".join(map(row.__mod__, rows))


def _json_column(col: Sequence[float], total: float) -> list[str]:
    """[repr(round(x, 4)) for x in col] for finite x >= 0 whose sum is
    total: the text json writes for each value rounded to four places.

    Below 1e11, "%.4f" and round(x, 4) take the same correctly rounded
    digits, and no other decimal with at most four places lies within an
    ulp of the rounded double, so repr prints those digits with trailing
    zeros dropped and one digit kept after the point (this holds below
    2**52 * 1e-4, about 4.5e11). A column whose sum is below 1e11, and so
    each cell, takes one "%.4f" format call; other columns take round and
    repr, exact at any size. A constant column (its last cell tested first)
    is formatted once, a column of 0.0 with no -0.0 among its cells too.
    """
    first, n = col[0], len(col)
    # 0.0 == -0.0, so a zero column is constant only if no cell has the sign.
    if col[-1] == first and col.count(first) == n and (
            first or sum(map(math.copysign, repeat(1.0, n), col)) == n):
        return [repr(round(first, 4))] * n
    if total >= 1e11:   # cells >= 0, so the sum bounds the max
        return [repr(round(x, 4)) for x in col]
    text = ("%.4f," * n) % tuple(col)
    for _ in range(3):          # strip up to three zeros, keeping one digit
        text = text.replace("0,", ",")
    return text.split(",")[:-1]


def _json_dumps(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True) for a value of dicts with
    str keys, lists, str, int, finite float, bool and None, without json."""
    try:
        from _json import encode_basestring_ascii as quote
    except ImportError:   # a build without json's C accelerator
        from json.encoder import encode_basestring_ascii as quote

    def dump(value, indent: str) -> str:
        if not isinstance(value, (dict, list)):   # str(True).lower() is true
            return (quote(value) if isinstance(value, str)
                    else "null" if value is None else str(value).lower())
        inner, ends = indent + "  ", "{}" if isinstance(value, dict) else "[]"
        items = ([f"{quote(k)}: {dump(v, inner)}" for k, v in sorted(value.items())]
                 if isinstance(value, dict) else
                 [quote(v) if isinstance(v, str) else dump(v, inner) for v in value])
        return (ends[0] + inner + ("," + inner).join(items) + indent
                + ends[1]) if items else ends

    return dump(value, "\n")


def _json_rows(indent: str, groups) -> map:
    """The text json.dumps(rows, indent=2, sort_keys=True) writes for the
    rows of a list whose items sit at indent, one text per row index i:
    row i of each group in turn, each led by ",". A group is (key, texts)
    pairs, texts the JSON text of the key's value in each row, or one str
    for the same text in every row, which joins the literal run: the
    report's pathway, which would otherwise add a column to every join."""
    fields, run = [], ""
    for pairs in groups:
        for i, (key, texts) in enumerate(sorted(pairs, key=lambda p: p[0])):
            run += ("," if i else f",\n{indent}{{") + f'\n{indent}  "{key}": '
            if isinstance(texts, str):   # the same text in every row
                run += texts
            else:
                fields += repeat(run), texts
                run = ""
        run += f"\n{indent}}}"
    return map("".join, zip(*fields, repeat(run)))


# _report_json writes the "rows" section as json.dumps(report, indent=2,
# sort_keys=True) does, a column at a time. The anchor holds a raw newline,
# which json never leaves inside an encoded string, so it matches only the
# top-level "rows" key.
_ROWS_ANCHOR = '\n  "rows": [],\n'
# _report_json returns a report in pieces of this many parts (the head, one
# block of rows per state, the tail), about 44 KB each, so that no string of
# the whole report is built to be written or encoded.
_PIECE_PARTS = 64


def _report_json(report: dict, states, columns, sums) -> list:
    """The pieces of json.dumps({**report, "rows": rows}, indent=2,
    sort_keys=True) + "\n", in order, for the rows of state_columns sorted
    by (state, pathway): each state's block of rows, written by _json_rows
    with one group per pathway from its columns, which state_columns
    guarantees finite, and _PIECE_PARTS parts to a piece. A state code is
    two ASCII capitals (check_profile) and a pathway name ASCII with no '"'
    or '\\', so json writes each as it is, in quotes."""
    head, tail = _json_dumps({**report, "rows": []}).split(_ROWS_ANCHOR)
    states = [f'"{state}"' for state in states]
    parts = [f'{head}\n  "rows": [', *_json_rows("    ", (
        zip(_ROW_FIELDS, (states, f'"{pathway}"',
                          *map(_json_column, columns[pathway], sums[pathway])))
        for pathway in sorted(columns))), f'\n  ],\n{tail}\n']
    parts[1] = parts[1][1:]   # the first row follows "[" with no comma
    return ["".join(parts[i:i + _PIECE_PARTS])
            for i in range(0, len(parts), _PIECE_PARTS)]


def _summary(dataset, sc, lines, benchmarks, states, columns, sums) -> dict:
    means = {pathway: analysis.mean_point(pathway, len(states), *pair)
             for pathway, pair in sums.items()}
    averages = {pathway: {"lcoh": round(cost, 4), "carbon_intensity": round(ci, 4)}
                for pathway, (cost, ci) in means.items()}
    frontier_states = sorted(
        {row[0] for row in analysis.column_frontier(states, columns)})

    target, _ = means[benchmarks[-1].name]   # the capture benchmark's
    breakevens = {}
    for line in lines:
        price = scenario_mod.line_breakeven(line, target)
        breakevens[line.name] = None if price is None else round(price, 6)

    crossovers = {f"avg_electrolysis_vs_{bench.name}":
                  scenario_mod.crossover_year(
                      dataset.grid_cis, [line.ci_slope for line in lines],
                      bench.ci, sc.grid_trajectory)
                  for bench in benchmarks
                  if sc.grid_trajectory.kind == "linear_to_zero"}
    return {
        "averages": averages,
        "frontier_states": frontier_states,
        "breakeven_vs_smr_ccs_usd_per_kwh": breakevens,
        "crossover_years": crossovers,
    }


def _write_output(pieces: list, args) -> None:
    """The text of pieces, in order, to args.out, or to stdout if there is
    none; never over an input."""
    out = args.out
    if out is None:
        if not hasattr(sys.stdout, "buffer"):   # an in-process StringIO
            sys.stdout.write("".join(pieces))
            return
        # The bytes go to the binary layer, after any text the stream still
        # holds, each write resumed where the last stopped: an unbuffered
        # one may take only part, and the next raises what cut it short.
        # One encoder for all the pieces writes one BOM, as for one text.
        import codecs
        encode = codecs.getincrementalencoder(sys.stdout.encoding)(
            sys.stdout.errors).encode
        sys.stdout.flush()
        for i, piece in enumerate(pieces, 1):
            data = memoryview(encode(piece, i == len(pieces)))
            while data:
                data = data[sys.stdout.buffer.write(data):]
        return
    if not out:   # Path("") is the current directory
        raise SchemaError("--out path is empty")
    path = shown_path(out)   # as opened: "./x.csv/" is x.csv, an input too
    for what, source in (("dataset", args.dataset), ("config", args.config)):
        if source is not None and os.path.exists(path) and os.path.samefile(
                path, shown_path(source)):
            raise SchemaError(f"--out would overwrite the {what} file: {out}")
    with open(path, "w", encoding="utf-8") as file:
        file.writelines(pieces)


def cmd_lcoh(args) -> int:
    dataset, sc, lines, benchmarks, dataset_bytes, config_bytes = \
        _scenario_inputs(args)
    states, columns, sums = analysis.state_columns(dataset, lines + benchmarks, sc)
    if args.format == "csv":
        pathways, cells = sorted(columns), []
        for pathway in pathways:
            cells += (states, *columns[pathway])
        row = "".join(f"%s,{pathway},%.4f,%.4f\n" for pathway in pathways)
        _write_output([_rows_csv(row, zip(*cells))], args)
        return EXIT_OK
    report = {
        "metadata": {
            "tool_version": __version__,
            "dataset_vintage": BASE_YEAR,
            "scenario": sc.name,
            "dataset_sha256": _sha256(dataset_bytes),
            "config_sha256": ("builtin-defaults" if config_bytes is None
                              else _sha256(config_bytes)),
        },
        "summary": _summary(dataset, sc, lines, benchmarks, states, columns,
                            sums),
    }
    _write_output(_report_json(report, states, columns, sums), args)
    return EXIT_OK


def _target(text: str) -> float:
    """A --target other than smr_ccs: a finite USD/kg value >= 0 (-0 is 0)."""
    try:
        if _plain_ascii(text) and 0.0 <= float(text) <= sys.float_info.max:
            return abs(float(text))
    except ValueError:
        pass
    raise SchemaError(f"--target must be 'smr_ccs' or a finite number >= 0, "
                      f"got {text!r}")


def _zero_year(text: str) -> int:
    """int(text) if text is plain ASCII, as a dataset cell must be."""
    try:
        if _plain_ascii(text):
            return int(text)
    except ValueError:
        pass
    import argparse
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def cmd_breakeven(args) -> int:
    target = None if args.target == "smr_ccs" else _target(args.target)
    dataset, sc, lines, benchmarks, *_ = _scenario_inputs(args)
    if target is None:
        states, _, sums = analysis.state_columns(dataset, lines + benchmarks, sc)
        name = benchmarks[-1].name   # the capture benchmark
        target, _ = analysis.mean_point(name, len(states), *sums[name])
    # Every reported line solved first, so a failing one prints nothing.
    prices = [(line.name, scenario_mod.line_breakeven(line, target))
              for line in lines if args.technology in ("all", line.name)]
    code = EXIT_OK
    for name, price in prices:
        if price is None:
            print(f"{name}: no non-negative breakeven "
                  f"(target {target:.4f} below zero-electricity LCOH)")
            code = EXIT_NO_SOLUTION
        else:
            print(f"{name}: breakeven electricity price "
                  f"{price:.4f} USD/kWh at target {target:.4f} USD/kg")
    return code


def cmd_crossover(args) -> int:
    dataset, registry, smr_params, *_ = _load_inputs(args)
    trajectory = (GridTrajectory("constant") if args.constant
                  else GridTrajectory.linear_to_zero(args.zero_year))
    groups = [(t.name.value, [t.efficiency]) for t in registry]
    groups.append(("average electrolysis", [t.efficiency for t in registry]))
    code, lines = EXIT_OK, []
    for bench in smr.smr_lines(smr_params):
        for name, slopes in groups:
            year = scenario_mod.crossover_year(dataset.grid_cis, slopes,
                                               bench.ci, trajectory)
            text = "no crossover" if year is None else str(year)
            lines.append(f"{name} vs {bench.name} ({bench.ci:.1f} kg/kg): "
                         f"{text}\n")
        if year is None:   # the average's, the last group
            code = EXIT_NO_SOLUTION
    # Every year solved first, so a failing solve prints nothing.
    sys.stdout.write("".join(lines))
    return code


def cmd_frontier(args) -> int:
    """The electrolysis cost-carbon frontier of a scenario's state table:
    CSV rows, or with --format json the rows as _json_rows writes them from
    _ROW_FIELDS, which is json.dumps(rows, indent=2, sort_keys=True) + "\n"
    of the values rounded to four places. The frontier is never empty."""
    dataset, sc, lines, benchmarks, *_ = _scenario_inputs(args)
    states, columns, _ = analysis.state_columns(dataset, lines + benchmarks, sc)
    frontier = analysis.column_frontier(states, columns)
    if args.format == "json":
        states, pathways, *cells = zip(*frontier)
        rows = "".join(_json_rows("  ", [zip(_ROW_FIELDS, (
            [f'"{s}"' for s in states], [f'"{p}"' for p in pathways],
            *map(_json_column, cells, map(sum, cells))))]))
        _write_output([f"[{rows[1:]}\n]\n"], args)
    else:
        _write_output([_rows_csv("%s,%s,%.4f,%.4f\n", frontier)], args)
    return EXIT_OK


def cmd_validate(args) -> int:
    dataset, registry, smr_params, scenarios, *_ = _load_inputs(args)
    for sc in scenarios:  # every line lcoh would build, and its checks
        for tech in registry:
            scenario_mod.lcoh_line(tech, sc)
    # A report of a grid that reaches zero solves each benchmark's crossover
    # year, whose target and overflow checks come before the trajectory.
    for sc in scenarios:
        if sc.grid_trajectory.kind == "linear_to_zero":
            for bench in smr.smr_lines(smr_params):
                scenario_mod.average_crossover_year(
                    dataset, registry, sc.grid_trajectory, bench.ci)
            break
    # One write: a name that stdout cannot encode then writes no line.
    sys.stdout.write(f"dataset: {len(dataset.states)} states, vintage {BASE_YEAR}\n"
                     f"technologies: {[p.name.value for p in registry]}\n"
                     f"scenarios: {[s.name for s in scenarios]}\n")
    return EXIT_OK


def _commands() -> dict:
    """Each command's function and help text, built per call so that a
    wrapper set on this module (h2bench's tracer sets them) is what runs."""
    return {
        "lcoh": (cmd_lcoh, "full state x pathway cost/carbon table"),
        "breakeven": (cmd_breakeven, "electricity price where electrolysis "
                                     "LCOH meets a target"),
        "crossover": (cmd_crossover, "year electrolysis CI drops below SMR "
                                     "benchmarks"),
        "frontier": (cmd_frontier, "electrolysis cost-carbon Pareto frontier"),
        "validate": (cmd_validate, "load and validate inputs, then exit"),
    }


COMMANDS = tuple(_commands())


def _invalid_choice(value: str, choices) -> str:
    return "invalid choice: %r (choose from %s)" % (value, ", ".join(map(repr, choices)))


def _check_choice(action, value) -> None:
    """argparse's check of a value against action.choices, with h2cost's
    own `invalid choice` text (an unknown command, --format, --technology):
    argparse quotes the choices on some patch releases and not on others.
    Set as each parser's _check_value."""
    if action.choices is not None and value not in action.choices:
        import argparse
        raise argparse.ArgumentError(action, _invalid_choice(value, action.choices))


def _print_message(message: str, file=None) -> None:
    """argparse's writer of help, usage and errors, set on each parser, but
    an OSError of stdout reaches main, as it does at main's flush when
    stdout is buffered: argparse's own drops it."""
    try:
        (file or sys.stderr).write(message)
    except (AttributeError, OSError):
        if file is sys.stdout is not None:
            raise


# crossover's two grid options, which exclude each other.
_EXCLUSIVE = ("--zero-year", "--constant")


def _options(command: str) -> list[tuple[str, str, object, dict]]:
    """command's options as (flag, dest, default, the other add_argument
    keywords), in help order: the one table that build_parser declares to
    argparse and _read_argv reads. An option with an action takes no value."""
    options = [("--dataset", "dataset", REFERENCE_DATASET, {"help": "state CSV "
                "(default: packaged 2020 reference dataset)"}),
               ("--config", "config", None, {"help": "JSON config overriding defaults"}),
               ("--no-strict", "strict", True, {"action": "store_false", "help":
                "skip incomplete dataset rows instead of failing"})]
    if command in ("lcoh", "breakeven", "frontier"):
        default = "aps-2050" if command == "breakeven" else "base-2020"
        options.append(("--scenario", "scenario", default,
                        {"help": f"scenario name (default {default})"}))
    if command in ("lcoh", "frontier"):
        options += [("--format", "format", "csv", {"choices": ("csv", "json")}),
                    ("--out", "out", None, {"help": "output path (default stdout)"})]
    elif command == "breakeven":
        options += [("--technology", "technology", "all",
                     {"choices": ("all",) + ELECTROLYSIS_PATHWAYS}),
                    ("--target", "target", "smr_ccs", {"help": "'smr_ccs' "
                     "(dataset-average SMR+CCS LCOH) or a fixed USD/kg value"})]
    elif command == "crossover":
        options += [("--zero-year", "zero_year", 2035, {"type": _zero_year, "help":
                     "linear grid decarbonization reaching zero here"}),
                    ("--constant", "constant", False, {"action": "store_true",
                     "help": "hold grid CI constant (reports no crossover)"})]
    return options


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """build_parser().parse_args(argv), read without argparse, when argv is
    a command then its own options, each spelled in full at most once, each
    value a word of its own that starts with no "-" and is one of the
    option's choices (--zero-year's in ASCII digits that int reads, never
    with --constant); None for any other argv, which argparse reads: help,
    abbreviations, "=" forms and every usage error."""
    if not argv or argv[0] not in COMMANDS or set(_EXCLUSIVE) <= set(argv):
        return None   # (no value read here starts with "-", so both are flags)
    options = {flag: rest for flag, *rest in _options(argv[0])}
    values = {dest: default for dest, default, _ in options.values()}
    for word in (words := iter(argv[1:])):
        if word not in options:   # not an option, or one popped: a repeat
            return None
        dest, default, kw = options.pop(word)
        value = not default if "action" in kw else next(words, "-")
        if "action" not in kw and (
                value.startswith("-") or value not in kw.get("choices", [value])
                or "type" in kw and not (value.isascii() and value.isdigit())):
            return None
        try:
            values[dest] = kw.get("type", lambda v: v)(value)
        except Exception:   # too many digits for int: argparse's error
            return None
    return SimpleNamespace(func=_commands()[argv[0]][0], command=argv[0], **values)


def build_parser():
    """The full argument parser."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="h2cost",
        description="State-level levelized cost and carbon intensity of "
                    "hydrogen from electrolysis and SMR.")
    parser._check_value, parser._print_message = _check_choice, _print_message
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text) in _commands().items():
        p = sub.add_parser(command, help=help_text)
        group = p.add_mutually_exclusive_group() if command == "crossover" else p
        for flag, dest, default, kw in _options(command):
            (group if flag in _EXCLUSIVE else p).add_argument(
                flag, dest=dest, default=default, **kw)
        if command == "breakeven":
            import re
            # argparse takes "-1e-3" or "-inf" for an option, so --target got no
            # value; a word of "-" then a digit, ".digit", inf or nan is a value.
            p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)
        p._check_value, p._print_message = _check_choice, _print_message
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:   # the process's own command line
        try:
            try:
                return main(sys.argv[1:])
            finally:   # also after argparse's help, version or usage exit
                if sys.stdout is not None:   # output still buffered fails
                    sys.stdout.flush()       # here, not in the flush at exit
        except OSError as exc:   # exit then flushes the rest to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return _fail(str(exc), EXIT_INPUT)
        finally:   # so the collections at interpreter exit skip the heap
            import gc   # only the process's own main needs it
            gc.freeze()
    argv = list(argv)
    # A first word "--" is the invalid command, as most releases read it;
    # 3.13.13's argparse drops it and reads the next word as the command.
    if argv[:1] == ["--"] and argv[1:]:
        build_parser().error(f"argument command: {_invalid_choice('--', COMMANDS)}")
    # The top level reads a word before "--" that starts with "--=" as an
    # abbreviation of both --help and --version; not every patch release's
    # argparse gets there first, so main gives that error itself.
    for word in argv[:argv.index("--") if "--" in argv else None]:
        if word.startswith("--="):
            build_parser().error(f"ambiguous option: {word} could match "
                                 f"--help, --version")
    # A command with its own options spelled in full needs no parser; the
    # full tree reads every other line.
    args = _read_argv(argv) or build_parser().parse_args(argv)
    if sys.stdout is None and getattr(args, "out", None) is None:
        return _fail("standard output is closed", EXIT_INPUT)
    try:
        return args.func(args)
    except DomainError as exc:
        return _fail(str(exc), EXIT_COMPUTE)
    except (SchemaError, ValidationError, OSError, UnicodeEncodeError) as exc:
        return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
