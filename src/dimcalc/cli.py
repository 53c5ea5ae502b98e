"""Command-line interface.

Subcommands: check (static verification), eval (compute and export CSV),
diagram (DOT dependency graph), explain (describe one variable).

Exit codes: 0 success, 1 parse or check errors, 2 evaluation error,
3 usage error, each the exit_code of the DiagnosticFailure raised. Results
go to stdout or files; warnings, then the failure, go last to stderr.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import operator
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from .checker import CheckedModel, check_model
from .diagram import emit_dot
from .evaluator import InputOverride, evaluate
from .model import Diagnostic, DiagnosticFailure, ValueTable, VariableKind
from .parser import format_expr, format_number, parse_cell, parse_model

class _Usage(DiagnosticFailure):
    """Bad invocation: one diagnostic without a code or a span."""

    exit_code = 3

    def __init__(self, message: str):
        super().__init__([Diagnostic("error", None, message, None)])


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(f"{self.prog}: {message}")


def _json_text(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2)`, less the cycle its encoder leaves."""
    import json  # only --json needs it, so other runs start without it
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{inner}{json.dumps(key)}: {_json_text(item, inner)}"
                 for key, item in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if isinstance(value, list) and value:
        items = [inner + _json_text(item, inner) for item in value]
        return "[\n" + ",\n".join(items) + f"\n{indent}]"
    return json.dumps(value)


def _load_checked(path: str) -> CheckedModel:
    try:
        # not read_text, whose universal newlines end a line at a quoted CR;
        # utf-8-sig drops the byte-order mark some editors write first
        text = Path(path).read_bytes().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        raise _Usage(f"cannot read {path}: "
                     f"{getattr(e, 'strerror', None) or e}") from None
    return check_model(parse_model(text, path))


def _cmd_check(args, checked: CheckedModel) -> None:
    model = checked.model
    for dim in model.dimensions:
        print(f"dimension {dim.name}: {len(dim.instances)} instances")
    print(f"{len(model.variables)} variables, {len(model.dimensions)} "
          f"dimensions, OK")


def _parse_set(text: str) -> InputOverride:
    # the value is a number, so the last '=' ends a name or label holding one
    head, eq, raw_value = text.rpartition("=")
    if not eq:
        raise _Usage(f"--set takes NAME=value or NAME[labels]=value, "
                     f"got {text!r}")
    cell = parse_cell(head)
    if cell is None:
        raise _Usage(f"--set: malformed cell address {head.strip()!r}; quote a "
                     f"name or label that is not a plain name, as in the model")
    name, labels = cell
    try:
        value = float(raw_value)
    except ValueError:
        raise _Usage(f"--set {name}: {raw_value!r} is not a number") from None
    return InputOverride(name, labels, value)


def _cannot_write(e: OSError) -> _Usage:
    return _Usage(f"cannot write {e.filename}: {e.strerror or e}")


def _quote(labels) -> list[str]:
    import csv  # only CSV export needs it, so other commands start without it
    # csv.writer quotes each instance label once, as the first of two fields
    # in the file's own dialect (its line terminator decides whether an LF
    # needs quotes); a row is then its labels' quoted text plus its value
    quoted = []
    csv.writer(SimpleNamespace(write=quoted.append), lineterminator="\n"
               ).writerows(zip(labels, itertools.repeat("")))
    return list(map(operator.itemgetter(slice(-1)), quoted))


def _block(outers: list[str], heads: list[str], values) -> str:
    # each outer prefix over each head, beside the next values: their one
    # repr text takes format_number's rule whole, and one join of the three
    # columns makes the rows, with no string built a row. The lists go with
    # the call, before the next block's are made
    count = len(outers) * len(heads)
    rows = [""] * (3 * count)
    rows[0::3] = itertools.chain.from_iterable(
        map(itertools.repeat, outers, itertools.repeat(len(heads))))
    rows[1::3] = heads * len(outers)
    rows[2::3] = ("\n".join(map(repr, itertools.islice(values, count)))
                  + "\n").replace(".0\n", "\n").splitlines(True)
    return "".join(rows)


def _write_csv(directory: Path, name: str, tensor, model) -> None:
    # the trailing axes that fit in 4,096 rows are quoted once, as one list
    # of heads, and a block holds as many prefixes of the leading axes as fit
    # beside it, quoted a column at a time; a last axis longer than that is
    # quoted 4,096 labels a block. So no string holds the whole file, nor a
    # list every quoted label of one axis
    import csv  # as in _quote
    axes = [model.dimension(dim).instances for dim in tensor.dims]
    inner = [""]
    while axes and len(inner) * len(axes[-1]) <= 4096:
        inner = list(map("".join, itertools.product(_quote(axes.pop()), inner)))
    last = axes.pop() if axes and inner == [""] else ()
    prefixes = itertools.product(*axes)
    per_block = 1 if last else 4096 // len(inner)
    values = iter(tensor.values)
    with open(directory / f"{name}.csv", "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerow([*tensor.dims.names, "value"])
        while group := list(itertools.islice(prefixes, per_block)):
            # quoted in place of the label tuples, which go before the block
            group = (list(map("".join, zip(*map(_quote, zip(*group)))))
                     if axes else [""])
            for start in range(0, len(last), 4096) if last else (0,):
                f.write(_block(group, _quote(last[start:start + 4096])
                               if last else inner, values))


def _cmd_eval(args, checked: CheckedModel) -> None:
    model = checked.model
    overrides = [_parse_set(s) for s in args.set or []]
    selected = list(dict.fromkeys(args.var or []))
    for name in selected:
        if not model.has_variable(name):
            raise _Usage(f"no variable named {name}")
    exported = selected or [v.name for v in model.variables
                            if v.kind is VariableKind.OUTPUT and v.dims.names]
    for name in exported:
        # each CSV file is named after its variable; keep it in --out-dir,
        # and out of open(), which refuses a NUL
        if name in (".", "..") or any(
                sep and sep in name for sep in (os.sep, os.altsep, "\0")):
            raise _Usage(f"cannot export {name}: a variable exported to CSV "
                         f"needs a name that is a plain file name")
    shown = selected or [v.name for v in model.variables
                         if v.kind is VariableKind.OUTPUT]
    try:
        tensors = evaluate(checked, overrides).tensors
    except ValueError as e:
        # bad override target or label: an invocation problem
        raise _Usage(str(e)) from None
    # only the tensors written or printed stay, so the others are freed
    # before the first file is written
    tensors = {name: tensors[name] for name in (*exported, *shown)}

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in exported:
            _write_csv(out_dir, name, tensors[name], model)
    except OSError as e:
        raise _cannot_write(e) from None
    for name in shown:
        tensor = tensors[name]
        if not tensor.dims.names:
            print(f"{name} = {format_number(tensor.values[0])}")


def _cmd_diagram(args, checked: CheckedModel) -> None:
    dot = emit_dot(checked.model, group_by_dimension_set=not args.no_group,
                   include_data_values=args.data_values)
    if args.out == "-":
        print(dot, end="")
    else:
        try:
            Path(args.out).write_text(dot, encoding="utf-8")
        except OSError as e:
            raise _cannot_write(e) from None


def _cmd_explain(args, checked: CheckedModel) -> None:
    model = checked.model
    if not model.has_variable(args.variable):
        raise _Usage(f"no variable named {args.variable}")
    var = model.variable(args.variable)

    line = var.kind.name.capitalize()  # "Input" ... "Calculated", "Output"
    line += f" over {var.dims}" if var.dims.names else ", dimensionless"
    if var.payload is None:
        line += ", no default value"
    elif isinstance(var.payload, ValueTable):
        if var.dims.names:
            line += f", {len(var.payload.values)} values"
        else:
            line += f", value {format_number(var.payload.scalar)}"
    else:
        line += f" = {format_expr(var.payload)}"

    uses = var.dependencies
    if uses:
        line += f"; uses: {', '.join(uses)}"
    used_by = [w.name for w in model.variables if var.name in w.dependencies]
    if used_by:
        line += f"; used by: {', '.join(used_by)}"
    print(line)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="dimcalc",
        description="Check, evaluate, and diagram multidimensional "
                    "calculation models (.dml files).")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("model", help="path to a .dml file")
        p.set_defaults(func=func)
        return p

    command("check", _cmd_check, "verify a model and report diagnostics")

    p = command("eval", _cmd_eval, "evaluate a model and export CSV tables")
    p.add_argument("--set", action="append", metavar="NAME=VALUE",
                   help="override an input (NAME=value or NAME[labels]=value); "
                        "repeatable")
    p.add_argument("--var", action="append", metavar="NAME",
                   help="variable to export (default: every output variable)")
    p.add_argument("-o", "--out-dir", default=".",
                   help="directory for CSV files (default: current)")

    p = command("diagram", _cmd_diagram, "emit a DOT dependency diagram")
    p.add_argument("-o", "--out", default="-",
                   help="output file, or - for stdout (default)")
    p.add_argument("--no-group", action="store_true",
                   help="do not cluster variables by dimension set")
    p.add_argument("--data-values", action="store_true",
                   help="append literal values to data-node labels")

    p = command("explain", _cmd_explain, "describe one variable")
    p.add_argument("variable", help="variable name")

    # last, as each subcommand's --help lists it
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true",
                       help="render diagnostics as a JSON array")
    return parser


# built once at import, as parser._TOKEN_RE is compiled once: parse_args
# writes only to a new namespace, so main() calls share no state
_PARSER = _build_parser()


def main(argv=None) -> int:
    """Run one invocation; the only place a failure becomes an exit code.
    The cyclic collector is paused meanwhile, as `timeit` pauses it: what
    an invocation builds forms no cycle, so reference counting frees it."""
    collecting = gc.isenabled()
    gc.disable()
    as_json, warnings, failure, code = False, (), (), 0
    try:
        args = _PARSER.parse_args(argv)
        as_json = args.json  # argparse's own errors, before it, stay text
        checked = _load_checked(args.model)
        warnings = checked.warnings
        args.func(args, checked)
    except DiagnosticFailure as e:  # keep no e: its traceback holds this frame
        failure, code = e.diagnostics, e.exit_code
    except MemoryError:  # nothing bounds a tensor's cells before it is made
        failure, code = [Diagnostic("error", None, "out of memory", None)], 2
    finally:
        if collecting:
            gc.enable()
    if shown := [*warnings, *failure]:
        print(_json_text([d.as_json() for d in shown]) if as_json
              else "\n".join(d.render() for d in shown), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
