"""The whole eval pipeline against the benchmark's reference evaluator.

Small models of `perfbench/generate.py`'s `Spec` type are drawn with
awkward names and labels, written as `.dml` by a quoting writer of this
file's own, and run through `cli.main(["eval", ...])` with `--var` picks
and `--set` overrides. Every CSV cell and every printed scalar must equal
`perfbench/reference.py::evaluate`, which imports nothing from dimcalc,
and `--out-dir` must hold exactly the exported files.
"""

import contextlib
import copy
import csv
import io
import itertools
import sys
import tempfile
from pathlib import Path

from hypothesis import example, given, strategies as st

from conftest import REPO_ROOT
from dimcalc.cli import main

sys.path.insert(0, str(REPO_ROOT / "perfbench"))
import generate  # noqa: E402
import reference  # noqa: E402


def _quote(name: str) -> str:
    # every name and label is written quoted, which reads back the same
    # whether or not it needed the quotes
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _expr(tree) -> str:
    tag = tree[0]
    if tag == "ref":
        return _quote(tree[1])
    if tag == "sum":
        return f"SUM({_quote(tree[1])})"
    if tag == "lit":
        return repr(tree[1])
    if tag == "neg":
        return f"-({_expr(tree[1])})"
    return f"({_expr(tree[1])}) {tag} ({_expr(tree[2])})"


def _body(var) -> str:
    if var.formula is not None:
        return _expr(var.formula)
    if not var.dims:
        return repr(var.table[()])
    if var.positional:
        return "[" + ", ".join(map(repr, var.table.values())) + "]"
    return "{" + ", ".join(f"{','.join(map(_quote, labels))}: {value!r}"
                           for labels, value in var.table.items()) + "}"


def _dml(spec) -> str:
    lines = [f"dimension {_quote(name)} = [{', '.join(map(_quote, labels))}]"
             for name, labels in spec.dimensions]
    for var in spec.declared:
        over = f" over ({', '.join(map(_quote, var.dims))})" if var.dims else ""
        lines.append(f"{var.kind} {_quote(var.name)}{over} = {_body(var)}")
    return "\n".join(lines) + "\n"


# names and labels the model source must quote: blanks, keywords, quotes,
# backslashes, commas, brackets, digit-first and non-ASCII names; none holds
# a path separator, and no CSV file name is "." or ".."
_names = st.one_of(
    st.text(st.sampled_from('ab "\\,=[]#1éSUMover_'), min_size=1, max_size=5),
    st.sampled_from(["SUM", "over", "input", "2024", "1e3", "a b", "x"]))
_labels = st.lists(_names, min_size=1, max_size=3, unique=True).map(tuple)
# every value lies in [1, 2], and generate's templates keep formulas there
_values = st.floats(1, 2)


@st.composite
def _specs(draw):
    """A Spec of 1-3 dimensions of 1-3 labels, input and data tables, and
    formulas of broadcasts and SUMs, declared in any order."""
    count, bases, formulas = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                              draw(st.integers(1, 4)))
    names = draw(st.lists(_names, min_size=count + bases + formulas,
                          max_size=count + bases + formulas, unique=True))
    spec = generate.Spec([(name, draw(_labels)) for name in names[:count]], [])
    subsets = [c for k in range(count + 1)
               for c in itertools.combinations(names[:count], k)]
    for i, name in enumerate(names[count:count + bases]):
        dims = draw(st.sampled_from(subsets)) if i else ()  # a scalar first
        spec.variables.append(generate.Var(
            name, draw(st.sampled_from(["input", "data"])), dims,
            {labels: draw(_values) for labels in spec.tuples(dims)},
            positional=len(dims) == 1 and draw(st.booleans())))
    for name in names[count + bases:]:
        wide = [v for v in spec.variables if v.dims]
        if wide and draw(st.booleans()):
            # SUM over a strict subset of its source's dimensions, averaged
            source = draw(st.sampled_from(wide))
            dims = tuple(d for d in source.dims if draw(st.booleans()))
            if dims == source.dims:
                dims = dims[:-1]
            b = ("/", ("sum", source.name), ("lit", float(
                spec.cells(d for d in source.dims if d not in dims))))
            a = draw(st.sampled_from(
                [v for v in spec.variables if set(v.dims) <= set(dims)]))
        else:
            a, other = (draw(st.sampled_from(spec.variables)) for _ in range(2))
            dims = tuple(d for d in names[:count]
                         if d in a.dims or d in other.dims)
            b = ("ref", other.name)
        template = draw(st.sampled_from(generate._TEMPLATES))
        spec.variables.append(generate.Var(
            name, draw(st.sampled_from(["calc", "output"])), dims,
            formula=template(("ref", a.name), b)))
    spec.declared = draw(st.permutations(spec.variables))
    return spec


@st.composite
def _runs(draw):
    """A spec, the --var picks and the --set overrides of one eval."""
    spec = draw(_specs())
    picks = draw(st.lists(st.sampled_from([v.name for v in spec.variables]),
                          max_size=3))
    inputs = [v for v in spec.variables if v.kind == "input"]
    sets = []
    for _ in range(draw(st.integers(0, 3)) if inputs else 0):
        var = draw(st.sampled_from(inputs))
        sets.append((var, draw(st.sampled_from(list(spec.tuples(var.dims)))),
                     draw(_values)))
    return spec, picks, sets


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.reader(f))


_OVER = generate.Var("over", "input", ("D", "1"),
                     {("a b", "x"): 1.5, ("SUM", "x"): 1.25})
_QUOTED = [_OVER,
           generate.Var('q"t', "output", ("D",),
                        formula=("/", ("sum", "over"), ("lit", 1.0))),
           generate.Var("S", "output", (),
                        formula=("/", ("sum", "over"), ("lit", 2.0)))]


@given(_runs())
@example((generate.Spec([("D", ("a b", "SUM")), ("1", ("x",))], _QUOTED,
                        _QUOTED[::-1]), [], [(_OVER, ("SUM", "x"), 1.75)]))
def test_eval_matches_the_reference_evaluator(run):
    # one copy, so each --set lands in the tables the reference reads
    spec, picks, sets = copy.deepcopy(run)
    argv = []
    for var, labels, value in sets:
        var.table[labels] = value
        address = _quote(var.name) + (
            f"[{','.join(map(_quote, labels))}]" if labels else "")
        argv += ["--set", f"{address}={value!r}"]
    for name in picks:
        argv += ["--var", name]
    expected = reference.evaluate(spec)
    picked = list(dict.fromkeys(picks))  # each once, in first-named order
    exported = picked or [
        v.name for v in spec.declared if v.kind == "output" and v.dims]
    shown = picked or [v.name for v in spec.declared if v.kind == "output"]
    dims_of = {v.name: v.dims for v in spec.variables}

    with tempfile.TemporaryDirectory() as tmp:
        model, out = Path(tmp) / "model.dml", Path(tmp) / "out"
        model.write_text(_dml(spec), encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(stdout),
              contextlib.redirect_stderr(stderr)):
            code = main(["eval", str(model), "--out-dir", str(out), *argv])
        assert (code, stderr.getvalue()) == (0, "")
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["model.dml", "out"]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"{name}.csv" for name in exported)
        for name in exported:
            dims = dims_of[name]
            rows = _rows(out / f"{name}.csv")
            assert rows[0] == [*dims, "value"]
            assert [row[:-1] for row in rows[1:]] == list(
                map(list, spec.tuples(dims)))
            assert [float(row[-1]) for row in rows[1:]] == [
                expected[name][labels] for labels in spec.tuples(dims)]

    scalars = [name for name in shown if not dims_of[name]]
    lines = stdout.getvalue().splitlines()
    assert len(lines) == len(scalars)
    for name, line in zip(scalars, lines):
        assert line.startswith(f"{name} = ")
        assert float(line[len(name) + 3:]) == expected[name][()]
