import contextlib
import copy
import functools
import io
import itertools
import json
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import load_checked, load_model
from dimcalc import checker as checker_module
from dimcalc.checker import CheckFailure, check_model
from dimcalc.cli import main
from dimcalc.model import (Aggregate, Binary, DimensionSet, EMPTY_DIMS,
                           Model, Ref, ValueTable, Variable, VariableKind)
from dimcalc.parser import parse_model
from test_evaluator import assert_matches_reference

DIMS = ("A", "B", "C", "D")
SUBSETS = [tuple(DIMS[i] for i in combo)
           for k in range(5)
           for combo in itertools.combinations(range(4), k)]


def table_text(names):
    """Complete keyed-table literal for a set of 2-instance dimensions."""
    if not names:
        return "1"
    keys = itertools.product(*((f"{n}1", f"{n}2") for n in names))
    entries = ", ".join(f"{','.join(key)}: 1" for key in keys)
    return "{" + entries + "}"


def over_clause(names):
    return f" over ({', '.join(names)})" if names else ""


def lattice_model(target, operand, aggregate=False):
    lines = [f"dimension {n} = [{n}1, {n}2]" for n in DIMS]
    lines.append(f"data Anchor{over_clause(target)} = " + table_text(target))
    lines.append(f"data Probe{over_clause(operand)} = " + table_text(operand))
    probe = "SUM(Probe)" if aggregate else "Probe"
    lines.append(f"calc X{over_clause(target)} = Anchor * {probe}")
    return parse_model("\n".join(lines) + "\n")


def check_codes(model):
    try:
        checked = check_model(model)
    except CheckFailure as err:
        return [d.code for d in err.diagnostics]
    return [d.code for d in checked.warnings]


FIXTURE_CODES = [
    ("bad_rule1_overspan.dml", "R1-MISMATCH"),
    ("bad_rule1_underspan.dml", "R1-MISMATCH"),
    ("bad_rule2.dml", "R2-NOT-SUBSET"),
    ("bad_rule3.dml", "R3-NOT-SUPERSET"),
    ("bad_kind.dml", "K-KIND"),
    ("bad_cycle.dml", "C-CYCLE"),
]


@pytest.mark.parametrize("fixture,code", FIXTURE_CODES)
def test_negative_fixture_single_diagnostic(fixture, code):
    with pytest.raises(CheckFailure) as info:
        check_model(load_model(fixture))
    diags = info.value.diagnostics
    assert len(diags) == 1
    assert diags[0].code == code
    assert diags[0].severity == "error"
    assert diags[0].span is not None


def test_rule1_overspan_message():
    with pytest.raises(CheckFailure) as info:
        check_model(load_model("bad_rule1_overspan.dml"))
    message = info.value.diagnostics[0].message
    assert "(Month, Sector)" in message and "(Month)" in message
    assert "extra" in message


def test_rule1_missing_and_extra_message():
    model = parse_model("dimension A = [a]\ndimension B = [b]\n"
                        "data X over (A) = [1]\ncalc Y over (B) = X\n")
    with pytest.raises(CheckFailure) as info:
        check_model(model)
    assert [d.render() for d in info.value.diagnostics] == [
        "<input>:4:1: error[R1-MISMATCH]: Y is declared over (B) but its "
        "formula spans (A): missing (B), extra (A)"]


def test_kind_messages():
    with pytest.raises(CheckFailure) as info:
        check_model(parse_model("dimension S = [a, b]\n"
                                "calc X over (S) = [1, 2]\n"))
    assert [d.render() for d in info.value.diagnostics] == [
        "<input>:2:1: error[K-KIND]: calc X carries literal values; write a "
        "formula, or declare it as data"]
    # the parser gives every calc a formula and every data a value
    model = Model((), (Variable("X", VariableKind.CALCULATED, EMPTY_DIMS, None),
                       Variable("Z", VariableKind.DATA, EMPTY_DIMS, None)))
    with pytest.raises(CheckFailure) as info:
        check_model(model)
    assert [d.render() for d in info.value.diagnostics] == [
        "error[K-KIND]: calc X has no formula",
        "error[K-KIND]: data Z has no value"]


def test_rule1_underspan_message():
    with pytest.raises(CheckFailure) as info:
        check_model(load_model("bad_rule1_underspan.dml"))
    message = info.value.diagnostics[0].message
    assert "missing" in message and "(Sector)" in message


def test_rule2_names_offending_dimension():
    with pytest.raises(CheckFailure) as info:
        check_model(load_model("bad_rule2.dml"))
    message = info.value.diagnostics[0].message
    assert "Load" in message and "(Region)" in message


def test_cycle_message_shows_path():
    with pytest.raises(CheckFailure) as info:
        check_model(load_model("bad_cycle.dml"))
    message = info.value.diagnostics[0].message
    assert "A -> B -> A" in message or "B -> A -> B" in message


@pytest.mark.parametrize("source,cycles", [
    ("input I = 1\ncalc X = X + I\n", [("2:1", "X")]),
    ("calc A = B\ncalc B = A\ncalc C = D\ncalc D = C\n",
     [("1:1", "A", "B"), ("3:1", "C", "D")]),
    # C only uses the cycle; it is no part of one
    ("calc A = B\ncalc B = A\ncalc C = A + B\n", [("1:1", "A", "B")]),
    # declared first, C leads into the cycle, which starts at A
    ("calc C = A\ncalc A = B\ncalc B = A\n", [("2:1", "A", "B")]),
    # B -> C -> B shares B with A -> B -> A: no variable is reported twice
    ("calc A = B\ncalc B = A + C\ncalc C = B\n", [("1:1", "A", "B")]),
], ids=["self-reference", "disjoint", "dependent-after", "dependent-before",
        "shared-variable"])
def test_cycle_shapes(source, cycles):
    with pytest.raises(CheckFailure) as info:
        check_model(parse_model(source))
    diagnostics = info.value.diagnostics
    assert [d.render() for d in diagnostics] == [
        f"<input>:{where}: error[C-CYCLE]: dependency cycle: "
        f"{' -> '.join([*names, names[0]])}" for where, *names in cycles]
    assert [d.variables for d in diagnostics] == [
        tuple(names) for _, *names in cycles]


class TestRule2Lattice:
    @pytest.mark.parametrize("target", SUBSETS)
    @pytest.mark.parametrize("operand", SUBSETS)
    def test_r2_fires_iff_not_subset(self, target, operand):
        codes = check_codes(lattice_model(target, operand))
        if set(operand) <= set(target):
            assert codes == []
        else:
            assert codes == ["R2-NOT-SUBSET"]


class TestRule3Lattice:
    @pytest.mark.parametrize("target", SUBSETS)
    @pytest.mark.parametrize("source", SUBSETS)
    def test_r3_fires_iff_not_superset(self, target, source):
        codes = check_codes(lattice_model(target, source, aggregate=True))
        if set(source) > set(target):
            assert codes == []
        elif set(source) == set(target):
            assert codes == ["R3-DEGENERATE"]
        else:
            assert codes == ["R3-NOT-SUPERSET"]


class TestKind:
    def test_constant_calc_formula(self):
        model = parse_model("calc X = 1 + 2\n")
        assert check_codes(model) == ["K-KIND"]

    def test_output_with_table(self):
        model = parse_model("output X = 5\n")
        assert check_codes(model) == ["K-KIND"]

    def test_input_with_formula(self):
        model = parse_model("input A = 1\ninput X = A * 2\n")
        assert check_codes(model) == ["K-KIND"]

    def test_kind_reported_before_rule1(self):
        # Discounted breaks both kind (data with formula) and nothing else;
        # the kind problem must be the one reported
        with pytest.raises(CheckFailure) as info:
            check_model(load_model("bad_kind.dml"))
        assert [d.code for d in info.value.diagnostics] == ["K-KIND"]


class TestOrder:
    def test_acme_checks_clean(self, acme_checked):
        assert acme_checked.warnings == ()
        assert len(acme_checked.order) == 31

    def test_pricing_checks_clean(self, pricing_checked):
        assert pricing_checked.warnings == ()
        assert len(pricing_checked.order) == 16

    def test_order_respects_dependencies(self, acme_checked):
        position = {name: i for i, name in enumerate(acme_checked.order)}
        model = acme_checked.model
        from dimcalc.model import Expr, iter_dependencies
        for var in model.variables:
            if isinstance(var.payload, Expr):
                for dep, _ in iter_dependencies(var.payload):
                    assert position[dep] < position[var.name]

    def test_order_is_deterministic(self):
        first = load_checked("acme.dml").order
        second = load_checked("acme.dml").order
        assert first == second

    def test_order_prefers_declaration_order(self):
        model = parse_model(
            "input A = 1\ninput B = 2\ncalc Z = A + B\ncalc Y = B + A\n")
        checked = check_model(model)
        assert checked.order == ("A", "B", "Z", "Y")

    def test_forward_references_allowed(self, pricing_checked):
        order = pricing_checked.order
        assert order.index("Revenue") < order.index("Profit")


class TestDegenerateSum:
    def test_warning_not_error(self):
        model = parse_model(
            "dimension M = [Jan, Feb]\n"
            "data Sales over (M) = [1, 2]\n"
            "calc Echo over (M) = SUM(Sales)\n")
        checked = check_model(model)
        assert [w.code for w in checked.warnings] == ["R3-DEGENERATE"]
        assert checked.order == ("Sales", "Echo")


def test_diagnostics_sorted_by_position():
    model = parse_model(
        "dimension M = [Jan]\n"
        "data Later over (M) = {Jan: 1}\n"
        "calc Bad2 = Later\n"        # R1 at line 3
        "data Bad1 over (M) = 1 - 0\n")  # K-KIND at line 4
    with pytest.raises(CheckFailure) as info:
        check_model(model)
    codes = [d.code for d in info.value.diagnostics]
    assert codes == ["R1-MISMATCH", "K-KIND"]
    lines = [d.span.start_line for d in info.value.diagnostics]
    assert lines == sorted(lines)


@st.composite
def rule_models(draw):
    """(text, dimension names, each variable's dimensions, formulas): 0-4
    dimensions of 1-3 labels, a data table over every subset of them, and
    1-4 formulas over any set. Operands are any earlier variable, bare or
    summed (an earlier SUM too), so every rule can fail, and one formula in
    five is a bare reference. A third of the others also take the literal
    2 as an operand, which `spans` lists as over no dimension. A formula
    is (name, target, operands, bare), an operand (name, summed)."""
    names = "ABCD"[:draw(st.integers(0, 4))]
    labels = {d: [f"{d.lower()}{i}" for i in range(draw(st.integers(1, 3)))]
              for d in names}
    lines = [f"dimension {d} = [{', '.join(ls)}]" for d, ls in labels.items()]
    spans = {}  # variable -> its dimensions
    for k in range(2 ** len(names)):
        dims = "".join(d for i, d in enumerate(names) if k >> i & 1)
        cells = itertools.product(*(labels[d] for d in dims))
        table = ", ".join(f"{','.join(cell)}: 1" for cell in cells)
        lines.append(f"data X{dims}{over_clause(dims)} = "
                     + (f"{{{table}}}" if dims else "1"))
        spans[f"X{dims}"] = dims
    spans["2"] = ""
    formulas = []

    def operand():
        # a formula half the time when there is one, so SUMs nest
        pool = [f[0] for f in formulas]
        if not pool or draw(st.booleans()):
            pool = [n for n in spans if n.startswith("X")]
        return draw(st.sampled_from(pool)), draw(st.booleans())

    for k in range(draw(st.integers(1, 4))):
        target = "".join(d for d in names if draw(st.booleans()))
        bare = draw(st.integers(0, 4)) == 0
        operands = ([(operand()[0], False)] if bare else
                    [operand() for _ in range(draw(st.integers(1, 3)))])
        if not bare and draw(st.integers(0, 2)) == 0:
            operands.insert(draw(st.integers(0, len(operands))), ("2", False))
        text = " ".join(
            (f"{draw(st.sampled_from('+-*/^'))} " if i else "")
            + (f"SUM({n})" if summed else n)
            for i, (n, summed) in enumerate(operands))
        if not bare and text.isidentifier():
            text = f"-{text}"  # a lone operand under an operator
        lines.append(f"calc F{k}{over_clause(target)} = {text}")
        spans[f"F{k}"] = target
        formulas.append((f"F{k}", target, operands, bare))
    return "\n".join(lines) + "\n", names, spans, formulas


def rule_oracle(names, spans, formulas):
    """The diagnostics the three rules give, worked out on plain sets, as
    (severity, code, variables, dimension sets), in source order: each
    formula on its line, Rule 1 at its start, then its operands."""
    def ordered(members):
        return tuple(d for d in names if d in members)

    out = []
    for name, target, operands, bare in formulas:
        target = set(target)
        found = []  # (place on the line, diagnostic)
        spanned = set()
        for place, (source, summed) in enumerate(operands, 1):
            dims = set(spans[source])
            sets = (ordered(dims), ordered(target))
            if bare:
                pass
            elif summed and not target <= dims:
                found.append((place, ("error", "R3-NOT-SUPERSET",
                                      (name, source), sets)))
                break
            elif summed and dims == target:
                found.append((place, ("warning", "R3-DEGENERATE",
                                      (name, source), sets)))
            elif not summed and not dims <= target:
                found.append((place, ("error", "R2-NOT-SUBSET",
                                      (name, source), sets)))
                break
            spanned |= dims & target if summed else dims
        else:
            if spanned != target:
                found.append((0, ("error", "R1-MISMATCH", (name,),
                                  (ordered(target), ordered(spanned)))))
        out += [diagnostic for _, diagnostic in sorted(found)]
    return out


def check_view(model):
    """check_model's diagnostics as JSON, and its order if it passes."""
    try:
        checked = check_model(model)
    except CheckFailure as failure:
        return [d.as_json() for d in failure.diagnostics], None
    return [w.as_json() for w in checked.warnings], checked.order


@given(rule_models())
# a SUM, then a literal: Rule 1 sees the source cut to the target, and
# nothing from the literal
@example(("dimension A = [a0]\ndimension B = [b0, b1]\ndata X = 1\n"
          "data XA over (A) = {a0: 1}\ndata XB over (B) = {b0: 1, b1: 1}\n"
          "data XAB over (A, B) = {a0,b0: 1, a0,b1: 1}\n"
          "calc F0 over (A) = SUM(XAB) / 2\n", "AB",
          {"X": "", "XA": "A", "XB": "B", "XAB": "AB", "2": ""},
          [("F0", "A", [("XAB", True), ("2", False)], False)]))
@settings(max_examples=300, deadline=None)
def test_rules_match_a_set_oracle(case):
    text, names, spans, formulas = case
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "rules.dml")
        Path(path).write_text(text, encoding="utf-8")
        model = parse_model(text, path)
        try:
            diagnostics = check_model(model).warnings
        except CheckFailure as failure:
            diagnostics = failure.diagnostics
        assert [(d.severity, d.code, d.variables,
                 tuple(s.names for s in d.dimension_sets))
                for d in diagnostics] == rule_oracle(names, spans, formulas)
        # the CLI prints the same diagnostics
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            main(["check", path, "--json"])
        printed = err.getvalue()
        assert (json.loads(printed) if printed else []) == [
            d.as_json() for d in diagnostics]
    view = check_view(model)
    if view[1] is not None:  # a clean model evaluates as the reference does
        assert_matches_reference(check_model(model))
    # variables over one set share its DimensionSet; a model with a fresh,
    # equal set per variable, and a copy made by pickle or deepcopy, check
    # the same
    fresh = Model(model.dimensions, tuple(
        Variable(v.name, v.kind, DimensionSet(tuple(list(v.dims.names))),
                 v.payload, v.span) for v in model.variables))
    for other in (fresh, pickle.loads(pickle.dumps(model)),
                  copy.deepcopy(model)):
        assert other == model
        assert check_view(other) == view


@st.composite
def graph_models(draw):
    """(model, each variable's references in reading order): 1-9 scalar
    variables, each an input or a sum of 1-3 references to any of them,
    self-references and repeats included, plain or through SUM. The model
    is parsed from text, or built in Python without spans."""
    names = [f"V{i}" for i in range(draw(st.integers(1, 9)))]
    refs = {}
    lines = []
    variables = []
    for name in names:
        uses = draw(st.lists(st.tuples(st.sampled_from(names), st.booleans()),
                             max_size=3))
        refs[name] = [ref for ref, _ in uses]
        if not uses:
            lines.append(f"input {name} = 1")
            variables.append(Variable(name, VariableKind.INPUT, EMPTY_DIMS,
                                      ValueTable((1.0,))))
            continue
        lines.append(f"calc {name} = " + " + ".join(
            f"SUM({ref})" if summed else ref for ref, summed in uses))
        formula = functools.reduce(
            functools.partial(Binary, "+"),
            [Aggregate(ref) if summed else Ref(ref) for ref, summed in uses])
        variables.append(Variable(name, VariableKind.CALCULATED, EMPTY_DIMS,
                                  formula))
    if draw(st.booleans()):
        return parse_model("\n".join(lines) + "\n"), refs
    return Model((), tuple(variables)), refs


def order_and_cycles_oracle(refs):
    """The evaluation order, or the C-CYCLE paths, of variables with these
    references (in declaration order), on plain lists."""
    order = []
    while True:
        ready = [name for name in refs if name not in order
                 and all(ref in order for ref in refs[name])]
        if not ready:
            break
        order.append(ready[0])
    cycles = []
    passed = set()
    for name in refs:
        path = []
        while name not in order and name not in path and name not in passed:
            path.append(name)
            name = next(ref for ref in refs[name] if ref not in order)
        passed.update(path)
        if name in path:
            cycles.append(path[path.index(name):])
    return order, cycles


@given(graph_models())
@settings(max_examples=300, deadline=None)
def test_order_and_cycles_match_an_oracle(case):
    model, refs = case
    order, cycles = order_and_cycles_oracle(refs)
    try:
        checked = check_model(model)
    except CheckFailure as failure:
        found = [d for d in failure.diagnostics if d.severity == "error"]
    else:
        assert checked.order == tuple(order)
        found = []
    assert (len(order) == len(refs)) == (not cycles)
    expected = [("C-CYCLE", f"dependency cycle: {' -> '.join(cycle)} -> "
                 f"{cycle[0]}", tuple(cycle), model.variable(cycle[0]).span)
                for cycle in cycles]
    # diagnostics with spans are sorted by where they start; those without
    # keep the order the walks found them in
    expected.sort(key=lambda d: d[3].start_line if d[3] else 0)
    assert [(d.code, d.message, d.variables, d.span)
            for d in found] == expected


def test_cycle_report_is_linear():
    # a ring of 20,000 variables and 2,000 tails declared before it, each
    # leading into it: the first walk goes round the ring, and every later
    # one stops where it reaches the ring. In a fresh interpreter, so that a
    # quadratic walk fails the test by the timeout rather than hanging it
    source = (
        "import json, sys, time; sys.path.insert(0, sys.argv[1]); "
        "from dimcalc.checker import CheckFailure, check_model; "
        "from dimcalc.model import EMPTY_DIMS, Model, Ref, Variable, "
        "VariableKind; "
        "calc = lambda name, ref: Variable(name, VariableKind.CALCULATED, "
        "EMPTY_DIMS, Ref(ref)); "
        "tails = [calc(f'T{j}', f'R{j * 10}') for j in range(2000)]; "
        "ring = [calc(f'R{i}', f'R{(i + 1) % 20000}') for i in range(20000)]; "
        "model = Model((), tuple(tails + ring)); start = time.perf_counter()\n"
        "try: check_model(model)\n"
        "except CheckFailure as failure: diags = failure.diagnostics\n"
        "print(json.dumps([time.perf_counter() - start, "
        "[(d.code, len(d.variables), d.variables[0]) for d in diags]]))")
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", source,
         str(Path(checker_module.__file__).parents[1])],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    elapsed, found = json.loads(result.stdout)
    assert found == [["C-CYCLE", 20000, "R0"]]
    assert elapsed < 5.0  # linear: about 0.2 s
