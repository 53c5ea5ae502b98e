import copy
import math
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from dimcalc.checker import (CheckDiagnostic, CheckedModel, CheckFailure,
                             check_model)
from dimcalc.evaluator import EvalError, EvaluationResult, InputOverride
from dimcalc.model import (Aggregate, Binary, Diagnostic, DiagnosticFailure,
                           Dimension, DimensionSet, EMPTY_DIMS, Expr, Literal,
                           Model, ModelError, Ref, SourceSpan, Tensor, Unary,
                           ValueTable, Variable, VariableKind, difference,
                           iter_dependencies, iter_nodes)
from dimcalc.parser import ParseDiagnostic, ParseFailure, parse_model
from helpers import enumerate_dimension_sets, full_set, union

ACME_DIM_NAMES = ("Month", "Sector", "Product", "Region")

subsets = st.lists(
    st.sampled_from(list(range(4))), unique=True).map(sorted).map(
    lambda idx: DimensionSet(tuple(ACME_DIM_NAMES[i] for i in idx)))


def make_model():
    dims = (
        Dimension("Month", ("Jan", "Feb", "Mar")),
        Dimension("Region", ("N", "S")),
    )
    variables = (
        Variable("X", VariableKind.DATA,
                 DimensionSet(("Month", "Region")),
                 ValueTable(tuple(float(i) for i in range(6))),
                 None),
    )
    return Model(dims, variables)


class TestDimensionSet:
    def test_str_and_len(self):
        ds = DimensionSet(("Month", "Sector"))
        assert str(ds) == "(Month, Sector)"
        assert len(ds) == 2
        assert "Month" in ds and "Region" not in ds
        assert str(EMPTY_DIMS) == "()"

    def test_rejects_duplicates(self):
        with pytest.raises(ModelError):
            DimensionSet(("Month", "Month"))

    def test_members_are_derived(self):
        # the member set takes no part in ==, hash, repr or pickling
        ds = DimensionSet(("Month", "Sector"))
        assert ds.members == frozenset(("Month", "Sector"))
        swapped = DimensionSet(("Sector", "Month"))
        assert swapped.members == ds.members and swapped != ds
        assert hash(ds) == hash((("Month", "Sector"),))
        assert repr(ds) == "DimensionSet(names=('Month', 'Sector'))"
        assert ds.__reduce__() == (DimensionSet, (("Month", "Sector"),))
        for twin in (pickle.loads(pickle.dumps(ds)), copy.deepcopy(ds)):
            assert twin == ds and twin.members == ds.members
        with pytest.raises(FrozenInstanceError):
            ds.members = frozenset()

    @given(subsets, subsets)
    def test_union_commutes_and_orders(self, a, b):
        u = union(ACME_DIM_NAMES, a, b)
        assert u == union(ACME_DIM_NAMES, b, a)
        assert set(u.names) == set(a.names) | set(b.names)
        positions = [ACME_DIM_NAMES.index(n) for n in u.names]
        assert positions == sorted(positions)

    @given(subsets, subsets)
    def test_difference_agrees_with_sets(self, a, b):
        d = difference(a, b)
        assert set(d.names) == set(a.names) - set(b.names)
        assert union(ACME_DIM_NAMES, d, b) == union(ACME_DIM_NAMES, a, b)
        # it keeps a's order: a subsequence of a
        assert list(d.names) == [n for n in a.names if n in d]


class TestModel:
    def test_tensor_shape_and_indexing(self):
        model = make_model()
        dims = model.dim_set(("Month", "Region"))
        counts = [len(model.dimension(n).instances) for n in dims]
        assert counts == [3, 2]
        assert model.tensor_size(dims) == math.prod(counts) == 6
        assert model.tensor_index(dims, ("Feb", "N")) == 2
        assert model.tensor_coords(dims, 2) == ("Feb", "N")
        tuples = list(model.instance_tuples(dims))
        assert tuples[0] == ("Jan", "N")
        assert tuples[-1] == ("Mar", "S")

    def test_dim_set_canonicalizes(self):
        model = make_model()
        assert model.dim_set(("Region", "Month")).names == ("Month", "Region")
        with pytest.raises(ModelError, match="no dimension named Sector"):
            model.dim_set(("Month", "Sector"))

    def test_index_roundtrip_full(self):
        model = make_model()
        dims = full_set(model)
        for i in range(model.tensor_size(dims)):
            assert model.tensor_index(dims, model.tensor_coords(dims, i)) == i

    def test_rejects_duplicate_variable_names(self):
        dims = (Dimension("Month", ("Jan",)),)
        v = Variable("X", VariableKind.DATA, EMPTY_DIMS,
                     ValueTable((1.0,)), None)
        with pytest.raises(ModelError):
            Model(dims, (v, v))

    def test_rejects_name_clash_with_dimension(self):
        dims = (Dimension("Month", ("Jan",)),)
        v = Variable("Month", VariableKind.DATA, EMPTY_DIMS,
                     ValueTable((1.0,)), None)
        with pytest.raises(ModelError):
            Model(dims, (v,))

    def test_rejects_incomplete_table(self):
        dims = (Dimension("Month", ("Jan", "Feb")),)
        v = Variable("X", VariableKind.DATA, DimensionSet(("Month",)),
                     ValueTable((1.0,)), None)
        with pytest.raises(ModelError,
                           match="variable X: value table holds 1 values "
                                 "for 2 cells"):
            Model(dims, (v,))

    def test_rejects_non_canonical_order(self):
        dims = (Dimension("Month", ("Jan",)), Dimension("Region", ("N",)))
        v = Variable("X", VariableKind.DATA,
                     DimensionSet(("Region", "Month")), ValueTable((1.0,)))
        with pytest.raises(ModelError,
                           match=r"variable X: dimension set \(Region, Month\) "
                                 "does not match the declared dimensions"):
            Model(dims, (v,))

    def test_rejects_undeclared_dimension(self):
        dims = (Dimension("Month", ("Jan",)),)
        v = Variable("X", VariableKind.DATA,
                     DimensionSet(("Month", "Sector")), ValueTable((1.0,)))
        with pytest.raises(ModelError,
                           match=r"variable X: dimension set \(Month, Sector\) "
                                 "does not match the declared dimensions"):
            Model(dims, (v,))

    def test_rejects_unknown_reference(self):
        dims = (Dimension("Month", ("Jan",)),)
        v = Variable("X", VariableKind.CALCULATED, EMPTY_DIMS,
                     Ref("Ghost"), None)
        with pytest.raises(ModelError):
            Model(dims, (v,))

    def test_rejects_duplicate_dimension_names(self):
        dims = (Dimension("Month", ("Jan",)), Dimension("Month", ("Feb",)))
        with pytest.raises(ModelError, match="^duplicate dimension name$"):
            Model(dims, ())

    def test_unknown_names(self):
        model = make_model()
        with pytest.raises(ModelError, match="^no dimension named Sector$"):
            model.dimension("Sector")
        with pytest.raises(ModelError, match="^no variable named Y$"):
            model.variable("Y")
        with pytest.raises(ModelError, match="^no dimension named Sector$"):
            model.tensor_size(DimensionSet(("Month", "Sector")))

    def test_index_errors(self):
        model = make_model()
        dims = model.dim_set(("Month", "Region"))
        with pytest.raises(ModelError, match=r"^expected 2 instance labels "
                                             r"for \(Month, Region\), got 1$"):
            model.tensor_index(dims, ("Jan",))
        with pytest.raises(ModelError, match=r"^expected 1 instance label "
                                             r"for \(Region\), got 2$"):
            model.tensor_index(model.dim_set(("Region",)), ("N", "S"))
        for index in (-1, 6):
            with pytest.raises(ModelError, match=rf"^index {index} out of "
                               r"range for \(Month, Region\) \(size 6\)$"):
                model.tensor_coords(dims, index)


class TestValueErrors:
    def test_dimension_needs_instances(self):
        with pytest.raises(ModelError, match="^dimension D has no instances$"):
            Dimension("D", ())

    def test_dimension_refuses_a_repeated_label(self):
        with pytest.raises(ModelError,
                           match="^dimension D repeats an instance label$"):
            Dimension("D", ("a", "b", "a"))

    # each built clean and then failed later (the checker, pretty_print,
    # emit_dot or hash), or failed inside Model, with AttributeError or
    # TypeError
    @pytest.mark.parametrize("build,message", [
        (lambda: Dimension(7, ("a",)), "dimension name 7 is not a str"),
        (lambda: Dimension("D", ["a", "b"]),
         r"dimension D: instances \['a', 'b'\] are not a tuple"),
        (lambda: Dimension("D", (1, 2)),
         "dimension D: instance label 1 is not a str"),
        (lambda: DimensionSet(["D"]),
         r"dimension set \['D'\] is not a tuple of str"),
        (lambda: DimensionSet((5,)), r"dimension set \(5,\) is not a tuple of str"),
        (lambda: Model((), (Variable(5, VariableKind.DATA, EMPTY_DIMS,
                                     ValueTable((1.0,))),)),
         "variable name 5 is not a str"),
        (lambda: Model((), (Variable("X", "data", EMPTY_DIMS,
                                     ValueTable((1.0,))),)),
         "variable X: kind 'data' is not a VariableKind"),
        (lambda: Model([Dimension("D", ("a",))], ()),
         r"model dimensions \[Dimension\(name='D', instances=\('a',\)\)\] "
         r"are not a tuple"),
        (lambda: Model((), []), r"model variables \[\] are not a tuple"),
        (lambda: Model(("D",), ()), "model dimension 'D' is not a Dimension"),
        (lambda: Model((), ("X",)), "model variable 'X' is not a Variable"),
        (lambda: Model((), (Variable(["X"], VariableKind.DATA, EMPTY_DIMS,
                                     ValueTable((1.0,))),)),
         r"variable name \['X'\] is not a str"),
        (lambda: Model((Dimension("D", ("a",)),), (Variable(
            "X", VariableKind.DATA, ("D",), ValueTable((1.0,))),)),
         r"variable X: dimension set \('D',\) is not a DimensionSet"),
        (lambda: Model((), (Variable("Y", VariableKind.DATA, EMPTY_DIMS, None,
                                     span="here"),)),
         "variable Y: span 'here' is not a SourceSpan or None"),
        (lambda: Model((), (
            Variable("X", VariableKind.DATA, EMPTY_DIMS, ValueTable((1.0,))),
            Variable("Y", VariableKind.CALCULATED, EMPTY_DIMS, Ref(["X"])))),
         r"variable Y: reference name \['X'\] is not a str"),
        (lambda: Model((), (
            Variable("X", VariableKind.DATA, EMPTY_DIMS, ValueTable((1.0,))),
            Variable("Y", VariableKind.CALCULATED, EMPTY_DIMS,
                     Binary("+", Ref("X", "here"), Literal(1))))),
         "variable Y: reference span 'here' is not a SourceSpan or None"),
        (lambda: Model((), (
            Variable("X", VariableKind.DATA, EMPTY_DIMS, ValueTable((1.0,))),
            Variable("Y", VariableKind.CALCULATED, EMPTY_DIMS,
                     Aggregate("X", span="here")))),
         "variable Y: reference span 'here' is not a SourceSpan or None"),
    ], ids=["dimension-name", "label-list", "label-int", "set-list",
            "set-name-int", "variable-name", "variable-kind", "model-dimensions",
            "model-variables", "model-dimension", "model-variable",
            "variable-name-list", "variable-dims", "variable-span",
            "reference-name", "reference-span", "aggregate-span"])
    def test_refuses_a_name_label_or_kind_of_the_wrong_type(self, build,
                                                          message):
        with pytest.raises(ModelError, match=f"^{message}$"):
            build()

    def test_scalar_of_two_values(self):
        with pytest.raises(ModelError, match="^value table is not a scalar$"):
            ValueTable((1, 2)).scalar


def test_diagnostic_failures_share_one_base():
    late = ParseDiagnostic("error", "P-TABLE", "late", SourceSpan("f", 3, 1, 3, 2))
    early = CheckDiagnostic("error", "R1-MISMATCH", "early",
                            SourceSpan("f", 1, 9, 1, 10))
    same_place = CheckDiagnostic("error", "C-CYCLE", "same place",
                                 SourceSpan("f", 1, 9, 1, 12))
    unplaced = CheckDiagnostic("warning", "R3-DEGENERATE", "no span", None)
    assert unplaced.render() == "warning[R3-DEGENERATE]: no span"
    uncoded = Diagnostic("error", None, "no code", None)
    assert uncoded.render() == "error: no code"
    failure = DiagnosticFailure([late, early, same_place, unplaced, uncoded])
    # span-less first, then by line, column and code, no code first
    assert failure.diagnostics == [uncoded, unplaced, same_place, early, late]
    assert str(failure) == "\n".join(d.render() for d in failure.diagnostics)
    for stage, source in ((ParseFailure, "input X = 40%\n"),
                          (CheckFailure, "calc A = B\ncalc B = A\n")):
        with pytest.raises(DiagnosticFailure) as info:
            check_model(parse_model(source))
        assert type(info.value) is stage
        assert repr(info.value).startswith(f"{stage.__name__}(")


def _failures():
    for source in ("input X = 40%\n", "calc A = B\ncalc B = A\n"):
        with pytest.raises(DiagnosticFailure) as info:
            check_model(parse_model(source))
        yield info.value
    yield EvalError("MISSING-INPUT", "x y", ("a,b", "e"), "no value")


@pytest.mark.parametrize("failure", list(_failures()),
                         ids=["parse", "check", "eval"])
def test_failures_pickle_and_copy(failure):
    fields = ("diagnostics", "kind", "variable", "labels", "detail")
    for copied in _copies(failure):
        assert type(copied) is type(failure)
        assert str(copied) == str(failure)
        for name in fields:
            assert (getattr(copied, name, None)
                    == getattr(failure, name, None))


def test_enumerate_dimension_sets(acme_model):
    sets = enumerate_dimension_sets(acme_model)
    assert len(sets) == 16
    assert sets[0] == EMPTY_DIMS
    sizes = [len(s) for s in sets]
    assert sizes == sorted(sizes)
    singles = [s.names for s in sets if len(s) == 1]
    assert singles == [("Month",), ("Sector",), ("Product",), ("Region",)]
    assert sets[-1].names == ACME_DIM_NAMES


def test_acme_shapes(acme_model):
    model = acme_model
    assert model.tensor_size(full_set(model)) == 12 * 4 * 2 * 5
    dims = model.dim_set(("Month", "Region"))
    assert model.tensor_index(dims, ("Feb", "N")) == 5
    assert model.variable("Total_Profit").dims == EMPTY_DIMS
    assert model.variable("MSPR_Unit_Sales").dims == full_set(model)


@given(subsets)
def test_tensor_size_is_the_product_of_instance_counts(acme_model, dims):
    assert acme_model.tensor_size(dims) == math.prod(
        len(acme_model.dimension(n).instances) for n in dims)
    assert acme_model.tensor_size(EMPTY_DIMS) == 1


def test_tensor_holds_scalar():
    t = Tensor(EMPTY_DIMS, (42.0,))
    assert t.values == (42.0,)


def test_tensor_holds_its_arguments():
    # test_value_semantics' "Tensor" case covers copies and assignment
    dims, values = DimensionSet(("M",)), (1.0, -0.0)
    t = Tensor(dims, values)
    assert t.dims is dims and t.values is values
    same = Tensor(DimensionSet(("M",)), (1.0, 0.0))
    assert t == same
    assert t != Tensor(dims, (1.0, 2.0)) and t != Tensor(EMPTY_DIMS, values)


def test_node_equality_ignores_span():
    span = SourceSpan("f", 1, 1, 1, 2)
    assert Ref("a", span=span) == Ref("a")
    assert Aggregate("a", span=span) == Aggregate("a")
    for with_span, without in [
            (Ref("a", span=span), Ref("a")),
            (Aggregate("a", span=span), Aggregate("a")),
            (Variable("X", VariableKind.INPUT, EMPTY_DIMS, None, span),
             Variable("X", VariableKind.INPUT, EMPTY_DIMS, None))]:
        assert hash(with_span) == hash(without)
        assert repr(with_span) == repr(without)
        assert "span" not in repr(with_span)


class TestSourceSpan:
    def test_fields_and_renderings(self):
        span = SourceSpan(file="f.dml", start_line=2, start_col=3, end_line=4,
                          end_col=1)
        assert (span.file, span.start_line, span.start_col, span.end_line,
                span.end_col) == ("f.dml", 2, 3, 4, 1)
        assert str(span) == "f.dml:2:3"
        assert span.as_json() == {"file": "f.dml", "start_line": 2,
                                  "start_col": 3, "end_line": 4, "end_col": 1}
        assert repr(span) == ("SourceSpan(file='f.dml', start_line=2, "
                              "start_col=3, end_line=4, end_col=1)")

    def test_rejects_an_end_before_the_start(self):
        SourceSpan("f", 2, 5, 2, 5)
        with pytest.raises(ModelError, match="ends before it starts"):
            SourceSpan("f", 2, 5, 1, 9)

    def test_is_immutable(self):
        span = SourceSpan("f", 1, 1, 1, 2)
        for field in ("file", "end_col", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(span, field, 3)
        with pytest.raises(FrozenInstanceError):
            del span.start_line
        assert span == SourceSpan("f", 1, 1, 1, 2)
        with pytest.raises(AttributeError, match="'SourceSpan' object has "
                                                 "no attribute 'nope'"):
            span.nope

    def test_equality_hash_and_copies(self):
        span = SourceSpan("f", 1, 1, 1, 2)
        assert span == SourceSpan("f", 1, 1, 1, 2)
        assert hash(span) == hash(SourceSpan("f", 1, 1, 1, 2))
        assert span != SourceSpan("f", 1, 1, 1, 3)
        assert span != ("f", 1, 1, 1, 2)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(span, protocol)) == span
        assert copy.deepcopy(span) == span
        assert copy.copy(span) == span

    def test_offset_span_equals_eager_span(self):
        # "ab\ncd": lines start at offsets 0 and 3
        lazy = SourceSpan.factory(("f", [0, 3]))(1, 4)
        eager = SourceSpan("f", 1, 2, 2, 2)
        assert lazy == eager and eager == lazy
        assert hash(lazy) == hash(eager)
        assert pickle.loads(pickle.dumps(lazy)) == eager
        assert copy.deepcopy(SourceSpan.factory(("f", [0, 3]))(1, 4)) == eager


def test_walk_orders():
    """iter_nodes is post-order, left before right; iter_dependencies
    yields the references in reading order, repeats included."""
    a, two, a_again = Ref("a"), Literal(2.0), Ref("a")
    sum_b = Aggregate("b")
    power = Binary("^", a, two)
    negation = Unary(power)
    product = Binary("*", sum_b, a_again)
    expr = Binary("+", negation, product)
    model = parse_model("input a = 1\ninput b = 2\n"
                        "calc X = -a ^ 2 + SUM(b) * a\n")
    assert model.variable("X").payload == expr
    post_order = [a, two, power, negation, sum_b, a_again, product, expr]
    assert list(map(id, iter_nodes(expr))) == list(map(id, post_order))
    assert [(name, id(node)) for name, node in iter_dependencies(expr)] == [
        ("a", id(a)), ("b", id(sum_b)), ("a", id(a_again))]


def test_binary_rejects_unknown_operator():
    with pytest.raises(ModelError, match="unknown binary operator '%'"):
        Binary("%", Ref("X"), Literal(2))


@pytest.mark.parametrize("build,operand", [
    (lambda: Binary("+", Ref("X"), 2.0), "2.0"),
    (lambda: Binary("*", "X", Literal(2)), "'X'"),
    (lambda: Unary(None), "None"),
    (lambda: Unary(Binary("-", Ref("X"), Unary(1))), "1"),
    (lambda: Binary("-", Ref("X"), Expr()), r"Expr\(\)"),
], ids=["binary-right", "binary-left", "unary", "nested", "base-class"])
def test_nodes_refuse_operands_that_are_not_formula_nodes(build, operand):
    # a tree that held one would fail only later, when evaluated, printed,
    # compared, hashed or pickled
    with pytest.raises(ModelError,
                       match=rf"^operand {operand} is not a formula node$"):
        build()


@pytest.mark.parametrize("node", [Ref, Binary, Literal, Unary, Aggregate],
                         ids=lambda node: node.__name__)
def test_node_classes_refuse_subclasses(node):
    # the walkers dispatch on a node's exact class, so a subclass would be
    # a node that none of them knows
    with pytest.raises(TypeError, match=rf"^{node.__name__} cannot be "
                                        rf"subclassed: the formula walkers "
                                        rf"dispatch on exact class$"):
        type("Sub", (node,), {"__slots__": ()})


@pytest.mark.parametrize("kind,payload,shown", [
    (VariableKind.INPUT, 2.0, "2.0"),
    (VariableKind.CALCULATED, "X", "'X'"),
    (VariableKind.DATA, (1.0, 2.0), r"\(1.0, 2.0\)"),
    (VariableKind.OUTPUT, Expr(), r"Expr\(\)"),
], ids=["input-float", "calc-str", "data-tuple", "base-class"])
def test_variable_refuses_a_payload_that_is_not_a_table_or_formula(
        kind, payload, shown):
    # a model holding one used to check clean, then fail in evaluate or
    # pretty_print with an AttributeError or IndexError
    with pytest.raises(ModelError, match=rf"^variable V: payload {shown} is "
                                         rf"not a value table, a formula "
                                         rf"node or None$"):
        Variable("V", kind, EMPTY_DIMS, payload)


def test_nodes_hold_no_operator_name():
    # negation and SUM are the only unary and aggregate operations
    with pytest.raises(TypeError):
        Unary("+", Ref("X"))
    with pytest.raises(TypeError):
        Aggregate("MEAN", "X")


SPAN = SourceSpan("f.dml", 2, 3, 2, 9)
SMALL_SOURCE = ("dimension M = [a, b]\ninput X over (M) = [1, 2]\n"
                "output Y over (M) = X * 2\n")


def _small_model():
    return parse_model(SMALL_SOURCE, "s.dml")


# each public immutable type, one of its fields, and the type built afresh
# on every call; keyword arguments where the constructor takes them
VALUES = {
    "SourceSpan": ("file", lambda: SourceSpan("f.dml", 2, 3, 2, 9)),
    "Dimension": ("name", lambda: Dimension(name="M", instances=("a", "b"))),
    "DimensionSet": ("names", lambda: DimensionSet(("M", "N"))),
    "Literal": ("value", lambda: Literal(2)),
    "Ref": ("span", lambda: Ref("X", span=SPAN)),
    "Unary": ("operand", lambda: Unary(Ref("X", SPAN))),
    "Binary": ("left", lambda: Binary("*", left=Ref("X", SPAN),
                                      right=Literal(2))),
    "Aggregate": ("source", lambda: Aggregate("X", span=SPAN)),
    "ValueTable": ("values", lambda: ValueTable((1, 2))),
    "Variable": ("payload", lambda: Variable(
        "X", VariableKind.INPUT, DimensionSet(("M",)), ValueTable((1, 2)),
        span=SPAN)),
    "Model": ("variables", _small_model),
    "Tensor": ("values", lambda: Tensor(dims=DimensionSet(("M",)),
                                        values=(1.0, 2.0))),
    "ParseDiagnostic": ("message", lambda: ParseDiagnostic(
        "error", "P-TABLE", "m", SPAN)),
    "CheckDiagnostic": ("span", lambda: CheckDiagnostic(
        "warning", "R3-DEGENERATE", "m", SPAN, variables=("Y", "X"),
        dimension_sets=(DimensionSet(("M",)),) * 2)),
    "CheckedModel": ("order", lambda: check_model(_small_model())),
    "InputOverride": ("value", lambda: InputOverride("X", labels=("a",),
                                                     value=3.0)),
    "EvaluationResult": ("tensors", lambda: EvaluationResult(
        {"X": Tensor(EMPTY_DIMS, (1.0,))}, ("X",))),
}


def _spans(value) -> list:
    """Every span a value holds, in a fixed order."""
    if isinstance(value, CheckedModel):
        value = value.model
    if isinstance(value, Model):
        return [span for v in value.variables for span in _spans(v)]
    if isinstance(value, Variable) and isinstance(value.payload, Expr):
        return [value.span, *_spans(value.payload)]
    if isinstance(value, Expr):
        return [getattr(node, "span", None) for node in iter_nodes(value)]
    return [getattr(value, "span", None)]


def _copies(value) -> list:
    pickled = [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return [*pickled, copy.deepcopy(value), copy.copy(value)]


@pytest.mark.parametrize("field,make", VALUES.values(), ids=VALUES.keys())
def test_value_semantics(field, make):
    value, other = make(), make()
    assert value is not other
    assert value == other and not value != other
    if isinstance(value, EvaluationResult):
        # its tensors are a dict, which does not hash
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(value)
    elif isinstance(value, Tensor):
        # a hash would read every value
        with pytest.raises(TypeError, match="^unhashable type: 'Tensor'$"):
            hash(value)
    else:
        assert hash(value) == hash(other)
    for copied in _copies(value):
        assert copied == value
        assert _spans(copied) == _spans(value)
    for name in (field, "other"):
        with pytest.raises(FrozenInstanceError,
                           match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 1)
        with pytest.raises(FrozenInstanceError,
                           match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert value == other


def test_values_holding_spans():
    # test_value_semantics compares the spans of copies; these have some
    holding = [name for name, (_, make) in VALUES.items()
               if any(_spans(make()))]
    assert holding == ["Ref", "Unary", "Binary", "Aggregate", "Variable",
                       "Model", "ParseDiagnostic", "CheckDiagnostic",
                       "CheckedModel"]


def test_dimension_copies_find_their_labels():
    # a label's position is not a field: pickling and copying rebuild it
    dim = VALUES["Dimension"][1]()
    for copied in [dim, *_copies(dim)]:
        assert [copied.index_of(label) for label in dim.instances] == [0, 1]
        with pytest.raises(ModelError,
                           match=r"^dimension M has no instance 'c'$"):
            copied.index_of("c")


def test_keyword_and_default_arguments():
    assert Aggregate("X", span=SPAN).span is SPAN
    assert Variable("X", VariableKind.INPUT, EMPTY_DIMS, None).span is None
    assert CheckDiagnostic("error", "C-CYCLE", "m", None) == CheckDiagnostic(
        "error", "C-CYCLE", "m", None, (), ())
    model = _small_model()
    assert CheckedModel(model, ("X", "Y")).warnings == ()
    with pytest.raises(TypeError):
        Aggregate("X", SPAN)  # the span is keyword-only


# repr texts as the dataclasses of earlier versions wrote them
SMALL_MODEL_REPR = (
    "Model(dimensions=(Dimension(name='M', instances=('a', 'b')),), "
    "variables=(Variable(name='X', kind=<VariableKind.INPUT: 'input'>, "
    "dims=DimensionSet(names=('M',)), payload=ValueTable(values=(1.0, 2.0))), "
    "Variable(name='Y', kind=<VariableKind.OUTPUT: 'output'>, "
    "dims=DimensionSet(names=('M',)), payload=Binary(op='*', "
    "left=Ref(name='X'), right=Literal(value=2.0)))))")


def test_reprs():
    model = _small_model()
    assert repr(model) == SMALL_MODEL_REPR
    assert repr(check_model(model)) == (
        f"CheckedModel(model={SMALL_MODEL_REPR}, order=('X', 'Y'), "
        f"warnings=())")
    assert repr(Tensor(DimensionSet(("M",)), (1.0, 2.0))) == (
        "Tensor(dims=DimensionSet(names=('M',)), values=(1.0, 2.0))")
    assert repr(VALUES["EvaluationResult"][1]()) == (
        "EvaluationResult(order=('X',))")


@st.composite
def formula_sources(draw):
    """A model whose formula is shallow, or deeper than a recursive walk
    could go: many terms, parentheses or negations."""
    size = st.integers(1, 4) | st.integers(1000, 1300)
    atoms = draw(st.lists(st.sampled_from(
        ["X", "SUM(Z)", "2", "(X - 1)", "-0.5", "Z"]), min_size=1, max_size=4))
    ops = draw(st.lists(st.sampled_from("+-*/^"), min_size=1, max_size=4))
    terms = draw(size)
    body = atoms[0] + "".join(f" {ops[i % len(ops)]} {atoms[i % len(atoms)]}"
                              for i in range(1, terms))
    depth = draw(st.integers(0, 3) | st.integers(400, 600))
    formula = "- " * draw(size) + "(" * depth + body + ")" * depth
    return ("dimension M = [a, b]\ninput X = 2\ninput Z over (M) = [1, 2]\n"
            f"output Y over (M) = {formula}\n")


@given(formula_sources())
@settings(max_examples=25, deadline=None)
def test_formulas_of_any_depth_keep_value_semantics(source):
    model, again = parse_model(source), parse_model(source)
    assert model == again and hash(model) == hash(again)
    assert repr(model) == repr(again)
    for copied in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        assert copied == model
        assert _spans(copied) == _spans(model)
    formula = model.variable("Y").payload
    assert Unary(formula) != formula
    assert Binary("+", formula, Literal(0)) != Binary("+", Literal(0), formula)


@pytest.mark.parametrize("a,b", [
    ("X - (X - X)", "(X - X) - X"), ("-X ^ 2", "(-X) ^ 2"), ("X", "SUM(X)"),
    ("X + 1", "X + 2"), ("X * Z", "Z * X")])
def test_formulas_of_other_shapes_differ(a, b):
    source = "input X = 2\ninput Z = 3\noutput Y = {}\n"
    left = parse_model(source.format(a)).variable("Y").payload
    right = parse_model(source.format(b)).variable("Y").payload
    assert left != right and repr(left) != repr(right)
