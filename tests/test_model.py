import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from dimcalc.model import (Aggregate, Binary, Dimension, DimensionSet,
                           EMPTY_DIMS, Literal, Model, ModelError, Ref,
                           SourceSpan, Tensor, Unary, ValueTable, Variable,
                           VariableKind, difference, intersect, is_subset,
                           iter_dependencies, iter_nodes)
from dimcalc.parser import parse_model
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

    @given(subsets, subsets)
    def test_union_commutes_and_orders(self, a, b):
        u = union(ACME_DIM_NAMES, a, b)
        assert u == union(ACME_DIM_NAMES, b, a)
        assert set(u.names) == set(a.names) | set(b.names)
        positions = [ACME_DIM_NAMES.index(n) for n in u.names]
        assert positions == sorted(positions)

    @given(subsets, subsets)
    def test_intersect_and_difference_partition(self, a, b):
        i = intersect(a, b)
        d = difference(a, b)
        assert set(i.names) | set(d.names) == set(a.names)
        assert not set(i.names) & set(d.names)
        assert union(ACME_DIM_NAMES, i, d) == a
        # both keep a's order: each is a subsequence of a
        assert list(i.names) == [n for n in a.names if n in i]
        assert list(d.names) == [n for n in a.names if n in d]

    @given(subsets, subsets)
    def test_subset_agrees_with_sets(self, a, b):
        assert is_subset(a, b) == (set(a.names) <= set(b.names))
        assert is_subset(a, union(ACME_DIM_NAMES, a, b))
        assert is_subset(intersect(a, b), a)


class TestModel:
    def test_tensor_shape_and_indexing(self):
        model = make_model()
        dims = model.dim_set(("Month", "Region"))
        assert model.instance_counts(dims) == (3, 2)
        assert model.tensor_size(dims) == 6
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


def test_tensor_holds_scalar():
    t = Tensor(EMPTY_DIMS, (42.0,))
    assert t.values == (42.0,)


def test_node_equality_ignores_span():
    span = SourceSpan("f", 1, 1, 1, 2)
    assert Ref("a", span=span) == Ref("a")
    assert Aggregate("a", span=span) == Aggregate("a")


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
        lazy = SourceSpan.at_offsets(("f", [0, 3]), 1, 4)
        eager = SourceSpan("f", 1, 2, 2, 2)
        assert lazy == eager and eager == lazy
        assert hash(lazy) == hash(eager)
        assert pickle.loads(pickle.dumps(lazy)) == eager
        assert copy.deepcopy(SourceSpan.at_offsets(
            ("f", [0, 3]), 1, 4)) == eager


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


def test_nodes_hold_no_operator_name():
    # negation and SUM are the only unary and aggregate operations
    with pytest.raises(TypeError):
        Unary("+", Ref("X"))
    with pytest.raises(TypeError):
        Aggregate("MEAN", "X")
