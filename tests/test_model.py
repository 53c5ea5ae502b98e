import itertools

import pytest
from hypothesis import given, strategies as st

from dimcalc.model import (Aggregate, Binary, Dimension, DimensionSet,
                           EMPTY_DIMS, Literal, Model, ModelError, Ref,
                           SourceSpan, Tensor, Unary, ValueTable, Variable,
                           VariableKind, difference, enumerate_dimension_sets,
                           intersect, is_subset, iter_dependencies, iter_nodes,
                           union)
from dimcalc.parser import parse_model

ACME_DIM_NAMES = ("Month", "Sector", "Product", "Region")

subsets = st.lists(
    st.sampled_from(list(range(4))), unique=True).map(sorted).map(
    lambda idx: DimensionSet(tuple(ACME_DIM_NAMES[i] for i in idx),
                             tuple(idx)))


def make_model():
    dims = (
        Dimension("Month", ("Jan", "Feb", "Mar")),
        Dimension("Region", ("N", "S")),
    )
    variables = (
        Variable("X", VariableKind.DATA,
                 DimensionSet(("Month", "Region"), (0, 1)),
                 ValueTable(tuple(
                     ((m, r), float(i))
                     for i, (m, r) in enumerate(
                         itertools.product(("Jan", "Feb", "Mar"),
                                           ("N", "S"))))),
                 None),
    )
    return Model(dims, variables)


class TestDimensionSet:
    def test_str_and_len(self):
        ds = DimensionSet(("Month", "Sector"), (0, 1))
        assert str(ds) == "(Month, Sector)"
        assert len(ds) == 2
        assert "Month" in ds and "Region" not in ds
        assert str(EMPTY_DIMS) == "()"

    def test_rejects_non_canonical_order(self):
        with pytest.raises(ModelError):
            DimensionSet(("Sector", "Month"), (1, 0))

    def test_rejects_duplicates(self):
        with pytest.raises(ModelError):
            DimensionSet(("Month", "Month"), (0, 0))

    @given(subsets, subsets)
    def test_union_commutes_and_orders(self, a, b):
        u = union(a, b)
        assert u == union(b, a)
        assert set(u.names) == set(a.names) | set(b.names)
        positions = [ACME_DIM_NAMES.index(n) for n in u.names]
        assert positions == sorted(positions)

    @given(subsets, subsets)
    def test_intersect_and_difference_partition(self, a, b):
        i = intersect(a, b)
        d = difference(a, b)
        assert set(i.names) | set(d.names) == set(a.names)
        assert not set(i.names) & set(d.names)
        assert union(i, d) == a

    @given(subsets, subsets)
    def test_subset_agrees_with_sets(self, a, b):
        assert is_subset(a, b) == (set(a.names) <= set(b.names))
        assert is_subset(a, union(a, b))
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

    def test_index_roundtrip_full(self):
        model = make_model()
        dims = model.full_set
        for i in range(model.tensor_size(dims)):
            assert model.tensor_index(dims, model.tensor_coords(dims, i)) == i

    def test_rejects_duplicate_variable_names(self):
        dims = (Dimension("Month", ("Jan",)),)
        v = Variable("X", VariableKind.DATA, EMPTY_DIMS,
                     ValueTable((((), 1.0),)), None)
        with pytest.raises(ModelError):
            Model(dims, (v, v))

    def test_rejects_name_clash_with_dimension(self):
        dims = (Dimension("Month", ("Jan",)),)
        v = Variable("Month", VariableKind.DATA, EMPTY_DIMS,
                     ValueTable((((), 1.0),)), None)
        with pytest.raises(ModelError):
            Model(dims, (v,))

    def test_rejects_incomplete_table(self):
        dims = (Dimension("Month", ("Jan", "Feb")),)
        v = Variable("X", VariableKind.DATA, DimensionSet(("Month",), (0,)),
                     ValueTable(((("Jan",), 1.0),)), None)
        with pytest.raises(ModelError):
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
    assert model.tensor_size(model.full_set) == 12 * 4 * 2 * 5
    dims = model.dim_set(("Month", "Region"))
    assert model.tensor_index(dims, ("Feb", "N")) == 5
    assert model.variable("Total_Profit").dims == EMPTY_DIMS
    assert model.variable("MSPR_Unit_Sales").dims == model.full_set


def test_tensor_holds_scalar():
    t = Tensor(EMPTY_DIMS, (42.0,))
    assert t.values == (42.0,)


def test_node_equality_ignores_span():
    span = SourceSpan("f", 1, 1, 1, 2)
    assert Ref("a", span=span) == Ref("a")
    assert Aggregate("SUM", "a", span=span) == Aggregate("SUM", "a")


def test_walk_orders():
    """iter_nodes is post-order, left before right; iter_dependencies
    yields the references in reading order, repeats included."""
    a, two, a_again = Ref("a"), Literal(2.0), Ref("a")
    sum_b = Aggregate("SUM", "b")
    power = Binary("^", a, two)
    negation = Unary("-", power)
    product = Binary("*", sum_b, a_again)
    expr = Binary("+", negation, product)
    model = parse_model("input a = 1\ninput b = 2\n"
                        "calc X = -a ^ 2 + SUM(b) * a\n")
    assert model.variable("X").payload == expr
    post_order = [a, two, power, negation, sum_b, a_again, product, expr]
    assert list(map(id, iter_nodes(expr))) == list(map(id, post_order))
    assert [(name, id(node)) for name, node in iter_dependencies(expr)] == [
        ("a", id(a)), ("b", id(sum_b)), ("a", id(a_again))]
