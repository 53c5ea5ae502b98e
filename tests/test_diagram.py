import re

from conftest import load_model
from dimcalc.diagram import emit_dot
from dimcalc.parser import parse_model
from dot_grammar import parse_dot

ACME_CLUSTER_LABELS = [
    "(Month)", "(Sector)", "(Product)", "(Region)",
    "(Month, Sector)", "(Month, Product)", "(Sector, Product)",
    "(Sector, Region)", "(Product, Region)",
    "(Month, Sector, Product)", "(Month, Product, Region)",
    "(Month, Sector, Product, Region)",
]


def test_acme_is_valid_dot(acme_model):
    graph = parse_dot(emit_dot(acme_model))
    assert graph.directed
    assert graph.nodes == {v.name for v in acme_model.variables}
    assert len(graph.nodes) == 31


def test_acme_clusters_ordered_by_size_then_canonical(acme_model):
    dot = emit_dot(acme_model)
    numbers = re.findall(r"subgraph cluster_(\d+)", dot)
    assert numbers == [str(i) for i in range(12)]
    labels = re.findall(r'label = "(\([^"]*\))";', dot)
    assert labels == ACME_CLUSTER_LABELS


def test_acme_dimensionless_nodes_outside_clusters(acme_model):
    dot = emit_dot(acme_model)
    # a top-level node line is indented exactly two spaces
    top_nodes = re.findall(r'^  ("\w+") \[shape=', dot, re.MULTILINE)
    assert top_nodes == ['"Base_Price"', '"Monthly_Fixed_Cost"',
                         '"Total_Profit"']


def test_shapes_by_kind(acme_model):
    dot = emit_dot(acme_model)
    assert '"Base_Price" [shape=box];' in dot
    assert '"Monthly_Fixed_Cost" [shape=triangle];' in dot
    assert '"Monthly_Profit" [shape=circle];' in dot
    assert '"Total_Profit" [shape=ellipse];' in dot


def test_clusters_are_dashed(acme_model):
    dot = emit_dot(acme_model)
    assert dot.count("style = dashed;") == 12


def test_sum_edges_labeled(acme_model, pricing_model):
    dot = emit_dot(pricing_model)
    assert '"Profit" -> "Total_Profit" [label="SUM"];' in dot
    assert '"Regional_Demand" -> "Revenue";' in dot
    assert emit_dot(acme_model).count('[label="SUM"]') == 7


def test_edges_point_operand_to_definer(pricing_model):
    graph = parse_dot(emit_dot(pricing_model))
    assert ("Revenue", "Profit") in graph.edges
    assert ("Price", "Revenue") in graph.edges
    assert ("Profit", "Revenue") not in graph.edges


def test_duplicate_references_deduplicated():
    model = parse_model("input X = 1\ncalc Y = X + X * X\n")
    graph = parse_dot(emit_dot(model))
    assert graph.edges == [("X", "Y")]


def test_mixed_plain_and_sum_use_is_labeled():
    model = parse_model("input X = 1\ncalc Y = X + SUM(X)\n")
    dot = emit_dot(model)
    assert '"X" -> "Y" [label="SUM"];' in dot


def test_deterministic_output(acme_model):
    assert emit_dot(acme_model) == emit_dot(acme_model)
    again = load_model("acme.dml")
    assert emit_dot(again) == emit_dot(acme_model)


def test_ungrouped_config(acme_model):
    dot = emit_dot(acme_model, group_by_dimension_set=False)
    assert "subgraph" not in dot
    graph = parse_dot(dot)
    assert len(graph.nodes) == 31


def test_data_values_config(pricing_model):
    dot = emit_dot(pricing_model, include_data_values=True)
    assert 'label="DemParA\\n376000"' in dot
    assert 'label="Delivery_Cost\\n50, 80, 60"' in dot
    parse_dot(dot)


def test_quoted_names_escape():
    model = parse_model('input "Unit Price" = 1\ncalc Y = "Unit Price" * 2\n')
    dot = emit_dot(model)
    assert '"Unit Price" [shape=box];' in dot
    graph = parse_dot(dot)
    assert "Unit Price" in graph.nodes


def test_empty_model():
    dot = emit_dot(parse_model(""))
    assert dot == "digraph model {\n}\n"
    assert parse_dot(dot).nodes == set()
