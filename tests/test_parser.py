import copy
import gc
import itertools
import json
import math
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from bisect import bisect_right
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import FIXTURES
from dimcalc import model as model_module, parser as parser_module
from dimcalc.checker import CheckFailure, check_model
from dimcalc.cli import main
from dimcalc.diagram import emit_dot
from dimcalc.evaluator import EvalError, InputOverride, evaluate
from dimcalc.model import (EMPTY_DIMS, Aggregate, Binary, Dimension,
                           DimensionSet, Expr, Literal, Model, ModelError, Ref,
                           SourceSpan, Unary, ValueTable, Variable,
                           VariableKind, iter_dependencies, iter_nodes)
from dimcalc.parser import (KEYWORDS, ParseFailure, format_expr, format_ident,
                            format_number, parse_model, pretty_print)
from oracles import oracle_formula
from test_evaluator import layered_models


def parse_one(text):
    return parse_model(text)


def codes_of(err: ParseFailure):
    return [d.code for d in err.diagnostics]


def parse_fail(text):
    with pytest.raises(ParseFailure) as info:
        parse_model(text)
    return info.value


class TestStatements:
    def test_dimension(self):
        model = parse_one("dimension Region = [N, SE, SW, E, W]\n")
        assert model.dimension("Region").instances == ("N", "SE", "SW", "E", "W")

    def test_input_with_default(self):
        model = parse_one("input Base_Price = 100\n")
        var = model.variable("Base_Price")
        assert var.kind is VariableKind.INPUT
        assert isinstance(var.payload, ValueTable)
        assert var.payload.scalar == 100.0

    def test_input_without_default(self):
        model = parse_one("input Price\n")
        assert model.variable("Price").payload is None

    def test_variables_over_one_set_share_it(self):
        model = parse_one("dimension A = [a]\ndimension B = [b]\n"
                          "input X over (B, A)\ninput Y over (A, B)\n"
                          "input Z over (A)\ninput S\n")
        x, y, z, scalar = model.variables
        assert x.dims is y.dims
        assert x.dims.names == ("A", "B")
        assert z.dims is not x.dims and z.dims.names == ("A",)
        assert scalar.dims is EMPTY_DIMS

    def test_data_requires_value(self):
        err = parse_fail("data Fixed_Cost\n")
        assert codes_of(err) == ["P-SYNTAX"]

    def test_keyed_table(self):
        model = parse_one(
            "dimension Sector = [Government, Military, Private, Education]\n"
            "data Rebate over (Sector) = {Government: 0.40, Military: 0.20,"
            " Private: 0.10, Education: 0.70}\n")
        assert model.variable("Rebate").payload.values == (
            0.40, 0.20, 0.10, 0.70)

    def test_keyed_table_any_entry_order(self):
        model = parse_one(
            "dimension S = [A, B]\n"
            "data X over (S) = {B: 2, A: 1}\n")
        assert model.variable("X").payload.values == (1.0, 2.0)

    def test_positional_list_one_dim_only(self):
        model = parse_one(
            "dimension Product = [Standard, Deluxe]\n"
            "data M over (Product) = [1, 1.45]\n")
        assert model.variable("M").payload.values == (1.0, 1.45)
        err = parse_fail(
            "dimension A = [X]\ndimension B = [Y]\n"
            "data M over (A, B) = [1]\n")
        assert "P-TABLE" in codes_of(err)

    def test_multiline_table_with_trailing_comma(self):
        model = parse_one(
            "dimension S = [A, B]\n"
            "data X over (S) = {\n"
            "    A: 1,\n"
            "    B: 2,\n"
            "}\n")
        assert model.variable("X").payload.values == (1.0, 2.0)

    def test_over_clause_canonicalized(self):
        model = parse_one(
            "dimension Month = [Jan]\n"
            "dimension Sector = [Gov]\n"
            "calc X over (Sector, Month) = 1 + 0\n")
        assert model.variable("X").dims.names == ("Month", "Sector")

    def test_comments_and_blank_lines(self):
        model = parse_one(
            "# a model\n\ninput P = 1  # default\n\n# done\n")
        assert model.variable("P").payload.scalar == 1.0

    def test_quoted_identifiers(self):
        model = parse_one(
            'dimension "My Dim" = ["a b", "c\\"d"]\n'
            'input "Unit Price" = 2\n'
            'calc Out = "Unit Price" * 3\n')
        assert model.dimension("My Dim").instances == ("a b", 'c"d')
        assert model.variable("Unit Price").payload.scalar == 2.0


class TestDiagnostics:
    def test_undeclared_dimension(self):
        err = parse_fail("input X over (Ghost) = 1\n")
        assert codes_of(err) == ["P-UNDECLARED"]

    def test_failed_over_clause_reports_no_follow_on(self):
        # a table or list over an undeclared dimension adds nothing more
        text = ("dimension A = [a, b]\n"
                "data X over (A, B) = {a, x: 1, b, x: 2}\n"
                "data Z over (B) = [1, 2]\n")
        expected = [
            ("P-UNDECLARED", "no dimension named B", "<input>:2:17"),
            ("P-UNDECLARED", "no dimension named B", "<input>:3:14")]
        err = parse_fail(text)
        assert [(d.code, d.message, str(d.span))
                for d in err.diagnostics] == expected
        # a formula's references are still resolved
        err = parse_fail(text + "calc Y over (A, B) = X + nope\n")
        assert [(d.code, d.message, str(d.span)) for d in err.diagnostics] == [
            *expected, ("P-UNDECLARED", "no dimension named B", "<input>:4:17"),
            ("P-UNDECLARED", "no variable named nope", "<input>:4:26")]

    def test_undeclared_reference_in_formula(self):
        err = parse_fail("calc X = SUM(Y)\n")
        assert codes_of(err) == ["P-UNDECLARED"]

    def test_duplicate_variable(self):
        err = parse_fail("input X = 1\ninput X = 2\n")
        assert codes_of(err) == ["P-DUPLICATE"]

    def test_duplicate_dimension(self):
        err = parse_fail("dimension D = [A]\ndimension D = [B]\n")
        assert codes_of(err) == ["P-DUPLICATE"]

    def test_duplicate_table_key(self):
        err = parse_fail(
            "dimension S = [A, B]\ndata X over (S) = {A: 1, A: 2, B: 3}\n")
        assert codes_of(err) == ["P-DUPLICATE"]

    def test_missing_table_key(self):
        err = parse_fail("dimension S = [A, B]\ndata X over (S) = {A: 1}\n")
        assert codes_of(err) == ["P-TABLE"]

    def test_unknown_table_label(self):
        err = parse_fail("dimension S = [A, B]\n"
                         "data X over (S) = {A: 1, B: 2, C: 3}\n")
        assert codes_of(err) == ["P-TABLE"]

    @pytest.mark.parametrize("values,got", [("[1, a]", "a"), ("{a: b}", "b")])
    def test_table_value_that_is_not_a_number(self, values, got):
        err = parse_fail(f"dimension D = [a, b]\ndata X over (D) = {values}\n")
        assert [d.render() for d in err.diagnostics] == [
            f"<input>:2:23: error[P-SYNTAX]: expected a number, got {got!r}"]

    def test_first_gap_in_the_middle_of_a_3d_table(self):
        err = parse_fail(
            "dimension D = [a, b]\ndimension E = [c, d]\ndimension F = [e, f]\n"
            "data X over (D, E, F) = {b,d,f: 8, a,c,e: 1, a,c,f: 2, a,d,e: 3,\n"
            "  b,c,e: 5, b,c,f: 6, b,d,e: 7}\n")
        assert [d.render() for d in err.diagnostics] == [
            "<input>:4:1: error[P-TABLE]: value table for X has 7 of 8 "
            "entries (first missing: a,d,f)"]

    @pytest.mark.parametrize("entries,first,second", [
        ("{a: 1, z: 2, a: 3}", "P-TABLE", "P-DUPLICATE"),
        ("{a: 1, a: 3, z: 2}", "P-DUPLICATE", "P-TABLE"),
    ])
    def test_duplicate_entry_and_bad_label_are_both_reported(
            self, entries, first, second):
        err = parse_fail(f"dimension D = [a, b]\ndata X over (D) = {entries}\n")
        messages = {"P-TABLE": "z is not an instance of D (table keys follow "
                               "the dimension order (D))",
                    "P-DUPLICATE": "table entry a is already defined"}
        assert [d.render() for d in err.diagnostics] == [
            f"<input>:2:26: error[{first}]: {messages[first]}",
            f"<input>:2:32: error[{second}]: {messages[second]}"]

    def test_large_keyed_table_is_row_major(self):
        sizes = {"A": 3, "B": 20, "C": 20}
        cells = list(itertools.product(
            *([f"{n.lower()}{i}" for i in range(k)] for n, k in sizes.items())))
        entries = [f"{','.join(key)}: {i}" for i, key in enumerate(cells)]
        random.Random(1).shuffle(entries)
        text = "".join(
            f"dimension {n} = [{', '.join(f'{n.lower()}{i}' for i in range(k))}]\n"
            for n, k in sizes.items())
        model = parse_model(text + "data X over (A, B, C) = {"
                            + ",\n".join(entries) + "}\n")
        assert model.variable("X").payload == ValueTable(
            tuple(range(len(cells))))
        assert list(model.instance_tuples(model.variable("X").dims)) == cells

    def test_sparse_table_costs_its_entries_not_its_cells(self):
        # 8,000,000 declared cells and one entry: a slot per declared cell
        # would take 64 MB
        text = "".join(
            f"dimension {n} = [{', '.join(f'{n.lower()}{i}' for i in range(200))}]\n"
            for n in "ABC") + "data X over (A, B, C) = {a0, b0, c0: 1}\n"
        assert len(text) == 3355
        tracemalloc.start()
        try:
            err = parse_fail(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [d.render() for d in err.diagnostics] == [
            "<input>:4:1: error[P-TABLE]: value table for X has 1 of 8000000 "
            "entries (first missing: a0,b0,c1)"]
        assert peak < 2_000_000

    def test_percent_literal_rejected(self):
        err = parse_fail("input X = 40%\n")
        assert "P-NUMBER" in codes_of(err)

    def test_keyword_not_allowed_as_name(self):
        err = parse_fail("input over = 1\n")
        assert codes_of(err)[0] == "P-SYNTAX"

    def test_nested_sum(self):
        err = parse_fail("input A = 1\ncalc X = SUM(SUM(A))\n")
        assert "P-SYNTAX" in codes_of(err)

    def test_sum_of_expression(self):
        err = parse_fail("input A = 1\ncalc X = SUM(A + 1)\n")
        assert "P-SYNTAX" in codes_of(err)

    def test_unterminated_string(self):
        err = parse_fail('input "X = 1\n')
        assert "P-TOKEN" in codes_of(err)

    def test_unknown_character(self):
        err = parse_fail("input X = 1 @ 2\n")
        assert "P-TOKEN" in codes_of(err)

    def test_scalar_for_dimensioned_variable(self):
        err = parse_fail("dimension S = [A, B]\ndata X over (S) = 5\n")
        assert codes_of(err) == ["P-TABLE"]

    def test_diagnostic_render_format(self):
        err = parse_fail("input X = 40%\n")
        line = err.diagnostics[0].render()
        assert line.startswith("<input>:1:")
        assert "error[P-NUMBER]" in line

    def test_recovery_reports_multiple_statements(self):
        err = parse_fail("input X = 40%\ninput Y over (Ghost) = 1\n")
        assert {"P-NUMBER", "P-UNDECLARED"} <= set(codes_of(err))

    @pytest.mark.parametrize("source,rendered", [
        ("dimension D = [a, b, a]\n",
         "1:22: error[P-DUPLICATE]: dimension D repeats instance label a"),
        ("dimension D = [a]\ndata D = 1\n",
         "2:6: error[P-DUPLICATE]: D is already declared as a dimension"),
        ("dimension D = [a, b]\ndata X over (D, D) = [1, 2]\n",
         "2:17: error[P-DUPLICATE]: dimension D appears twice in the over "
         "clause"),
        ("dimension D = [a, b]\ndata X over (D) = [1, 2, 3]\n",
         "2:1: error[P-TABLE]: X needs 2 values for D, got 3"),
        ("dimension D = [a, b]\ndimension E = [c]\n"
         "data X over (D, E) = [1, 2]\n",
         "3:1: error[P-TABLE]: a positional list needs exactly one "
         "dimension; X is over (D, E)"),
        ("data X = {a: 1}\n",
         "1:1: error[P-TABLE]: X is dimensionless; write a single number, "
         "not a table"),
        ("dimension D = [a, b]\ndimension E = [c]\n"
         "data X over (D, E) = {a: 1, b, c: 2}\n",
         "3:23: error[P-TABLE]: table key a has 1 label; X is over (D, E)"),
        ("dimension D = [a, b]\ndata X over (D) = {}\n",
         "2:20: error[P-TABLE]: value table has no entries"),
    ])
    def test_rendered_message(self, source, rendered):
        err = parse_fail(source)
        assert [d.render() for d in err.diagnostics] == [f"<input>:{rendered}"]


def _error(code, message, start_line, start_col, end_line, end_col, **extra):
    """One error's as_json() form, with the span in <input>."""
    return {"severity": "error", "code": code, "message": message,
            "span": {"file": "<input>", "start_line": start_line,
                     "start_col": start_col, "end_line": end_line,
                     "end_col": end_col},
            **extra}


_BAD_ESCAPE = ('unsupported escape in quoted identifier '
               '(only \\" and \\\\ are recognized)')
_NO_OPERAND_EOL = "expected a number, variable, or '(', got end of line"

# Every diagnostic of each source, exactly as the parser and checker
# report it: code, message and span down to the end column.
DIAGNOSTIC_TABLE = [
    ('input "a\\qb" = 1\n', [_error("P-TOKEN", _BAD_ESCAPE, 1, 7, 1, 9)]),
    ('input "X = 1\n', [
        _error("P-TOKEN", "unterminated quoted identifier", 1, 7, 1, 13)]),
    ('input "" = 1\n', [
        _error("P-TOKEN", "empty quoted identifier", 1, 7, 1, 9)]),
    ('input "a\\\\b\\"c" = 1\ninput "d\\', [
        _error("P-TOKEN", _BAD_ESCAPE, 2, 7, 2, 9),
        _error("P-TOKEN", "unterminated quoted identifier", 2, 7, 2, 10)]),
    ("input X = 40%\n", [
        _error("P-NUMBER", "percent literals are not supported; write the "
               "fraction instead (40% is 0.4)", 1, 11, 1, 14)]),
    ("input X = 1.2.3x\n", [
        _error("P-NUMBER", "malformed number '1.2.3x'", 1, 11, 1, 17),
        _error("P-SYNTAX", _NO_OPERAND_EOL, 1, 17, 2, 1)]),
    ("input X = 1é\n", [
        _error("P-NUMBER", "malformed number '1é'", 1, 11, 1, 13),
        _error("P-SYNTAX", _NO_OPERAND_EOL, 1, 13, 2, 1)]),
    ("input X = 1 @$! 2\n", [
        _error("P-TOKEN", "unexpected characters '@$!'", 1, 13, 1, 16),
        _error("P-SYNTAX", "unexpected '2' after declaration", 1, 17, 1, 18)]),
    ("input é = 1\ninput Y = a.b\n", [
        _error("P-TOKEN", "unexpected character 'é'", 1, 7, 1, 8),
        _error("P-SYNTAX", "expected a variable name, got '='", 1, 9, 1, 10),
        _error("P-TOKEN", "unexpected character '.'", 2, 12, 2, 13),
        _error("P-SYNTAX", "unexpected 'b' after declaration", 2, 13, 2, 14)]),
    ("input\tX = 1\r\ninput Y = ?\n", [
        _error("P-TOKEN", "unexpected character '?'", 2, 11, 2, 12),
        _error("P-SYNTAX", _NO_OPERAND_EOL, 2, 12, 3, 1)]),
    ("input a = 1\ncalc X = (a + 1\n", [
        _error("P-SYNTAX", "expected ')', got end of file", 3, 1, 3, 1)]),
    ("input a = 1\ncalc X = (a 1)\n", [
        _error("P-SYNTAX", "expected ')', got '1'", 2, 13, 2, 14)]),
    ("input a = 1\ncalc X = a * * 2\n", [
        _error("P-SYNTAX", "expected a number, variable, or '(', got '*'",
               2, 14, 2, 15)]),
    ("input a = 1\ncalc X = a ^ \n", [
        _error("P-SYNTAX", _NO_OPERAND_EOL, 2, 14, 3, 1)]),
    ("input over = 1\n", [
        _error("P-SYNTAX", "'over' is a reserved keyword and cannot be used "
               "as a variable name", 1, 7, 1, 11)]),
    ("input a = 1\ncalc X = a + over\n", [
        _error("P-SYNTAX", "'over' is a reserved keyword and cannot be used "
               "as a variable name", 2, 14, 2, 18)]),
    ("input A = 1\ncalc X = SUM(SUM(A))\n", [
        _error("P-SYNTAX", "SUM cannot be nested; aggregate the inner "
               "variable in its own declaration", 2, 14, 2, 17)]),
    ("input A = 1\ncalc X = SUM A\n", [
        _error("P-SYNTAX", "expected '(', got 'A'", 2, 14, 2, 15)]),
    ("input A = 1\ncalc X = SUM(A B)\n", [
        _error("P-SYNTAX", "SUM takes a single variable name", 2, 16, 2, 17)]),
    ("input a = 1\ncalc X = (a +\n   b) * 2\n", [
        _error("P-UNDECLARED", "no variable named b", 3, 4, 3, 5)]),
    ("dimension S = [A, B]\n"
     "data X over (S) = {\n    A: 1,\n    C: 2,\n}\n"
     "data Y over (S) = {\n  A: 1\n}\n", [
         _error("P-TABLE", "C is not an instance of S (table keys follow the "
                "dimension order (S))", 4, 5, 4, 6),
         _error("P-TABLE", "value table for Y has 1 of 2 entries (first "
                "missing: B)", 6, 1, 8, 2)]),
    ("dimension M = [J, F]\ninput a over (M) = [1, 2]\n"
     "calc X = (a\n  + 1) - -a\n", [
         _error("R2-NOT-SUBSET", "operand a spans (M), which is not a subset "
                "of X's declared set (): (M) is not available here",
                3, 11, 3, 12, variables=["X", "a"],
                dimension_sets=[["M"], []])]),
    ("dimension M = [J, F]\ndimension N = [P]\ninput a over (M) = [1, 2]\n"
     "calc X over (M, N) = (a\n  + 1) - -a\n", [
         _error("R1-MISMATCH", "X is declared over (M, N) but its formula "
                "spans (M): the formula under-spans the declaration "
                "(missing (N))", 4, 1, 5, 12, variables=["X"],
                dimension_sets=[["M", "N"], ["M"]])]),
    # a diagnostic on a parenthesized reference covers the parentheses
    ("dimension M = [J, F]\ndimension N = [P]\ninput a over (M) = [1, 2]\n"
     "input b over (N) = [3]\ncalc Y over (N) = ((a)) + b\n", [
         _error("R2-NOT-SUBSET", "operand a spans (M), which is not a subset "
                "of Y's declared set (N): (M) is not available here",
                5, 19, 5, 24, variables=["Y", "a"],
                dimension_sets=[["M"], ["N"]])]),
    ("dimension M = [J, F]\ndimension N = [P]\ninput x over (M) = [1, 2]\n"
     "input c over (N) = [3]\ncalc Y over (M) = (SUM(x)) * c\n", [
         _error("R3-DEGENERATE", "SUM(x) eliminates nothing: source and "
                "target are both over (M)", 5, 19, 5, 27, severity="warning",
                variables=["Y", "x"], dimension_sets=[["M"], ["M"]]),
         _error("R2-NOT-SUBSET", "operand c spans (N), which is not a subset "
                "of Y's declared set (M): (N) is not available here",
                5, 30, 5, 31, variables=["Y", "c"],
                dimension_sets=[["N"], ["M"]])]),
    ("input a = 1\ncalc X = (nope) + 1\n", [
        _error("P-UNDECLARED", "no variable named nope", 2, 10, 2, 16)]),
    # the over clause: every token of it can fail
    ("dimension D = [a]\ncalc X over () = 1\n", [
        _error("P-SYNTAX", "expected a dimension name, got ')'", 2, 14, 2, 15)]),
    ("dimension D = [a]\ncalc X over (D,) = 1\n", [
        _error("P-SYNTAX", "expected a dimension name, got ')'", 2, 16, 2, 17)]),
    ("dimension D = [a]\ncalc X over (D, over) = 1\n", [
        _error("P-SYNTAX", "'over' is a reserved keyword and cannot be used "
               "as a dimension name", 2, 17, 2, 21)]),
    ("dimension D = [a]\ncalc X over D = 1\n", [
        _error("P-SYNTAX", "expected '(', got 'D'", 2, 13, 2, 14)]),
    ("dimension D = [a]\ncalc X over (D = 1\n", [
        _error("P-SYNTAX", "expected ')', got '='", 2, 16, 2, 17)]),
    ("dimension D = [a]\ncalc X over (D) 1\n", [
        _error("P-SYNTAX", "calc X needs '=' and a formula", 2, 17, 2, 18)]),
    ("dimension D = [a]\ninput X over (D) 1\n", [
        _error("P-SYNTAX", "unexpected '1' after declaration", 2, 18, 2, 19)]),
    # a ')' with no group open ends the formula, and the statement reports it
    ("input a = 1\ncalc X = a )\n", [
        _error("P-SYNTAX", "unexpected ')' after declaration", 2, 12, 2, 13)]),
    ("input a = 1\ncalc X = (a))\n", [
        _error("P-SYNTAX", "unexpected ')' after declaration", 2, 13, 2, 14)]),
    # two or more dimensions the target lacks take the plural
    ("dimension A = [a]\ndimension B = [b]\ndimension C = [c]\n"
     "data X over (A, B, C) = {a,b,c: 1}\ncalc Y over (A) = X + 1\n", [
         _error("R2-NOT-SUBSET", "operand X spans (A, B, C), which is not a "
                "subset of Y's declared set (A): (B, C) are not available "
                "here", 5, 19, 5, 20, variables=["Y", "X"],
                dimension_sets=[["A", "B", "C"], ["A"]])]),
]


@pytest.mark.parametrize("source,expected", DIAGNOSTIC_TABLE)
def test_diagnostics_are_span_exact(source, expected):
    with pytest.raises((ParseFailure, CheckFailure)) as info:
        check_model(parse_model(source))
    assert [d.as_json() for d in info.value.diagnostics] == expected


_PERCENT = "percent literals are not supported; write the fraction instead"
_NO_OPERAND = "expected a number, variable, or '(', got"


# Tokens are made as the parser reads them. After a statement fails, the
# parser skips to the end of the statement, and every bad token it skips is
# still reported. Inside an open group a newline is a blank, so the skip
# runs on past the lines the group swallows.
@pytest.mark.parametrize("source,expected", [
    ('input a = 1\ncalc X = ) 5% 1x @ "q\ninput b = 2 @\n', [
        _error("P-SYNTAX", f"{_NO_OPERAND} ')'", 2, 10, 2, 11),
        _error("P-NUMBER", f"{_PERCENT} (5% is 0.05)", 2, 12, 2, 14),
        _error("P-NUMBER", "malformed number '1x'", 2, 15, 2, 17),
        _error("P-TOKEN", "unexpected character '@'", 2, 18, 2, 19),
        _error("P-TOKEN", "unterminated quoted identifier", 2, 20, 2, 22),
        _error("P-TOKEN", "unexpected character '@'", 3, 13, 3, 14)]),
    ("input a = 1\ncalc X = (a +\n  a * 2%\n  # note (\n  a @\n"
     "calc Y = 1x\ninput b\n", [
        _error("P-NUMBER", f"{_PERCENT} (2% is 0.02)", 3, 7, 3, 9),
        _error("P-SYNTAX", "expected ')', got 'a'", 5, 3, 5, 4),
        _error("P-TOKEN", "unexpected character '@'", 5, 5, 5, 6),
        _error("P-NUMBER", "malformed number '1x'", 6, 10, 6, 12)]),
    ('input a = 1\ncalc X = a a @ 3% "\\q  # c', [
        _error("P-SYNTAX", "unexpected 'a' after declaration", 2, 12, 2, 13),
        _error("P-TOKEN", "unexpected character '@'", 2, 14, 2, 15),
        _error("P-NUMBER", f"{_PERCENT} (3% is 0.03)", 2, 16, 2, 18),
        _error("P-TOKEN", _BAD_ESCAPE, 2, 19, 2, 20),
        _error("P-TOKEN", "unterminated quoted identifier", 2, 19, 2, 27)]),
    ("input a = 1\ncalc X = a + # trailing  ", [
        _error("P-SYNTAX", f"{_NO_OPERAND} end of file", 2, 26, 2, 26)]),
], ids=["same-line", "open-group", "last-statement", "last-operand"])
def test_skipped_tokens_are_still_reported(source, expected):
    assert [d.as_json() for d in parse_fail(source).diagnostics] == expected


def _text_at(text, span):
    """The text a span covers, found by splitting the source on LF and
    counting 1-based columns, apart from the parser's own offsets."""
    lines = text.split("\n")
    first, last = span.start_line - 1, span.end_line - 1
    if first == last:
        return lines[first][span.start_col - 1:span.end_col - 1]
    return "\n".join([lines[first][span.start_col - 1:], *lines[first + 1:last],
                      lines[last][:span.end_col - 1]])


# each declared name as written in the source, and the name it denotes
_DECLARED = {"a": "a", "Total_1": "Total_1", '"é x"': "é x",
             '"données"': "données", '"q\\"t"': 'q"t', '"Σ[1]"': "Σ[1]"}
_WRITTEN = {**_DECLARED, '"a"': "a"}
_UNDECLARED = {"nope": "nope", '"ñ o"': "ñ o"}
_BLANK = st.sampled_from(["", " ", "\t", " \r", "\t "])
# inside a group a newline is a blank, so a comment may end there
_GAP = st.sampled_from(["", " ", "\t", "\n", "\r\n", " # note é\n  ", "\n\t"])
_COMMENT = st.sampled_from(["", " # ü", "\t#", " \r"])


@st.composite
def _formulas(draw, atoms, depth=3):
    """Formula text, and (text its span covers, name or None) for every
    reference and bad literal in it, in source order. A grouped reference's
    span covers its parentheses."""
    kind = draw(st.integers(0, 4 if depth else 1))
    if kind == 0:
        number = draw(st.sampled_from(["2", "0.5", "1e3", "40%"]
                                      if "40%" in atoms else ["2", "0.5", "1e3"]))
        return number, [(number, None)] if number == "40%" else []
    if kind == 1:
        written = draw(st.sampled_from(sorted(set(atoms) - {"40%"})))
        text = draw(st.sampled_from(
            [written, f"SUM({written})", f"SUM(\t{written}\n )"]))
        return text, [(text, atoms[written])]
    inner, marks = draw(_formulas(atoms, depth - 1))
    if kind == 2:
        text = f"({draw(_GAP)}{inner}{draw(_GAP)})"
        if len(marks) == 1 and marks[0][0] == inner and marks[0][1]:
            return text, [(text, marks[0][1])]  # a group of one reference
        return text, marks
    if kind == 3:
        return f"-{draw(_BLANK)}{inner}", marks
    right, right_marks = draw(_formulas(atoms, depth - 1))
    op = draw(st.sampled_from(["+", "-", "*", "/", "^"]))
    return f"{inner}{draw(_BLANK)} {op} {draw(_BLANK)}{right}", marks + right_marks


@st.composite
def _sources(draw, failing=False):
    """Model source mixing tabs, CR, comments, non-ASCII quoted names, a
    table and groups split across lines; and for each formula variable,
    the text its statement's span covers and its formula's marks."""
    atoms = {**_WRITTEN, **(_UNDECLARED if failing else {}),
             **({"40%": None} if failing else {})}
    chunks = [f"{draw(_BLANK)}input {written} = 1{draw(_COMMENT)}"
              for written in _DECLARED]
    if draw(st.booleans()):
        chunks.append('dimension "Région" = [n, "s t"]\n'
                      'data T over ("Région") = {\n\tn: 1, # first\r\n'
                      '  "s t": -2\n}')
    statements = {}
    for i, (formula, marks) in enumerate(draw(
            st.lists(_formulas(atoms), min_size=1, max_size=3))):
        statements[f"X{i}"] = f"calc X{i} = {formula}", marks
        chunks.append(f"{draw(_BLANK)}calc X{i} = {formula}{draw(_COMMENT)}")
    chunks += draw(st.lists(st.sampled_from(["", "# só", "\t"]), max_size=2))
    text = ""
    for chunk in draw(st.permutations(chunks)):
        text += chunk + draw(st.sampled_from(["\n", "\r\n", "\n\n"]))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # the last line ends without a newline
    return text, statements


@given(_sources())
@settings(max_examples=150)
def test_reference_and_statement_spans_cover_their_source(source):
    text, statements = source
    model = parse_model(text)
    for name, (statement, marks) in statements.items():
        variable = model.variable(name)
        assert _text_at(text, variable.span) == statement
        assert [(_text_at(text, node.span), ref)
                for ref, node in iter_dependencies(variable.payload)] == marks


@given(_sources(failing=True))
@settings(max_examples=150)
def test_diagnostic_spans_cover_their_source(source):
    text, statements = source
    expected = sorted(("P-NUMBER", mark) if name is None else
                      ("P-UNDECLARED", mark)
                      for _, marks in statements.values()
                      for mark, name in marks if name not in _WRITTEN.values())
    try:
        parse_model(text)
    except ParseFailure as err:
        found = sorted((d.code, _text_at(text, d.span)) for d in err.diagnostics)
    else:
        found = []
    assert found == expected


def _eager_span(text, start, end):
    """The span of offsets [start, end) with its lines and columns counted
    by splitting the text before each offset on LF, built directly."""
    before_start, before_end = text[:start].split("\n"), text[:end].split("\n")
    return SourceSpan("<input>", len(before_start), len(before_start[-1]) + 1,
                      len(before_end), len(before_end[-1]) + 1)


_SPAN_FIELDS = ["file", "start_line", "start_col", "end_line", "end_col"]


@given(st.booleans().flatmap(lambda failing: _sources(failing)), st.data())
@settings(max_examples=max(150, settings.default.max_examples))
def test_parsed_spans_equal_eager_spans(source, data):
    text, _ = source
    try:
        model = parse_model(text)
    except ParseFailure as err:
        spans = [d.span for d in err.diagnostics]
    else:
        spans = [v.span for v in model.variables] + [
            node.span for v in model.variables if isinstance(v.payload, Expr)
            for _, node in iter_dependencies(v.payload)]
    assert spans
    for span in spans:
        # the offsets it holds, read before any line or column of a clean
        # parse; copies may be taken before that first read
        eager = _eager_span(text, span._start, span._end)
        if data.draw(st.booleans()):
            assert copy.deepcopy(span) == eager
            assert pickle.loads(pickle.dumps(span)) == eager
        first = data.draw(st.sampled_from(_SPAN_FIELDS))
        assert getattr(span, first) == getattr(eager, first)
        assert span == eager and eager == span
        assert hash(span) == hash(eager)
        assert (str(span), span.as_json()) == (str(eager), eager.as_json())
        assert pickle.loads(pickle.dumps(span)) == eager
        assert copy.deepcopy(span) == eager


def test_clean_run_works_out_no_line_or_column(monkeypatch):
    """parse, check and evaluate leave every span as offsets; only a read
    maps an offset to its line."""
    calls = []

    def counted(*args):
        calls.append(args)
        return bisect_right(*args)

    monkeypatch.setattr(model_module, "bisect_right", counted)
    for fixture, overrides in [("acme.dml", []), ("pricing.dml", [
            InputOverride("Price", None, 200.0)])]:
        text = (FIXTURES / fixture).read_bytes().decode("utf-8")
        model = parse_model(text, fixture)
        evaluate(check_model(model), overrides)
        assert calls == []
    assert str(model.variables[0].span) == "pricing.dml:8:1"
    assert len(calls) == 2


def test_one_reference_walk_per_formula(monkeypatch):
    """parse, check, diagram and every `dependencies` read walk each formula
    once, when its Variable is built; evaluate runs `Variable.nodes` and
    walks none, not even to find a failing formula's first bad cell."""
    calls = []
    walk = model_module._walk

    def counted(expr):
        calls.append(id(expr))
        return walk(expr)

    # iter_nodes and iter_dependencies, wherever imported, walk through it
    monkeypatch.setattr(model_module, "_walk", counted)
    text = (FIXTURES / "acme.dml").read_bytes().decode("utf-8")
    model = parse_model(text, "acme.dml")
    checked = check_model(model)
    emit_dot(model)
    for variable in model.variables:
        variable.dependencies
    formulas = [id(v.payload) for v in model.variables
                if isinstance(v.payload, Expr)]
    assert len(formulas) == 20
    assert calls == formulas
    calls.clear()
    evaluate(checked)
    assert calls == []
    failing = check_model(parse_model(
        "dimension D = [a, b, c, d, e]\ndata X over (D) = [1, 2, 3, 0, 5]\n"
        "output Y over (D) = 1 / X\n"))
    calls.clear()
    with pytest.raises(EvalError, match=r"DIV-BY-ZERO\]: Y\[d\]"):
        evaluate(failing)
    assert calls == []


# the text each reference's span covers, in source order: a grouped
# reference's span covers its parentheses
_GROUPED_MARKS = {
    "(A)": ["(A)"], "-(SUM(X))": ["(SUM(X))"],
    "((A)) * B ^ -(C)": ["((A))", "B", "(C)"], "(nope) + 1": ["(nope)"],
    "2 * -(\n(nope)\n)": ["(\n(nope)\n)"],
    "SUM(X) - (SUM(X)) / A ^ A": ["SUM(X)", "(SUM(X))", "A", "A"],
    "((((B))))": ["((((B))))"], "3": [], "-(2)": []}


def _assert_uses_are_the_tree(variable):
    """Each entry of `Variable.uses` is the formula's own node."""
    assert [(name, id(node)) for name, node in variable.uses] == [
        (name, id(node)) for name, node in iter_dependencies(variable.payload)]


@pytest.mark.parametrize("formula", list(_GROUPED_MARKS))
def test_collected_references_are_iter_dependencies(formula):
    text = ("input A = 1\ninput B = 2\ninput C = 3\ninput X = 4\n"
            f"calc Y = {formula}\n")
    marks = _GROUPED_MARKS[formula]
    if "nope" in formula:
        err = parse_fail(text)
        assert [(d.code, _text_at(text, d.span)) for d in err.diagnostics] == [
            ("P-UNDECLARED", mark) for mark in marks]
        return
    variable = parse_model(text).variable("Y")
    _assert_uses_are_the_tree(variable)
    assert [_text_at(text, node.span) for _, node in variable.uses] == marks


@given(_sources(failing=True))
@settings(max_examples=100)
def test_collected_references_are_iter_dependencies_generated(source):
    text, statements = source
    try:
        model = parse_model(text)
    except ParseFailure as err:
        undeclared = sorted(mark for _, marks in statements.values()
                            for mark, name in marks
                            if name in _UNDECLARED.values())
        assert sorted(_text_at(text, d.span) for d in err.diagnostics
                      if d.code == "P-UNDECLARED") == undeclared
        return
    for name, (_, marks) in statements.items():
        variable = model.variable(name)
        _assert_uses_are_the_tree(variable)
        assert [(_text_at(text, node.span), ref)
                for ref, node in variable.uses] == marks


@st.composite
def _keyed_tables(draw):
    """A keyed table over 1-3 dimensions of 1-4 labels, which reuse one
    another's labels in their own orders: a shuffled subset of the keys,
    sometimes with one key written twice."""
    axes = [draw(st.permutations("pqrs").map(lambda p, k=k: p[:k]))
            for k in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))]
    keys = draw(st.lists(st.sampled_from(list(itertools.product(*axes))),
                         min_size=1, unique=True).flatmap(st.permutations))
    repeat = draw(st.none() | st.integers(0, len(keys) - 1))
    if repeat is not None:
        keys.insert(draw(st.integers(repeat + 1, len(keys))), keys[repeat])
    return axes, keys


@given(_keyed_tables())
@settings(max_examples=max(200, settings.default.max_examples))
def test_keyed_table_matches_a_set_oracle(case):
    axes, keys = case
    names = [f"D{i}" for i in range(len(axes))]
    # one entry a line, after a line per dimension and the declaration's
    text = "".join(f"dimension {n} = [{', '.join(labels)}]\n"
                   for n, labels in zip(names, axes))
    text += f"data X over ({', '.join(names)}) = {{\n"
    text += "".join(f"{','.join(key)}: {keys.index(key)},\n" for key in keys)
    text += "}\n"
    cells = list(itertools.product(*axes))
    repeated = next((i for i, key in enumerate(keys) if key in keys[:i]), None)
    written = set(keys)
    missing = [cell for cell in cells if cell not in written]
    try:
        model = parse_model(text)
    except ParseFailure as err:
        rendered = [d.render() for d in err.diagnostics]
    else:
        assert repeated is None and not missing
        assert model.variable("X").payload == ValueTable(
            tuple(keys.index(cell) for cell in cells))
        return
    if repeated is not None:
        key = ",".join(keys[repeated])
        assert rendered == [f"<input>:{len(axes) + 2 + repeated}:1: "
                            f"error[P-DUPLICATE]: table entry {key} is "
                            f"already defined"]
    else:
        assert missing and rendered == [
            f"<input>:{len(axes) + 1}:1: error[P-TABLE]: value table for X "
            f"has {len(keys)} of {len(cells)} entries (first missing: "
            f"{','.join(missing[0])})"]


class TestExpressions:
    def expr(self, text):
        model = parse_one(f"input a = 1\ninput b = 2\ninput c = 3\n"
                          f"calc X = {text}\n")
        return model.variable("X").payload

    def test_precedence(self):
        assert format_expr(self.expr("a + b * c")) == "a + b * c"
        assert format_expr(self.expr("(a + b) * c")) == "(a + b) * c"
        assert format_expr(self.expr("a - b - c")) == "a - b - c"
        assert self.expr("a - b - c") == Binary(
            "-", Binary("-", Ref("a"), Ref("b")), Ref("c"))

    def test_power_binds_tightest_and_left_assoc(self):
        assert self.expr("-a ^ 2") == Unary(Binary("^", Ref("a"), Literal(2.0)))
        assert self.expr("a ^ b ^ c") == Binary(
            "^", Binary("^", Ref("a"), Ref("b")), Ref("c"))

    def test_unary_minus_in_exponent(self):
        assert self.expr("a ^ -b") == Binary("^", Ref("a"), Unary(Ref("b")))
        assert format_expr(self.expr("a ^ -b")) == "a ^ -b"
        assert format_expr(self.expr("a ^ - - b ^ c")) == "a ^ --b ^ c"

    # a run of minuses right after ^ takes only the next atom, however long
    # the run, and a group reads as that atom; before a ^ chain they negate
    # the whole chain
    @pytest.mark.parametrize("text,expected", [
        ("a ^ - - b ^ c", Binary("^", Binary("^", Ref("a"), Unary(Unary(
            Ref("b")))), Ref("c"))),
        ("a ^ - - 2 ^ c", Binary("^", Binary("^", Ref("a"), Literal(2.0)),
                                 Ref("c"))),
        ("a ^ -(b) ^ c", Binary("^", Binary("^", Ref("a"), Unary(Ref("b"))),
                                Ref("c"))),
        ("- - a ^ b", Unary(Unary(Binary("^", Ref("a"), Ref("b"))))),
    ])
    def test_minus_runs_around_power(self, text, expected):
        assert self.expr(text) == expected
        assert self.expr(format_expr(expected)) == expected

    def test_negative_literal_folds(self):
        assert self.expr("-2") == Literal(-2.0)
        assert format_expr(self.expr("-2 + a")) == "-2 + a"

    def test_negative_zero_literal_is_a_negation(self):
        # without the parentheses, -0 ^ 2 would parse as -(0 ^ 2)
        expr = self.expr("(-0) ^ 2 + a")
        assert format_expr(expr) == "(-0) ^ 2 + a"
        assert self.expr(format_expr(expr)) == expr

    def test_sum_call(self):
        assert self.expr("SUM(a) / 2") == Binary(
            "/", Aggregate("a"), Literal(2.0))

    def test_number_forms(self):
        assert self.expr("1.5e3") == Literal(1500.0)
        assert self.expr(".5") == Literal(0.5)
        assert self.expr("2500000") == Literal(2500000.0)


class TestPrinting:
    def test_format_number(self):
        assert format_number(100.0) == "100"
        assert format_number(1.45) == "1.45"
        assert format_number(-0.30000000000000004) == "-0.30000000000000004"
        assert format_number(22858963442.0) == "22858963442"
        assert format_number(0.0) == "0"
        assert format_number(-0.0) == "-0"

    def test_format_number_round_trips(self):
        for value in (0.1, 1 / 3, 1e-7, 123456.789, 2e15):
            assert float(format_number(value)) == value

    def test_format_ident(self):
        assert format_ident("Base_Price") == "Base_Price"
        assert format_ident("Unit Price") == '"Unit Price"'
        assert format_ident('say "hi"') == '"say \\"hi\\""'

    # keywords, ASCII and non-ASCII letters and digits, and what a name
    # token never holds
    @given(st.one_of(st.sampled_from(sorted(KEYWORDS)),
                     st.text(st.sampled_from(list('aZ_09 "\\éǅµａ٣¹')),
                             max_size=5),
                     st.text(max_size=3)))
    def test_format_ident_leaves_only_name_tokens_bare(self, name):
        token = re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name)
        bare = token is not None and name not in KEYWORDS
        assert (format_ident(name) == name) == bare

    def test_pretty_print_round_trip_fixture(self):
        src = Path("fixtures/acme.dml").read_text(encoding="utf-8")
        model = parse_model(src)
        printed = pretty_print(model)
        again = parse_model(printed)
        assert again == model
        assert pretty_print(again) == printed

    # the DSL has no way to write an LF inside quotes, so a library-built
    # name or label holding one does not read back
    @pytest.mark.parametrize("model,part", [
        (Model((Dimension("D", ("a\nb", "c")),), ()), "dimension 'D'"),
        (Model((Dimension("D\nE", ("c",)),), ()), "dimension 'D\\nE'"),
        (Model((), (Variable("X\nY", VariableKind.DATA, EMPTY_DIMS,
                             ValueTable((1,))),)),
         "variable 'X\\nY'"),
    ], ids=["label", "dimension", "variable"])
    def test_pretty_print_refuses_lf_in_identifier(self, model, part):
        with pytest.raises(ModelError) as info:
            pretty_print(model)
        assert str(info.value) == (f"cannot print {part}: it reads back as "
                                   f"P-TOKEN: unterminated quoted identifier")

    @pytest.mark.parametrize("model,part", [
        (Model((Dimension("D", ("", "c")),), ()), "dimension 'D'"),
        (Model((Dimension("", ("c",)),), ()), "dimension ''"),
        (Model((), (Variable("", VariableKind.DATA, EMPTY_DIMS,
                             ValueTable((1,))),)),
         "variable ''"),
    ], ids=["label", "dimension", "variable"])
    def test_pretty_print_refuses_empty_identifier(self, model, part):
        with pytest.raises(ModelError) as info:
            pretty_print(model)
        assert str(info.value) == (f"cannot print {part}: it reads back as "
                                   f"P-TOKEN: empty quoted identifier")

    # the DSL writes no nan or inf: `nan` reads back as a name
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("payload", ["table", "literal"])
    def test_pretty_print_refuses_non_finite_numbers(self, payload, value):
        dims = DimensionSet(("D",))
        x = Variable("X", VariableKind.DATA, dims, ValueTable(
            (2, value) if payload == "table" else (2, 3)))
        y = Variable("Y", VariableKind.OUTPUT, dims, Binary(
            "^", Ref("X"), Literal(3 if payload == "table" else value)))
        model = Model((Dimension("D", ("a", "b")),), (x, y))
        with pytest.raises(ModelError) as info:
            pretty_print(model)
        word = repr(abs(value))
        assert str(info.value) == (
            f"cannot print variable 'X': it reads back as P-SYNTAX: expected "
            f"a number, got '{word}'" if payload == "table" else
            f"cannot print variable 'Y': it reads back as P-UNDECLARED: no "
            f"variable named {word}")

    # kind/payload pairs no declaration writes, and a negated literal, which
    # reads back folded into the literal
    @pytest.mark.parametrize("kind,dims,payload,reads", [
        (VariableKind.DATA, EMPTY_DIMS, None,
         "P-SYNTAX: data Y needs '=' and a value"),
        (VariableKind.CALCULATED, EMPTY_DIMS, None,
         "P-SYNTAX: calc Y needs '=' and a formula"),
        (VariableKind.CALCULATED, EMPTY_DIMS, ValueTable((5,)),
         repr(Variable("Y", VariableKind.CALCULATED, EMPTY_DIMS, Literal(5)))),
        (VariableKind.DATA, EMPTY_DIMS, Literal(5),
         repr(Variable("Y", VariableKind.DATA, EMPTY_DIMS, ValueTable((5,))))),
        (VariableKind.INPUT, EMPTY_DIMS, Literal(5),
         repr(Variable("Y", VariableKind.INPUT, EMPTY_DIMS, ValueTable((5,))))),
        (VariableKind.DATA, DimensionSet(("D",)), Literal(5),
         "P-TABLE: Y is over (D); a single number is only valid for a "
         "dimensionless variable"),
        (VariableKind.CALCULATED, EMPTY_DIMS,
         Binary("+", Ref("X"), Unary(Literal(5))),
         repr(Variable("Y", VariableKind.CALCULATED, EMPTY_DIMS,
                       Binary("+", Ref("X"), Literal(-5))))),
    ], ids=["data-none", "calc-none", "calc-table", "data-literal",
            "input-literal", "data-over-literal", "negated-literal"])
    def test_pretty_print_refuses_what_does_not_read_back(self, kind, dims,
                                                          payload, reads):
        model = Model((Dimension("D", ("a", "b")),), (
            Variable("X", VariableKind.INPUT, EMPTY_DIMS, ValueTable((1,))),
            Variable("Y", kind, dims, payload)))
        with pytest.raises(ModelError) as info:
            pretty_print(model)
        assert str(info.value) == f"cannot print variable 'Y': it reads back as {reads}"

    def test_pretty_print_keeps_cr_in_identifier(self):
        model = Model((Dimension("D", ("a\rb", "c")),), ())
        assert parse_model(pretty_print(model)) == model


names = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def expressions(draw, depth=3):
    if depth == 0:
        return draw(st.one_of(
            st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False).map(Literal),
            names.map(Ref)))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(st.one_of(
            st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False).map(Literal),
            names.map(Ref)))
    if kind == 1:
        # a run of one to three minuses is one step, so --x can be the right
        # operand of a ^ that is the left operand of another ^
        expr = draw(expressions(depth=depth - 1))
        for _ in range(draw(st.integers(1, 3))):
            expr = Unary(expr)
        return expr
    if kind == 2:
        return Aggregate(draw(names))
    op = draw(st.sampled_from(["+", "-", "*", "/", "^"]))
    return Binary(op, draw(expressions(depth=depth - 1)),
                  draw(expressions(depth=depth - 1)))


@given(expressions())
@settings(max_examples=max(200, settings.default.max_examples))
def test_expr_print_parse_round_trip(expr):
    header = "input a = 1\ninput b = 2\ninput c = 3\ninput d = 4\n"
    text = header + "calc X = " + format_expr(expr) + "\n"
    model = parse_model(text)
    parsed = model.variable("X").payload
    # the parser folds unary minus over literals, so apply the same fold
    # bottom-up before comparing
    def fold(e):
        if isinstance(e, Unary):
            inner = fold(e.operand)
            if isinstance(inner, Literal):
                return Literal(-inner.value)
            return Unary(inner)
        if isinstance(e, Binary):
            return Binary(e.op, fold(e.left), fold(e.right))
        return e
    assert parsed == fold(expr)


_NUMBER_TEXTS = st.sampled_from(["0", "2", "0.5", "12.", ".25", "1e3"])


@st.composite
def formula_texts(draw, depth=3):
    """A valid formula: one to four operands joined by binary operators, ^
    drawn most. Each operand is a run of up to three prefix minuses before a
    number, a name, SUM(name) or, above depth 0, a group."""
    tokens = []
    for i in range(draw(st.integers(1, 4))):
        if i:
            tokens.append(draw(st.sampled_from("+-*/^^^")))
        tokens += "-" * draw(st.integers(0, 3))
        kind = draw(st.integers(0 if depth else 1, 3))
        if kind == 0:
            tokens += ["(", draw(formula_texts(depth - 1)), ")"]
        elif kind == 1:
            tokens.append(draw(_NUMBER_TEXTS))
        elif kind == 2:
            tokens.append(draw(names))
        else:
            tokens.append(f"SUM({draw(names)})")
    return "".join(tok + draw(st.sampled_from(["", " "])) for tok in tokens)


def _as_tuples(expr):
    """A parsed formula in the reference reader's nested-tuple form."""
    kind = type(expr)
    if kind is Binary:
        return (expr.op, _as_tuples(expr.left), _as_tuples(expr.right))
    if kind is Unary:
        return ("neg", _as_tuples(expr.operand))
    if kind is Literal:
        return ("num", expr.value)
    if kind is Ref:
        return ("ref", expr.name)
    return ("sum", expr.source)


# The parser against a reader written from the README's precedence rules;
# the round trip above goes through format_expr, so a printer that drifts
# with the parser would pass it, but not this
@given(formula_texts())
@settings(max_examples=max(300, settings.default.max_examples))
def test_formula_matches_a_reference_reader(text):
    header = "input a = 1\ninput b = 2\ninput c = 3\ninput d = 4\n"
    parsed = parse_model(header + "calc X = " + text + "\n").variable("X")
    # compared as reprs, so a folded -0 is not taken for 0
    assert repr(_as_tuples(parsed.payload)) == repr(oracle_formula(text))


@st.composite
def deeply_nested(draw):
    """A formula nested far deeper than the interpreter's recursion limit."""
    opener, closer = draw(st.sampled_from([
        ("(", ")"), ("-", ""), ("-(", ")"), ("a ^ -(", ")"), ("a * ", ""),
        ("(a + ", ")"), ("SUM(", ")")]))
    depth = draw(st.integers(1, 3000))
    middle = draw(st.text(alphabet="a1+-*/^() \n", max_size=8))
    closers = draw(st.integers(0, depth))
    return "input a = 1\ncalc X = " + opener * depth + middle + closer * closers


@given(st.one_of(st.text(max_size=80), deeply_nested()))
@settings(max_examples=max(300, settings.default.max_examples))
def test_parser_is_total(text):
    try:
        parse_model(text)
    except ParseFailure as err:
        assert err.diagnostics
        for diag in err.diagnostics:
            assert diag.code.startswith("P-")
            assert diag.render()


# A token match's kind, by the group `lastindex` names: name, number,
# newline, qname or eof here, and a mark's or a keyword's own text
_CLASSES = {1: "name", 5: "number", 6: "number", 8: "newline", 9: "qname",
            13: "eof"}


def _token(m):
    """A token match as (kind, text, value, start, end), read from the
    match's groups alone: a number glued to '%' (group 6) keeps its digits
    in group 5, and a quoted name's body is group 10."""
    group = 5 if m.lastindex == 6 else m.lastindex
    text = m[group]
    kind = _CLASSES.get(m.lastindex, text)
    if kind == "name" and text in KEYWORDS:
        kind = text
    elif kind == "qname":
        text = re.sub(r"\\(.?)", r"\1", m[10])
    value = float(text) if kind == "number" else None
    return kind, text, value, m.start(group), m.end()


# About 1 MB each of blanks and comments, or of digits. The blanks and
# comment before a token are one prefix of its match that can be read only
# one way, so each text is one match; a prefix the regex engine could split
# several ways would backtrack over the whole run at every offset. A number
# and what is glued to it are read once: a class for a number with nothing
# glued that looked past its digits would give them back one at a time,
# linear still, but some 20 times as slow on these runs.
@pytest.mark.parametrize("text,kinds,codes", [
    ("' ' * 1_000_000 + '@'", ["eof"], ["P-TOKEN"]),
    ("'# c # d\\t \\r' * 100_000", ["eof"], []),
    ("' \\t' * 500_000", ["eof"], []),
    ("'1' * 1_000_000 + 'x'", ["eof"], ["P-NUMBER"]),
    ("'1' * 1_000_000 + '%'", ["number", "eof"], ["P-NUMBER"]),
    ("'1.' + '2' * 1_000_000 + 'e'", ["eof"], ["P-NUMBER"]),
], ids=["spaces-then-bad", "comment-marks", "space-tab", "digits-then-letter",
        "digits-then-percent", "fraction-then-e"])
def test_long_blank_runs_tokenize_in_linear_time(text, kinds, codes):
    # in a fresh interpreter, so that a backtracking regex fails the test by
    # the timeout rather than hanging the run
    # each token match is sent as (class, text, value, start, end), its
    # text cut to three characters; a '%' leaves a number's digits in 5
    source = ("import json, sys, time; sys.path.insert(0, sys.argv[1]); "
              "from dimcalc.parser import _spans_of, _tokenize; "
              f"text = {text}; diags = []; start = time.perf_counter(); "
              "tokens = list(_tokenize(text, _spans_of(text, 't'), diags)); "
              "print(json.dumps([time.perf_counter() - start, len(text), "
              "[[m.lastindex, m[g][:3], float(m[g]) if g == 5 else None, "
              "m.start(g), m.end()] for m in tokens "
              "for g in [5 if m.lastindex == 6 else m.lastindex]], "
              "[d.code for d in diags]]))")
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", source,
         str(Path(parser_module.__file__).parents[1])],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    elapsed, size, rows, found = json.loads(result.stdout)
    tokens = [[_CLASSES[kind], *rest] for kind, *rest in rows]
    assert size > 900_000
    assert [t[0] for t in tokens] == kinds
    assert tokens[-1] == ["eof", "", None, size, size]
    if kinds[0] == "number":  # the digits and their '%'
        assert tokens[0] == ["number", "111", math.inf, 0, size]
    assert found == codes
    assert elapsed < 1.0  # linear: about 5 ms


def test_keywords_are_their_own_token_kinds():
    text = 'dimension input data calc output over SUM Sum overt "over" _SUM'
    tokens = [_token(m) for m in
              parser_module._tokenize(text, lambda *offsets: offsets, [])]
    keywords = ["dimension", "input", "data", "calc", "output", "over", "SUM"]
    assert set(keywords) == parser_module.KEYWORDS
    assert [t[0] for t in tokens] == [
        *keywords, "name", "name", "qname", "name", "eof"]
    assert [t[1] for t in tokens] == [
        *keywords, "Sum", "overt", "over", "_SUM", ""]


_TOKEN_CHARS = st.sampled_from(list(" \t\r\n#\"\\%.,:=()[]{}+-*/^_aZ09eE@é"))
# the characters above, keywords, and a number out of range
_TOKEN_PIECES = st.one_of(_TOKEN_CHARS, st.sampled_from([*KEYWORDS, "9e999"]))


@given(st.one_of(st.text(_TOKEN_CHARS, max_size=120), st.text(max_size=60),
                 st.lists(_TOKEN_PIECES, max_size=60).map("".join)))
@settings(max_examples=max(300, settings.default.max_examples))
def test_tokens_and_skipped_text_tile_the_source(text):
    # between tokens, and the bad runs and malformed numbers that make no
    # token, lie only blanks, a comment, and newlines inside a bracket group;
    # each token's text and value are the source's at its span
    diags = []
    tokens = [_token(m) for m in
              parser_module._tokenize(text, lambda *offsets: offsets, diags)]
    assert [t[3] for t in tokens] == sorted(t[3] for t in tokens)
    assert [t[0] for t in tokens].index("eof") == len(tokens) - 1
    assert tokens[-1] == ("eof", "", None, len(text), len(text))
    dropped = [(*d.span, None) for d in diags if d.message.startswith(
        ("unexpected character", "malformed number"))]
    flagged = {d.span for d in diags if d.code == "P-NUMBER"}
    pos = depth = 0
    for start, end, tok in sorted([(t[3], t[4], t) for t in tokens] + dropped):
        gap = r"(?:[ \t\r]|#[^\n]*|\n)*" if depth else r"[ \t\r]*(?:#[^\n]*)?"
        assert pos <= start and re.fullmatch(gap, text[pos:start])
        pos = end
        if tok is None:
            continue
        if tok[0] == "newline":
            assert text[start:end] == "\n" and depth == 0
        elif tok[0] == "name":
            assert text[start:end] == tok[1] and tok[1] not in KEYWORDS
        elif tok[0] in KEYWORDS or tok[0] in set("=,:()[]{}+-*/^"):
            assert text[start:end] == tok[1] == tok[0]
        elif tok[0] == "qname":
            assert text[start] == '"'
        elif tok[0] == "number":
            # a '%' after the digits, or a value out of range, is reported
            percent = text[start:end] == tok[1] + "%"
            assert text[start:end] == tok[1] or percent
            assert tok[2] == float(tok[1])
            assert ((start, end) in flagged if percent or math.isinf(tok[2])
                    else math.isfinite(tok[2]))
        if tok[0] in ("(", "[", "{"):
            depth += 1
        elif tok[0] in (")", "]", "}") and depth:
            depth -= 1


def _formula_lines(count):
    """Source text of `count` formulas over two dimensions, one a line; it
    parses, and is not meant to check."""
    lines = ["dimension D = [a, b, c]", "dimension E = [p, q]",
             "data x0 over (D, E) = {a,p: 1, a,q: 2, b,p: 3, b,q: 4, c,p: 5, "
             "c,q: 6}"]
    for i in range(1, count + 1):
        lines.append(f"calc x{i} over (D, E) = (x{i - 1} + 1.5) * x{i // 2} "
                     f"- SUM(x{i - 1}) / 2 ^ -x0  # step {i}")
    return "\n".join(lines) + "\n"


def test_parse_peak_memory_follows_the_source():
    # no list of every token lives through the parse: with one, the peak
    # read 80.9-82.3 bytes a source byte on 64-bit CPython 3.10-3.13;
    # reading tokens one ahead, 37.3-37.9, most of it the Model itself
    text = _formula_lines(1000)
    gc.collect()  # empties the free lists, so the reading is the same
    tracemalloc.start()
    try:
        model = parse_model(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model.variables) == 1001 and len(text) == 77_464
    assert peak / len(text) < 50


def test_keyed_table_peak_memory_follows_the_source():
    # a table keeps each key's labels as text and offsets, not the token
    # matches they were read from (328 bytes each): keeping the match of
    # every label read 58.9 bytes a source byte here; as written, the peak
    # reads 28.7-29.4 on 64-bit CPython 3.10-3.13
    labels = {d: [f"{d.lower()}{i}" for i in range(100)] for d in "AB"}
    text = "".join(f"dimension {d} = [{', '.join(labels[d])}]\n" for d in "AB")
    text += "data X over (A, B) = {\n" + ",\n".join(
        f"    {a}, {b}: {i + 0.25}" for i, (a, b) in
        enumerate(itertools.product(labels["A"], labels["B"]))) + "\n}\n"
    gc.collect()
    tracemalloc.start()
    try:
        model = parse_model(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model.variable("X").payload.values) == 10_000
    assert len(text) == 227_924
    assert peak / len(text) < 50


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(5e-324)
@example(-1.7976931348623157e308)
@example(2.0 ** 53)
@example(-0.0)
def test_format_number_total_round_trip(value):
    assert float(format_number(value)) == value
    assert math.isfinite(float(format_number(value)))
    model = parse_model(f"data X = {format_number(value)}\n")
    assert model.variable("X").payload.scalar == value
    sign = math.copysign(1.0, value)
    assert math.copysign(1.0, float(format_number(value))) == sign
    assert math.copysign(1.0, model.variable("X").payload.scalar) == sign


def _two_branch_number(value: float) -> str:
    """format_number's earlier body, the oracle for its one rule."""
    if value.is_integer() and abs(value) < 1e16:
        # int() drops the sign of -0.0, and repr keeps it
        return str(int(value)) if value else repr(value)[:-2]
    return repr(value)


@given(st.floats())
@example(0.0)
@example(-0.0)
@example(1e16)
@example(-1e16)
@example(9999999999999998.0)
@example(2.0 ** 53)
@example(5e-324)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
def test_format_number_matches_two_branch_rule(value):
    assert format_number(value) == _two_branch_number(value)


# names and labels that need quoting and escapes in the printed source
idents = st.text(alphabet='ab1_ "\\', min_size=1, max_size=4)


# a value of the wrong type for a place a library caller fills, from the
# right one; Dimension, DimensionSet or Model refuses each with ModelError
LIBRARY_FLAWS = {
    "dimension name": lambda name: 7,
    "labels": list,
    "label": lambda labels: (1, *labels[1:]),
    "set names": list,
    "set name": lambda names: (*names, 5),
    "variable name": lambda name: 5,
    "unhashable name": lambda name: [name],
    "kind": lambda kind: kind.value,
    "dims": lambda dims: dims.names,
    "span": lambda span: "here",
    "node span": lambda span: "here",
    "reference": lambda name: [name],
    "dimensions": list,
    "dimension": lambda dimensions: (*dimensions, "D"),
    "variables": list,
    "variable": lambda variables: (*variables, "X"),
}


# a kind and payload that no declaration writes; a variable given the table
# is dimensionless, where a calc's one value reads back as a formula
UNWRITABLE_PAIRS = {
    "data, no payload": (VariableKind.DATA, None),
    "calc, no payload": (VariableKind.CALCULATED, None),
    "calc, one-value table": (VariableKind.CALCULATED, ValueTable((2,))),
    "data, literal": (VariableKind.DATA, Literal(2)),
    "input, literal": (VariableKind.INPUT, Literal(2)),
}


def _library_model(dims, tables, term, *, negate=None, pair=None, flaw=None):
    """Build the Model `library_models` drew. `dims` are (name, labels)
    pairs and `tables` (name, kind, dimension names, values or None); with
    two or more, the last becomes a formula adding `term` to the first,
    with the first or the term negated as `negate` says ("reference" or
    "term"). A `pair` names the first table's kind and payload in
    UNWRITABLE_PAIRS. A `flaw` spoils every value in a place it names."""
    def spoil(value, *places):
        return LIBRARY_FLAWS[flaw](value) if flaw in places else value

    dimensions = tuple(Dimension(spoil(name, "dimension name"),
                                 spoil(labels, "labels", "label"))
                       for name, labels in dims)
    variables = []
    for name, kind, names, values in tables:
        payload = None if values is None else ValueTable(values)
        if pair and not variables:
            kind, payload = UNWRITABLE_PAIRS[pair]
            names = () if isinstance(payload, ValueTable) else names
        dim_set = DimensionSet(spoil(names, "set names", "set name"))
        variables.append(Variable(
            spoil(name, "variable name", "unhashable name"), spoil(kind, "kind"),
            spoil(dim_set, "dims"), payload, span=spoil(None, "span")))
    if len(variables) > 1:
        first, last = variables[0], variables[-1]
        ref = Ref(spoil(first.name, "reference"), spoil(None, "node span"))
        formula = Binary("+", Unary(ref) if negate == "reference" else ref,
                         Unary(Literal(term)) if negate == "term"
                         else Literal(term))
        variables[-1] = Variable(last.name, VariableKind.CALCULATED,
                                 first.dims, formula, span=last.span)
    return Model(spoil(dimensions, "dimensions", "dimension"),
                 spoil(tuple(variables), "variables", "variable"))


@st.composite
def library_models(draw):
    """A function that builds a Model without the parser: data and input
    tables of ints and floats over random dimensions, and a formula adding
    an int literal to the first table, either maybe negated; half the time
    with one of UNWRITABLE_PAIRS, and half the time with one of
    LIBRARY_FLAWS."""
    names = draw(st.lists(idents, min_size=1, max_size=7, unique=True))
    ndims = draw(st.integers(0, min(3, len(names) - 1)))
    dims = [(name, tuple(draw(st.lists(idents, min_size=1, max_size=3,
                                       unique=True))))
            for name in names[:ndims]]
    number = st.one_of(st.integers(-10 ** 18, 10 ** 18),
                       st.floats(allow_nan=False, allow_infinity=False))
    tables = []
    for name in names[ndims:]:
        picked = draw(st.lists(st.booleans(), min_size=ndims, max_size=ndims))
        kept = [d for d, keep in zip(dims, picked) if keep]
        size = math.prod(len(labels) for _, labels in kept)
        kind = draw(st.sampled_from([VariableKind.DATA, VariableKind.INPUT]))
        values = tuple(draw(st.lists(number, min_size=size, max_size=size)))
        if kind is VariableKind.INPUT and draw(st.booleans()):
            values = None  # an input supplied at evaluation time
        tables.append((name, kind, tuple(n for n, _ in kept), values))
    term = draw(st.integers(-10 ** 18, 10 ** 18))
    negate = draw(st.sampled_from([None, "reference", "term"]))
    pair = draw(st.one_of(st.none(), st.sampled_from(list(UNWRITABLE_PAIRS))))
    flaw = draw(st.one_of(st.none(), st.sampled_from(list(LIBRARY_FLAWS))))
    return partial(_library_model, dims, tables, term, negate=negate, pair=pair,
                   flaw=flaw)


def _writable(build):
    """Whether `library_models` drew `build` with no flaw and nothing that
    .dml cannot write; an @example's builder is not a partial."""
    drawn = getattr(build, "keywords", None)
    return drawn is not None and drawn["negate"] != "term" and (
        drawn["pair"], drawn["flaw"]) == (None, None)


def _data(name, dims, values):
    return Variable(name, VariableKind.DATA, dims, ValueTable(values))


@given(library_models())
@example(lambda: Model((Dimension("D", ("q", "p")),), (
    _data("X", DimensionSet(("D",)), (2, -0.5)), _data("Y", EMPTY_DIMS, (7,)),
    Variable("Z", VariableKind.CALCULATED, DimensionSet(("D",)),
             Binary("*", Ref("X"), Literal(2))))))
# shapes Model once accepted: each built, then a later stage raised
# TypeError or AttributeError, or (the list) printed back unequal
@example(lambda: Model([Dimension("D", ("a",))], ()))
@example(lambda: Model(("D",), ()))
@example(lambda: Model((), ("X",)))
@example(lambda: Model((), (_data(["X"], EMPTY_DIMS, (1,)),)))
@example(lambda: Model((Dimension("D", ("a",)),),
                       (_data("X", ("D",), (1,)),)))
@example(lambda: Model((), (Variable("Y", VariableKind.DATA, EMPTY_DIMS, None,
                                     span="here"),)))
@example(lambda: Model((), (_data("X", EMPTY_DIMS, (1,)), Variable(
    "Y", VariableKind.CALCULATED, EMPTY_DIMS, Ref(["X"])))))
@example(lambda: Model((Dimension("D", ("a", "b")),), (
    _data("X", DimensionSet(("D",)), (1, 2)), Variable(
        "Y", VariableKind.CALCULATED, EMPTY_DIMS,
        Binary("+", Ref("X", "here"), Literal(1))))))
def test_library_model_prints_diagrams_and_evaluates(build):
    # every stage succeeds or raises one of the engine's own errors
    try:
        model = build()
    except ModelError:
        return
    try:
        evaluate(check_model(model))
    except (CheckFailure, EvalError):
        pass
    try:
        text = pretty_print(model)
    except ModelError:
        assert not _writable(build)
    else:
        assert parse_model(text) == model
    emit_dot(model, include_data_values=True)
    hash(model)


@given(st.one_of(layered_models().map(lambda text: partial(parse_model, text)),
                 library_models()))
def test_variable_nodes_and_uses_are_one_walk(build):
    """`nodes` and `uses` are the formula's own walk, rebuilt on pickle and
    copy, and take no part in ==, hash or repr."""
    try:
        model = build()
    except ModelError:
        return
    for variable in model.variables:
        for v in (variable, pickle.loads(pickle.dumps(variable)),
                  copy.deepcopy(variable)):
            assert v == variable
            nodes, uses = ((iter_nodes(v.payload), iter_dependencies(v.payload))
                           if isinstance(v.payload, Expr) else ((), ()))
            assert type(v.nodes) is type(v.uses) is tuple
            assert list(map(id, v.nodes)) == list(map(id, nodes))
            assert [(name, id(node)) for name, node in v.uses] == [
                (name, id(node)) for name, node in uses]
        bare = copy.copy(variable)
        Variable.nodes.__set__(bare, ())
        Variable.uses.__set__(bare, ())
        assert bare == variable and hash(bare) == hash(variable)
        assert repr(bare) == repr(variable)
        assert "nodes" not in repr(variable) and "uses" not in repr(variable)


class TestNumberRange:
    @pytest.mark.parametrize("source,number,span", [
        ("data X = 1e400\n", "1e400", (1, 10, 1, 15)),
        ("input A = 1\ncalc X = A * -1e400\n", "1e400", (2, 15, 2, 20)),
        ("dimension D = [p]\ndata X over (D) = [1e999]\n", "1e999",
         (2, 20, 2, 25)),
    ])
    def test_non_finite_literal_is_rejected(self, source, number, span):
        err = parse_fail(source)
        assert [d.as_json() for d in err.diagnostics] == [
            _error("P-NUMBER", f"number {number} is out of range", *span)]

    @pytest.mark.parametrize("text,value", [
        ("1e308", 1e308), ("5e-324", 5e-324),
        ("1.7976931348623157e308", 1.7976931348623157e308)])
    def test_extreme_finite_literals_round_trip(self, text, value):
        model = parse_model(f"data X = {text}\ninput A = 1\n"
                            f"calc Y = A * -{text}\n")
        assert model.variable("X").payload.scalar == value
        assert model.variable("Y").payload.right == Literal(-value)
        printed = pretty_print(model)
        again = parse_model(printed)
        assert again == model
        assert pretty_print(again) == printed


# (formula, its pretty-printed form); each is deeper than the interpreter's
# recursion limit allows a recursive walker to go
DEEP_FORMULAS = {
    "parentheses": ("(" * 400 + "X + 1" + ")" * 400, "X + 1"),
    "sum": (" + ".join(["X"] * 1200), " + ".join(["X"] * 1200)),
    "negations": ("- " * 1200 + "X", "-" * 1200 + "X"),
}


@pytest.mark.parametrize("formula,printed", DEEP_FORMULAS.values(),
                         ids=DEEP_FORMULAS.keys())
def test_deep_formula_parses_checks_and_prints(formula, printed, tmp_path,
                                               capsys):
    source = f"input X = 2\noutput Y = {formula}\n"
    model = parse_model(source)
    check_model(model)
    text = pretty_print(model)
    assert text == f"input X = 2\noutput Y = {printed}\n"
    assert parse_model(text) == model
    assert pretty_print(parse_model(text)) == text
    path = tmp_path / "deep.dml"
    path.write_text(source)
    for argv in (["check", str(path)], ["diagram", str(path)],
                 ["explain", str(path), "Y"]):
        assert main(argv) == 0
    assert capsys.readouterr().out.endswith("; uses: X\n")
