import math

import pytest
from hypothesis import example, given, settings, strategies as st

from dimcalc.checker import CheckFailure, check_model
from dimcalc.cli import main
from dimcalc.model import (Aggregate, Binary, Literal, Ref, Unary, ValueTable,
                           VariableKind)
from dimcalc.parser import (ParseFailure, format_expr, format_ident,
                            format_number, parse_model, pretty_print)


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

    def test_data_requires_value(self):
        err = parse_fail("data Fixed_Cost\n")
        assert codes_of(err) == ["P-SYNTAX"]

    def test_keyed_table(self):
        model = parse_one(
            "dimension Sector = [Government, Military, Private, Education]\n"
            "data Rebate over (Sector) = {Government: 0.40, Military: 0.20,"
            " Private: 0.10, Education: 0.70}\n")
        table = model.variable("Rebate").payload
        assert table.as_dict()[("Education",)] == 0.70
        assert [k for k, _ in table.entries] == [
            ("Government",), ("Military",), ("Private",), ("Education",)]

    def test_keyed_table_any_entry_order(self):
        model = parse_one(
            "dimension S = [A, B]\n"
            "data X over (S) = {B: 2, A: 1}\n")
        assert [v for _, v in model.variable("X").payload.entries] == [1.0, 2.0]

    def test_positional_list_one_dim_only(self):
        model = parse_one(
            "dimension Product = [Standard, Deluxe]\n"
            "data M over (Product) = [1, 1.45]\n")
        assert model.variable("M").payload.as_dict()[("Deluxe",)] == 1.45
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
        assert model.variable("X").payload.as_dict()[("B",)] == 2.0

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
]


@pytest.mark.parametrize("source,expected", DIAGNOSTIC_TABLE)
def test_diagnostics_are_span_exact(source, expected):
    with pytest.raises((ParseFailure, CheckFailure)) as info:
        check_model(parse_model(source))
    assert [d.as_json() for d in info.value.diagnostics] == expected


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
        assert self.expr("-a ^ 2") == Unary("-", Binary("^", Ref("a"),
                                                        Literal(2.0)))
        assert self.expr("a ^ b ^ c") == Binary(
            "^", Binary("^", Ref("a"), Ref("b")), Ref("c"))

    def test_unary_minus_in_exponent(self):
        assert self.expr("a ^ -b") == Binary("^", Ref("a"),
                                             Unary("-", Ref("b")))
        assert format_expr(self.expr("a ^ -b")) == "a ^ -b"

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
            "/", Aggregate("SUM", "a"), Literal(2.0))

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

    def test_pretty_print_round_trip_fixture(self):
        src = open("fixtures/acme.dml").read()
        model = parse_model(src)
        printed = pretty_print(model)
        again = parse_model(printed)
        assert again == model
        assert pretty_print(again) == printed


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
        return Unary("-", draw(expressions(depth=depth - 1)))
    if kind == 2:
        return Aggregate("SUM", draw(names))
    op = draw(st.sampled_from(["+", "-", "*", "/", "^"]))
    return Binary(op, draw(expressions(depth=depth - 1)),
                  draw(expressions(depth=depth - 1)))


@given(expressions())
@settings(max_examples=200)
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
            return Unary(e.op, inner)
        if isinstance(e, Binary):
            return Binary(e.op, fold(e.left), fold(e.right))
        return e
    assert parsed == fold(expr)


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
@settings(max_examples=300)
def test_parser_is_total(text):
    try:
        parse_model(text)
    except ParseFailure as err:
        assert err.diagnostics
        for diag in err.diagnostics:
            assert diag.code.startswith("P-")
            assert diag.render()


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


@given(st.floats())
@example(-0.0)
@example(1e16)
@example(9999999999999998.0)
def test_format_number_integral_test_matches_isfinite_form(value):
    old = math.isfinite(value) and value == int(value) and abs(value) < 1e16
    new = value.is_integer() and abs(value) < 1e16
    assert new == old


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
    # compare text, not Expr objects: dataclass __eq__ recurses
    source = f"input X = 2\noutput Y = {formula}\n"
    model = parse_model(source)
    check_model(model)
    text = pretty_print(model)
    assert text == f"input X = 2\noutput Y = {printed}\n"
    assert pretty_print(parse_model(text)) == text
    path = tmp_path / "deep.dml"
    path.write_text(source)
    for argv in (["check", str(path)], ["diagram", str(path)],
                 ["explain", str(path), "Y"]):
        assert main(argv) == 0
    assert capsys.readouterr().out.endswith("; uses: X\n")
