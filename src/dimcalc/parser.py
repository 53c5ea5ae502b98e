"""Formula List DSL: tokenizer, parser, and pretty printer.

The DSL is line-oriented: one declaration per line, `#` starts a comment
that runs to end of line. Newlines inside (), [], {} groups do not end the
statement, so large value tables can be written one entry per line. The
full grammar is documented in README.md.

Parsing is total: any input text yields either a Model or a list of
ParseDiagnostic values carried by ParseFailure, never an exception from
the guts of the parser.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, replace
from typing import NamedTuple

from .model import (
    Aggregate,
    Binary,
    Dimension,
    DimensionSet,
    Expr,
    Literal,
    Model,
    Ref,
    SourceSpan,
    Unary,
    ValueTable,
    Variable,
    VariableKind,
    _from_pairs,
    iter_dependencies,
    iter_nodes,
)

KEYWORDS = frozenset({"dimension", "input", "data", "calc", "output", "over", "SUM"})

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# One alternative per token class. Every offset of any text starts a match
# of exactly one alternative, so successive matches tile the text. Blanks
# and comments have no group; each other alternative is one outer group,
# which is what `lastgroup` names.
_TOKEN_RE = re.compile("|".join([
    r"(?P<newline>\n)",
    r"[ \t\r]+|#[^\n]*",
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)",
    # a number glued to '%' or to more word characters is one bad literal
    rf"(?P<number>(?P<digits>{_NUMBER})(?:(?P<percent>%)|[\w.]+)?)",
    r"(?P<punct>[=,:()\[\]{}+\-*/^])",
    r'(?P<qname>"(?P<body>(?:[^"\\\n]|\\[^\n]?)*)(?P<closed>")?)',
    # a run of characters that start no token; '.' starts one before a digit
    r'(?P<bad>(?:[^ \t\r\n#"=,:()\[\]{}+\-*/^A-Za-z_0-9.]|\.(?![0-9]))+)',
]))
_ESCAPE_RE = re.compile(r"\\(.?)")


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" or "warning"
    code: str  # P-SYNTAX, P-TOKEN, P-NUMBER, P-DUPLICATE, P-UNDECLARED, P-TABLE
    message: str
    span: SourceSpan

    def render(self) -> str:
        return f"{self.span}: {self.severity}[{self.code}]: {self.message}"

    def as_json(self) -> dict:
        return {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
            "span": self.span.as_json(),
        }


class ParseFailure(Exception):
    """Raised by parse_model when the source contains errors."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(d.render() for d in self.diagnostics))


class _Token(NamedTuple):
    kind: str  # name, qname, number, punct, newline, eof
    text: str
    value: object
    line: int
    col: int
    end_line: int
    end_col: int


def _span(file: str, tok: _Token, end: _Token | None = None) -> SourceSpan:
    last = end or tok
    return SourceSpan(file, tok.line, tok.col, last.end_line, last.end_col)


def _tokenize(text: str, file: str, diags: list[ParseDiagnostic]) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0  # line_start: offset where the current line begins
    depth = 0  # bracket depth; newlines inside groups are plain whitespace

    def err(code, msg, col, end_col):
        diags.append(ParseDiagnostic(
            "error", code, msg, SourceSpan(file, line, col, line, end_col)))

    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        start, end = m.span()
        col = start - line_start + 1
        if kind == "newline":
            if depth == 0:
                tokens.append(_Token("newline", "\n", None, line, col, line + 1, 1))
            line += 1
            line_start = end
            continue
        end_col = end - line_start + 1
        word = m.group()
        if kind == "name":
            tokens.append(_Token("name", word, word, line, col, line, end_col))
        elif kind == "punct":
            if word in "([{":
                depth += 1
            elif word in ")]}" and depth:
                depth -= 1
            tokens.append(_Token("punct", word, word, line, col, line, end_col))
        elif kind == "number":
            digits = m.group("digits")
            value = float(digits)
            if m.group("percent"):
                err("P-NUMBER", f"percent literals are not supported; write the "
                    f"fraction instead ({digits}% is {value / 100})", col, end_col)
            elif len(digits) < len(word):
                err("P-NUMBER", f"malformed number {word!r}", col, end_col)
                continue
            elif not math.isfinite(value):
                err("P-NUMBER", f"number {digits} is out of range", col, end_col)
            tokens.append(_Token("number", digits, value, line, col, line, end_col))
        elif kind == "qname":
            body = m.group("body")
            for esc in _ESCAPE_RE.finditer(body):
                if esc.group(1) not in ('"', "\\"):
                    err("P-TOKEN", "unsupported escape in quoted identifier "
                        "(only \\\" and \\\\ are recognized)",
                        col, col + 1 + esc.start())
            name = _ESCAPE_RE.sub(r"\1", body)
            if not m.group("closed"):
                err("P-TOKEN", "unterminated quoted identifier", col, end_col)
            elif not name:
                err("P-TOKEN", "empty quoted identifier", col, end_col)
            tokens.append(_Token("qname", name, name, line, col, line, end_col))
        else:
            err("P-TOKEN", f"unexpected character{'s' if len(word) > 1 else ''} "
                f"{word!r}", col, end_col)
    col = len(text) - line_start + 1
    tokens.append(_Token("eof", "", None, line, col, line, col))
    return tokens


class _StatementError(Exception):
    def __init__(self, diag: ParseDiagnostic):
        self.diag = diag


@dataclass
class _DimStmt:
    name: _Token
    labels: list[_Token]


@dataclass
class _VarStmt:
    kind: VariableKind
    name: _Token
    over: list[_Token] | None
    rhs_kind: str  # "expr", "table", "list", "none"
    rhs: object
    span: SourceSpan


class _Parser:
    def __init__(self, tokens: list[_Token], file: str, diags: list[ParseDiagnostic]):
        self.tokens = tokens
        self.file = file
        self.diags = diags
        self.pos = 0
        # names of variables whose declarations failed after the name was
        # read; kept so references to them do not cascade into P-UNDECLARED
        self.failed_names: set[str] = set()

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _at_punct(self, *chars: str) -> bool:
        tok = self._peek()
        return tok.kind == "punct" and tok.text in chars

    def _fail(self, code: str, message: str, tok: _Token):
        raise _StatementError(ParseDiagnostic(
            "error", code, message, _span(self.file, tok)))

    def _expect_punct(self, char: str) -> _Token:
        tok = self._peek()
        if tok.kind == "punct" and tok.text == char:
            return self._next()
        self._fail("P-SYNTAX", f"expected {char!r}, got {_describe(tok)}", tok)

    def _expect_name(self, what: str) -> _Token:
        tok = self._peek()
        if tok.kind == "qname":
            return self._next()
        if tok.kind == "name":
            if tok.text in KEYWORDS:
                self._fail("P-SYNTAX",
                           f"{tok.text!r} is a reserved keyword and cannot be "
                           f"used as {what}", tok)
            return self._next()
        self._fail("P-SYNTAX", f"expected {what}, got {_describe(tok)}", tok)

    def _skip_line(self):
        while self._peek().kind not in ("newline", "eof"):
            self._next()

    def _end_statement(self):
        tok = self._peek()
        if tok.kind in ("newline", "eof"):
            return
        self._fail("P-SYNTAX", f"unexpected {_describe(tok)} after declaration", tok)

    def parse_statements(self) -> list:
        stmts = []
        while True:
            while self._peek().kind == "newline":
                self._next()
            if self._peek().kind == "eof":
                return stmts
            try:
                stmts.append(self._parse_statement())
            except _StatementError as e:
                self.diags.append(e.diag)
                self._skip_line()

    def _parse_statement(self):
        tok = self._peek()
        if tok.kind == "name" and tok.text == "dimension":
            return self._parse_dimension()
        if tok.kind == "name" and tok.text in ("input", "data", "calc", "output"):
            return self._parse_variable(VariableKind(tok.text))
        self._fail("P-SYNTAX",
                   "expected a declaration (dimension, input, data, calc, "
                   f"output), got {_describe(tok)}", tok)

    def _parse_dimension(self) -> _DimStmt:
        self._next()
        name = self._expect_name("a dimension name")
        self._expect_punct("=")
        self._expect_punct("[")
        labels = [self._expect_name("an instance label")]
        while self._at_punct(","):
            self._next()
            if self._at_punct("]"):
                break
            labels.append(self._expect_name("an instance label"))
        self._expect_punct("]")
        self._end_statement()
        return _DimStmt(name, labels)

    def _parse_variable(self, kind: VariableKind) -> _VarStmt:
        first = self._next()
        name = self._expect_name("a variable name")
        try:
            over = None
            if self._peek().kind == "name" and self._peek().text == "over":
                self._next()
                self._expect_punct("(")
                over = [self._expect_name("a dimension name")]
                while self._at_punct(","):
                    self._next()
                    over.append(self._expect_name("a dimension name"))
                self._expect_punct(")")
            if not self._at_punct("="):
                if kind is VariableKind.INPUT:
                    self._end_statement()
                    return _VarStmt(kind, name, over, "none", None,
                                    _span(self.file, first, name))
                self._fail("P-SYNTAX",
                           f"{kind.value} {name.text} needs '=' and a "
                           f"{'formula' if kind.carries_formula else 'value'}",
                           self._peek())
            self._next()  # consume '='
            if self._at_punct("{"):
                rhs_kind, rhs = "table", self._parse_keyed_table()
            elif self._at_punct("["):
                rhs_kind, rhs = "list", self._parse_positional_list()
            else:
                rhs_kind, rhs = "expr", self._parse_expr()
            last = self.tokens[self.pos - 1]
            self._end_statement()
            return _VarStmt(kind, name, over, rhs_kind, rhs,
                            _span(self.file, first, last))
        except _StatementError:
            self.failed_names.add(name.text)
            raise

    def _parse_signed_number(self) -> float:
        negate = False
        while self._at_punct("-"):
            self._next()
            negate = not negate
        tok = self._peek()
        if tok.kind != "number":
            self._fail("P-SYNTAX", f"expected a number, got {_describe(tok)}", tok)
        self._next()
        return -tok.value if negate else tok.value

    def _parse_keyed_table(self):
        self._expect_punct("{")
        if self._at_punct("}"):
            tok = self._next()
            self._fail("P-TABLE", "value table has no entries", tok)
        entries = []
        while True:
            key = [self._expect_name("an instance label")]
            while self._at_punct(","):
                self._next()
                key.append(self._expect_name("an instance label"))
            self._expect_punct(":")
            entries.append((key, self._parse_signed_number()))
            if self._at_punct(","):
                self._next()
                if not self._at_punct("}"):
                    continue
            self._expect_punct("}")
            return entries

    def _parse_positional_list(self):
        self._expect_punct("[")
        values = [self._parse_signed_number()]
        while self._at_punct(","):
            self._next()
            if self._at_punct("]"):
                break
            values.append(self._parse_signed_number())
        self._expect_punct("]")
        return values

    def _parse_expr(self) -> Expr:
        """One formula, by operator precedence over explicit stacks.

        Loosest to tightest: `+ -`, `* /`, prefix `-`, `^` (left-associative),
        and a `-` right after `^`, which negates the exponent's atom alone:
        `-a ^ b` is -(a ^ b) and `a ^ -b ^ c` is (a ^ (-b)) ^ c. Operands are
        numbers, names, `SUM(name)` and parenthesized formulas.
        """
        tokens = self.tokens
        operands: list[Expr] = []
        # (precedence, operator, token); "neg" is a prefix minus and "(" an
        # open group, which no operator reduces past
        ops: list[tuple[int, str, _Token]] = []
        open_groups = 0
        neg_prec = _NEG_PREC
        while True:
            # operand position: prefix minuses and open groups, then an atom
            tok = tokens[self.pos]
            while tok.kind == "punct" and tok.text in ("-", "("):
                if tok.text == "-":
                    ops.append((neg_prec, "neg", tok))
                else:
                    ops.append((0, "(", tok))
                    open_groups += 1
                    neg_prec = _NEG_PREC
                self.pos += 1
                tok = tokens[self.pos]
            operands.append(self._parse_atom(tok))
            # operator position: close groups, then a binary operator or the end
            while True:
                tok = tokens[self.pos]
                if tok.kind == "punct" and tok.text in _BINARY_PREC:
                    break
                if not open_groups:
                    self._reduce(operands, ops, 1)
                    return operands[0]
                close = self._expect_punct(")")
                self._reduce(operands, ops, 1)
                _, _, opening = ops.pop()
                open_groups -= 1
                # a diagnostic on a grouped reference covers the parentheses
                if isinstance(operands[-1], (Ref, Aggregate)):
                    operands[-1] = replace(
                        operands[-1], span=_span(self.file, opening, close))
            prec = _BINARY_PREC[tok.text]
            self._reduce(operands, ops, prec)
            ops.append((prec, tok.text, tok))
            neg_prec = _EXPONENT_NEG_PREC if tok.text == "^" else _NEG_PREC
            self.pos += 1

    def _reduce(self, operands: list[Expr], ops: list, prec: int) -> None:
        """Apply the stacked operators that bind at least as tightly as prec."""
        while ops and ops[-1][0] >= prec:
            op = ops.pop()[1]
            right = operands.pop()
            if op == "neg":
                operands.append(_negate(right))
            else:
                left = operands.pop()
                operands.append(Binary(op, left, right))

    def _parse_atom(self, tok: _Token) -> Expr:
        if tok.kind == "number":
            self.pos += 1
            return Literal(tok.value)
        if tok.kind == "name" and tok.text == "SUM":
            self.pos += 1
            self._expect_punct("(")
            arg = self._peek()
            if arg.kind == "name" and arg.text == "SUM":
                self._fail("P-SYNTAX", "SUM cannot be nested; aggregate the "
                           "inner variable in its own declaration", arg)
            source = self._expect_name("a variable name inside SUM(...)")
            if not self._at_punct(")"):
                self._fail("P-SYNTAX", "SUM takes a single variable name",
                           self._peek())
            last = self._next()
            return Aggregate("SUM", source.text, span=_span(self.file, tok, last))
        if tok.kind in ("name", "qname"):
            name = self._expect_name("a variable name")
            return Ref(name.text, span=_span(self.file, name))
        self._fail("P-SYNTAX",
                   f"expected a number, variable, or '(', got {_describe(tok)}", tok)


_BINARY_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3  # prefix minus: tighter than * and /, looser than ^
_EXPONENT_NEG_PREC = 5  # a minus right after ^ takes only the next atom


def _describe(tok: _Token) -> str:
    if tok.kind == "eof":
        return "end of file"
    if tok.kind == "newline":
        return "end of line"
    return repr(tok.text)


def _negate(operand: Expr) -> Expr:
    # fold '-' on a literal so that -5 round-trips as the literal -5
    if isinstance(operand, Literal):
        return Literal(-operand.value)
    return Unary("-", operand)


def parse_model(text: str, file: str = "<input>") -> Model:
    """Parse DSL source into a Model.

    Raises ParseFailure carrying every diagnostic found; the parser
    recovers at statement boundaries so one bad line does not hide errors
    in the rest of the file.
    """
    diags: list[ParseDiagnostic] = []
    tokens = _tokenize(text, file, diags)
    parser = _Parser(tokens, file, diags)
    stmts = parser.parse_statements()

    dimensions: list[Dimension] = []
    dim_index: dict[str, int] = {}
    for stmt in stmts:
        if not isinstance(stmt, _DimStmt):
            continue
        name = stmt.name.text
        if name in dim_index:
            diags.append(ParseDiagnostic(
                "error", "P-DUPLICATE", f"dimension {name} is already declared",
                _span(file, stmt.name)))
            continue
        labels = []
        seen = set()
        for tok in stmt.labels:
            if tok.text in seen:
                diags.append(ParseDiagnostic(
                    "error", "P-DUPLICATE",
                    f"dimension {name} repeats instance label {tok.text}",
                    _span(file, tok)))
                continue
            seen.add(tok.text)
            labels.append(tok.text)
        dim_index[name] = len(dimensions)
        dimensions.append(Dimension(name, tuple(labels)))

    var_stmts: list[_VarStmt] = []
    var_names: set[str] = set()
    for stmt in stmts:
        if not isinstance(stmt, _VarStmt):
            continue
        name = stmt.name.text
        if name in var_names:
            diags.append(ParseDiagnostic(
                "error", "P-DUPLICATE", f"variable {name} is already declared",
                _span(file, stmt.name)))
            continue
        if name in dim_index:
            diags.append(ParseDiagnostic(
                "error", "P-DUPLICATE",
                f"{name} is already declared as a dimension", _span(file, stmt.name)))
            continue
        var_names.add(name)
        var_stmts.append(stmt)
    known_names = var_names | parser.failed_names

    variables = []
    for stmt in var_stmts:
        dims = _resolve_dims(stmt, dimensions, dim_index, file, diags)
        payload = _resolve_payload(stmt, dims, dimensions, known_names, file, diags)
        variables.append(Variable(stmt.name.text, stmt.kind, dims, payload,
                                  span=stmt.span))

    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise ParseFailure(sorted(
            diags, key=lambda d: (d.span.start_line, d.span.start_col, d.code)))
    return Model(tuple(dimensions), tuple(variables))


def _resolve_dims(stmt: _VarStmt, dimensions, dim_index, file, diags) -> DimensionSet:
    if stmt.over is None:
        return DimensionSet((), ())
    pairs = set()
    names_seen = set()
    for tok in stmt.over:
        if tok.text not in dim_index:
            diags.append(ParseDiagnostic(
                "error", "P-UNDECLARED", f"no dimension named {tok.text}",
                _span(file, tok)))
            continue
        if tok.text in names_seen:
            diags.append(ParseDiagnostic(
                "error", "P-DUPLICATE",
                f"dimension {tok.text} appears twice in the over clause",
                _span(file, tok)))
            continue
        names_seen.add(tok.text)
        pairs.add((dim_index[tok.text], tok.text))
    return _from_pairs(pairs)


def _resolve_payload(stmt: _VarStmt, dims: DimensionSet, dimensions, known_names,
                     file, diags):
    if stmt.rhs_kind == "none":
        return None
    if stmt.rhs_kind == "expr":
        expr = stmt.rhs
        # a bare number is a scalar value, not a formula
        if isinstance(expr, Literal) and not stmt.kind.carries_formula:
            if len(dims) > 0:
                diags.append(ParseDiagnostic(
                    "error", "P-TABLE",
                    f"{stmt.name.text} is over {dims}; a single number is only "
                    f"valid for a dimensionless variable", stmt.span))
                return None
            return ValueTable((((), expr.value),))
        for node_name, node in iter_dependencies(expr):
            if node_name not in known_names:
                dim_names = {d.name for d in dimensions}
                extra = (" (it is a dimension, not a variable)"
                         if node_name in dim_names else "")
                diags.append(ParseDiagnostic(
                    "error", "P-UNDECLARED",
                    f"no variable named {node_name}{extra}", node.span))
        return expr
    by_name = {d.name: d for d in dimensions}
    axes = [by_name[n] for n in dims if n in by_name]
    if stmt.rhs_kind == "list":
        values = stmt.rhs
        if len(axes) != 1:
            diags.append(ParseDiagnostic(
                "error", "P-TABLE",
                f"a positional list needs exactly one dimension; "
                f"{stmt.name.text} is over {dims}", stmt.span))
            return None
        axis = axes[0]
        if len(values) != len(axis.instances):
            diags.append(ParseDiagnostic(
                "error", "P-TABLE",
                f"{stmt.name.text} needs {len(axis.instances)} values for "
                f"{axis.name}, got {len(values)}", stmt.span))
            return None
        return ValueTable(tuple(
            ((label,), value)
            for label, value in zip(axis.instances, values)))
    # keyed table
    if len(axes) != len(dims):
        return None  # over clause already failed; skip follow-on noise
    if not axes:
        diags.append(ParseDiagnostic(
            "error", "P-TABLE",
            f"{stmt.name.text} is dimensionless; write a single number, "
            f"not a table", stmt.span))
        return None
    table: dict[tuple[str, ...], float] = {}
    ok = True
    for key_toks, value in stmt.rhs:
        if len(key_toks) != len(axes):
            diags.append(ParseDiagnostic(
                "error", "P-TABLE",
                f"table key {','.join(t.text for t in key_toks)} has "
                f"{len(key_toks)} labels; {stmt.name.text} is over {dims}",
                _span(file, key_toks[0], key_toks[-1])))
            ok = False
            continue
        key = []
        for tok, axis in zip(key_toks, axes):
            if tok.text not in axis.instances:
                diags.append(ParseDiagnostic(
                    "error", "P-TABLE",
                    f"{tok.text} is not an instance of {axis.name} (table keys "
                    f"follow the dimension order {dims})", _span(file, tok)))
                ok = False
                break
            key.append(tok.text)
        else:
            key = tuple(key)
            if key in table:
                diags.append(ParseDiagnostic(
                    "error", "P-DUPLICATE",
                    f"table entry {','.join(key)} is already defined",
                    _span(file, key_toks[0], key_toks[-1])))
                ok = False
            else:
                table[key] = value
    if not ok:
        return None
    want = list(itertools.product(*(axis.instances for axis in axes)))
    missing = [k for k in want if k not in table]
    if missing:
        diags.append(ParseDiagnostic(
            "error", "P-TABLE",
            f"value table for {stmt.name.text} has {len(table)} of "
            f"{len(want)} entries (first missing: {','.join(missing[0])})",
            stmt.span))
        return None
    return ValueTable(tuple((k, table[k]) for k in want))


def format_number(value: float) -> str:
    """Shortest lossless rendering; integral floats print without a point."""
    if value.is_integer() and abs(value) < 1e16:
        # int() drops the sign of -0.0, and repr keeps it
        return str(int(value)) if value else repr(value)[:-2]
    return repr(value)


def format_ident(name: str) -> str:
    if _IDENT_RE.fullmatch(name) and name not in KEYWORDS:
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


_ATOM_PREC = 5


def format_expr(expr: Expr) -> str:
    """Render a formula with the fewest parentheses that re-parse identically."""
    # In post-order the renderings of a node's operands wait on `done` as
    # (text, precedence, exponent) with `exponent` the text to write after
    # '^', None when that takes parentheses.
    done: list[tuple[str, int, str | None]] = []
    for node in iter_nodes(expr):
        if isinstance(node, Literal):
            text = format_number(node.value)
            # -5 and -0 read like a negation, which an exponent may start with
            negative = math.copysign(1.0, node.value) < 0
            done.append((text, _NEG_PREC if negative else _ATOM_PREC, text))
        elif isinstance(node, Ref):
            text = format_ident(node.name)
            done.append((text, _ATOM_PREC, text))
        elif isinstance(node, Aggregate):
            text = f"SUM({format_ident(node.source)})"
            done.append((text, _ATOM_PREC, text))
        elif isinstance(node, Unary):
            operand = done.pop()
            done.append(("-" + _wrap(operand, _NEG_PREC), _NEG_PREC,
                         "-" + _as_exponent(operand)))
        elif isinstance(node, Binary):
            right, left = done.pop(), done.pop()
            prec = _BINARY_PREC[node.op]
            right_text = (_as_exponent(right) if node.op == "^"
                          else _wrap(right, prec + 1))
            done.append((f"{_wrap(left, prec)} {node.op} {right_text}", prec, None))
        else:
            raise TypeError(f"not an expression: {node!r}")
    return done[0][0]


def _wrap(rendered: tuple, min_prec: int) -> str:
    text, prec, _ = rendered
    return f"({text})" if prec < min_prec else text


def _as_exponent(rendered: tuple) -> str:
    text, _, exponent = rendered
    return f"({text})" if exponent is None else exponent


def format_payload(variable: Variable) -> str | None:
    """The text after '=' in a declaration, or None for a defaultless input."""
    payload = variable.payload
    if payload is None:
        return None
    if isinstance(payload, ValueTable):
        if len(variable.dims) == 0:
            return format_number(payload.scalar)
        entries = ", ".join(
            f"{','.join(format_ident(l) for l in key)}: {format_number(v)}"
            for key, v in payload.entries)
        return "{" + entries + "}"
    return format_expr(payload)


def pretty_print(model: Model) -> str:
    """Render a Model as DSL source that parses back to an equal Model."""
    lines = []
    for dim in model.dimensions:
        labels = ", ".join(format_ident(l) for l in dim.instances)
        lines.append(f"dimension {format_ident(dim.name)} = [{labels}]")
    for v in model.variables:
        head = f"{v.kind.value} {format_ident(v.name)}"
        if len(v.dims) > 0:
            head += f" over {v.dims}"
        payload = format_payload(v)
        lines.append(head if payload is None else f"{head} = {payload}")
    return "\n".join(lines) + ("\n" if lines else "")
