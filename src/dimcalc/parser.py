"""Formula List DSL: tokenizer, parser, and pretty printer.

The DSL is line-oriented: one declaration per line, `#` starts a comment
that runs to end of line. Newlines inside (), [], {} groups do not end the
statement, so large value tables can be written one entry per line. The
full grammar is documented in README.md.

A token is a plain tuple `(kind, text, value, start, end)`, made as the
parser reads it, one ahead, from one regex match that ends with it. Each
class the parser branches on (a name, an open or close bracket, another
mark, a number glued to nothing) has a group, whose text is the token's.
The kind is name, qname, number, newline or eof, or a keyword's or mark's
own text ("over" or "+"), so the parser decides on the kind alone; `value`
is a number's float, and `start` and `end` are character offsets into the
text. The spans a parse keeps (a Ref, an Aggregate, a statement, or a
diagnostic) hold offsets too, and work out lines and columns when read.

Parsing is total: any input text yields either a Model or a list of
ParseDiagnostic values carried by ParseFailure, never an exception from
the guts of the parser.
"""

from __future__ import annotations

import itertools
import math
import re

from .model import (
    EMPTY_DIMS,
    Aggregate,
    Binary,
    Diagnostic,
    DiagnosticFailure,
    Dimension,
    DimensionSet,
    Expr,
    Literal,
    Model,
    ModelError,
    Ref,
    SourceSpan,
    Unary,
    ValueTable,
    Variable,
    VariableKind,
    iter_nodes,
)

KEYWORDS = frozenset({"dimension", "input", "data", "calc", "output", "over", "SUM"})
# each variable keyword's kind, read without calling the Enum
_KINDS = {kind.value: kind for kind in VariableKind}

_NUMBER = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# Each match is the blanks and comment before a token, then the token in one
# group per class, which `lastindex` names as the group closed last. Nothing
# in a match follows its token (what is glued to a number belongs to it), so
# a token the parser branches on is `m[k]` and ends at `m.end()`. The prefix
# reads only one way, and whatever follows it, even the end of text, starts
# exactly one class, so no match backtracks and matches tile the text.
_TOKEN_RE = re.compile(r"[ \t\r]*(?:#[^\n]*)?(?:" + "|".join([
    r"([A-Za-z_][A-Za-z0-9_]*)",  # 1: name
    r"([(\[{])",  # 2: open bracket
    r"([)\]}])",  # 3: close bracket
    r"([=,:+\-*/^])",  # 4: other punctuation
    # 5: number; an empty 6 or 7 marks a glued '%' or, bad, word characters,
    # so each branch starts on a character the engine tests before entering
    rf"({_NUMBER})(?:%()|[\w.]+()|)",
    r"(\n)",  # 8: newline
    r'("((?:[^"\\\n]|\\[^\n]?)*)(")?)',  # 9: quoted name, 10 body, 11 closed
    # 12: a run of characters that start no token; '.' starts one before a digit
    r'((?:[^ \t\r\n#"=,:()\[\]{}+\-*/^A-Za-z_0-9.]|\.(?![0-9]))+)',
    r"(\Z)",  # 13: end of text
]) + ")")
_ESCAPE_RE = re.compile(r"\\(.?)")
_NEWLINE_RE = re.compile(r"\n")


class ParseDiagnostic(Diagnostic):
    """A parser finding: always an error with a span. Its code is P-SYNTAX,
    P-TOKEN, P-NUMBER, P-DUPLICATE, P-UNDECLARED or P-TABLE."""

    __slots__ = ()


def _report(diags: list[ParseDiagnostic], code: str, message: str,
            span: SourceSpan) -> None:
    diags.append(ParseDiagnostic("error", code, message, span))


class ParseFailure(DiagnosticFailure):
    """Raised by parse_model when the source contains errors."""


def _spans_of(text: str, file: str):
    """The function from a [start, end) range of offsets into `text` to
    its SourceSpan, which finds its lines and columns when first read."""
    return SourceSpan.factory(
        (file, [0, *(m.end() for m in _NEWLINE_RE.finditer(text))]))


def _tokenize(text: str, span, diags: list[ParseDiagnostic]):
    """Yield the tokens of `text` through eof, reporting bad ones as made."""
    depth = 0  # bracket depth; newlines inside groups are plain whitespace

    def err(code, msg, start, end):
        _report(diags, code, msg, span(start, end))

    for m in _TOKEN_RE.finditer(text):
        kind = m.lastindex
        end = m.end()  # every token ends its match
        if kind == 1:  # name or keyword
            word = m[1]
            yield (word if word in KEYWORDS else "name", word, None,
                   end - len(word), end)
        elif kind <= 4:  # a punctuation mark: 2 opens a group, 3 closes one
            mark = m[kind]
            if kind == 2:
                depth += 1
            elif kind == 3 and depth:
                depth -= 1
            yield (mark, mark, None, end - 1, end)
        elif kind == 5:  # a number with nothing glued to it
            word = m[5]
            start, value = end - len(word), float(word)
            if not math.isfinite(value):
                err("P-NUMBER", f"number {word} is out of range", start, end)
            yield ("number", word, value, start, end)
        elif kind == 8:  # newline
            if depth == 0:
                yield ("newline", "\n", None, end - 1, end)
        elif kind <= 7:  # a number glued to '%' (6) or to word characters (7)
            start, digits = m.start(5), m[5]
            if kind == 7:
                err("P-NUMBER", f"malformed number {text[start:end]!r}", start, end)
                continue
            value = float(digits)
            err("P-NUMBER", f"percent literals are not supported; write the "
                f"fraction instead ({digits}% is {value / 100})", start, end)
            yield ("number", digits, value, start, end)
        elif kind == 9:  # quoted name
            start, body = m.start(9), m[10]
            for esc in _ESCAPE_RE.finditer(body):
                if esc[1] not in ('"', "\\"):
                    err("P-TOKEN", "unsupported escape in quoted identifier "
                        "(only \\\" and \\\\ are recognized)",
                        start, start + 1 + esc.start())
            name = _ESCAPE_RE.sub(r"\1", body)
            if not m[11]:
                err("P-TOKEN", "unterminated quoted identifier", start, end)
            elif not name:
                err("P-TOKEN", "empty quoted identifier", start, end)
            yield ("qname", name, None, start, end)
        elif kind == 12:  # characters that start no token
            word = m[12]
            err("P-TOKEN", f"unexpected character{'s' if len(word) > 1 else ''} "
                f"{word!r}", end - len(word), end)
        else:  # end of text
            yield ("eof", "", None, end, end)
            return


class _StatementError(Exception):
    """A statement failed; its diagnostic is already reported."""


class _Parser:
    def __init__(self, tokens, span, diags: list[ParseDiagnostic]):
        # the token stream, read one ahead: `tok` is the next token to use
        self.next = tokens.__next__
        self.tok = self.next()
        self.span, self.diags = span, diags
        # names of variables whose declarations failed after the name was
        # read; kept so references to them do not cascade into P-UNDECLARED
        self.failed_names: set[str] = set()
        # the dimensions read, by name in declaration order, and the variable
        # statements: (kind, name token, over clause tokens or None, rhs_kind,
        # rhs, span), where rhs is a formula, table entries, list values or
        # None, as rhs_kind is "expr", "table", "list", "none"
        self.dimensions: dict[str, Dimension] = {}
        self.variables: list[tuple] = []

    def _accept(self, mark: str) -> bool:
        """Step over the next token if its kind is `mark`."""
        if self.tok[0] == mark:
            self.tok = self.next()
            return True
        return False

    def _fail(self, code: str, message: str, tok: tuple):
        _report(self.diags, code, message, self.span(tok[3], tok[4]))
        raise _StatementError

    def _expect(self, mark: str) -> tuple:
        tok = self.tok
        if tok[0] == mark:
            self.tok = self.next()
            return tok
        self._fail("P-SYNTAX", f"expected {mark!r}, got {_describe(tok)}", tok)

    def _expect_name(self, what: str) -> tuple:
        tok = self.tok
        if tok[0] in KEYWORDS:
            self._fail("P-SYNTAX", f"{tok[1]!r} is a reserved keyword and "
                       f"cannot be used as {what}", tok)
        if tok[0] != "name" and tok[0] != "qname":
            self._fail("P-SYNTAX", f"expected {what}, got {_describe(tok)}", tok)
        self.tok = self.next()
        return tok

    def _end_statement(self):
        tok = self.tok
        if tok[0] not in ("newline", "eof"):
            self._fail("P-SYNTAX",
                       f"unexpected {_describe(tok)} after declaration", tok)

    def parse_statements(self) -> None:
        while True:
            while (tok := self.tok)[0] == "newline":
                self.tok = self.next()
            try:
                if tok[0] in _KINDS:
                    self._parse_variable(tok)
                elif tok[0] == "dimension":
                    self._parse_dimension()
                elif tok[0] == "eof":
                    return
                else:
                    self._fail("P-SYNTAX", "expected a declaration (dimension, input, "
                               f"data, calc, output), got {_describe(tok)}", tok)
            except _StatementError:
                while self.tok[0] not in ("newline", "eof"):
                    self.tok = self.next()

    def _parse_dimension(self) -> None:
        self.tok = self.next()
        name = self._expect_name("a dimension name")
        self._expect("=")
        self._expect("[")
        labels = [self._expect_name("an instance label")]
        while self._accept(",") and self.tok[0] != "]":
            labels.append(self._expect_name("an instance label"))
        self._expect("]")
        self._end_statement()
        if name[1] in self.dimensions:
            self._fail("P-DUPLICATE", f"dimension {name[1]} is already "
                       f"declared", name)
        unique: dict[str, None] = {}
        for _, label, _, start, end in labels:
            if label in unique:
                _report(self.diags, "P-DUPLICATE", f"dimension {name[1]} "
                        f"repeats instance label {label}", self.span(start, end))
            unique[label] = None
        self.dimensions[name[1]] = Dimension(name[1], tuple(unique))

    def _parse_variable(self, first: tuple) -> None:
        # the cursor is read here; _expect and _expect_name only report a failure
        kind, next_tok = _KINDS[first[0]], self.next
        self.tok = name = next_tok()
        if name[0] != "name" and name[0] != "qname":
            self._expect_name("a variable name")
        try:
            over, rhs_kind, rhs, last = None, "none", None, name
            self.tok = tok = next_tok()
            if tok[0] == "over":
                self.tok = tok = next_tok()
                if tok[0] != "(":
                    self._expect("(")
                over = []
                while not over or tok[0] == ",":
                    self.tok = tok = next_tok()
                    if tok[0] != "name" and tok[0] != "qname":
                        self._expect_name("a dimension name")
                    over.append(tok)
                    self.tok = tok = next_tok()
                if tok[0] != ")":
                    self._expect(")")
                self.tok = tok = next_tok()
            if tok[0] == "=":
                self.tok = tok = next_tok()
                # each right-hand side returns its value and last token
                if tok[0] == "{":
                    rhs_kind, (rhs, last) = "table", self._parse_keyed_table()
                elif tok[0] == "[":
                    rhs_kind, (rhs, last) = "list", self._parse_positional_list()
                else:
                    rhs_kind, (rhs, last) = "expr", self._parse_expr()
                tok = self.tok
            elif kind is not VariableKind.INPUT:
                self._fail("P-SYNTAX", f"{kind.value} {name[1]} needs '=' and a "
                           f"{'formula' if kind.carries_formula else 'value'}", tok)
            if tok[0] != "newline" and tok[0] != "eof":
                self._end_statement()
            self.variables.append((kind, name, over, rhs_kind, rhs,
                                   self.span(first[3], last[4])))
        except _StatementError:
            self.failed_names.add(name[1])
            raise

    def _parse_signed_number(self) -> float:
        negate = False
        while self._accept("-"):
            negate = not negate
        tok = self.tok
        if tok[0] != "number":
            self._fail("P-SYNTAX", f"expected a number, got {_describe(tok)}", tok)
        self.tok = self.next()
        return -tok[2] if negate else tok[2]

    def _parse_keyed_table(self):
        self._expect("{")
        if self.tok[0] == "}":
            self._fail("P-TABLE", "value table has no entries", self.tok)
        entries = []
        while True:
            key = [self._expect_name("an instance label")]
            while self._accept(","):
                key.append(self._expect_name("an instance label"))
            self._expect(":")
            entries.append((key, self._parse_signed_number()))
            if not self._accept(",") or self.tok[0] == "}":
                return entries, self._expect("}")

    def _parse_positional_list(self):
        self._expect("[")
        values = [self._parse_signed_number()]
        while self._accept(",") and self.tok[0] != "]":
            values.append(self._parse_signed_number())
        return values, self._expect("]")

    def _parse_expr(self):
        """One formula, by operator precedence over explicit stacks, and the
        last token it takes.

        Loosest to tightest: `+ -`, `* /`, prefix `-`, `^` (left-associative),
        and a `-` right after `^`, which negates the exponent's atom alone:
        `-a ^ b` is -(a ^ b) and `a ^ -b ^ c` is (a ^ (-b)) ^ c. Operands are
        numbers, names, `SUM(name)` and parenthesized formulas.
        """
        next_tok, span = self.next, self.span
        operands: list[Expr] = []
        # (precedence, operator) entries, "neg" a prefix minus; an open group
        # is (0, its opening token), which no operator reduces past, so after
        # a reduction at precedence 1 an empty stack means no group is open
        ops: list[tuple] = []
        neg = _NEG
        tok = self.tok  # the cursor, written back to self.tok around calls
        while True:
            # operand position: prefix minuses and open groups, then an atom;
            # only a group resets neg, so each minus of a run after ^ takes one atom
            while (kind := tok[0]) == "-" or kind == "(":
                if kind == "-":
                    ops.append(neg)
                else:
                    ops.append((0, tok))
                    neg = _NEG
                tok = next_tok()
            if kind == "number":
                operands.append(Literal(tok[2]))
            elif kind == "name" or kind == "qname":
                operands.append(Ref(tok[1], span(tok[3], tok[4])))
            else:
                self.tok = tok
                operands.append(self._parse_atom())
                tok = self.tok
            last = tok
            tok = next_tok()
            # operator position, the one reduction site: apply what binds at
            # least as tightly as the next operator (all, down to the innermost
            # group, at a ')' or the end), then push it, close the group or return
            while True:
                entry = _BINARY.get(tok[0])
                prec = 1 if entry is None else entry[0]
                while ops and ops[-1][0] >= prec:
                    op = ops.pop()[1]
                    right = operands.pop()
                    if op == "neg":  # folded, so -5 round-trips as Literal(-5)
                        operands.append(Literal(-right.value)
                                        if type(right) is Literal
                                        else Unary(right))
                    else:  # the left operand's place takes the result
                        operands[-1] = Binary(op, operands[-1], right)
                if entry is not None:
                    break
                self.tok = tok
                if not ops:
                    return operands[0], last
                last = self._expect(")")
                tok = self.tok
                opening = ops.pop()[1]
                # a diagnostic on a grouped reference covers the parentheses
                node = operands[-1]
                if type(node) is Ref:
                    operands[-1] = Ref(node.name, span(opening[3], last[4]))
                elif type(node) is Aggregate:
                    operands[-1] = Aggregate(
                        node.source, span=span(opening[3], last[4]))
            ops.append(entry)
            neg = _EXPONENT_NEG if entry[1] == "^" else _NEG
            tok = next_tok()

    def _parse_atom(self):
        """`SUM(name)`, leaving self.tok on its ')'; any other token fails."""
        tok = self.tok
        if tok[0] != "SUM":
            if tok[0] in KEYWORDS:
                self._expect_name("a variable name")  # a reserved keyword
            self._fail("P-SYNTAX", "expected a number, variable, or '(', "
                       f"got {_describe(tok)}", tok)
        self.tok = self.next()
        self._expect("(")
        arg = self.tok
        if arg[0] == "SUM":
            self._fail("P-SYNTAX", "SUM cannot be nested; aggregate the "
                       "inner variable in its own declaration", arg)
        source = self._expect_name("a variable name inside SUM(...)")
        last = self.tok
        if last[0] != ")":
            self._fail("P-SYNTAX", "SUM takes a single variable name", last)
        return Aggregate(source[1], span=self.span(tok[3], last[4]))


# the (precedence, operator) entries _parse_expr stacks, made once
_BINARY = {op: (prec, op) for op, prec in zip("+-*/^", (1, 1, 2, 2, 4))}
_NEG_PREC = 3  # prefix minus: tighter than * and /, looser than ^
_NEG = (_NEG_PREC, "neg")
_EXPONENT_NEG = (5, "neg")  # a minus right after ^ takes only the next atom
_ENDS = {"eof": "end of file", "newline": "end of line"}  # for _describe


def _describe(tok: tuple) -> str:
    return _ENDS.get(tok[0]) or repr(tok[1])


def parse_model(text: str, file: str = "<input>") -> Model:
    """Parse DSL source into a Model.

    Raises ParseFailure carrying every diagnostic found; the parser
    recovers at statement boundaries so one bad line does not hide errors
    in the rest of the file. Variables over the same set of dimensions
    share one DimensionSet.
    """
    diags: list[ParseDiagnostic] = []
    span = _spans_of(text, file)
    parser = _Parser(_tokenize(text, span, diags), span, diags)
    parser.parse_statements()
    dimensions = parser.dimensions
    # one DimensionSet per distinct set of names
    dim_sets: dict[frozenset[str], DimensionSet] = {}

    known_names = {stmt[1][1] for stmt in parser.variables
                   if stmt[1][1] not in dimensions} | parser.failed_names
    var_names: set[str] = set()
    variables = []
    for stmt in parser.variables:
        kind, (_, name, _, start, end), over, rhs_kind, _, where = stmt
        if name in var_names:
            _report(diags, "P-DUPLICATE", f"variable {name} is already declared",
                    span(start, end))
            continue
        if name in dimensions:
            _report(diags, "P-DUPLICATE",
                    f"{name} is already declared as a dimension", span(start, end))
            continue
        var_names.add(name)
        dims = _resolve_dims(over, dimensions, dim_sets, span, diags)
        if dims is None and rhs_kind != "expr":
            continue  # the over clause failed; values would only add noise
        dims = dims or EMPTY_DIMS
        payload = _resolve_payload(stmt, dims, dimensions, span, diags)
        variable = Variable(name, kind, dims, payload, span=where)
        for ref, node in variable.uses:
            if ref not in known_names:
                extra = (" (it is a dimension, not a variable)"
                         if ref in dimensions else "")
                _report(diags, "P-UNDECLARED",
                        f"no variable named {ref}{extra}", node.span)
        variables.append(variable)

    if diags:  # every parse diagnostic is an error
        raise ParseFailure(diags)
    return Model(tuple(dimensions.values()), tuple(variables))


def _resolve_dims(over, dimensions, dim_sets, span, diags) -> DimensionSet | None:
    """The over clause's dimension set, from `dim_sets` or added to it in
    declaration order; None if it names an undeclared dimension."""
    if over is None:
        return EMPTY_DIMS
    names, failed = [], False
    for _, name, _, start, end in over:
        if name not in dimensions:
            _report(diags, "P-UNDECLARED", f"no dimension named {name}",
                    span(start, end))
            failed = True
        elif name in names:
            _report(diags, "P-DUPLICATE", f"dimension {name} appears twice in "
                    f"the over clause", span(start, end))
        else:
            names.append(name)
    key = frozenset(names)
    if not failed and key not in dim_sets:
        dim_sets[key] = DimensionSet(tuple([n for n in dimensions if n in key]))
    return None if failed else dim_sets[key]


def _resolve_payload(stmt: tuple, dims: DimensionSet, dimensions, span, diags):
    kind, name_token, _, rhs_kind, rhs, where = stmt
    if rhs_kind == "none":
        return None
    name = name_token[1]
    if rhs_kind == "expr":
        # a bare number is a scalar value, not a formula
        if isinstance(rhs, Literal) and not kind.carries_formula:
            if len(dims) > 0:
                _report(diags, "P-TABLE", f"{name} is over {dims}; a single "
                        f"number is only valid for a dimensionless variable",
                        where)
                return None
            return ValueTable((rhs.value,))
        return rhs
    axes = [dimensions[n].instances for n in dims]
    if rhs_kind == "list":
        if len(axes) != 1:
            _report(diags, "P-TABLE", f"a positional list needs exactly one "
                    f"dimension; {name} is over {dims}", where)
            return None
        if len(rhs) != len(axes[0]):
            _report(diags, "P-TABLE", f"{name} needs {len(axes[0])} values for "
                    f"{dims.names[0]}, got {len(rhs)}", where)
            return None
        return ValueTable(tuple(rhs))
    # keyed table: each value goes to its cell's row-major index, so memory
    # follows the entries written, not the cells the dimensions declare
    if not axes:
        _report(diags, "P-TABLE", f"{name} is dimensionless; write a single "
                f"number, not a table", where)
        return None
    size = math.prod(map(len, axes))
    cells: dict[int, float] = {}
    reported = len(diags)
    for key_toks, value in rhs:
        if len(key_toks) != len(axes):
            count = len(key_toks)
            _report(diags, "P-TABLE",
                    f"table key {','.join(t[1] for t in key_toks)} has {count} "
                    f"label{'s' if count != 1 else ''}; {name} is over {dims}",
                    span(key_toks[0][3], key_toks[-1][4]))
            continue
        index = 0
        for (_, label, _, start, end), dim, axis in zip(key_toks, dims, axes):
            try:
                index = index * len(axis) + dimensions[dim].index_of(label)
            except ModelError:
                _report(diags, "P-TABLE", f"{label} is not an instance of "
                        f"{dim} (table keys follow the dimension order "
                        f"{dims})", span(start, end))
                break
        else:
            if index in cells:
                _report(diags, "P-DUPLICATE", f"table entry "
                        f"{','.join(t[1] for t in key_toks)} is already defined",
                        span(key_toks[0][3], key_toks[-1][4]))
            else:
                cells[index] = value
    if len(diags) > reported:  # an entry failed
        return None
    if len(cells) < size:
        # a gap lies among the first len(cells) + 1 indexes
        gap = next(i for i in range(len(cells) + 1) if i not in cells)
        labels = next(itertools.islice(itertools.product(*axes), gap, None))
        _report(diags, "P-TABLE", f"value table for {name} has {len(cells)} "
                f"of {size} entries (first missing: {','.join(labels)})", where)
        return None
    return ValueTable(tuple([cells[i] for i in range(size)]))


# the kinds of token that a cell address takes as a name or label
_NAME_KINDS = frozenset({"name", "qname", *KEYWORDS})


def parse_cell(text: str) -> tuple[str, tuple[str, ...] | None] | None:
    """A cell address as (variable name, instance labels or None), or None
    if `text` is malformed.

    The name comes first, then optionally the labels in brackets, separated
    by commas. Each is written as in the model source, a name or a quoted
    name, except that a keyword is taken as a name and a number as a label.
    """
    diags: list[ParseDiagnostic] = []
    tokens = list(_tokenize(text, _spans_of(text, "<cell>"), diags))
    name, address = tokens[0], tokens[1:-1]  # the last token is eof
    inner = address[1:-1]
    labels, commas = inner[::2], inner[1::2]
    if (diags or name[0] not in _NAME_KINDS or address and (
            (address[0][0], address[-1][0]) != ("[", "]") or len(inner) % 2 == 0
            or any(t[0] not in _NAME_KINDS and t[0] != "number" for t in labels)
            or any(t[0] != "," for t in commas))):
        return None
    return name[1], tuple(t[1] for t in labels) if address else None


def format_number(value: float) -> str:
    """Shortest lossless rendering; integral floats print without a point.
    `repr` writes those from 1e16 up with an exponent, and keeps -0's sign."""
    return repr(value).removesuffix(".0")


def format_ident(name: str) -> str:
    # an ASCII identifier is [A-Za-z_][A-Za-z0-9_]*, a name token whole
    if name.isascii() and name.isidentifier() and name not in KEYWORDS:
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
        # exact classes, commonest first: the node classes are closed
        cls = type(node)
        if cls is Binary:
            right, left = done.pop(), done.pop()
            prec = _BINARY[node.op][0]
            right_text = (_as_exponent(right) if node.op == "^"
                          else _wrap(right, prec + 1))
            done.append((f"{_wrap(left, prec)} {node.op} {right_text}", prec, None))
        elif cls is Literal:
            text = format_number(node.value)
            # -5 and -0 read like a negation, which an exponent may start with
            negative = math.copysign(1.0, node.value) < 0
            done.append((text, _NEG_PREC if negative else _ATOM_PREC, text))
        elif cls is Ref:
            text = format_ident(node.name)
            done.append((text, _ATOM_PREC, text))
        elif cls is Unary:
            operand = done.pop()
            done.append(("-" + _wrap(operand, _NEG_PREC), _NEG_PREC,
                         "-" + _as_exponent(operand)))
        else:  # an Aggregate
            text = f"SUM({format_ident(node.source)})"
            done.append((text, _ATOM_PREC, text))
    return done[0][0]


def _wrap(rendered: tuple, min_prec: int) -> str:
    text, prec, _ = rendered
    return f"({text})" if prec < min_prec else text


def _as_exponent(rendered: tuple) -> str:
    text, _, exponent = rendered
    return f"({text})" if exponent is None else exponent


def format_payload(model: Model, variable: Variable) -> str | None:
    """The text after '=' in a declaration, or None for a defaultless input."""
    payload = variable.payload
    if payload is None:
        return None
    if isinstance(payload, ValueTable):
        if len(variable.dims) == 0:
            return format_number(payload.scalar)
        entries = ", ".join(
            f"{','.join(format_ident(l) for l in key)}: {format_number(v)}"
            for key, v in zip(model.instance_tuples(variable.dims),
                              payload.values))
        return "{" + entries + "}"
    return format_expr(payload)


def pretty_print(model: Model) -> str:
    """Render a Model as DSL source that parses back to an equal Model.

    Raises ModelError, naming the first declaration that does not read back
    and what it reads back as, for a model the DSL cannot write."""
    lines = []
    for dim in model.dimensions:
        labels = ", ".join(map(format_ident, dim.instances))
        lines.append(f"dimension {format_ident(dim.name)} = [{labels}]")
    for v in model.variables:
        head = f"{v.kind.value} {format_ident(v.name)}"
        if len(v.dims) > 0:
            head += f" over ({', '.join(format_ident(n) for n in v.dims)})"
        payload = format_payload(model, v)
        lines.append(head if payload is None else f"{head} = {payload}")
    text = "\n".join(lines) + ("\n" if lines else "")
    parts = [*model.dimensions, *model.variables]
    try:
        again = parse_model(text)
    except ParseFailure as failure:
        # each declaration is one line up to the first that fails, since a
        # name or label holding an LF fails on its declaration's first line
        first = failure.diagnostics[0]
        part = parts[first.span.start_line - 1]
        problem = f"{first.code}: {first.message}"
    else:
        if again == model:
            return text
        part, problem = next(
            (p, repr(q)) for p, q in zip(parts, [*again.dimensions,
                                                 *again.variables]) if p != q)
    raise ModelError(f"cannot print {type(part).__name__.lower()} "
                     f"{part.name!r}: it reads back as {problem}")
