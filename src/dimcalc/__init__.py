"""Engine for multidimensional calculation models.

Parse a Formula List (.dml), verify its dimension-set rules, evaluate
every variable, and render results as CSV tables or a DOT dependency
diagram.
"""

from .model import (
    Aggregate,
    Binary,
    Dimension,
    DimensionSet,
    EMPTY_DIMS,
    Expr,
    Literal,
    Model,
    ModelError,
    Ref,
    SourceSpan,
    Tensor,
    Unary,
    ValueTable,
    Variable,
    VariableKind,
    difference,
)
from .parser import (
    ParseDiagnostic,
    ParseFailure,
    format_expr,
    format_number,
    parse_model,
    pretty_print,
)
from .checker import (
    CheckDiagnostic,
    CheckFailure,
    CheckedModel,
    check_model,
)
from .evaluator import (
    EvalError,
    EvaluationResult,
    InputOverride,
    evaluate,
)
from .diagram import emit_dot

__all__ = [
    "Aggregate", "Binary", "Dimension", "DimensionSet", "EMPTY_DIMS", "Expr",
    "Literal", "Model", "ModelError", "Ref", "SourceSpan", "Tensor", "Unary",
    "ValueTable", "Variable", "VariableKind",
    "difference",
    "ParseDiagnostic", "ParseFailure", "format_expr", "format_number",
    "parse_model", "pretty_print",
    "CheckDiagnostic", "CheckFailure", "CheckedModel", "check_model",
    "EvalError", "EvaluationResult", "InputOverride", "evaluate",
    "emit_dot",
]
