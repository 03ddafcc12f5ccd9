"""Front end for the paper's Figure 4 small language."""

from repro.lang.ast_nodes import Module, SourceLoc
from repro.lang.ir import (Assign, Binary, BinOp, Branch, Call, Const,
                           Function, Identity, IfThenElse, Operand, Program,
                           Return, Stmt, Var, VarType)
from repro.lang.lexer import LexError, tokenize
from repro.lang.lowering import (LoweringConfig, LoweringError,
                                 compile_source, lower_module)
from repro.lang.parser import ParseError, parse

__all__ = [
    "Module", "SourceLoc",
    "Assign", "Binary", "BinOp", "Branch", "Call", "Const", "Function",
    "Identity", "IfThenElse", "Operand", "Program", "Return", "Stmt", "Var",
    "VarType",
    "LexError", "tokenize",
    "LoweringConfig", "LoweringError", "compile_source", "lower_module",
    "ParseError", "parse",
]
