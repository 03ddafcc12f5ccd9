"""From-scratch SMT substrate: terms, preprocessing, bit-blasting, CDCL SAT.

This package replaces the Z3 dependency of the original Fusion
implementation.  See DESIGN.md for the substitution rationale.
"""

from repro.smt.sorts import BOOL, DEFAULT_WIDTH, Sort, bitvec
from repro.smt.terms import Op, Term, TermManager, to_sexpr
from repro.smt.semantics import evaluate, to_signed, to_unsigned
from repro.smt.rewriter import simplify
from repro.smt.preprocess import (Preprocessor, PreprocessResult,
                                  PreprocessStats, Verdict,
                                  constraint_set_size, flatten_conjunction)
from repro.smt.sat import SatResult, SatSolver, SatStatus
from repro.smt.bitblast import BitBlaster
from repro.smt.solver import SmtResult, SmtSolver, SmtStatus, SolverConfig
from repro.smt.tactics import (eliminate_quantifier, hfs_simplify,
                               lfs_simplify)

__all__ = [
    "BOOL", "DEFAULT_WIDTH", "Sort", "bitvec",
    "Op", "Term", "TermManager", "to_sexpr",
    "evaluate", "to_signed", "to_unsigned",
    "simplify",
    "Preprocessor", "PreprocessResult", "PreprocessStats", "Verdict",
    "constraint_set_size", "flatten_conjunction",
    "SatResult", "SatSolver", "SatStatus",
    "BitBlaster",
    "SmtResult", "SmtSolver", "SmtStatus", "SolverConfig",
    "eliminate_quantifier", "hfs_simplify", "lfs_simplify",
]
