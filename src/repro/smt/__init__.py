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
from repro.smt.sat import SatResult, SatSolver, SatStatus, solve_clauses
from repro.smt.bitblast import BitBlaster
from repro.smt.solver import (SmtResult, SmtSolver, SmtStatus, SolverConfig,
                              smt_solve)
from repro.smt.tactics import (eliminate_quantifier, hfs_simplify,
                               lfs_simplify)
from repro.smt.dimacs import (formula_to_dimacs, parse_dimacs, solve_dimacs,
                              write_dimacs)
from repro.smt.smtlib import (model_to_smtlib, term_to_smtlib,
                              to_smtlib_script)

__all__ = [
    "BOOL", "DEFAULT_WIDTH", "Sort", "bitvec",
    "Op", "Term", "TermManager", "to_sexpr",
    "evaluate", "to_signed", "to_unsigned",
    "simplify",
    "Preprocessor", "PreprocessResult", "PreprocessStats", "Verdict",
    "constraint_set_size", "flatten_conjunction",
    "SatResult", "SatSolver", "SatStatus", "solve_clauses",
    "BitBlaster",
    "SmtResult", "SmtSolver", "SmtStatus", "SolverConfig", "smt_solve",
    "eliminate_quantifier", "hfs_simplify", "lfs_simplify",
    "formula_to_dimacs", "parse_dimacs", "solve_dimacs", "write_dimacs",
    "model_to_smtlib", "term_to_smtlib", "to_smtlib_script",
]
