"""Exact symbolic verification of spin Calogero/Sutherland symmetry algebras.

Everything runs on exact rational arithmetic; a check passes only when
the relevant operator identity reduces to the literal zero operator.
"""

from .checks import (CheckReport, CheckResult, check_appendix_f,
                     check_conservation, check_lambda_solver,
                     check_level_relations, check_pq_identities,
                     check_serre_halfloop, check_serre_yangian,
                     oracle_crosscheck, run_lie_suite, run_model_suite,
                     solve_lambda)
from .errors import (DegenerateCouplingError, EngineError,
                     ExponentOverflowError, OracleDisagreementError,
                     PoleEvaluationError, ShapeMismatchError,
                     SingularMetricError, TermBudgetError)
from .exact import RationalFunction
from .lie import AlgebraSpec, basis, generator_op, metric, structure_row
from .models import (MODEL_KINDS, ModelSpec, generator_grid, hamiltonian,
                     star_coupling, symmetry_generator)
from .operators import Operator, OpSpace
from .version import __version__

__all__ = [
    "AlgebraSpec",
    "CheckReport",
    "CheckResult",
    "DegenerateCouplingError",
    "EngineError",
    "ExponentOverflowError",
    "MODEL_KINDS",
    "ModelSpec",
    "Operator",
    "OpSpace",
    "OracleDisagreementError",
    "PoleEvaluationError",
    "RationalFunction",
    "ShapeMismatchError",
    "SingularMetricError",
    "TermBudgetError",
    "__version__",
    "basis",
    "check_appendix_f",
    "check_conservation",
    "check_lambda_solver",
    "check_level_relations",
    "check_pq_identities",
    "check_serre_halfloop",
    "check_serre_yangian",
    "generator_grid",
    "generator_op",
    "hamiltonian",
    "metric",
    "oracle_crosscheck",
    "run_lie_suite",
    "run_model_suite",
    "solve_lambda",
    "star_coupling",
    "structure_row",
    "symmetry_generator",
]
