"""Exceptions shared by the engine modules."""


class EngineError(Exception):
    """Base class for all engine-specific failures."""


class ShapeMismatchError(EngineError):
    """Operands live over different variable tables or operator spaces."""


class PoleEvaluationError(EngineError):
    """An evaluation point annihilates a denominator factor."""


class DegenerateCouplingError(EngineError):
    """The critical coupling 2/(N - 4*theta0) is undefined (N == 4*theta0)."""


class SingularMetricError(EngineError):
    """The invariant bilinear form is not invertible."""


class ExponentOverflowError(EngineError):
    """An exponent grew past the width of its packed monomial field."""


class TermBudgetError(EngineError):
    """A computation exceeded the configured term-count ceiling."""


class OracleDisagreementError(EngineError):
    """A symbolically proven identity failed a numeric oracle trial.

    Severity is above an ordinary check failure: it signals a bug in the
    engine itself rather than in the identity under test.
    """
