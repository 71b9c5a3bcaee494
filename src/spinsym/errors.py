"""Exceptions shared by the engine modules."""


class EngineError(Exception):
    """Base class for all engine-specific failures."""


class ShapeMismatchError(EngineError):
    """Operands live over different variable tables or operator spaces."""


class PoleEvaluationError(EngineError):
    """A substitution or evaluation annihilates a denominator factor."""


class DegenerateCouplingError(EngineError):
    """The critical coupling 2/(N - 4*theta0) is undefined (N == 4*theta0)."""


class SingularMetricError(EngineError):
    """The invariant bilinear form is not invertible."""


class ExponentOverflowError(EngineError):
    """An exponent grew past the width of its packed monomial field."""


class TermBudgetError(EngineError):
    """A computation exceeded the configured term-count ceiling."""


class ConventionMismatchError(EngineError):
    """A Serre right-hand side validates only under a non-default convention.

    Carries the calibration diagnostics (which multiplier, if any, makes the
    two sides agree) so the discrepancy is localized instead of papered over.
    """

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class OracleDisagreementError(EngineError):
    """A symbolically proven identity failed a numeric oracle trial.

    Severity is above an ordinary check failure: it signals a bug in the
    engine itself rather than in the identity under test.
    """
