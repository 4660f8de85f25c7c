"""Exception types shared across the package."""


class LoopsplitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(LoopsplitError):
    pass


class ZeroLambda(LoopsplitError):
    pass


class SingularLoop(LoopsplitError):
    """Truncated inversion failed (residual above tolerance or singular solve)."""


ILL_CONDITIONED = "ill_conditioned"
NOT_CONVERGED = "not_converged"
ABOVE_CAP = "above_cap"


class BigCellViolation(LoopsplitError):
    """A factorization failed at every truncation window it tried.

    `cause` says why.  "ill_conditioned": the mode system was singular or its
    condition estimate exceeded the limit, which marks a loop off the big
    cell (or too close to its boundary to factor reliably).  "not_converged":
    the system was well conditioned but the a posteriori residual stayed
    above the tolerance in every window tried, so the factors' tails are
    longer than the window budget.  "above_cap": the first window the
    search would try is already wider than the largest one it may reach,
    so nothing was solved; the message names that window and the cap.
    `windows` lists the window radii tried, in order; `residual` and
    `condition` belong to the last of them.
    """

    def __init__(self, msg, residual=None, condition=None, windows=(),
                 cause=NOT_CONVERGED):
        super().__init__(msg)
        self.residual = residual
        self.condition = condition
        self.windows = list(windows)
        self.cause = cause

    def __str__(self):
        return f"{self.args[0]} [{self.cause}; windows {self.windows}]"


class NotInIwasawaCell(LoopsplitError):
    """The constant middle term admits no solution of k^{-1} (QkQ^{-1}) = a.

    `residual` is set when the failure is a measured defect that a wider
    truncation window can reduce (the tau(a) a = I precondition); it is None
    for the structural failures, which no window repairs: a middle term
    that violates its declared reality, and one that no constant of its
    group solves.
    """

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


class IntegrabilityViolation(LoopsplitError):
    """A connection form fails its structure equations beyond tolerance."""

    def __init__(self, msg, residuals=None):
        super().__init__(msg)
        self.residuals = residuals or {}


class NonRealFrame(LoopsplitError):
    """Frame evaluated off the reality locus of its reality condition."""


class DegenerateLambda(LoopsplitError):
    pass


class ConfigError(LoopsplitError):
    pass


class ParseError(ConfigError):
    pass


class ValidationError(ConfigError):
    pass
