"""Exception hierarchy shared across the package.

A configuration is a complete past, so every neighborhood can be read from
it and no error reports a region it does not know: the errors below concern
invalid input, a model outside its decomposition's regime, or a run that
cannot finish.
"""


class KalisimError(Exception):
    """Base class for all library errors."""


class ConfigError(KalisimError):
    """Invalid run configuration; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations))


class GuardViolation(KalisimError):
    """A configuration lies outside the subspace a decomposition is valid on."""


class ExplosionGuardError(KalisimError):
    """No finite dominating bound exists for the current configuration."""


class NonMonotoneModelError(KalisimError):
    """A component value exceeded its declared bound at simulation time (model bug)."""


class LedgerError(KalisimError):
    """Inconsistent use of a region ledger (rate mismatch, overlapping registration)."""


class BudgetExhausted(KalisimError):
    """Backward construction hit its budget; carries the partial ancestor graph."""

    def __init__(self, message, graph=None):
        super().__init__(message)
        self.graph = graph


class NonSummableError(KalisimError):
    """A series required by the analysis toolkit diverges."""


class DivergenceError(KalisimError):
    """Fixed-point iteration left its convergence domain; carries the last iterate."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state
