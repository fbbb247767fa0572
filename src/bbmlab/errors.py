"""Error taxonomy shared by all modules.

Exit-code mapping used by the CLI: configuration/domain errors are
validation failures (exit 1), numerical failures exit 2, failed acceptance
checks exit 3.
"""


class ConfigurationError(ValueError):
    """Invalid configuration: bad tables, unknown operations, bad flags."""


class DomainError(ValueError):
    """Arguments outside an operation's mathematical domain, an evaluation
    point outside a stored grid included."""


class NumericalFailure(RuntimeError):
    """A solver did not converge, a computed quantity failed its accuracy
    requirement, or a run would exceed its step budget."""
