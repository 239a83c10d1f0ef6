"""Exception hierarchy shared by all airkey modules."""


class AirkeyError(Exception):
    """Base class for every error raised by this package."""


class NonPositiveInput(AirkeyError):
    """A logarithm or digit comparison was asked for a value <= 0."""


class NonPositiveGain(AirkeyError):
    """A channel gain used as a divisor was <= 0."""


class Overflow(AirkeyError):
    """An exponential result does not fit the configured precision bounds."""


class FactorBoundExceeded(AirkeyError):
    """A cofactor resisted the configured factorization effort budget."""


class DuplicatePrimeDetected(AirkeyError):
    """Two users picked the same prime; the radical step would merge them."""


class ConfigError(AirkeyError):
    """An experiment configuration failed validation."""

    def __init__(self, problems):
        self.problems = dict(problems)
        details = "; ".join(f"{k}: {v}" for k, v in sorted(self.problems.items()))
        super().__init__(details or "invalid configuration")
