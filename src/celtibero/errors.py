"""Exception types shared across the package."""

__all__ = ["ShapeMismatchError", "IdxFormatError", "ConfigError", "RoundError"]


class ShapeMismatchError(ValueError):
    """Structural mismatch: models with differing layer shapes, a flat vector
    that does not fit its layers, or indices outside the feature dimension."""


class IdxFormatError(ValueError):
    """An IDX file is malformed, truncated, or inconsistent with its pair."""


class ConfigError(ValueError):
    """Invalid experiment configuration, or an invalid ``TriggerPattern``.

    Carries every violation found in ``violations`` rather than stopping at
    the first, so a single failed run reports everything that must change.
    """

    def __init__(self, violations):
        self.violations = [str(v) for v in violations]
        super().__init__("; ".join(self.violations))


class RoundError(RuntimeError):
    """A federated round could not be completed (for example an aggregator
    precondition failed after participant sampling)."""
