"""Exception types shared across the package."""


class InfeasibleLink(ValueError):
    """A client cannot transmit: bandwidth share times rate coefficient is zero."""


class InfeasibleBound(ValueError):
    """Drift-bound constant cannot be finite (some worst-case energy is infinite)."""


class TooLarge(ValueError):
    """Instance exceeds the size an exhaustive oracle can enumerate."""


class Infeasible(ValueError):
    """No feasible point exists for the requested allocation."""


class NoConverge(RuntimeError):
    """Newton iterations exhausted before reaching the requested tolerance."""


class InfeasibleConfig(ValueError):
    """Policy parameters are incompatible with the system (bandwidth floor, empty sample)."""


class ConfigError(ValueError):
    """Malformed or unknown configuration content."""


class Unreachable(RuntimeError):
    """Calibration target cannot be met within the parameter bracket."""


class VerificationError(RuntimeError):
    """A run broke one of the guarantees every run checks (drift or deficit bound)."""
