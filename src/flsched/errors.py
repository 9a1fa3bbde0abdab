"""Exception types shared across the package, one per CLI exit code (NoConverge aside)."""


class ConfigError(ValueError):
    """Malformed or unknown configuration content, or a bad command-line number. Exit 2."""


class Infeasible(RuntimeError):
    """The instance cannot be solved as asked. Exit 3.

    A floor no split of the band can meet, a dead link, an unbounded drift
    constant, a calibration target out of reach, or an instance too large
    for an exhaustive search.
    """


class NoConverge(RuntimeError):
    """Newton iterations exhausted before reaching the requested tolerance. Exit 3."""


class VerificationError(RuntimeError):
    """A run broke a checked rule: a round's share rules, the drift or the deficit bound. Exit 4."""
