"""Exception hierarchy for the chemowave solvers.

All errors carry a single human-readable message.  A check that runs per
wave speed names the failing speed through :func:`at_speed`.
"""

from __future__ import annotations

from collections.abc import Callable


class ChemowaveError(Exception):
    """Base class for every error raised by this package.

    ``c`` is the wave speed whose check failed, for the checks that run per
    speed (see :func:`raise_first` and :func:`at_speed`), else None.
    """

    c: float | None = None


def at_speed(exc: ChemowaveError, c: float) -> ChemowaveError:
    """``exc``, a fresh error, with its speed as ``exc.c`` and its message prefixed ``at c=...: ``.

    Raise the returned error directly: a local name bound to an error in the
    raising frame makes a reference cycle through its traceback, and the
    frame's arrays then live until the cyclic garbage collector runs.
    """
    exc.c = float(c)
    exc.args = (f"at c={exc.c!r}: {exc}",)
    return exc


def raise_first(failed, speeds, error: Callable[[int], ChemowaveError]) -> None:
    """Raise ``error(i)`` for the first speed ``speeds[i]`` whose check failed.

    ``failed`` is a bool array with one entry per speed of the array
    ``speeds``.  The raised error records its speed as ``c``.  A stack runs
    its checks stage by stage, so the speed named is the first one to fail
    at the earliest failing stage.
    """
    if failed.any():
        i = int(failed.argmax())
        raise at_speed(error(i), speeds[i])


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------

class ModelError(ChemowaveError, ValueError):
    """Invalid velocity model or parameter input."""


class AsymmetricSet(ModelError):
    """Velocity/weight lists are not symmetric about the origin."""


class WeightSumNotOne(ModelError):
    """Weights do not sum to one within tolerance."""


class NegativeWeight(ModelError):
    """A weight is negative."""


class SensitivityOutOfRange(ModelError):
    """chi_s or chi_n outside the accepted range, or chi_n > chi_s."""


class NoConfinementWindow(ModelError):
    """No confinement speed window exists (degenerate sensitivities)."""


class SpeedOnVelocityNode(ModelError):
    """Wave speed coincides with a discrete velocity node."""


class SpeedNotAdmissible(ModelError):
    """Wave speed lies outside the confinement window."""


# ---------------------------------------------------------------------------
# numerical failures
# ---------------------------------------------------------------------------

class NumericalError(ChemowaveError):
    """A solver could not produce a verified result."""


class SingularLambda(NumericalError):
    """Dispersion residual requested at a singular value."""


class BracketFailure(NumericalError):
    """Root bracket degenerate (numerically coincident singular values)."""


class NullSpaceDimensionError(NumericalError):
    """Matching matrix does not have a one-dimensional null space."""


class NonPositiveProfile(NumericalError):
    """Solved kinetic density has mixed signs on the verification grid."""


class ResonantMode(NumericalError):
    """A source mode coincides with a homogeneous exponent of the S ODE."""


class NonMonotoneN(NumericalError):
    """Nutrient profile is not nondecreasing, or its far-field level lies outside [0, 1]."""


class NonPositiveSpeed(NumericalError):
    """Operation requires a strictly positive wave speed."""


class LostBracket(NumericalError):
    """A bracketed sign change could not be refined to a root."""


class CFLViolation(NumericalError):
    """Time step violates the CFL or tumbling stability bound."""


class NegativeDensity(NumericalError):
    """Simulation produced a negative density."""


class InsufficientSamples(NumericalError):
    """Not enough samples in the requested fitting window."""


# ---------------------------------------------------------------------------
# configuration / CLI
# ---------------------------------------------------------------------------

class ConfigError(ChemowaveError, ValueError):
    """Invalid run configuration."""


class ParseError(ConfigError):
    """Malformed configuration text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)


class UnknownKey(ConfigError):
    """Configuration contains a key that is not part of the schema."""


class MissingKey(ConfigError):
    """Configuration is missing a required key."""
