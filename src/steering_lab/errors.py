"""Exception hierarchy shared across the package, and its one seed check.

Every error raised on purpose derives from SteeringLabError so the CLI can
report a single machine-parsable line and pick an exit code.
"""

import numbers


class SteeringLabError(Exception):
    """Base class for all deliberate errors in steering_lab."""


class ValidationError(SteeringLabError):
    """A parameter is outside its documented range or an invariant failed."""


class SingularDecompositionError(SteeringLabError):
    """The coefficient decomposition is singular at the requested amplitude.

    Raised for r = 0, where the Pauli resolution over displacement
    projectors divides by the amplitude, for r >= 1, where its Z-component
    denominator 1 - r^2 vanishes and then flips sign, when the rebuilt
    family matrices miss the identity, and when a one-point build's S_max
    is rounded on a scale above NORM_TOL (r below about 1e-8).
    """


class CutoffError(SteeringLabError):
    """A photon-number cutoff is too small for the requested amplitudes."""


class NormalizationError(SteeringLabError):
    """A probability table fails its per-setting normalization check."""


class ParseError(SteeringLabError):
    """A text input (counts file, config file) is malformed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FitError(SteeringLabError):
    """The cosine-fit design matrix is rank deficient."""


class ExtractionError(SteeringLabError):
    """No sweep sample lies close enough to a required phase."""


class IndeterminateFeasibilityError(SteeringLabError):
    """The LHS solver ran out of iterations before certifying a narrow
    interval."""


def check_seed(seed):
    """Return seed if it is an integer in [0, 2**64), else raise
    ValidationError: one rule for every seeded random stream in the package."""
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < 2 ** 64:
        raise ValidationError(
            f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed
