"""Exception hierarchy, and :func:`check_real`, the one range check for real parameters.

Callers that need an exit-code split can rely on the two branches:
:class:`InputDataError` covers file-format and corrupt-data failures,
everything else under :class:`PetQuantError` is a validation problem.
"""

import math
import operator

_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


class PetQuantError(Exception):
    """Base class for all errors raised by this package."""


class InputDataError(PetQuantError):
    """File or payload level problem (format, corruption, I/O)."""


class VolumeFormatError(InputDataError):
    """Malformed volume file header or unsupported layout."""


class VolumeDataError(InputDataError):
    """Voxel payload is unusable (non-finite values, size mismatch)."""


class GeometryMismatchError(PetQuantError):
    """Two grids that must share dims/spacing do not."""


class IntensityUnitError(PetQuantError):
    """Operation applied to a volume in the wrong intensity unit."""


class ParameterError(PetQuantError):
    """Argument outside its documented domain."""


class DegenerateInputError(PetQuantError):
    """Input is valid but statistically degenerate (constant, zero variance)."""


class EmptyRegionError(PetQuantError):
    """A non-empty mask/region was required."""


class ManifestError(PetQuantError):
    """Cohort manifest is missing entries or malformed."""


class LesionSpecError(ParameterError):
    """Phantom lesion specification cannot be realized on the grid."""


def check_real(name, value, *, gt=None, ge=None, lt=None, le=None, error=ParameterError):
    """Raise `error` unless `value` is finite and meets every bound given
    (`gt`: >, `ge`: >=, `lt`: <, `le`: <=); the message names `name`."""
    bounds = {sign: b for sign, b in zip(_COMPARE, (gt, ge, lt, le)) if b is not None}
    finite = isinstance(value, int) or math.isfinite(value)  # an int may be too big for a float
    if not (finite and all(_COMPARE[s](value, b) for s, b in bounds.items())):
        rule = "".join(f" and {s} {b}" for s, b in bounds.items())
        raise error(f"{name} must be finite{rule}, got {value}")
