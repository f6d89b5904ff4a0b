"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np


class DimensionError(ValueError):
    """Operands have incompatible shapes or inconsistent metadata."""


class SingularSystemError(np.linalg.LinAlgError):
    """A linear system required by an estimator is numerically singular."""


class DegenerateSelectionError(ValueError):
    """Column selection produced no usable columns (for example all-zero weights)."""


class NumericError(RuntimeError):
    """A numeric failure inside the solver loop; message names the stage."""


class SpectraFormatError(RuntimeError):
    """A spectra CSV file violates the expected layout."""


class CubeFormatError(RuntimeError):
    """A cube file violates the binary format."""


class BadMagicError(CubeFormatError):
    """The file does not start with the cube magic bytes."""


class TruncatedCubeError(CubeFormatError):
    """The payload is shorter than the header promises."""

    def __init__(self, path, expected: int, actual: int):
        super().__init__(f"{path}: truncated cube file: expected {expected} bytes, found {actual}")
        self.expected = expected
        self.actual = actual


class DimensionOverflowError(CubeFormatError):
    """A cube dimension does not fit the 32-bit header fields."""
