"""Physical forward model mapping spectra to RGB responses.

The operator is ``phi = S @ diag(ell)`` where ``S`` is the camera spectral
sensitivity (3 x B) and ``ell`` the scene illuminant (length B).  The module
also provides the classical estimator that recovers ``phi`` (ridge least
squares on calibration pairs), plus the squared spectral norm used to pick
solver step sizes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SingularSystemError


def _readonly(a, dtype=np.float64) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Sensitivity:
    """Relative per-channel camera response sampled on a wavelength grid.

    ``matrix`` is 3 x B and nonnegative with at least one positive entry per
    channel; ``wavelengths`` (nm) are strictly increasing.
    """

    matrix: np.ndarray
    wavelengths: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _readonly(self.matrix))
        object.__setattr__(self, "wavelengths", _readonly(self.wavelengths))
        if self.matrix.ndim != 2 or self.matrix.shape[0] != 3:
            raise DimensionError(f"sensitivity matrix must be 3 x B, got {self.matrix.shape}")
        if self.wavelengths.shape != (self.matrix.shape[1],):
            raise DimensionError(
                f"wavelength grid length {self.wavelengths.shape} does not match "
                f"{self.matrix.shape[1]} bands"
            )
        if not np.all(np.isfinite(self.matrix)) or not np.all(np.isfinite(self.wavelengths)):
            raise ValueError("sensitivity entries and wavelengths must be finite")
        if np.any(self.matrix < 0):
            raise ValueError("sensitivity entries must be nonnegative")
        if not np.all(self.matrix.max(axis=1) > 0):
            raise ValueError("each sensitivity channel needs at least one positive entry")
        if not np.all(np.diff(self.wavelengths) > 0):
            raise ValueError("wavelengths must be strictly increasing")

    @property
    def bands(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class Illuminant:
    """Relative spectral power of the scene illumination, length B, nonnegative."""

    spectrum: np.ndarray
    wavelengths: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "spectrum", _readonly(self.spectrum))
        object.__setattr__(self, "wavelengths", _readonly(self.wavelengths))
        if self.spectrum.ndim != 1:
            raise DimensionError(f"illuminant spectrum must be 1-d, got shape {self.spectrum.shape}")
        if self.wavelengths.shape != self.spectrum.shape:
            raise DimensionError("illuminant wavelengths must match spectrum length")
        if not np.all(np.isfinite(self.spectrum)) or not np.all(np.isfinite(self.wavelengths)):
            raise ValueError("illuminant entries and wavelengths must be finite")
        if np.any(self.spectrum < 0):
            raise ValueError("illuminant entries must be nonnegative")
        if not np.any(self.spectrum > 0):
            raise ValueError("illuminant must not be identically zero")

    @property
    def bands(self) -> int:
        return self.spectrum.shape[0]


@dataclass(frozen=True)
class ForwardOperator:
    """Linear spectra-to-RGB map: the 3 x B matrix phi."""

    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", _readonly(self.phi))
        if self.phi.ndim != 2 or self.phi.shape[0] != 3:
            raise DimensionError(f"phi must be 3 x B, got {self.phi.shape}")
        if not np.all(np.isfinite(self.phi)):
            raise ValueError("phi entries must be finite")

    @property
    def bands(self) -> int:
        return self.phi.shape[1]


@dataclass(frozen=True)
class SpectralCube:
    """B x N matrix of per-pixel spectra with spatial dims (h, w), N = h * w."""

    data: np.ndarray
    h: int
    w: int

    def __post_init__(self):
        object.__setattr__(self, "data", _readonly(self.data))
        if self.data.ndim != 2:
            raise DimensionError(f"cube data must be 2-d (B x N), got {self.data.shape}")
        b, n = self.data.shape
        if b < 1 or self.h < 1 or self.w < 1:
            raise DimensionError("cube dims must be >= 1")
        if n != self.h * self.w:
            raise DimensionError(f"N = {n} does not equal h * w = {self.h * self.w}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("cube values must be finite")

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def pixels(self) -> int:
        return self.data.shape[1]

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.bands, self.h, self.w)

    def to_bhw(self) -> np.ndarray:
        """View of the data as a (B, h, w) stack, row-major pixel order."""
        return self.data.reshape(self.bands, self.h, self.w)

    @classmethod
    def from_bhw(cls, stack) -> "SpectralCube":
        stack = np.asarray(stack, dtype=float)
        if stack.ndim != 3:
            raise DimensionError(f"expected a (B, h, w) stack, got shape {stack.shape}")
        b, h, w = stack.shape
        return cls(stack.reshape(b, h * w), h, w)


@dataclass(frozen=True)
class RgbImage:
    """3 x N matrix of sensor responses with spatial dims (h, w)."""

    data: np.ndarray
    h: int
    w: int

    def __post_init__(self):
        object.__setattr__(self, "data", _readonly(self.data))
        if self.data.ndim != 2 or self.data.shape[0] != 3:
            raise DimensionError(f"rgb data must be 3 x N, got {self.data.shape}")
        if self.h < 1 or self.w < 1 or self.data.shape[1] != self.h * self.w:
            raise DimensionError("rgb dims must satisfy N = h * w with h, w >= 1")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("rgb values must be finite")

    @property
    def pixels(self) -> int:
        return self.data.shape[1]

    def to_planes(self) -> np.ndarray:
        """View as a (3, h, w) stack."""
        return self.data.reshape(3, self.h, self.w)


def make_phi(s: Sensitivity, ell: Illuminant) -> ForwardOperator:
    """Build ``phi = S @ diag(ell)`` from a sensitivity and an illuminant."""
    if s.bands != ell.bands:
        raise DimensionError(f"band counts differ: sensitivity {s.bands}, illuminant {ell.bands}")
    if not np.array_equal(s.wavelengths, ell.wavelengths):
        raise DimensionError("sensitivity and illuminant wavelength grids differ")
    return ForwardOperator(s.matrix * ell.spectrum[None, :])


def apply_phi(op: ForwardOperator, y: SpectralCube) -> RgbImage:
    """Render the RGB observation ``X = phi @ Y``."""
    if y.bands != op.bands:
        raise DimensionError(f"cube has {y.bands} bands but operator expects {op.bands}")
    return RgbImage(op.phi @ y.data, y.h, y.w)


def apply_phi_adjoint(op: ForwardOperator, x: RgbImage) -> SpectralCube:
    """Apply the adjoint ``phi.T @ X``, lifting RGB back to band space."""
    return SpectralCube(op.phi.T @ x.data, x.h, x.w)


def estimate_phi_ls(x: RgbImage, y: SpectralCube, ridge: float = 0.0) -> ForwardOperator:
    """Ridge least-squares estimate of phi from a calibration pair.

    Solves ``min_phi ||phi Y - X||_F^2 + ridge * ||phi||_F^2`` through the
    normal equations.  Negative entries are kept (the algebraic minimizer is
    returned as-is); a warning reports them since a physical operator is
    nonnegative.

    Raises
    ------
    SingularSystemError
        If ``Y Y.T`` is numerically rank deficient and ``ridge == 0``.
    """
    if x.pixels != y.pixels:
        raise DimensionError(f"pixel counts differ: rgb {x.pixels}, cube {y.pixels}")
    ridge = float(ridge)
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    b = y.bands
    gram = y.data @ y.data.T + ridge * np.eye(b)
    if ridge == 0.0:
        eigs = np.linalg.eigvalsh(gram)
        if eigs[-1] <= 0 or eigs[0] <= b * np.finfo(float).eps * eigs[-1]:
            raise SingularSystemError(
                "Y @ Y.T is numerically singular; supply a positive ridge or richer calibration data"
            )
    rhs = y.data @ x.data.T  # B x 3
    phi = np.linalg.solve(gram, rhs).T
    if np.any(phi < 0):
        warnings.warn(
            f"estimated phi has {int(np.count_nonzero(phi < 0))} negative entries; "
            "kept as the least-squares minimizer",
            stacklevel=2,
        )
    return ForwardOperator(phi)


def spectral_norm_sq(op: ForwardOperator) -> float:
    """Largest squared singular value of phi, from LAPACK's SVD of the 3 x B matrix."""
    return float(np.linalg.norm(op.phi, 2) ** 2)
