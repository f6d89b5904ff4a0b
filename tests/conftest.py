import numpy as np
import pytest


def _close_gap_phi(seed, b=31, gap=1e-4):
    """A 3 x b operator whose two largest singular values are ``gap`` apart."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((b, 3)))
    return (u * np.array([1.0, 1.0 - gap, 0.3])) @ v.T


@pytest.fixture
def close_gap_phi():
    """Builder of 3 x B operators with nearly equal top singular values."""
    return _close_gap_phi
