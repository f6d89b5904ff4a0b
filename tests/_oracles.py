"""Reference helpers that only the tests use.

Importable from every test module because pytest puts ``tests/`` on
``sys.path`` when it collects them.
"""

import numpy as np

# Gate argument whose sigmoid rounds to exactly 1.0 in double precision while
# keeping the state finite; used for the exactness regime.
EXACT_GATE_BETA = 50.0


def numerical_rank(m) -> int:
    """Rank with the standard tolerance max(d, n) * eps * sigma_max."""
    a = np.asarray(m, dtype=float)
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    tol = max(a.shape) * np.finfo(float).eps * s[0]
    return int(np.count_nonzero(s > tol))
