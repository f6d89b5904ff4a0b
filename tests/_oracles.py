"""Reference helpers that only the tests use.

Importable from every test module because pytest puts ``tests/`` on
``sys.path`` when it collects them.
"""

import numpy as np

from specrank.forward_model import SpectralCube, spectral_norm_sq
from specrank.lrsp import LrspDiagnostics, lrsp_apply
from specrank.solver import data_fidelity, gradient_step, initialize
from specrank.svt import nuclear_norm, svt_gram

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


def reference_solve(x, op, config):
    """The stage loop of unfold_solve as it was built, on the B x N cube:
    gradient_step, the proximal, a SpectralCube per stage, then
    data_fidelity and nuclear_norm.  Returns the cube, the objectives, the
    fidelities, the step sizes and the proximal diagnostics."""
    if config.eta == "auto":
        etas = (1.0 / spectral_norm_sq(op),) * config.stages
    elif np.isscalar(config.eta):
        etas = (float(config.eta),) * config.stages
    else:
        etas = tuple(config.eta)
    y = initialize(x, op, config.init)
    state = None
    objectives, fidelities, diags = [], [], []
    for k in range(config.stages):
        u = gradient_step(y, op, x, etas[k]).data
        if config.lrsp is None:
            out, diag = svt_gram(u, config.lam * etas[k]), LrspDiagnostics((), 0)
        else:
            out, state, diag = lrsp_apply(u, config.lam * etas[k], config.lrsp, state)
        y = SpectralCube(out, x.h, x.w)
        fid = data_fidelity(y, op, x)
        objectives.append(fid + config.lam * nuclear_norm(y.data))
        fidelities.append(fid)
        diags.append(diag)
    return y, tuple(objectives), tuple(fidelities), etas, diags


def untimed(diag):
    """The fields of each inner step of ``diag`` that do not depend on timing."""
    return [(s.t, s.tau, s.beta, s.rho_hat, s.weight, s.n_completed) for s in diag.steps]
