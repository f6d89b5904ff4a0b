"""Physics-grounded RGB-to-spectral reconstruction with a low-rank prior.

The package solves ``min_Y 0.5 ||phi Y - X||_F^2 + lam ||Y||_*`` by a
staged proximal-gradient loop whose proximal step shrinks singular values
inside an adaptively selected subspace instead of running a full SVD.
"""

from .data_io import (
    SceneSpec,
    flat_illuminant,
    load_phi,
    read_cube,
    read_rgb,
    save_phi,
    synth_css,
    synth_scene,
    wavelength_grid,
    write_cube,
    write_rgb,
)
from .forward_model import (
    ForwardOperator,
    Illuminant,
    RgbImage,
    Sensitivity,
    SpectralCube,
    apply_phi,
    apply_phi_adjoint,
    estimate_illuminant,
    estimate_phi_ls,
    load_illuminant,
    load_sensitivity,
    make_phi,
    save_illuminant,
    save_sensitivity,
    spectral_norm_sq,
)
from .lrsp import (
    EXACT_GATE_BETA,
    LrspConfig,
    LrspDiagnostics,
    LrspState,
    Selector,
    SubspaceBasis,
    build_selector,
    column_importance,
    fusion_weights,
    lrsp_apply,
    orthonormal_subspace,
    residual_ratio,
    score_columns,
    soft_topk,
    sparse_pool,
    subspace_proximal,
    temperature,
)
from .metrics import (
    MetricReport,
    ciede2000_lab,
    delta_e00,
    linear_srgb_to_lab,
    mse_map,
    psnr,
    sam,
    ssim,
)
from .solver import (
    InitMode,
    SolveReport,
    SolverConfig,
    gradient_step,
    initialize,
    objective,
    unfold_solve,
)
from .svt import nuclear_norm, numerical_rank, svt_full, svt_gram

__version__ = "0.1.0"
