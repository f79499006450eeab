"""salemlab: randomized Cantor measures with embedded arithmetic progressions,
and numerical verification of their Fourier-decay, additive-energy, and
restriction-norm inequalities.
"""

__version__ = "0.1.0"

from .params import ConstructionParams, ParamError, derive_params, make_progression
from .construction import (
    Construction, ConstructionError, LevelSet, build_construction,
    check_level_invariants, structured_atoms, structured_mask,
    verify_construction,
)
from .storage import (
    StorageError, load_construction, read_level, write_construction, write_level,
)
from .spectral import (
    SpectralError, Spectrum, compute_spectrum, decay_report, exp_sum, f_mu_hat,
    restricted_atoms, telescope_check, trivial_bound_check,
)
from .energy import (
    EnergyError, EnergyTable, bspline_integers, energy_lower_bound,
    exact_l2r_norm, l2r_lower_bound, sum_distribution,
)
from .norms import (
    NormError, NormEstimate, RatioReport, ball_condition_report, direct_mass,
    holder_chain_check, lp_norm, lp_norm_quadrature, lq_mass,
    restriction_ratio, thresholds,
)

__all__ = [
    "ConstructionParams", "ParamError", "derive_params", "make_progression",
    "Construction", "ConstructionError", "LevelSet", "build_construction",
    "check_level_invariants", "structured_atoms", "structured_mask",
    "verify_construction",
    "StorageError", "load_construction", "read_level", "write_construction",
    "write_level",
    "SpectralError", "Spectrum", "compute_spectrum", "decay_report",
    "exp_sum", "f_mu_hat", "restricted_atoms",
    "telescope_check", "trivial_bound_check",
    "EnergyError", "EnergyTable", "bspline_integers", "energy_lower_bound",
    "exact_l2r_norm", "l2r_lower_bound", "sum_distribution",
    "NormError", "NormEstimate", "RatioReport", "ball_condition_report",
    "direct_mass", "holder_chain_check", "lp_norm",
    "lp_norm_quadrature", "lq_mass", "restriction_ratio", "thresholds",
    "__version__",
]
