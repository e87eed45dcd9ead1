"""Numerical toolkit for state-dependent jump processes: symbol models,
frequency envelopes, heat-kernel and characteristic-function bounds,
path-property criteria, and Monte Carlo validation."""

__version__ = "0.1.0"

from .criteria import (
    CriterionReport,
    bump_constant,
    char_fn_bound,
    exit_time_bound,
    frequency_criteria,
    heat_exponent_fit,
    heat_kernel_sup_bound,
    local_time_fourier_bound,
    occupation_bound,
    stable_like_tail_transience,
    test_local_times,
    test_transience,
    test_ultracontractivity,
)
from .empirics import (
    empirical_char_fn,
    exit_frequency,
    generator_finite_difference,
    occupation_fourier_check,
    validate_char_bound,
)
from .ensemble_io import export_csv, file_checksum, read_ensemble, write_ensemble
from .envelopes import Envelope, build_envelope
from .errors import ConfigError, NumericalError
from .quadrature import IntegralResult, classify_improper, integrate_radial
from .simulate import (
    PathEnsemble,
    sample_positive_stable,
    sample_stable,
    simulate_levy,
    simulate_stable_like,
    symmetrize_paths,
)
from .symbol_checks import check_bounded_coefficients, check_sqrt_subadditivity
from .symbols import (
    BernsteinSpec,
    LevyCharacteristics,
    StableLikeSpec,
    SymbolModel,
    alpha_stable,
    brownian,
    cauchy,
    closed_form_symbol,
    compound_poisson,
    eval_symbol,
    levy_symbol,
    stable_like_constant,
    stable_like_symbol,
    subordinate,
    symmetrize,
    validate_model,
    zero_symbol,
)

# the names imported above from the submodules
__all__ = ["__version__"] + [
    name for name, obj in globals().items()
    if str(getattr(obj, "__module__", "")).startswith("fellerkit.")
]
