"""Exact reconstruction stencils for finite-volume schemes.

Everything symbolic is computed in rational arithmetic: deconvolution
coefficients, inverse Vandermonde matrices on arbitrary contiguous
stencils, interpolating and reconstructing basis polynomials, truncation
error expansions, substencil weight-functions with pole certificates, and
smoothness-indicator quadratic forms.  A small floating-point harness
measures observed convergence orders against the closed-form exponential
reference pair.
"""

from .deconv import (
    deconv_forward_coeff,
    deconv_inverse_coeff,
    double_forward_coeff,
    double_inverse_coeff,
    shifted_taylor_poly,
    tau,
)
from .exact import (
    ExactRational,
    InvariantError,
    RatFunction,
    RatPoly,
    ValidationError,
    cauchy_root_bound,
    poly_definite_integral,
    poly_eval,
    poly_gcd,
    square_free_part,
    sturm_real_root_count,
)
from .harness import (
    ConvergenceReport,
    SampleSet,
    convergence_study,
    derivative_coeffs,
    exp_cell_average,
    exp_pair_reference,
    g_tau_float,
    halving_slope,
    non_interpolation_check,
    reconstruct_face,
)
from .recon import (
    PairCoeffs,
    ReconstructionBasis,
    basis,
    face_coeffs,
    pair_f_from_h,
    pair_h_from_f,
    poly_sliding_average,
)
from .vandermonde import (
    CoeffTable,
    Stencil,
    inv_vandermonde,
    nu,
)
from .weno import (
    ErrorExpansion,
    Lambda,
    PoleReport,
    PositivityRow,
    SmoothnessForm,
    WeightFamily,
    beta_form,
    error_expansion,
    lambda_f,
    lambda_h,
    mu_f,
    mu_h,
    positivity_scan,
    sigma_pole_analysis,
    sigma_values_at_half,
    sigma_weights,
    substencil,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceReport",
    "CoeffTable",
    "ErrorExpansion",
    "ExactRational",
    "InvariantError",
    "Lambda",
    "PairCoeffs",
    "PoleReport",
    "PositivityRow",
    "RatFunction",
    "RatPoly",
    "ReconstructionBasis",
    "SampleSet",
    "SmoothnessForm",
    "Stencil",
    "ValidationError",
    "WeightFamily",
    "basis",
    "beta_form",
    "cauchy_root_bound",
    "convergence_study",
    "deconv_forward_coeff",
    "deconv_inverse_coeff",
    "derivative_coeffs",
    "double_forward_coeff",
    "double_inverse_coeff",
    "error_expansion",
    "exp_cell_average",
    "exp_pair_reference",
    "face_coeffs",
    "g_tau_float",
    "halving_slope",
    "inv_vandermonde",
    "lambda_f",
    "lambda_h",
    "mu_f",
    "mu_h",
    "non_interpolation_check",
    "nu",
    "pair_f_from_h",
    "pair_h_from_f",
    "poly_definite_integral",
    "poly_eval",
    "poly_gcd",
    "poly_sliding_average",
    "positivity_scan",
    "reconstruct_face",
    "shifted_taylor_poly",
    "sigma_pole_analysis",
    "sigma_values_at_half",
    "sigma_weights",
    "square_free_part",
    "sturm_real_root_count",
    "substencil",
    "tau",
]
