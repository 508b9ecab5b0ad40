"""Self-similar Gaussian Markov processes: kernels, samplers, diagnostics."""

from .errors import NumericalError, ParameterError
from .gram import (GramMatrix, MinorQuery, PosDefReport, TimeGrid, build_gram,
                   gram_to_csv, lindstrom_minor, minor_residual, power_gram,
                   psd_check, standard_grid)
from .kernels import (L_FORM_FAMILIES, CovKernel, Family, GFunction,
                      ProcessSpec, eval_l, format_spec_string,
                      isometry_residual, make_kernel, parse_spec_string,
                      volterra_g_variance, volterra_kernel)
from .markov import (AsymReport, CanonicalFit, FactorizationResult,
                     MarkovReport, asym_coeff_estimate, doob_residual,
                     fit_canonical, gf_factorize, markov_test,
                     multiplicative_check, sqrt_diag_profile)
from .quadrature import QuadResult, integrate_power_upper
from .samplers import (SCHEMES, EmpiricalCov, PathEnsemble, SelfSimReport,
                       empirical_cov, ensemble_csv_lines, load_ensemble,
                       sample_spec, sample_timechange, save_ensemble,
                       selfsim_check)
from .variation import (ErgodicAverage, IncrementVariance, VariationReport,
                        ergodic_average, gaussian_abs_moment,
                        increment_variance, int_limit_residual,
                        pvariation_sum, pvariation_trichotomy,
                        variation_to_csv)

__version__ = "0.1.0"
