"""Higher order Riesz transforms for Hermite and Laguerre expansions.

The transforms are computed two independent ways, spectrally and as
principal-value singular integrals, and every finite identity, kernel
formula and estimate the construction rests on is verifiable at desk
scale: exactly (rational arithmetic) where the statement is algebraic,
numerically with stated tolerances where it is analytic.
"""

from .basis import (BasisTag, SmoothFunction, SpectralCoeffs, analyze,
                    apply_D_alpha, apply_D_alpha_star, apply_H, apply_L_alpha,
                    hermite_fn, phi_fn, synthesize)
from .combinat import (Rational, a_sum, bracket_coeff, e_coeff,
                       identity_2_3_check, lemma_n1_check)
from .kernels import (KernelSpec, d_alpha_pow_k_heat, d_plus_x_pow_l_heat,
                      frac_kernel, heat_kernel_hermite, heat_kernel_laguerre,
                      riesz_kernel_hermite, riesz_kernel_laguerre)
from .operators import (PVResult, WeightedNorm, bump, hardy0, hardy_inf,
                        heat_apply, negative_power, phi_limit, pv_apply,
                        riesz_apply_laguerre_spectral, riesz_spectral_hermite,
                        weighted_norm, wk)
from .specfun import (QuadratureRule, alpha_value, bessel_i, bessel_i_scaled,
                      gamma, hermite_poly, laguerre_poly, log_gamma)
from .verify import (BoundCheckReport, LpScanReport, check_maximal_domination,
                     check_prop31, check_prop33, lp_scan)

__version__ = "0.1.0"
