"""Higher order Riesz transforms for Hermite and Laguerre expansions.

The transforms are computed two independent ways, spectrally and as
principal-value singular integrals, and every finite identity, kernel
formula and estimate the construction rests on is verifiable at desk
scale: exactly (rational arithmetic) where the statement is algebraic,
numerically with stated tolerances where it is analytic.
"""

from .basis import BasisTag, SpectralCoeffs, analyze, synthesize
from .combinat import (a_sum, bracket_coeff, e_coeff, identity_2_3_check,
                       lemma_n1_check)
from .kernels import (KernelSpec, heat_kernel_hermite, heat_kernel_laguerre,
                      kernel_value)
from .operators import (PVResult, bump, hardy0, hardy_inf, negative_power,
                        phi_limit, pv_apply, riesz_apply_laguerre_spectral,
                        riesz_spectral_hermite, weighted_norm, wk)
from .specfun import (alpha_value, bessel_i_scaled, gamma, hermite_poly,
                      log_gamma)
from .verify import (BoundCheckReport, LpScanReport, check_maximal_domination,
                     check_prop31, check_prop33, lp_scan)

__version__ = "0.1.0"
