"""qcircle: orthogonal polynomials and biorthogonal rational functions on
the unit circle, with ladder operators and a quadrature engine that
certifies their identities to numerical tolerance.
"""

from .circle import (CircleGrid, LaurentPoly, contour_mean, dq_apply,
                     inner_product_c, laurent_dq, tq_apply, tq_iterate)
from .errors import (DegenerateParameters, EigenpairInvalid, NonConvergent,
                     PoleInDenominator, QCircleError, UnbalancedParameters,
                     WeightUnderflow)
from .qcore import (jacobi_triple_product, phi, qpochhammer, qpochhammer_inf,
                    qmultipochhammer, theta_sum)
from .report import IdentityReport
from .biortho import (BiorthoParams, biortho_gram, biortho_weight,
                      kappa_closed, r_fn, s_fn, sears_check)
from .szego import szego_gram, szego_weight, sturm_liouville_eigenvalue
from .qsl import m_apply

__version__ = "0.1.0"

__all__ = [
    "qpochhammer", "qpochhammer_inf", "qmultipochhammer",
    "phi", "theta_sum", "jacobi_triple_product",
    "CircleGrid", "LaurentPoly", "contour_mean", "inner_product_c",
    "dq_apply", "tq_apply", "tq_iterate", "laurent_dq",
    "szego_weight", "szego_gram",
    "sturm_liouville_eigenvalue",
    "BiorthoParams", "r_fn", "s_fn", "biortho_weight", "kappa_closed",
    "biortho_gram", "sears_check",
    "m_apply",
    "IdentityReport",
    "QCircleError", "NonConvergent", "PoleInDenominator",
    "UnbalancedParameters", "DegenerateParameters", "WeightUnderflow",
    "EigenpairInvalid",
]
