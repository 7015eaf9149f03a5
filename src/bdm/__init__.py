"""Boundary data maps for one-dimensional Schrodinger operators on [0, R].

Robin-to-Robin maps, Weyl-Titchmarsh functions, spectra, Green's functions
and Krein resolvent corrections, with exact free-problem and
transfer-matrix oracles and a cross-identity verification suite.
"""

__version__ = "0.1.0"

from .bdmap import (BoundaryDataMap, asymptotic_reference, bdmap_general,
                    bdmap_robin, herglotz_imag, m_minus, m_plus,
                    measure_point_mass)
from .errors import (AccuracyError, BdmError, ConfigError, ContourError,
                     DegenerateError, DomainError, EigenvalueHitError,
                     NumericalError, PoleHitError, SearchFailureError,
                     StiffnessError)
from .lft import Block4, connector, moebius
from .odecore import (CauchyData, FundamentalEval, char_det,
                      fundamental_system, propagate)
from .potential import (PotentialSpec, closed_form_f, closed_form_g,
                        eval_potential, oracle_bdmap_zero, oracle_green_zero,
                        sqrt_upper, transfer_matrix_piecewise)
from .resolvent import (GreenEval, RankTwoKernel, adjoint_trace_kernel,
                        gamma_resolvent_rows, green, krein_correction,
                        krein_kernel)
from .spectrum import (SpectrumResult, count_zeros_rectangle, eig_rectangle,
                       eig_selfadjoint)
from .traces import (AnglePair, AngleQuad, diag_cos, diag_sin,
                     normalize_strip, quad, trace_gamma)
from .verify import IdentityResult, run_suite
from .weyl import WTMatrix, green_link_check, interior_m, wt_m, wt_matrix
