"""Noncommutative measure numerics on the truncated full Fock space.

Converts between contractive NC symbols, NC Herglotz functions, and NC
measures; computes the NC Lebesgue decomposition mu = mu_ac + mu_s by the
coupled resolvent limit; factors eps I + T_tau for a positive measure tau;
and cross-validates everything against the classical one-variable theory.
"""

from .factor import FactorResult, outer_factor
from .fock import FockVector, TruncatedOperator, left_shift, right_shift
from .lebesgue import (RNResult, Schedule, StageRecord, fatou_form_check,
                       majorant_check, rn_derivative)
from .measure import (GramMatrix, MomentFunctional, PositivityReport,
                      clark_measure, gram, herglotz_eval, herglotz_transform,
                      hermitian_floor, is_positive, nc_lebesgue,
                      quadratic_form, radial_measure, read_moments_csv,
                      sos_split, vector_state)
from .oracle1d import (MeasureSpec, classical_moments, circle_grid,
                       fatou_symbol, fourier_coefficients, poisson_density,
                       toeplitz_from_symbol)
from .series import (EvalResult, MatrixPoint, NCSeries, cayley_to_herglotz,
                     cayley_to_schur, evaluate, invert, kernel_identity,
                     radial_scale, read_series_csv, series_at_right_shifts,
                     szego_kernel, szego_kernel_matrix, transpose_conjugate)
from .words import Word, WordBasis, transpose, word_count

__version__ = "0.1.0"
