"""heterobaker: exact transfer-operator workbench for heterochaos baker maps.

The package computes correlation decay for the piecewise-affine baker
family on the cube through three cross-checked routes: exact rational
transfer operators on piecewise-constant functions, sparse Haar / square-
wave coefficient dynamics tied to the gambler's-ruin walk, and seeded
Monte Carlo over the exact orbit law.
"""

__version__ = "0.2.0"

from .baker import (BakerParams, BoundaryPoint, CenterType, Kind, Symbol,
                    apply_f2, apply_f3, apply_f3_inverse, apply_tau, classify,
                    itinerary_stats, orbit, tiling_report)
from .correlation import (CorrelationRecord, NonPositiveValue, NotMonotone,
                          NotMeasurePreserving, decay_slope_fit,
                          exact_reduced_correlation, exp_rate_fit,
                          lower_bound_check, mc_correlation,
                          mc_correlation_series, measure_invariance_chisq)
from .haar import (HaarExpansion, LevelComponents, TensorComponents, analyze,
                   analyze_general_M, analyze_levels, coefficient,
                   holder_bound_check, square_wave, synthesize, tensor_analyze,
                   tensor_synthesize, wavelet)
from .observables import Observable3D, affine_center, parse_observable, staircase4
from .pcfun import (PAFun1D, PCFun1D, PCFun2D, PCFun3D, frac, from_affine,
                    inner_product, inner_product_pa, mean, osc_norm_star,
                    project_zero_mean)
from .ruin import (RuinState, asymptotic_ratio_report, domination_check,
                   evolve_from, q_via_transition, step, transition_prob,
                   transition_prob_exact, transition_prob_float)
from .transfer import (FiberAverageNonZero, NotInSquareWaveSpan, ReducedOp,
                       component_split_apply, fiber_average_decay_check,
                       oracle_equivalence_report, p0_apply, p0_apply_pa,
                       p0_haar_step, p_alpha, p_beta, p_full_2d, p_full_3d,
                       p_hat_alpha, p_hat_beta, pi0)
from .verify import (check_formula_compositions, check_phat_sum,
                     check_reduction, project_xc, run_identity_suite)
