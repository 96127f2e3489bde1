"""Finite-basis physics-informed networks trained as an overlapping Schwarz
method on 1D ODEs."""

from .decomposition import (CollocationSets, Decomposition, Interval, Subdomain,
                            build_decomposition, build_decomposition_from_width,
                            classify_points, sample_collocation, window,
                            window_table)
from .networks import (MlpParams, NumericalFailureError, ParamGradient,
                       eval_batch, init_params, loss_gradient,
                       params_from_jsonable, params_to_jsonable)
from .optimizers import Adam, GradientDescent, make_optimizer
from .problems import (HardConstraint, OdeProblem, SoftConstraint,
                       UndefinedL2Error, make_single_frequency,
                       make_two_frequency, tanh_constraint)
from .scheduling import (ActiveSet, Schedule, active_set, alternating_schedule,
                         colored_schedule, explicit_schedule, parallel_schedule)
from .training import (FbpinnState, LossBreakdown, OverlapCache, RunReport,
                       create_state, global_loss, local_loss,
                       refresh_overlap_cache, solution_values, train,
                       train_coarse_then_local, train_pinn, train_round)

__version__ = "0.1.0"
