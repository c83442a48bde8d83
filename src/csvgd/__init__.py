"""Condensed Stein variational gradient descent.

A particle-ensemble method that concurrently trains, sparsifies, and aligns
feed-forward networks under sparsifying priors, yielding parameter-level
uncertainty estimates.  See README.md for the experiment CLI.
"""

from .engine import (Ensemble, RunReport, StageReport, SvgdConfig,
                     active_param_count, condense_ensemble, init_net_ensemble,
                     init_vector_ensemble, load_checkpoint, resume_csvgd,
                     run_csvgd, run_stage, save_checkpoint, stein_gradient,
                     svgd_step)
from .errors import (CheckpointError, CondenseError, DomainError,
                     NonFiniteGradientError, ShapeError)
from .kernels import KernelSpec, median_bandwidth
from .likelihoods import MvnTarget, RegressionTarget
from .mechanics import Dataset, save_dataset
from .metrics import (GaussianSummary, PushforwardReference, bhattacharyya,
                      moving_average, pushforward_w1, sparsity_l1)
from .network import LayeredNet, Layout, forward_pass, permute_hidden
from .priors import PriorSpec, prior_constants, prior_score

__version__ = "0.1.0"
