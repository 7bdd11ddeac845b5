"""Iterative RoA enlargement: learn a Lyapunov inner estimate of a
controller's region of attraction, then update the controller to grow it."""

from .config import RedesignConfig, parse_config, dump_config
from .dynamics import (PendulumParams, LinearModel, closed_loop, dare_lqr,
                       linearize, pendulum_deriv, step_euler)
from .grid import GridDomain
from .lyapunov import PDLyapunovNet, load_net, pretrain_quadratic, save_net
from .oracle import RoaMask, true_roa
from .policy import SatParams, SatPolicy, crop_update, policy_eval, policy_grad_psi, sat
from .roa_estimator import (LevelSetEstimate, estimate_roa, label_batch,
                            line_search_level, sample_mixture)
from .policy_updater import sample_policy_batch, update_policy

__version__ = "0.1.0"
