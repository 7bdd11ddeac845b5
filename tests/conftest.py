import os

# one BLAS thread, set before numpy loads: the suite's timings stay stable
# with other work beside it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np
import pytest

from roagrow.config import RedesignConfig
from roagrow.dynamics import closed_loop
from roagrow.experiment import _design_lqr, pretrain_net
from roagrow.lyapunov import PDLyapunovNet


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process, running or unreaped: the
    oracle forks, and a run must reap what it starts on every path."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process "
                + (f"(reaped now: {pid})" if pid else "that is still running"))


@pytest.fixture(scope="session")
def cfg():
    return RedesignConfig()


@pytest.fixture(scope="session")
def params(cfg):
    return cfg.pendulum_params()


@pytest.fixture(scope="session")
def grid(cfg):
    return cfg.grid()


@pytest.fixture(scope="session")
def lqr(cfg):
    return _design_lqr(cfg)


@pytest.fixture(scope="session")
def initial_policy(cfg, lqr):
    return cfg.initial_policy(lqr[0])


@pytest.fixture(scope="session")
def f_initial(initial_policy, params):
    return closed_loop(initial_policy, params)


@pytest.fixture(scope="session")
def small_net():
    """A fresh random net, cheap enough for gradient oracles."""
    return PDLyapunovNet.initialize(np.random.default_rng(7))


@pytest.fixture(scope="session")
def pretrained(cfg):
    """Fully pretrained net (session-scoped, ~10 s)."""
    rng = np.random.default_rng(cfg.seed)
    return pretrain_net(cfg, rng)


@pytest.fixture(scope="session")
def pretrained_level(pretrained, grid, f_initial):
    """V of the pretrained net at the cell centres and its line-searched
    level under the initial policy."""
    from roagrow.roa_estimator import line_search_level

    centers = grid.centers()
    v = pretrained[0].value(centers)
    return v, line_search_level(pretrained[0], v, f_initial(centers), grid)


# -- end-to-end runs shared by the acceptance suite and trend tests ----------

ACCEPT_SEED = 1
ACCEPT_PHASES = 7


@pytest.fixture(scope="session")
def run_thresholds(tmp_path_factory):
    from roagrow.experiment import run_redesign

    out = tmp_path_factory.mktemp("run_thresholds")
    run_cfg = RedesignConfig(phases=ACCEPT_PHASES, seed=ACCEPT_SEED,
                             out_dir=str(out))
    return run_cfg, run_redesign(run_cfg)


@pytest.fixture(scope="session")
def run_no_monot(tmp_path_factory):
    from roagrow.experiment import run_redesign

    out = tmp_path_factory.mktemp("run_no_monot")
    run_cfg = RedesignConfig(phases=ACCEPT_PHASES, seed=ACCEPT_SEED,
                             lambda_monot=0.0, out_dir=str(out))
    return run_cfg, run_redesign(run_cfg)


@pytest.fixture(scope="session")
def run_slopes(tmp_path_factory):
    from roagrow.experiment import run_redesign

    out = tmp_path_factory.mktemp("run_slopes")
    run_cfg = RedesignConfig(phases=ACCEPT_PHASES, seed=ACCEPT_SEED,
                             variant="slopes", out_dir=str(out))
    return run_cfg, run_redesign(run_cfg)
