"""The benchmark's tracer wraps roagrow's entry points by name and reads one
that is gone as 0 calls, so a renamed or deleted entry point would zero its
metrics without an error.  Every name it wraps must resolve."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# deleted from roagrow; the tracer still names them, so their metrics read 0
KNOWN_DEAD = {"policy_updater.signal_diagnostics", "lyapunov.backward"}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER_MODULE = _tracer()
POINTS = [p for kind in ("STAGE_POINTS", "SPAN_POINTS", "HOT_POINTS")
          for p in getattr(TRACER_MODULE, kind)]


@pytest.mark.parametrize("owner, attr, name", [p[:3] for p in POINTS],
                         ids=[f"{p[2]}@{getattr(p[0], '__name__', p[0])}.{p[1]}"
                              for p in POINTS])
def test_every_traced_entry_point_resolves(owner, attr, name):
    # the tracer looks in the owner's own namespace, not in its bases
    if name in KNOWN_DEAD:
        assert attr not in owner.__dict__, f"{name} is back; take it off KNOWN_DEAD"
    else:
        assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr}"


def test_the_tracer_names_every_stage():
    names = {p[2] for p in TRACER_MODULE.STAGE_POINTS}
    assert names == {"experiment.pretrain_net", "roa_estimator.estimate_roa",
                     "oracle.true_roa", "policy_updater.update_policy"}
