"""What the benchmark harness under perfbench/ relies on in mrfrf.

perfbench/ is read here, never changed: it wraps mrfrf functions at the
attributes their callers resolve, and counts loop samples from the
excitation argument of the loop kernel.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from mrfrf import _accel
from mrfrf import io as mio

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves_to_a_callable():
    points = _perfbench_module("spans").TRACE_POINTS
    assert points
    for module, attr, _name, _count in points:
        assert callable(getattr(importlib.import_module(module), attr)), \
            f"{module}.{attr}"


def test_loop_kernel_takes_the_excitation_fifteenth():
    params = list(inspect.signature(_accel.multirate_loop).parameters)
    assert params.index("r") == 14


def test_averaged_scenario_document_loads():
    # every key of the cli-averaged workload's document is one the loader
    # knows, so it loads without a ConfigError
    doc = _perfbench_module("workloads").averaged_scenario_doc(1234)
    scenario = mio.scenario_from_dict(doc)
    assert scenario.periods == 24 and scenario.excitation.n_samples == 1800
