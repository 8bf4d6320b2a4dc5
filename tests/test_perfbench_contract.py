"""What the benchmark harness under perfbench/ relies on in mrfrf.

perfbench/ is read here, never changed: it wraps mrfrf functions at the
attributes their callers resolve, and counts loop samples from the
excitation argument of the loop kernel.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from mrfrf import _accel
from mrfrf import io as mio
from mrfrf.lrm import LocalModelConfig, sweep_bins
from mrfrf.validate import random_spectra

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


def test_fit_counts_of_a_sweep_are_json_numbers():
    # the trace counts a sweep's fits from its results and dumps them as
    # JSON, so each result's failed and fallback must be Python bools: a NaN
    # fails bin 10, and a threshold of 1 sends bin 30 to the fallback
    rng = np.random.default_rng(11)
    cfg = LocalModelConfig(degree_num=1, degree_transient=1, degree_den=1,
                           half_window=5, condition_threshold=1.0)
    R = random_spectra(rng, 1, 40)
    Z = random_spectra(rng, 2, 40)
    Z[0, 10] = np.nan
    with pytest.warns(RuntimeWarning, match="falling back"):
        out = sweep_bins(Z, R, [10, 30], cfg)
    counts = _perfbench_module("spans")._fits((), {}, out)
    assert json.loads(json.dumps(counts)) == {"fits": 2, "failed": 1,
                                              "fallback": 1}
