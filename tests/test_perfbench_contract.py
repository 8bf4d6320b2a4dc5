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

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves_to_a_callable():
    points = _spans_module().TRACE_POINTS
    assert points
    for module, attr, _name, _count in points:
        assert callable(getattr(importlib.import_module(module), attr)), \
            f"{module}.{attr}"


def test_loop_kernel_takes_the_excitation_fifteenth():
    params = list(inspect.signature(_accel.multirate_loop).parameters)
    assert params.index("r") == 14
