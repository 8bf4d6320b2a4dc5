import numpy as np
import pytest

from mrfrf import _accel
from mrfrf.errors import SimulationError
from mrfrf.loopsim import benchmark_loop, simulate
from mrfrf.multirate import SignalRecord


def _scalar_loop(a, r):
    """The kernel on a first-order plant x+ = a x + u under zero feedback."""
    F = 2
    n_fast = r.shape[0]
    eye1 = np.eye(1)
    zeros1 = np.zeros((1, 1))
    return _accel.multirate_loop(
        np.array([[a]]), eye1, eye1, zeros1,
        zeros1, zeros1, zeros1, eye1,
        zeros1, zeros1, zeros1, zeros1,
        eye1, F, r, np.zeros((n_fast, 1)), np.zeros((n_fast, 1)),
        np.zeros((n_fast // F, 1)))


def test_overflow_status_reported():
    u, y, yl, status = _scalar_loop(2.0, np.ones((4000, 1)))
    assert status >= 0


def test_nan_excitation_trips_guard():
    r = np.ones((40, 1))
    r[10] = np.nan
    assert _scalar_loop(0.5, r)[3] == 5
    assert _scalar_loop(0.5, np.ones((40, 1)))[3] == -1
    loop = benchmark_loop()
    data = np.zeros((2, 64))
    data[0, 7] = np.nan
    with pytest.raises(SimulationError, match="non-finite"):
        simulate(loop, SignalRecord(data, loop.plant.sample_time))
