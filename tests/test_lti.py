import numpy as np
import pytest

from mrfrf.errors import LtiError, PoleOnGridError
from mrfrf.lti import (RationalTF, StateSpace, assert_stable,
                       benchmark_controller, dft_grid, filter_signal,
                       freq_response, system_from_dict, system_to_dict,
                       to_state_space)
from mrfrf.multirate import SignalRecord
from mrfrf.validate import random_stable_plant


def test_static_gain_any_grid():
    sys = RationalTF.static_gain(2.5, 1e-3)
    grid = np.array([0.0, 13.7, 400.0])
    frf = freq_response(sys, grid)
    assert np.allclose(frf.values[:, 0, 0], 2.5)


def test_unit_delay_response():
    ts = 1e-4
    sys = RationalTF.siso([0.0, 1.0], [1.0], ts)
    grid = dft_grid(32, ts)
    frf = freq_response(sys, grid)
    assert np.allclose(frf.values[:, 0, 0], np.exp(-1j * grid * ts))


@pytest.mark.parametrize("variant", ["q2", "literal"])
def test_velocity_controller_dc_value(variant):
    # hand evaluation at omega = 0: numerator coefficients sum to 0.04,
    # denominator to 0.11, for either reading of the repeated numerator term
    ts = 1.0 / 50400.0
    c = benchmark_controller(ts, variant)
    frf = freq_response(c, np.array([0.0]))
    assert frf.values[0, 1, 0] == pytest.approx(0.04 / 0.11, rel=1e-12)


def test_benchmark_controller_shape_and_variants():
    ts = 1.0 / 50400.0
    c = benchmark_controller(ts)
    assert (c.n_outputs, c.n_inputs) == (2, 1)
    with pytest.raises(LtiError):
        benchmark_controller(ts, "bogus")


def test_denominator_must_be_monic():
    with pytest.raises(LtiError):
        RationalTF.siso([1.0], [2.0, 1.0], 1e-3)


def test_conjugate_symmetry_real_systems():
    rng = np.random.default_rng(5)
    for _ in range(10):
        sys = random_stable_plant(rng, 2, 2, order=4)
        n = 48
        frf = freq_response(sys, dft_grid(n, sys.sample_time))
        for k in range(1, n):
            assert np.allclose(frf.values[k], np.conj(frf.values[n - k]),
                               atol=1e-12)


def test_realization_equivalence_random_systems():
    rng = np.random.default_rng(11)
    grid = dft_grid(64, 1.0)
    for _ in range(100):
        sys = random_stable_plant(rng, 2, 2, order=8)
        f1 = freq_response(sys, grid)
        f2 = freq_response(to_state_space(sys), grid)
        scale = np.abs(f1.values).max()
        assert np.abs(f1.values - f2.values).max() < 1e-10 * scale


def test_realization_numerator_longer_than_denominator():
    ts = 1e-3
    sys = RationalTF.siso([0.5, 0.0, 0.0, 1.5], [1.0, -0.2], ts)
    grid = dft_grid(32, ts)
    f1 = freq_response(sys, grid)
    f2 = freq_response(to_state_space(sys), grid)
    assert np.abs(f1.values - f2.values).max() < 1e-12


def test_to_state_space_static_and_delay():
    ss = to_state_space(RationalTF.static_gain(3.0, 1.0))
    assert ss.n_states == 0
    assert ss.D[0, 0] == 3.0
    delay = to_state_space(RationalTF.siso([0.0, 1.0], [1.0], 1.0))
    assert delay.n_states == 1
    grid = dft_grid(16, 1.0)
    frf = freq_response(delay, grid)
    assert np.allclose(frf.values[:, 0, 0], np.exp(-1j * grid))


def test_pole_on_unit_circle_error_names_bin():
    ts = 1.0
    sys = RationalTF.siso([1.0], [1.0, -1.0], ts)  # pole at z = 1, bin 0
    with pytest.raises(PoleOnGridError, match="bin 0"):
        freq_response(sys, dft_grid(8, ts))


def test_filter_zero_input_and_delay():
    ts = 1e-3
    delay = RationalTF.siso([0.0, 1.0], [1.0], ts)
    zero = SignalRecord(np.zeros((1, 5)), ts)
    assert np.all(filter_signal(delay, zero).data == 0.0)
    x = SignalRecord(np.array([[1.0, 2.0, 3.0]]), ts)
    y = filter_signal(delay, x)
    assert np.allclose(y.data, [[0.0, 1.0, 2.0]])


def test_filter_fir_matches_convolution():
    ts = 1e-3
    rng = np.random.default_rng(2)
    u = rng.standard_normal(40)
    sys = RationalTF.siso([1.0, 0.5], [1.0], ts)
    y = filter_signal(sys, SignalRecord(u[None, :], ts)).data[0]
    ref = np.convolve(u, [1.0, 0.5])[:40]
    assert np.abs(y - ref).max() < 1e-14


def test_filter_linearity():
    ts = 1e-3
    rng = np.random.default_rng(3)
    sys = random_stable_plant(rng, 1, 1, order=3, sample_time=ts)
    u1 = SignalRecord(rng.standard_normal((1, 64)), ts)
    u2 = SignalRecord(rng.standard_normal((1, 64)), ts)
    a, b = 1.7, -0.4
    mix = SignalRecord(a * u1.data + b * u2.data, ts)
    lhs = filter_signal(sys, mix).data
    rhs = a * filter_signal(sys, u1).data + b * filter_signal(sys, u2).data
    assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(lhs).max())


def test_filter_matches_lfilter_on_a_two_by_two_plant():
    # an IIR reference independent of the state-space recursion: each output
    # is the sum over inputs of scipy's direct-form filter of its entry
    signal = pytest.importorskip("scipy.signal")
    ts = 1e-3
    rng = np.random.default_rng(8)
    sys = random_stable_plant(rng, 2, 2, order=4, sample_time=ts)
    u = rng.standard_normal((2, 500))
    y = filter_signal(sys, SignalRecord(u, ts)).data
    ref = np.array([sum(signal.lfilter(sys.num[i][j], sys.den[i][j], u[j])
                        for j in range(2)) for i in range(2)])
    assert np.abs(y - ref).max() < 1e-12 * np.abs(ref).max()


def test_filter_rate_mismatch():
    sys = RationalTF.static_gain(1.0, 1e-3)
    with pytest.raises(LtiError, match="rate mismatch"):
        filter_signal(sys, SignalRecord(np.ones((1, 4)), 2e-3))
    with pytest.raises(LtiError, match="channel count"):
        filter_signal(sys, SignalRecord(np.ones((2, 4)), 1e-3))


def test_assert_stable():
    stable = RationalTF.siso([1.0], [1.0, -0.5], 1.0)
    assert_stable(stable)
    unstable = RationalTF.siso([1.0], [1.0, -1.0], 1.0)
    with pytest.raises(LtiError, match="not strictly stable"):
        assert_stable(unstable)


def test_state_space_dimension_checks():
    with pytest.raises(LtiError):
        StateSpace(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)),
                   np.zeros((1, 1)), 1.0)
    with pytest.raises(LtiError):
        StateSpace(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)),
                   np.zeros((2, 2)), 1.0)


def test_system_json_roundtrip_and_field_names():
    ts = 1.0 / 100800.0
    sys = RationalTF((((1.0, 0.2), (0.5,)),), (((1.0, -0.3), (1.0,)),), ts)
    doc = system_to_dict(sys)
    assert set(doc) == {"num", "den", "ts", "shape"}
    assert doc["ts"] == ts
    back = system_from_dict(doc)
    assert back.n_outputs == 1 and back.n_inputs == 2
    for i in range(1):
        for j in range(2):
            assert np.array_equal(back.num[i][j], sys.num[i][j])
            assert np.array_equal(back.den[i][j], sys.den[i][j])
    # a document without shape is read as one output row
    flat = {"num": [[2.0]], "den": [[1.0]], "ts": 0.5}
    siso = system_from_dict(flat)
    assert (siso.n_outputs, siso.n_inputs) == (1, 1)
