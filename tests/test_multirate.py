import numpy as np
import pytest

from mrfrf.errors import RateError, SimulationError
from mrfrf.lti import RationalTF, dft_grid, filter_signal, freq_response
from mrfrf.multirate import (SignalRecord, downsample, lift, lift_frf,
                             lift_loop_state_space, lifted_loop_frf,
                             upsample_zoh, zero_insert)
from mrfrf.validate import (lift_roundtrip_error, lifted_structure_error,
                            noble_error, random_stable_plant)


def rec(data, ts=1e-3, **kw):
    return SignalRecord(np.asarray(data, dtype=float), ts, **kw)


def test_downsample_examples():
    assert np.array_equal(downsample(rec([[0, 1, 2, 3]]), 2).data, [[0, 2]])
    x = rec([[3.0, 1.0, 4.0, 1.0]])
    same = downsample(x, 1)
    assert np.array_equal(same.data, x.data)
    rng = np.random.default_rng(0)
    x12 = rec(rng.standard_normal((1, 12)))
    assert np.array_equal(downsample(x12, 3).data[0], x12.data[0, [0, 3, 6, 9]])


def test_downsample_rejects_non_divisible():
    with pytest.raises(RateError):
        downsample(rec([[1, 2, 3]]), 2)


def test_upsample_zoh_examples():
    assert np.array_equal(upsample_zoh(rec([[1, 2]], ts=2e-3), 2).data,
                          [[1, 1, 2, 2]])
    assert np.array_equal(upsample_zoh(rec([[5]], ts=3e-3), 3).data,
                          [[5, 5, 5]])


def test_zero_insert_intermediate():
    assert np.array_equal(zero_insert(rec([[1, 2]], ts=2e-3), 2).data,
                          [[1, 0, 2, 0]])


def test_upsample_equals_zero_insert_plus_hold_filter():
    # the hold is the FIR 1 + q^-1 + ... + q^-(F-1) applied after zero insertion
    rng = np.random.default_rng(1)
    for F in (2, 3, 4):
        x = rec(rng.standard_normal((1, 6)), ts=F * 1e-4)
        inserted = zero_insert(x, F)
        hold = RationalTF.siso(np.ones(F), [1.0], inserted.sample_time)
        ref = filter_signal(hold, inserted)
        assert np.array_equal(upsample_zoh(x, F).data, ref.data)


def test_lift_examples_and_roundtrip():
    lifted = lift(rec([[0, 1, 2, 3]]), 2)
    assert np.array_equal(lifted.data, [[0, 2], [1, 3]])
    rng = np.random.default_rng(3)
    for F in (1, 2, 3, 4):
        x = rec(rng.standard_normal((2, F * 7)))
        assert lift_roundtrip_error(x, F) == 0
    slow = rec(np.random.default_rng(2).standard_normal((2, 9)), ts=2e-3)
    assert lift_roundtrip_error(upsample_zoh(slow, 3), 3) == 0


def test_lift_channel_ordering():
    # two channels, F=2: rows are (ch0@0, ch1@0, ch0@1, ch1@1)
    x = rec([[0, 1, 2, 3], [10, 11, 12, 13]])
    lifted = lift(x, 2)
    assert np.array_equal(lifted.data,
                          [[0, 2], [10, 12], [1, 3], [11, 13]])


def test_lift_frf_constant_gain():
    ts = 1e-3
    sys = RationalTF.static_gain(1.75, ts)
    frf = freq_response(sys, dft_grid(24, ts))
    lifted = lift_frf(frf, 3)
    for a in range(3):
        for b in range(3):
            blk = lifted.block(a, b)[:, 0, 0]
            if a == b:
                assert np.allclose(blk, 1.75, atol=1e-12)
            else:
                assert np.abs(blk).max() < 1e-12


def test_lift_frf_block_structure_random():
    rng = np.random.default_rng(4)
    for F in (2, 3, 4):
        for _ in range(7):
            plant = random_stable_plant(rng, 2, 2, order=3)
            assert lifted_structure_error(plant, 24 * F, F) < 1e-12


def test_lift_frf_components_m_periodic():
    # the component formula evaluated at bin k + M reproduces the bin-k value
    rng = np.random.default_rng(5)
    plant = random_stable_plant(rng, 1, 1, order=3)
    F, m = 3, 20
    n = F * m
    frf = freq_response(plant, dft_grid(n, plant.sample_time))
    phi = np.exp(2j * np.pi / F)
    for i in range(F):
        for k in (0, 3, 11):
            vals = []
            for kk in (k, k + m, k + 2 * m):
                zeta = np.exp(-2j * np.pi * kk / n)
                acc = sum(frf.values[(kk - f * m) % n, 0, 0] * phi ** (f * i)
                          for f in range(F))
                vals.append(zeta ** i / F * acc)
            assert np.abs(np.diff(vals)).max() < 1e-12


def test_lift_frf_requires_canonical_grid():
    ts = 1e-3
    sys = RationalTF.static_gain(1.0, ts)
    frf = freq_response(sys, np.array([0.0, 1.0, 2.0, 4.0]))
    with pytest.raises(RateError):
        lift_frf(frf, 2)


def test_lifted_loop_open_loop_identity():
    # zero controller: the lifted map from excitation to plant input is I
    rng = np.random.default_rng(6)
    ts = 1e-4
    F = 2
    plant = random_stable_plant(rng, 1, 1, order=3, sample_time=ts)
    zero_c = RationalTF.static_gain([[0.0]], F * ts)
    frf = lifted_loop_frf(plant, zero_c, F, 16)
    sens = frf.values[:, :F, :F]
    assert np.abs(sens - np.eye(F)).max() < 1e-12


def test_lifted_loop_zero_plant():
    ts = 1e-4
    F = 2
    plant = RationalTF.static_gain([[0.0]], ts)
    ctrl = RationalTF.siso([0.5], [1.0, -0.5], F * ts)
    frf = lifted_loop_frf(plant, ctrl, F, 16)
    y_rows = frf.values[:, F:, :F]
    assert np.abs(y_rows).max() < 1e-15


def test_lifted_loop_unstable_reports_radius():
    ts = 1e-4
    F = 2
    plant = RationalTF.siso([0.0, 2.0], [1.0], ts)
    ctrl = RationalTF.static_gain([[-1.5]], F * ts)  # positive feedback
    with pytest.raises(SimulationError, match="spectral radius"):
        lift_loop_state_space(plant, ctrl, F)


def test_noble_identity_open_loop():
    # downsampled plant response equals the oracle's slow output channel
    rng = np.random.default_rng(7)
    for F in (2, 3):
        plant = random_stable_plant(rng, 1, 1, order=4, sample_time=1e-4)
        x = SignalRecord(rng.standard_normal((1, 30 * F)), 1e-4)
        assert noble_error(plant, x, F) < 1e-9


def test_signal_record_period_bookkeeping():
    x = SignalRecord(np.arange(12.0)[None, :], 1e-3, n_periods=3)
    assert np.array_equal(x.period(1).data, [[4, 5, 6, 7]])
    assert np.array_equal(x.period(-1).data, [[8, 9, 10, 11]])
    assert np.array_equal(x.last_periods(2).data[0], np.arange(4.0, 12.0))
    with pytest.raises(RateError):
        SignalRecord(np.ones((1, 10)), 1e-3, n_periods=3)
