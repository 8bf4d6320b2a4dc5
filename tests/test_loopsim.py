import numpy as np
import pytest

from mrfrf import _accel
from mrfrf.errors import LtiError, SimulationError
from mrfrf.loopsim import (MultirateLoopSpec, NoiseSpec, benchmark_loop,
                           simulate, surrogate_plant)
from mrfrf.lti import RationalTF, dft_grid, filter_signal, freq_response
from mrfrf.multirate import (SLOW, SignalRecord, lift, lift_loop_state_space,
                             upsample_zoh)
from mrfrf.spectral import MultisineSpec, multisine
from mrfrf.validate import random_stable_plant, simulator_oracle_error

TS = 1e-4
F = 2
#: [position; velocity] controller of the benchmark's shape, at the slow rate
CTRL = RationalTF((((0.02, 0.02),), ((0.08, -0.03),)),
                  (((1.0, -0.4),), ((1.0, -0.2),)), F * TS)


def small_loop(plant, ctrl=None, noise=None):
    if ctrl is None:
        ctrl = RationalTF.static_gain([[0.0]], F * TS)
    return MultirateLoopSpec(plant, ctrl, F, noise=noise or NoiseSpec())


def test_zero_plant_passthrough():
    plant = RationalTF.static_gain([[0.0]], TS)
    ctrl = RationalTF.siso([0.3], [1.0, -0.5], F * TS)
    rng = np.random.default_rng(0)
    r = SignalRecord(rng.standard_normal((1, 40)), TS, n_periods=1)
    sim = simulate(MultirateLoopSpec(plant, ctrl, F), r, periods=1, seed=0)
    assert np.array_equal(sim.u_h.data, r.data)
    assert np.all(sim.y_h.data == 0.0)
    assert np.all(sim.y_l.data == 0.0)


def test_open_loop_matches_direct_filtering():
    rng = np.random.default_rng(1)
    plant = random_stable_plant(rng, 1, 1, order=4, sample_time=TS)
    r = SignalRecord(rng.standard_normal((1, 60)), TS, n_periods=1)
    sim = simulate(small_loop(plant), r, periods=1, seed=0)
    ref = filter_signal(plant, r)
    assert np.abs(sim.y_h.data - ref.data).max() < 1e-14 * max(
        1.0, np.abs(ref.data).max())


def test_slow_output_is_sampled_fast_output_plus_runout():
    rng = np.random.default_rng(2)
    plant = random_stable_plant(rng, 1, 1, order=3, sample_time=TS)
    ctrl = RationalTF.siso([0.05], [1.0, -0.3], F * TS)
    noise = NoiseSpec(el_std=0.1)
    r = SignalRecord(rng.standard_normal((1, 48)), TS, n_periods=1)
    sim = simulate(MultirateLoopSpec(plant, ctrl, F, noise=noise), r,
                   periods=1, seed=5)
    runout = sim.y_l.data - sim.y_h.data[:, ::F]
    # identical seeds reproduce the same run-out draw
    sim2 = simulate(MultirateLoopSpec(plant, ctrl, F, noise=noise), r,
                    periods=1, seed=5)
    assert np.array_equal(sim.y_l.data, sim2.y_l.data)
    assert np.abs(runout).max() > 0.0
    noiseless = simulate(MultirateLoopSpec(plant, ctrl, F), r, periods=1,
                         seed=5)
    assert np.array_equal(noiseless.y_l.data, noiseless.y_h.data[:, ::F])


@pytest.mark.parametrize("factor", [1, 2, 3, 4])
def test_benchmark_slow_output_is_sampled_fast_output_plus_runout(
        factor, monkeypatch):
    """On the benchmark loop with all three noise sources, y_l is y_h at
    the sample instants plus the run-out the kernel was given, bit for bit."""
    loop = benchmark_loop(noise=NoiseSpec(eh_std=1e-9, el_std=1e-10,
                                          dh_std=1e-9), factor=factor)
    r = multisine(MultisineSpec(2, 360, loop.plant.sample_time,
                                (3.6e-9, 8.0e-8), seed=9))
    kernel, runouts = _accel.multirate_loop, []

    def spy(*args):
        runouts.append(args[-1])
        return kernel(*args)

    monkeypatch.setattr(_accel, "multirate_loop", spy)
    sim = simulate(loop, r, periods=2, seed=7)
    eps_l = runouts[0].T
    assert np.abs(eps_l).max() > 0.0
    want = sim.y_h.data[:, ::factor] + eps_l
    assert sim.y_l.data.tobytes() == want.tobytes()


def test_seeded_runs_bit_identical():
    loop = benchmark_loop(noise=NoiseSpec(eh_std=1e-9, el_std=1e-10,
                                          dh_std=1e-9))
    r = multisine(MultisineSpec(2, 360, loop.plant.sample_time,
                                (3.6e-9, 8.0e-8), seed=9))
    a = simulate(loop, r, periods=2, seed=123)
    b = simulate(loop, r, periods=2, seed=123)
    for x, y in ((a.u_h, b.u_h), (a.y_h, b.y_h), (a.y_l, b.y_l)):
        assert np.array_equal(x.data, y.data)
    c = simulate(loop, r, periods=2, seed=124)
    assert not np.array_equal(a.y_l.data, c.y_l.data)


def test_periodic_settling_is_monotone():
    rng = np.random.default_rng(3)
    plant = random_stable_plant(rng, 1, 1, order=3, sample_time=TS)
    ctrl = RationalTF.siso([0.1], [1.0, -0.4], F * TS)
    r = multisine(MultisineSpec(1, 80, TS, (1.0,), seed=2))
    sim = simulate(MultirateLoopSpec(plant, ctrl, F), r, periods=6, seed=0)
    diffs = []
    for p in range(5):
        a = sim.y_h.period(p).data
        b = sim.y_h.period(p + 1).data
        diffs.append(np.linalg.norm(a - b))
    assert all(d2 <= d1 * (1 + 1e-9) for d1, d2 in zip(diffs, diffs[1:]))


def test_simulator_matches_frequency_domain_prediction():
    rng = np.random.default_rng(4)
    plant = random_stable_plant(rng, 1, 2, order=3, sample_time=TS)
    loop = MultirateLoopSpec(plant, CTRL, F)
    r = multisine(MultisineSpec(2, 240, TS, (1.0, 0.5), seed=21))
    sim = simulate(loop, r, periods=5, seed=0)
    assert simulator_oracle_error(loop, sim) < 1e-8


def test_disturbance_enters_named_channel_only():
    plant = RationalTF.static_gain([[1.0, 1.0]], TS)
    ctrl = RationalTF.static_gain([[0.0], [0.0]], F * TS)
    noise = NoiseSpec(dh_std=1.0, dh_channel=1)
    r = SignalRecord(np.zeros((2, 40)), TS, n_periods=1)
    sim = simulate(MultirateLoopSpec(plant, ctrl, F, noise=noise), r,
                   periods=1, seed=3)
    # u records the commanded input (pre-disturbance); y sees the disturbance
    assert np.all(sim.u_h.data == 0.0)
    assert np.abs(sim.y_h.data).max() > 0.0


def test_instability_guard_overflows():
    plant = RationalTF.siso([0.0, 2.0], [1.0], TS)
    ctrl = RationalTF.static_gain([[-1.5]], F * TS)  # positive feedback
    r = SignalRecord(np.ones((1, 4000)), TS, n_periods=1)
    with pytest.raises(SimulationError, match="overflow|unstable"):
        simulate(MultirateLoopSpec(plant, ctrl, F), r, periods=1, seed=0)


def test_unstable_plant_rejected_before_simulation():
    plant = RationalTF.siso([1.0], [1.0, -1.0001], TS)
    r = SignalRecord(np.ones((1, 8)), TS, n_periods=1)
    with pytest.raises(LtiError, match="not strictly stable"):
        simulate(small_loop(plant), r, periods=1, seed=0)


# --- surrogate presets --------------------------------------------------------

def test_unknown_preset_lists_options():
    with pytest.raises(LtiError, match="pzt-like"):
        surrogate_plant("not-a-preset")


def test_all_presets_stable():
    for name in ("hdd-dual-stage", "pzt-like", "vcm-like", "zero"):
        plant = surrogate_plant(name)
        poles = plant.poles()
        if poles.size:
            assert np.abs(poles).max() < 1.0 - 1e-9


def test_pzt_preset_resonance_location_and_damping():
    from mrfrf.loopsim import PZT_RES_DAMPING, PZT_RES_HZ

    assert PZT_RES_DAMPING == 0.01
    plant = surrogate_plant("pzt-like")
    n = 3600
    frf = freq_response(plant, dft_grid(n, plant.sample_time))
    mags = np.abs(frf.values[:, 0, 0])
    band = np.arange(n // 4 + 1, n // 2)  # above the slow Nyquist bin
    peak_bin = band[np.argmax(mags[band])]
    ts = plant.sample_time
    peak_hz = peak_bin / (n * ts)
    assert n // 4 < peak_bin < n // 2
    assert abs(peak_hz - PZT_RES_HZ) <= 1.0 / (n * ts)


def test_vcm_preset_midband_slope():
    plant = surrogate_plant("vcm-like")
    n = 3600
    ts = plant.sample_time
    frf = freq_response(plant, dft_grid(n, ts))
    freqs = np.arange(n) / (n * ts)
    band = (freqs >= 3000.0) & (freqs <= 7000.0)
    mags = 20 * np.log10(np.abs(frf.values[band, 0, 0]))
    slope = np.polyfit(np.log10(freqs[band]), mags, 1)[0]
    assert slope <= -40.0


def test_benchmark_loop_closed_loop_stable():
    loop = benchmark_loop()
    slow = lift_loop_state_space(loop.plant, loop.controller, loop.factor,
                                 loop.input_filters)
    assert slow.spectral_radius() < 0.995


def test_input_filters_reconstruction_identity():
    # u_h must equal r_h minus the filtered, held controller response to the
    # recorded slow output, sample for sample
    rng = np.random.default_rng(11)
    plant = random_stable_plant(rng, 1, 2, order=2, sample_time=TS)
    filt = RationalTF(
        (((0.6, 0.3), (0.0,)), ((0.0,), (0.8, 0.15))),
        (((1.0, -0.1), (1.0,)), ((1.0,), (1.0, -0.05))),
        TS,
    )
    noise = NoiseSpec(eh_std=0.05, el_std=0.02)
    loop = MultirateLoopSpec(plant, CTRL, F, input_filters=filt, noise=noise)
    r = multisine(MultisineSpec(2, 120, TS, (1.0, 0.7), seed=12))
    sim = simulate(loop, r, periods=2, seed=12)
    v_slow = filter_signal(CTRL, sim.y_l)
    w = filter_signal(filt, upsample_zoh(v_slow, F))
    u_ref = sim.r_h.data - w.data
    scale = max(1.0, np.abs(u_ref).max())
    assert np.abs(sim.u_h.data - u_ref).max() < 1e-12 * scale


def test_filters_in_oracle_and_prediction():
    # with fast-rate input filters in the loop, the simulator, the lifted
    # state-space realization, and the folded frequency-domain prediction all
    # agree in periodic steady state
    rng = np.random.default_rng(13)
    n = 240
    plant = random_stable_plant(rng, 1, 2, order=2, sample_time=TS)
    filt = RationalTF(
        (((0.7, 0.2), (0.0,)), ((0.0,), (0.9, 0.05))),
        (((1.0, -0.08), (1.0,)), ((1.0,), (1.0, -0.12))),
        TS,
    )
    loop = MultirateLoopSpec(plant, CTRL, F, input_filters=filt)
    r = multisine(MultisineSpec(2, n, TS, (1.0, 0.6), seed=14))
    periods = 6
    sim = simulate(loop, r, periods=periods, seed=0)
    # lifted state-space realization driven by the same lifted excitation
    oracle = lift_loop_state_space(plant, CTRL, F, input_filters=filt)
    stacked = np.vstack([lift(sim.r_h, F), np.zeros((F, periods * n // F))])
    resp = filter_signal(oracle, SignalRecord(stacked, F * TS, SLOW))
    m = n // F
    got_u = resp.data[:2 * F, -m:]
    want_u = lift(sim.u_h.period(-1), F)
    scale = max(1.0, np.abs(want_u).max())
    assert np.abs(got_u - want_u).max() < 1e-9 * scale
    got_yl = resp.data[2 * F, -m:]
    assert np.abs(got_yl - sim.y_l.period(-1).data[0]).max() < 1e-9 * scale
    # folded frequency-domain prediction with the filter response included
    assert simulator_oracle_error(loop, sim) < 1e-8


def test_surrogate_frf_values_pinned():
    # regression pins on the frozen preset constants
    plant = surrogate_plant("hdd-dual-stage")
    n = 3600
    frf = freq_response(plant, dft_grid(n, plant.sample_time))
    mags = np.abs(frf.values[:, 0, :])
    assert mags[0, 0] == pytest.approx(0.15, rel=1e-12)       # pzt dc gain
    assert mags[1572, 0] == pytest.approx(4.5672, rel=1e-3)   # pzt peak
    assert mags[0, 1] == pytest.approx(0.88963, rel=1e-3)     # vcm dc gain
    assert 3.5e-3 < mags[900:1800, 1].min() < 1.2e-2          # vcm floor
