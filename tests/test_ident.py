import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrfrf.errors import DataFormatError, RateError
from mrfrf.ident import (_averaged_lifted_spectra, first_row_lifted_P,
                         identify, recover_P)
from mrfrf.io import diagnostics_to_dict
from mrfrf.loopsim import MultirateLoopSpec, simulate
from mrfrf.lrm import LocalModelConfig, sweep_bins
from mrfrf.lti import RationalTF, dft_grid, freq_response
from mrfrf.multirate import SLOW, SignalRecord, lift, lifted_loop_frf
from mrfrf.spectral import MultisineSpec, dft, multisine
from mrfrf.validate import _plant_in_settling_loop, random_stable_plant

TS = 1e-4
F = 2


def test_first_row_zero_process_sensitivity():
    m = 8
    sens = np.tile(np.eye(4), (m, 1, 1)).astype(complex)
    ps = np.zeros((m, 1, 4), dtype=complex)
    row, cond, flagged = first_row_lifted_P(sens, ps)
    assert np.all(row == 0)
    assert not flagged.any()


def test_first_row_identity_sensitivity_passthrough():
    rng = np.random.default_rng(0)
    m = 6
    sens = np.tile(np.eye(4), (m, 1, 1)).astype(complex)
    ps = rng.standard_normal((m, 1, 4)) + 1j * rng.standard_normal((m, 1, 4))
    row, _, flagged = first_row_lifted_P(sens, ps)
    assert np.allclose(row, ps)
    assert not flagged.any()


def test_first_row_matches_dense_solve():
    rng = np.random.default_rng(1)
    m = 12
    sens = rng.standard_normal((m, 4, 4)) + 1j * rng.standard_normal((m, 4, 4))
    ps = rng.standard_normal((m, 1, 4)) + 1j * rng.standard_normal((m, 1, 4))
    row, _, flagged = first_row_lifted_P(sens, ps)
    assert not flagged.any()
    for k in range(m):
        ref = ps[k] @ np.linalg.inv(sens[k])
        assert np.abs(row[k] - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())


def test_first_row_flags_singular_bins():
    m = 4
    sens = np.tile(np.eye(4), (m, 1, 1)).astype(complex)
    sens[2, 0, :] = 0.0
    ps = np.ones((m, 1, 4), dtype=complex)
    row, _, flagged = first_row_lifted_P(sens, ps)
    assert flagged[2] and not flagged[[0, 1, 3]].any()
    assert np.isnan(row[2]).all()


def test_first_row_equals_per_bin_loop_bit_for_bit():
    # the stacked cond/solve against one bin at a time, with a non-finite,
    # a singular and an ill-conditioned bin among well-conditioned ones
    rng = np.random.default_rng(4)
    m, thr = 16, 1e8
    sens = rng.standard_normal((m, 4, 4)) + 1j * rng.standard_normal((m, 4, 4))
    ps = rng.standard_normal((m, 1, 4)) + 1j * rng.standard_normal((m, 1, 4))
    sens[3, 1, 2] = np.nan
    sens[5, 0, :] = 0.0
    sens[7, :, 0] = sens[7, :, 1] * (1 + 1e-10)
    row, cond, flagged = first_row_lifted_P(sens, ps, thr)
    for k in range(m):
        c = np.linalg.cond(sens[k]) if np.isfinite(sens[k]).all() else np.inf
        assert cond[k].tobytes() == np.float64(c).tobytes()
        assert flagged[k] == (not c <= thr)
        if not flagged[k]:
            ref = np.linalg.solve(sens[k].T, ps[k].T).T
            assert row[k].tobytes() == ref.tobytes()
        else:
            assert np.isnan(row[k]).all()
    assert flagged[[3, 5, 7]].all() and flagged.sum() == 3


def test_recover_constant_gain_row():
    m, n = 16, 32
    row = np.zeros((m, 1, 2 * 1), dtype=complex)
    row[:, 0, 0] = 4.2
    frf, flags = recover_P(row, 2, n, TS)
    assert np.allclose(frf.values[:, 0, 0], 4.2)
    assert not flags.any()


def test_recover_flag_propagation():
    m, n = 8, 16
    row = np.ones((m, 1, 2), dtype=complex)
    failed = np.zeros(m, dtype=bool)
    failed[3] = True
    row[3] = np.nan
    frf, flags = recover_P(row, 2, n, TS, flags=failed)
    assert flags[3] and flags[3 + m]
    assert flags.sum() == 2
    assert np.isnan(frf.values[3]).all() and np.isnan(frf.values[3 + m]).all()
    assert np.isfinite(frf.values[[0, 1, 2, 4]]).all()
    with pytest.raises(RateError, match="width 3 .* factor 2"):
        recover_P(np.ones((4, 1, 3)), 2, 8, 1e-3)


def bench_like_loop(rng, factor=F):
    plant = random_stable_plant(rng, 1, 2, order=3, sample_time=TS)
    ctrl = RationalTF(
        (((0.02, 0.02),), ((0.08, -0.03),)),
        (((1.0, -0.4),), ((1.0, -0.2),)),
        factor * TS,
    )
    return MultirateLoopSpec(plant, ctrl, factor), plant


def run_ident(loop, n, seed=5, periods=4, ident_periods=1, noise=None,
              rms=(1.0, 0.5), config=None):
    r = multisine(MultisineSpec(2, n, TS, rms, seed=seed))
    sim = simulate(loop, r, periods=periods, seed=seed)
    cfg = config or LocalModelConfig(half_window=15)
    return identify(sim.u_h.last_periods(ident_periods),
                    sim.r_h.last_periods(ident_periods),
                    sim.y_l.last_periods(ident_periods), loop.factor,
                    cfg), sim


@pytest.mark.parametrize("name,ch,sample", [("u_h", 1, 37), ("y_l", 0, 5)])
def test_identify_rejects_non_finite_sample(name, ch, sample):
    loop, _ = bench_like_loop(np.random.default_rng(3))
    r = multisine(MultisineSpec(2, 240, TS, (1.0, 0.5), seed=5))
    sim = simulate(loop, r, periods=1, seed=5)
    records = {k: getattr(sim, k) for k in ("u_h", "r_h", "y_l")}
    data = records[name].data.copy()
    data[ch, sample] = np.nan
    records[name] = SignalRecord(data, records[name].sample_time,
                                 records[name].rate_tag, n_periods=1)
    with pytest.raises(DataFormatError,
                       match=f"{name} channel {ch} sample {sample} "):
        identify(records["u_h"], records["r_h"], records["y_l"], F,
                 LocalModelConfig(half_window=15))


def test_identify_noiseless_accuracy_and_symmetry():
    # short-record smoke test; the tight benchmark-scale bounds live in the
    # acceptance suite where the window is narrow relative to the dynamics
    rng = np.random.default_rng(3)
    loop, plant = bench_like_loop(rng)
    n = 240
    result, _ = run_ident(loop, n)
    truth = freq_response(plant, dft_grid(n, TS))
    rel = np.abs(result.frf.values - truth.values) / np.abs(truth.values)
    assert np.percentile(rel, 95) < 5e-3
    assert rel.max() < 2e-2
    assert not result.flags.any()
    # conjugate symmetry of the estimate for real data: exact in the fitted
    # blocks, up to rounding in the per-bin recovery prefactors
    m = n // F
    for k in range(1, (m + 1) // 2):
        assert np.array_equal(result.sensitivity[m - k],
                              result.sensitivity[k].conj())
    v = result.frf.values
    for k in range(1, n):
        assert np.abs(v[k] - np.conj(v[n - k])).max() < 1e-8 * np.abs(v[k]).max()


def test_identify_matches_lifted_oracle():
    rng = np.random.default_rng(7)
    loop, plant = bench_like_loop(rng)
    n = 240
    result, _ = run_ident(loop, n)
    oracle = lifted_loop_frf(loop.plant, loop.controller, F, n // F,
                             loop.input_filters)
    G_or = oracle.values[:, :, :2 * F]
    G_hat = np.concatenate([result.sensitivity, result.process_sens_row],
                           axis=1)
    rel = (np.linalg.norm(G_hat - G_or, axis=(1, 2))
           / np.linalg.norm(G_or, axis=(1, 2)))
    assert rel.max() < 1e-3


def test_identify_excitation_scale_invariance():
    rng = np.random.default_rng(5)
    loop, _ = bench_like_loop(rng)
    n = 240
    a, _ = run_ident(loop, n, rms=(1.0, 0.5))
    b, _ = run_ident(loop, n, rms=(7.0, 3.5))
    mask = np.isfinite(a.frf.values)
    scale = np.abs(a.frf.values[mask]).max()
    assert np.abs(a.frf.values[mask] - b.frf.values[mask]).max() < 1e-9 * scale


def test_identify_factor_one_reduces_to_single_rate():
    rng = np.random.default_rng(6)
    plant = random_stable_plant(rng, 1, 1, order=3, sample_time=TS)
    ctrl = RationalTF.siso([0.1, 0.05], [1.0, -0.3], TS)
    loop = MultirateLoopSpec(plant, ctrl, 1)
    n = 128
    r = multisine(MultisineSpec(1, n, TS, (1.0,), seed=8))
    sim = simulate(loop, r, periods=4, seed=8)
    cfg = LocalModelConfig(degree_num=2, degree_transient=2, degree_den=2,
                           half_window=10)
    result = identify(sim.u_h.last_periods(1), sim.r_h.last_periods(1),
                      sim.y_l.last_periods(1), 1, cfg)
    direct, _, _ = first_row_lifted_P(result.sensitivity,
                                      result.process_sens_row)
    assert np.array_equal(result.lifted_row, direct)
    assert np.allclose(result.frf.values, direct, atol=0)


def test_identify_period_averaging_noiseless_consistency():
    rng = np.random.default_rng(7)
    loop, _ = bench_like_loop(rng)
    n = 240
    one, _ = run_ident(loop, n, periods=5, ident_periods=1)
    two, _ = run_ident(loop, n, periods=5, ident_periods=2)
    scale = np.abs(one.frf.values).max()
    assert np.abs(one.frf.values - two.frf.values).max() < 1e-6 * scale


def test_identify_rejects_misaligned_records():
    rng = np.random.default_rng(8)
    loop, _ = bench_like_loop(rng)
    r = multisine(MultisineSpec(2, 240, TS, (1.0, 1.0), seed=1))
    sim = simulate(loop, r, periods=1, seed=1)
    cfg = LocalModelConfig(half_window=12)
    short = SignalRecord(sim.u_h.data[:, :-2], TS)
    with pytest.raises(RateError):
        identify(short, sim.r_h, sim.y_l, F, cfg)
    bad_rate = SignalRecord(sim.y_l.data, TS, "slow")
    with pytest.raises(RateError):
        identify(sim.u_h, sim.r_h, bad_rate, F, cfg)
    # a window wider than the slow grid would wrap onto itself
    wide = LocalModelConfig(degree_num=0, degree_transient=0, degree_den=0,
                            half_window=100)
    with pytest.raises(RateError, match="half_window 100 .* M=120 "):
        identify(sim.u_h, sim.r_h, sim.y_l, F, wide)


def test_identify_flags_unidentifiable_bins():
    # single-line excitation starves most windows of rank; those bins must be
    # flagged and propagate to the fast grid, never silently filled
    rng = np.random.default_rng(10)
    loop, _ = bench_like_loop(rng)
    # one period of unit-RMS sines on fast bins 10 ... 20, random phases
    n = 240
    kk = np.arange(10, 21)
    r = np.empty((2, n))
    for c in range(2):
        rng = np.random.default_rng(np.random.SeedSequence(2, spawn_key=(c,)))
        X = np.zeros(n, dtype=complex)
        X[kk] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n)[kk])
        X[n - kk] = np.conj(X[kk])
        x = np.fft.ifft(X).real
        r[c] = x * (1.0 / np.sqrt(np.mean(x * x)))
    r = SignalRecord(r, TS, n_periods=1)
    sim = simulate(loop, r, periods=3, seed=2)
    cfg = LocalModelConfig(degree_num=1, degree_transient=1, degree_den=1,
                           half_window=8)
    result = identify(sim.u_h.last_periods(1), sim.r_h.last_periods(1),
                      sim.y_l.last_periods(1), F, cfg)
    assert result.diagnostics.failed.any()
    failed_slow = np.nonzero(result.diagnostics.failed)[0]
    for k in failed_slow:
        assert result.flags[k] and result.flags[k + n // F]
        assert np.isnan(result.frf.values[k]).all()
    # failures above m // 2 are copied from the fitted bin they mirror
    m = n // F
    d = result.diagnostics
    upper = np.arange(m // 2 + 1, m)
    assert np.array_equal(d.failed[upper], d.failed[m - upper])
    mirrored = [k for k in upper if "rank" in d.messages.get(m - k, "")]
    assert mirrored
    for k in mirrored:
        assert d.messages[k] == f"mirror of bin {m - k}: {d.messages[m - k]}"


@pytest.mark.parametrize("factor", [3, 4])
def test_identify_two_by_two_plant_above_slow_nyquist(factor):
    ctrl = RationalTF.static_gain(0.05 * np.eye(2), factor * TS)
    rng = np.random.default_rng(0)
    plant = _plant_in_settling_loop(rng, ctrl, factor, TS)
    n = 240 * factor
    cfg = LocalModelConfig(degree_num=2, degree_transient=2, degree_den=2,
                           half_window=20)
    result, _ = run_ident(MultirateLoopSpec(plant, ctrl, factor), n, seed=0,
                          periods=4, ident_periods=2, rms=(1.0, 1.0),
                          config=cfg)
    assert not result.flags.any()
    truth = freq_response(plant, dft_grid(n, TS)).values
    k = np.arange(n)
    above = np.minimum(k, n - k) > n / (2 * factor)  # beyond slow Nyquist
    rel = np.abs(result.frf.values[above] - truth[above]) / np.abs(truth[above])
    assert rel.max() < 0.1
    assert np.percentile(rel, 95) < 0.03


def _rel(a, b):
    """Largest per-bin deviation of a from b, relative to b's block norm."""
    return (np.linalg.norm(a - b, axis=(1, 2))
            / np.linalg.norm(b, axis=(1, 2))).max()


@pytest.mark.parametrize("factor,m", [(2, 120), (2, 121), (3, 80)])
def test_identify_mirrors_the_upper_half_of_the_slow_grid(factor, m):
    # bins above m // 2 are the conjugates of the fitted half, which is what
    # fitting them directly gives for real records; the lifted row and its
    # condition are mirrored, not inverted again
    loop, _ = bench_like_loop(np.random.default_rng(12), factor)
    cfg = LocalModelConfig(half_window=16)
    result, sim = run_ident(loop, factor * m, periods=3, config=cfg)
    upper = np.arange(m // 2 + 1, m)
    for name in ("sensitivity", "process_sens_row"):
        blocks = getattr(result, name)
        assert np.array_equal(blocks[upper], blocks[m - upper].conj())
    row = result.lifted_row
    assert np.array_equal(row[upper], row[m - upper].conj())
    for name in ("sens_condition", "failed"):
        values = getattr(result.diagnostics, name)
        assert np.array_equal(values[upper], values[m - upper])

    U, R, Y = _averaged_lifted_spectra(sim.u_h.last_periods(1),
                                       sim.r_h.last_periods(1),
                                       sim.y_l.last_periods(1), factor)
    direct = sweep_bins(np.vstack([U, Y]), R, range(m), cfg)
    resp = np.stack([fit.response for fit in direct])
    nrf = 2 * factor
    sens, ps_row = resp[:, :nrf], resp[:, nrf:]
    lower = np.arange(m // 2 + 1)
    assert np.array_equal(result.sensitivity[lower], sens[lower])
    assert np.array_equal(result.process_sens_row[lower], ps_row[lower])
    assert _rel(result.sensitivity[upper], sens[upper]) < 1e-12
    assert _rel(result.process_sens_row[upper], ps_row[upper]) < 1e-12
    # the residual is small against the data, so its rounding is larger
    for name, attr in (("residual", "residual"),
                       ("fit_condition", "condition")):
        ref = np.array([getattr(fit, attr) for fit in direct])
        got = getattr(result.diagnostics, name)
        assert np.array_equal(got[lower], ref[lower])
        assert np.allclose(got, ref, rtol=1e-10, atol=0)


def test_identify_warns_once_per_fallback_bin_mirrors_included():
    loop, _ = bench_like_loop(np.random.default_rng(13))
    n = 240
    cfg = LocalModelConfig(half_window=15, condition_threshold=0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result, _ = run_ident(loop, n, periods=3, config=cfg)
    warned = sum("falling back to a polynomial model" in str(w.message)
                 for w in caught)
    assert warned == result.diagnostics.fallback.sum() == n // F
    # each bin, mirrors included, reports the condition that triggered it
    doc = diagnostics_to_dict(result)
    assert doc["fallback_bins"] == list(range(n // F))
    assert all(doc["fit_condition"][k] > cfg.condition_threshold
               for k in doc["fallback_bins"])


@settings(max_examples=80, deadline=None, database=None)
@given(factor=st.integers(1, 4), periods=st.integers(1, 5),
       n_u=st.integers(1, 3), n_y=st.integers(1, 3), m=st.integers(3, 12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_averaged_spectra_are_the_mean_of_per_period_spectra(
        factor, periods, n_u, n_y, m, seed):
    # one reshape per record gives, bit for bit, the spectra of each period
    # lifted and transformed on its own, summed in period order and divided.
    # m slow bins per period, at least the 3 of the narrowest window identify
    # accepts; at m = 1 numpy sums the periods pairwise, in another order
    rng = np.random.default_rng(seed)
    n = factor * m * periods
    u_h, r_h = (SignalRecord(rng.standard_normal((n_u, n)), TS,
                             n_periods=periods) for _ in range(2))
    y_l = SignalRecord(rng.standard_normal((n_y, n // factor)), TS * factor,
                       SLOW, n_periods=periods)

    def reference(record, spectrum):
        acc = spectrum(record.period(0))
        for i in range(1, periods):
            acc = acc + spectrum(record.period(i))
        return acc / periods

    def lifted(rec):
        return np.fft.fft(lift(rec, factor), axis=1)

    want = (reference(u_h, lifted), reference(r_h, lifted),
            reference(y_l, dft))
    got = _averaged_lifted_spectra(u_h, r_h, y_l, factor)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
