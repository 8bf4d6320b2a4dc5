import numpy as np
import pytest

from mrfrf.errors import RateError, SimulationError
from mrfrf.lti import RationalTF, dft_grid, freq_response
from mrfrf.multirate import SignalRecord
from mrfrf.spectral import (MultisineSpec, alias_energy_split,
                            alias_slow_spectrum, dft, multisine,
                            predict_slow_output_steady)
from mrfrf.validate import (aliasing_error, dft_roundtrip_error,
                            random_stable_plant)


def test_dft_constant_signal():
    n = 16
    x = SignalRecord(np.full((1, n), 2.5), 1e-3)
    X = dft(x)
    assert X.values[0, 0] == pytest.approx(n * 2.5)
    assert np.abs(X.values[0, 1:]).max() < 1e-12


def test_dft_cosine_lines():
    n, k0 = 64, 5
    x = SignalRecord(np.cos(2 * np.pi * k0 * np.arange(n) / n)[None, :], 1e-3)
    X = dft(x).values[0]
    assert X[k0] == pytest.approx(n / 2, abs=1e-9)
    assert X[n - k0] == pytest.approx(n / 2, abs=1e-9)
    others = np.delete(np.abs(X), [k0, n - k0])
    assert others.max() < 1e-9


def test_parseval():
    rng = np.random.default_rng(0)
    x = SignalRecord(rng.standard_normal((2, 100)), 1e-3)
    X = dft(x)
    lhs = np.sum(x.data ** 2)
    rhs = np.sum(np.abs(X.values) ** 2) / 100
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_idft_roundtrip_lengths():
    rng = np.random.default_rng(1)
    for n in (4, 250, 8192):
        x = SignalRecord(rng.standard_normal((1, n)), 1e-4)
        assert dft_roundtrip_error(x) < 1e-12


def test_alias_constant_signal():
    x = SignalRecord(np.full((1, 12), 3.0), 1e-3)
    out = alias_slow_spectrum(dft(x), 3)
    assert out.values[0, 0] == pytest.approx(12.0, rel=1e-12)
    assert np.abs(out.values[0, 1:]).max() < 1e-12


def test_alias_matches_time_domain_downsampling():
    x = SignalRecord(np.random.default_rng(2).standard_normal((1, 20)), 1e-3)
    assert aliasing_error(x, 1) < 1e-12
    rng = np.random.default_rng(3)
    for F in (2, 3, 4):
        for _ in range(10):
            m = int(rng.integers(5, 50))
            x = SignalRecord(rng.standard_normal((2, m * F)), 1e-4)
            assert aliasing_error(x, F) < 1e-12


def test_alias_rejects_bad_factor():
    x = SignalRecord(np.ones((1, 10)), 1e-3)
    with pytest.raises(RateError):
        alias_slow_spectrum(dft(x), 3)


def test_multisine_exact_rms():
    spec = MultisineSpec(1, 3600, 1e-5, (8.0e-8,), seed=42)
    x = multisine(spec)
    rms = np.sqrt(np.mean(x.data[0] ** 2))
    assert rms == pytest.approx(8.0e-8, rel=1e-12)


def test_multisine_single_bin_is_pure_sinusoid():
    n, k0 = 128, 9
    amp = np.zeros(n // 2 + 1)
    amp[k0] = 1.0
    spec = MultisineSpec(1, n, 1e-3, (0.5,), seed=3, amplitude=amp)
    x = multisine(spec)
    X = np.abs(dft(x).values[0])
    assert X[k0] > 1e-9
    others = np.delete(X, [k0, n - k0])
    assert others.max() < 1e-12 * X[k0]


def test_multisine_periodicity_two_periods():
    spec = MultisineSpec(1, 64, 1e-3, (1.0,), seed=11)
    x = multisine(spec)
    two = SignalRecord(np.tile(x.data, (1, 2)), x.sample_time)
    X = np.abs(dft(two).values[0])
    assert X[1::2].max() < 1e-9 * X.max()


def test_multisine_determinism_and_channel_independence():
    spec = MultisineSpec(2, 256, 1e-3, (1.0, 2.0), seed=7)
    a = multisine(spec)
    b = multisine(spec)
    assert np.array_equal(a.data, b.data)
    # first channel unchanged when the channel count grows
    one = multisine(MultisineSpec(1, 256, 1e-3, (1.0,), seed=7))
    assert np.array_equal(one.data[0], a.data[0])


def test_multisine_zero_rms_rejected():
    spec = MultisineSpec(1, 64, 1e-3, (0.0,), seed=1)
    with pytest.raises(SimulationError):
        multisine(spec)


def test_multisine_orthogonal_regressor_rank():
    # stacked local excitation block must have full column rank in a window
    from mrfrf.multirate import lift

    n, F, n_w, deg = 256, 2, 6, 1
    for seed in (0, 1, 2):
        spec = MultisineSpec(2, n, 1e-4, (1.0, 1.0), seed=seed,
                             phase_scheme="orthogonal")
        r = multisine(spec)
        R = np.fft.fft(lift(r, F).data, axis=1)
        k0 = 30
        rows = []
        for r_off in range(-n_w, n_w + 1):
            rk = R[:, (k0 + r_off) % (n // F)]
            rho = r_off / n_w
            rows.append(np.concatenate([rk * rho ** s for s in range(deg + 1)]))
        A = np.array(rows)
        assert np.linalg.matrix_rank(A) == A.shape[1]


def test_predict_open_loop_reduction():
    # zero controller: Y_l(k) = (1/F) sum_f P(k+fM) R(k+fM)
    rng = np.random.default_rng(4)
    ts = 1e-4
    F, n = 2, 48
    plant = random_stable_plant(rng, 1, 2, order=2, sample_time=ts)
    pfrf = freq_response(plant, dft_grid(n, ts))
    ctrl = RationalTF.static_gain([[0.0], [0.0]], F * ts)
    cfrf = freq_response(ctrl, dft_grid(n // F, F * ts))
    r = SignalRecord(rng.standard_normal((2, n)), ts)
    R = dft(r)
    pred = predict_slow_output_steady(pfrf, cfrf, F, R)
    m = n // F
    for k in range(m):
        want = sum(pfrf.values[k + f * m] @ R.values[:, k + f * m]
                   for f in range(F)) / F
        assert np.abs(pred.values[:, k] - want).max() < 1e-12


def test_predict_zero_excitation():
    ts = 1e-4
    F, n = 2, 32
    plant = RationalTF.static_gain([[1.0, 0.5]], ts)
    ctrl = RationalTF.static_gain([[0.1], [0.1]], F * ts)
    pfrf = freq_response(plant, dft_grid(n, ts))
    cfrf = freq_response(ctrl, dft_grid(n // F, F * ts))
    zero = dft(SignalRecord(np.zeros((2, n)), ts))
    pred = predict_slow_output_steady(pfrf, cfrf, F, zero)
    assert np.abs(pred.values).max() == 0.0


def test_alias_energy_split_shares():
    n, F = 16, 2
    vals = np.zeros((1, n), dtype=complex)
    vals[0, 3] = 2.0       # slow bin 3, alias f=0
    vals[0, 3 + 8] = 1.0   # slow bin 3, alias f=1
    from mrfrf.spectral import Spectrum

    split = alias_energy_split(Spectrum(vals, 1e-3), F)
    assert split[:, 3] == pytest.approx([0.8, 0.2])
    assert split[:, 0] == pytest.approx([0.5, 0.5])  # empty bin: uniform


def test_predict_singular_loop_names_bin():
    # static unity plant with exactly inverting feedback makes the return
    # difference vanish at every bin; the error must name the first one
    ts = 1e-4
    n = 16
    plant = RationalTF.static_gain([[1.0]], ts)
    ctrl = RationalTF.static_gain([[-1.0]], ts)
    pfrf = freq_response(plant, dft_grid(n, ts))
    cfrf = freq_response(ctrl, dft_grid(n, ts))
    r = dft(SignalRecord(np.ones((1, n)), ts))
    with pytest.raises(SimulationError, match="bin 0"):
        predict_slow_output_steady(pfrf, cfrf, 1, r)
