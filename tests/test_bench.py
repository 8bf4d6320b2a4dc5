import numpy as np
import pytest

from mrfrf.bench import build_benchmark_scenario, error_report, run_benchmark
from mrfrf.errors import ConfigError
from mrfrf.lrm import param_count
from mrfrf.lti import FrfMatrix, dft_grid


def test_scenario_reproduces_identification_settings():
    sc = build_benchmark_scenario("default")
    assert sc.loop.plant.sample_time == 1.0 / 100800.0
    assert sc.loop.controller.sample_time == 1.0 / 50400.0
    assert sc.loop.factor == 2
    assert sc.excitation.n_samples == 3600
    assert sc.excitation.rms == (3.6e-9, 8.0e-8)
    assert (sc.lrm.degree_num, sc.lrm.degree_transient, sc.lrm.degree_den) \
        == (3, 3, 3)
    assert sc.lrm.half_window == 30


def test_default_scenario_param_count():
    sc = build_benchmark_scenario("default")
    params, data = param_count(sc.lrm, sc.loop.n_inputs, sc.loop.n_outputs,
                               sc.loop.factor)
    assert params == 115
    assert data == 305
    assert params <= data


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="noisy"):
        build_benchmark_scenario("not-a-preset")


def _frf(values, ts=1e-4):
    n = values.shape[0]
    return FrfMatrix(values, dft_grid(n, ts), ts)


def test_error_report_identical_is_zero():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((16, 1, 2)) + 1j * rng.standard_normal((16, 1, 2))
    rep = error_report(_frf(vals), _frf(vals))
    assert np.all(rep.abs_error == 0.0)
    assert np.all(rep.rel_error == 0.0)
    assert rep.percentiles[100] == 0.0


def test_error_report_double_is_relative_one():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((8, 1, 1)) + 1j * rng.standard_normal((8, 1, 1))
    rep = error_report(_frf(2 * vals), _frf(vals))
    assert np.allclose(rep.rel_error, 1.0)
    assert rep.percentiles[50] == pytest.approx(1.0)


def test_error_report_recovers_injected_norm():
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((32, 1, 1)) + 1j * rng.standard_normal((32, 1, 1))
    bump = np.zeros_like(vals)
    bump[7, 0, 0] = 1e-3 * np.exp(1j * 0.3)
    rep = error_report(_frf(vals + bump), _frf(vals))
    assert abs(rep.abs_error.max() - 1e-3) < 1e-15


def test_error_report_grid_mismatch():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((8, 1, 1)).astype(complex)
    with pytest.raises(ConfigError):
        error_report(_frf(vals, ts=1e-4), _frf(vals, ts=2e-4))
    with pytest.raises(ConfigError):
        error_report(_frf(vals), _frf(vals[:4]))


@pytest.fixture(scope="module")
def noisy_runs():
    out = {}
    for seed in (101, 202):
        sc = build_benchmark_scenario("noisy", seed=seed)
        result, report, _ = run_benchmark(sc)
        out[seed] = report
    return out


def test_noisy_seeds_percentiles_within_factor_three(noisy_runs):
    a = noisy_runs[101].percentiles
    b = noisy_runs[202].percentiles
    assert a[95] != b[95]
    for q in (50, 90, 95):
        assert a[q] / b[q] < 3.0 and b[q] / a[q] < 3.0


def test_zero_plant_scenario_flagged_or_zero():
    sc = build_benchmark_scenario("zero-plant")
    result, report, _ = run_benchmark(sc)
    vals = result.frf.values
    finite = np.isfinite(vals)
    assert np.all(np.abs(vals[finite]) < 1e-12)
    err = report.abs_error
    assert np.all((err[np.isfinite(err)] == 0.0))


def test_run_benchmark_reproducible():
    sc = build_benchmark_scenario("noisy", seed=77)
    r1, rep1, _ = run_benchmark(sc)
    r2, rep2, _ = run_benchmark(sc)
    assert np.array_equal(r1.frf.values, r2.frf.values, equal_nan=True)
    assert rep1.percentiles == rep2.percentiles
    assert rep1.peak_amplitude == rep2.peak_amplitude


def test_peak_amplitude_reported_with_bound(default_run):
    _, _, report, sim, _ = default_run
    assert len(report.peak_amplitude) == 2
    assert report.peak_amplitude[0] == pytest.approx(
        np.abs(sim.u_h.data[0]).max())
    assert 0 in report.stroke_bounds
    lines = "\n".join(report.summary_lines())
    assert "bound" in lines


def test_more_periods_do_not_worsen_median_error():
    # same noisy experiment: averaging more trailing periods must not raise
    # the median estimation error, for every tested seed
    from dataclasses import replace

    for seed in (11, 22):
        sc = build_benchmark_scenario("noisy", seed=seed)
        sc4 = replace(sc, periods=4)
        medians = {}
        for ident_p in (1, 2):
            run = replace(sc4, ident_periods=ident_p)
            _, report, _ = run_benchmark(run)
            rel = report.rel_error
            medians[ident_p] = float(np.median(rel[np.isfinite(rel)]))
        assert medians[2] <= medians[1]


def test_noiseless_sweep_residual_energy(default_run):
    # every local fit's residual energy stays far below the windowed signal
    # energy on a noiseless run
    from mrfrf.multirate import lift

    sc, result, _, sim, _ = default_run
    F = sc.loop.factor
    u1 = sim.u_h.period(-1)
    U = np.fft.fft(lift(u1, F), axis=1)
    Y = np.fft.fft(sim.y_l.period(-1).data, axis=1)
    Z = np.vstack([U, Y])
    m = Z.shape[1]
    n_w = sc.lrm.half_window
    res = result.diagnostics.residual
    worst = 0.0
    for k in range(m):
        idx = (k + np.arange(-n_w, n_w + 1)) % m
        energy = float(np.sum(np.abs(Z[:, idx]) ** 2))
        worst = max(worst, res[k] ** 2 / energy)
    assert worst < 1e-6
