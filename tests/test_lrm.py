import numpy as np
import pytest

from mrfrf.errors import LocalFitError
from mrfrf.lrm import LocalModelConfig, fit_local, param_count, sweep_bins


def make_config(**kw):
    base = dict(degree_num=3, degree_transient=3, degree_den=3, half_window=30)
    base.update(kw)
    return LocalModelConfig(**base)


def test_param_count_benchmark_settings():
    cfg = make_config()
    params, data = param_count(cfg, n_u=2, n_y=1, factor=2)
    assert params == 115
    assert data == 305


def test_param_count_degree_zero_reduction():
    cfg = make_config(degree_num=0, degree_transient=0, degree_den=0,
                      half_window=10)
    for n_u, n_y, F in ((1, 1, 2), (2, 1, 2), (2, 2, 3)):
        params, _ = param_count(cfg, n_u, n_y, F)
        nrf = n_u * F
        assert params == (nrf + n_y) * (nrf + 1)


def test_param_count_siso_single_rate():
    cfg = make_config(degree_num=2, degree_transient=2, degree_den=2,
                      half_window=10)
    params, data = param_count(cfg, n_u=1, n_y=1, factor=1)
    assert params == 16
    assert data == 42


def random_spectra(rng, n_r, m):
    return rng.standard_normal((n_r, m)) + 1j * rng.standard_normal((n_r, m))


def test_constant_model_recovered_exactly():
    rng = np.random.default_rng(0)
    m, n_r, n_z = 96, 2, 3
    R = random_spectra(rng, n_r, m)
    G0 = random_spectra(rng, n_z, n_r)
    T0 = random_spectra(rng, n_z, 1)[:, 0]
    Z = G0 @ R + T0[:, None]
    for den in ("diagonal", "full"):
        cfg = make_config(half_window=12, denominator=den)
        fit = fit_local(Z, R, 40, cfg)
        assert np.abs(fit.response - G0).max() < 1e-10
        assert np.abs(fit.transient - T0).max() < 1e-10
        assert fit.residual < 1e-10


def test_polynomial_model_recovered_exactly():
    # data generated by a cubic matrix polynomial in the window variable plus
    # a cubic transient, denominator identity
    rng = np.random.default_rng(1)
    m, n_r, n_z, n_w = 128, 2, 3, 15
    cfg = make_config(half_window=n_w)
    R = random_spectra(rng, n_r, m)
    k0 = 50
    Gs = [random_spectra(rng, n_z, n_r) for _ in range(4)]
    Ts = [random_spectra(rng, n_z, 1)[:, 0] for _ in range(4)]
    rho = ((np.arange(m) - k0 + m // 2) % m - m // 2) / n_w
    Z = np.zeros((n_z, m), dtype=complex)
    for k in range(m):
        G = sum(Gs[s] * rho[k] ** s for s in range(4))
        T = sum(Ts[s] * rho[k] ** s for s in range(4))
        Z[:, k] = G @ R[:, k] + T
    fit = fit_local(Z, R, k0, cfg)
    assert np.abs(fit.response - Gs[0]).max() < 1e-9
    assert np.abs(fit.transient - Ts[0]).max() < 1e-9
    assert fit.residual < 1e-9


def test_matches_normal_equations_oracle():
    # one output row, 6 unknowns, 21 window rows: compare against the dense
    # normal-equations solution
    rng = np.random.default_rng(2)
    m, n_w = 64, 10
    cfg = make_config(degree_num=1, degree_transient=1, degree_den=2,
                      half_window=n_w)
    R = random_spectra(rng, 1, m)
    Z = random_spectra(rng, 1, m)
    k0 = 30
    fit = fit_local(Z, R, k0, cfg)
    rs = np.arange(-n_w, n_w + 1)
    idx = (k0 + rs) % m
    rho = rs / n_w
    cols = [R[0, idx], rho * R[0, idx], np.ones_like(rho), rho,
            -rho * Z[0, idx], -rho ** 2 * Z[0, idx]]
    A = np.stack(cols, axis=1)
    b = Z[0, idx]
    theta = np.linalg.solve(A.conj().T @ A, A.conj().T @ b)
    assert abs(fit.response[0, 0] - theta[0]) < 1e-10
    assert abs(fit.transient[0] - theta[2]) < 1e-10


def test_solution_is_local_optimum():
    rng = np.random.default_rng(3)
    m, n_w = 64, 8
    cfg = make_config(degree_num=1, degree_transient=0, degree_den=1,
                      half_window=n_w)
    R = random_spectra(rng, 1, m)
    Z = random_spectra(rng, 1, m)
    k0 = 12
    fit = fit_local(Z, R, k0, cfg)
    rs = np.arange(-n_w, n_w + 1)
    idx = (k0 + rs) % m
    rho = rs / n_w
    A = np.stack([R[0, idx], rho * R[0, idx], np.ones_like(rho),
                  -rho * Z[0, idx]], axis=1)
    b = Z[0, idx]
    theta, *_ = np.linalg.lstsq(A, b, rcond=None)
    base = np.linalg.norm(A @ theta - b)
    for _ in range(1000):
        pert = theta + 1e-6 * (rng.standard_normal(4)
                               + 1j * rng.standard_normal(4))
        assert np.linalg.norm(A @ pert - b) >= base - 1e-12


def test_output_scaling_equivariance():
    rng = np.random.default_rng(4)
    m = 96
    cfg = make_config(half_window=12)
    R = random_spectra(rng, 2, m)
    Z = random_spectra(rng, 3, m)
    c = 2.0 - 1.5j
    a = fit_local(Z, R, 40, cfg)
    b = fit_local(c * Z, R, 40, cfg)
    scale = np.abs(a.response).max()
    assert np.abs(b.response - c * a.response).max() < 1e-9 * scale
    assert np.abs(b.transient - c * a.transient).max() < 1e-9 * scale


def test_degree_monotonicity_noiseless():
    rng = np.random.default_rng(5)
    m, n_w = 128, 20
    R = random_spectra(rng, 1, m)
    # smooth rational data in the bin index
    k = np.arange(m)
    g = 1.0 / (1.2 - np.exp(-2j * np.pi * k / m))
    Z = (g * R[0])[None, :]
    prev = np.inf
    for rn in (0, 1, 2, 3, 4):
        cfg = make_config(degree_num=rn, degree_transient=0, degree_den=0,
                          half_window=n_w)
        fit = fit_local(Z, R, 60, cfg)
        assert fit.residual <= prev + 1e-12
        prev = fit.residual


def test_diagonal_matches_full_row_when_in_model_class():
    rng = np.random.default_rng(6)
    m, n_r = 96, 4
    n_z = n_r + 1  # single measured output stacked under the inputs
    R = random_spectra(rng, n_r, m)
    G0 = random_spectra(rng, n_z, n_r)
    T0 = random_spectra(rng, n_z, 1)[:, 0]
    Z = G0 @ R + T0[:, None]
    k0 = 33
    d = fit_local(Z, R, k0, make_config(half_window=20, denominator="diagonal"))
    f = fit_local(Z, R, k0, make_config(half_window=20, denominator="full"))
    assert np.abs(d.response[-1] - f.response[-1]).max() < 1e-9
    assert np.abs(d.response[-1] - G0[-1]).max() < 1e-9


def test_rank_deficient_regressor_raises():
    m = 64
    cfg = make_config(half_window=10)
    R = np.zeros((2, m), dtype=complex)
    Z = np.zeros((3, m), dtype=complex)
    with pytest.raises(LocalFitError, match="rank"):
        fit_local(Z, R, 20, cfg)


def test_condition_fallback_flag_and_warning():
    rng = np.random.default_rng(7)
    m = 96
    cfg = make_config(half_window=12, condition_threshold=1.0)
    R = random_spectra(rng, 2, m)
    Z = random_spectra(rng, 3, m)
    with pytest.warns(RuntimeWarning, match="falling back"):
        fit = fit_local(Z, R, 40, cfg)
    assert fit.fallback


def test_window_too_small_raises():
    cfg = make_config(half_window=1)
    rng = np.random.default_rng(8)
    R = random_spectra(rng, 2, 32)
    Z = random_spectra(rng, 3, 32)
    with pytest.raises(LocalFitError, match="parameters"):
        fit_local(Z, R, 5, cfg)


def test_sweep_bins_order_purity_and_failures():
    rng = np.random.default_rng(10)
    m = 64
    cfg = make_config(degree_num=1, degree_transient=0, degree_den=1,
                      half_window=8)
    R = random_spectra(rng, 1, m)
    Z = random_spectra(rng, 2, m)
    assert sweep_bins(Z, R, [], cfg) == []
    out = sweep_bins(Z, R, [5, 5, 9], cfg)
    assert [r.center_bin for r in out] == [5, 5, 9]
    assert np.array_equal(out[0].response, out[1].response)
    # a failing bin is reported, not raised
    R_bad = R.copy()
    R_bad[:, :] = 0.0
    bad = sweep_bins(Z, R_bad, [3], cfg)
    assert bad[0].failed
    assert "rank" in bad[0].error

