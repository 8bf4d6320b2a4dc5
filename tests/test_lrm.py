import numpy as np
import pytest

from mrfrf.errors import LocalFitError
from mrfrf.lrm import LocalModelConfig, fit_local, param_count, sweep_bins


def test_param_count_benchmark_settings():
    cfg = LocalModelConfig()
    params, data = param_count(cfg, n_u=2, n_y=1, factor=2)
    assert params == 115
    assert data == 305


def test_param_count_degree_zero_reduction():
    cfg = LocalModelConfig(degree_num=0, degree_transient=0, degree_den=0,
                           half_window=10)
    for n_u, n_y, F in ((1, 1, 2), (2, 1, 2), (2, 2, 3)):
        params, _ = param_count(cfg, n_u, n_y, F)
        nrf = n_u * F
        assert params == (nrf + n_y) * (nrf + 1)


def test_param_count_siso_single_rate():
    cfg = LocalModelConfig(degree_num=2, degree_transient=2, degree_den=2,
                           half_window=10)
    params, data = param_count(cfg, n_u=1, n_y=1, factor=1)
    assert params == 16
    assert data == 42


def random_spectra(rng, n_r, m):
    return rng.standard_normal((n_r, m)) + 1j * rng.standard_normal((n_r, m))


def test_constant_model_recovered_exactly():
    rng = np.random.default_rng(0)
    m = 96
    for n_r, n_z in ((2, 3), (4, 5)):
        R = random_spectra(rng, n_r, m)
        G0 = random_spectra(rng, n_z, n_r)
        T0 = random_spectra(rng, n_z, 1)[:, 0]
        Z = G0 @ R + T0[:, None]
        fit = fit_local(Z, R, 40, LocalModelConfig(half_window=12))
        assert np.abs(fit.response - G0).max() < 1e-10
        assert np.abs(fit.transient - T0).max() < 1e-10
        assert fit.residual < 1e-10


def test_polynomial_model_recovered_exactly():
    # data generated by a cubic matrix polynomial in the window variable plus
    # a cubic transient, denominator identity
    rng = np.random.default_rng(1)
    m, n_r, n_z, n_w = 128, 2, 3, 15
    cfg = LocalModelConfig(half_window=n_w)
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
    cfg = LocalModelConfig(degree_num=1, degree_transient=1, degree_den=2,
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
    cfg = LocalModelConfig(degree_num=1, degree_transient=0, degree_den=1,
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
    assert abs(fit.residual - base) < 1e-12 * base
    assert abs(fit.response[0, 0] - theta[0]) < 1e-10
    for _ in range(1000):
        pert = theta + 1e-6 * (rng.standard_normal(4)
                               + 1j * rng.standard_normal(4))
        assert np.linalg.norm(A @ pert - b) >= base - 1e-12


def test_output_scaling_equivariance():
    rng = np.random.default_rng(4)
    m = 96
    cfg = LocalModelConfig(half_window=12)
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
        cfg = LocalModelConfig(degree_num=rn, degree_transient=0, degree_den=0,
                               half_window=n_w)
        fit = fit_local(Z, R, 60, cfg)
        assert fit.residual <= prev + 1e-12
        prev = fit.residual


def test_rank_deficient_regressor_raises():
    m = 64
    cfg = LocalModelConfig(half_window=10)
    R = np.zeros((2, m), dtype=complex)
    Z = np.zeros((3, m), dtype=complex)
    with pytest.raises(LocalFitError, match="rank"):
        fit_local(Z, R, 20, cfg)


def test_condition_fallback_flag_and_warning():
    rng = np.random.default_rng(7)
    m = 96
    cfg = LocalModelConfig(half_window=12, condition_threshold=1.0)
    R = random_spectra(rng, 2, m)
    Z = random_spectra(rng, 3, m)
    with pytest.warns(RuntimeWarning, match="falling back"):
        fit = fit_local(Z, R, 40, cfg)
    assert fit.fallback


def test_window_too_small_raises():
    cfg = LocalModelConfig(half_window=1)
    rng = np.random.default_rng(8)
    R = random_spectra(rng, 2, 32)
    Z = random_spectra(rng, 3, 32)
    with pytest.raises(LocalFitError, match="parameters"):
        fit_local(Z, R, 5, cfg)


@pytest.mark.parametrize("n_u,n_y,F", [(1, 1, 1), (2, 1, 2), (2, 2, 3)])
def test_feasibility_check_agrees_with_fitter(n_u, n_y, F):
    # the fitter rejects every window that param_count rejects and solves the
    # smallest one it accepts
    rng = np.random.default_rng(9)
    R = random_spectra(rng, n_u * F, 64)
    Z = random_spectra(rng, n_u * F + n_y, 64)
    for n_w in range(1, 20):
        cfg = LocalModelConfig(half_window=n_w)
        params, data = param_count(cfg, n_u, n_y, F)
        if params <= data:
            break
        with pytest.raises(LocalFitError, match="parameters"):
            fit_local(Z, R, 20, cfg)
    assert np.isfinite(fit_local(Z, R, 20, cfg).response).all()


def test_sweep_bins_order_purity_and_failures():
    rng = np.random.default_rng(10)
    m = 64
    cfg = LocalModelConfig(degree_num=1, degree_transient=0, degree_den=1,
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

