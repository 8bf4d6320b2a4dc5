import re
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mrfrf import lrm
from mrfrf.errors import LocalFitError
from mrfrf.lrm import LocalModelConfig, fit_local, param_count, sweep_bins
from mrfrf.validate import (local_regressor, lrm_exactness_error,
                            random_spectra)


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


def test_constant_model_recovered_exactly():
    rng = np.random.default_rng(0)
    for n_r, n_z in ((2, 3), (4, 5)):
        R = random_spectra(rng, n_r, 96)
        G0 = random_spectra(rng, n_z, n_r)
        T0 = random_spectra(rng, n_z, 1)[:, 0]
        err, residual = lrm_exactness_error(
            R, 40, LocalModelConfig(half_window=12), lambda p: G0, lambda p: T0)
        assert err < 1e-10 and residual < 1e-10


def test_polynomial_model_recovered_exactly():
    # data generated by a cubic matrix polynomial in the window variable plus
    # a cubic transient, denominator identity
    rng = np.random.default_rng(1)
    R = random_spectra(rng, 2, 128)
    Gs = [random_spectra(rng, 3, 2) for _ in range(4)]
    Ts = [random_spectra(rng, 3, 1)[:, 0] for _ in range(4)]
    err, residual = lrm_exactness_error(
        R, 50, LocalModelConfig(half_window=15),
        lambda p: sum(G * p ** s for s, G in enumerate(Gs)),
        lambda p: sum(T * p ** s for s, T in enumerate(Ts)))
    assert err < 1e-9 and residual < 1e-9


def test_solution_is_local_optimum():
    rng = np.random.default_rng(3)
    m, n_w = 64, 8
    cfg = LocalModelConfig(degree_num=1, degree_transient=0, degree_den=1,
                           half_window=n_w)
    R = random_spectra(rng, 1, m)
    Z = random_spectra(rng, 1, m)
    k0 = 12
    fit = fit_local(Z, R, k0, cfg)
    A, b = local_regressor(Z, R, k0, cfg, 0)
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



def test_sweep_bins_withholds_bins_whose_solve_fails():
    # a NaN fails every bin whose window covers it; those bins are withheld
    # with a message, the rest of the sweep is unaffected
    rng = np.random.default_rng(11)
    m, n_w, bad_bin = 40, 5, 10
    cfg = LocalModelConfig(degree_num=1, degree_transient=1, degree_den=1,
                           half_window=n_w)
    R = random_spectra(rng, 1, m)
    Z = random_spectra(rng, 2, m)
    Z[0, bad_bin] = np.nan
    out = sweep_bins(Z, R, range(m), cfg)
    covered = [abs(k - bad_bin) <= n_w for k in range(m)]
    assert [r.failed for r in out] == covered
    for r in out:
        if r.failed:
            assert f"solve failed at bin {r.center_bin}" in r.error
            assert np.isnan(r.response).all()
        else:
            assert np.isfinite(r.response).all()


@pytest.mark.parametrize("n_r,n_z", [(4, 5), (6, 7)])
def test_matches_lstsq_at_benchmark_shapes(n_r, n_z):
    rng = np.random.default_rng(20)
    m, k0 = 160, 37
    cfg = LocalModelConfig()
    R = random_spectra(rng, n_r, m)
    Z = random_spectra(rng, n_z, m)
    fit = fit_local(Z, R, k0, cfg)
    res_sq, conds = 0.0, []
    for i in range(n_z):
        A, b = local_regressor(Z, R, k0, cfg, i)
        theta, *_ = np.linalg.lstsq(A, b, rcond=None)
        response, transient = theta[:n_r], theta[n_r * (cfg.degree_num + 1)]
        assert np.abs(fit.response[i] - response).max() \
            < 1e-12 * np.abs(response).max()
        assert abs(fit.transient[i] - transient) < 1e-12 * abs(transient)
        res_sq += np.linalg.norm(A @ theta - b) ** 2
        conds.append(np.linalg.cond(A / np.linalg.norm(A, axis=0)))
    assert abs(fit.residual - np.sqrt(res_sq)) < 1e-12 * np.sqrt(res_sq)
    assert abs(fit.condition - max(conds)) < 1e-10 * max(conds)


def test_rank_deficient_in_model_data_keeps_exact_estimates():
    # a constant model puts every denominator column in the span of the
    # excitation and transient columns: the regressor loses rd ranks, but
    # the null space misses the center estimates
    rng = np.random.default_rng(21)
    m, n_r, n_z, k0 = 160, 4, 5, 50
    cfg = LocalModelConfig()
    R = random_spectra(rng, n_r, m)
    G0 = random_spectra(rng, n_z, n_r)
    T0 = random_spectra(rng, n_z, 1)[:, 0]
    A, _ = local_regressor(G0 @ R + T0[:, None], R, k0, cfg, 0)
    assert np.linalg.matrix_rank(A) == A.shape[1] - cfg.degree_den
    err, _ = lrm_exactness_error(R, k0, cfg, lambda p: G0, lambda p: T0)
    assert err < 1e-10
    # two identical excitation rows: the null space reaches the estimates
    R[1] = R[0]
    with pytest.raises(LocalFitError, match="rank"):
        fit_local(G0 @ R + T0[:, None], R, k0, cfg)


def same_fit(a, b):
    return (a.center_bin == b.center_bin and a.fallback == b.fallback
            and a.error == b.error
            and a.response.tobytes() == b.response.tobytes()
            and a.transient.tobytes() == b.transient.tobytes()
            and np.float64(a.residual).tobytes()
            == np.float64(b.residual).tobytes()
            and np.float64(a.condition).tobytes()
            == np.float64(b.condition).tobytes())


def test_fit_does_not_depend_on_block_or_order():
    rng = np.random.default_rng(22)
    m = 61
    cfg = LocalModelConfig(half_window=12)
    R = random_spectra(rng, 2, m)
    Z = random_spectra(rng, 3, m)
    swept = sweep_bins(Z, R, range(m), cfg)
    order = rng.permutation(m)
    shuffled = sweep_bins(Z, R, order, cfg)
    assert [r.center_bin for r in shuffled] == order.tolist()
    by_bin = {r.center_bin: r for r in shuffled}
    for k in range(m):
        single = fit_local(Z, R, k, cfg)
        assert same_fit(swept[k], single)
        assert same_fit(by_bin[k], single)


def test_fallback_bins_warn_in_order_and_equal_polynomial_fits():
    rng = np.random.default_rng(23)
    m = 48
    cfg = LocalModelConfig(half_window=12)
    R = random_spectra(rng, 2, m)
    Z = random_spectra(rng, 3, m)
    conds = [r.condition for r in sweep_bins(Z, R, range(m), cfg)]
    split = LocalModelConfig(half_window=12,
                             condition_threshold=float(np.median(conds)))
    bins = rng.permutation(m).tolist()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = sweep_bins(Z, R, bins, split)
    warned = [int(re.search(r"at bin (\d+);", str(w.message)).group(1))
              for w in caught if "falling back to a polynomial model"
              in str(w.message)]
    fell = [r.center_bin for r in out if r.fallback]
    assert 0 < len(fell) < m
    assert warned == fell
    poly = replace(cfg, degree_den=0)
    for r in out:
        if r.fallback:
            assert same_fit(r, replace(fit_local(Z, R, r.center_bin, poly),
                                       fallback=True))
        else:
            assert same_fit(r, fit_local(Z, R, r.center_bin, cfg))


def test_failed_stacked_call_is_solved_bin_by_bin(monkeypatch):
    # a LinAlgError from a stacked QR re-solves its block one bin at a time:
    # the other bins come out unchanged, the bin that fails alone is withheld
    rng = np.random.default_rng(24)
    m, bad = 20, 13
    cfg = LocalModelConfig(degree_num=1, degree_transient=1, degree_den=1,
                           half_window=5)
    R = random_spectra(rng, 1, m)
    Z = random_spectra(rng, 2, m)
    clean = sweep_bins(Z, R, range(m), cfg)
    qr = np.linalg.qr

    def failing_qr(a, mode="reduced"):
        # column 5 of the first stacked QR holds z_0, unscaled; its center
        # row is Z[0, k] for each bin k of the block
        if a.ndim == 3 and np.any(a[:, 5, 5] == Z[0, bad]):
            raise np.linalg.LinAlgError("injected")
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", failing_qr)
    out = sweep_bins(Z, R, range(m), cfg)
    for k in range(m):
        if k == bad:
            assert out[k].failed
            assert out[k].error == f"least-squares solve failed at bin {k}: injected"
        else:
            assert same_fit(out[k], clean[k])


def swept(monkeypatch, threads, Z, R, bins, cfg):
    """sweep_bins on the given number of threads: the results, the bins of
    the fallback warnings in the order raised, and the threads that solved
    blocks."""
    solvers = set()
    solve = lrm._solve_or_split

    def traced(*args):
        solvers.add(threading.get_ident())
        return solve(*args)

    monkeypatch.setattr(lrm, "_THREADS", threads)
    monkeypatch.setattr(lrm, "_solve_or_split", traced)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to expose a race
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = sweep_bins(Z, R, bins, cfg)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(lrm, "_solve_or_split", solve)
    fallbacks = [w for w in caught
                 if "falling back to a polynomial model" in str(w.message)]
    # raised on the calling thread, pointing at the caller of sweep_bins
    assert all(w.filename == __file__ for w in fallbacks)
    warned = [int(re.search(r"at bin (\d+);", str(w.message)).group(1))
              for w in fallbacks]
    return out, warned, solvers


@pytest.mark.parametrize("n_r,n_z", [(4, 5), (6, 7)])
def test_two_thread_sweep_matches_one_thread_bytes(monkeypatch, n_r, n_z):
    # the benchmark's shapes: F=2 with a 1x2 plant (5 rows, n=23) and F=3
    # (7 rows, n=31); at the median condition half the bins fall back
    rng = np.random.default_rng(25)
    m = 96
    cfg = LocalModelConfig()
    R = random_spectra(rng, n_r, m)
    Z = random_spectra(rng, n_z, m)
    bins = rng.permutation(m).tolist()
    ref, _, _ = swept(monkeypatch, 1, Z, R, bins, cfg)
    median = float(np.median([r.condition for r in ref]))
    caller = threading.get_ident()
    for config in (cfg, replace(cfg, condition_threshold=median)):
        one, warned_one, solvers_one = swept(monkeypatch, 1, Z, R, bins, config)
        two, warned_two, solvers_two = swept(monkeypatch, 2, Z, R, bins, config)
        assert solvers_one == {caller}
        assert len(solvers_two) == 2 and caller in solvers_two
        assert [r.center_bin for r in two] == bins
        assert all(same_fit(a, b) for a, b in zip(one, two))
        fell = [r.center_bin for r in two if r.fallback]
        assert warned_two == warned_one == fell
    assert 0 < len(fell) < m


@pytest.mark.parametrize("where", ["worker", "every thread"])
def test_program_error_in_a_worker_propagates(monkeypatch, where):
    # an error that is not a LinAlgError is a bug, not a withheld bin: it
    # leaves sweep_bins with its type, and the worker thread is gone
    rng = np.random.default_rng(26)
    m = 48
    cfg = LocalModelConfig(half_window=12)
    R = random_spectra(rng, 2, m)
    Z = random_spectra(rng, 3, m)
    caller = threading.get_ident()
    svd = np.linalg.svd

    def broken(*args, **kwargs):
        if where == "every thread" or threading.get_ident() != caller:
            raise RuntimeError("bug in the solver")
        return svd(*args, **kwargs)

    monkeypatch.setattr(lrm, "_THREADS", 2)
    monkeypatch.setattr(np.linalg, "svd", broken)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="bug in the solver"):
        sweep_bins(Z, R, range(m), cfg)
    assert threading.active_count() == before
