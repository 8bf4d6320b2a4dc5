import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrfrf import lrm
from mrfrf.errors import LocalFitError
from mrfrf.lrm import LocalModelConfig, fit_local, param_count, sweep_bins
from mrfrf.validate import (local_regressor, lrm_exactness_error,
                            random_spectra)


def without_certificate(monkeypatch):
    """Certify no row, so every row takes the SVD for its rank and exact
    condition."""
    monkeypatch.setattr(lrm, "_frobenius_condition",
                        lambda inv11, X, inv22, s1, s2:
                        np.full(X.shape[:2], np.inf))


def exact_conditions(monkeypatch, Z, R, bins, cfg):
    """Each bin's exact condition, max_i cond_2(T_i), from the SVD path."""
    with monkeypatch.context() as patch:
        without_certificate(patch)
        return [r.condition for r in sweep_bins(Z, R, bins, cfg)]


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
    with pytest.raises(LocalFitError, match="parameters"):
        sweep_bins(Z, R, range(32), cfg)


@pytest.mark.parametrize("k", [200, 205, -1, -195])
def test_center_bin_off_the_grid_raises(k):
    # 205 and -195 are bin 5 modulo the grid, which a circular window would
    # otherwise fit and label with the bin asked for
    rng = np.random.default_rng(31)
    cfg = LocalModelConfig(half_window=12)
    R = random_spectra(rng, 2, 200)
    Z = random_spectra(rng, 3, 200)
    message = (rf"^center bin {k} is outside the grid of 200 bins "
               rf"\(0 \.\.\. 199\)$")
    with pytest.raises(LocalFitError, match=message):
        fit_local(Z, R, k, cfg)
    with pytest.raises(LocalFitError, match=message):
        sweep_bins(Z, R, [5, k], cfg)


def test_sweep_bins_rejects_spectra_on_different_grids():
    rng = np.random.default_rng(32)
    cfg = LocalModelConfig(half_window=12)
    R = random_spectra(rng, 2, 64)
    Z = random_spectra(rng, 3, 65)
    for fit in (lambda: fit_local(Z, R, 5, cfg),
                lambda: sweep_bins(Z, R, [5], cfg)):
        with pytest.raises(LocalFitError, match="same bin grid"):
            fit()


@pytest.mark.parametrize("threshold", [np.nan, 0.0, -1.0])
def test_condition_threshold_must_be_positive(threshold):
    # NaN would certify no row and trigger no fallback; 0 or less would send
    # every bin to the fallback
    with pytest.raises(LocalFitError, match="condition_threshold must be "
                       "positive"):
        LocalModelConfig(condition_threshold=threshold)
    assert LocalModelConfig(condition_threshold=np.inf).condition_threshold \
        == np.inf


@pytest.mark.parametrize("key,value,reason", [
    ("degree_num", 2.0, "an integer, not 2.0"),
    ("degree_transient", "3", "an integer, not '3'"),
    ("degree_den", True, "an integer, not True"),
    ("half_window", 2.5, "an integer, not 2.5"),
    ("degree_den", -1, "at least 0, not -1"),
    ("half_window", 0, "at least 1, not 0"),
])
def test_degrees_and_half_window_must_be_integers(key, value, reason):
    # a float degree would fail in range(); a bool or a fraction would be
    # taken as the integer it rounds to
    with pytest.raises(LocalFitError, match=f"^{key} must be {reason}$"):
        LocalModelConfig(**{key: value})
    assert getattr(LocalModelConfig(**{key: np.int64(4)}), key) == 4


@pytest.mark.parametrize("k", [3.7, "5", True, np.True_])
def test_center_bin_must_be_an_integer(k):
    # int() would fit bins 3, 5 and 1 under the labels asked for
    rng = np.random.default_rng(33)
    cfg = LocalModelConfig(half_window=12)
    R = random_spectra(rng, 2, 64)
    Z = random_spectra(rng, 3, 64)
    message = f"^center bin must be an integer, not {re.escape(repr(k))}$"
    with pytest.raises(LocalFitError, match=message):
        fit_local(Z, R, k, cfg)
    with pytest.raises(LocalFitError, match=message):
        sweep_bins(Z, R, [5, k], cfg)
    assert sweep_bins(Z, R, [np.int64(5)], cfg)[0].center_bin == 5


def test_condition_does_not_depend_on_units(monkeypatch):
    # conditions are those of the unit-norm columns, so scaling an excitation
    # channel by 1e6 and an output row by 1e-6 moves no condition, certified
    # or exact, and scales the response column and row and the transient row
    rng = np.random.default_rng(34)
    m = 96
    cfg = LocalModelConfig(half_window=12)
    R = random_spectra(rng, 2, m)
    Z = random_spectra(rng, 3, m)
    col, row = np.array([1.0, 1e-6]), np.array([1e-6, 1.0, 1.0])
    for certify in (True, False):
        with monkeypatch.context() as patch:
            if not certify:
                without_certificate(patch)
            a = sweep_bins(Z, R, range(m), cfg)
            b = sweep_bins(row[:, None] * Z, R / col[:, None], range(m), cfg)
        for x, y in zip(a, b):
            assert abs(y.condition - x.condition) <= 1e-10 * x.condition
            peak = np.abs(x.response).max()
            assert np.abs(y.response / (row[:, None] * col) - x.response
                          ).max() <= 1e-10 * peak
            assert np.abs(y.transient / row - x.transient).max() \
                <= 1e-10 * np.abs(x.transient).max()


@pytest.mark.parametrize("n_r,n_z,degree_den", [(4, 5, 3), (6, 7, 3),
                                                (4, 5, 0)])
def test_block_regressor_is_the_dense_regressor_bit_for_bit(n_r, n_z,
                                                            degree_den):
    # before scaling, each output row's columns and data in a block are the
    # bits of validate.local_regressor's column-by-column build, at bins
    # whose windows wrap around either end of the grid
    rng = np.random.default_rng(29)
    m = 160
    cfg = LocalModelConfig(degree_den=degree_den)
    R = random_spectra(rng, n_r, m)
    Z = random_spectra(rng, n_z, m)
    ks = np.array([0, 1, 37, 80, 158, 159])
    reg = lrm._Regressor(Z, R, cfg)
    M = reg.block((ks[:, None] + np.arange(-30, 31)) % m)
    n1, rd = reg.n1, degree_den
    assert M.shape == (len(ks), 61, n1 + n_z * (rd + 1))
    assert M.flags.c_contiguous
    for b, k in enumerate(ks):
        for i in range(n_z):
            A, data = local_regressor(Z, R, int(k), cfg, i)
            at = n1 + i * (rd + 1)
            cols = np.concatenate([M[b, :, :n1], M[b, :, at:at + rd]], axis=1)
            assert cols.tobytes() == A.tobytes()
            assert M[b, :, at + rd].tobytes() == data.tobytes()


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
    fit = fit_local(Z, R, 20, cfg)
    assert np.isfinite(fit.response).all()
    if params == data:   # one row per parameter: every row fitted exactly
        assert fit.residual == 0.0


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
            assert r.error == (f"least-squares solve failed at bin "
                               f"{r.center_bin}: non-finite value in the "
                               f"window")
            assert np.isnan(r.response).all()
        else:
            assert np.isfinite(r.response).all()


def test_fit_local_on_a_non_finite_window_raises_local_fit_error():
    # the package's error, with the message sweep_bins records for the bin
    rng = np.random.default_rng(11)
    cfg = LocalModelConfig(degree_num=1, degree_transient=1, degree_den=1,
                           half_window=5)
    R = random_spectra(rng, 1, 40)
    Z = random_spectra(rng, 2, 40)
    Z[0, 10] = np.nan
    with pytest.raises(LocalFitError, match=r"^least-squares solve failed at "
                       r"bin 12: non-finite value in the window$"):
        fit_local(Z, R, 12, cfg)


@pytest.mark.parametrize("n_r,n_z", [(4, 5), (6, 7)])
def test_matches_lstsq_at_benchmark_shapes(monkeypatch, n_r, n_z):
    rng = np.random.default_rng(20)
    m, k0 = 160, 37
    cfg = LocalModelConfig()
    R = random_spectra(rng, n_r, m)
    Z = random_spectra(rng, n_z, m)
    fit = fit_local(Z, R, k0, cfg)
    without_certificate(monkeypatch)
    exact = fit_local(Z, R, k0, cfg)
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
    # every row is certified: cond_2 <= cond_F <= n cond_2; the SVD path
    # gives cond_2 itself
    n = A.shape[1]
    assert max(conds) <= fit.condition <= n * max(conds)
    assert abs(exact.condition - max(conds)) < 1e-10 * max(conds)
    assert same_fit(exact, replace(fit, condition=exact.condition))


def lstsq_residual(Z, R, k0, cfg):
    """The residual norm over every output row of np.linalg.lstsq's
    (minimum-norm) solutions of the dense per-row problems."""
    res_sq = 0.0
    for i in range(Z.shape[0]):
        A, b = local_regressor(Z, R, k0, cfg, i)
        theta, *_ = np.linalg.lstsq(A, b, rcond=None)
        res_sq += np.linalg.norm(A @ theta - b) ** 2
    return np.sqrt(res_sq)


@pytest.mark.parametrize("case", ["rank-deficient row", "degree_den 0"])
def test_residual_matches_lstsq(case):
    rng = np.random.default_rng(27)
    m, n_r, n_z, k0 = 160, 4, 5, 50
    cfg = LocalModelConfig()
    R = random_spectra(rng, n_r, m)
    Z = random_spectra(rng, n_z, m)
    if case == "rank-deficient row":
        # row 2 is nonzero only at the center, where rho = 0: its
        # denominator columns vanish, a null space off the estimates
        Z[2] = 0.0
        Z[2, k0] = 1.0 - 2.0j
        A, _ = local_regressor(Z, R, k0, cfg, 2)
        assert np.linalg.matrix_rank(A) == A.shape[1] - cfg.degree_den
    else:
        cfg = replace(cfg, degree_den=0)
    fit = fit_local(Z, R, k0, cfg)
    expected = lstsq_residual(Z, R, k0, cfg)
    assert expected > 0.1
    assert abs(fit.residual - expected) < 1e-12 * expected


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
    # a small model, then the benchmark's shapes: F=2 with a 1x2 plant
    # (5 rows, n=23) and F=3 (7 rows, n=31); last, both shapes with the
    # last row zero on bins 70-130, so that bin 100's window of that row is
    # all zero and its R22 exactly 0: a singular triangle in the blocks of
    # bins 96-101, which must leave its block mates' conditions alone
    rng = np.random.default_rng(22)
    for n_r, n_z, n_w, m, seed in ((2, 3, 12, 61, None), (4, 5, 30, 80, None),
                                   (6, 7, 30, 80, None), (4, 5, 30, 160, 28),
                                   (6, 7, 30, 160, 28)):
        if seed is not None:
            rng = np.random.default_rng(seed)
        cfg = LocalModelConfig(half_window=n_w)
        R = random_spectra(rng, n_r, m)
        Z = random_spectra(rng, n_z, m)
        if seed is not None:
            Z[-1, 70:131] = 0.0
        swept = sweep_bins(Z, R, range(m), cfg)
        order = rng.permutation(m)
        shuffled = sweep_bins(Z, R, order, cfg)
        assert [r.center_bin for r in shuffled] == order.tolist()
        by_bin = {r.center_bin: r for r in shuffled}
        for k in range(m):
            single = fit_local(Z, R, k, cfg)
            assert same_fit(swept[k], single)
            assert same_fit(by_bin[k], single)


def test_fit_does_not_depend_on_the_memory_layout_of_the_spectra(
        monkeypatch):
    # a Fortran-ordered Z and a strided view of R give every bin the bytes
    # of C-ordered copies, also where the median threshold sends half the
    # bins to the fallback refit
    rng = np.random.default_rng(30)
    m, n_r, n_z = 160, 4, 5
    R2 = random_spectra(rng, n_r, 2 * m)
    R, Z = R2[:, ::2], np.asfortranarray(random_spectra(rng, n_z, m))
    assert not R.flags.c_contiguous and not Z.flags.c_contiguous
    Rc, Zc = np.ascontiguousarray(R), np.ascontiguousarray(Z)
    cfg = LocalModelConfig()
    median = float(np.median(exact_conditions(monkeypatch, Zc, Rc, range(m),
                                              cfg)))
    for config in (cfg, replace(cfg, condition_threshold=median)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            strided = sweep_bins(Z, R, range(m), config)
            contiguous = sweep_bins(Zc, Rc, range(m), config)
            for k in (0, 37, 159):
                assert same_fit(fit_local(Z, R, k, config),
                                fit_local(Zc, Rc, k, config))
        assert any(r.fallback for r in strided) == (config is not cfg)
        for a, b in zip(strided, contiguous):
            assert same_fit(a, b)


def test_fallback_bins_warn_in_order_and_equal_polynomial_fits(monkeypatch):
    rng = np.random.default_rng(23)
    m = 48
    cfg = LocalModelConfig(half_window=12)
    R = random_spectra(rng, 2, m)
    Z = random_spectra(rng, 3, m)
    conds = exact_conditions(monkeypatch, Z, R, range(m), cfg)
    split = LocalModelConfig(half_window=12,
                             condition_threshold=float(np.median(conds)))
    bins = rng.permutation(m).tolist()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = sweep_bins(Z, R, bins, split)
    fallbacks = [w for w in caught
                 if "falling back to a polynomial model" in str(w.message)]
    # each points at the caller of sweep_bins
    assert all(w.filename == __file__ for w in fallbacks)
    warned = [int(re.search(r"at bin (\d+);", str(w.message)).group(1))
              for w in fallbacks]
    fell = [r.center_bin for r in out if r.fallback]
    assert 0 < len(fell) < m
    assert warned == fell
    poly = replace(cfg, degree_den=0)
    for r in out:
        if r.fallback:
            # the polynomial fit, carrying the condition that triggered it
            trigger = conds[r.center_bin]
            assert trigger > split.condition_threshold
            assert same_fit(r, replace(fit_local(Z, R, r.center_bin, poly),
                                       fallback=True, condition=trigger))
        else:
            # the rational fit; its condition is cond_2 or, certified, cond_F
            assert conds[r.center_bin] <= r.condition \
                <= split.condition_threshold
            assert same_fit(r, replace(fit_local(Z, R, r.center_bin, cfg),
                                       condition=r.condition))


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


def test_program_error_in_the_solver_propagates(monkeypatch):
    # an error that is not a LinAlgError is a bug, not a withheld bin: it
    # leaves sweep_bins with its type
    rng = np.random.default_rng(26)
    m = 48
    cfg = LocalModelConfig(half_window=12)
    R = random_spectra(rng, 2, m)
    Z = random_spectra(rng, 3, m)

    def broken(*args, **kwargs):   # inv runs on every block, in the certificate
        raise RuntimeError("bug in the solver")

    monkeypatch.setattr(np.linalg, "inv", broken)
    with pytest.raises(RuntimeError, match="bug in the solver"):
        sweep_bins(Z, R, range(m), cfg)


@pytest.mark.parametrize("n_r,n_z", [(4, 5), (6, 7)])
def test_certificate_changes_no_decision_and_no_estimate(monkeypatch, n_r,
                                                         n_z):
    # the benchmark's shapes (n=23 and n=31); the last row is zero on bins
    # 0-69 but at bin 35, so at bins 30-39 its denominator columns are
    # dependent (bin 35's vanish: a singular triangle sends its block to the
    # SVD), and a NaN at bin 120 fails bins 90-150; at the default threshold
    # and at the median exact condition, where half the fitted bins fall back
    rng = np.random.default_rng(28)
    m = 160
    cfg = LocalModelConfig()
    R = random_spectra(rng, n_r, m)
    Z = random_spectra(rng, n_z, m)
    Z[-1, :70] = 0.0
    Z[-1, 35] = 1.0 - 2.0j
    Z[0, 120] = np.nan
    exact = exact_conditions(monkeypatch, Z, R, range(m), cfg)
    median = float(np.median(np.array(exact)[np.isfinite(exact)]))
    for config in (cfg, replace(cfg, condition_threshold=median)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            certified = sweep_bins(Z, R, range(m), config)
            with monkeypatch.context() as patch:
                without_certificate(patch)
                svd = sweep_bins(Z, R, range(m), config)
        assert any(r.fallback for r in svd) == (config is not cfg)
        assert any(r.failed for r in svd)
        for a, b in zip(certified, svd):
            if a.fallback or a.failed:
                assert same_fit(a, b)
            else:
                assert a.condition >= b.condition
                assert same_fit(a, replace(b, condition=a.condition))


def test_identify_runs_no_condition_svd(monkeypatch):
    # every row of the noisy preset's sweep is certified
    from mrfrf.bench import build_benchmark_scenario, run_benchmark

    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    result, _, _ = run_benchmark(build_benchmark_scenario("noisy"))
    assert not result.diagnostics.fallback.any()
    assert calls == []


@settings(max_examples=60, deadline=None, database=None)
@given(F=st.integers(1, 4), n_u=st.integers(1, 2), n_y=st.integers(1, 2),
       degrees=st.tuples(*[st.integers(0, 3)] * 3), model=st.integers(0, 3),
       widen=st.integers(0, 3), margin=st.integers(0, 12),
       seed=st.integers(0, 2**32 - 1))
@example(F=2, n_u=2, n_y=1, degrees=(3, 3, 3), model=0, widen=0, margin=0,
         seed=0)   # constant model: the denominator columns are dependent
@example(F=1, n_u=1, n_y=1, degrees=(2, 1, 0), model=3, widen=0, margin=0,
         seed=1)   # degree_den 0
def test_lrm_exactness_over_shapes(F, n_u, n_y, degrees, model, widen,
                                   margin, seed):
    # in-model data of degree up to the model's own, on windows from exactly
    # n rows up: full-rank rows are certified, and a model of low degree
    # makes a row rank-deficient (its denominator columns in the span of
    # the others), which the SVD path must solve without a leak
    rn, rt, rd = degrees
    n_r = n_u * F
    n = n_r * (rn + 1) + rt + 1 + rd
    n_w = n // 2 + widen
    cfg = LocalModelConfig(degree_num=rn, degree_transient=rt, degree_den=rd,
                           half_window=n_w)
    rng = np.random.default_rng(seed)
    m = 2 * n_w + 1 + margin
    R = random_spectra(rng, n_r, m)
    n_z = n_r + n_y
    Gs = [random_spectra(rng, n_z, n_r) for _ in range(min(model, rn) + 1)]
    Ts = [random_spectra(rng, n_z) for _ in range(min(model, rt) + 1)]
    err, _ = lrm_exactness_error(
        R, int(rng.integers(m)), cfg,
        lambda p: sum(G * p ** s for s, G in enumerate(Gs)),
        lambda p: sum(T * p ** s for s, T in enumerate(Ts)))
    assert err < 1e-9
