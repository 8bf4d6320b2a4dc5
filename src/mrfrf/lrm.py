"""Per-bin local rational models solved as weighted linear least squares.

At a center bin k the stacked output spectra Z(k+r) over the window
r = -n_w..n_w are modeled as

    D(r) Z(k+r) = N(r) R(k+r) + M(r) + residual,

with N, M matrix polynomials in the local variable and D diagonal (one
denominator polynomial per output row), D(0) = I, so the response matrix and
transient vector are read directly from the solution.  The local variable is
normalized to r/n_w for conditioning; the estimates at the center are
basis-independent.  Windows wrap circularly because DFT spectra are periodic
in the bin index.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import LocalFitError


@dataclass(frozen=True)
class LocalModelConfig:
    """Local rational model settings; the defaults are the benchmark's."""

    degree_num: int = 3
    degree_transient: int = 3
    degree_den: int = 3
    half_window: int = 30
    condition_threshold: float = 1e12

    def __post_init__(self):
        if min(self.degree_num, self.degree_transient, self.degree_den) < 0:
            raise LocalFitError("polynomial degrees must be nonnegative")
        if self.half_window < 1:
            raise LocalFitError("half_window must be at least 1")


def param_count(config, n_u, n_y, factor):
    """(decision parameters, data points) for one local fit.

    Parameters: (n_u F + n_y) (n_u F (R_n + 1) + R_m + 1 + R_d);
    data points: (2 n_w + 1)(n_u F + n_y).
    """
    nr = n_u * factor
    nz = nr + n_y
    params = nz * (nr * (config.degree_num + 1)
                   + config.degree_transient + 1 + config.degree_den)
    data = (2 * config.half_window + 1) * nz
    return params, data


@dataclass(frozen=True)
class LocalFitResult:
    center_bin: int
    response: np.ndarray      # (n_z, n_r) complex
    transient: np.ndarray     # (n_z,) complex
    residual: float
    condition: float
    fallback: bool = False
    error: str | None = None

    @property
    def failed(self):
        return self.error is not None


_NULL_LEAK_TOL = 1e-7


def _solve(A, b, watched):
    """Column-equilibrated least squares with identifiability analysis.

    Unit-norm column scaling removes the (often enormous) unit disparity
    between excitation, transient, and output columns, so the reported
    condition number measures genuine collinearity; the solution itself is
    invariant under the rescaling.

    Data lying exactly in the model class makes the denominator columns
    linear combinations of the others, so the regressor is rank deficient
    even though the center estimates stay unique (the normalization pins the
    denominator at the center).  `watched` lists the coordinates holding the
    center estimates; deficiency is benign exactly when the null space has no
    component on them, in which case the minimum-norm solution is returned.
    Otherwise the deficiency leaks into the estimates and `leak` is large.
    """
    norms = np.linalg.norm(A, axis=0)
    scale = np.where(norms > 0, norms, 1.0)
    a_eq = A / scale
    u, s, vh = np.linalg.svd(a_eq, full_matrices=False)
    smax = s[0] if s.size else 0.0
    tol = max(a_eq.shape) * np.finfo(float).eps * smax
    rank = int(np.sum(s > tol))
    if rank == 0:
        return np.zeros(A.shape[1], dtype=complex), np.inf, True, 1.0
    proj = u[:, :rank].conj().T @ b
    theta_eq = vh[:rank].conj().T @ (proj / s[:rank])
    cond = float(s[0] / s[rank - 1])
    leak = 0.0
    if rank < s.size:
        leak = float(np.abs(vh[rank:][:, watched]).max())
    return theta_eq / scale, cond, rank < s.size, leak


def _fit(Z, R, k, config, rs, idx):
    n_z = Z.shape[0]
    n_r = R.shape[0]
    rho = rs / config.half_window
    rn, rm, rd = config.degree_num, config.degree_transient, config.degree_den
    n_cols = n_r * (rn + 1) + (rm + 1) + rd
    if len(rs) < n_cols:
        raise LocalFitError(
            f"window supplies {len(rs)} rows per output for {n_cols} "
            f"parameters at bin {k}"
        )
    Rw = R[:, idx].T
    # excitation and transient columns are the same for every output row
    shared = [(rho ** s)[:, None] * Rw for s in range(rn + 1)]
    shared.extend((rho ** s)[:, None] for s in range(rm + 1))
    watched = list(range(n_r)) + [n_r * (rn + 1)]
    response = np.zeros((n_z, n_r), dtype=complex)
    transient = np.zeros(n_z, dtype=complex)
    res_sq = 0.0
    cond_max = 0.0
    for i in range(n_z):
        zi = Z[i, idx]
        A = np.hstack(shared + [-(rho ** s)[:, None] * zi[:, None]
                                for s in range(1, rd + 1)])
        theta, cond, deficient, leak = _solve(A, zi, watched)
        if deficient and leak > _NULL_LEAK_TOL:
            raise LocalFitError(
                f"rank-deficient regressor at bin {k}, output row {i}: "
                f"estimates not identifiable (null-space leakage {leak:.2e}, "
                f"condition {cond:.3e})"
            )
        response[i] = theta[:n_r]
        transient[i] = theta[n_r * (rn + 1)]
        res_sq += float(np.sum(np.abs(A @ theta - zi) ** 2))
        cond_max = max(cond_max, cond)
    return response, transient, np.sqrt(res_sq), cond_max


def fit_local(Z, R, k, config):
    """Fit the local model around center bin k.

    Z has shape (n_z, M) (stacked outputs), R has shape (n_r, M); both are
    full-circle spectra on the same grid.  D is diagonal, so each output row
    is its own least-squares problem with one denominator polynomial.
    Returns a LocalFitResult with the response matrix, transient vector,
    residual norm, and window condition number (the worst row).  When the
    condition exceeds the configured threshold the fit falls back to a pure
    local polynomial (denominator fixed to identity) and the result is marked
    accordingly.
    """
    n_bins = Z.shape[1]
    if R.shape[1] != n_bins:
        raise LocalFitError("Z and R must share the same bin grid")
    rs = np.arange(-config.half_window, config.half_window + 1)
    idx = (k + rs) % n_bins
    response, transient, res, cond = _fit(Z, R, k, config, rs, idx)
    fallback = False
    if cond > config.condition_threshold and config.degree_den > 0:
        warnings.warn(
            f"condition {cond:.3e} above threshold at bin {k}; "
            f"falling back to a polynomial model",
            RuntimeWarning, stacklevel=2,
        )
        cfg0 = replace(config, degree_den=0)
        response, transient, res, cond = _fit(Z, R, k, cfg0, rs, idx)
        fallback = True
    return LocalFitResult(k, response, transient, res, cond,
                          fallback=fallback)


def _failed_result(k, n_z, n_r, message):
    nan_mat = np.full((n_z, n_r), np.nan + 0j)
    nan_vec = np.full(n_z, np.nan + 0j)
    return LocalFitResult(k, nan_mat, nan_vec, np.nan, np.inf, error=message)


def sweep_bins(Z, R, bins, config):
    """Independent local fits at each requested bin, in input order.

    Per-bin failures (an unidentifiable model, or a solve that does not
    converge) are recorded in the corresponding result instead of aborting
    the sweep.
    """
    n_z, n_r = Z.shape[0], R.shape[0]
    results = []
    for k in bins:
        try:
            results.append(fit_local(Z, R, int(k), config))
        except LocalFitError as e:
            results.append(_failed_result(int(k), n_z, n_r, str(e)))
        except np.linalg.LinAlgError as e:
            results.append(_failed_result(
                int(k), n_z, n_r, f"least-squares solve failed at bin {k}: {e}"))
    return results
