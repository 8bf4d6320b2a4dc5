"""Per-bin local rational models solved as weighted linear least squares.

At a center bin k the stacked output spectra Z(k+r) over the window
r = -n_w..n_w are modeled as

    D(r) Z(k+r) = N(r) R(k+r) + M(r) + residual,

with N, M matrix polynomials in the local variable rho = r/n_w (for
conditioning; the center estimates are basis-independent) and D diagonal,
one denominator polynomial per output row, D(0) = I, so the response matrix
and transient vector are read directly from the solution.  Windows wrap
circularly because DFT spectra are periodic in the bin index.

Each output row i is a least-squares problem in the columns [A1 | A2_i]: A1
holds the excitation and transient columns, the same for every row, and A2_i
the row's denominator columns -rho^s z_i.  Columns are scaled to unit norm,
so the condition number measures collinearity, not the unit disparity
between excitation, transient and output columns.  Each column of a bin's
M = [A1 | A2_0 z_0 | A2_1 z_1 | ...] is a weight over the window times one
signal at k + r: rho^s R_c, rho^s, -rho^s z_i, or the data z_i, unscaled.
A sweep stacks the signals [R; Z; 1] once; a block gathers its windows into
one C-contiguous (B, W, n_cols) M, then weights and scales it in place.  A
strided M would sum the norms in another order and move every estimate's
last bits.

Per bin, one Householder QR of M gives R11, the triangular factor of A1, and
above it Q1^H A2_i and Q1^H z_i; a second QR of each row's block below R11
gives R22_i, the projected data and, in one more row, a full-rank row's
residual norm (Bjorck, Numerical Methods for Least Squares Problems, SIAM
1996), so M is never multiplied out.  The factor T_i = [[R11, Q1^H A2_i],
[0, R22_i]] has the singular values of the scaled regressor: its rank counts
those above max(W, n) eps s_max (W window rows, n columns), and its
condition cond_2 is s_max over the smallest counted one.  Both only decide
which side of a threshold cond_2 is on, so a cheap bound settles them
first: cond_F = ||T_i||_F ||T_i^-1||_F, from the block inverse of T_i
(R11^-1 per bin; R22_i^-1 and X_i = R11^-1 Q1^H A2_i R22_i^-1 per row),
satisfies cond_2 <= cond_F <= n cond_2 (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., SIAM 2002, ch. 6).  A row with cond_F at most
L = min(condition_threshold, 1/(max(W, n) eps)) / 2 is full rank and no
fallback, and reports cond_F; only the other rows take an SVD of T_i for
their rank and exact cond_2.  The reported condition is thus an upper bound
within a factor n at or below L and exact above it, and every rank,
fallback and estimate is the one the SVD alone would give.  The inverse
that certifies a row also solves it, from its projected data c:
theta_2 = R22_i^-1 c_2 and theta_1 = R11^-1 c_1 - X_i c_2.  A triangle with
an exact zero on its diagonal has no inverse and sends only its own row
(R22_i) or bin (R11) to the SVD.  A rank-deficient row, or one without an
inverse, takes the minimum-norm solution from an SVD of T_i; in-model data
makes the denominator columns dependent while the center estimates stay
unique, so that solution is accepted only when the null space has no
component on them.

sweep_bins solves blocks of _BLOCK = 6 bins with stacked LAPACK calls, which
factor every matrix of a stack on its own: a bin's result does not depend on
its block or its place in it (sweep_bins' doc has the order of the work).
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
        if not self.condition_threshold > 0:
            raise LocalFitError(f"condition_threshold must be positive, not "
                                f"{self.condition_threshold!r}")


def window_problem(config, n_u, n_y, factor, m):
    """Why config's local model cannot be fitted on m slow bins, or None."""
    n_params, n_data = param_count(config, n_u, n_y, factor)
    if n_params > n_data:
        return (f"configuration infeasible: {n_params} parameters against "
                f"{n_data} data points per window")
    if 2 * config.half_window + 1 > m:
        return (f"local-model window of half_window {config.half_window} is "
                f"wider than the slow grid of M={m} bins")


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
    condition: float          # of the rational fit, also when it fell back:
                              # cond_F <= L, else the exact cond_2 (module doc)
    fallback: bool = False
    error: str | None = None

    @property
    def failed(self):
        return self.error is not None


_NULL_LEAK_TOL = 1e-7
_BLOCK = 6   # bins per stacked solve: fewer pay more Python per bin, more
             # gain no time and add their temporaries to the peak memory


class _Regressor:
    """The regressors of one (Z, R, config) (module doc): column c of M is
    weight[:, c] times column sig[c] of stack, the signals [R; Z; 1] bin by
    bin, over the window; scaled marks the columns scaled to unit norm."""

    def __init__(self, Z, R, config):
        n_z, n_r = Z.shape[0], R.shape[0]
        self.config, self.shape = config, (n_z, n_r)
        self.stack = np.ascontiguousarray(
            np.vstack([R, Z, np.ones(Z.shape[1])]).T, dtype=complex)
        self.bad = ~np.isfinite(self.stack).all(axis=1)
        n_w = config.half_window
        self.rs = np.arange(-n_w, n_w + 1)
        rho = self.rs / n_w
        cols = [(j, rho ** s) for s in range(config.degree_num + 1)
                for j in range(n_r)]
        cols += [(n_r + n_z, rho ** s)
                 for s in range(config.degree_transient + 1)]
        self.n1, self.n = len(cols), len(cols) + config.degree_den
        den = [-(rho ** s) for s in range(1, config.degree_den + 1)]
        cols += [(n_r + i, w) for i in range(n_z) for w in den + [None]]
        self.sig = np.array([c for c, _ in cols])
        self.scaled = np.array([w is not None for _, w in cols])
        self.weight = np.stack([np.ones_like(rho) if w is None else w
                                for _, w in cols], axis=1)

    def block(self, idx):
        """The unscaled regressors (B, W, n_cols) of the window indices idx
        (B, W), in C order (module doc)."""
        M = self.stack[idx].take(self.sig, axis=-1)
        M *= self.weight
        return M


def _factor(R11, top, R22):
    """T_i = [[R11, Q1^H A2_i], [0, R22_i]]; leading axes broadcast."""
    n1, rd = R11.shape[-1], R22.shape[-1]
    T = np.zeros(top.shape[:-2] + (n1 + rd, n1 + rd), dtype=complex)
    T[..., :n1, :n1] = R11
    T[..., :n1, n1:] = top
    T[..., n1:, n1:] = R22
    return T


def _sq_norm(a):
    """Squared Frobenius norms of the matrices in the stack a."""
    flat = a.reshape(a.shape[:-2] + (-1,))
    return np.vecdot(flat, flat).real


def _triangle_inverse(T):
    """Inverses of the upper triangles in the stack T, NaN for a singular
    one: LU does not pivot an upper triangle, so an exact zero on its
    diagonal is the only singularity it can report."""
    singular = (np.diagonal(T, axis1=-2, axis2=-1) == 0).any(axis=-1)
    inv = np.linalg.inv(np.where(singular[..., None, None],
                                 np.eye(T.shape[-1]), T))
    inv[singular] = np.nan
    return inv


def _frobenius_condition(inv11, X, inv22):
    """cond_F = ||T_i||_F ||T_i^-1||_F of each row's factor (B, n_z).

    The columns of T_i have unit norm, so ||T_i||_F^2 = n, and T_i^-1 is
    [[R11^-1, -X_i], [0, R22_i^-1]] with X_i = R11^-1 top_i R22_i^-1.
    cond_2 <= cond_F <= n cond_2.  A singular triangle (a NaN inverse) leaves
    only its own row, or for R11 its own bin, uncertified (NaN).
    """
    n = inv11.shape[-1] + inv22.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(n * (_sq_norm(inv11)[:, None] + _sq_norm(X)
                            + _sq_norm(inv22)))


def _failed_result(k, shape, message):
    """A fit at bin k, of shape (n_z, n_r), that failed for the reason."""
    return LocalFitResult(k, np.full(shape, np.nan + 0j),
                          np.full(shape[0], np.nan + 0j), np.nan, np.inf,
                          error=message)


def _solve(reg, ks):
    """Fit the bins ks of reg with its settings, without the fallback.

    Returns one LocalFitResult per bin; a bin whose fit failed (an
    unidentifiable model, or a window holding a non-finite value) carries
    the reason in its error.  Stacked LAPACK calls raise LinAlgError for the
    whole block.
    """
    config, (n_z, n_r), n1, n = reg.config, reg.shape, reg.n1, reg.n
    rn, rd, W = config.degree_num, config.degree_den, len(reg.rs)
    out = [None] * len(ks)
    idx = (np.asarray(ks)[:, None] + reg.rs) % len(reg.stack)
    finite = ~reg.bad[idx].any(axis=1)
    for j in np.nonzero(~finite)[0]:
        out[j] = _failed_result(ks[j], reg.shape, f"least-squares solve "
                                f"failed at bin {ks[j]}: non-finite value in "
                                f"the window")
    good = np.nonzero(finite)[0]
    if not (B := good.size):
        return out

    # one QR per bin of M, its columns but the data z_i scaled
    M = reg.block(idx[good])
    norms = np.linalg.norm(M, axis=-2, keepdims=True)
    scale = np.where(reg.scaled & (norms > 0), norms, 1.0)
    M /= scale
    s1, s2 = scale[..., :n1], scale[:, 0, n1:].reshape(B, n_z, rd + 1)
    Rf = np.linalg.qr(M, mode="r")
    del M
    R11 = Rf[:, :n1, :n1]
    top = Rf[:, :n1, n1:].reshape(B, n1, n_z, rd + 1).swapaxes(1, 2)
    # each row's columns projected off A1, reduced by a second QR to R22_i
    # (its first rd rows; with rd = 0 nothing is left) over the residual of a
    # full-rank row (row rd, absent when the window is exactly n rows)
    trail = Rf[:, n1:, n1:].reshape(B, -1, n_z, rd + 1).swapaxes(1, 2)
    R2 = np.linalg.qr(trail, mode="r")
    res_sq = np.sum(np.abs(R2[..., rd:, rd]) ** 2, axis=-1)
    R2 = R2[..., :rd, :]
    # T_i^-1 certifies each row and solves it (module doc)
    inv11, inv22 = _triangle_inverse(R11), _triangle_inverse(R2[..., :rd])
    c1, c2 = top[..., rd], R2[..., :rd, rd, None]
    theta = np.empty((B, n_z, n), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        X = (inv11[:, None] @ top[..., :rd]) @ inv22
        theta[..., n1:] = (inv22 @ c2)[..., 0]
        theta[..., :n1] = c1 @ inv11.swapaxes(1, 2) - (X @ c2)[..., 0]
    # a row whose cond_F clears both thresholds, with a factor 2 for the
    # rounding of cond_F and cond_2, is full rank and no fallback; only the
    # other rows take the SVD for their rank and exact condition
    eps = np.finfo(float).eps
    bound = min(config.condition_threshold, 1.0 / (max(W, n) * eps)) / 2
    cond = _frobenius_condition(inv11, X, inv22)
    rank = np.full(cond.shape, n)
    doubt = ~(cond <= bound)
    if doubt.any():
        db, di = np.nonzero(doubt)
        s = np.linalg.svd(_factor(R11[db], top[db, di, :, :rd],
                                  R2[db, di, :, :rd]), compute_uv=False)
        r = np.sum(s > max(W, n) * eps * s[:, :1], axis=-1)
        c = np.full(r.shape, np.inf)
        some = r > 0
        c[some] = s[some, 0] / s[some, r[some] - 1]
        rank[doubt], cond[doubt] = r, c
    # a full-rank row keeps theta from the inverses; a row without them (a
    # singular triangle) takes the SVD's solution whatever rank it counts
    full = (rank == n) & np.isfinite(theta).all(axis=-1)
    # rank-deficient rows: the minimum-norm solution, whose residual adds c off
    # T_i's range, is accepted only if the null space spares the estimates
    watched = list(range(n_r)) + [n_r * (rn + 1)]
    leak = np.zeros(rank.shape)
    for b, i in np.argwhere(~full):
        r = rank[b, i]
        u, sv, vh = np.linalg.svd(
            _factor(R11[b], top[b, i, :, :rd], R2[b, i, :, :rd]))
        c = np.concatenate([top[b, i, :, rd], R2[b, i, :, rd]])
        theta[b, i] = vh[:r].conj().T @ ((u[:, :r].conj().T @ c) / sv[:r])
        leak[b, i] = np.abs(vh[r:, watched]).max(initial=0.0) if r else 1.0
        res_sq[b, i] += np.linalg.norm(u[:, r:].conj().T @ c) ** 2

    theta[..., :n1] /= s1
    theta[..., n1:] /= s2[..., :rd]
    res = np.sqrt(res_sq.sum(axis=-1))
    leaky = (rank < n) & (leak > _NULL_LEAK_TOL)
    for b, j in enumerate(good):
        k = ks[j]
        if leaky[b].any():
            i = int(np.argmax(leaky[b]))
            out[j] = _failed_result(
                k, reg.shape,
                f"rank-deficient regressor at bin {k}, output row {i}: "
                f"estimates not identifiable (null-space leakage "
                f"{leak[b, i]:.2e}, condition {cond[b, i]:.3e})")
            continue
        out[j] = LocalFitResult(k, theta[b, :, :n_r].copy(),
                                theta[b, :, n_r * (rn + 1)].copy(),
                                float(res[b]), float(cond[b].max()))
    return out


def _solve_or_split(reg, ks):
    """_solve on the block ks; if a stacked call fails, bin by bin, and a
    bin whose own call fails is a failed result."""
    try:
        return _solve(reg, ks)
    except np.linalg.LinAlgError as e:
        if len(ks) == 1:
            return [_failed_result(ks[0], reg.shape, f"least-squares solve "
                                   f"failed at bin {ks[0]}: {e}")]
        return [fit for k in ks for fit in _solve_or_split(reg, [k])]


def _fit(Z, R, bins, config):
    """The fits of the bins, _BLOCK at a time from one _Regressor; above the
    threshold, a polynomial refit (degree_den 0) keeping the trigger
    condition, warning in bin order at the caller of fit_local/sweep_bins."""
    m, ks = Z.shape[1], [int(k) for k in bins]
    if R.shape[1] != m:
        raise LocalFitError("Z and R must share the same bin grid")
    for k in ks:
        if not 0 <= k < m:
            raise LocalFitError(f"center bin {k} is outside the grid of {m} "
                                f"bins (0 ... {m - 1})")
    reg = _Regressor(Z, R, config)
    if len(reg.rs) < reg.n:
        raise LocalFitError(f"window supplies {len(reg.rs)} rows per output "
                            f"for {reg.n} parameters")
    fits = [fit for i in range(0, len(ks), _BLOCK)
            for fit in _solve_or_split(reg, ks[i:i + _BLOCK])]
    refit = [j for j, fit in enumerate(fits)
             if not fit.failed and config.degree_den > 0
             and fit.condition > config.condition_threshold]
    if not refit:
        return fits
    for j in refit:
        warnings.warn(f"condition {fits[j].condition:.3e} above threshold at "
                      f"bin {ks[j]}; falling back to a polynomial model",
                      RuntimeWarning, stacklevel=3)
    polys = _fit(Z, R, [ks[j] for j in refit], replace(config, degree_den=0))
    for j, fit in zip(refit, polys):
        fits[j] = fit if fit.failed else replace(
            fit, fallback=True, condition=fits[j].condition)
    return fits


def fit_local(Z, R, k, config):
    """Fit the local model around center bin k, one of Z's M bins.

    Z has shape (n_z, M) (stacked outputs), R has shape (n_r, M); both are
    full-circle spectra on the same grid.  Returns a LocalFitResult with the
    response matrix, transient vector, residual norm, and window condition
    number (the worst row).  Above the condition threshold the fit falls back
    to a local polynomial (denominator fixed to identity), marked as such.  A
    failed fit (an unidentifiable model, or a window with a non-finite value)
    raises LocalFitError with the message sweep_bins records for the bin.
    """
    fit, = _fit(Z, R, [k], config)
    if fit.failed:
        raise LocalFitError(fit.error)
    return fit


def sweep_bins(Z, R, bins, config):
    """Independent local fits at each requested bin, in input order.

    The calling thread solves the bins in blocks of _BLOCK, in order; then
    the fallback test, its warnings and the polynomial refits run in bin
    order.  Per-bin failures (an unidentifiable model, or a solve that does
    not converge) are recorded in the corresponding result instead of
    aborting the sweep.  A bin outside 0 ... M-1, Z and R on different
    grids or a window with fewer rows than parameters raise LocalFitError.
    """
    return _fit(Z, R, bins, config)
