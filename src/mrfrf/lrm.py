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
the row's denominator columns -rho^s z_i.  Each column of a bin's
M = [A1 | A2_0 z_0 | A2_1 z_1 | ...] is a weight over the window times one
signal at k + r: rho^s R_c, rho^s, -rho^s z_i, or the data z_i.  A sweep
stacks the signals [R; Z; 1] once; a block gathers its windows into one
(B, W, n_cols) M and weights it in place, C-contiguous for the QR's copy.

Per bin, one Householder QR of M gives R11, the triangular factor of A1, and
above it Q1^H A2_i and Q1^H z_i; a second QR of each row's block below R11
gives R22_i, the projected data and, in one more row, a full-rank row's
residual norm (Bjorck, Numerical Methods for Least Squares Problems, SIAM
1996), so M is never multiplied out.  Conditions are those of the regressor
with every column but the data scaled to unit norm, so they measure
collinearity, not units.  M is factored unscaled: Householder QR is
columnwise backward stable (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., SIAM 2002, ch. 19), so with S_i the column norms, read
off R, T_i = [[R11, Q1^H A2_i], [0, R22_i]] gives the scaled factor T_i S_i^-1
up to rounding.  Its rank counts the singular values above max(W, n) eps
s_max (W window rows, n columns), and cond_2 is s_max over the smallest
counted one.  Both only decide which side of a threshold cond_2 is on, so a
cheap bound settles them first: cond_F = ||T_i S_i^-1||_F ||S_i T_i^-1||_F,
from the block inverse of T_i (R11^-1 per bin; R22_i^-1 and X_i = R11^-1
Q1^H A2_i R22_i^-1 per row), satisfies cond_2 <= cond_F <= n cond_2 (ibid.,
ch. 6).  A row with cond_F at most L = min(condition_threshold,
1/(max(W, n) eps)) / 2 is full rank and no fallback, and reports cond_F; only
the other rows take an SVD of T_i S_i^-1 for their rank and exact cond_2.
The reported condition is thus an upper bound within a factor n at or below
L and exact above it, and every rank, fallback and estimate is the one the
SVD alone would give.  The inverse that certifies a row also solves it in
data units, from its projected data c: theta_2 = R22_i^-1 c_2 and
theta_1 = R11^-1 c_1 - X_i c_2.  A triangle with an exact zero on its
diagonal has no inverse and sends only its own row (R22_i) or bin (R11) to
the SVD.  A rank-deficient row, or one without an inverse, takes the
minimum-norm solution from that SVD, divided by S_i; in-model data makes the
denominator columns dependent while the center estimates stay unique, so
that solution is accepted only when the null space has no component on them.

sweep_bins solves blocks of _BLOCK = 6 bins with stacked LAPACK calls, which
factor every matrix of a stack on its own: a bin's result does not depend on
its block or its place in it (sweep_bins' doc has the order of the work).
"""

import operator
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
        for key, low in (("degree_num", 0), ("degree_transient", 0),
                         ("degree_den", 0), ("half_window", 1)):
            if _integer(value := getattr(self, key), key) < low:
                raise LocalFitError(f"{key} must be at least {low}, not "
                                    f"{value!r}")
        if not self.condition_threshold > 0:
            raise LocalFitError(f"condition_threshold must be positive, not "
                                f"{self.condition_threshold!r}")


def _integer(value, what):
    """value as an int; a bool or a non-integer is a LocalFitError naming it."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise LocalFitError(f"{what} must be an integer, not {value!r}")


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


def _triangle_inverse(T):
    """Inverses of the upper triangles in the stack T, NaN for a singular
    one: LU does not pivot an upper triangle, so an exact zero on its
    diagonal is the only singularity it can report."""
    singular = (np.diagonal(T, axis1=-2, axis2=-1) == 0).any(axis=-1)
    inv = np.linalg.inv(np.where(singular[..., None, None],
                                 np.eye(T.shape[-1]), T))
    inv[singular] = np.nan
    return inv


def _frobenius_condition(inv11, X, inv22, s1, s2):
    """cond_F = ||T_i S_i^-1||_F ||S_i T_i^-1||_F of each row (B, n_z), with
    S_i = diag(s1, s2_i) (module doc).  The columns of T_i S_i^-1 have unit
    norm, and S_i scales row j of T_i^-1 = [[R11^-1, -X_i], [0, R22_i^-1]] by
    s_j, so cond_F^2 = n sum_j s_j^2 ||row_j(T_i^-1)||^2.  A singular triangle
    (a NaN inverse) leaves only its own row, or for R11 its bin, NaN."""
    n, w1, w2 = inv11.shape[-1] + inv22.shape[-1], s1 ** 2, s2 ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.vecdot(np.vecdot(inv11, inv11).real, w1)[:, None]
        return np.sqrt(n * (sq + np.vecdot(np.vecdot(X, X).real, w1[:, None])
                            + np.vecdot(np.vecdot(inv22, inv22).real, w2)))


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

    # one QR per bin of M as gathered; the norms of R's columns are M's, and
    # scale every column but the data z_i to unit norm (module doc)
    Rf = np.linalg.qr(reg.block(idx[good]), mode="r")
    norms = np.sqrt(np.vecdot(Rf, Rf, axis=-2).real)
    scale = np.where(reg.scaled & (norms > 0), norms, 1.0)
    s1, s2 = scale[:, :n1], scale[:, n1:].reshape(B, n_z, rd + 1)[..., :rd]
    R11 = Rf[:, :n1, :n1]
    top = Rf[:, :n1, n1:].reshape(B, n1, n_z, rd + 1).swapaxes(1, 2)
    # each row's columns projected off A1, reduced by a second QR to R22_i
    # (its first rd rows; with rd = 0 nothing is left) over the residual of a
    # full-rank row (row rd, absent when the window is exactly n rows)
    trail = Rf[:, n1:, n1:].reshape(B, -1, n_z, rd + 1).swapaxes(1, 2)
    R2 = np.linalg.qr(trail, mode="r")
    res_sq = np.sum(np.abs(R2[..., rd:, rd]) ** 2, axis=-1)
    R2 = R2[..., :rd, :]
    # T_i^-1 certifies each row and solves it (module doc); R11^-1 [Q1^H A2_i
    # | Q1^H z_i] of every row is one product
    inv11, inv22 = _triangle_inverse(R11), _triangle_inverse(R2[..., :rd])
    c2 = R2[..., :rd, rd, None]
    with np.errstate(over="ignore", invalid="ignore"):
        P = inv11 @ Rf[:, :n1, n1:]
        P = P.reshape(B, n1, n_z, rd + 1).swapaxes(1, 2)
        X = P[..., :rd] @ inv22
        theta = np.concatenate([P[..., rd, None] - X @ c2, inv22 @ c2],
                               axis=-2)[..., 0]
    # a row whose cond_F clears both thresholds, with a factor 2 for the
    # rounding of cond_F and cond_2, is full rank and no fallback; only the
    # other rows take the SVD for their rank and exact condition
    eps = np.finfo(float).eps
    bound = min(config.condition_threshold, 1.0 / (max(W, n) * eps)) / 2
    cond = _frobenius_condition(inv11, X, inv22, s1, s2)
    rank = np.full(cond.shape, n)
    doubt = ~(cond <= bound)

    def scaled(b, i):
        """T_i S_i^-1 of the rows (b, i) (module doc), and S_i's diagonal."""
        s = np.concatenate([s1[b], s2[b, i]], axis=-1)
        T = np.zeros(s.shape + s.shape[-1:], dtype=complex)
        T[..., :n1, :n1], T[..., :n1, n1:] = R11[b], top[b, i, :, :rd]
        T[..., n1:, n1:] = R2[b, i, :, :rd]
        return T / s[..., None, :], s

    if doubt.any():
        s = np.linalg.svd(scaled(*np.nonzero(doubt))[0], compute_uv=False)
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
        T, s = scaled(b, i)
        u, sv, vh = np.linalg.svd(T)
        c = np.concatenate([top[b, i, :, rd], R2[b, i, :, rd]])
        theta[b, i] = vh[:r].conj().T @ ((u[:, :r].conj().T @ c) / sv[:r]) / s
        leak[b, i] = np.abs(vh[r:, watched]).max(initial=0.0) if r else 1.0
        res_sq[b, i] += np.linalg.norm(u[:, r:].conj().T @ c) ** 2

    res = np.sqrt(res_sq.sum(axis=-1))
    leaky = (rank < n) & (leak > _NULL_LEAK_TOL)
    withheld = leaky.any(axis=1)
    for b, j in enumerate(good):
        k = ks[j]
        if withheld[b]:
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
    m, ks = Z.shape[1], [_integer(k, "center bin") for k in bins]
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
