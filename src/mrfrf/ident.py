"""End-to-end identification: lift the fast records, fit local models per slow
bin, extract the lifted sensitivity blocks, and recover the fast-rate FRF on
the full fast grid, including every bin above the slow-rate Nyquist frequency.

The records are real, so their lifted spectra are Hermitian in the slow bin
index and the local model at bin m - k is the complex conjugate of the one at
bin k: only bins 0 ... m // 2 are fitted, and the others are their conjugates.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, RateError
from .lrm import sweep_bins, window_problem
from .lti import FrfMatrix, dft_grid
from .multirate import FAST, SLOW, SignalRecord, lift
from .spectral import alias_energy_split, dft

#: A bin whose lifted sensitivity has a larger condition number is withheld.
SENS_CONDITION_LIMIT = 1e10


@dataclass(frozen=True)
class BinDiagnostics:
    """Per-slow-bin quality report for one identification run."""

    residual: np.ndarray          # LRM residual norm
    fit_condition: np.ndarray     # LRM window condition: an upper bound within
                                  # a factor n on a certified fit, exact above
                                  # the bound and on a fallback (its trigger)
    sens_condition: np.ndarray    # condition of the lifted sensitivity inverse
    fallback: np.ndarray          # bool: polynomial fallback used
    failed: np.ndarray            # bool: bin withheld
    messages: dict                # bin -> failure message
    alias_energy: np.ndarray      # (F, M) excitation energy split across aliases
    condition_threshold: float    # fit_condition above which the fit fell back


@dataclass(frozen=True)
class IdentResult:
    sensitivity: np.ndarray       # (M, n_u F, n_u F) lifted sensitivity
    process_sens_row: np.ndarray  # (M, n_y, n_u F) first-row lifted process sens.
    lifted_row: np.ndarray        # (M, n_y, n_u F) estimated first row,
                                  # lift() convention
    frf: FrfMatrix                # fast-grid estimate, withheld bins are NaN
    flags: np.ndarray             # (N,) bool, True where withheld
    diagnostics: BinDiagnostics
    factor: int

    @property
    def n_slow_bins(self):
        return self.sensitivity.shape[0]


def first_row_lifted_P(sens, ps_row, condition_threshold=SENS_CONDITION_LIMIT):
    """Indirect first row of the lifted plant: ps_row @ sens^-1 per bin.

    Returns (row, condition, flagged); flagged bins (singular or condition
    above threshold) carry NaN values and are withheld rather than
    interpolated.
    """
    sens = np.asarray(sens)
    ps_row = np.asarray(ps_row)
    m = sens.shape[0]
    ny, nrf = ps_row.shape[1], ps_row.shape[2]
    row = np.full((m, ny, nrf), np.nan + 0j)
    cond = np.full(m, np.inf)
    finite = np.isfinite(sens).all(axis=(1, 2))
    cond[finite] = np.linalg.cond(sens[finite])
    flagged = ~(cond <= condition_threshold)
    # row = ps_row @ inv(s) via a transposed solve
    row[~flagged] = np.linalg.solve(sens[~flagged].swapaxes(1, 2),
                                    ps_row[~flagged].swapaxes(1, 2)
                                    ).swapaxes(1, 2)
    return row, cond, flagged


def recover_P(lifted_row, factor, n_fast_bins, fast_sample_time,
              flags=None, prefactor_sign=1):
    """Fast-rate FRF from the lifted plant's first row, in lift()'s convention.

    P(k) = sum_{f=0}^{F-1} e^{+j w_k T_h f} B_f(k mod M), the polyphase sum,
    with the prefactors evaluated at the fast-grid frequency, which is what
    yields distinct values beyond the slow Nyquist frequency.  Flagged slow
    bins propagate to all fast bins that fold onto them.

    prefactor_sign is a fault-injection hook for the validator; leave at +1.
    """
    row = np.asarray(lifted_row)
    m, ny, nrf = row.shape
    F = int(factor)
    if nrf % F:
        raise RateError(f"lifted row width {nrf} is not a multiple of the "
                        f"factor {F}")
    nu = nrf // F
    n = int(n_fast_bins)
    if n % m:
        raise RateError("fast bin count must be a multiple of the slow count")
    ts = fast_sample_time
    omega = dft_grid(n, ts)
    kf = np.arange(n)
    base = row[kf % m]
    vals = base[:, :, :nu].copy()
    for f in range(1, F):
        pref = np.exp(prefactor_sign * 1j * omega * ts * f)
        vals += pref[:, None, None] * base[:, :, f * nu:(f + 1) * nu]
    out_flags = np.zeros(n, dtype=bool)
    if flags is not None:
        out_flags = np.asarray(flags, dtype=bool)[kf % m]
        vals[out_flags] = np.nan + 0j
    return FrfMatrix(vals, omega, ts), out_flags


def _averaged_lifted_spectra(u_h, r_h, y_l, factor):
    """Lift and transform each record, coherently averaging its periods."""
    p = u_h.n_periods or 1

    def spectra(record, F):
        data = lift(record, F)
        return np.fft.fft(data.reshape(len(data), p, -1), axis=-1).mean(axis=1)

    return spectra(u_h, factor), spectra(r_h, factor), spectra(y_l, 1)


def identify(u_h, r_h, y_l, factor, config):
    """Run the full identification pipeline on one experiment.

    u_h and r_h are fast-rate records of the plant input and excitation; y_l
    is the slow-rate output record.  Records must be aligned (same experiment
    and start sample) and may carry multiple periods, in which case their
    per-period DFTs are averaged coherently.  Returns an IdentResult with the
    estimated lifted sensitivity, the first-row lifted process sensitivity,
    the fast-grid FRF estimate, and per-bin diagnostics.

    Local models are fitted at slow bins 0 ... m // 2 only.  Each bin j above
    m // 2 takes the complex conjugate of bin m - j, which is exact for real
    records, and copies its residual, condition, fallback and failure; its
    message is prefixed "mirror of bin m - j: ".
    """
    F = int(factor)
    if u_h.rate_tag != FAST or r_h.rate_tag != FAST or y_l.rate_tag != SLOW:
        raise RateError("expected fast u/r records and a slow y record")
    n = u_h.n_samples
    if r_h.n_samples != n:
        raise RateError("u_h and r_h must have the same length")
    if n % F:
        raise RateError(f"record length {n} is not divisible by factor {F}")
    if y_l.n_samples * F != n:
        raise RateError("y_l length must be the fast length divided by F")
    if abs(u_h.sample_time - r_h.sample_time) > 1e-15 * u_h.sample_time or \
            abs(y_l.sample_time - F * u_h.sample_time) > 1e-12 * y_l.sample_time:
        raise RateError("sample times are inconsistent with the factor")
    if (u_h.n_periods or 1) != (r_h.n_periods or 1) or \
            (u_h.n_periods or 1) != (y_l.n_periods or 1):
        raise RateError("records disagree on the period count")
    for name, rec in (("u_h", u_h), ("r_h", r_h), ("y_l", y_l)):
        bad = np.argwhere(~np.isfinite(rec.data))
        if bad.size:
            ch, n_bad = bad[0]
            raise DataFormatError(
                f"{name} channel {ch} sample {n_bad} is not finite")

    nu, ny = u_h.n_channels, y_l.n_channels
    n //= u_h.n_periods or 1   # samples in one period
    m = n // F
    if problem := window_problem(config, nu, ny, F, m):
        raise RateError(problem)
    U, R, Y = _averaged_lifted_spectra(u_h, r_h, y_l, F)
    Z = np.vstack([U, Y])

    half = m // 2 + 1
    fits = sweep_bins(Z, R, range(half), config)
    # real records: bin j takes its fit at min(j, m - j), conjugated on the
    # upper half of the grid
    fitted = np.minimum(np.arange(m), m - np.arange(m))
    response = np.array([fit.response for fit in fits])[fitted]
    np.conj(response[half:], out=response[half:])
    sens, ps_row = response[:, :nu * F], response[:, nu * F:]
    residual, fit_cond, fallback, failed = (
        np.array([getattr(fit, name) for fit in fits])[fitted]
        for name in ("residual", "condition", "fallback", "failed"))
    messages = {j: fits[k].error if j < half else
                f"mirror of bin {k}: {fits[k].error}"
                for j, k in zip(np.flatnonzero(failed).tolist(),
                                fitted[failed].tolist())}
    for j in (np.flatnonzero(fallback[half:]) + half).tolist():
        warnings.warn(f"mirror of bin {m - j}: bin {j} is falling back to "
                      f"a polynomial model", RuntimeWarning, stacklevel=2)

    lifted_row, sens_cond, sing = first_row_lifted_P(sens, ps_row)
    failed |= sing
    for k in np.nonzero(sing)[0]:
        messages.setdefault(int(k), "lifted sensitivity near-singular")
    lifted_row[failed] = np.nan + 0j
    frf, flags = recover_P(lifted_row, F, n, u_h.sample_time, flags=failed)
    energy = alias_energy_split(
        dft(SignalRecord(r_h.data[:, :n], r_h.sample_time)), F)
    diag = BinDiagnostics(residual, fit_cond, sens_cond, fallback, failed,
                          messages, energy, config.condition_threshold)
    return IdentResult(sens, ps_row, lifted_row, frf, flags, diag, F)
