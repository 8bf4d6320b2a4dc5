"""End-to-end identification: lift the fast records, fit local models per slow
bin, extract the lifted sensitivity blocks, and recover the fast-rate FRF on
the full fast grid, including every bin above the slow-rate Nyquist frequency.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, RateError
from .lrm import param_count, sweep_bins
from .lti import FrfMatrix, dft_grid
from .multirate import FAST, SLOW, lift
from .spectral import alias_energy_split, dft


@dataclass(frozen=True)
class BinDiagnostics:
    """Per-slow-bin quality report for one identification run."""

    residual: np.ndarray          # LRM residual norm
    fit_condition: np.ndarray     # LRM window condition number
    sens_condition: np.ndarray    # condition of the lifted sensitivity inverse
    fallback: np.ndarray          # bool: polynomial fallback used
    failed: np.ndarray            # bool: bin withheld
    messages: dict                # bin -> failure message
    alias_energy: np.ndarray      # (F, M) excitation energy split across aliases


@dataclass(frozen=True)
class IdentResult:
    sensitivity: np.ndarray       # (M, n_u F, n_u F) lifted sensitivity
    process_sens_row: np.ndarray  # (M, n_y, n_u F) first-row lifted process sens.
    lifted_row: np.ndarray        # (M, n_y, n_u F) first row of the lifted plant
    frf: FrfMatrix                # fast-grid estimate, withheld bins are NaN
    flags: np.ndarray             # (N,) bool, True where withheld
    diagnostics: BinDiagnostics
    factor: int

    @property
    def n_slow_bins(self):
        return self.sensitivity.shape[0]


def first_row_lifted_P(sens, ps_row, condition_threshold=1e10):
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
    flagged = np.zeros(m, dtype=bool)
    for k in range(m):
        s = sens[k]
        if not np.all(np.isfinite(s)):
            flagged[k] = True
            continue
        c = float(np.linalg.cond(s))
        cond[k] = c
        if not np.isfinite(c) or c > condition_threshold:
            flagged[k] = True
            continue
        # row = ps_row @ inv(s) via a transposed solve
        row[k] = np.linalg.solve(s.T, ps_row[k].T).T
    return row, cond, flagged


def data_row_to_lifted_row(row, factor):
    """Align the data-domain first row with the analytic lifting convention.

    The row estimated from slow-rate spectra is the textbook polyphase row of
    the lifted plant; the analytic block formulas used by recover_P carry the
    off-diagonal blocks in reversed order with an extra one-slow-step delay.
    Block 0 is shared; analytic block b (b >= 1) equals
    exp(-j w_k T_l) times data block F - b.
    """
    row = np.asarray(row)
    m, ny, nrf = row.shape
    F = int(factor)
    nu = nrf // F
    z = np.exp(-2j * np.pi * np.arange(m) / m)[:, None, None]
    out = np.empty_like(row)
    out[:, :, :nu] = row[:, :, :nu]
    for b in range(1, F):
        src = F - b
        out[:, :, b * nu:(b + 1) * nu] = z * row[:, :, src * nu:(src + 1) * nu]
    return out


def recover_P(lifted_row, factor, n_fast_bins, fast_sample_time,
              flags=None, prefactor_sign=1):
    """Fast-rate FRF from the first row of the lifted plant.

    P(k) = B_0(k mod M) + sum_{f=1}^{F-1} e^{+j w_k T_l} e^{+j w_k T_h (F-f)}
    B_f(k mod M), with the prefactors evaluated at the fast-grid frequency,
    which is what yields distinct values beyond the slow Nyquist frequency.
    Flagged slow bins propagate to all fast bins that fold onto them.

    prefactor_sign is a fault-injection hook for the validator; leave at +1.
    """
    row = np.asarray(lifted_row)
    m, ny, nrf = row.shape
    F = int(factor)
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
        pref = np.exp(prefactor_sign * 1j * omega * ts * (F + (F - f)))
        vals += pref[:, None, None] * base[:, :, f * nu:(f + 1) * nu]
    out_flags = np.zeros(n, dtype=bool)
    if flags is not None:
        out_flags = np.asarray(flags, dtype=bool)[kf % m]
        vals[out_flags] = np.nan + 0j
    return FrfMatrix(vals, omega, ts), out_flags


def _averaged_lifted_spectra(u_h, r_h, y_l, factor):
    """Lift and transform, coherently averaging periods when present."""
    p = u_h.n_periods or 1

    def spectra(record, do_lift):
        if p > 1:
            per = [record.period(i) for i in range(p)]
        else:
            per = [record]
        acc = None
        for rec in per:
            if do_lift:
                data = lift(rec, factor).data
                vals = np.fft.fft(data, axis=1)
            else:
                vals = dft(rec).values
            acc = vals if acc is None else acc + vals
        return acc / len(per)

    return (spectra(u_h, True), spectra(r_h, True), spectra(y_l, False))


def identify(u_h, r_h, y_l, factor, config, condition_threshold=1e10):
    """Run the full identification pipeline on one experiment.

    u_h and r_h are fast-rate records of the plant input and excitation; y_l
    is the slow-rate output record.  Records must be aligned (same experiment
    and start sample) and may carry multiple periods, in which case their
    per-period DFTs are averaged coherently.  Returns an IdentResult with the
    estimated lifted sensitivity, the first-row lifted process sensitivity,
    the fast-grid FRF estimate, and per-bin diagnostics.
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
    n_params, n_data = param_count(config, nu, ny, F)
    if n_params > n_data:
        raise RateError(
            f"configuration infeasible: {n_params} parameters against "
            f"{n_data} data points per window"
        )
    U, R, Y = _averaged_lifted_spectra(u_h, r_h, y_l, F)
    Z = np.vstack([U, Y])
    m = Z.shape[1]

    fits = sweep_bins(Z, R, range(m), config)
    nrf = nu * F
    sens = np.empty((m, nrf, nrf), dtype=complex)
    ps_row = np.empty((m, ny, nrf), dtype=complex)
    residual = np.empty(m)
    fit_cond = np.empty(m)
    fallback = np.zeros(m, dtype=bool)
    failed = np.zeros(m, dtype=bool)
    messages = {}
    for fit in fits:
        k = fit.center_bin
        sens[k] = fit.response[:nrf]
        ps_row[k] = fit.response[nrf:]
        residual[k] = fit.residual
        fit_cond[k] = fit.condition
        fallback[k] = fit.fallback
        if fit.failed:
            failed[k] = True
            messages[k] = fit.error

    row_data, sens_cond, sing = first_row_lifted_P(sens, ps_row,
                                                   condition_threshold)
    failed |= sing
    for k in np.nonzero(sing)[0]:
        messages.setdefault(int(k), "lifted sensitivity near-singular")
    lifted_row = data_row_to_lifted_row(row_data, F)
    lifted_row[failed] = np.nan + 0j
    frf, flags = recover_P(lifted_row, F, n_one(u_h), u_h.sample_time,
                           flags=failed)
    r_one = r_h.period(0) if (r_h.n_periods or 1) > 1 else r_h
    energy = alias_energy_split(dft(r_one), F)
    diag = BinDiagnostics(residual, fit_cond, sens_cond, fallback, failed,
                          messages, energy)
    return IdentResult(sens, ps_row, lifted_row, frf, flags, diag, F)


def n_one(record):
    """Samples in one period of a record."""
    return record.n_samples // (record.n_periods or 1)
