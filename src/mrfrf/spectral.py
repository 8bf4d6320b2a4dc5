"""DFT machinery, the downsampling aliasing identity, random-phase multisine
generation, and the steady-state frequency-domain oracle of the closed loop.

A spectrum is a plain complex array of shape (channels, bins) on the
full-circle grid; the record it came from carries the sample time.  The
forward DFT carries no 1/N factor: X(k) = sum_n x(n) exp(-j w_k n T); the
inverse applies 1/N.  All identities in this package are stated in that
convention.  The one excitation is the random-phase multisine of the paper's
single experiment.
"""

from dataclasses import dataclass

import numpy as np

from .errors import RateError, SimulationError
from .multirate import FAST, SignalRecord


def dft(record):
    """Unnormalized DFT of each channel, shape (channels, bins)."""
    if record.n_samples == 0:
        raise RateError("cannot transform an empty record")
    return np.fft.fft(record.data, axis=1)


def idft(spectrum):
    """Inverse DFT (applies 1/N) of a (channels, bins) spectrum; imaginary
    residue is discarded."""
    return np.fft.ifft(spectrum, axis=1).real


def _slow_grid(n, factor):
    """(F, M): the factor and the slow bin count n / F of an n-bin fast grid,
    which must hold a whole number of slow grids."""
    F = int(factor)
    if F < 1:
        raise RateError("factor must be a positive integer")
    if n % F:
        raise RateError(f"bin count {n} is not divisible by factor {F}")
    return F, n // F


def alias_slow_spectrum(spectrum, factor):
    """Fold a fast N-bin spectrum onto the slow grid: (1/F) sum_f X(k + f M)."""
    F, m = _slow_grid(spectrum.shape[1], factor)
    return spectrum.reshape(spectrum.shape[0], F, m).mean(axis=1)


@dataclass(frozen=True)
class MultisineSpec:
    """Periodic random-phase multisine description.

    Every bin except DC and the Nyquist bin is excited with a flat amplitude;
    the realized signal is rescaled per channel so its RMS matches the target
    exactly.  Phases come from a per-channel child of the seed so each
    channel's spectrum is reproducible independently of the others.
    """

    n_channels: int
    n_samples: int
    sample_time: float
    rms: tuple
    seed: int

    def __post_init__(self):
        if self.n_samples < 2 or self.n_samples % 2:
            raise RateError("n_samples must be even and at least 2")
        rms = np.asarray(self.rms, dtype=float).reshape(-1)
        if rms.size == 1:
            rms = np.repeat(rms, self.n_channels)
        if rms.size != self.n_channels:
            raise RateError("rms must be scalar or one value per channel")
        if not np.all(np.isfinite(rms) & (rms >= 0)):
            raise RateError(f"rms must be finite and non-negative, "
                            f"not {rms.tolist()}")
        if self.n_samples > 2 and not np.all(rms > 0):
            raise RateError(f"rms must be positive on every channel of a "
                            f"multisine that excites bins, not {rms.tolist()}")
        object.__setattr__(self, "rms", tuple(float(r) for r in rms))


def multisine(spec):
    """Generate one period of the multisine described by `spec`."""
    n = spec.n_samples
    kk = np.arange(1, n // 2)
    out = np.empty((spec.n_channels, n))
    for c in range(spec.n_channels):
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed,
                                                           spawn_key=(c,)))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
        X = np.zeros(n, dtype=complex)
        X[kk] = np.exp(1j * phases[kk])
        X[n - kk] = np.conj(X[kk])
        x = np.fft.ifft(X).real
        level = np.sqrt(np.mean(x * x))
        out[c] = x * (spec.rms[c] / level) if level > 0 else x
    return SignalRecord(out, spec.sample_time, FAST, n_periods=1)


def _zoh_gain(zeta, factor):
    """Hold-filter response sum_{f=0}^{F-1} zeta^f."""
    acc = np.ones_like(zeta)
    term = np.ones_like(zeta)
    for _ in range(factor - 1):
        term = term * zeta
        acc = acc + term
    return acc


def predict_slow_output_steady(plant_frf, controller_frf, factor, excitation,
                               filter_frf=None):
    """Noise-free steady-state slow-output spectrum of the closed loop.

    Folds the fast-rate loop relations onto the slow grid with the transient
    term set to zero, which is exact for periodic excitation in steady state:

        Y_l(k) = (I + P_l(k) C(k))^-1 (1/F) sum_f P(k+fM) R(k+fM),
        P_l(k) = (1/F) sum_f P(k+fM) W(k+fM) I_zoh(k+fM).

    plant_frf lives on the full fast grid (N bins), controller_frf on the full
    slow grid (M bins); excitation is the (channels, N) spectrum of the
    fast-rate excitation.  Returns the (outputs, M) slow-output spectrum.
    """
    n = plant_frf.n_bins
    F, m = _slow_grid(n, factor)
    if controller_frf.n_bins != m:
        raise RateError("controller grid must have N/F bins")
    if excitation.shape[1] != n:
        raise RateError("excitation spectrum must live on the fast grid")
    ny, nu = plant_frf.n_outputs, plant_frf.n_inputs
    zeta = np.exp(-2j * np.pi * np.arange(n) / n)
    zoh = _zoh_gain(zeta, F)
    if filter_frf is None:
        wvals = np.broadcast_to(np.eye(nu), (n, nu, nu))
    else:
        if filter_frf.n_bins != n:
            raise RateError("filter FRF must live on the fast grid")
        wvals = filter_frf.values
    pv = plant_frf.values
    out = np.empty((ny, m), dtype=complex)
    eye = np.eye(ny)
    for k in range(m):
        drive = np.zeros(ny, dtype=complex)
        plk = np.zeros((ny, nu), dtype=complex)
        for f in range(F):
            kk = k + f * m
            drive += pv[kk] @ excitation[:, kk] / F
            plk += pv[kk] @ wvals[kk] * zoh[kk] / F
        loop = eye + plk @ controller_frf.values[k]
        try:
            out[:, k] = np.linalg.solve(loop, drive)
        except np.linalg.LinAlgError:
            raise SimulationError(
                f"loop return difference is singular at slow bin {k}"
            ) from None
    return out


def alias_energy_split(excitation, factor):
    """Per-slow-bin share of excitation energy arriving from each fast alias.

    excitation is a (channels, N) fast-rate spectrum.  Returns an (F, M) array
    of fractions summing to one per bin (uniform when a bin receives no energy
    at all).  Low dominant shares mark bins where the folded excitation poorly
    separates the aliased plant responses.
    """
    F, m = _slow_grid(excitation.shape[1], factor)
    e = np.abs(excitation) ** 2
    e = e.sum(axis=0).reshape(F, m)
    tot = e.sum(axis=0)
    out = np.full((F, m), 1.0 / F)
    nz = tot > 0
    out[:, nz] = e[:, nz] / tot[nz]
    return out
