"""DFT machinery, the downsampling aliasing identity, random-phase multisine
generation, and the steady-state frequency-domain oracle of the closed loop.

The forward DFT carries no 1/N factor: X(k) = sum_n x(n) exp(-j w_k n T); the
inverse applies 1/N.  All identities in this package are stated in that
convention.
"""

from dataclasses import dataclass

import numpy as np

from .errors import RateError, SimulationError
from .multirate import FAST, SLOW, SignalRecord


@dataclass(frozen=True)
class Spectrum:
    """Complex spectrum, shape (channels, bins), on a full-circle grid."""

    values: np.ndarray
    sample_time: float
    rate_tag: str = FAST

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=complex)).copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_channels(self):
        return self.values.shape[0]

    @property
    def n_bins(self):
        return self.values.shape[1]


def dft(record):
    """Unnormalized DFT of each channel."""
    if record.n_samples == 0:
        raise RateError("cannot transform an empty record")
    return Spectrum(np.fft.fft(record.data, axis=1), record.sample_time,
                    record.rate_tag)


def idft(spectrum):
    """Inverse DFT (applies 1/N); imaginary residue is discarded."""
    x = np.fft.ifft(spectrum.values, axis=1).real
    return SignalRecord(x, spectrum.sample_time, spectrum.rate_tag)


def alias_slow_spectrum(spectrum, factor):
    """Fold a fast N-bin spectrum onto the slow grid: (1/F) sum_f X(k + f M)."""
    F = int(factor)
    if F < 1:
        raise RateError("factor must be a positive integer")
    n = spectrum.n_bins
    if n % F:
        raise RateError(f"bin count {n} is not divisible by factor {F}")
    m = n // F
    folded = spectrum.values.reshape(spectrum.n_channels, F, m).mean(axis=1)
    return Spectrum(folded, spectrum.sample_time * F, SLOW)


@dataclass(frozen=True)
class MultisineSpec:
    """Periodic random-phase multisine description.

    By default every bin except DC and the Nyquist bin is excited with a flat
    amplitude; the realized signal is rescaled per channel so its RMS matches
    the target exactly.  Phases come from a per-channel child of the seed so
    each channel's spectrum is reproducible independently of the others.
    """

    n_channels: int
    n_samples: int
    sample_time: float
    rms: tuple
    seed: int
    phase_scheme: str = "random"
    amplitude: np.ndarray | None = None
    excite_dc: bool = False

    def __post_init__(self):
        if self.n_samples < 2 or self.n_samples % 2:
            raise RateError("n_samples must be even and at least 2")
        if self.phase_scheme not in ("random", "orthogonal"):
            raise RateError("phase_scheme must be 'random' or 'orthogonal'")
        rms = np.asarray(self.rms, dtype=float).reshape(-1)
        if rms.size == 1:
            rms = np.repeat(rms, self.n_channels)
        if rms.size != self.n_channels:
            raise RateError("rms must be scalar or one value per channel")
        if not np.all(np.isfinite(rms) & (rms >= 0)):
            raise RateError(f"rms must be finite and non-negative, "
                            f"not {rms.tolist()}")
        object.__setattr__(self, "rms", tuple(float(r) for r in rms))

    def amplitude_profile(self):
        """Amplitude per bin over the half spectrum (bins 0..N/2)."""
        half = self.n_samples // 2
        if self.amplitude is not None:
            prof = np.asarray(self.amplitude, dtype=float).reshape(-1).copy()
            if prof.size != half + 1:
                raise RateError("amplitude profile must cover bins 0..N/2")
        else:
            prof = np.ones(half + 1)
        if not self.excite_dc:
            prof[0] = 0.0
        prof[half] = 0.0  # the self-conjugate bin carries no random phase
        return prof


def multisine(spec):
    """Generate one period of the multisine described by `spec`."""
    n = spec.n_samples
    half = n // 2
    prof = spec.amplitude_profile()
    if np.any(prof > 0) and any(r == 0.0 for r in spec.rms):
        raise SimulationError("requested RMS is zero but bins are excited")
    kk = np.arange(1, half)
    shared = None
    if spec.phase_scheme == "orthogonal":
        shared_rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
        shared = shared_rng.uniform(0.0, 2.0 * np.pi, size=n)
    out = np.empty((spec.n_channels, n))
    for c in range(spec.n_channels):
        if spec.phase_scheme == "random":
            rng = np.random.default_rng(np.random.SeedSequence(spec.seed,
                                                               spawn_key=(c,)))
            phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
        else:
            phases = shared + 2.0 * np.pi * c * np.arange(n) / spec.n_channels
        X = np.zeros(n, dtype=complex)
        X[kk] = prof[kk] * np.exp(1j * phases[kk])
        X[n - kk] = np.conj(X[kk])
        if spec.excite_dc:
            X[0] = prof[0]
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
    slow grid (M bins); excitation is a fast-rate Spectrum.
    """
    F = int(factor)
    n = plant_frf.n_bins
    if n % F:
        raise RateError("fast grid length must be divisible by the factor")
    m = n // F
    if controller_frf.n_bins != m:
        raise RateError("controller grid must have N/F bins")
    if excitation.n_bins != n:
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
    rv = excitation.values
    out = np.empty((ny, m), dtype=complex)
    eye = np.eye(ny)
    for k in range(m):
        drive = np.zeros(ny, dtype=complex)
        plk = np.zeros((ny, nu), dtype=complex)
        for f in range(F):
            kk = k + f * m
            drive += pv[kk] @ rv[:, kk] / F
            plk += pv[kk] @ wvals[kk] * zoh[kk] / F
        loop = eye + plk @ controller_frf.values[k]
        try:
            out[:, k] = np.linalg.solve(loop, drive)
        except np.linalg.LinAlgError:
            raise SimulationError(
                f"loop return difference is singular at slow bin {k}"
            ) from None
    return Spectrum(out, plant_frf.sample_time * F, SLOW)


def alias_energy_split(excitation, factor):
    """Per-slow-bin share of excitation energy arriving from each fast alias.

    Returns an (F, M) array of fractions summing to one per bin (uniform when
    a bin receives no energy at all).  Low dominant shares mark bins where the
    folded excitation poorly separates the aliased plant responses.
    """
    F = int(factor)
    n = excitation.n_bins
    m = n // F
    e = np.abs(excitation.values) ** 2
    e = e.sum(axis=0).reshape(F, m)
    tot = e.sum(axis=0)
    out = np.full((F, m), 1.0 / F)
    nz = tot > 0
    out[:, nz] = e[:, nz] / tot[nz]
    return out
