"""Rate conversion, signal lifting, analytic FRF lifting, and the slow-rate
state-space realization of the multirate closed loop.

The lifting convention stacks channel-major within each time offset: lifted
row block i holds all channels of fast sample m*F + i.  A lifted system's
block (a, b) maps input offset b to output offset a; for an LTI system with
impulse response h it is the slow-rate transfer function
sum_j h[j F + a - b] z^-j, which is block-Toeplitz with one slow-step delay
below the diagonal (Chen & Francis 1995, ch. 8).
"""

from dataclasses import dataclass

import numpy as np

from . import _accel
from .errors import LtiError, RateError, SimulationError
from .lti import StateSpace, dft_grid, to_state_space

FAST = "fast"
SLOW = "slow"


@dataclass(frozen=True)
class SignalRecord:
    """Multichannel sampled signal: data has shape (channels, samples)."""

    data: np.ndarray
    sample_time: float
    rate_tag: str = FAST
    n_periods: int | None = None

    def __post_init__(self):
        d = np.atleast_2d(np.asarray(self.data, dtype=float))
        if d.ndim != 2:
            raise RateError("data must be a channels x samples matrix")
        if self.rate_tag not in (FAST, SLOW):
            raise RateError(f"rate_tag must be '{FAST}' or '{SLOW}'")
        if self.sample_time <= 0:
            raise RateError("sample_time must be positive")
        if self.n_periods is not None:
            if self.n_periods < 1 or d.shape[1] % self.n_periods:
                raise RateError("samples must divide evenly by n_periods")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "data", d)

    @property
    def n_channels(self):
        return self.data.shape[0]

    @property
    def n_samples(self):
        return self.data.shape[1]

    def period(self, index):
        """One period as a new record (requires n_periods metadata)."""
        if self.n_periods is None:
            raise RateError("record carries no period bookkeeping")
        n = self.n_samples // self.n_periods
        if not -self.n_periods <= index < self.n_periods:
            raise RateError(f"period index {index} out of range")
        index %= self.n_periods
        return SignalRecord(self.data[:, index * n:(index + 1) * n],
                            self.sample_time, self.rate_tag, n_periods=1)

    def last_periods(self, count):
        """The trailing `count` periods as one record."""
        if self.n_periods is None or count > self.n_periods:
            raise RateError("record does not contain that many periods")
        n = self.n_samples // self.n_periods
        return SignalRecord(self.data[:, -count * n:], self.sample_time,
                            self.rate_tag, n_periods=count)


def _check_factor(record, factor):
    if factor < 1 or int(factor) != factor:
        raise RateError("downsampling factor must be a positive integer")
    if record.n_samples % factor:
        raise RateError(
            f"record length {record.n_samples} is not divisible by {factor}"
        )


def downsample(record, factor):
    """Keep every factor-th sample: output m equals input F*m."""
    _check_factor(record, factor)
    return SignalRecord(record.data[:, ::factor], record.sample_time * factor,
                        SLOW, n_periods=record.n_periods)


def zero_insert(record, factor):
    """Zero-insertion upsampler: factor-1 zeros between consecutive samples."""
    if factor < 1 or int(factor) != factor:
        raise RateError("upsampling factor must be a positive integer")
    out = np.zeros((record.n_channels, record.n_samples * factor))
    out[:, ::factor] = record.data
    return SignalRecord(out, record.sample_time / factor, FAST,
                        n_periods=record.n_periods)


def upsample_zoh(record, factor):
    """Zero-insertion followed by the length-F FIR hold: each sample held F times."""
    if factor < 1 or int(factor) != factor:
        raise RateError("upsampling factor must be a positive integer")
    out = np.repeat(record.data, factor, axis=1)
    return SignalRecord(out, record.sample_time / factor, FAST,
                        n_periods=record.n_periods)


def lift(record, factor):
    """Rearrange F consecutive fast samples into one stacked slow sample:
    returns the (F * channels, M) lifted array."""
    _check_factor(record, factor)
    return np.vstack([record.data[:, i::factor] for i in range(factor)])


def unlift(lifted, factor, sample_time):
    """Exact inverse of lift(): the fast record of a lifted array whose slow
    sample time is sample_time."""
    blocks = lifted.reshape(factor, -1, lifted.shape[1])  # (offset, ch, M)
    return SignalRecord(blocks.transpose(1, 2, 0).reshape(blocks.shape[1], -1),
                        sample_time / factor, FAST)


@dataclass(frozen=True)
class LiftedFrf:
    """FRF of the lifted system on the slow grid, in lift()'s convention:
    values[k] is the (F*n_y) x (F*n_u) lifted response at slow bin k."""

    values: np.ndarray
    factor: int
    fast_sample_time: float

    def block(self, a, b):
        """Block (a, b), 0-indexed, shape (M, n_y, n_u)."""
        ny = self.values.shape[1] // self.factor
        nu = self.values.shape[2] // self.factor
        return self.values[:, a * ny:(a + 1) * ny, b * nu:(b + 1) * nu]

    def first_row(self):
        """Blocks (0, 0..F-1), the polyphase components of the system:
        shape (M, n_y, F*n_u)."""
        return self.values[:, :self.values.shape[1] // self.factor, :]


def lift_frf(frf, factor):
    """Lift a fast-rate FRF to its F x F block representation.

    Block (0, i) at slow bin k is the polyphase component
    (zeta_k^i / F) * sum_f P(phi^f zeta_k) phi^(f i), with
    zeta_k = exp(-2 pi j k / N) and phi = exp(2 pi j / F); evaluating P at
    phi^f zeta_k is an alias-bin lookup on the full fast grid.  Block (a, b)
    equals block (0, b - a) on and above the diagonal and zeta_k^-F times
    block (0, F + b - a) below it.
    """
    F = int(factor)
    if F < 1:
        raise RateError("factor must be a positive integer")
    n = frf.n_bins
    if n % F:
        raise RateError("fast grid length must be divisible by the factor")
    if not frf.is_full_circle_grid():
        raise RateError("lift_frf requires the full-circle fast grid")
    m = n // F
    ks = np.arange(m)
    zeta = np.exp(-2j * np.pi * ks / n)
    phi = np.exp(2j * np.pi / F)
    ny, nu = frf.n_outputs, frf.n_inputs
    row = np.empty((m, ny, F * nu), dtype=complex)
    for i in range(F):
        acc = sum(frf.values[(ks - f * m) % n] * phi ** (f * i)
                  for f in range(F))
        row[:, :, i * nu:(i + 1) * nu] = (zeta ** i)[:, None, None] / F * acc
    values = np.empty((m, F * ny, F * nu), dtype=complex)
    zf = (zeta ** -F)[:, None, None]
    for a in range(F):
        # row a is the first row shifted right by a blocks; the blocks that
        # wrap around to the left are one slow step ahead
        values[:, a * ny:(a + 1) * ny, a * nu:] = row[:, :, :(F - a) * nu]
        values[:, a * ny:(a + 1) * ny, :a * nu] = zf * row[:, :, (F - a) * nu:]
    return LiftedFrf(values, F, frf.sample_time)


def loop_feedthrough(P, C, input_filters):
    """Realization W of the input filters (the identity when there are none)
    and (I + Dp Dw Dc)^-1, which resolves the loop's direct feedthrough at a
    sampling instant; SimulationError when the loop is ill-posed."""
    nu = P.n_inputs
    if input_filters is None:
        W = StateSpace(np.zeros((0, 0)), np.zeros((0, nu)), np.zeros((nu, 0)),
                       np.eye(nu), P.sample_time)
    else:
        W = to_state_space(input_filters)
        if W.n_inputs != nu or W.n_outputs != nu:
            raise LtiError("input filters must be square in the plant inputs")
    loop_d = P.D @ W.D @ C.D
    try:
        minv = np.linalg.inv(np.eye(P.n_outputs) + loop_d)
    except np.linalg.LinAlgError:
        raise SimulationError("loop is ill-posed: I + Dp Dw Dc is singular") from None
    return W, minv


def lift_loop_state_space(plant, controller, factor, input_filters=None):
    """Slow-rate LTI realization of the multirate loop over one period.

    Inputs are the lifted excitation (F*n_u channels) followed by the lifted
    fast output noise (F*n_y channels); outputs are the lifted plant input
    (F*n_u) followed by the slow-rate output without run-out (n_y).
    Composing the F fast steps of one slow period collapses the period-F
    time-varying loop into a single time-invariant system whose FRF equals
    the lifted closed-loop maps.  It is the slow step that the simulator
    runs (``_accel.lifted_step``), without the disturbance and run-out
    inputs and the fast output after the sample instant.

    Raises SimulationError naming the spectral radius if the loop is unstable.
    """
    F = int(factor)
    P = to_state_space(plant)
    C = to_state_space(controller)
    ny, nu = P.n_outputs, P.n_inputs
    if C.n_inputs != ny or C.n_outputs != nu:
        raise LtiError("controller dimensions must map plant outputs to inputs")
    if abs(C.sample_time - F * P.sample_time) > 1e-12 * C.sample_time:
        raise RateError("controller must run at F times the plant sample time")
    W, minv = loop_feedthrough(P, C, input_filters)
    A, B, Cm, Dm = _accel.lifted_step(P.A, P.B, P.C, P.D, W.A, W.B, W.C, W.D,
                                      C.A, C.B, C.C, C.D, minv, F)
    n_r, n_out = F * nu, F * nu + ny    # the rows of u and of y at the instant

    def r_and_eps_h(M):
        """The columns of r and eps_h; eps_h after the sample instant never
        reaches u, the sampled y or the state, so its columns are zero."""
        return np.hstack([M[:, :n_r], M[:, 2 * n_r:2 * n_r + ny],
                          np.zeros((M.shape[0], (F - 1) * ny))])

    slow = StateSpace(A, r_and_eps_h(B), Cm[:n_out], r_and_eps_h(Dm[:n_out]),
                      F * P.sample_time)
    radius = slow.spectral_radius()
    if radius >= 1.0:
        raise SimulationError(
            f"closed loop is unstable: spectral radius {radius:.6f}"
        )
    return slow


def lifted_loop_frf(plant, controller, factor, n_slow_bins, input_filters=None):
    """FRF of the lifted-loop realization on the full slow grid."""
    slow = lift_loop_state_space(plant, controller, factor, input_filters)
    from .lti import freq_response

    return freq_response(slow, dft_grid(n_slow_bins, slow.sample_time))
