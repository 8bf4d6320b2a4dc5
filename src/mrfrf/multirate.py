"""Rate conversion, signal lifting, analytic FRF lifting, and the slow-rate
state-space realization of the multirate closed loop.

The lifting convention stacks channel-major within each time offset: lifted
row block i holds all channels of fast sample m*F + i.
"""

from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class LiftedSignal:
    """Lifted (slow-rate, stacked) signal: (F * channels) x M."""

    data: np.ndarray
    sample_time: float
    factor: int
    n_base_channels: int

    def __post_init__(self):
        d = np.atleast_2d(np.asarray(self.data, dtype=float)).copy()
        if d.shape[0] != self.factor * self.n_base_channels:
            raise RateError("lifted row count must be factor * channels")
        d.setflags(write=False)
        object.__setattr__(self, "data", d)

    @property
    def n_slow_samples(self):
        return self.data.shape[1]


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
    """Rearrange F consecutive fast samples into one stacked slow sample."""
    _check_factor(record, factor)
    rows = np.vstack([record.data[:, i::factor] for i in range(factor)])
    return LiftedSignal(rows, record.sample_time * factor, factor,
                        record.n_channels)


def unlift(lifted, rate_tag=FAST, n_periods=None):
    """Exact inverse of lift()."""
    ch = lifted.n_base_channels
    F = lifted.factor
    m = lifted.n_slow_samples
    out = np.empty((ch, m * F))
    for i in range(F):
        out[:, i::F] = lifted.data[i * ch:(i + 1) * ch]
    return SignalRecord(out, lifted.sample_time / F, rate_tag,
                        n_periods=n_periods)


@dataclass(frozen=True)
class LiftedFrf:
    """FRF of the lifted system on the slow grid.

    values[k] is the (F*n_y) x (F*n_u) lifted response at slow bin k; the
    polyphase components used to assemble it are kept for inspection.
    """

    values: np.ndarray
    components: np.ndarray  # (F, M, n_y, n_u)
    factor: int
    fast_sample_time: float

    @property
    def n_slow_bins(self):
        return self.values.shape[0]

    def block(self, a, b):
        """Block (a, b), 0-indexed, shape (M, n_y, n_u)."""
        ny = self.components.shape[2]
        nu = self.components.shape[3]
        return self.values[:, a * ny:(a + 1) * ny, b * nu:(b + 1) * nu]

    def first_row(self):
        """Blocks (0, 0..F-1) stacked: shape (M, n_y, F*n_u)."""
        ny = self.components.shape[2]
        return self.values[:, :ny, :]


def lift_frf(frf, factor):
    """Lift a fast-rate FRF to its F x F block representation.

    Component i at slow bin k is (zeta_k^i / F) * sum_f P(phi^f zeta_k) phi^(f i)
    with phi = exp(2 pi j / F); evaluating P at phi^f zeta_k is an alias-bin
    lookup on the full fast grid.  Block (a, b) equals component a-b on and
    below the diagonal and zeta_k^F times component F-(b-a) above it.
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
    comps = np.zeros((F, m, ny, nu), dtype=complex)
    for i in range(F):
        acc = np.zeros((m, ny, nu), dtype=complex)
        for f in range(F):
            idx = (ks - f * m) % n
            acc += frf.values[idx] * (phi ** (f * i))
        comps[i] = (zeta ** i)[:, None, None] / F * acc
    values = np.zeros((m, F * ny, F * nu), dtype=complex)
    zf = (zeta ** F)[:, None, None]
    for a in range(F):
        for b in range(F):
            blk = comps[a - b] if a >= b else zf * comps[F - (b - a)]
            values[:, a * ny:(a + 1) * ny, b * nu:(b + 1) * nu] = blk
    return LiftedFrf(values, comps, F, frf.sample_time)


class _Affine:
    """Linear expression s = Sx @ x + Sv @ v used to unroll one slow period."""

    __slots__ = ("x", "v")

    def __init__(self, x, v):
        self.x = x
        self.v = v

    def __add__(self, other):
        return _Affine(self.x + other.x, self.v + other.v)

    def __sub__(self, other):
        return _Affine(self.x - other.x, self.v - other.v)

    def left(self, M):
        return _Affine(M @ self.x, M @ self.v)


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
    (F*n_u) followed by the slow-rate output (n_y).  Composing the F fast
    steps of one slow period collapses the period-F time-varying loop into a
    single time-invariant system whose FRF equals the lifted closed-loop maps.

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

    n_p, n_w, n_c = P.n_states, W.n_states, C.n_states
    nx = n_p + n_w + n_c
    nv = F * nu + F * ny

    def state_sel(a, b):
        S = np.zeros((b - a, nx))
        S[:, a:b] = np.eye(b - a)
        return _Affine(S, np.zeros((b - a, nv)))

    def input_sel(a, b):
        S = np.zeros((b - a, nv))
        S[:, a:b] = np.eye(b - a)
        return _Affine(np.zeros((b - a, nx)), S)

    xp = state_sel(0, n_p)
    xw = state_sel(n_p, n_p + n_w)
    xc = state_sel(n_p + n_w, nx)
    r0 = input_sel(0, nu)
    e0 = input_sel(F * nu, F * nu + ny)

    # measured output at the sampling instant; the feedthrough loop through
    # plant, filters, and controller is resolved in closed form
    pre = (xp.left(P.C) + r0.left(P.D) + e0
           - xw.left(P.D @ W.C) - xc.left(P.D @ W.D @ C.C))
    y0 = pre.left(minv)
    v = xc.left(C.C) + y0.left(C.D)

    # output noise at the unsampled offsets never reaches the loop, so only
    # the block-0 noise columns are nonzero in the lifted maps
    u_rows = []
    for i in range(F):
        ri = input_sel(i * nu, (i + 1) * nu)
        w_i = xw.left(W.C) + v.left(W.D)
        u_i = ri - w_i
        u_rows.append(u_i)
        xp = xp.left(P.A) + u_i.left(P.B)
        xw = xw.left(W.A) + v.left(W.B)
    xc = xc.left(C.A) + y0.left(C.B)

    A = np.vstack([xp.x, xw.x, xc.x])
    B = np.vstack([xp.v, xw.v, xc.v])
    Cm = np.vstack([np.vstack([u.x for u in u_rows]), y0.x])
    Dm = np.vstack([np.vstack([u.v for u in u_rows]), y0.v])
    slow = StateSpace(A, B, Cm, Dm, F * P.sample_time)
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
