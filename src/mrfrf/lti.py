"""Discrete-time LTI systems: rational transfer-function matrices, state-space
realizations, frequency-response evaluation, and time-domain filtering.

Rational entries are stored per matrix entry as coefficient arrays in the lag
operator (ascending powers of q^-1) with a monic constant denominator
coefficient.  Any such entry is causal, including numerators longer than the
denominator.
"""

from dataclasses import dataclass

import numpy as np

from . import _accel
from .errors import LtiError, PoleOnGridError


def _coeff(arr):
    a = np.asarray(arr, dtype=float).reshape(-1).copy()
    if a.size < 1:
        raise LtiError("coefficient arrays must have at least one element")
    if not np.all(np.isfinite(a)):
        raise LtiError("coefficient arrays must be finite")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class RationalTF:
    """Rational transfer-function matrix in the lag operator.

    num[i][j] and den[i][j] hold the coefficients of entry (i, j) in ascending
    powers of q^-1.  Every denominator is monic in q^0.
    """

    num: tuple
    den: tuple
    sample_time: float

    def __post_init__(self):
        if self.sample_time <= 0:
            raise LtiError("sample_time must be positive")
        num = tuple(tuple(_coeff(e) for e in row) for row in self.num)
        den = tuple(tuple(_coeff(e) for e in row) for row in self.den)
        if len(num) == 0 or len(num[0]) == 0:
            raise LtiError("system must have at least one entry")
        n_in = len(num[0])
        if any(len(row) != n_in for row in num) or len(den) != len(num) or \
                any(len(row) != n_in for row in den):
            raise LtiError("num and den must be rectangular with equal shape")
        for row in den:
            for e in row:
                if e[0] != 1.0:
                    raise LtiError(
                        "denominators must have constant coefficient exactly 1"
                    )
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def n_outputs(self):
        return len(self.num)

    @property
    def n_inputs(self):
        return len(self.num[0])

    @classmethod
    def siso(cls, num, den, sample_time):
        return cls(((num,),), ((den,),), sample_time)

    @classmethod
    def static_gain(cls, gain, sample_time):
        """Constant-gain system from a scalar or 2-D array."""
        g = np.atleast_2d(np.asarray(gain, dtype=float))
        num = tuple(tuple(np.array([gij]) for gij in row) for row in g)
        den = tuple(tuple(np.array([1.0]) for _ in row) for row in g)
        return cls(num, den, sample_time)

    def poles(self):
        """All finite poles (roots of the entry denominators in z)."""
        out = []
        for row in self.den:
            for e in row:
                if e.size > 1:
                    out.extend(np.roots(e))
        return np.asarray(out, dtype=complex)


@dataclass(frozen=True)
class StateSpace:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    sample_time: float

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise LtiError("A must be square")
        if B.shape[0] != n or C.shape[1] != n:
            raise LtiError("B/C dimensions inconsistent with A")
        if D.shape != (C.shape[0], B.shape[1]):
            raise LtiError("D dimensions inconsistent with B and C")
        if self.sample_time <= 0:
            raise LtiError("sample_time must be positive")
        for M in (A, B, C, D):
            M.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def n_states(self):
        return self.A.shape[0]

    @property
    def n_inputs(self):
        return self.B.shape[1]

    @property
    def n_outputs(self):
        return self.C.shape[0]

    def spectral_radius(self):
        if self.n_states == 0:
            return 0.0
        return float(np.abs(np.linalg.eigvals(self.A)).max())


@dataclass(frozen=True)
class FrfMatrix:
    """Complex matrix-valued frequency response sampled on a grid.

    values has shape (bins, n_outputs, n_inputs); omega is the grid in rad/s.
    """

    values: np.ndarray
    omega: np.ndarray
    sample_time: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim == 1:
            v = v[:, None, None]
        if v.ndim != 3:
            raise LtiError("values must have shape (bins, n_y, n_u)")
        w = np.asarray(self.omega, dtype=float).reshape(-1)
        if w.size != v.shape[0]:
            raise LtiError("omega length must match the number of bins")
        v.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "omega", w)

    @property
    def n_bins(self):
        return self.values.shape[0]

    @property
    def n_outputs(self):
        return self.values.shape[1]

    @property
    def n_inputs(self):
        return self.values.shape[2]

    def is_full_circle_grid(self, rtol=1e-9):
        """True if omega_k = 2 pi k / (N T) for k = 0..N-1."""
        n = self.n_bins
        ref = dft_grid(n, self.sample_time)
        scale = ref[1] if n > 1 else 1.0
        return bool(np.allclose(self.omega, ref, rtol=0, atol=rtol * scale))


def dft_grid(n_bins, sample_time):
    """Full-circle frequency grid omega_k = 2 pi k / (N T), k = 0..N-1."""
    return 2.0 * np.pi * np.arange(n_bins) / (n_bins * sample_time)


def _polyval_qinv(coeffs, zeta):
    """Evaluate sum_i c_i * zeta^i (coefficients in ascending powers)."""
    acc = np.zeros_like(zeta, dtype=complex)
    for c in coeffs[::-1]:
        acc = acc * zeta + c
    return acc


def freq_response(sys, omega):
    """Frequency response on a grid, substituting q^-1 <- exp(-j omega T).

    Accepts RationalTF or StateSpace; returns an FrfMatrix.
    """
    omega = np.asarray(omega, dtype=float).reshape(-1)
    zeta = np.exp(-1j * omega * sys.sample_time)
    if isinstance(sys, RationalTF):
        vals = np.empty((omega.size, sys.n_outputs, sys.n_inputs), dtype=complex)
        for i in range(sys.n_outputs):
            for j in range(sys.n_inputs):
                numv = _polyval_qinv(sys.num[i][j], zeta)
                denv = _polyval_qinv(sys.den[i][j], zeta)
                scale = 1.0 + float(np.abs(sys.den[i][j]).max())
                bad = np.abs(denv) < 1e-12 * scale
                if np.any(bad):
                    k = int(np.argmax(bad))
                    raise PoleOnGridError(
                        f"denominator of entry ({i},{j}) vanishes at bin {k} "
                        f"(omega={omega[k]:.6g} rad/s)"
                    )
                vals[:, i, j] = numv / denv
        return FrfMatrix(vals, omega, sys.sample_time)
    if isinstance(sys, StateSpace):
        n = sys.n_states
        vals = np.empty((omega.size, sys.n_outputs, sys.n_inputs), dtype=complex)
        if n == 0:
            vals[:] = sys.D
        else:
            eye = np.eye(n)
            for k, zk in enumerate(zeta):
                # q^-1 <- zeta means z = 1/zeta in C (zI - A)^-1 B + D
                try:
                    vals[k] = sys.C @ np.linalg.solve(eye / zk - sys.A, sys.B) + sys.D
                except np.linalg.LinAlgError:
                    raise PoleOnGridError(
                        f"state matrix is singular at bin {k} "
                        f"(omega={omega[k]:.6g} rad/s)"
                    ) from None
        return FrfMatrix(vals, omega, sys.sample_time)
    raise TypeError(f"unsupported system type {type(sys).__name__}")


def _entry_realization(num, den):
    """Controllable-canonical realization of one rational entry.

    The denominator is zero-padded when the numerator is longer; the entry is
    causal either way because coefficients are powers of q^-1.
    """
    n = max(len(den), len(num)) - 1
    den = np.concatenate([den, np.zeros(n + 1 - len(den))])
    num = np.concatenate([num, np.zeros(n + 1 - len(num))])
    b0 = num[0]
    if n == 0:
        return (np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
                np.array([[b0]]))
    A = np.zeros((n, n))
    A[0, :] = -den[1:]
    if n > 1:
        A[1:, :-1] = np.eye(n - 1)
    B = np.zeros((n, 1))
    B[0, 0] = 1.0
    C = (num[1:] - b0 * den[1:]).reshape(1, n)
    D = np.array([[b0]])
    return A, B, C, D


def to_state_space(sys):
    """Block-diagonal state-space realization of a RationalTF; a StateSpace
    is returned unchanged."""
    if isinstance(sys, StateSpace):
        return sys
    blocks = [[_entry_realization(sys.num[i][j], sys.den[i][j])
               for j in range(sys.n_inputs)] for i in range(sys.n_outputs)]
    n_tot = sum(b[0].shape[0] for row in blocks for b in row)
    A = np.zeros((n_tot, n_tot))
    B = np.zeros((n_tot, sys.n_inputs))
    C = np.zeros((sys.n_outputs, n_tot))
    D = np.zeros((sys.n_outputs, sys.n_inputs))
    ofs = 0
    for i in range(sys.n_outputs):
        for j in range(sys.n_inputs):
            a, b, c, d = blocks[i][j]
            n = a.shape[0]
            A[ofs:ofs + n, ofs:ofs + n] = a
            B[ofs:ofs + n, j] = b[:, 0]
            C[i, ofs:ofs + n] = c[0]
            D[i, j] += d[0, 0]
            ofs += n
    return StateSpace(A, B, C, D, sys.sample_time)


STABILITY_MARGIN = 1e-9


def assert_stable(sys, what="system"):
    """Raise if any pole has magnitude >= 1 - 1e-9."""
    if isinstance(sys, RationalTF):
        poles = sys.poles()
        radius = float(np.abs(poles).max()) if poles.size else 0.0
    else:
        radius = sys.spectral_radius()
    if radius >= 1.0 - STABILITY_MARGIN:
        raise LtiError(f"{what} is not strictly stable (pole radius {radius:.9f})")


def filter_signal(sys, record):
    """Run a state-space (or rational) system from rest over a SignalRecord."""
    from .multirate import SignalRecord

    ss = to_state_space(sys)
    if abs(record.sample_time - ss.sample_time) > 1e-15 * ss.sample_time:
        raise LtiError(
            f"rate mismatch: signal T={record.sample_time!r}, "
            f"system T={ss.sample_time!r}"
        )
    if record.n_channels != ss.n_inputs:
        raise LtiError(
            f"channel count {record.n_channels} does not match "
            f"system inputs {ss.n_inputs}"
        )
    _, y = _accel.ss_filter(ss.A, ss.B, ss.C, ss.D, record.data.T)
    return SignalRecord(y.T, record.sample_time, record.rate_tag,
                        n_periods=record.n_periods)


# --- JSON system format -----------------------------------------------------
#
# {"num": [[...], ...], "den": [[...], ...], "ts": <seconds>, "shape": [ny, nu]}
#
# num/den list the matrix entries row-major, one coefficient array each.  The
# optional "shape" disambiguates non-SISO layouts; without it the entries are
# read as a single output row.

def system_to_dict(sys):
    if not isinstance(sys, RationalTF):
        raise TypeError("only RationalTF systems serialize to JSON")
    num = [list(sys.num[i][j]) for i in range(sys.n_outputs)
           for j in range(sys.n_inputs)]
    den = [list(sys.den[i][j]) for i in range(sys.n_outputs)
           for j in range(sys.n_inputs)]
    return {"num": num, "den": den, "ts": sys.sample_time,
            "shape": [sys.n_outputs, sys.n_inputs]}


def system_from_dict(doc):
    try:
        num, den, ts = doc["num"], doc["den"], doc["ts"]
    except KeyError as e:
        raise LtiError(f"system document missing field {e}") from None
    if len(num) != len(den):
        raise LtiError("num and den must list the same number of entries")
    ny, nu = doc.get("shape", [1, len(num)])
    if ny * nu != len(num):
        raise LtiError(f"shape {ny}x{nu} does not match {len(num)} entries")
    num_m = tuple(tuple(np.asarray(num[i * nu + j], dtype=float)
                        for j in range(nu)) for i in range(ny))
    den_m = tuple(tuple(np.asarray(den[i * nu + j], dtype=float)
                        for j in range(nu)) for i in range(ny))
    return RationalTF(num_m, den_m, float(ts))


# --- benchmark controllers ---------------------------------------------------

#: Position-loop controller of the dual-stage benchmark (slow rate).
CP_NUM = (0.01346, 0.01346)
CP_DEN = (1.0, -0.8825)

#: Velocity-loop controller, reading the repeated numerator term as q^-2.
CV_NUM_Q2 = (0.65, 0.020, -0.63)
#: Velocity-loop controller, literal reading (both first-order terms summed).
CV_NUM_LITERAL = (0.65, 0.020 - 0.63)
CV_DEN = (1.0, -1.4, 0.51)


def benchmark_controller(sample_time, vcm_variant="q2"):
    """2x1 controller [position; velocity] feeding the (pzt, vcm) inputs;
    vcm_variant picks a reading of the velocity numerator (same DC gain)."""
    if vcm_variant not in ("q2", "literal"):
        raise LtiError("vcm_variant must be 'q2' or 'literal'")
    cv = CV_NUM_Q2 if vcm_variant == "q2" else CV_NUM_LITERAL
    num = ((CP_NUM,), (cv,))
    den = ((CP_DEN,), (CV_DEN,))
    return RationalTF(num, den, sample_time)
