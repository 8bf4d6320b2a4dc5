"""Time-domain simulation of the multirate feedback loop.

The plant and optional fast-rate input filters advance every fast step; the
slow-rate controller reads the measured output once per slow step (no
computational delay) and its output is held for F fast steps.  Noise enters at
three points: shaped noise on the fast plant output, white run-out on the
measured slow output, and a white disturbance on a named plant input.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _accel
from .errors import LtiError, RateError, SimulationError
from .lti import (RationalTF, assert_stable, benchmark_controller,
                  filter_signal, to_state_space)
from .multirate import (FAST, SLOW, SignalRecord, lift_loop_state_space,
                        loop_feedthrough)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise levels; shaping applies to the fast output noise only."""

    eh_std: float = 0.0
    el_std: float = 0.0
    dh_std: float = 0.0
    dh_channel: int = 1
    shaping: object = None  # fast-rate RationalTF/StateSpace, identity if None

    def __post_init__(self):
        for name in ("eh_std", "el_std", "dh_std"):
            level = getattr(self, name)
            if not 0 <= level < np.inf:
                raise RateError(f"noise level {name} must be finite and "
                                f"non-negative, not {level!r}")


@dataclass(frozen=True)
class MultirateLoopSpec:
    plant: object
    controller: object
    factor: int
    input_filters: object = None
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        if self.factor < 1 or int(self.factor) != self.factor:
            raise RateError("factor must be a positive integer")
        p, c = self.plant, self.controller
        if abs(c.sample_time - self.factor * p.sample_time) > 1e-12 * c.sample_time:
            raise RateError("controller sample time must be factor * plant's")
        if c.n_inputs != p.n_outputs or c.n_outputs != p.n_inputs:
            raise LtiError("controller must map plant outputs to plant inputs")
        assert_stable(p, "plant")
        for w, what, n, side in (
                (self.input_filters, "input filters", p.n_inputs, "inputs"),
                (self.noise.shaping, "noise shaping", p.n_outputs, "outputs")):
            if w is None:
                continue
            if abs(w.sample_time - p.sample_time) > 1e-15 * p.sample_time:
                raise RateError(f"{what} must run at the fast rate")
            if w.n_inputs != n or w.n_outputs != n:
                raise LtiError(f"{what} must be square in the plant {side}")
            assert_stable(w, what)
        lift_loop_state_space(p, c, self.factor, self.input_filters)

    @property
    def n_inputs(self):
        return self.plant.n_inputs

    @property
    def n_outputs(self):
        return self.plant.n_outputs


@dataclass(frozen=True)
class SimulationOutput:
    r_h: SignalRecord
    u_h: SignalRecord
    y_h: SignalRecord   # the fast plant output, for API callers only: the
                        # method measures y_l, and the CLI writes no y_h.csv
    y_l: SignalRecord
    seed: int


def simulate(spec, r_h, periods=1, seed=0):
    """Run the loop for `periods` repetitions of the excitation record.

    The excitation record is treated as one period and tiled.  All noise draws
    are seeded; identical seeds give bit-identical runs.  The recorded slow
    output is the sampled fast output plus the run-out noise, and the same
    measured value feeds the controller.
    """
    P = to_state_space(spec.plant)
    C = to_state_space(spec.controller)
    F = spec.factor
    nu, ny = P.n_inputs, P.n_outputs
    if r_h.rate_tag != FAST:
        raise RateError("excitation must be a fast-rate record")
    if r_h.n_channels != nu:
        raise RateError(f"excitation has {r_h.n_channels} channels, "
                        f"plant expects {nu}")
    if abs(r_h.sample_time - P.sample_time) > 1e-15 * P.sample_time:
        raise RateError("excitation sample time must match the plant")
    if r_h.n_samples % F:
        raise RateError("period length must be divisible by the factor")
    W, minv = loop_feedthrough(P, C, spec.input_filters)

    n_fast = r_h.n_samples * periods
    n_slow = n_fast // F
    r = np.tile(r_h.data, (1, periods))

    rng_eh = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    rng_el = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    rng_dh = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))

    eps_h = np.zeros((n_fast, ny))
    if spec.noise.eh_std > 0:
        e = spec.noise.eh_std * rng_eh.standard_normal((ny, n_fast))
        if spec.noise.shaping is not None:
            shaped = filter_signal(spec.noise.shaping,
                                   SignalRecord(e, P.sample_time, FAST))
            e = shaped.data
        eps_h = e.T
    d = np.zeros((n_fast, nu))
    if spec.noise.dh_std > 0:
        ch = spec.noise.dh_channel
        if not 0 <= ch < nu:
            raise RateError(f"disturbance channel {ch} out of range")
        d[:, ch] = spec.noise.dh_std * rng_dh.standard_normal(n_fast)
    eps_l = np.zeros((n_slow, ny))
    if spec.noise.el_std > 0:
        eps_l = spec.noise.el_std * rng_el.standard_normal((ny, n_slow)).T

    u, y, yl, status = _accel.multirate_loop(
        P.A, P.B, P.C, P.D, W.A, W.B, W.C, W.D, C.A, C.B, C.C, C.D,
        minv, F, r.T, eps_h, d, eps_l,
    )
    if status >= 0:
        raise SimulationError(
            f"plant state overflowed or became non-finite at slow step "
            f"{status}; loop unstable or input not finite"
        )
    ts = P.sample_time
    return SimulationOutput(
        r_h=SignalRecord(r, ts, FAST, n_periods=periods),
        u_h=SignalRecord(u.T, ts, FAST, n_periods=periods),
        y_h=SignalRecord(y.T, ts, FAST, n_periods=periods),
        y_l=SignalRecord(yl.T, ts * F, SLOW, n_periods=periods),
        seed=seed,
    )


# --- surrogate plants ---------------------------------------------------------
#
# The plant models this layout mimics live in an external high-fidelity
# simulator, so the harness substitutes fully-known surrogates with the same
# qualitative layout:
# a near-flat micro-actuator channel with a lightly damped mode above the slow
# Nyquist frequency, and a coarse-actuator channel with large low-frequency
# gain, a steep mid-band rolloff, and a small wideband feedthrough floor.

FAST_SAMPLE_TIME = 1.0 / 100800.0

PZT_GAIN = 0.15
PZT_RES_HZ = 44016.0
PZT_RES_DAMPING = 0.01
PZT_ZERO_DAMPING = 0.25

VCM_GAIN = 0.005
VCM_POLES = (0.88, 0.91)
VCM_ANTIRES_HZ = 7200.0
VCM_ANTIRES_DAMPING = 0.06
VCM_RES_HZ = 9000.0
VCM_RES_DAMPING = 0.06
VCM_SHELF_HZ = 18000.0
VCM_SHELF_DAMPING = 0.5
VCM_FEEDTHROUGH = 2.0


def _biquad(f_hz, damping, ts):
    """Coefficients (1, -2 r cos th, r^2) for a pole/zero pair at f_hz."""
    th = 2.0 * np.pi * f_hz * ts
    r = np.exp(-damping * th)
    return np.array([1.0, -2.0 * r * np.cos(th), r * r])


def _pzt_entry(ts):
    num = _biquad(PZT_RES_HZ, PZT_ZERO_DAMPING, ts)
    den = _biquad(PZT_RES_HZ, PZT_RES_DAMPING, ts)
    num = num * (den.sum() / num.sum()) * PZT_GAIN
    return num, den


def _vcm_entry(ts):
    base_num = np.array([0.0, 1.0, 0.9])
    base_den = np.convolve(np.array([1.0, -VCM_POLES[0]]),
                           np.array([1.0, -VCM_POLES[1]]))
    rnum = _biquad(VCM_ANTIRES_HZ, VCM_ANTIRES_DAMPING, ts)
    rden = _biquad(VCM_RES_HZ, VCM_RES_DAMPING, ts)
    rnum = rnum * (rden.sum() / rnum.sum())
    snum = _biquad(VCM_SHELF_HZ, VCM_SHELF_DAMPING, ts)
    snum = snum / snum.sum()
    num = VCM_GAIN * np.convolve(np.convolve(base_num, rnum), snum)
    den = np.convolve(base_den, rden)
    ft = VCM_GAIN * VCM_FEEDTHROUGH
    num = np.concatenate([num, np.zeros(max(0, len(den) - len(num)))])
    num[:len(den)] += ft * den
    return num, den


SURROGATE_PRESETS = ("hdd-dual-stage", "pzt-like", "vcm-like", "zero")


def surrogate_plant(preset, sample_time=FAST_SAMPLE_TIME):
    """Named fast-rate surrogate plants.

    'hdd-dual-stage' is the 1x2 plant [pzt, vcm]; 'pzt-like' and 'vcm-like'
    expose the individual channels; 'zero' is an all-zero 1x2 plant.
    """
    if preset == "pzt-like":
        num, den = _pzt_entry(sample_time)
        return RationalTF.siso(num, den, sample_time)
    if preset == "vcm-like":
        num, den = _vcm_entry(sample_time)
        return RationalTF.siso(num, den, sample_time)
    if preset == "hdd-dual-stage":
        pn, pd = _pzt_entry(sample_time)
        vn, vd = _vcm_entry(sample_time)
        return RationalTF(((pn, vn),), ((pd, vd),), sample_time)
    if preset == "zero":
        return RationalTF.static_gain([[0.0, 0.0]], sample_time)
    raise LtiError(f"unknown plant preset {preset!r}; "
                   f"available: {sorted(SURROGATE_PRESETS)}")


def benchmark_loop(noise=None, factor=2):
    """The surrogate dual-stage loop under the benchmark controllers."""
    plant = surrogate_plant("hdd-dual-stage")
    controller = benchmark_controller(FAST_SAMPLE_TIME * factor)
    return MultirateLoopSpec(plant, controller, factor,
                             noise=noise or NoiseSpec())
