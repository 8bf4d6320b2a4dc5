import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mrfrf import _accel
from mrfrf.bench import BENCH_RMS
from mrfrf.errors import SimulationError
from mrfrf.loopsim import (FAST_SAMPLE_TIME, MultirateLoopSpec, NoiseSpec,
                           benchmark_loop, simulate, surrogate_plant)
from mrfrf.lti import RationalTF, benchmark_controller
from mrfrf.multirate import SignalRecord
from mrfrf.spectral import MultisineSpec, multisine
from mrfrf.validate import random_stable_plant


def _reference_loop(Ap, Bp, Cp, Dp, Aw, Bw, Cw, Dw, Ac, Bc, Cc, Dc,
                    Minv, F, r, eps_h, d, eps_l):
    """The multirate recursion one fast step at a time: the reference that
    multirate_loop must reproduce to rounding."""
    n_fast = r.shape[0]
    n_slow = n_fast // F
    n_u = r.shape[1]
    n_y = Cp.shape[0]
    xp = np.zeros(Ap.shape[0])
    xw = np.zeros(Aw.shape[0])
    xc = np.zeros(Ac.shape[0])
    u = np.empty((n_fast, n_u))
    y = np.empty((n_fast, n_y))
    yl = np.empty((n_slow, n_y))
    for m in range(n_slow):
        n0 = m * F
        rhs = (Cp @ xp + Dp @ (r[n0] + d[n0] - Cw @ xw - Dw @ (Cc @ xc)
                               - Dw @ (Dc @ eps_l[m])) + eps_h[n0])
        y0 = Minv @ rhs
        ylm = y0 + eps_l[m]
        yl[m] = ylm
        v = Cc @ xc + Dc @ ylm
        for i in range(F):
            n = n0 + i
            w = Cw @ xw + Dw @ v
            un = r[n] - w
            u[n] = un
            pin = un + d[n]
            if i == 0:
                y[n] = y0
            else:
                y[n] = Cp @ xp + Dp @ pin + eps_h[n]
            xp = Ap @ xp + Bp @ pin
            xw = Aw @ xw + Bw @ v
        xc = Ac @ xc + Bc @ ylm
        if not np.abs(xp).max(initial=0.0) <= 1e100:
            return u, y, yl, m
    return u, y, yl, -1


def _scalar_args(a, r, F=2):
    """Kernel arguments for a first-order plant x+ = a x + u under zero
    feedback."""
    n_fast = r.shape[0]
    eye1 = np.eye(1)
    zeros1 = np.zeros((1, 1))
    return (np.array([[a]]), eye1, eye1, zeros1,
            zeros1, zeros1, zeros1, eye1,
            zeros1, zeros1, zeros1, zeros1,
            eye1, F, r, np.zeros((n_fast, 1)), np.zeros((n_fast, 1)),
            np.zeros((n_fast // F, 1)))


def _scalar_loop(a, r):
    return _accel.multirate_loop(*_scalar_args(a, r))


def test_overflow_status_reported():
    u, y, yl, status = _scalar_loop(2.0, np.ones((4000, 1)))
    assert status >= 0


def test_nan_excitation_trips_guard():
    r = np.ones((40, 1))
    r[10] = np.nan
    assert _scalar_loop(0.5, r)[3] == 5
    assert _scalar_loop(0.5, np.ones((40, 1)))[3] == -1
    loop = benchmark_loop()
    data = np.zeros((2, 64))
    data[0, 7] = np.nan
    with pytest.raises(SimulationError, match="non-finite"):
        simulate(loop, SignalRecord(data, loop.plant.sample_time))


_NOISE = NoiseSpec(eh_std=1e-3, el_std=1e-3, dh_std=1e-3, dh_channel=1)


def _benchmark(factor, noise=_NOISE, **kwargs):
    ts = FAST_SAMPLE_TIME
    plant = kwargs.pop("plant", surrogate_plant("hdd-dual-stage", ts))
    loop = MultirateLoopSpec(plant, benchmark_controller(factor * ts, "q2"),
                             factor, noise=noise, **kwargs)
    r = multisine(MultisineSpec(2, 1200, ts, BENCH_RMS, seed=3))
    return loop, r


def _input_filter_loop():
    """The loop of test_loopsim's input-filter reconstruction test: a
    stateful W, a 1x2 random plant, output and run-out noise."""
    ts = 1e-4
    plant = random_stable_plant(np.random.default_rng(11), 1, 2, order=2,
                                sample_time=ts)
    ctrl = RationalTF((((0.02, 0.02),), ((0.08, -0.03),)),
                      (((1.0, -0.4),), ((1.0, -0.2),)), 2 * ts)
    filt = RationalTF((((0.6, 0.3), (0.0,)), ((0.0,), (0.8, 0.15))),
                      (((1.0, -0.1), (1.0,)), ((1.0,), (1.0, -0.05))), ts)
    loop = MultirateLoopSpec(plant, ctrl, 2, input_filters=filt,
                             noise=NoiseSpec(eh_std=0.05, el_std=0.02))
    return loop, multisine(MultisineSpec(2, 120, ts, (1.0, 0.7), seed=12))


def _wide_loop():
    """2 outputs and 4 inputs, so that the plant's products sum more than
    two terms."""
    ts = 1e-4
    rng = np.random.default_rng(21)
    plant = random_stable_plant(rng, 2, 4, order=2, sample_time=ts)
    ctrl = RationalTF.static_gain(0.02 * rng.standard_normal((4, 2)), 2 * ts)
    loop = MultirateLoopSpec(plant, ctrl, 2, noise=NoiseSpec(
        eh_std=0.01, el_std=0.01, dh_std=0.1, dh_channel=0))
    return loop, multisine(MultisineSpec(4, 200, ts, (1.0,) * 4, seed=2))


def _siso_loop(factor=2):
    """A first-order SISO plant with feedthrough under a 1-state controller:
    every matrix of the plant and controller and Minv is 1x1."""
    ts = 1e-4
    plant = RationalTF((((0.3, 0.2),),), (((1.0, -0.5),),), ts)
    ctrl = RationalTF((((0.1, 0.04),),), (((1.0, -0.3),),), factor * ts)
    loop = MultirateLoopSpec(plant, ctrl, factor, noise=NoiseSpec(
        eh_std=0.01, el_std=0.01, dh_std=0.01, dh_channel=0))
    return loop, multisine(MultisineSpec(1, 120, ts, (1.0,), seed=4))


def _signed_zero_args():
    """A single-input, single-output loop at F = 3 (2-state plant and
    controller, so one-column B matrices and 1x1 D and Minv, and a static W)
    with -0.0 entries, run on records that are mostly +0.0 and -0.0."""
    rng = np.random.default_rng(31)
    zero = np.array([[-0.0]])

    def signed(shape, zeros=0.5):
        M = rng.standard_normal(shape)
        hit = rng.random(shape) < zeros
        M[hit] = np.where(rng.random(hit.sum()) < 0.5, -0.0, 0.0)
        return M

    F, n_slow = 3, 40
    return (0.4 * signed((2, 2)), signed((2, 1)), signed((1, 2)), zero,
            np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
            np.array([[1.0]]),
            0.4 * signed((2, 2)), signed((2, 1)), signed((1, 2)), zero,
            np.array([[1.0]]), F, signed((n_slow * F, 1), 0.9),
            signed((n_slow * F, 1), 0.9), signed((n_slow * F, 1), 0.9),
            signed((n_slow, 1), 0.9))


def _simulated_args(monkeypatch, loop, r_h):
    """The arguments simulate hands to the loop kernel."""
    calls = []

    def capture(*args):
        calls.append(args)
        return _reference_loop(*args)

    monkeypatch.setattr(_accel, "multirate_loop", capture)
    simulate(loop, r_h, periods=2, seed=5)
    monkeypatch.undo()
    return calls[0]


_NAN_R = np.ones((40, 1))
_NAN_R[10] = np.nan
_NAN_MID_BLOCK_R = np.ones((60, 1))
_NAN_MID_BLOCK_R[22] = np.nan   # fast step 1 of slow step 7 at F = 3

_CASES = {
    "benchmark-f2-noise": lambda mp: _simulated_args(mp, *_benchmark(2)),
    "benchmark-f3-noise": lambda mp: _simulated_args(mp, *_benchmark(3)),
    "benchmark-f4-noise": lambda mp: _simulated_args(mp, *_benchmark(4)),
    "benchmark-f2-noiseless": lambda mp: _simulated_args(
        mp, *_benchmark(2, NoiseSpec())),
    "benchmark-static-filters": lambda mp: _simulated_args(mp, *_benchmark(
        2, input_filters=RationalTF.static_gain([[0.9, 0.1], [0.0, 1.1]],
                                                FAST_SAMPLE_TIME))),
    "stateful-input-filters": lambda mp: _simulated_args(
        mp, *_input_filter_loop()),
    "wide-plant": lambda mp: _simulated_args(mp, *_wide_loop()),
    "zero-plant": lambda mp: _simulated_args(mp, *_benchmark(
        2, NoiseSpec(), plant=surrogate_plant("zero", FAST_SAMPLE_TIME))),
    "siso-first-order": lambda mp: _simulated_args(mp, *_siso_loop()),
    "signed-zeros": lambda mp: _signed_zero_args(),
    "benchmark-f1": lambda mp: _simulated_args(mp, *_benchmark(1)),
    "siso-f1": lambda mp: _simulated_args(mp, *_siso_loop(1)),
    "nan-guard": lambda mp: _scalar_args(0.5, _NAN_R),
    "nan-mid-block-f3-guard": lambda mp: _scalar_args(0.5, _NAN_MID_BLOCK_R,
                                                      F=3),
    "overflow-guard": lambda mp: _scalar_args(2.0, np.ones((4000, 1))),
    # only the second plant state grows; the output reads the first
    "overflow-second-state-guard": lambda mp: (
        np.diag([0.5, 2.0]), np.ones((2, 1)), np.array([[1.0, 0.0]]),
        *_scalar_args(0.5, np.ones((4000, 1)))[3:]),
}


def _kernel_and_reference(args, common_scale=False):
    """Run both recursions and return the status.  Assert the same status,
    shapes and finiteness, and records within 1e-12 of a scale, over the
    slow steps before a tripped guard: the lifted step spreads a NaN over
    its whole hold block, where the per-step recursion stops at the fast
    step it reached.

    The scale is each record's peak magnitude, or with common_scale the
    largest magnitude of any record or input: a record that cancels to far
    below the terms summed into it is rounded at the scale of those terms,
    in either recursion.  Below the smallest normal float, values lose
    relative precision, so that is the tolerance's floor."""
    with np.errstate(all="ignore"):
        got = _accel.multirate_loop(*args)
        want = _reference_loop(*args)
    status = want[3]
    assert got[3] == status
    assert [g.shape for g in got[:3]] == [w.shape for w in want[:3]]
    F = args[13]
    n_slow = status if status >= 0 else want[2].shape[0]
    rows = (n_slow * F, n_slow * F, n_slow)
    got = [g[:n] for g, n in zip(got, rows)]
    want = [w[:n] for w, n in zip(want, rows)]
    peaks = [np.abs(a[np.isfinite(a)]).max(initial=0.0)
             for a in want + list(args[14:])]
    for g, w, peak in zip(got, want, peaks):
        finite = np.isfinite(w)
        assert np.array_equal(np.isfinite(g), finite)
        scale = max(peaks) if common_scale else peak
        assert np.abs(g[finite] - w[finite]).max(initial=0.0) <= (
            1e-12 * scale + np.finfo(float).smallest_normal)
    return status


@pytest.mark.parametrize("case", sorted(_CASES))
def test_hold_block_kernel_matches_per_step_recursion_bytes(case,
                                                            monkeypatch):
    status = _kernel_and_reference(_CASES[case](monkeypatch))
    assert (status >= 0) == case.endswith("guard")


# entries: signed zeros, ordinary values and tiny ones whose products
# underflow, so that zero products of either sign and finite sums all occur
_ENTRY = st.sampled_from((-0.0, 0.0, 1.0, -0.5, 3e-170, -1e-170)) | st.floats(
    -1.5, 1.5, allow_subnormal=False)


@st.composite
def small_loops(draw):
    """Kernel arguments of a small multirate loop: F 1-4, an n_y x n_u plant
    of 1-2 x 1-3 with 0-3 states, a controller of 0-2 states, input filters
    with 0-2 states, and records of 1-6 slow steps plus a partial block."""
    F = draw(st.integers(1, 4))
    n_y, n_u = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    n_x, n_c, n_w = (draw(st.integers(0, 3)), draw(st.integers(0, 2)),
                     draw(st.integers(0, 2)))
    n_slow = draw(st.integers(1, 6))
    n_fast = n_slow * F + draw(st.integers(0, F - 1))

    def mat(rows, cols, scale=1.0):
        return scale * draw(hnp.arrays(np.float64, (rows, cols),
                                       elements=_ENTRY))

    return (mat(n_x, n_x, 0.5), mat(n_x, n_u), mat(n_y, n_x), mat(n_y, n_u),
            mat(n_w, n_w, 0.5), mat(n_w, n_u), mat(n_u, n_w), mat(n_u, n_u),
            mat(n_c, n_c, 0.5), mat(n_c, n_y), mat(n_u, n_c), mat(n_u, n_y),
            mat(n_y, n_y), F, mat(n_fast, n_u), mat(n_fast, n_y),
            mat(n_fast, n_u), mat(n_slow, n_y))


# a draw whose y cancels to 1.7e-5 from terms of order 1: the two recursions
# differ by 1e-16, which is 6e-12 of y's peak
_CANCELLING = (
    np.array([[-0.24436421786390516, -0.25], [8.450319965451833e-206,
                                               0.5457195933164507]]),
    np.full((2, 1), -0.5), np.array([[1.0, 1e-250]]),
    np.array([[-1.2402322930236065]]), np.array([[0.6683951439536764]]),
    np.array([[3e-170]]), np.array([[-2.2373290274936198e-29]]),
    np.array([[2.207298167960422e-221]]), np.zeros((0, 0)), np.zeros((0, 1)),
    np.zeros((1, 0)), np.array([[-0.5]]), np.array([[-0.5]]), 4,
    np.ones((7, 1)), np.full((7, 1), -0.0), np.full((7, 1), -0.99999),
    np.zeros((1, 1)))


@settings(max_examples=150, deadline=None, database=None)
@given(args=small_loops())
@example(args=_CANCELLING)
def test_hold_block_kernel_matches_reference_on_small_loops(args):
    _kernel_and_reference(args, common_scale=True)
