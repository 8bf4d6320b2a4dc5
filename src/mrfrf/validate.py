"""Self-check suites exercising the analytic identities the pipeline relies
on: lifting round trips, the downsampling aliasing identity, the lifted-loop
state-space oracle, and local-fit exactness on constructed data.

`run_suites` returns machine-readable results; the `mutate` hook deliberately
injects a sign fault into the recovery prefactor so tests can confirm the
validator actually catches broken recoveries.
"""

import numpy as np

from .errors import ConfigError, SimulationError
from .ident import recover_P
from .lrm import LocalModelConfig, fit_local
from .loopsim import MultirateLoopSpec, simulate
from .lti import RationalTF, dft_grid, filter_signal, freq_response
from .multirate import (SLOW, SignalRecord, downsample, lift, lift_frf,
                        lift_loop_state_space, unlift, upsample_zoh)
from .spectral import (MultisineSpec, alias_slow_spectrum, dft, idft,
                       multisine, predict_slow_output_steady)

RECOVERY_SIGN_FLIP = "recovery-sign-flip"
MUTATIONS = (RECOVERY_SIGN_FLIP,)


def random_stable_plant(rng, n_outputs=1, n_inputs=1, order=4, sample_time=1.0,
                        min_dynamic_range=1e-3, n_grid=240):
    """Random stable rational plant with entry responses bounded away from 0.

    Zeros are kept off the unit circle so per-bin relative error against the
    true response stays meaningful; plants whose entries swing over more than
    1/min_dynamic_range in magnitude are rejected and redrawn.
    """
    grid = dft_grid(n_grid, sample_time)
    for _ in range(200):
        num = []
        den = []
        for _i in range(n_outputs):
            nrow, drow = [], []
            for _j in range(n_inputs):
                n_order = int(rng.integers(1, order + 1))
                poles = rng.uniform(0.05, 0.85, n_order) * np.exp(
                    1j * rng.uniform(0, np.pi, n_order))
                poles = np.concatenate([poles, np.conj(poles)])
                d = np.real(np.poly(poles))
                zeros = rng.uniform(0.05, 0.7, n_order) * np.exp(
                    1j * rng.uniform(0, np.pi, n_order))
                zeros = np.concatenate([zeros, np.conj(zeros)])
                nm = np.real(np.poly(zeros)) * rng.uniform(0.2, 2.0)
                nrow.append(nm)
                drow.append(d / d[0])
            num.append(tuple(nrow))
            den.append(tuple(drow))
        plant = RationalTF(tuple(num), tuple(den), sample_time)
        frf = freq_response(plant, grid)
        mags = np.abs(frf.values)
        ratio = mags.min(axis=0) / mags.max(axis=0)
        if ratio.min() >= min_dynamic_range:
            return plant
    raise RuntimeError("failed to draw a well-scaled random plant")


def _suite(name, max_err, tol, detail=""):
    return {"name": name, "max_err": float(max_err), "tolerance": float(tol),
            "passed": bool(max_err < tol), "detail": detail}


def suite_lift_roundtrip(rng):
    worst = 0.0
    for _ in range(20):
        ch = int(rng.integers(1, 3))
        F = int(rng.integers(1, 5))
        m = int(rng.integers(4, 40))
        x = SignalRecord(rng.standard_normal((ch, m * F)), 1e-3)
        back = unlift(lift(x, F))
        exact = np.array_equal(back.data, x.data)
        worst = max(worst, 0.0 if exact else 1.0)
        held = downsample(upsample_zoh(downsample(x, F), F), F)
        worst = max(worst,
                    0.0 if np.array_equal(held.data, downsample(x, F).data)
                    else 1.0)
    return _suite("lift-roundtrip", worst, 0.5,
                  "lift/unlift and hold/downsample must be exact inverses")


def suite_dft_roundtrip(rng):
    worst = 0.0
    for n in (8, 240, 1024):
        x = SignalRecord(rng.standard_normal((2, n)), 1e-4)
        back = idft(dft(x))
        worst = max(worst, float(np.abs(back.data - x.data).max()))
    return _suite("dft-roundtrip", worst, 1e-12)


def suite_aliasing(rng):
    worst = 0.0
    for F in (2, 3, 4):
        for _ in range(10):
            m = int(rng.integers(6, 60))
            x = SignalRecord(rng.standard_normal((1, m * F)), 1e-4)
            lhs = alias_slow_spectrum(dft(x), F).values
            rhs = dft(downsample(x, F)).values
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return _suite("aliasing-identity", worst, 1e-12)


def suite_delay_pin(mutate=None):
    """Unit delay, factor 2: pinned component values and exact recovery."""
    ts = 1e-3
    n = 64
    plant = RationalTF.siso([0.0, 1.0], [1.0], ts)
    frf = freq_response(plant, dft_grid(n, ts))
    lifted = lift_frf(frf, 2)
    m = n // 2
    zeta_sq = np.exp(-2j * np.pi * np.arange(m) / m)
    err = float(np.abs(lifted.components[0]).max())
    err = max(err, float(np.abs(lifted.components[1][:, 0, 0] - zeta_sq).max()))
    err = max(err, float(np.abs(lifted.block(0, 1)[:, 0, 0] - zeta_sq ** 2).max()))
    err = max(err, float(np.abs(lifted.block(1, 0)[:, 0, 0] - zeta_sq).max()))
    sign = -1 if mutate == RECOVERY_SIGN_FLIP else 1
    rec, _ = recover_P(lifted.first_row(), 2, n, ts, prefactor_sign=sign)
    expect = np.exp(-1j * dft_grid(n, ts) * ts)
    err = max(err, float(np.abs(rec.values[:, 0, 0] - expect).max()))
    return _suite("delay-pin", err, 1e-12)


def suite_lifted_structure(rng):
    worst = 0.0
    for F in (2, 3, 4):
        for _ in range(5):
            plant = random_stable_plant(rng, n_outputs=2, n_inputs=2, order=3)
            n = 24 * F
            frf = freq_response(plant, dft_grid(n, plant.sample_time))
            lifted = lift_frf(frf, F)
            zf = np.exp(-2j * np.pi * F * np.arange(n // F) / n)
            for a in range(F):
                for b in range(F):
                    blk = lifted.block(a, b)
                    want = lifted.components[a - b] if a >= b else \
                        zf[:, None, None] * lifted.components[F - (b - a)]
                    worst = max(worst, float(np.abs(blk - want).max()))
    return _suite("lifted-structure", worst, 1e-12)


def suite_recovery_roundtrip(rng, n_systems=12, mutate=None):
    sign = -1 if mutate == RECOVERY_SIGN_FLIP else 1
    worst = 0.0
    for F in (2, 3, 4):
        for _ in range(n_systems // 3 + 1):
            ny = int(rng.integers(1, 3))
            nu = int(rng.integers(1, 3))
            plant = random_stable_plant(rng, ny, nu, order=4)
            n = 36 * F
            frf = freq_response(plant, dft_grid(n, plant.sample_time))
            lifted = lift_frf(frf, F)
            rec, _ = recover_P(lifted.first_row(), F, n, plant.sample_time,
                               prefactor_sign=sign)
            rel = np.abs(rec.values - frf.values) / np.abs(frf.values)
            worst = max(worst, float(rel.max()))
    return _suite("recovery-roundtrip", worst, 1e-10)


def suite_noble_identity(rng):
    """Open loop: downsampled plant response equals the lifted oracle output."""
    worst = 0.0
    for _ in range(5):
        F = int(rng.integers(2, 5))
        ts = 1e-4
        plant = random_stable_plant(rng, 1, 1, order=3, sample_time=ts)
        zero_c = RationalTF.static_gain([[0.0]], ts * F)
        n = 40 * F
        x = SignalRecord(rng.standard_normal((1, n)), ts)
        direct = downsample(filter_signal(plant, x), F)
        oracle = lift_loop_state_space(plant, zero_c, F)
        lifted_in = np.vstack([lift(x, F).data,
                               np.zeros((F, n // F))])
        y = filter_signal(oracle, SignalRecord(lifted_in, ts * F, SLOW))
        y_slow_row = F  # outputs stack the F lifted inputs, then y_l
        worst = max(worst, float(np.abs(y.data[y_slow_row] - direct.data[0]).max()))
    return _suite("noble-identity", worst, 1e-9)


def _plant_in_settling_loop(rng, ctrl, F, ts):
    """A random 1x2 plant whose closed loop with ctrl is stable with margin.

    The steady-state oracle holds only once the transient has died out; a
    plant that destabilizes the loop (spectral radius 1.0016 at run_suites
    seed 1000050) is redrawn, as is one that settles too slowly for five
    periods of 120 slow steps (0.95**600 is about 4e-14)."""
    for _ in range(50):
        plant = random_stable_plant(rng, 1, 2, order=2, sample_time=ts)
        try:
            slow = lift_loop_state_space(plant, ctrl, F)
        except SimulationError:
            continue
        if slow.spectral_radius() < 0.95:
            return plant
    raise RuntimeError("failed to draw a plant that the loop settles")


def suite_simulator_oracle(rng):
    """Periodic steady state of the simulator matches the folded prediction."""
    ts = 1e-4
    F = 2
    n = 240
    ctrl = RationalTF(
        (((0.02, 0.02),), ((0.1, -0.05),)),
        (((1.0, -0.5),), ((1.0, -0.3),)),
        ts * F,
    )
    plant = _plant_in_settling_loop(rng, ctrl, F, ts)
    loop = MultirateLoopSpec(plant, ctrl, F)
    spec = MultisineSpec(2, n, ts, (1.0, 1.0), seed=7)
    r = multisine(spec)
    sim = simulate(loop, r, periods=6, seed=0)
    y_last = sim.y_l.period(-1)
    pred = predict_slow_output_steady(
        freq_response(plant, dft_grid(n, ts)),
        freq_response(ctrl, dft_grid(n // F, ts * F)),
        F, dft(r))
    got = dft(y_last).values
    err = float(np.abs(got - pred.values).max() / np.abs(pred.values).max())
    return _suite("simulator-oracle", err, 1e-8)


def suite_lrm_exactness(rng):
    """Constructed in-model-class data must be reproduced exactly."""
    m = 64
    n_r, n_z = 2, 3
    cfg = LocalModelConfig(degree_num=2, degree_transient=1, degree_den=0,
                           half_window=8)
    R = rng.standard_normal((n_r, m)) + 1j * rng.standard_normal((n_r, m))
    G0 = rng.standard_normal((n_z, n_r)) + 1j * rng.standard_normal((n_z, n_r))
    G1 = rng.standard_normal((n_z, n_r)) + 1j * rng.standard_normal((n_z, n_r))
    T0 = rng.standard_normal(n_z) + 1j * rng.standard_normal(n_z)
    k0 = 20
    rho = ((np.arange(m) - k0 + m // 2) % m - m // 2) / cfg.half_window
    Z = np.empty((n_z, m), dtype=complex)
    for k in range(m):
        Z[:, k] = (G0 + rho[k] * G1) @ R[:, k] + T0 * (1 + 0.5 * rho[k])
    fit = fit_local(Z, R, k0, cfg)
    err = float(max(np.abs(fit.response - G0).max(), np.abs(fit.transient - T0).max()))
    return _suite("lrm-exactness", err, 1e-9)


def run_suites(seed=0, mutate=None):
    """Run every suite; returns a dict with per-suite results and a verdict."""
    if mutate is not None and mutate not in MUTATIONS:
        raise ConfigError(f"unknown mutation {mutate!r}; known: {MUTATIONS}")
    rng = np.random.default_rng(seed)
    suites = [
        suite_lift_roundtrip(rng),
        suite_dft_roundtrip(rng),
        suite_aliasing(rng),
        suite_delay_pin(mutate),
        suite_lifted_structure(rng),
        suite_recovery_roundtrip(rng, mutate=mutate),
        suite_noble_identity(rng),
        suite_simulator_oracle(rng),
        suite_lrm_exactness(rng),
    ]
    return {
        "format_version": 1,
        "seed": seed,
        "mutation": mutate,
        "suites": suites,
        "all_passed": all(s["passed"] for s in suites),
    }
