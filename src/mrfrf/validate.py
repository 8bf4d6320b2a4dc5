"""The analytic identities the pipeline relies on, one oracle each, and the
self-check suites behind `mrfrf validate` that run them.

The identities: lifting and hold round trips, the DFT round trip, the
downsampling aliasing identity, the unit-delay pin, the lifted block
structure, fast-grid recovery, the noble identity of the lifted-loop
realization, the simulator's periodic steady state, and local-fit exactness
on constructed data.  Each `*_error` function computes one identity's error
on a given case.  Each suite draws its cases from a seeded generator; the
tests call the same functions with their own cases and tolerances.

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


def random_stable_plant(rng, n_outputs=1, n_inputs=1, order=4, sample_time=1.0):
    """Random stable rational plant with entry responses bounded away from 0.

    Zeros are kept off the unit circle so per-bin relative error against the
    true response stays meaningful; plants whose entries swing over more than
    a factor 1e3 in magnitude on a 240-bin grid are rejected and redrawn.
    """
    grid = dft_grid(240, sample_time)
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
        if ratio.min() >= 1e-3:
            return plant
    raise RuntimeError("failed to draw a well-scaled random plant")


def random_spectra(rng, *shape):
    """Complex standard normal draws: the real parts, then the imaginary."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _suite(name, max_err, tol, detail=""):
    return {"name": name, "max_err": float(max_err), "tolerance": float(tol),
            "passed": bool(max_err < tol), "detail": detail}


# --- one oracle per identity --------------------------------------------------


def lift_roundtrip_error(x, F):
    """0 when lift/unlift and hold/downsample invert each other exactly on
    record x at factor F, else 1."""
    slow = downsample(x, F)
    exact = (np.array_equal(unlift(lift(x, F), F, slow.sample_time).data,
                            x.data)
             and np.array_equal(downsample(upsample_zoh(slow, F), F).data,
                                slow.data))
    return 0.0 if exact else 1.0


def dft_roundtrip_error(x):
    """Largest absolute deviation of idft(dft(x)) from x."""
    return float(np.abs(idft(dft(x)) - x.data).max())


def aliasing_error(x, F):
    """Largest absolute deviation of the aliased fast spectrum of x from the
    spectrum of x downsampled by F."""
    lhs = alias_slow_spectrum(dft(x), F)
    rhs = dft(downsample(x, F))
    return float(np.abs(lhs - rhs).max())


def delay_pin_error(n, ts, mutate=None):
    """Unit delay on n fast bins, factor 2: largest deviation of its lifted
    blocks from their pinned values ((0,0) and (1,1) null, (0,1) one slow-step
    delay, (1,0) one), and of its recovered fast response from exp(-j w ts)."""
    plant = RationalTF.siso([0.0, 1.0], [1.0], ts)
    lifted = lift_frf(freq_response(plant, dft_grid(n, ts)), 2)
    m = n // 2
    slow_delay = np.exp(-2j * np.pi * np.arange(m) / m)
    sign = -1 if mutate == RECOVERY_SIGN_FLIP else 1
    rec, _ = recover_P(lifted.first_row(), 2, n, ts, prefactor_sign=sign)
    deviations = (lifted.block(0, 0), lifted.block(1, 1),
                  lifted.block(0, 1)[:, 0, 0] - slow_delay,
                  lifted.block(1, 0)[:, 0, 0] - 1.0,
                  rec.values[:, 0, 0] - np.exp(-1j * dft_grid(n, ts) * ts))
    return max(float(np.abs(d).max()) for d in deviations)


def lifted_structure_error(plant, n, F):
    """Largest deviation of plant's lifted FRF (n fast bins, factor F) from
    the lifted system of lift(), relative to plant's largest response.

    Column b * n_u + j of the lifted FRF must equal the lifted DFT of the
    periodic response to a unit impulse at fast sample b on input j, since
    that impulse lifts to a unit vector at slow sample 0."""
    ts = plant.sample_time
    frf = freq_response(plant, dft_grid(n, ts))
    lifted = lift_frf(frf, F)
    h = np.fft.ifft(frf.values, axis=0).real  # periodic impulse response
    cols = [np.fft.fft(lift(SignalRecord(np.roll(h[:, :, j], b, axis=0).T, ts),
                            F), axis=1).T
            for b in range(F) for j in range(plant.n_inputs)]
    err = np.abs(lifted.values - np.stack(cols, axis=2)).max()
    return float(err / np.abs(frf.values).max())


def recovery_error(plant, n, F, mutate=None):
    """Largest relative deviation of recover_P, applied to the first row of
    plant's lifted FRF (n fast bins, factor F), from plant's FRF."""
    frf = freq_response(plant, dft_grid(n, plant.sample_time))
    sign = -1 if mutate == RECOVERY_SIGN_FLIP else 1
    rec, _ = recover_P(lift_frf(frf, F).first_row(), F, n, plant.sample_time,
                       prefactor_sign=sign)
    return float((np.abs(rec.values - frf.values) / np.abs(frf.values)).max())


def noble_error(plant, x, F):
    """Open loop (zero controller): largest deviation of the SISO lifted-loop
    realization's slow output from plant's response to x downsampled by F."""
    ts, n = x.sample_time, x.n_samples
    zero_c = RationalTF.static_gain([[0.0]], ts * F)
    direct = downsample(filter_signal(plant, x), F)
    oracle = lift_loop_state_space(plant, zero_c, F)
    lifted_in = np.vstack([lift(x, F), np.zeros((F, n // F))])
    y = filter_signal(oracle, SignalRecord(lifted_in, ts * F, SLOW))
    y_slow_row = F  # outputs stack the F lifted inputs, then y_l
    return float(np.abs(y.data[y_slow_row] - direct.data[0]).max())


def simulator_oracle_error(loop, sim):
    """Deviation of the slow-output DFT of sim's last period from the folded
    steady-state prediction for its excitation, relative to the prediction's
    largest magnitude.  sim is simulate(loop, ...) run into steady state."""
    r = sim.r_h.period(0)
    n, ts, F = r.n_samples, r.sample_time, loop.factor
    filters = (None if loop.input_filters is None
               else freq_response(loop.input_filters, dft_grid(n, ts)))
    pred = predict_slow_output_steady(
        freq_response(loop.plant, dft_grid(n, ts)),
        freq_response(loop.controller, dft_grid(n // F, ts * F)),
        F, dft(r), filter_frf=filters)
    got = dft(sim.y_l.period(-1))
    return float(np.abs(got - pred).max() / np.abs(pred).max())


def lrm_exactness_error(R, k0, cfg, response, transient):
    """Fit the local model at bin k0 to the in-model data
    Z[:, k] = response(rho_k) @ R[:, k] + transient(rho_k), where rho_k is
    the window variable (k - k0) / half_window wrapped around the grid.

    Returns the largest deviation of the center estimates from response(0)
    and transient(0), and the fit's residual."""
    m = R.shape[1]
    rho = ((np.arange(m) - k0 + m // 2) % m - m // 2) / cfg.half_window
    Z = np.stack([response(p) @ R[:, k] + transient(p)
                  for k, p in enumerate(rho)], axis=1)
    fit = fit_local(Z, R, k0, cfg)
    err = max(np.abs(fit.response - response(0.0)).max(),
              np.abs(fit.transient - transient(0.0)).max())
    return float(err), fit.residual


def local_regressor(Z, R, k, cfg, i):
    """Output row i's dense regressor and data at center bin k, built column
    by column: excitation terms, transient terms, denominator terms."""
    n_w = cfg.half_window
    rs = np.arange(-n_w, n_w + 1)
    idx = (k + rs) % Z.shape[1]
    rho = rs / n_w
    cols = [rho ** s * R[j, idx] for s in range(cfg.degree_num + 1)
            for j in range(R.shape[0])]
    cols += [rho ** s + 0j for s in range(cfg.degree_transient + 1)]
    cols += [-rho ** s * Z[i, idx] for s in range(1, cfg.degree_den + 1)]
    return np.stack(cols, axis=1), Z[i, idx]


def lrm_normal_equations_error(Z, R, k0, cfg):
    """Largest deviation of fit_local's center estimates at bin k0 from the
    dense normal-equations solution of each output row's least squares."""
    fit = fit_local(Z, R, k0, cfg)
    n_r = R.shape[0]
    worst = 0.0
    for i in range(Z.shape[0]):
        A, b = local_regressor(Z, R, k0, cfg, i)
        theta = np.linalg.solve(A.conj().T @ A, A.conj().T @ b)
        worst = max(worst, np.abs(fit.response[i] - theta[:n_r]).max(),
                    abs(fit.transient[i] - theta[n_r * (cfg.degree_num + 1)]))
    return float(worst)


# --- the suites behind `mrfrf validate` ---------------------------------------


def suite_lift_roundtrip(rng):
    worst = 0.0
    for _ in range(20):
        ch = int(rng.integers(1, 3))
        F = int(rng.integers(1, 5))
        m = int(rng.integers(4, 40))
        x = SignalRecord(rng.standard_normal((ch, m * F)), 1e-3)
        worst = max(worst, lift_roundtrip_error(x, F))
    return _suite("lift-roundtrip", worst, 0.5,
                  "lift/unlift and hold/downsample must be exact inverses")


def suite_dft_roundtrip(rng):
    worst = 0.0
    for n in (8, 240, 1024):
        x = SignalRecord(rng.standard_normal((2, n)), 1e-4)
        worst = max(worst, dft_roundtrip_error(x))
    return _suite("dft-roundtrip", worst, 1e-12)


def suite_aliasing(rng):
    worst = 0.0
    for F in (2, 3, 4):
        for _ in range(10):
            m = int(rng.integers(6, 60))
            x = SignalRecord(rng.standard_normal((1, m * F)), 1e-4)
            worst = max(worst, aliasing_error(x, F))
    return _suite("aliasing-identity", worst, 1e-12)


def suite_delay_pin(mutate=None):
    """Unit delay, factor 2: pinned block values and exact recovery."""
    return _suite("delay-pin", delay_pin_error(64, 1e-3, mutate), 1e-12)


def suite_lifted_structure(rng):
    worst = 0.0
    for F in (2, 3, 4):
        for _ in range(5):
            plant = random_stable_plant(rng, n_outputs=2, n_inputs=2, order=3)
            worst = max(worst, lifted_structure_error(plant, 24 * F, F))
    return _suite("lifted-structure", worst, 1e-12)


def suite_recovery_roundtrip(rng, mutate=None):
    worst = 0.0
    for F in (2, 3, 4):
        for _ in range(5):
            ny = int(rng.integers(1, 3))
            nu = int(rng.integers(1, 3))
            plant = random_stable_plant(rng, ny, nu, order=4)
            worst = max(worst, recovery_error(plant, 36 * F, F, mutate))
    return _suite("recovery-roundtrip", worst, 1e-10)


def suite_noble_identity(rng):
    """Open loop: downsampled plant response equals the lifted oracle output."""
    worst = 0.0
    for _ in range(5):
        F = int(rng.integers(2, 5))
        ts = 1e-4
        plant = random_stable_plant(rng, 1, 1, order=3, sample_time=ts)
        x = SignalRecord(rng.standard_normal((1, 40 * F)), ts)
        worst = max(worst, noble_error(plant, x, F))
    return _suite("noble-identity", worst, 1e-9)


def _plant_in_settling_loop(rng, ctrl, F, ts):
    """A random plant shaped to ctrl whose closed loop is stable with margin.

    The steady-state oracle holds only once the transient has died out; a
    plant that destabilizes the loop (spectral radius 1.0016 at run_suites
    seed 1000050) is redrawn, as is one that settles too slowly for five
    periods of 120 slow steps (0.95**600 is about 4e-14)."""
    for _ in range(50):
        plant = random_stable_plant(rng, ctrl.n_inputs, ctrl.n_outputs,
                                    order=2, sample_time=ts)
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
    ctrl = RationalTF(
        (((0.02, 0.02),), ((0.1, -0.05),)),
        (((1.0, -0.5),), ((1.0, -0.3),)),
        ts * F,
    )
    loop = MultirateLoopSpec(_plant_in_settling_loop(rng, ctrl, F, ts), ctrl, F)
    r = multisine(MultisineSpec(2, 240, ts, (1.0, 1.0), seed=7))
    sim = simulate(loop, r, periods=6, seed=0)
    return _suite("simulator-oracle", simulator_oracle_error(loop, sim), 1e-8)


def suite_lrm_exactness(rng):
    """Constructed in-model-class data must be reproduced exactly."""
    n_r, n_z = 2, 3
    cfg = LocalModelConfig(degree_num=2, degree_transient=1, degree_den=0,
                           half_window=8)
    R = random_spectra(rng, n_r, 64)
    G0 = random_spectra(rng, n_z, n_r)
    G1 = random_spectra(rng, n_z, n_r)
    T0 = random_spectra(rng, n_z)
    err, _ = lrm_exactness_error(R, 20, cfg, lambda p: G0 + p * G1,
                                 lambda p: T0 * (1 + 0.5 * p))
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
        suite_recovery_roundtrip(rng, mutate),
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
