"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines as they
complete.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import time

import numpy as np

from mrfrf.bench import (build_benchmark_scenario, run_benchmark,
                         scenario_feasibility, true_plant_frf)
from mrfrf.loopsim import simulate
from mrfrf.lrm import LocalModelConfig
from mrfrf.multirate import SignalRecord, lifted_loop_frf
from mrfrf.spectral import multisine
from mrfrf.validate import (aliasing_error, delay_pin_error,
                            lrm_exactness_error, lrm_normal_equations_error,
                            random_spectra, random_stable_plant,
                            recovery_error, simulator_oracle_error)


def _verdict(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_configuration_fidelity():
    t0 = time.perf_counter()
    sc = build_benchmark_scenario("default")
    ok = (sc.loop.plant.sample_time == 1.0 / 100800.0
          and sc.loop.controller.sample_time == 1.0 / 50400.0
          and sc.loop.factor == 2
          and sc.excitation.n_samples == 3600
          and (sc.lrm.degree_num, sc.lrm.degree_transient, sc.lrm.degree_den)
          == (3, 3, 3)
          and sc.lrm.half_window == 30
          and sc.excitation.rms == (3.6e-9, 8.0e-8))
    params, data = scenario_feasibility(sc)
    ok = ok and params == 115 and data == 305
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(1, ok, f"T_h=1/100800, T_l=1/50400, F=2, N=3600, degrees 3/3/3, "
                    f"n_w=30, rms=(3.6e-9, 8.0e-8), {params} params / "
                    f"{data} data points, {elapsed:.2f}s")


def test_criterion_2_lifting_roundtrip():
    t0 = time.perf_counter()
    worst = 0.0
    # 51 plants with F cycling, then 4 plants per F from a second seed
    for seed, factors in ((2024, (2, 3, 4) * 17), (2, sorted((2, 3, 4) * 4))):
        rng = np.random.default_rng(seed)
        for factor in factors:
            ny = int(rng.integers(1, 3))
            nu = int(rng.integers(1, 3))
            plant = random_stable_plant(rng, ny, nu, order=4, sample_time=1e-4)
            worst = max(worst, recovery_error(plant, 24 * factor, factor))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    _verdict(2, ok, f"63 random plants, F in (2,3,4): max relative "
                    f"round-trip error {worst:.3e} < 1e-10, {elapsed:.1f}s")


def test_criterion_3_delay_pin():
    err = max(delay_pin_error(n, ts)
              for n, ts in ((3600, 1e-4), (64, 1e-4), (32, 1e-3)))
    _verdict(3, err < 1e-12,
             f"unit delay, F=2, N in (3600, 64, 32): component 0 null, "
             f"component 1 = zeta^2, blocks (0,1) = zeta^4 and (1,0) = "
             f"zeta^2, recovery = exp(-j w T_h); max abs deviation "
             f"{err:.3e} < 1e-12")


def test_criterion_4_aliasing_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for i in range(100):
        factor = (2, 3, 4)[i % 3]
        m = int(rng.integers(8, 120))
        x = SignalRecord(rng.standard_normal((1, m * factor)), 1e-4)
        worst = max(worst, aliasing_error(x, factor))
    _verdict(4, worst < 1e-12,
             f"100 random unit-scale signals, F in (2,3,4): max absolute "
             f"deviation {worst:.3e} < 1e-12")


def test_criterion_5_simulator_oracle_agreement():
    t0 = time.perf_counter()
    scenario = build_benchmark_scenario("default")
    # three simulated periods; the first two are discarded
    sim = simulate(scenario.loop, multisine(scenario.excitation), periods=3,
                   seed=scenario.seed)
    err = simulator_oracle_error(scenario.loop, sim)
    elapsed = time.perf_counter() - t0
    ok = err < 1e-8 and elapsed < 10.0
    _verdict(5, ok, f"last-period slow DFT vs steady-state prediction at "
                    f"N=3600 after discarding 2 of 3 periods: relative "
                    f"deviation {err:.3e} < 1e-8, {elapsed:.1f}s")


def test_criterion_6_lifted_state_space_oracle(default_run):
    scenario, result, _, _, _ = default_run
    oracle = lifted_loop_frf(scenario.loop.plant, scenario.loop.controller,
                             scenario.loop.factor, result.n_slow_bins,
                             scenario.loop.input_filters)
    nrf = scenario.loop.n_inputs * scenario.loop.factor
    G_or = oracle.values[:, :, :nrf]
    G_hat = np.concatenate([result.sensitivity, result.process_sens_row],
                           axis=1)
    rel = (np.linalg.norm(G_hat - G_or, axis=(1, 2))
           / np.linalg.norm(G_or, axis=(1, 2)))
    worst = float(rel.max())
    _verdict(6, worst < 1e-3,
             f"identified lifted maps vs state-space oracle on every slow "
             f"bin: max relative deviation {worst:.3e} < 1e-3")


def test_criterion_7_end_to_end_noiseless(default_run):
    scenario, result, report, _, elapsed = default_run
    truth = true_plant_frf(scenario)
    rel = report.rel_error
    p95 = float(np.percentile(rel[np.isfinite(rel)], 95))
    n = truth.n_bins
    band = np.arange(n // 4 + 1, n // 2)  # above the slow Nyquist
    mags_true = np.abs(truth.values[:, 0, 0])
    mags_est = np.abs(result.frf.values[:, 0, 0])
    peak_true = band[np.argmax(mags_true[band])]
    peak_est = band[np.argmax(mags_est[band])]
    ok = (p95 < 1e-2 and abs(int(peak_true) - int(peak_est)) <= 1
          and elapsed < 60.0 and report.flagged_bins == 0)
    _verdict(7, ok, f"noiseless dual-input run: p95 relative error "
                    f"{p95:.3e} < 1e-2 over all {n} fast bins; resonance "
                    f"above slow Nyquist at bin {peak_true} identified at "
                    f"bin {peak_est}; {elapsed:.1f}s")


def test_criterion_8_solver_exactness():
    rng = np.random.default_rng(8)
    # constructed in-model-class data at the benchmark degrees
    cfg = LocalModelConfig(degree_num=3, degree_transient=3, degree_den=3,
                           half_window=30)
    R = random_spectra(rng, 4, 256)
    Gs = [random_spectra(rng, 5, 4) for _ in range(4)]
    Ts = [random_spectra(rng, 5) for _ in range(4)]
    exact, resid = lrm_exactness_error(
        R, 77, cfg, lambda p: sum(G * p ** s for s, G in enumerate(Gs)),
        lambda p: sum(T * p ** s for s, T in enumerate(Ts)))
    # dense normal-equations oracle on small random instances: one more from
    # this generator, and one from seed 2
    cfg2 = LocalModelConfig(degree_num=1, degree_transient=1, degree_den=2,
                            half_window=10)
    oracle_dev = 0.0
    for draw in (rng, np.random.default_rng(2)):
        R2 = random_spectra(draw, 1, 64)
        Z2 = random_spectra(draw, 1, 64)
        oracle_dev = max(oracle_dev,
                         lrm_normal_equations_error(Z2, R2, 30, cfg2))
    ok = resid < 1e-9 and exact < 1e-9 and oracle_dev < 1e-10
    _verdict(8, ok, f"in-model-class residual {resid:.3e} < 1e-9 (recovery "
                    f"dev {exact:.3e}); normal-equations oracle deviation "
                    f"{oracle_dev:.3e} < 1e-10")


def test_criterion_9_noise_robustness():
    sigma = 8e-10
    meds = {}
    for level in (sigma, sigma / 4):
        sc = build_benchmark_scenario("noisy", seed=31415, eh_std=level)
        _, report, _ = run_benchmark(sc)
        rel = report.rel_error
        meds[level] = float(np.median(rel[np.isfinite(rel)]))
    ok = meds[sigma / 4] < meds[sigma]
    _verdict(9, ok, f"white output noise, same seed: median error "
                    f"{meds[sigma]:.3e} at sigma vs {meds[sigma / 4]:.3e} "
                    f"at sigma/4 (strictly smaller)")


def test_criterion_10_determinism(tmp_path):
    import filecmp

    from mrfrf import io as mio
    from mrfrf.cli import main

    scen = tmp_path / "scenario.json"
    mio.write_json(scen, {"preset": "default", "seed": 99})
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["simulate", "--scenario", str(scen),
                     "--out", str(out)]) == 0
        assert main(["identify", "--scenario", str(scen),
                     "--data", str(out), "--out", str(out)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    same = True
    for name in names:
        same = same and filecmp.cmp(outs[0] / name, outs[1] / name,
                                    shallow=False)
    ok = same and len(names) >= 7
    _verdict(10, ok, f"two identical runs: {len(names)} output files "
                     f"byte-identical")
