"""Benchmark harness: the dual-stage identification configuration around the
surrogate plants, running the full pipeline and reporting estimation errors
against the analytically known plant response.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .ident import identify
from .loopsim import (FAST_SAMPLE_TIME, MultirateLoopSpec, NoiseSpec,
                      benchmark_loop, simulate)
from .lrm import LocalModelConfig, window_problem
from .lti import dft_grid, freq_response
from .spectral import MultisineSpec, multisine

#: Identification settings of the dual-stage benchmark configuration.
BENCH_FACTOR = 2
BENCH_SAMPLES = 3600
BENCH_RMS = (3.6e-9, 8.0e-8)              # (pzt, vcm) excitation levels
#: Default stroke bound checked (report-only) for the micro actuator, meters.
PZT_STROKE_BOUND = 50e-9

SCENARIO_PRESETS = ("default", "noiseless", "noisy", "zero-plant")


@dataclass(frozen=True)
class BenchmarkScenario:
    loop: MultirateLoopSpec
    excitation: MultisineSpec
    lrm: LocalModelConfig = field(default_factory=LocalModelConfig)
    periods: int = 3
    ident_periods: int = 2
    seed: int = 1234
    stroke_bounds: dict = field(default_factory=lambda: {0: PZT_STROKE_BOUND})

    def __post_init__(self):
        if self.excitation.n_samples % self.loop.factor:
            raise ConfigError("record length must divide by the factor")
        if not 1 <= self.ident_periods <= self.periods:
            raise ConfigError("ident_periods must lie in 1..periods")
        m = self.excitation.n_samples // self.loop.factor
        if problem := window_problem(self.lrm, self.loop.n_inputs,
                                     self.loop.n_outputs, self.loop.factor, m):
            raise ConfigError(f"scenario field 'lrm.half_window': {problem}")


@dataclass(frozen=True)
class ErrorReport:
    """Per-bin FRF errors plus actuator peak amplitudes.

    abs_error and rel_error have shape (bins, n_y, n_u); relative errors are
    exactly zero where the estimate matches and guarded against vanishing
    reference magnitudes elsewhere.  Percentile tables are pooled over all
    finite entries.
    """

    abs_error: np.ndarray
    rel_error: np.ndarray
    percentiles: dict
    flagged_bins: int
    peak_amplitude: tuple
    stroke_bounds: dict

    def summary_lines(self):
        lines = [f"flagged bins: {self.flagged_bins}"]
        for q in sorted(self.percentiles):
            lines.append(f"p{q:g} relative error: {self.percentiles[q]:.6e}")
        for ch, peak in enumerate(self.peak_amplitude):
            bound = self.stroke_bounds.get(ch)
            extra = "" if bound is None else f" (bound {bound:.3g})"
            lines.append(f"peak |u[{ch}]|: {peak:.6e}{extra}")
        return lines


def build_benchmark_scenario(preset="default", seed=1234, eh_std=None):
    """Benchmark scenario presets around the surrogate dual-stage plant.

    'default'/'noiseless' run without noise; 'noisy' adds white fast output
    noise (level overridable via eh_std); 'zero-plant' replaces the plant with
    zeros to exercise flag propagation.
    """
    if preset not in SCENARIO_PRESETS:
        raise ConfigError(f"unknown scenario preset {preset!r}; "
                          f"available: {sorted(SCENARIO_PRESETS)}")
    noise = NoiseSpec()
    if preset == "noisy":
        noise = NoiseSpec(eh_std=2e-10 if eh_std is None else eh_std)
    elif eh_std:
        noise = NoiseSpec(eh_std=eh_std)
    loop = benchmark_loop(noise=noise)
    if preset == "zero-plant":
        from .loopsim import surrogate_plant

        loop = replace(loop, plant=surrogate_plant("zero"))
    excitation = MultisineSpec(
        n_channels=2, n_samples=BENCH_SAMPLES, sample_time=FAST_SAMPLE_TIME,
        rms=BENCH_RMS, seed=seed,
    )
    return BenchmarkScenario(loop=loop, excitation=excitation, seed=seed)


def true_plant_frf(scenario):
    n = scenario.excitation.n_samples
    ts = scenario.loop.plant.sample_time
    return freq_response(scenario.loop.plant, dft_grid(n, ts))


def run_benchmark(scenario):
    """Simulate, identify on the trailing periods, and score the estimate.

    Returns (IdentResult, ErrorReport, SimulationOutput).
    """
    r_h = multisine(scenario.excitation)
    sim = simulate(scenario.loop, r_h, periods=scenario.periods,
                   seed=scenario.seed)
    p = scenario.ident_periods
    u_id = sim.u_h.last_periods(p)
    r_id = sim.r_h.last_periods(p)
    y_id = sim.y_l.last_periods(p)
    result = identify(u_id, r_id, y_id, scenario.loop.factor, scenario.lrm)
    report = error_report(result.frf, true_plant_frf(scenario),
                          peaks=tuple(float(np.abs(sim.u_h.data[c]).max())
                                      for c in range(sim.u_h.n_channels)),
                          stroke_bounds=scenario.stroke_bounds)
    return result, report, sim


def error_report(frf_est, frf_true, peaks=(), stroke_bounds=None):
    """Compare an estimated FRF against a reference on the same grid."""
    if frf_est.values.shape != frf_true.values.shape:
        raise ConfigError("FRF shape mismatch between estimate and reference")
    if not np.allclose(frf_est.omega, frf_true.omega, rtol=0,
                       atol=1e-9 * (frf_true.omega[-1] or 1.0)):
        raise ConfigError("FRF grids differ between estimate and reference")
    diff = frf_est.values - frf_true.values
    abs_err = np.abs(diff)
    ref = np.abs(frf_true.values)
    rel = np.zeros_like(abs_err)
    nonzero = abs_err > 0
    rel[nonzero] = abs_err[nonzero] / np.maximum(ref[nonzero], 1e-300)
    finite = np.isfinite(abs_err)
    flagged = int(abs_err.shape[0] - np.all(finite, axis=(1, 2)).sum())
    pooled = rel[finite & np.isfinite(rel)]
    if pooled.size:
        percentiles = {q: float(np.percentile(pooled, q))
                       for q in (50, 90, 95, 100)}
    else:
        percentiles = {q: float("nan") for q in (50, 90, 95, 100)}
    rel = np.where(finite, rel, np.nan)
    return ErrorReport(np.where(finite, abs_err, np.nan), rel, percentiles,
                       flagged, tuple(peaks), dict(stroke_bounds or {}))
