"""The benchmark's workloads, written against the public API of mrfrf.

Each workload makes CASES scenarios from the seed, runs one whole pipeline
per iteration on one of them, cycling, as a fixed list of steps, and checks
every result against the analytic truth.  A step is one operation.  It fails on an exception, a
nonzero exit code or a failed check, and the steps after a failed one count
as failed too, so no failure is dropped.
"""

import contextlib
import dataclasses
import hashlib
import io as stdio
import json
import math
import os
import re
import shutil
import time
import warnings
from types import SimpleNamespace

import numpy as np

from mrfrf import bench, cli, ident, loopsim, spectral
from mrfrf import io as mio
from mrfrf.lti import FrfMatrix

FALLBACK_WARNING = "falling back to a polynomial model"
CASES = 5   # scenarios per run, see case_seeds
SIMULATE_PASSES = 3


class CheckFailed(Exception):
    """A correctness check on a step's output did not hold."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclasses.dataclass
class Iteration:
    """What one pass of a workload's steps measured and found."""

    case: int
    times: dict = dataclasses.field(default_factory=dict)
    sample: tuple = None    # (rel_error, flags, factor) for accuracy()
    fallbacks: int = 0
    steps: list = dataclasses.field(default_factory=list)  # (name, error|None)

    @property
    def failed(self):
        return sum(err is not None for _, err in self.steps)

    def record(self, key, dt):
        """Add a stage time; every stage time adds to pipeline_s."""
        self.times[key] = self.times.get(key, 0.0) + dt
        self.times["pipeline_s"] = self.times.get("pipeline_s", 0.0) + dt

    @contextlib.contextmanager
    def timed(self, key, tracer, span):
        """Time a step's call into mrfrf under a span of its own."""
        t0 = time.perf_counter()
        with tracer.span(span):
            yield
        self.record(key, time.perf_counter() - t0)


def _count_fallbacks(caught):
    return sum(FALLBACK_WARNING in str(w.message) for w in caught)


def case_seeds(seed):
    """Scenario seeds of one run: the run's seed first, then CASES - 1 more.

    The relative error of one scenario moves by ~10-20% (quartile spread)
    from seed to seed; pooling five scenarios per run steadies it."""
    return [seed + 1_000_003 * j for j in range(CASES)]


def accuracy(samples):
    """Relative FRF error percentiles, pooled over scenarios as error_report
    pools bins, plus the fast bins above the slow Nyquist frequency on their
    own.  samples holds (rel_error, flags, factor) per identified scenario."""
    every, high = [], []
    withheld = bins = 0
    for rel, flags, factor in samples:
        n = rel.shape[0]
        k = np.arange(n)
        hi = rel[np.minimum(k, n - k) * 2 * factor > n]
        every.append(rel[np.isfinite(rel)])
        high.append(hi[np.isfinite(hi)])
        withheld += int(np.count_nonzero(flags))
        bins += n
    every, high = np.concatenate(every), np.concatenate(high)
    return {
        "p50": float(np.percentile(every, 50)),
        "p95": float(np.percentile(every, 95)),
        "hi.p95": float(np.percentile(high, 95)),
        "resolved_frac": 1.0 - withheld / bins,
    }


def _gate(it, rel, flags, factor, tolerances):
    """No withheld bins, and the error within the workload's tolerances."""
    it.sample = (rel, flags, factor)
    n_flagged = int(np.count_nonzero(flags))
    _require(n_flagged == 0, f"{n_flagged} of {len(flags)} fast bins withheld")
    acc = accuracy([it.sample])
    for key, tol in tolerances.items():
        _require(acc[key] <= tol, f"relative FRF error {key} = "
                                  f"{acc[key]:.3e} above tolerance {tol:.1e}")


def _check_fallbacks(warned, diagnosed):
    _require(warned == diagnosed, f"{warned} fallback warnings against "
                                  f"{diagnosed} fallback bins in diagnostics")


class Workload:
    """Runs the named steps of one iteration; subclasses define them."""

    steps = ()

    def __init__(self, name, tolerances):
        self.name = name
        self.tolerances = tolerances

    def run_iteration(self, cases, index, tracer):
        """Run every step on case index mod len(cases)."""
        it = Iteration(case=index % len(cases))
        case = cases[it.case]
        broken = None
        for step in self.steps:
            if broken is not None:
                it.steps.append((step, f"not run: step {broken} failed"))
                continue
            try:
                getattr(self, "step_" + step)(case, it, tracer)
            except Exception as e:  # counted in `failed`, never dropped
                broken = step
                it.steps.append((step, f"{type(e).__name__}: {e}"))
            else:
                it.steps.append((step, None))
        return it


class InProcess(Workload):
    """Excitation, simulation, identification and error report, called as
    library functions in this process."""

    steps = ("simulate", "identify", "report", "check")

    def __init__(self, name, build, tolerances):
        super().__init__(name, tolerances)
        self.build = build

    def setup(self, seed, workdir):
        return self.build(seed)

    def prepare(self, seed, workdir):
        return [SimpleNamespace(scenario=self.setup(s, workdir), digest=None)
                for s in case_seeds(seed)]

    def step_simulate(self, case, it, tracer):
        """multisine + simulate, SIMULATE_PASSES times; the stage takes only
        ~0.25 s, and its fastest pass is much steadier than a single one.
        Only the first pass is traced."""
        sc = case.scenario
        passes = []
        for p in range(SIMULATE_PASSES):
            with tracer.paused() if p else contextlib.nullcontext():
                t0 = time.perf_counter()
                with tracer.span("step.simulate"):
                    r_h = spectral.multisine(sc.excitation)
                    case.sim = loopsim.simulate(sc.loop, r_h,
                                                periods=sc.periods,
                                                seed=sc.seed)
                passes.append(time.perf_counter() - t0)
        it.record("simulate_s", min(passes))

    def step_identify(self, case, it, tracer):
        sc, sim, p = case.scenario, case.sim, case.scenario.ident_periods
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with it.timed("identify_s", tracer, "step.identify"):
                case.result = ident.identify(
                    sim.u_h.last_periods(p), sim.r_h.last_periods(p),
                    sim.y_l.last_periods(p), sc.loop.factor, sc.lrm)
        it.fallbacks = _count_fallbacks(caught)
        _check_fallbacks(it.fallbacks,
                         int(case.result.diagnostics.fallback.sum()))

    def step_report(self, case, it, tracer):
        sc, sim = case.scenario, case.sim
        with it.timed("report_s", tracer, "step.report"):
            truth = bench.true_plant_frf(sc)
            case.report = bench.error_report(
                case.result.frf, truth,
                peaks=tuple(float(np.abs(ch).max()) for ch in sim.u_h.data),
                stroke_bounds=sc.stroke_bounds)
        _gate(it, case.report.rel_error, case.result.flags, sc.loop.factor,
              self.tolerances)

    def step_check(self, case, it, tracer):
        """The estimate repeats bit for bit when a scenario runs again."""
        digest = hashlib.sha256(case.result.frf.values.tobytes()).hexdigest()
        case.digest = case.digest or digest
        _require(digest == case.digest, "FRF estimate differs from the "
                                       "scenario's first run")


def _noisy_f2(seed):
    return bench.build_benchmark_scenario("noisy", seed=seed)


def _noiseless_f3(seed):
    scenario = bench.build_benchmark_scenario("default", seed=seed)
    return dataclasses.replace(scenario, loop=loopsim.benchmark_loop(factor=3))


def averaged_scenario_doc(seed):
    """F=2, eh_std 2e-10, 1800-sample period, 24 periods, 23 identified."""
    return {
        "format_version": mio.FORMAT_VERSION,
        "ts": loopsim.FAST_SAMPLE_TIME,
        "F": 2,
        "plant": {"preset": "hdd-dual-stage"},
        "controller": {"preset": "benchmark", "variant": "q2"},
        "noise": {"eh_std": 2e-10},
        "excitation": {"n_samples": 1800, "rms": list(bench.BENCH_RMS),
                       "seed": seed},
        "lrm": {"degree_num": 3, "degree_transient": 3, "degree_den": 3,
                "half_window": 30, "denominator": "diagonal"},
        "periods": 24,
        "ident_periods": 23,
        "seed": seed,
    }


class CliAveraged(Workload):
    """The five CLI commands through in-process ``cli.main`` on a scenario
    document, with the records passing through CSV files in --out."""

    steps = ("generate", "simulate", "identify", "report", "validate", "check")
    _FLAGGED = re.compile(r"identified (\d+) fast bins \((\d+) flagged\)")

    def setup(self, seed, workdir):
        return mio.load_scenario(os.path.join(workdir, "case0",
                                              "scenario.json"))

    def prepare(self, seed, workdir):
        cases = []
        for j, s in enumerate(case_seeds(seed)):
            case_dir = os.path.join(workdir, f"case{j}")
            os.makedirs(case_dir, exist_ok=True)
            path = os.path.join(case_dir, "scenario.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(averaged_scenario_doc(s), f)
            scenario = mio.load_scenario(path)
            cases.append(SimpleNamespace(
                scenario=scenario, path=path, seed=s, digests=None,
                out=os.path.join(case_dir, "out"),
                truth=bench.true_plant_frf(scenario)))
        return cases

    def _main(self, it, tracer, key, argv):
        """One command; returns its standard output, exit code checked."""
        out, err = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with it.timed(key, tracer, f"cli.{argv[0]}"):
                code = cli.main(argv)
        _require(code == 0, f"mrfrf {argv[0]} exited {code}: "
                            f"{err.getvalue().strip()}")
        return out.getvalue()

    def _scenario_command(self, case, it, tracer, key, command):
        return self._main(it, tracer, key,
                          [command, "--scenario", case.path, "--out", case.out])

    def step_generate(self, case, it, tracer):
        shutil.rmtree(case.out, ignore_errors=True)
        self._scenario_command(case, it, tracer, "simulate_s", "generate")

    def step_simulate(self, case, it, tracer):
        self._scenario_command(case, it, tracer, "simulate_s", "simulate")

    def step_identify(self, case, it, tracer):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            text = self._scenario_command(case, it, tracer, "identify_s",
                                          "identify")
        it.fallbacks = _count_fallbacks(caught)
        with open(os.path.join(case.out, "diagnostics.json"),
                  encoding="utf-8") as f:
            diagnostics = json.load(f)
        _check_fallbacks(it.fallbacks, len(diagnostics["fallback_bins"]))
        m = self._FLAGGED.search(text)
        _require(m is not None and m.group(2) == "0",
                 f"identify reported withheld bins: {text.strip()!r}")

    def step_report(self, case, it, tracer):
        self._scenario_command(case, it, tracer, "report_s", "report")
        truth = case.truth
        vals = np.empty_like(truth.values)
        flags = np.zeros(truth.n_bins, dtype=bool)
        with tracer.paused():
            for i in range(truth.n_outputs):
                for j in range(truth.n_inputs):
                    _, v, fl = mio.read_frf_entry_csv(
                        os.path.join(case.out, f"frf_y{i}_u{j}.csv"))
                    vals[:, i, j] = np.where(fl, np.nan + 0j, v)
                    flags |= fl
            report = bench.error_report(
                FrfMatrix(vals, truth.omega, truth.sample_time), truth)
        _gate(it, report.rel_error, flags, case.scenario.loop.factor,
              self.tolerances)
        with open(os.path.join(case.out, "error_report.json"),
                  encoding="utf-8") as f:
            written = json.load(f)["percentiles"]
        for q in (50, 95):
            _require(math.isclose(written[str(q)], report.percentiles[q],
                                  rel_tol=1e-12),
                     f"error_report.json p{q} disagrees with the FRF files")

    def step_validate(self, case, it, tracer):
        text = self._main(it, tracer, "validate_s",
                          ["validate", "--out", case.out,
                           "--seed", str(case.seed)])
        _require("all suites passed" in text, f"validate: {text.strip()!r}")

    def step_check(self, case, it, tracer):
        """Every file in --out repeats byte for byte when a scenario runs
        again (acceptance criterion 10)."""
        digests = {}
        for name in sorted(os.listdir(case.out)):
            with open(os.path.join(case.out, name), "rb") as f:
                digests[name] = hashlib.sha256(f.read()).hexdigest()
        case.digests = case.digests or digests
        changed = sorted(n for n in digests.keys() | case.digests.keys()
                         if digests.get(n) != case.digests.get(n))
        _require(not changed, f"--out files differ from the scenario's "
                              f"first run: {changed}")


#: Gate on the relative FRF error of every scenario, per workload.  Each
#: tolerance is about twice the worst value measured over 36 scenario seeds
#: (1-8, 100-123, 99, 1234, 2024, 31337).
WORKLOADS = {w.name: w for w in (
    InProcess("noisy-f2", _noisy_f2,
              {"p50": 0.1, "p95": 0.5, "hi.p95": 0.35}),
    InProcess("noiseless-f3", _noiseless_f3,
              {"p50": 1e-4, "p95": 3e-3, "hi.p95": 4e-3}),
    CliAveraged("cli-averaged",
                {"p50": 0.04, "p95": 0.16, "hi.p95": 0.12}),
)}
