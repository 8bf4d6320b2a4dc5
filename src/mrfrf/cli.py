"""Command-line front end.

    mrfrf generate|simulate|identify|validate|report --scenario <path>
          --out <dir> [--seed N]

Exit codes: 0 success, 1 validation failure, 2 usage/config error,
3 data error.  Any other exception is a program error and propagates with
its traceback.  All outputs are deterministic for a fixed scenario and seed.
"""

import argparse
import os
import sys

import numpy as np

from . import io as mio
from .bench import error_report, true_plant_frf
from .errors import ConfigError, DataFormatError, MrfrfError
from .ident import identify
from .loopsim import simulate
from .lti import FrfMatrix
from .multirate import FAST, SLOW
from .spectral import multisine
from .validate import run_suites

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_DATA = 3


def _parser():
    p = argparse.ArgumentParser(
        prog="mrfrf",
        description="Fast-rate FRF identification for multirate closed loops",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, scenario_required=True):
        sp.add_argument("--scenario", required=scenario_required,
                        help="scenario JSON path")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")

    common(sub.add_parser("generate", help="write the excitation records"))
    common(sub.add_parser("simulate", help="simulate the loop and write records"))
    sp = sub.add_parser("identify", help="identify the fast-rate FRF from records")
    common(sp)
    sp.add_argument("--data", default=None,
                    help="directory holding the signal CSVs (default: --out)")
    sp = sub.add_parser("validate", help="run the analytic self-check suites")
    sp.add_argument("--scenario", required=False, default=None)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mutate", default=None,
                    help="inject a named fault (validator self-test)")
    common(sub.add_parser("report", help="compare an identified FRF with the truth"))
    return p


def _load(scenario_path, seed):
    scenario = mio.load_scenario(scenario_path)
    if seed is not None:
        from dataclasses import replace

        scenario = replace(scenario, seed=seed,
                           excitation=replace(scenario.excitation, seed=seed))
    return scenario


def cmd_generate(args):
    scenario = _load(args.scenario, args.seed)
    os.makedirs(args.out, exist_ok=True)
    record = multisine(scenario.excitation)
    path = os.path.join(args.out, "r_h.csv")
    mio.write_signal_csv(path, record)
    print(f"wrote {path} ({record.n_channels} channels, "
          f"{record.n_samples} samples); seed={scenario.excitation.seed}")
    return EXIT_OK


def cmd_simulate(args):
    scenario = _load(args.scenario, args.seed)
    os.makedirs(args.out, exist_ok=True)
    r_h = multisine(scenario.excitation)
    sim = simulate(scenario.loop, r_h, periods=scenario.periods,
                   seed=scenario.seed)
    for name, rec in (("r_h", sim.r_h), ("u_h", sim.u_h),
                      ("y_h", sim.y_h), ("y_l", sim.y_l)):
        mio.write_signal_csv(os.path.join(args.out, f"{name}.csv"), rec)
    mio.write_json(os.path.join(args.out, "run_meta.json"), {
        "format_version": mio.FORMAT_VERSION,
        "seed": sim.seed,
        "periods": scenario.periods,
        "fast_sample_time": scenario.loop.plant.sample_time,
        "factor": scenario.loop.factor,
    })
    print(f"wrote 4 records to {args.out}; seed={sim.seed}")
    return EXIT_OK


def cmd_identify(args):
    scenario = _load(args.scenario, args.seed)
    data_dir = args.data or args.out
    os.makedirs(args.out, exist_ok=True)
    ts = scenario.loop.plant.sample_time
    F = scenario.loop.factor
    p = scenario.periods
    u_h = mio.read_signal_csv(os.path.join(data_dir, "u_h.csv"), ts, FAST,
                              n_periods=p)
    r_h = mio.read_signal_csv(os.path.join(data_dir, "r_h.csv"), ts, FAST,
                              n_periods=p)
    y_l = mio.read_signal_csv(os.path.join(data_dir, "y_l.csv"), ts * F, SLOW,
                              n_periods=p)
    pi = scenario.ident_periods
    result = identify(u_h.last_periods(pi), r_h.last_periods(pi),
                      y_l.last_periods(pi), F, scenario.lrm)
    frf = result.frf
    for i in range(frf.n_outputs):
        for j in range(frf.n_inputs):
            mio.write_frf_entry_csv(
                os.path.join(args.out, f"frf_y{i}_u{j}.csv"),
                frf, i, j, flags=result.flags)
    mio.write_json(os.path.join(args.out, "diagnostics.json"),
                   mio.diagnostics_to_dict(result))
    res = result.diagnostics.residual
    finite = res[np.isfinite(res)]
    print(f"identified {frf.n_bins} fast bins "
          f"({int(result.flags.sum())} flagged)")
    if finite.size:
        for q in (50, 90, 95, 100):
            print(f"residual p{q}: {np.percentile(finite, q):.6e}")
    return EXIT_OK


def cmd_validate(args):
    os.makedirs(args.out, exist_ok=True)
    results = run_suites(seed=args.seed, mutate=args.mutate)
    mio.write_json(os.path.join(args.out, "validate.json"), results)
    for s in results["suites"]:
        status = "pass" if s["passed"] else "FAIL"
        print(f"{status}  {s['name']}: max_err={s['max_err']:.3e} "
              f"(tol {s['tolerance']:.1e})")
    if results["all_passed"]:
        print("all suites passed")
        return EXIT_OK
    print("validation failed")
    return EXIT_VALIDATION


def cmd_report(args):
    scenario = _load(args.scenario, args.seed)
    os.makedirs(args.out, exist_ok=True)
    truth = true_plant_frf(scenario)
    vals = np.zeros_like(truth.values)
    for i in range(truth.n_outputs):
        for j in range(truth.n_inputs):
            path = os.path.join(args.out, f"frf_y{i}_u{j}.csv")
            if not os.path.exists(path):
                raise DataFormatError(f"missing FRF file {path}")
            ks, v, fl = mio.read_frf_entry_csv(path)
            if len(ks) != truth.n_bins:
                raise DataFormatError(
                    f"{path}: {len(ks)} rows, expected {truth.n_bins}")
            vals[:, i, j] = np.where(fl, np.nan + 0j, v)
    est = FrfMatrix(vals, truth.omega, truth.sample_time)
    report = error_report(est, truth)
    mio.write_json(os.path.join(args.out, "error_report.json"), {
        "format_version": mio.FORMAT_VERSION,
        "percentiles": {str(k): v for k, v in report.percentiles.items()},
        "flagged_bins": report.flagged_bins,
    })
    for line in report.summary_lines():
        print(line)
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "simulate": cmd_simulate,
    "identify": cmd_identify,
    "validate": cmd_validate,
    "report": cmd_report,
}


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except DataFormatError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except MrfrfError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
