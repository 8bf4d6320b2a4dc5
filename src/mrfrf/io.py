"""File formats: signal/FRF CSV, scenario JSON, diagnostics JSON.

All writers are deterministic for fixed inputs (floats via repr, sorted JSON
keys, \n line endings), so identical runs produce byte-identical files.
Every format carries a format_version marker (a leading comment line for CSV).
"""

import json

import numpy as np

from .bench import (BENCH_FACTOR, BENCH_FAST_TS, BENCH_RMS, BENCH_SAMPLES,
                    BenchmarkScenario, build_benchmark_scenario)
from .errors import (ConfigError, DataFormatError, LocalFitError, LtiError,
                     RateError)
from .lrm import LocalModelConfig
from .loopsim import MultirateLoopSpec, NoiseSpec, surrogate_plant
from .lti import benchmark_controller, system_from_dict, system_to_dict
from .multirate import FAST, SignalRecord
from .spectral import MultisineSpec

FORMAT_VERSION = 1
_VERSION_LINE = f"# format_version={FORMAT_VERSION}"


def _fmt(x):
    return repr(float(x))


def write_signal_csv(path, record):
    """One column per channel, header ch0..chK, version comment first."""
    lines = [_VERSION_LINE,
             ",".join(f"ch{c}" for c in range(record.n_channels))]
    cols = record.data
    for n in range(record.n_samples):
        lines.append(",".join(_fmt(cols[c, n]) for c in range(cols.shape[0])))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_signal_csv(path, sample_time, rate_tag=FAST, n_periods=None):
    with open(path, "r", encoding="utf-8") as f:
        raw = f.read().splitlines()
    rows = [(i + 1, line) for i, line in enumerate(raw)
            if line.strip() and not line.startswith("#")]
    if not rows:
        raise DataFormatError(f"{path}: no header row found")
    header_no, header = rows[0]
    names = header.split(",")
    if names != [f"ch{c}" for c in range(len(names))]:
        raise DataFormatError(f"{path}: bad header {header!r}", row=header_no)
    data = np.empty((len(names), len(rows) - 1))
    for j, (line_no, line) in enumerate(rows[1:]):
        parts = line.split(",")
        if len(parts) != len(names):
            raise DataFormatError(
                f"{path}: row {line_no} has {len(parts)} fields, "
                f"expected {len(names)}", row=line_no)
        try:
            data[:, j] = [float(p) for p in parts]
        except ValueError:
            raise DataFormatError(
                f"{path}: row {line_no} is not numeric", row=line_no
            ) from None
    finite = np.isfinite(data).all(axis=0)
    if not finite.all():
        line_no = rows[1 + int(np.argmin(finite))][0]
        raise DataFormatError(f"{path}: row {line_no} is not finite",
                              row=line_no)
    return SignalRecord(data, sample_time, rate_tag, n_periods=n_periods)


def write_frf_entry_csv(path, frf, i, j, flags=None):
    """Columns: k, freq_hz, re, im, flag for one plant entry."""
    vals = frf.values[:, i, j]
    freqs = frf.omega / (2.0 * np.pi)
    flags = np.zeros(frf.n_bins, dtype=bool) if flags is None else flags
    lines = [_VERSION_LINE, "k,freq_hz,re,im,flag"]
    for k in range(frf.n_bins):
        v = vals[k]
        re, im = (0.0, 0.0) if flags[k] and not np.isfinite(v) else (v.real, v.imag)
        lines.append(f"{k},{_fmt(freqs[k])},{_fmt(re)},{_fmt(im)},"
                     f"{int(bool(flags[k]))}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_frf_entry_csv(path):
    with open(path, "r", encoding="utf-8") as f:
        raw = f.read().splitlines()
    rows = [(i + 1, ln) for i, ln in enumerate(raw)
            if ln.strip() and not ln.startswith("#")]
    if not rows or rows[0][1] != "k,freq_hz,re,im,flag":
        raise DataFormatError(f"{path}: missing FRF header")
    ks, vals, flags = [], [], []
    for line_no, line in rows[1:]:
        parts = line.split(",")
        if len(parts) != 5:
            raise DataFormatError(f"{path}: row {line_no} malformed",
                                  row=line_no)
        try:
            ks.append(int(parts[0]))
            vals.append(complex(float(parts[2]), float(parts[3])))
            flags.append(bool(int(parts[4])))
        except ValueError:
            raise DataFormatError(f"{path}: row {line_no} is not numeric",
                                  row=line_no) from None
    return np.asarray(ks), np.asarray(vals), np.asarray(flags)


def write_json(path, doc):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def diagnostics_to_dict(result):
    d = result.diagnostics
    return {
        "format_version": FORMAT_VERSION,
        "factor": result.factor,
        "n_slow_bins": result.n_slow_bins,
        "residual": [float(x) for x in d.residual],
        "fit_condition": [float(x) for x in d.fit_condition],
        "sens_condition": [float(x) for x in d.sens_condition],
        "fallback_bins": [int(k) for k in np.nonzero(d.fallback)[0]],
        "failed_bins": [int(k) for k in np.nonzero(d.failed)[0]],
        "messages": {str(k): v for k, v in sorted(d.messages.items())},
        "alias_energy_min_share": [float(x) for x in d.alias_energy.min(axis=0)],
    }


# --- scenario documents -------------------------------------------------------
#
# {"format_version": 1, "plant": {...}|{"preset": name}, "controller": ...,
#  "filters": ...|null, "F": 2,
#  "noise": {"eh_std": 0, "H": null, "el_std": 0, "dh_std": 0, "dh_channel": 1},
#  "excitation": {"rms": [...], "seed": 1234, "n_samples": 3600,
#                  "scheme": "random"},
#  "lrm": {"degree_num": 3, "degree_transient": 3, "degree_den": 3,
#           "half_window": 30},
#  "ts": 9.920634920634922e-06, "periods": 3, "ident_periods": 2, "seed": 1234}
#
# Absent "lrm" keys take LocalModelConfig's defaults; "denominator" may only
# be "diagonal", the one local model there is.

_LRM_KEYS = ("degree_num", "degree_transient", "degree_den", "half_window")


def _field(doc, key, convert, default, section=""):
    """doc[key] (or the default) passed through convert; a value that convert
    rejects is a ConfigError naming the field."""
    value = doc.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"scenario field {section + key!r} has an invalid "
                          f"value {value!r}") from None


def _diagonal_only(value):
    if value != "diagonal":
        raise ValueError(value)


def _spec(section, build, *args, **kwargs):
    """build(*args, **kwargs); a validation error the constructor raises is a
    ConfigError naming the scenario section."""
    try:
        return build(*args, **kwargs)
    except (LocalFitError, LtiError, RateError) as e:
        raise ConfigError(f"scenario section {section!r} is invalid: "
                          f"{e}") from None


def _system_from_doc(doc, ts, role):
    if doc is None:
        return None
    if isinstance(doc, dict) and "preset" in doc:
        name = doc["preset"]
        if role == "plant":
            return surrogate_plant(name, ts)
        if role == "controller":
            variant = doc.get("variant", "q2")
            return benchmark_controller(ts, variant)
        raise ConfigError(f"no presets for role {role!r}")
    if isinstance(doc, dict):
        try:
            return system_from_dict(doc)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{role} system document is invalid: {e}") from None
    raise ConfigError(f"{role} must be a system document or a preset reference")


def scenario_from_dict(doc):
    try:
        ts = _field(doc, "ts", float, BENCH_FAST_TS)
        factor = _field(doc, "F", int, BENCH_FACTOR)
        plant = _system_from_doc(doc["plant"], ts, "plant")
        controller = _system_from_doc(doc["controller"], ts * factor,
                                      "controller")
    except KeyError as e:
        raise ConfigError(f"scenario missing field {e}") from None
    filters = _system_from_doc(doc.get("filters"), ts, "filters")
    nd = doc.get("noise", {})
    shaping = _system_from_doc(nd.get("H"), ts, "noise shaping")
    noise = NoiseSpec(eh_std=_field(nd, "eh_std", float, 0.0, "noise."),
                      el_std=_field(nd, "el_std", float, 0.0, "noise."),
                      dh_std=_field(nd, "dh_std", float, 0.0, "noise."),
                      dh_channel=_field(nd, "dh_channel", int, 1, "noise."),
                      shaping=shaping)
    loop = _spec("plant/controller/filters/F", MultirateLoopSpec, plant,
                 controller, factor, input_filters=filters, noise=noise)
    ed = doc.get("excitation", {})
    seed = _field(doc, "seed", int, 1234)
    excitation = _spec(
        "excitation", MultisineSpec,
        n_channels=plant.n_inputs,
        n_samples=_field(ed, "n_samples", int, BENCH_SAMPLES, "excitation."),
        sample_time=ts,
        rms=_field(ed, "rms", lambda v: np.asarray(v, dtype=float),
                   BENCH_RMS[:plant.n_inputs], "excitation."),
        seed=_field(ed, "seed", int, seed, "excitation."),
        phase_scheme=ed.get("scheme", "random"),
        excite_dc=bool(ed.get("excite_dc", False)),
    )
    ld = doc.get("lrm", {})
    _field(ld, "denominator", _diagonal_only, "diagonal", "lrm.")
    lrm = _spec("lrm", LocalModelConfig, **{
        key: _field(ld, key, int, getattr(LocalModelConfig, key), "lrm.")
        for key in _LRM_KEYS})
    return BenchmarkScenario(loop=loop, excitation=excitation, lrm=lrm,
                             periods=_field(doc, "periods", int, 3),
                             ident_periods=_field(doc, "ident_periods", int, 2),
                             seed=seed)


def scenario_to_dict(scenario, plant_doc=None, controller_doc=None):
    loop = scenario.loop
    noise = loop.noise
    doc = {
        "format_version": FORMAT_VERSION,
        "ts": loop.plant.sample_time,
        "F": loop.factor,
        "plant": plant_doc or system_to_dict(loop.plant),
        "controller": controller_doc or system_to_dict(loop.controller),
        "filters": (None if loop.input_filters is None
                    else system_to_dict(loop.input_filters)),
        "noise": {
            "eh_std": noise.eh_std, "el_std": noise.el_std,
            "dh_std": noise.dh_std, "dh_channel": noise.dh_channel,
            "H": (None if noise.shaping is None
                  else system_to_dict(noise.shaping)),
        },
        "excitation": {
            "rms": list(scenario.excitation.rms),
            "seed": scenario.excitation.seed,
            "n_samples": scenario.excitation.n_samples,
            "scheme": scenario.excitation.phase_scheme,
            "excite_dc": scenario.excitation.excite_dc,
        },
        "lrm": {key: getattr(scenario.lrm, key) for key in _LRM_KEYS},
        "periods": scenario.periods,
        "ident_periods": scenario.ident_periods,
        "seed": scenario.seed,
    }
    return doc


def load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"scenario file is not valid JSON: {e}") from None
    if isinstance(doc, dict) and "preset" in doc and "plant" not in doc:
        return build_benchmark_scenario(doc["preset"],
                                        seed=_field(doc, "seed", int, 1234))
    return scenario_from_dict(doc)


def save_scenario(path, scenario):
    write_json(path, scenario_to_dict(scenario))
