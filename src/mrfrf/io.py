"""File formats: signal/FRF CSV, scenario JSON, diagnostics JSON.

All writers are deterministic for fixed inputs (floats via repr, sorted JSON
keys, \n line endings), so identical runs produce byte-identical files.
Every format carries a format_version marker (a leading comment line for CSV).
"""

import json
import math

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


_CHUNK_ROWS = 4096


def _csv_chunks(data):
    """CSV text of the columns of data (channels x samples), yielded a chunk
    of rows at a time so that the whole text is never held at once."""
    row = ",".join(["%r"] * data.shape[0]) + "\n"
    for start in range(0, data.shape[1], _CHUNK_ROWS):
        block = data[:, start:start + _CHUNK_ROWS]
        yield (row * block.shape[1]) % tuple(block.T.ravel().tolist())


def _period_repeats(record):
    """n_periods if every period is bitwise equal to the first, else 1.

    Bits, not values, are compared: -0.0 == 0.0 but their reprs differ."""
    p = record.n_periods or 1
    if p > 1:
        bits = record.data.view(np.uint64).reshape(
            record.n_channels, p, record.n_samples // p)
        if (bits == bits[:, :1]).all():
            return p
    return 1


def write_signal_csv(path, record):
    """One column per channel, header ch0..chK, version comment first.

    A periodic record (such as the tiled excitation) is formatted for one
    period and written n_periods times."""
    repeats = _period_repeats(record)
    chunks = _csv_chunks(record.data[:, :record.n_samples // repeats])
    if repeats > 1:
        chunks = list(chunks) * repeats
    header = ",".join(f"ch{c}" for c in range(record.n_channels))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{_VERSION_LINE}\n{header}\n")
        f.writelines(chunks)


def _parse_fast(lines, body, n_channels):
    """One C-level parse of lines[i] for i in body, as (channels, samples),
    or None when the per-row parse must decide: a malformed row, or a field
    that float() reads and loadtxt does not, such as 1_0."""
    if not body:
        return None
    try:
        data = np.loadtxt((lines[i] for i in body), delimiter=",",
                          comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    if data.shape != (len(body), n_channels):
        return None
    return data.T


def _parse_rows(path, lines, body, n_channels):
    """The per-row parse; a DataFormatError names the first bad file row."""
    data = np.empty((n_channels, len(body)))
    for j, i in enumerate(body):
        parts = lines[i].split(",")
        if len(parts) != n_channels:
            raise DataFormatError(
                f"{path}: row {i + 1} has {len(parts)} fields, "
                f"expected {n_channels}", row=i + 1)
        try:
            data[:, j] = [float(p) for p in parts]
        except ValueError:
            raise DataFormatError(
                f"{path}: row {i + 1} is not numeric", row=i + 1) from None
    return data


def read_signal_csv(path, sample_time, rate_tag=FAST, n_periods=None):
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    # loadtxt strips U+001F around a field as whitespace; float() rejects it
    fast = "\x1f" not in text
    lines = text.splitlines()
    del text  # the lines hold a second copy of it
    # indices of the lines that are neither blank nor a comment
    kept = [i for i, line in enumerate(lines)
            if line.strip() and line[0] != "#"]
    if not kept:
        raise DataFormatError(f"{path}: no header row found")
    header = lines[kept[0]]
    names = header.split(",")
    if names != [f"ch{c}" for c in range(len(names))]:
        raise DataFormatError(f"{path}: bad header {header!r}",
                              row=kept[0] + 1)
    body = kept[1:]
    data = _parse_fast(lines, body, len(names)) if fast else None
    if data is None:
        data = _parse_rows(path, lines, body, len(names))
    finite = np.isfinite(data).all(axis=0)
    if not finite.all():
        line_no = body[int(np.argmin(finite))] + 1
        raise DataFormatError(f"{path}: row {line_no} is not finite",
                              row=line_no)
    if n_periods is not None and n_periods >= 1 and data.shape[1] % n_periods:
        raise DataFormatError(f"{path}: {data.shape[1]} samples do not divide "
                              f"evenly into n_periods={n_periods} periods")
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
    for index, (line_no, line) in enumerate(rows[1:]):
        parts = line.split(",")
        if len(parts) != 5:
            raise DataFormatError(f"{path}: row {line_no} malformed",
                                  row=line_no)
        try:
            k, flag = int(parts[0]), int(parts[4])
            _, re, im = (float(p) for p in parts[1:4])
        except ValueError:
            raise DataFormatError(f"{path}: row {line_no} is not numeric",
                                  row=line_no) from None
        if k != index:
            raise DataFormatError(f"{path}: row {line_no} has k={k}, "
                                  f"expected {index}", row=line_no)
        if flag not in (0, 1):
            raise DataFormatError(f"{path}: row {line_no} has flag {flag}, "
                                  f"expected 0 or 1", row=line_no)
        if not flag and not (math.isfinite(re) and math.isfinite(im)):
            raise DataFormatError(f"{path}: row {line_no} is not finite on "
                                  f"an unflagged bin", row=line_no)
        ks.append(k)
        vals.append(complex(re, im))
        flags.append(bool(flag))
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


def _json_bool(value):
    if not isinstance(value, bool):
        raise ValueError(value)
    return value


def _spec(section, build, *args, **kwargs):
    """build(*args, **kwargs); a validation error the constructor raises is a
    ConfigError naming the scenario section."""
    try:
        return build(*args, **kwargs)
    except (LocalFitError, LtiError, RateError) as e:
        raise ConfigError(f"scenario section {section!r} is invalid: "
                          f"{e}") from None


def _section(doc, key):
    """doc[key], which must be a JSON object; absent means empty."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"scenario section {key!r} must be a JSON object, "
                          f"not {value!r}")
    return value


def _system_from_doc(doc, ts, role):
    if doc is None:
        return None
    if isinstance(doc, dict) and "preset" in doc:
        name = doc["preset"]
        if role == "plant":
            return _spec("plant", surrogate_plant, name, ts)
        if role == "controller":
            if name != "benchmark":
                raise ConfigError(f"unknown controller preset {name!r}; "
                                  f"available: ['benchmark']")
            return _spec("controller", benchmark_controller, ts,
                         doc.get("variant", "q2"))
        raise ConfigError(f"no presets for role {role!r}")
    if isinstance(doc, dict):
        try:
            return system_from_dict(doc)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{role} system document is invalid: {e}") from None
    raise ConfigError(f"{role} must be a system document or a preset reference")


def scenario_from_dict(doc):
    if not isinstance(doc, dict):
        raise ConfigError(f"scenario document must be a JSON object, "
                          f"not {doc!r}")
    try:
        ts = _field(doc, "ts", float, BENCH_FAST_TS)
        factor = _field(doc, "F", int, BENCH_FACTOR)
        plant = _system_from_doc(doc["plant"], ts, "plant")
        controller = _system_from_doc(doc["controller"], ts * factor,
                                      "controller")
    except KeyError as e:
        raise ConfigError(f"scenario missing field {e}") from None
    filters = _system_from_doc(doc.get("filters"), ts, "filters")
    nd = _section(doc, "noise")
    shaping = _system_from_doc(nd.get("H"), ts, "noise shaping")
    noise = NoiseSpec(eh_std=_field(nd, "eh_std", float, 0.0, "noise."),
                      el_std=_field(nd, "el_std", float, 0.0, "noise."),
                      dh_std=_field(nd, "dh_std", float, 0.0, "noise."),
                      dh_channel=_field(nd, "dh_channel", int, 1, "noise."),
                      shaping=shaping)
    loop = _spec("plant/controller/filters/F", MultirateLoopSpec, plant,
                 controller, factor, input_filters=filters, noise=noise)
    if ("dh_channel" in nd or noise.dh_std > 0) and \
            not 0 <= noise.dh_channel < loop.n_inputs:
        raise ConfigError(f"scenario field 'noise.dh_channel' names input "
                          f"{noise.dh_channel} of a plant with "
                          f"{loop.n_inputs} inputs")
    ed = _section(doc, "excitation")
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
        excite_dc=_field(ed, "excite_dc", _json_bool, False, "excitation."),
    )
    ld = _section(doc, "lrm")
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
            "dh_std": noise.dh_std,
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
    if noise.dh_std > 0:
        # only used with dh_std > 0; a loaded channel must name a plant
        # input, which the default (1) does not for a single-input plant
        doc["noise"]["dh_channel"] = noise.dh_channel
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
