"""File formats: signal/FRF CSV, scenario JSON, diagnostics JSON.

All writers are deterministic for fixed inputs (floats via repr, sorted JSON
keys, \n line endings), so identical runs produce byte-identical files.
Every format carries a format_version marker (a leading comment line for CSV).
"""

import json
import math

import numpy as np

from .bench import (BENCH_FACTOR, BENCH_RMS, BENCH_SAMPLES, BenchmarkScenario,
                    build_benchmark_scenario)
from .errors import (ConfigError, DataFormatError, LocalFitError, LtiError,
                     RateError, SimulationError)
from .ident import SENS_CONDITION_LIMIT
from .lrm import LocalModelConfig
from .loopsim import (FAST_SAMPLE_TIME, MultirateLoopSpec, NoiseSpec,
                      surrogate_plant)
from .lti import benchmark_controller, system_from_dict, system_to_dict
from .multirate import FAST, SignalRecord
from .spectral import MultisineSpec

FORMAT_VERSION = 1
_VERSION_LINE = f"# format_version={FORMAT_VERSION}"


_CHUNK_ROWS = 4096


def _csv_chunks(data):
    """CSV text of the columns of data (channels x samples), yielded a chunk
    of rows at a time so that the whole text is never held at once."""
    row = ",".join(["%r"] * data.shape[0]) + "\n"
    for start in range(0, data.shape[1], _CHUNK_ROWS):
        block = data[:, start:start + _CHUNK_ROWS]
        yield (row * block.shape[1]) % tuple(block.T.ravel().tolist())


def write_signal_csv(path, record):
    """One column per channel, header ch0..chK, version comment first."""
    header = ",".join(f"ch{c}" for c in range(record.n_channels))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{_VERSION_LINE}\n{header}\n")
        f.writelines(_csv_chunks(record.data))


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
    """The record in a signal CSV; a bad value is a DataFormatError naming
    its file row."""
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
    n = frf.n_bins
    flags = np.zeros(n, bool) if flags is None else np.asarray(flags, bool)
    vals = frf.values[:, i, j]
    vals = np.where(flags & ~np.isfinite(vals), 0.0, vals)
    fields = zip(range(n), (frf.omega / (2.0 * np.pi)).tolist(),
                 vals.real.tolist(), vals.imag.tolist(), flags.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{_VERSION_LINE}\nk,freq_hz,re,im,flag\n")
        f.write("%d,%r,%r,%r,%d\n" * n % tuple(x for row in fields
                                                for x in row))


def read_frf_entry_csv(path, freq_hz=None):
    """(k, values, flags) of one plant entry; given the grid freq_hz, one row
    per bin, each row's freq_hz within 1e-12 relative (bin 0 exactly 0)."""
    with open(path, "r", encoding="utf-8") as f:
        raw = f.read().splitlines()
    rows = [(i + 1, ln) for i, ln in enumerate(raw)
            if ln.strip() and not ln.startswith("#")]
    if not rows or rows[0][1] != "k,freq_hz,re,im,flag":
        raise DataFormatError(f"{path}: missing FRF header")
    if freq_hz is not None and len(rows) - 1 != len(freq_hz):
        raise DataFormatError(f"{path}: {len(rows) - 1} rows, expected "
                              f"{len(freq_hz)}")
    ks, vals, flags = [], [], []
    for index, (line_no, line) in enumerate(rows[1:]):
        parts = line.split(",")
        if len(parts) != 5:
            raise DataFormatError(f"{path}: row {line_no} malformed",
                                  row=line_no)
        try:
            k, flag = int(parts[0]), int(parts[4])
            freq, re, im = (float(p) for p in parts[1:4])
        except ValueError:
            raise DataFormatError(f"{path}: row {line_no} is not numeric",
                                  row=line_no) from None
        if freq_hz is not None and \
                not abs(freq - freq_hz[index]) <= 1e-12 * abs(freq_hz[index]):
            raise DataFormatError(f"{path}: row {line_no} has freq_hz "
                                  f"{freq!r}, expected {freq_hz[index]!r}",
                                  row=line_no)
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
        "condition_threshold": float(d.condition_threshold),
        "sens_condition_limit": SENS_CONDITION_LIMIT,
    }


# --- scenario documents -------------------------------------------------------
#
# {"format_version": 1, "plant": {...}|{"preset": name}, "controller": ...,
#  "filters": ...|null, "F": 2,
#  "noise": {"eh_std": 0, "H": null, "el_std": 0, "dh_std": 0, "dh_channel": 1},
#  "excitation": {"rms": [...], "seed": 1234, "n_samples": 3600},
#  "lrm": {"degree_num": 3, "degree_transient": 3, "degree_den": 3,
#           "half_window": 30},
#  "ts": 9.920634920634922e-06, "periods": 3, "ident_periods": 2, "seed": 1234}
#
# Absent "lrm" keys take LocalModelConfig's defaults; "denominator" may only
# be "diagonal", the one local model there is.  No part of a document takes
# a key that its reader does not name.  "F", the period counts, the seeds,
# "n_samples", "dh_channel" and the "lrm" degrees and window take only JSON
# integers, and "ts", "rms" and the noise levels only JSON numbers: a bool, a
# string or a fraction there is a ConfigError naming the field.

_LRM_KEYS = ("degree_num", "degree_transient", "degree_den", "half_window")


def _known_keys(doc, what, keys):
    """A ConfigError naming the keys of doc not among the names in keys."""
    extra = sorted(set(doc) - set(keys.split()))
    if extra:
        raise ConfigError(f"{what} takes only {keys.split()}, not {extra}")


def _field(doc, key, convert, default, section=""):
    """doc[key] (or the default) passed through convert; a value that convert
    rejects is a ConfigError naming the field."""
    value = doc.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"scenario field {section + key!r} has an invalid "
                          f"value {value!r}") from None


def non_negative_int(value):
    """int(value), which must not be negative (a seed, for one)."""
    value = int(value)
    if value < 0:
        raise ValueError(value)
    return value


def _json_int(value):
    """value, which must be a JSON integer: not a bool, a float or a string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(value)
    return value


def _json_seed(value):
    """A JSON integer, which must not be negative."""
    return non_negative_int(_json_int(value))


def _json_float(value):
    """float(value) of a JSON number, which must not be a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    return float(value)


def _json_floats(value):
    """A JSON number, or a list of them, as a float array."""
    if isinstance(value, (list, tuple)):
        return np.array([_json_float(v) for v in value])
    return np.array(_json_float(value))


def _diagonal_only(value):
    if value != "diagonal":
        raise ValueError(value)


def _spec(section, build, *args, **kwargs):
    """build(*args, **kwargs); a validation error the constructor raises is a
    ConfigError naming the scenario section."""
    try:
        return build(*args, **kwargs)
    except (LocalFitError, LtiError, RateError, SimulationError) as e:
        raise ConfigError(f"scenario section {section!r} is invalid: "
                          f"{e}") from None


def _section(doc, key, keys):
    """doc[key], a JSON object of the given keys; absent means empty."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"scenario section {key!r} must be a JSON object, "
                          f"not {value!r}")
    _known_keys(value, f"scenario section {key!r}", keys)
    return value


def _system_from_doc(doc, ts, role):
    if doc is None:
        return None
    if isinstance(doc, dict) and "preset" in doc:
        name = doc["preset"]
        if role == "plant":
            _known_keys(doc, "plant preset reference", "preset")
            return _spec("plant", surrogate_plant, name, ts)
        if role == "controller":
            _known_keys(doc, "controller preset reference", "preset variant")
            if name != "benchmark":
                raise ConfigError(f"unknown controller preset {name!r}; "
                                  f"available: ['benchmark']")
            return _spec("controller", benchmark_controller, ts,
                         doc.get("variant", "q2"))
        raise ConfigError(f"no presets for role {role!r}")
    if isinstance(doc, dict):
        try:
            return system_from_dict(doc)
        except (LtiError, TypeError, ValueError) as e:
            raise ConfigError(f"{role} system document is invalid: {e}") from None
    raise ConfigError(f"{role} must be a system document or a preset reference")


def scenario_from_dict(doc):
    if not isinstance(doc, dict):
        raise ConfigError(f"scenario document must be a JSON object, "
                          f"not {doc!r}")
    if "preset" in doc and "plant" not in doc:
        _known_keys(doc, "scenario preset reference", "preset seed")
        return build_benchmark_scenario(
            doc["preset"], seed=_field(doc, "seed", _json_seed, 1234))
    _known_keys(doc, "scenario document", "format_version ts F plant controller"
                " filters noise excitation lrm periods ident_periods seed")
    try:
        ts = _field(doc, "ts", _json_float, FAST_SAMPLE_TIME)
        factor = _field(doc, "F", _json_int, BENCH_FACTOR)
        plant = _system_from_doc(doc["plant"], ts, "plant")
        controller = _system_from_doc(doc["controller"], ts * factor,
                                      "controller")
    except KeyError as e:
        raise ConfigError(f"scenario missing field {e}") from None
    filters = _system_from_doc(doc.get("filters"), ts, "filters")
    nd = _section(doc, "noise", "eh_std H el_std dh_std dh_channel")
    shaping = _system_from_doc(nd.get("H"), ts, "noise shaping")
    noise = _spec("noise", NoiseSpec,
                  eh_std=_field(nd, "eh_std", _json_float, 0.0, "noise."),
                  el_std=_field(nd, "el_std", _json_float, 0.0, "noise."),
                  dh_std=_field(nd, "dh_std", _json_float, 0.0, "noise."),
                  dh_channel=_field(nd, "dh_channel", _json_int, 1,
                                    "noise."),
                  shaping=shaping)
    loop = _spec("plant/controller/filters/noise/F", MultirateLoopSpec,
                 plant, controller, factor, input_filters=filters, noise=noise)
    if ("dh_channel" in nd or noise.dh_std > 0) and \
            not 0 <= noise.dh_channel < loop.n_inputs:
        raise ConfigError(f"scenario field 'noise.dh_channel' names input "
                          f"{noise.dh_channel} of a plant with "
                          f"{loop.n_inputs} inputs")
    ed = _section(doc, "excitation", "rms seed n_samples")
    seed = _field(doc, "seed", _json_seed, 1234)
    excitation = _spec(
        "excitation", MultisineSpec,
        n_channels=plant.n_inputs,
        n_samples=_field(ed, "n_samples", _json_int, BENCH_SAMPLES,
                         "excitation."),
        sample_time=ts,
        rms=_field(ed, "rms", _json_floats, BENCH_RMS[:plant.n_inputs],
                   "excitation."),
        seed=_field(ed, "seed", _json_seed, seed, "excitation."),
    )
    ld = _section(doc, "lrm", " ".join(_LRM_KEYS) + " denominator")
    _field(ld, "denominator", _diagonal_only, "diagonal", "lrm.")
    lrm = _spec("lrm", LocalModelConfig, **{
        key: _field(ld, key, _json_int, getattr(LocalModelConfig, key),
                    "lrm.")
        for key in _LRM_KEYS})
    periods = _field(doc, "periods", _json_int, 3)
    ident_periods = _field(doc, "ident_periods", _json_int, 2)
    return BenchmarkScenario(loop=loop, excitation=excitation, lrm=lrm,
                             periods=periods, ident_periods=ident_periods,
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
    return scenario_from_dict(doc)

