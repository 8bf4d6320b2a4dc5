import numpy as np
import pytest

from mrfrf import io as mio
from mrfrf.bench import build_benchmark_scenario
from mrfrf.errors import DataFormatError
from mrfrf.lrm import LocalModelConfig
from mrfrf.lti import FrfMatrix, dft_grid
from mrfrf.multirate import SignalRecord


def test_signal_csv_roundtrip_and_determinism(tmp_path):
    rng = np.random.default_rng(0)
    rec = SignalRecord(rng.standard_normal((2, 30)), 1e-4)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    mio.write_signal_csv(p1, rec)
    mio.write_signal_csv(p2, rec)
    assert p1.read_bytes() == p2.read_bytes()
    first = p1.read_text().splitlines()
    assert first[0].startswith("# format_version=")
    assert first[1] == "ch0,ch1"
    back = mio.read_signal_csv(p1, 1e-4)
    assert np.array_equal(back.data, rec.data)


def test_signal_csv_corrupt_row_reports_row_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# format_version=1\nch0\n1.0\nnot-a-number\n2.0\n")
    with pytest.raises(DataFormatError) as exc:
        mio.read_signal_csv(path, 1e-4)
    assert exc.value.row == 4
    assert "row 4" in str(exc.value)


def test_signal_csv_field_count_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("ch0,ch1\n1.0,2.0\n3.0\n")
    with pytest.raises(DataFormatError) as exc:
        mio.read_signal_csv(path, 1e-4)
    assert exc.value.row == 3


def test_signal_csv_non_finite_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# format_version=1\nch0,ch1\n1.0,2.0\n3.0,-inf\nnan,4.0\n")
    with pytest.raises(DataFormatError) as exc:
        mio.read_signal_csv(path, 1e-4)
    assert exc.value.row == 4
    assert "row 4 is not finite" in str(exc.value)


def test_frf_entry_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    n = 12
    vals = rng.standard_normal((n, 1, 1)) + 1j * rng.standard_normal((n, 1, 1))
    flags = np.zeros(n, dtype=bool)
    flags[5] = True
    vals[5] = np.nan
    frf = FrfMatrix(vals, dft_grid(n, 1e-4), 1e-4)
    path = tmp_path / "frf.csv"
    mio.write_frf_entry_csv(path, frf, 0, 0, flags=flags)
    ks, v, fl = mio.read_frf_entry_csv(path)
    assert np.array_equal(ks, np.arange(n))
    assert fl[5] and fl.sum() == 1
    keep = ~fl
    assert np.abs(v[keep] - vals[keep, 0, 0]).max() == 0.0


@pytest.mark.parametrize("field,value,message", [
    (2, "nan", "not finite on an unflagged bin"),
    (3, "-inf", "not finite on an unflagged bin"),
    (4, "7", "flag 7, expected 0 or 1"),
    (0, "5", "k=5, expected 3"),
    (1, "fast", "not numeric"),
])
def test_frf_entry_csv_malformed_row_names_it(tmp_path, field, value,
                                              message):
    frf = FrfMatrix(np.ones((6, 1, 1), dtype=complex), dft_grid(6, 1e-4),
                    1e-4)
    path = tmp_path / "frf.csv"
    mio.write_frf_entry_csv(path, frf, 0, 0)
    lines = path.read_text().splitlines()
    parts = lines[5].split(",")   # k = 3, file row 6
    parts[field] = value
    lines[5] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=message) as exc:
        mio.read_frf_entry_csv(path)
    assert exc.value.row == 6
    assert "row 6" in str(exc.value)


def test_frf_entry_csv_flagged_row_may_be_non_finite(tmp_path):
    path = tmp_path / "frf.csv"
    path.write_text("# format_version=1\nk,freq_hz,re,im,flag\n"
                    "0,0.0,1.0,2.0,0\n1,10.0,nan,nan,1\n")
    ks, v, fl = mio.read_frf_entry_csv(path)
    assert list(ks) == [0, 1] and list(fl) == [False, True]
    assert v[0] == 1 + 2j and np.isnan(v[1])


def test_scenario_roundtrip(tmp_path):
    sc = build_benchmark_scenario("noisy", seed=9)
    path = tmp_path / "scenario.json"
    mio.write_json(path, mio.scenario_to_dict(sc))
    back = mio.load_scenario(path)
    assert back.loop.factor == sc.loop.factor
    assert back.excitation.rms == sc.excitation.rms
    assert back.excitation.seed == sc.excitation.seed
    assert back.lrm == sc.lrm
    assert back.loop.noise.eh_std == sc.loop.noise.eh_std
    a = sc.loop.plant
    b = back.loop.plant
    for i in range(a.n_outputs):
        for j in range(a.n_inputs):
            assert np.array_equal(a.num[i][j], b.num[i][j])
            assert np.array_equal(a.den[i][j], b.den[i][j])


@pytest.mark.parametrize("section,key,value,name", [
    ("noise", "eh_std", "loud", "noise.eh_std"),
    ("lrm", "half_window", [30], "lrm.half_window"),
    ("excitation", "rms", ["x", 1.0], "excitation.rms"),
    ("excitation", "scheme", "banana", "section 'excitation'"),
    ("lrm", "half_window", 0, "section 'lrm'"),
    ("lrm", "denominator", "full", "lrm[.]denominator"),
    ("lrm", "denominator", "banana", "lrm[.]denominator"),
    # the one excitation takes no options
    ("excitation", "excite_dc", False,
     r"section 'excitation' takes only \['rms', 'seed', 'n_samples'\], "
     r"not \['excite_dc'\]"),
    ("excitation", "scheme", "random",
     r"section 'excitation' .*, not \['scheme'\]"),
    # a key of None replaces the whole section, a section of None the document
    (None, None, [1, 2], "scenario document must be a JSON object"),
    ("noise", None, 5, "section 'noise' must be a JSON object"),
    ("excitation", None, [3600], "section 'excitation' must be a JSON object"),
    ("lrm", None, "x", "section 'lrm' must be a JSON object"),
    ("plant", None, {"preset": "nope"}, "section 'plant'.*preset 'nope'"),
    ("controller", None, {"preset": "benchmark", "variant": "bogus"},
     "section 'controller'.*'q2' or 'literal'"),
    ("controller", None, {"preset": "anything"},
     "unknown controller preset 'anything'"),
    (None, None, {"preset": "default", "noise": 5, "periodz": 3},
     r"preset reference .*\['noise', 'periodz'\]"),
    ("seed", None, -1, "field 'seed'"),
    (None, None, {"preset": "default", "seed": -1}, "field 'seed'"),
    ("excitation", "seed", -1, "excitation.seed"),
    ("excitation", "n_samples", 0, "section 'excitation'.*n_samples"),
    ("excitation", "n_samples", -4, "section 'excitation'.*n_samples"),
    ("excitation", "rms", [-3.6e-9, 8e-8], "section 'excitation'.*rms"),
    ("noise", "eh_std", -1e-9, "section 'noise'.*eh_std"),
    ("noise", "eh_std", float("nan"), "section 'noise'.*eh_std"),
    ("noise", "el_std", -1.0, "section 'noise'.*el_std"),
    ("noise", "dh_std", float("inf"), "section 'noise'.*dh_std"),
    ("plant", "den", [[2.0], [1.0]], "plant system document.*exactly 1"),
    # an unknown key, wherever it is, is named
    ("noise", "eh_sdt", 1e-9, r"^scenario section 'noise' takes only "
                              r"\['eh_std', .*\], not \['eh_sdt'\]$"),
    ("lrm", "condition_threshold", 1.0,
     r"section 'lrm' .*, not \['condition_threshold'\]"),
    ("lrm", "halfwindow", 20, r"section 'lrm' .*, not \['halfwindow'\]"),
    ("excitation", "n_sample", 1800,
     r"section 'excitation' .*, not \['n_sample'\]"),
    ("periodz", None, 3, r"^scenario document .*, not \['periodz'\]$"),
    ("plant", None, {"preset": "hdd-dual-stage", "noise": 1},
     r"^plant preset reference takes only \['preset'\], not \['noise'\]$"),
    ("controller", None, {"preset": "benchmark", "variant": "q2", "gain": 2},
     r"^controller preset reference .*, not \['gain'\]$"),
    # integer fields take only JSON integers, number fields only numbers
    ("periods", None, 2.9, "^scenario field 'periods' has an invalid value "
                           "2.9$"),
    ("seed", None, 3.9, "field 'seed' .* 3.9"),
    ("seed", None, "7", "field 'seed' .* '7'"),
    (None, None, {"preset": "default", "seed": 7.0}, "field 'seed' .* 7.0"),
    ("ident_periods", None, True, "field 'ident_periods' .* True"),
    ("periods", None, "3", "field 'periods' .* '3'"),
    ("F", None, 2.5, "field 'F' .* 2.5"),
    ("excitation", "n_samples", 3600.7, "field 'excitation.n_samples'"),
    ("excitation", "seed", True, "field 'excitation.seed'"),
    ("noise", "dh_channel", 1.0, "field 'noise.dh_channel'"),
    ("lrm", "half_window", 2.5, "field 'lrm.half_window' .* 2.5"),
    ("lrm", "half_window", True, "field 'lrm.half_window' .* True"),
    ("lrm", "degree_num", "3", "field 'lrm.degree_num'"),
    ("ts", None, "9.9e-06", "field 'ts'"),
    ("noise", "eh_std", True, "field 'noise.eh_std'"),
    ("noise", "el_std", "0", "field 'noise.el_std'"),
    ("excitation", "rms", ["3.6e-9", 8e-8], "field 'excitation.rms'"),
    ("excitation", "rms", [True, 8e-8], "field 'excitation.rms'"),
])
def test_scenario_bad_field_names_it(section, key, value, name):
    from mrfrf.errors import ConfigError

    doc = mio.scenario_to_dict(build_benchmark_scenario("default"))
    if section is None:
        doc = value
    elif key is None:
        doc[section] = value
    else:
        doc[section][key] = value
    with pytest.raises(ConfigError, match=name):
        mio.scenario_from_dict(doc)


@pytest.mark.parametrize("dh_std", [0.0, 1e-9])
@pytest.mark.parametrize("channel", [7, -1])
def test_scenario_disturbance_channel_checked_at_load(dh_std, channel):
    from mrfrf.errors import ConfigError

    doc = mio.scenario_to_dict(build_benchmark_scenario("default"))
    doc["noise"].update(dh_std=dh_std, dh_channel=channel)
    with pytest.raises(ConfigError, match="noise.dh_channel"):
        mio.scenario_from_dict(doc)
    doc["noise"]["dh_channel"] = 0
    assert mio.scenario_from_dict(doc).loop.noise.dh_channel == 0


def test_scenario_roundtrip_single_input_plant():
    from dataclasses import replace

    from mrfrf.loopsim import MultirateLoopSpec, surrogate_plant
    from mrfrf.lti import RationalTF

    sc = build_benchmark_scenario("default")
    ts = sc.loop.plant.sample_time
    loop = MultirateLoopSpec(surrogate_plant("vcm-like", ts),
                             RationalTF.siso([0.01, 0.0], [1.0, -0.5], 2 * ts),
                             2)
    sc = replace(sc, loop=loop,
                 excitation=replace(sc.excitation, n_channels=1, rms=(1.0,)))
    back = mio.scenario_from_dict(mio.scenario_to_dict(sc))
    assert back.loop.noise == sc.loop.noise


@pytest.mark.parametrize("lrm,n_samples,reason", [
    # a window wider than the slow grid of 120 bins
    ({"degree_num": 0, "degree_transient": 0, "degree_den": 0,
      "half_window": 100}, 240, "wider than the slow grid of M=120"),
    # 115 parameters against 15 data points per window
    ({"half_window": 1}, 3600, "115 parameters against 15 data points"),
])
def test_scenario_infeasible_local_model_names_half_window(lrm, n_samples,
                                                           reason):
    from mrfrf.errors import ConfigError

    doc = mio.scenario_to_dict(build_benchmark_scenario("default"))
    doc["lrm"] = lrm
    doc["excitation"]["n_samples"] = n_samples
    with pytest.raises(ConfigError, match=f"'lrm.half_window'.*{reason}"):
        mio.scenario_from_dict(doc)


def test_scenario_lrm_defaults_and_diagonal_denominator():
    doc = mio.scenario_to_dict(build_benchmark_scenario("default"))
    doc["lrm"] = {"denominator": "diagonal", "half_window": 20}
    lrm = mio.scenario_from_dict(doc).lrm
    assert lrm == LocalModelConfig(half_window=20)


def test_scenario_bad_system_document():
    from mrfrf.errors import ConfigError

    doc = mio.scenario_to_dict(build_benchmark_scenario("default"))
    doc["plant"]["num"][0] = ["a"]
    with pytest.raises(ConfigError, match="plant system document"):
        mio.scenario_from_dict(doc)


def test_scenario_preset_reference(tmp_path):
    path = tmp_path / "scenario.json"
    mio.write_json(path, {"preset": "default", "seed": 4321})
    sc = mio.load_scenario(path)
    assert sc.seed == 4321
    assert sc.excitation.n_samples == 3600


def test_missing_scenario_raises_config_error(tmp_path):
    from mrfrf.errors import ConfigError

    with pytest.raises(ConfigError, match="not found"):
        mio.load_scenario(tmp_path / "nope.json")

