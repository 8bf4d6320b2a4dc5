import json

import numpy as np
import pytest

from mrfrf import io as mio
from mrfrf.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("scen") / "scenario.json"
    mio.write_json(path, {"preset": "default", "seed": 1234})
    return str(path)


def test_generate_writes_excitation(scenario_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["generate", "--scenario", scenario_path,
                 "--out", str(out)]) == 0
    lines = (out / "r_h.csv").read_text().splitlines()
    assert lines[1] == "ch0,ch1"
    assert len(lines) == 2 + 3600
    assert "seed=1234" in capsys.readouterr().out


def test_generate_deterministic_bytes(scenario_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["generate", "--scenario", scenario_path, "--out", str(a)])
    main(["generate", "--scenario", scenario_path, "--out", str(b)])
    assert (a / "r_h.csv").read_bytes() == (b / "r_h.csv").read_bytes()


def test_missing_scenario_exit_code_2(tmp_path):
    rc = main(["generate", "--scenario", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_usage_error_exit_code_2():
    assert main(["generate"]) == 2
    assert main(["frobnicate", "--out", "x"]) == 2


@pytest.fixture(scope="module")
def sim_dir(scenario_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--scenario", scenario_path,
                 "--out", str(out)]) == 0
    return out


def test_simulate_outputs(scenario_path, tmp_path):
    # the records identify reads and run_meta.json, nothing else: no y_h.csv,
    # and r_h.csv is generate's one excitation period, byte for byte
    sim, gen = tmp_path / "sim", tmp_path / "gen"
    for command, out in (("simulate", sim), ("generate", gen)):
        assert main([command, "--scenario", scenario_path,
                     "--out", str(out)]) == 0
    assert sorted(p.name for p in sim.iterdir()) == [
        "r_h.csv", "run_meta.json", "u_h.csv", "y_l.csv"]
    assert (sim / "r_h.csv").read_bytes() == (gen / "r_h.csv").read_bytes()
    meta = json.loads((sim / "run_meta.json").read_text())
    assert meta["seed"] == 1234
    assert meta["factor"] == 2


def test_identify_end_to_end(scenario_path, sim_dir, capsys):
    rc = main(["identify", "--scenario", scenario_path,
               "--data", str(sim_dir), "--out", str(sim_dir)])
    assert rc == 0
    for name in ("frf_y0_u0.csv", "frf_y0_u1.csv", "diagnostics.json"):
        assert (sim_dir / name).exists()
    rows = (sim_dir / "frf_y0_u0.csv").read_text().splitlines()
    assert rows[1] == "k,freq_hz,re,im,flag"
    assert len(rows) == 2 + 3600
    out = capsys.readouterr().out
    assert "residual p95" in out


def test_diagnostics_carry_the_thresholds_they_apply(scenario_path, sim_dir):
    from mrfrf.ident import SENS_CONDITION_LIMIT
    from mrfrf.lrm import LocalModelConfig

    assert main(["identify", "--scenario", scenario_path,
                 "--data", str(sim_dir), "--out", str(sim_dir)]) == 0
    d = json.loads((sim_dir / "diagnostics.json").read_text())
    assert d["condition_threshold"] == LocalModelConfig().condition_threshold
    assert d["sens_condition_limit"] == SENS_CONDITION_LIMIT
    fallback, failed = set(d["fallback_bins"]), set(d["failed_bins"])
    for k in range(d["n_slow_bins"]):
        # a fit above the trigger falls back; a bin is withheld exactly
        # when its sensitivity condition is above the limit (a failed fit
        # leaves the condition infinite)
        if d["fit_condition"][k] > d["condition_threshold"]:
            assert k in fallback or k in failed
        assert (d["sens_condition"][k] > d["sens_condition_limit"]) \
            == (k in failed)


def test_report_after_identify(scenario_path, sim_dir, capsys):
    rc = main(["report", "--scenario", scenario_path, "--out", str(sim_dir)])
    assert rc == 0
    doc = json.loads((sim_dir / "error_report.json").read_text())
    assert float(doc["percentiles"]["95"]) < 1e-2
    assert "p95 relative error" in capsys.readouterr().out


@pytest.mark.parametrize("field,value", [(2, "nan"), (4, "7"), (0, "5")])
def test_report_rejects_malformed_frf_row(scenario_path, sim_dir, tmp_path,
                                          capsys, field, value):
    import shutil

    if not (sim_dir / "frf_y0_u0.csv").exists():
        assert main(["identify", "--scenario", scenario_path,
                     "--out", str(sim_dir)]) == 0
    broken = tmp_path / "broken"
    shutil.copytree(sim_dir, broken)
    path = broken / "frf_y0_u0.csv"
    lines = path.read_text().splitlines()
    parts = lines[100].split(",")  # an unflagged bin, file row 101
    assert parts[4] == "0"
    parts[field] = value
    lines[100] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    rc = main(["report", "--scenario", scenario_path, "--out", str(broken)])
    assert rc == 3
    assert "row 101" in capsys.readouterr().err


def test_report_rejects_frf_of_another_sample_time(scenario_path, sim_dir,
                                                   tmp_path, capsys):
    # the FRF files' bins are those of the default scenario's ts; reported
    # under another ts, bin 1 is the first whose freq_hz differs
    from mrfrf.bench import build_benchmark_scenario
    from mrfrf.loopsim import FAST_SAMPLE_TIME

    if not (sim_dir / "frf_y0_u0.csv").exists():
        assert main(["identify", "--scenario", scenario_path,
                     "--out", str(sim_dir)]) == 0
    doc = mio.scenario_to_dict(build_benchmark_scenario("default"))
    doc.update(ts=1.5 * FAST_SAMPLE_TIME, plant={"preset": "hdd-dual-stage"},
               controller={"preset": "benchmark", "variant": "q2"})
    path = tmp_path / "other-ts.json"
    mio.write_json(path, doc)
    rc = main(["report", "--scenario", str(path), "--out", str(sim_dir)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "frf_y0_u0.csv: row 4 has freq_hz " in err


def test_identify_rejects_corrupt_csv(scenario_path, sim_dir, tmp_path, capsys):
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(sim_dir, broken)
    path = broken / "u_h.csv"
    lines = path.read_text().splitlines()
    lines[100] = "oops,oops"  # 0-indexed position 100 is file row 101
    path.write_text("\n".join(lines) + "\n")
    rc = main(["identify", "--scenario", scenario_path,
               "--data", str(broken), "--out", str(broken)])
    assert rc == 3
    assert "row 101" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_identify_rejects_non_finite_sample(scenario_path, sim_dir, tmp_path,
                                            capsys, value):
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(sim_dir, broken)
    path = broken / "u_h.csv"
    lines = path.read_text().splitlines()
    lines[9000] = f"{value},0.0"  # inside the identified periods, file row 9001
    path.write_text("\n".join(lines) + "\n")
    rc = main(["identify", "--scenario", scenario_path,
               "--data", str(broken), "--out", str(broken)])
    assert rc == 3
    assert "row 9001 is not finite" in capsys.readouterr().err


def test_identify_rejects_record_not_whole_periods(scenario_path, sim_dir,
                                                  tmp_path, capsys):
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(sim_dir, broken)
    path = broken / "u_h.csv"
    lines = path.read_text().splitlines()
    n_samples = len(lines) - 3  # version line, header, last row dropped
    path.write_text("\n".join(lines[:-1]) + "\n")
    periods = json.loads((broken / "run_meta.json").read_text())["periods"]
    rc = main(["identify", "--scenario", scenario_path,
               "--data", str(broken), "--out", str(broken)])
    assert rc == 3
    err = capsys.readouterr().err
    assert str(path) in err
    assert f"{n_samples} samples" in err
    assert f"n_periods={periods}" in err


@pytest.mark.parametrize("meta", [True, False])
def test_identify_rejects_records_of_other_periods(sim_dir, tmp_path, capsys,
                                                   meta):
    # simulated with periods 3, identified with 4: run_meta.json names the
    # mismatch; without it, the records' sample counts do
    import shutil

    from mrfrf.bench import build_benchmark_scenario

    data = tmp_path / "data"
    shutil.copytree(sim_dir, data)
    if not meta:
        (data / "run_meta.json").unlink()
    scenario = tmp_path / "periods4.json"
    base = mio.scenario_to_dict(build_benchmark_scenario("default"))
    mio.write_json(scenario, {**base, "periods": 4})
    rc = main(["identify", "--scenario", str(scenario),
               "--data", str(data), "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    if meta:
        assert f"{data / 'run_meta.json'}: periods is 3, the scenario has 4" \
            in err
    else:
        assert f"{data / 'u_h.csv'}: samples is 10800, the scenario has " \
            f"14400" in err
    assert not (tmp_path / "out" / "diagnostics.json").exists()


def test_identify_rejects_a_multi_period_excitation(scenario_path, sim_dir,
                                                    tmp_path, capsys):
    # the layout before r_h.csv held one period: simulate wrote all 3 periods
    import shutil

    from mrfrf.multirate import SignalRecord

    data = tmp_path / "data"
    shutil.copytree(sim_dir, data)
    one = mio.read_signal_csv(data / "r_h.csv", 1e-5)
    mio.write_signal_csv(data / "r_h.csv",
                         SignalRecord(np.tile(one.data, 3), 1e-5, n_periods=3))
    rc = main(["identify", "--scenario", scenario_path,
               "--data", str(data), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert f"{data / 'r_h.csv'}: samples is 10800, the scenario has 3600" \
        in capsys.readouterr().err
    assert not (tmp_path / "out" / "diagnostics.json").exists()


@pytest.mark.parametrize("field,value", [("factor", 3),
                                         ("fast_sample_time", 1.0001e-5)])
def test_identify_rejects_run_meta_of_another_loop(scenario_path, sim_dir,
                                                   tmp_path, capsys, field,
                                                   value):
    import shutil

    data = tmp_path / "data"
    shutil.copytree(sim_dir, data)
    meta = json.loads((data / "run_meta.json").read_text())
    want = meta[field]
    meta[field] = value
    mio.write_json(data / "run_meta.json", meta)
    rc = main(["identify", "--scenario", scenario_path,
               "--data", str(data), "--out", str(data)])
    assert rc == 3
    assert f"{field} is {value!r}, the scenario has {want!r}" \
        in capsys.readouterr().err


def test_bad_scenario_field_is_config_error(tmp_path, capsys):
    from mrfrf.bench import build_benchmark_scenario

    base = mio.scenario_to_dict(build_benchmark_scenario("default"))
    for doc, name in (
            ({**base, "F": "two"}, "'F'"),
            ({**base, "excitation": {**base["excitation"], "scheme": "banana"}},
             "'excitation'"),
            ([1, 2], "scenario document"),
            ({**base, "plant": {"preset": "nope"}}, "plant preset 'nope'"),
            ({**base, "controller": {"preset": "anything"}},
             "controller preset 'anything'"),
            ({"preset": "default", "noise": 5, "periodz": 3},
             "['noise', 'periodz']"),
            ({**base, "seed": -1}, "field 'seed'"),
            ({"preset": "default", "seed": -1}, "field 'seed'"),
            ({**base, "excitation": {**base["excitation"], "seed": -1}},
             "excitation.seed"),
            ({**base, "excitation": {**base["excitation"], "n_samples": 0}},
             "n_samples"),
            ({**base, "excitation": {**base["excitation"], "n_samples": -4}},
             "n_samples"),
            ({**base, "excitation": {**base["excitation"],
                                     "rms": [-3.6e-9, 8e-8]}}, "rms"),
            ({**base, "noise": {**base["noise"], "eh_sdt": 1e-9}},
             "['eh_sdt']"),
            ({**base, "periodz": 3}, "['periodz']"),
            ({**base, "noise": {**base["noise"], "eh_std": -1e-9}}, "eh_std"),
            ({**base, "noise": {**base["noise"], "eh_std": float("nan")}},
             "eh_std"),
            ({**base, "noise": {**base["noise"], "el_std": -1.0}}, "el_std"),
            ({**base, "noise": {**base["noise"], "dh_std": -1.0}}, "dh_std"),
            ({**base, "plant": {**base["plant"], "den": [[2.0], [1.0]]}},
             "plant system document")):
        path = tmp_path / "scenario.json"
        mio.write_json(path, doc)
        rc = main(["generate", "--scenario", str(path),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert name in capsys.readouterr().err
    # argparse rejects a negative seed override on every command
    mio.write_json(path, base)
    for command in ("generate", "simulate", "identify", "validate", "report"):
        rc = main([command, "--scenario", str(path), "--out", str(tmp_path),
                   "--seed", "-3"])
        assert rc == 2
        assert "argument --seed" in capsys.readouterr().err


def test_infeasible_local_model_exit_code_2_before_simulating(tmp_path,
                                                             capsys):
    from mrfrf.bench import build_benchmark_scenario

    doc = mio.scenario_to_dict(build_benchmark_scenario("default"))
    doc["excitation"]["n_samples"] = 240
    doc["lrm"] = {"degree_num": 0, "degree_transient": 0, "degree_den": 0,
                  "half_window": 100}
    path = tmp_path / "scenario.json"
    mio.write_json(path, doc)
    for command in ("simulate", "identify"):
        out = tmp_path / command
        rc = main([command, "--scenario", str(path), "--out", str(out)])
        assert rc == 2
        assert "lrm.half_window" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("dh_std", [0.0, 1e-9])
def test_disturbance_channel_out_of_range_exit_code_2(tmp_path, capsys,
                                                      dh_std):
    from mrfrf.bench import build_benchmark_scenario

    doc = mio.scenario_to_dict(build_benchmark_scenario("default"))
    doc["noise"].update(dh_std=dh_std, dh_channel=7)
    path = tmp_path / "scenario.json"
    mio.write_json(path, doc)
    rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "noise.dh_channel" in capsys.readouterr().err


@pytest.mark.parametrize("gain, ts, message", [
    # two outputs for the one-output plant
    ([[1.0], [1.0]], None, "noise shaping must be square in the plant outputs"),
    (1.0, 1e-3, "noise shaping must run at the fast rate"),
], ids=["shape", "rate"])
def test_noise_shaping_of_another_shape_or_rate_exit_code_2(
        tmp_path, capsys, gain, ts, message):
    from mrfrf.bench import build_benchmark_scenario
    from mrfrf.lti import RationalTF, system_to_dict

    doc = mio.scenario_to_dict(build_benchmark_scenario("default"))
    H = RationalTF.static_gain(gain, ts or doc["ts"])
    doc["noise"].update(eh_std=1e-9, H=system_to_dict(H))
    path = tmp_path / "scenario.json"
    mio.write_json(path, doc)
    rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: scenario section" in err and "noise" in err
    assert message in err


def _system(num, den, ts, shape):
    return {"num": num, "den": den, "ts": ts, "shape": shape}


_TS = 1.0 / 100800.0
_UNSTABLE = {
    # 1/(z - 0.5) on both inputs under a static 0.5 on both: each factor is
    # stable, the lifted closed-loop step has spectral radius 1.25
    "loop": ({"plant": _system([[0.0, 1.0], [0.0, 1.0]],
                               [[1.0, -0.5], [1.0, -0.5]], _TS, [1, 2]),
              "controller": _system([[0.5], [0.5]], [[1.0], [1.0]], 2 * _TS,
                                    [2, 1]),
              "periods": 2, "excitation": {"n_samples": 600}},
             "closed loop is unstable: spectral radius 1.250000"),
    "plant": ({"plant": _system([[1.0]], [[1.0, -1.2]], _TS, [1, 1]),
               "controller": _system([[0.1]], [[1.0]], 2 * _TS, [1, 1])},
              "plant is not strictly stable (pole radius 1.2"),
    "H": ({"plant": {"preset": "hdd-dual-stage"},
           "controller": {"preset": "benchmark"},
           "noise": {"eh_std": 1e-9,
                     "H": _system([[1.0]], [[1.0, -1.5]], _TS, [1, 1])}},
          "noise shaping is not strictly stable (pole radius 1.5"),
}


@pytest.mark.parametrize("case", sorted(_UNSTABLE))
def test_unstable_scenario_exit_code_2_at_generate(tmp_path, capsys, case):
    # an unstable loop, plant or noise shaping is a fault of the scenario,
    # found when it is loaded, before anything is written or simulated
    doc, message = _UNSTABLE[case]
    path = tmp_path / "scenario.json"
    mio.write_json(path, doc)
    out = tmp_path / "out"
    rc = main(["generate", "--scenario", str(path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: scenario section" in err and message in err
    assert not out.exists()


def test_program_error_propagates(scenario_path, sim_dir, tmp_path,
                                  monkeypatch):
    from mrfrf import cli

    def broken(*args, **kwargs):
        raise ValueError("bug inside identify")

    monkeypatch.setattr(cli, "identify", broken)
    with pytest.raises(ValueError, match="bug inside identify"):
        main(["identify", "--scenario", scenario_path,
              "--data", str(sim_dir), "--out", str(tmp_path)])


def test_validate_passes_and_writes_json(tmp_path, capsys):
    out = tmp_path / "val"
    rc = main(["validate", "--out", str(out), "--seed", "0"])
    assert rc == 0
    doc = json.loads((out / "validate.json").read_text())
    assert doc["all_passed"] is True
    assert "all suites passed" in capsys.readouterr().out


def test_validate_passes_where_the_first_plant_destabilizes_the_loop():
    from mrfrf.validate import run_suites

    # at this seed the simulator-oracle suite's first random plant makes
    # the closed loop unstable, so its steady-state oracle cannot hold
    assert run_suites(seed=1_000_050)["all_passed"]


def test_validate_mutation_fails(tmp_path, capsys):
    out = tmp_path / "val"
    rc = main(["validate", "--out", str(out), "--seed", "0",
               "--mutate", "recovery-sign-flip"])
    assert rc == 1
    doc = json.loads((out / "validate.json").read_text())
    failing = [s["name"] for s in doc["suites"] if not s["passed"]]
    assert failing == ["delay-pin", "recovery-roundtrip"]


def test_validate_unknown_mutation(tmp_path):
    assert main(["validate", "--out", str(tmp_path / "v"),
                 "--mutate", "nonsense"]) == 2
