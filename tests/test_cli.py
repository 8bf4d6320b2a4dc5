import json

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


def test_simulate_outputs(sim_dir):
    for name in ("r_h", "u_h", "y_h", "y_l"):
        assert (sim_dir / f"{name}.csv").exists()
    meta = json.loads((sim_dir / "run_meta.json").read_text())
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
             "controller preset 'anything'")):
        path = tmp_path / "scenario.json"
        mio.write_json(path, doc)
        rc = main(["generate", "--scenario", str(path),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert name in capsys.readouterr().err


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
    assert "recovery-roundtrip" in failing
    assert "delay-pin" in failing


def test_validate_unknown_mutation(tmp_path):
    assert main(["validate", "--out", str(tmp_path / "v"),
                 "--mutate", "nonsense"]) == 2
