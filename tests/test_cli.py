"""Config resolution, table emission, determinism and the validate suite."""

import json

import numpy as np
import pytest

from dtcsim.cli import ConfigError, RunConfig, main, parse_config, run


def test_defaults_match_reference_parameters():
    config = parse_config(env={})
    assert config.n == 6
    assert config.j0_t_over_2pi == pytest.approx(0.2)
    assert config.alpha == pytest.approx(1.51)
    assert config.gamma_t == pytest.approx(0.02)
    assert config.epsilon == 0.0


def test_negative_gamma_names_offending_key():
    with pytest.raises(ConfigError, match="gamma_t"):
        parse_config(overrides={"gamma_t": -0.1}, env={})


@pytest.mark.parametrize("values", ["0,inf", "0,nan", ","], ids=["inf", "nan", "empty"])
def test_non_finite_disorder_strength_names_key(values, capsys):
    with pytest.raises(ConfigError, match="w_over_j0_values"):
        parse_config(overrides={"w_over_j0_values": values}, env={})
    argv = ["gap-sweep", "--n", "2", "--w-over-j0", values, "--realizations", "2"]
    assert main(argv) == 2
    assert "w_over_j0_values" in capsys.readouterr().err


_SWEEP_FLAGS = {"n": "--n", "w_over_j0_values": "--w-over-j0",
                "n_realizations": "--realizations"}


@pytest.mark.parametrize("source, key, value", [
    ("flag", "w_over_j0_values", "abc"),
    ("env", "n", "abc"),
    ("file", "n_realizations", "2"),
    ("file", "gamma_t", None),
])
def test_non_numeric_value_names_key(source, key, value, tmp_path, monkeypatch, capsys):
    values = {"n": "2", "w_over_j0_values": "0", "n_realizations": "1"}
    argv = ["gap-sweep", "--out", str(tmp_path)]
    if source == "flag":
        values[key] = value
    else:
        values.pop(key, None)  # the value must come from the environment or the file
    if source == "env":
        monkeypatch.setenv(f"DTCSIM_{key.upper()}", value)
    if source == "file":
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: value}))
        argv += ["--config", str(path)]
    for name, text in values.items():
        argv += [_SWEEP_FLAGS[name], text]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} ")


@pytest.mark.parametrize("flag, key", [("--base-seed", "base_seed"),
                                       ("--disorder-seed", "disorder_seed")])
def test_negative_seed_names_key(flag, key, tmp_path, capsys):
    argv = ["gap-sweep", "--n", "2", "--w-over-j0", "0,3", "--realizations", "2",
            "--w-t-over-2pi", "0.3", flag, "-1", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "gap_sweep.csv").exists()


def test_workers_key_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"workers": 2}))
    with pytest.raises(ConfigError, match="workers"):
        parse_config(str(path), env={})


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"gamma_tt": 0.02}))
    with pytest.raises(ConfigError, match="gamma_tt"):
        parse_config(str(path), env={})


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"gamma_t": 0.05, "n": 3}))
    config = parse_config(str(path), overrides={"gamma_t": 0.03}, env={})
    assert config.gamma_t == 0.03
    assert config.n == 3


def test_env_overrides_file_but_not_flags(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"gamma_t": 0.05}))
    env = {"DTCSIM_GAMMA_T": "0.04", "DTCSIM_ALPHA": "1.5"}
    config = parse_config(str(path), env=env)
    assert config.gamma_t == 0.04
    assert config.alpha == 1.5
    config = parse_config(str(path), overrides={"gamma_t": 0.01}, env=env)
    assert config.gamma_t == 0.01


def test_spin_config_conversion():
    spin = RunConfig().spin_config()
    assert spin.j0 == pytest.approx(0.2 * 2 * np.pi)
    assert spin.gamma == pytest.approx(0.02)
    assert spin.g == pytest.approx(np.pi)
    assert np.all(spin.disorder == 0.0)


def _read_table(path):
    with open(path) as fh:
        comment = fh.readline()
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return comment, header, data


def test_evolve_writes_table_and_manifest(tmp_path):
    config = RunConfig(experiment="evolve", n=3, initial_state="11+",
                       n_periods=6, out=str(tmp_path))
    assert run(config) == 0
    comment, header, data = _read_table(tmp_path / "evolve.csv")
    assert comment.startswith("# dtcsim-output-v1")
    assert header == ["n", "mz_0", "mz_1", "mz_2", "negativity", "purity", "excitations"]
    assert data.shape == (7, 7)
    assert data[0, 1] == pytest.approx(1.0)
    manifest = json.loads((tmp_path / "evolve_manifest.json").read_text())
    assert manifest["config"]["n"] == 3
    assert manifest["outputs"] == ["evolve.csv"]
    assert "wall_time_seconds" in manifest


def test_evolve_manifest_records_numerical_margins(tmp_path):
    from dtcsim.experiments import HERM_TOL, POSITIVITY_TOL, TRACE_TOL

    config = RunConfig(experiment="evolve", n=3, initial_state="1++",
                       n_periods=8, out=str(tmp_path))
    assert run(config) == 0
    numerics = json.loads((tmp_path / "evolve_manifest.json").read_text())["numerics"]
    assert numerics["tolerances"] == {"trace": TRACE_TOL, "hermiticity": HERM_TOL,
                                      "positivity": POSITIVITY_TOL}
    assert 0.0 <= numerics["trace_error"] <= TRACE_TOL
    assert 0.0 <= numerics["hermiticity_error"] <= HERM_TOL
    assert numerics["min_eigenvalue"] >= -POSITIVITY_TOL


def test_evolve_output_byte_identical_across_reruns(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        config = RunConfig(experiment="evolve", n=3, initial_state="1++",
                           n_periods=5, out=str(out))
        assert run(config) == 0
    assert (out_a / "evolve.csv").read_bytes() == (out_b / "evolve.csv").read_bytes()


def test_evolve_roundtrip_full_precision(tmp_path):
    config = RunConfig(experiment="evolve", n=2, initial_state="1+",
                       n_periods=4, out=str(tmp_path))
    assert run(config) == 0
    _, _, data = _read_table(tmp_path / "evolve.csv")
    from dtcsim import InitialStateSpec, build_initial_state, run_stroboscopic
    spin = config.spin_config()
    trace = run_stroboscopic(
        build_initial_state(InitialStateSpec(kind="pure_pattern", pattern="1+"), 2),
        spin, 4)
    # 17 significant digits means the parsed values are bit-exact
    assert np.array_equal(data[:, 1], trace.magnetization[:, 0])
    assert np.array_equal(data[:, 3], trace.negativity)


def test_spectrum_table(tmp_path):
    config = RunConfig(experiment="spectrum", n=2, out=str(tmp_path))
    assert run(config) == 0
    _, header, data = _read_table(tmp_path / "spectrum.csv")
    assert header == ["re_lambda", "im_lambda"]
    assert data.shape == (16, 2)
    assert data[:, 0].max() < 1e-10


def test_gap_sweep_table(tmp_path):
    config = RunConfig(experiment="gap-sweep", n=3,
                       w_over_j0_values=(0.0, 2.0), n_realizations=2,
                       out=str(tmp_path))
    assert run(config) == 0
    _, header, data = _read_table(tmp_path / "gap_sweep.csv")
    assert header == ["W_over_J0", "mean_gapT", "min_gapT", "max_gapT", "n_realizations"]
    assert data.shape == (2, 5)
    assert np.all(data[:, 2] <= data[:, 1]) and np.all(data[:, 1] <= data[:, 3])


def test_twosite_table(tmp_path):
    config = RunConfig(experiment="twosite", twosite_points=17, out=str(tmp_path))
    assert run(config) == 0
    _, header, data = _read_table(tmp_path / "twosite.csv")
    assert header == ["w_t2_over_2pi", "w_over_j0", "k_analytic", "k_numeric", "gapT"]
    assert data.shape == (17, 5)
    # analytic and numeric coupling columns agree where both are defined
    assert np.nanmax(np.abs(data[:, 2] - data[:, 3])) < 1e-8
    manifest = json.loads((tmp_path / "twosite_manifest.json").read_text())
    assert manifest["gamma_crossings_w_over_j0"][-1] == pytest.approx(29.0, abs=2.0)


def test_main_validate_subcommand_passes(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_main_rejects_bad_flag_value(tmp_path):
    assert main(["evolve", "--gamma-t", "-0.5", "--out", str(tmp_path)]) == 2


def test_run_unknown_experiment():
    assert run(RunConfig(experiment="frobnicate")) == 1


def test_text_keys_keep_raw_environment_text(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DTCSIM_INITIAL_STATE", "111")
    monkeypatch.setenv("DTCSIM_OUT", "123")
    config = parse_config()
    assert config.initial_state == "111" and config.out == "123"
    monkeypatch.delenv("DTCSIM_OUT")
    assert main(["evolve", "--n", "3", "--n-periods", "2", "--out", "123"]) == 0
    monkeypatch.delenv("DTCSIM_INITIAL_STATE")
    assert main(["evolve", "--n", "3", "--n-periods", "2", "--initial-state", "111",
                 "--out", "flag"]) == 0
    assert (tmp_path / "123" / "evolve.csv").read_bytes() == \
        (tmp_path / "flag" / "evolve.csv").read_bytes()


def test_spectrum_refuses_underflowed_multipliers(tmp_path, capsys):
    assert main(["spectrum", "--n", "2", "--gamma-t", "5000", "--out", str(tmp_path)]) == 1
    assert "multipliers underflowed to 0" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.csv").exists()
