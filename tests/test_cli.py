"""Config resolution, table emission, determinism and the validate suite."""

import argparse
import json
from dataclasses import fields

import numpy as np
import pytest

from dtcsim import floquet
from dtcsim.cli import (
    ConfigError,
    RunConfig,
    _parser,
    main,
    parse_config,
    run,
    run_validation_suite,
)


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


@pytest.mark.parametrize("state", ["11", "11a+++", "seed:x", "seed:9"])
def test_malformed_initial_state_names_key(state, tmp_path, capsys):
    with pytest.raises(ConfigError, match="initial_state"):
        parse_config(overrides={"n": 6, "initial_state": state}, env={})
    argv = ["evolve", "--n", "6", "--initial-state", state, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: initial_state = {state!r} ")
    assert list(tmp_path.iterdir()) == []


# base_seed seeds the realizations of a sweep, disorder_seed the disorder of one network
_SEEDED_RUNS = {"base_seed": ["gap-sweep", "--w-over-j0", "0,3", "--realizations", "2"],
                "disorder_seed": ["spectrum", "--w-t-over-2pi", "0.3"]}


@pytest.mark.parametrize("flag, key", [("--base-seed", "base_seed"),
                                       ("--disorder-seed", "disorder_seed")])
def test_negative_seed_names_key(flag, key, tmp_path, capsys):
    argv = _SEEDED_RUNS[key] + ["--n", "2", flag, "-1", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert key in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    assert numerics["settling_period"] is None  # 8 periods cannot hold 10 quiet steps


def test_evolve_manifest_records_settling_period_at_defaults(tmp_path):
    assert main(["evolve", "--out", str(tmp_path)]) == 0
    numerics = json.loads((tmp_path / "evolve_manifest.json").read_text())["numerics"]
    assert numerics["settling_period"] == 98
    assert numerics["hermiticity_error"] == 0.0  # every stepped state is exactly Hermitian
    # 111+++ reaches 31 of the 49 sector pairs, from 10 exponentiated blocks
    assert (numerics["sector_pairs_stepped"], numerics["sector_pairs"],
            numerics["blocks_exponentiated"]) == (31, 49, 10)


@pytest.mark.parametrize("flags, counts", [
    (["--initial-state", "1++"], (14, 16, 5)),  # all but (0, 3) and (3, 0)
    (["--initial-state", "+++"], (16, 16, 6)),
    (["--initial-state", "1++", "--epsilon", "0.05"], (16, 16, 6)),
    (["--initial-state", "1++", "--w-t-over-2pi", "0.4"], (14, 16, 9)),
], ids=["partial", "full", "imperfect_kick", "disordered"])
def test_evolve_manifest_records_the_sector_pairs_stepped(tmp_path, flags, counts):
    argv = ["evolve", "--n", "3", "--n-periods", "4", *flags, "--out", str(tmp_path)]
    assert main(argv) == 0
    numerics = json.loads((tmp_path / "evolve_manifest.json").read_text())["numerics"]
    assert (numerics["sector_pairs_stepped"], numerics["sector_pairs"],
            numerics["blocks_exponentiated"]) == counts


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


@pytest.mark.parametrize("epsilon", ["0.05", "1e-15"])
def test_gap_sweep_refuses_rotation_error(epsilon, tmp_path, capsys, monkeypatch):
    # refused before any realization: no gap is computed and no table written
    import dtcsim.experiments

    def no_gap(config):
        raise AssertionError("a realization ran")

    monkeypatch.setattr(dtcsim.experiments, "sector_gap", no_gap)
    argv = ["gap-sweep", "--n", "3", "--epsilon", epsilon, "--w-over-j0", "0,2",
            "--realizations", "1", "--out", str(tmp_path)]
    assert main(argv) in (1, 2)
    assert "epsilon" in capsys.readouterr().err
    assert not (tmp_path / "gap_sweep.csv").exists()


def test_refused_run_creates_no_out_directory(tmp_path, capsys):
    out = tmp_path / "new" / "run"
    argv = ["gap-sweep", "--n", "3", "--epsilon", "1e-15", "--out", str(out)]
    assert main(argv) == 1
    assert "epsilon" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_run_into_existing_directory_writes_both_files(tmp_path):
    argv = ["evolve", "--n", "2", "--initial-state", "1+", "--n-periods", "2",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["evolve.csv", "evolve_manifest.json"]


def test_out_naming_a_file_is_refused_before_the_run(tmp_path, capsys, monkeypatch):
    import dtcsim.cli

    def no_run(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(dtcsim.cli, "run_stroboscopic", no_run)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    for out in (taken, taken / "run"):
        argv = ["evolve", "--n", "2", "--initial-state", "1+", "--n-periods", "2",
                "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: out ")
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("n, pattern", [(1, "+"), (2, "1+"), (3, "1++"), (6, "111+++"),
                                        (7, "111++++")])
def test_default_initial_state_follows_n(n, pattern):
    assert parse_config(overrides={"n": n}, env={}).initial_state == pattern


def test_evolve_without_initial_state_runs_at_any_n(tmp_path):
    assert main(["evolve", "--n", "2", "--n-periods", "2", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "evolve_manifest.json").read_text())
    assert manifest["config"]["initial_state"] == "1+"
    _, _, data = _read_table(tmp_path / "evolve.csv")
    assert data[0, 1:3] == pytest.approx([1.0, 0.0], abs=1e-12)  # |1> on A, |+> on B


# the smallest run of each sweep, so that a setting the sweep ignores costs little
_SMALL_RUNS = {"twosite": ["--points", "3"],
               "gap-sweep": ["--n", "2", "--w-over-j0", "0", "--realizations", "1"]}


@pytest.mark.parametrize("experiment, flag", [
    ("twosite", "--alpha"), ("twosite", "--epsilon"), ("twosite", "--g"),
    ("twosite", "--w-t-over-2pi"), ("twosite", "--disorder-seed"),
    ("gap-sweep", "--w-t-over-2pi"), ("gap-sweep", "--disorder-seed"),
])
def test_sweeps_take_no_flag_they_ignore(experiment, flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([experiment, flag, "1", "--out", str(tmp_path)] + _SMALL_RUNS[experiment])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", ["file", "env"])
@pytest.mark.parametrize("experiment, key, value", [
    ("twosite", "t1", 0.3), ("twosite", "epsilon", 0.05), ("twosite", "g", 3.0),
    ("twosite", "w_t_over_2pi", 0.3), ("twosite", "alpha", 0.3),
    ("twosite", "disorder_seed", 9), ("twosite", "n", 5), ("twosite", "initial_state", "mixed_b"),
    ("gap-sweep", "w_t_over_2pi", 0.3), ("gap-sweep", "disorder_seed", 9),
])
def test_sweeps_refuse_settings_they_ignore(experiment, key, value, source, tmp_path,
                                            monkeypatch, capsys):
    out = tmp_path / "out"
    argv = [experiment, "--out", str(out)] + _SMALL_RUNS[experiment]
    if source == "env":
        # text keys take the raw text from the environment
        monkeypatch.setenv(f"DTCSIM_{key.upper()}",
                           value if isinstance(value, str) else json.dumps(value))
    else:
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: value}))
        argv += ["--config", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} = {value!r} ")
    assert not out.exists()


def test_twosite_runs_the_period_it_records(tmp_path, capsys):
    assert main(["twosite", "--t1", "0.3", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: t1 = 0.3 ")
    assert main(["twosite", "--t1", "0.3", "--t2", "0.3", "--points", "3",
                 "--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "twosite_manifest.json").read_text())["config"]
    assert config["t1"] == config["t2"] == 0.3
    _, _, data = _read_table(tmp_path / "twosite.csv")
    assert data[0, 4] == pytest.approx(0.02, abs=1e-12)  # gap * T = gamma_t on the plateau


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


def test_twosite_manifest_counts_branch_flagged_points(tmp_path):
    # j0 T / 2pi = 0.25 puts the double-period rotation at w = 0 at the
    # antipode (theta = pi), where both routes flag the point; the defaults
    # flag none of their 129 points
    numerics = {}
    for name, flags in (("defaults", []), ("antipodal", ["--j0-t-over-2pi", "0.25"])):
        assert main(["twosite", *flags, "--out", str(tmp_path / name)]) == 0
        manifest = json.loads((tmp_path / name / "twosite_manifest.json").read_text())
        numerics[name] = manifest["numerics"]
    assert numerics == {
        "defaults": {"branch_flag_points_analytic": 0, "branch_flag_points_numeric": 0},
        "antipodal": {"branch_flag_points_analytic": 1, "branch_flag_points_numeric": 1},
    }


def test_twosite_takes_no_site_count(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["twosite", "--n", "5", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err
    manifest = tmp_path / "twosite_manifest.json"
    assert main(["twosite", "--points", "9", "--out", str(tmp_path)]) == 0
    config = json.loads(manifest.read_text())["config"]
    assert "n" not in config and "initial_state" not in config
    manifest.unlink()
    assert run(RunConfig(experiment="twosite", n=5, twosite_points=9, out=str(tmp_path))) == 0
    config = json.loads(manifest.read_text())["config"]
    assert "n" not in config and "initial_state" not in config


# The fields each subcommand reads, written out from its flags.
_READ_FIELDS = {
    "evolve": {"n", "j0_t_over_2pi", "alpha", "gamma_t", "epsilon", "w_t_over_2pi", "t1", "t2",
               "g", "initial_state", "n_periods", "disorder_seed", "out"},
    "spectrum": {"n", "j0_t_over_2pi", "alpha", "gamma_t", "epsilon", "w_t_over_2pi", "t1",
                 "t2", "g", "disorder_seed", "out"},
    "gap-sweep": {"n", "j0_t_over_2pi", "alpha", "gamma_t", "epsilon", "t1", "t2", "g",
                  "w_over_j0_values", "n_realizations", "base_seed", "out"},
    "twosite": {"j0_t_over_2pi", "gamma_t", "t1", "t2", "twosite_points", "out"},
}
# a valid value other than the default for every field some subcommand does not read
_NON_DEFAULT = {"n": 3, "j0_t_over_2pi": 0.3, "alpha": 2.0, "gamma_t": 0.05, "epsilon": 0.05,
                "w_t_over_2pi": 0.3, "t1": 0.4, "t2": 0.4, "g": 3.0, "initial_state": "mixed_b",
                "n_periods": 5, "w_over_j0_values": (0.0, 2.0), "n_realizations": 3,
                "base_seed": 7, "disorder_seed": 9, "twosite_points": 9}


@pytest.mark.parametrize("source", ["file", "env"])
@pytest.mark.parametrize("experiment, key", [(e, f.name) for e, reads in _READ_FIELDS.items()
                                             for f in fields(RunConfig)
                                             if f.name not in reads | {"experiment"}])
def test_every_unread_setting_is_refused(experiment, key, source, tmp_path):
    value = _NON_DEFAULT[key]
    text = value if isinstance(value, str) else json.dumps(value)
    if source == "env":  # text keys take the raw text from the environment
        path, env = None, {f"DTCSIM_{key.upper()}": text}
    else:
        path, env = tmp_path / "c.json", {}
        path.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigError) as exc:
        parse_config(path, overrides={"experiment": experiment}, env=env)
    assert str(exc.value).startswith(f"{key} = {value!r} ")


# The option strings of each subcommand, written out: none added, dropped or renamed.
_COMMON_OPTIONS = {"-h", "--help", "--config", "--j0-t-over-2pi", "--gamma-t", "--t1", "--t2",
                   "--out"}
_OPTIONS = {
    "evolve": _COMMON_OPTIONS | {"--n", "--alpha", "--epsilon", "--g", "--w-t-over-2pi",
                                 "--disorder-seed", "--initial-state", "--n-periods"},
    "spectrum": _COMMON_OPTIONS | {"--n", "--alpha", "--epsilon", "--g", "--w-t-over-2pi",
                                   "--disorder-seed"},
    "gap-sweep": _COMMON_OPTIONS | {"--n", "--alpha", "--epsilon", "--g", "--w-over-j0",
                                    "--realizations", "--base-seed"},
    "twosite": _COMMON_OPTIONS | {"--points"},
    "validate": {"-h", "--help"},
}


def test_each_subcommand_keeps_its_options():
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {name: {s for a in p._actions for s in a.option_strings}
            for name, p in sub.choices.items()} == _OPTIONS


@pytest.mark.parametrize("name", ["DTCSIM_WORKERS", "DTCSIM_GAMMA"])
def test_unknown_environment_name_is_refused(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(name, "0.5")
    out = tmp_path / "out"
    assert main(["evolve", "--n", "2", "--n-periods", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown configuration keys") and repr(name[7:].lower()) in err
    assert not out.exists()


def test_unknown_key_from_the_environment_names_the_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DTCSIM_GAMMA", "0.5")
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"gamma_tt": 0.02}))
    out = tmp_path / "out"
    assert main(["evolve", "--n", "2", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.strip() == ("error: unknown configuration keys: ['gamma', 'gamma_tt'] "
                           "(set by DTCSIM_GAMMA)")
    with pytest.raises(ConfigError, match=r"\['gamma_tt'\]$"):
        parse_config(str(path), env={})


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("value, json_value", [("nan", "NaN"), ("inf", "Infinity"),
                                               ("-inf", "-Infinity")])
@pytest.mark.parametrize("key", [f.name for f in fields(RunConfig) if f.type.startswith("float")])
def test_non_finite_value_names_key(key, value, json_value, source, tmp_path, monkeypatch,
                                    capsys):
    out = tmp_path / "out"
    argv = ["evolve", "--n", "2", "--n-periods", "2", "--out", str(out)]
    if source == "flag":
        argv.append(f"--{key.replace('_', '-')}={value}")
    else:
        monkeypatch.setenv(f"DTCSIM_{key.upper()}", json_value)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} must be finite")
    assert not out.exists()


def test_main_validate_subcommand_passes(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "11/11 checks passed" in out
    assert "FAIL" not in out


def test_validate_catches_corrupted_2T_blocks(monkeypatch, capsys):
    # Scaling the representative of one orbit of off-diagonal blocks scales
    # the whole orbit's spectrum, so only a dense side built without the block
    # builder can notice.
    original = floquet.floquet_2T_sector_blocks

    def corrupted(config, *args, **kwargs):
        blocks = original(config, *args, **kwargs)
        blocks[(0, 1)] = 0.9 * blocks[(0, 1)]
        return blocks

    monkeypatch.setattr(floquet, "floquet_2T_sector_blocks", corrupted)
    assert run_validation_suite() == 1
    assert "FAIL block_vs_dense_spectrum" in capsys.readouterr().out


def test_validate_catches_a_dropped_parity_half(monkeypatch, capsys):
    # putting a segment block back from its +1 half alone changes only the
    # split route, which the palindromic check compares with the dense generator
    original = floquet.from_parity_halves

    def plus_half_only(halves, source, sign):
        halves = list(halves)
        return original([halves[0], np.zeros_like(halves[1])], source, sign)

    monkeypatch.setattr(floquet, "from_parity_halves", plus_half_only)
    assert run_validation_suite() == 1
    out = capsys.readouterr().out
    assert "FAIL split_segment_vs_dense_generator" in out
    assert "10/11 checks passed" in out


def test_main_rejects_bad_flag_value(tmp_path):
    assert main(["evolve", "--gamma-t", "-0.5", "--out", str(tmp_path)]) == 2


def test_run_unknown_experiment():
    assert run(RunConfig(experiment="frobnicate")) == 1


def test_text_keys_keep_raw_environment_text(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DTCSIM_INITIAL_STATE", "111")
    monkeypatch.setenv("DTCSIM_OUT", "123")
    config = parse_config(overrides={"n": 3})  # a three-site pattern needs n = 3
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


@pytest.mark.parametrize("flag, value", [("--gamma-t", "1e300"), ("--j0-t-over-2pi", "1e200")])
def test_overflowing_exponential_is_reported_not_raised(flag, value, tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["evolve", "--n", "2", "--initial-state", "1+", "--n-periods", "2", flag, value,
            "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: matrix exponential overflowed")
    assert not out.exists()


@pytest.mark.parametrize("experiment, flags", [
    ("evolve", ["--initial-state", "1", "--n-periods", "4"]),
    ("spectrum", []),
    ("gap-sweep", ["--w-over-j0", "0,5", "--realizations", "2"]),
])
def test_single_site_runs(experiment, flags, tmp_path):
    # one site has no coupling pairs; the kick flips it and dephasing at
    # gamma_t = 0.02 is the only decay, so gap * T = gamma_t
    assert main([experiment, "--n", "1", "--out", str(tmp_path)] + flags) == 0
    _, _, data = _read_table(tmp_path / f"{experiment.replace('-', '_')}.csv")
    if experiment == "evolve":
        assert np.allclose(data[:, 1], [1.0, -1.0, 1.0, -1.0, 1.0], atol=1e-12)
    elif experiment == "spectrum":
        assert data.shape == (4, 2)
        assert np.sort(data[:, 0]) == pytest.approx([-0.02, -0.02, 0.0, 0.0], abs=1e-12)
    else:
        assert data[:, 1:4] == pytest.approx(0.02, rel=1e-9)


def test_site_count_beyond_max_names_key(tmp_path, capsys):
    assert main(["evolve", "--n", "8", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: n is out of range: 8")


def test_dense_spectrum_refuses_seven_sites(tmp_path, capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("a sector block was built before the dense-limit check")

    monkeypatch.setattr(floquet, "_segment_blocks", forbidden)
    argv = ["spectrum", "--n", "7", "--epsilon", "0.05", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "exceeds the dense limit 6" in capsys.readouterr().err
