import argparse
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from synkit import cli, encoding, perception, pipeline
from synkit._io import write_csv
from synkit.cli import cli_dispatch


class TopLevel(tuple):
    """Flags given before the subcommand, to the top-level parser."""


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "subcommand" in err

    def test_unknown_subcommand_suggests_nearest(self, capsys):
        code, _, err = run(capsys, "simulte", "--task", "egg")
        assert code == 1
        assert "simulate" in err

    def test_bad_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--task", "spaghetti")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("command,flag", [
        (("fit-synergies", "--input", "postures.csv"), ("--config", "config.json")),
        (("fit-synergies", "--input", "postures.csv"), ("--seed", "3")),
        (("fit-synergies", "--input", "postures.csv"), ("--task", "egg")),
        (("kmp-predict", "--reference", "reference.json"), ("--config", "config.json")),
        (("kmp-predict", "--reference", "reference.json"), ("--seed", "3")),
        (("kmp-predict", "--reference", "reference.json"), ("--task", "egg")),
        (("segment", "--cloud", "scene.xyz"), ("--config", "config.json")),
        (("segment", "--cloud", "scene.xyz"), ("--task", "ketchup")),
        (("classify", "--cloud", "scene.xyz", "--svm", "svm.json"), ("--config", "config.json")),
        (("classify", "--cloud", "scene.xyz", "--svm", "svm.json"), ("--task", "ketchup")),
        (("generate", "scene"), ("--config", "config.json")),
        (("fit-synergies", "--input", "postures.csv"), TopLevel(("--task", "ketchup"))),
        (("kmp-predict", "--reference", "reference.json"), TopLevel(("--task", "ketchup"))),
        (("segment", "--cloud", "scene.xyz"), TopLevel(("--task", "ketchup"))),
        (("classify", "--cloud", "scene.xyz", "--svm", "svm.json"),
         TopLevel(("--task", "ketchup"))),
    ], ids=lambda argv: f"top-level{argv[0]}" if isinstance(argv, TopLevel) else argv[0])
    def test_flag_the_command_does_not_read_is_usage_error(self, command, flag, tmp_path,
                                                           capsys):
        argv = (*flag, *command) if isinstance(flag, TopLevel) else (*command, *flag)
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("error:") and flag[0] in err

    def test_parser_is_built_once_and_parses_like_a_fresh_one(self, capsys):
        hits = cli._build_parser.cache_info().hits
        assert run(capsys, "--print-config", "--task", "ketchup")[0] == 0
        assert run(capsys, "generate", "bogus", "--count", "3")[0] == 1
        assert cli._build_parser.cache_info().hits >= hits + 1
        parser = cli._build_parser()
        for argv in (
            ["simulate", "--task", "ketchup", "--seed", "3", "--out", "a"],
            ["--task", "egg", "kmp-predict", "--reference", "r.json", "--kernel", "cauchy"],
            ["segment", "--cloud", "c.xyz", "--epsilon", "0.05"],
            ["simulate", "--out", "b"],
            ["--print-config"],
        ):
            fresh = cli._build_parser.__wrapped__()
            assert vars(parser.parse_args(argv)) == vars(fresh.parse_args(argv)), argv

    def test_config_field_flags_take_their_default_from_the_config(self):
        # a flag whose dest is a config field sets that field only when given, and
        # every number of the commands that run the pipeline's settings is one
        fields = {f.name for f in dataclasses.fields(pipeline.PipelineConfig)}
        commands = next(a for a in cli._build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        for command, parser in commands.items():
            for action in parser._actions:
                if action.dest in fields:
                    assert action.default is None, (command, action.option_strings)
                elif command in ("fit-synergies", "encode", "generate", "segment", "classify"):
                    assert action.type not in (int, float), (command, action.option_strings)
        seeds = {command: next(a.dest for a in commands[command]._actions
                               if "--seed" in a.option_strings)
                 for command in ("segment", "classify", "encode", "generate", "simulate")}
        assert seeds == {"segment": "ransac_seed", "classify": "ransac_seed", "encode": "seed",
                         "generate": "seed", "simulate": "seed"}

    def test_print_config_emits_valid_template(self, tmp_path, capsys):
        code, out, _ = run(capsys, "--print-config", "--task", "ketchup")
        assert code == 0
        payload = json.loads(out)
        assert payload["task"] == "ketchup"
        assert payload["force_mu"] is None
        template = tmp_path / "config.json"
        template.write_text(out)
        assert pipeline.PipelineConfig.from_json(template).mu() == 0.71

    def test_module_run_writes_nothing_to_stderr(self):
        # runpy warns when the package has already imported the module it runs
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "synkit.cli", "--print-config"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0
        assert json.loads(done.stdout)["task"] == "egg"
        assert done.stderr == ""


class TestInvalidInput:
    @pytest.mark.parametrize("argv", [
        ("segment", "--cloud", "{nan}"),
        ("segment", "--cloud", "{plane}", "--epsilon", "0"),
        ("segment", "--cloud", "{plane}", "--min-points", "0"),
        ("benchmark-kernels", "--length-scale", "-1"),
        ("encode", "--components", "0"),
        ("kmp-predict", "--reference", "{reference}", "--lam", "0"),
        ("kmp-predict", "--reference", "{reference}", "--kernel", "cauchy", "--alpha", "0"),
        ("generate", "demos", "--count", "1"),
        ("segment", "--cloud", "{plane}", "--threshold", "-1"),
        ("segment", "--cloud", "{plane}", "--iterations", "0"),
        ("encode", "--components", "60"),
        ("encode", "--grid-points", "1"),
        ("kmp-predict", "--reference", "{reference}", "--points", "-3"),
        ("kmp-predict", "--reference", "{reference}", "--points", "0"),
        ("fit-synergies", "--input", "{postures}", "--threshold", "1.5"),
        ("encode", "--noise", "-0.5"),
        ("segment", "--cloud", "{binary}"),
        ("fit-synergies", "--input", "{binary}"),
        ("kmp-predict", "--reference", "{nan_reference}"),
        ("benchmark-kernels", "--length-scale", "nan"),
        ("benchmark-kernels", "--length-scale", "inf"),
        ("benchmark-kernels", "--lam", "nan"),
        ("benchmark-kernels", "--lam", "inf"),
        ("benchmark-kernels", "--alpha", "nan"),
        ("kmp-predict", "--reference", "{reference}", "--lam", "nan"),
    ])
    def test_bad_value_is_stage_failure(self, argv, tmp_path, capsys):
        plane = tmp_path / "plane.xyz"
        grid = np.linspace(0.0, 0.1, 5)
        perception.save_cloud(plane, [[x, y, 0.0] for x in grid for y in grid])
        nan = tmp_path / "nan.xyz"
        nan.write_text("0 0 0\n1 0 0\nnan 1 2\n")
        reference = tmp_path / "reference.json"
        encoding.ReferenceTrajectory(times=grid, means=np.zeros((5, 2)),
                                     covariances=np.tile(np.eye(2), (5, 1, 1))
                                     ).to_json(reference)
        postures = tmp_path / "postures.csv"
        np.savetxt(postures, np.column_stack([grid, grid**2, np.cos(grid)]), delimiter=",")
        binary = tmp_path / "binary.dat"
        binary.write_bytes(bytes(range(256)))
        nan_reference = tmp_path / "nan_reference.json"
        payload = json.loads(reference.read_text())
        payload["means"][2][0] = float("nan")
        nan_reference.write_text(json.dumps(payload))
        argv = [a.format(plane=plane, nan=nan, reference=reference, postures=postures,
                         binary=binary, nan_reference=nan_reference)
                for a in argv]
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith("error:")

    def test_bad_record_error_names_the_file(self, tmp_path, capsys):
        reference = tmp_path / "nan_reference.json"
        encoding.ReferenceTrajectory(times=[0.0, 0.5, 1.0], means=np.zeros((3, 2)),
                                     covariances=np.tile(np.eye(2), (3, 1, 1))
                                     ).to_json(reference)
        payload = json.loads(reference.read_text())
        payload["means"][1][0] = float("nan")
        reference.write_text(json.dumps(payload))
        code, _, err = run(capsys, "kmp-predict", "--reference", str(reference),
                           "--out", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith(f"error: {reference}: ") and "means" in err

    @pytest.mark.parametrize("field,value", [
        ("force_dt", "NaN"),
        ("force_gain", "NaN"),
        ("force_target_low", "NaN"),
        ("force_mu", "NaN"),
        ("force_steps", "true"),
        ("force_steps", '"ten"'),
        ("force_steps", "2.5"),
        ("svm_epochs", "3.0"),
        ("gmm_max_iter", "0"),
        ("lam", "Infinity"),
        ("seed", "-1"),
        ("demo_noise", "-0.5"),
    ])
    def test_bad_config_field_is_named(self, field, value, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(f'{{"{field}": {value}}}')
        code, _, err = run(capsys, "simulate", "--config", str(config),
                           "--out", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith("error:") and field in err


# Hostile input that once escaped as a traceback, as a silent exit 0 or as
# a numpy message: each row is argv ({config} is a file holding the JSON in
# the row's second field, {cloud} a small plane cloud, {nan_svm}, {flat_svm}
# and {same_svm} classifiers with a NaN weight, a zero feature scale and two
# equal classes, {models} a models_dir whose basis has a NaN theta0 and
# {good_models} one whose basis is valid, {nan_demos} a demos_path whose
# second demo has one NaN angle, {cell_demos}, {short_demos}, {empty_demos} and
# {narrow_demos} ones whose second demo has a cell "x", a row one cell short, no
# data rows and one column fewer than the first,
# {neg_reference} a reference whose covariances are -1e-3 I, {asym_reference}
# one whose covariances differ from their transpose in the upper triangle
# only, which eigvalsh does not read, {long_reference} one of 2,001 points), then the text
# the one error line must name, where {name} stands for that file's path.
# {svm} is a valid classifier and {big_cloud} the plane cloud scaled by 1e80.
# A failing command does not make --out.
CONTRACT_CASES = [
    (("benchmark-kernels", "--length-scale", "1e-300"), None, "l=1e-300"),
    (("kmp-predict", "--reference", "{reference}", "--length-scale", "1e-300"), None,
     "l=1e-300"),
    (("simulate", "--config", "{config}"), {"kernel_l": 1e-300}, "l=1e-300"),
    # a length scale whose 2 l^2 overflows, named before any kernel is evaluated
    (("kmp-predict", "--reference", "{reference}", "--kernel", "gaussian",
      "--length-scale", "1e200"), None, "l=1e+200"),
    (("kmp-predict", "--reference", "{reference}", "--kernel", "cauchy",
      "--length-scale", "1e200"), None, "l=1e+200"),
    (("benchmark-kernels", "--length-scale", "1e300"), None, "l=1e+300"),
    (("simulate", "--config", "{config}"), {"kernel_l": 1e300}, "l=1e+300"),
    # a box bound at which the SVM solver's Newton system loses its rank
    (("simulate", "--config", "{config}"), {"svm_c": 1e8}, "svm_c"),
    (("simulate", "--config", "{config}"), {"svm_c": 1e160}, "svm_c"),
    (("simulate", "--config", "{config}"), {"force_gain": 100}, "force_gain"),
    (("simulate", "--config", "{config}"), {"force_gain": 1e6}, "force_gain"),
    (("simulate", "--config", "{config}"), {"force_lag": 1e-300}, "force_lag"),
    (("simulate", "--config", "{config}"), {"force_dt": 1e300}, "force_dt"),
    (("generate", "demos", "--seed", "-1"), None, "seed"),
    (("generate", "scene", "--seed", "-1"), None, "seed"),
    (("generate", "demos", "--noise", "nan"), None, "demo_noise"),
    (("generate", "demos", "--noise", "-1"), None, "demo_noise"),
    (("generate", "demos", "--count", "1"), None, "demo_count"),
    (("encode", "--noise", "-1"), None, "demo_noise"),
    # sizes the machine would refuse to allocate, rejected before any draw
    (("segment", "--cloud", "{cloud}", "--iterations", "100000000000"), None, "iterations"),
    (("simulate", "--config", "{config}"), {"ransac_iterations": 10**11}, "ransac_iterations"),
    (("kmp-predict", "--reference", "{reference}", "--points", "1000000000000000"), None,
     "dense_points"),
    (("benchmark-kernels", "--config", "{config}"), {"dense_points": 10**15}, "dense_points"),
    (("simulate", "--config", "{config}"), {"dense_points": 10**15}, "dense_points"),
    (("simulate", "--config", "{config}"), {"reference_points": 10**15}, "reference_points"),
    (("encode", "--grid-points", "1000000000000000"), None, "reference_points"),
    (("simulate", "--config", "{config}"), {"force_steps": 10**15}, "force_steps"),
    (("generate", "demos", "--count", "1000000000000000"), None, "demo_count"),
    # a basis that keeps other than the task waypoints' two synergies
    (("simulate", "--config", "{config}"), {"demo_noise": 1e6},
     "synergy dimension 5 but the egg waypoints have dimension 2"),
    (("simulate", "--config", "{config}"), {"synergy_threshold": 1e-9},
     "synergy dimension 1 but the egg waypoints have dimension 2"),
    # non-finite or zero-scale model records
    (("classify", "--cloud", "{cloud}", "--svm", "{nan_svm}"), None, "weights"),
    (("classify", "--cloud", "{cloud}", "--svm", "{flat_svm}"), None, "feature_scale"),
    (("classify", "--cloud", "{cloud}", "--svm", "{same_svm}"), None, "classes"),
    (("kmp-predict", "--reference", "{neg_reference}", "--lam", "1e-6"), None, "covariances"),
    (("kmp-predict", "--reference", "{asym_reference}", "--lam", "1e-6"), None, "covariances"),
    (("simulate", "--config", "{config}"), {"models_dir": "{models}"}, "theta0"),
    # a NaN angle reaches the encoding stage, whose samples must be finite
    (("simulate", "--config", "{config}"),
     {"demos_path": "{nan_demos}", "models_dir": "{good_models}"}, "coeffs contains NaN or Inf"),
    # a demo file that is no table of numbers, or not as wide as the first, is named
    (("simulate", "--config", "{config}"), {"demos_path": "{cell_demos}"},
     "{cell_demos}/demo_1.csv:3: non-numeric cell"),
    (("simulate", "--config", "{config}"), {"demos_path": "{short_demos}"},
     "{short_demos}/demo_1.csv:4: 6 cells, but the first row has 7"),
    (("simulate", "--config", "{config}"), {"demos_path": "{empty_demos}"},
     "{empty_demos}/demo_1.csv: no data rows"),
    (("simulate", "--config", "{config}"), {"demos_path": "{narrow_demos}"},
     "{narrow_demos}/demo_1.csv has 6 columns, but {narrow_demos}/demo_0.csv has 7"),
    # more mixture components than samples fails in EM, which is the encoding stage
    (("simulate", "--config", "{config}"), {"gmm_components": 100}, "stage 'encoding'"),
    # EM holds temporaries of components x samples, so the count is bounded
    (("simulate", "--config", "{config}"), {"gmm_components": 10**15}, "gmm_components"),
    (("encode", "--components", "1000000000000000"), None, "gmm_components"),
    # and so is the product, which EM checks in the encoding stage before it allocates
    (("encode", "--components", "11", "--count", "500", "--grid-points", "2000"), None,
     "stage 'encoding' failed: n_components * demos * times must be <= 10000000"),
    (("simulate", "--config", "{config}"),
     {"gmm_components": 100, "demo_count": 51, "reference_points": 2000},
     "stage 'encoding' failed: n_components * demos * times must be <= 10000000"),
    # every number of segment and classify passes the config's validation
    (("segment", "--cloud", "{cloud}", "--seed", "-1"), None, "ransac_seed"),
    (("classify", "--cloud", "{cloud}", "--svm", "{svm}", "--seed", "-1"), None, "ransac_seed"),
    (("segment", "--cloud", "{cloud}", "--epsilon", "nan"), None, "cluster_epsilon"),
    (("classify", "--cloud", "{cloud}", "--svm", "{svm}", "--threshold", "inf"), None,
     "ransac_threshold"),
    # a cloud whose cross products would overflow the plane fit's norm
    (("segment", "--cloud", "{big_cloud}"), None, "cloud scale 1e+80"),
    # a sigma2 / (lambda * least reference covariance eigenvalue) past 1e13, at which
    # the rounding of the predicted covariance is no longer small against its least variance
    (("kmp-predict", "--reference", "{reference}", "--sigma2", "1e200", "--lam", "1e-200"), None,
     "sigma2=1e+200 over lambda=1e-200"),
    (("simulate", "--config", "{config}"), {"via_confidence": 1e-10},
     "sigma2=1.0 over lambda=1e-06 and the least reference covariance eigenvalue 1e-10"),
    # a constant prediction, which has no correlation, names its kernel
    (("benchmark-kernels", "--alpha", "1e300"), None,
     "KernelSpec(kind='cauchy', l=0.02, sigma2=1.0, alpha=1e+300) at lambda=1.0"),
    (("benchmark-kernels", "--alpha", "1e-300"), None, "kind='cauchy'"),
    (("benchmark-kernels", "--length-scale", "1e150"), None,
     "KernelSpec(kind='exponential', l=1e+150, sigma2=1.0, alpha=None)"),
    (("simulate", "--config", "{config}"), {"kernel_alpha": 1e300},
     "stage 'metrics' failed: KernelSpec(kind='cauchy', l=0.05, sigma2=1.0, alpha=1e+300)"),
    (("simulate", "--config", "{config}"), {"lam": 1e300}, "at lambda=1e+300"),
    (("kmp-predict", "--reference", "{reference}", "--sigma2", "1e150"), None, "sigma2=1e+150"),
    # kmp_fit's own bound on the reference: 2,001 points used to fit with exit 0,
    # and 100,000 ran out of memory with a traceback and exit 1
    (("kmp-predict", "--reference", "{long_reference}"), None,
     "error: reference has 2001 points, more than 2000"),
    (("kmp-predict", "--reference", "{reference}", "--sigma2", "1e300"), None, "sigma2=1e+300"),
    (("kmp-predict", "--reference", "{reference}", "--lam", "1e-16"), None, "lambda=1e-16"),
    (("simulate", "--config", "{config}"), {"kernel_sigma2": 1e200, "lam": 1e-200},
     "sigma2=1e+200 over lambda=1e-200"),
    (("simulate", "--config", "{config}"), {"kernel_sigma2": 1e300}, "sigma2=1e+300"),
]


@pytest.mark.filterwarnings("error")  # a numpy warning would print beside the line
@pytest.mark.parametrize("argv,config,named", CONTRACT_CASES,
                         ids=[f"{' '.join(a)}-{c}" for a, c, _ in CONTRACT_CASES])
def test_hostile_input_exits_2_with_one_error_line(argv, config, named, tmp_path, capsys):
    reference = tmp_path / "reference.json"
    grid = np.linspace(0.0, 1.0, 5)
    encoding.ReferenceTrajectory(times=grid, means=np.zeros((5, 2)),
                                 covariances=np.tile(np.eye(2), (5, 1, 1))).to_json(reference)
    cloud = tmp_path / "cloud.xyz"
    perception.save_cloud(cloud, [[x, y, 0.0] for x in grid for y in grid])
    big_cloud = tmp_path / "big_cloud.xyz"
    perception.save_cloud(big_cloud, [[1e80 * x, 1e80 * y, 0.0] for x in grid for y in grid])
    svm = {"weights": [1.0, 0.5], "bias": 0.0, "classes": ["a", "b"],
           "feature_mean": [0.0, 0.0], "feature_scale": [1.0, 1.0], "objective_history": [1.0]}
    files = {"reference": reference, "cloud": cloud, "big_cloud": big_cloud,
             "svm": tmp_path / "svm.json", "nan_svm": tmp_path / "nan_svm.json",
             "flat_svm": tmp_path / "flat_svm.json", "same_svm": tmp_path / "same_svm.json",
             "neg_reference": tmp_path / "neg_reference.json",
             "asym_reference": tmp_path / "asym_reference.json",
             "long_reference": tmp_path / "long_reference.json", "models": tmp_path / "models",
             "good_models": tmp_path / "good_models", "nan_demos": tmp_path / "nan_demos",
             **{name: tmp_path / name for name in
                ("cell_demos", "short_demos", "empty_demos", "narrow_demos")},
             "config": tmp_path / "config.json"}
    files["svm"].write_text(json.dumps(svm))
    files["nan_svm"].write_text(json.dumps({**svm, "weights": [1.0, float("nan")]}))
    files["flat_svm"].write_text(json.dumps({**svm, "feature_scale": [1.0, 0.0]}))
    files["same_svm"].write_text(json.dumps({**svm, "classes": ["egg", "egg"]}))
    files["neg_reference"].write_text(json.dumps({
        "times": grid.tolist(), "means": [[0.0, 0.0]] * 5,
        "covariances": [[[-1e-3, 0.0], [0.0, -1e-3]]] * 5}))
    files["asym_reference"].write_text(json.dumps({
        "times": grid.tolist(), "means": [[0.0, 0.0]] * 5,
        "covariances": [[[1e-2, 5.0], [0.0, 1e-2]]] * 5}))
    files["long_reference"].write_text(json.dumps({
        "times": np.linspace(0.0, 1.0, 2001).tolist(), "means": [[0.0, 0.0]] * 2001,
        "covariances": [[[1.0, 0.0], [0.0, 1.0]]] * 2001}))
    for name, theta0 in (("models", [float("nan")] + [0.0] * 5), ("good_models", [0.0] * 6)):
        files[name].mkdir()
        (files[name] / "basis.json").write_text(json.dumps({
            "e_hat": np.eye(6)[:, :2].tolist(), "theta0": theta0,
            "variance_fractions": [0.6, 0.4]}))
    files["nan_demos"].mkdir()
    for k, spoiled in enumerate((0.0, np.nan)):
        angles = np.outer(grid, np.arange(1.0, 7.0))
        angles[2, 3] += spoiled
        write_csv(files["nan_demos"] / f"demo_{k}.csv", ["t", *(f"q{j}" for j in range(1, 7))],
                  np.column_stack([grid, angles]))
    lines = (files["nan_demos"] / "demo_0.csv").read_text().splitlines()
    cut = [line.rsplit(",", 1)[0] for line in lines]  # each line without its last cell
    for name, spoiled in (("cell_demos", lines[:2] + [cut[2] + ",x"] + lines[3:]),
                          ("short_demos", lines[:3] + [cut[3]] + lines[4:]),
                          ("empty_demos", lines[:1]),
                          ("narrow_demos", cut)):
        files[name].mkdir()
        for k, demo in enumerate((lines, spoiled)):
            (files[name] / f"demo_{k}.csv").write_text("\n".join(demo) + "\n")
    config_text = json.dumps(config)
    for name, path in files.items():
        config_text = config_text.replace("{%s}" % name, str(path))
    files["config"].write_text(config_text)
    argv = [a.format(**files) for a in argv]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith("error:") and named.format(**files) in err and err.count("\n") == 1
    assert "Traceback" not in out + err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")  # a numpy warning would print to stderr
@pytest.mark.parametrize("kernel", ["exponential", "gaussian", "cauchy"])
def test_extreme_reference_times_predict_without_a_warning(kernel, tmp_path, capsys):
    # lags near 1e160 square past the largest double; the kernel's limit there is 0
    reference = tmp_path / "reference.json"
    grid = np.linspace(0.0, 1.0, 5)
    encoding.ReferenceTrajectory(times=grid * 1e160, means=np.column_stack([grid, -grid]),
                                 covariances=np.tile(np.eye(2), (5, 1, 1))).to_json(reference)
    code, out, err = run(capsys, "kmp-predict", "--reference", str(reference),
                         "--kernel", kernel, "--out", str(tmp_path / "out"))
    assert code == 0 and err == ""
    predictions = np.loadtxt(tmp_path / "out" / "predictions.csv", delimiter=",", skiprows=1)
    assert np.isfinite(predictions).all()


@pytest.fixture(scope="module")
def egg_reference(tmp_path_factory):
    out = tmp_path_factory.mktemp("encode")
    assert cli_dispatch(["encode", "--task", "egg", "--out", str(out)]) == 0
    return out / "reference.json"


@pytest.fixture(scope="module")
def egg_postures(tmp_path_factory):
    out = tmp_path_factory.mktemp("demos")
    assert cli_dispatch(["generate", "demos", "--task", "egg", "--out", str(out)]) == 0
    return out / "postures.csv"


@pytest.fixture(scope="module")
def egg_scene(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    assert cli_dispatch(["generate", "scene", "--task", "egg", "--out", str(out)]) == 0
    return out


# Every KMP number a user can give, and every other float of simulate, segment,
# classify, encode, generate demos and fit-synergies, at each finite extreme: the run either
# succeeds with finite CSVs and nonnegative predicted variances, or exits 2 with
# one error line and no --out; either way without a warning. Sizes and loop
# counts are not swept.
EXTREMES = ("0", "-1", "1e-300", "1e-150", "1e150", "1e300")
SCENE_COMMANDS = (("segment", "--cloud", "{cloud}"),
                  ("classify", "--cloud", "{cloud}", "--svm", "{svm}"))
SWEEP = (
    [(("kmp-predict", "--reference", "{reference}", "--kernel", kind), flag)
     for kind in ("exponential", "gaussian", "cauchy")
     for flag in ("--length-scale", "--sigma2", "--alpha", "--lam")]
    + [(("benchmark-kernels",), flag) for flag in ("--length-scale", "--alpha", "--lam")]
    + [(("simulate", "--config", "{config}"), field)
       for field in ("kernel_l", "kernel_sigma2", "kernel_alpha", "lam", "via_confidence",
                     "gmm_tol", "ransac_threshold", "cluster_epsilon", "svm_c", "force_mu",
                     "force_gain", "force_target_low", "force_target_high", "force_dt",
                     "force_lag", "demo_noise", "synergy_threshold")]
    + [(argv, flag) for argv in SCENE_COMMANDS for flag in ("--threshold", "--epsilon")]
    + [(argv, "--noise") for argv in (("encode",), ("generate", "demos"))]
    + [(("fit-synergies", "--input", "{postures}"), "--threshold")]
)
SWEEP_CASES = [
    pytest.param(argv, knob, value, id=f"{' '.join(argv)} {knob}={value}")
    for argv, knob in SWEEP for value in EXTREMES
]


@pytest.mark.parametrize("argv,knob,value", SWEEP_CASES)
def test_numbers_at_finite_extremes(argv, knob, value, egg_reference, egg_scene, egg_postures,
                                    tmp_path, capsys):
    config = tmp_path / "config.json"
    argv = [a.format(reference=egg_reference, config=config, cloud=egg_scene / "scene.xyz",
                     svm=egg_scene / "svm.json", postures=egg_postures) for a in argv]
    if knob.startswith("--"):
        argv.append(f"{knob}={value}")
    else:
        config.write_text(json.dumps({knob: float(value)}))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, *argv, "--out", str(out))
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()
        return
    for table in out.glob("*.csv"):
        assert np.isfinite(np.loadtxt(table, delimiter=",", skiprows=1)).all(), table.name
    predictions = out / "predictions.csv"
    if predictions.exists():
        rows = np.loadtxt(predictions, delimiter=",", skiprows=1)
        variances = rows[:, 1 + (rows.shape[1] - 1) // 2:]
        assert variances.min() >= 0.0


class TestGenerate:
    def test_demos_artifacts(self, tmp_path, capsys):
        out = tmp_path / "demos"
        code, _, _ = run(capsys, "generate", "demos", "--task", "egg",
                         "--count", "4", "--seed", "5", "--out", str(out))
        assert code == 0
        assert (out / "postures.csv").exists()
        assert (out / "demos_truth.json").exists()
        assert len(list(out.glob("demo_*.csv"))) == 4

    def test_scene_artifacts(self, tmp_path, capsys):
        out = tmp_path / "scene"
        code, _, _ = run(capsys, "generate", "scene", "--task", "egg",
                         "--seed", "5", "--out", str(out))
        assert code == 0
        for name in ("scene.xyz", "scene_truth.json", "svm.json"):
            assert (out / name).exists()

    def test_generate_deterministic_across_runs(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            code, _, _ = run(capsys, "generate", "scene", "--task", "ketchup",
                             "--seed", "3", "--out", str(out))
            assert code == 0
        for name in ("scene.xyz", "scene_truth.json", "svm.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestLearningCommands:
    def test_fit_encode_predict_chain(self, tmp_path, capsys):
        demos_dir = tmp_path / "demos"
        code, _, _ = run(capsys, "generate", "demos", "--task", "egg",
                         "--seed", "7", "--out", str(demos_dir))
        assert code == 0

        fit_dir = tmp_path / "fit"
        code, out, _ = run(capsys, "fit-synergies", "--input",
                           str(demos_dir / "postures.csv"), "--out", str(fit_dir))
        assert code == 0
        assert (fit_dir / "basis.json").exists()
        assert "retained" in out

        enc_dir = tmp_path / "enc"
        code, _, _ = run(capsys, "encode", "--task", "egg", "--out", str(enc_dir))
        assert code == 0
        assert (enc_dir / "reference.json").exists()

        pred_dir = tmp_path / "pred"
        code, _, _ = run(capsys, "kmp-predict", "--reference",
                         str(enc_dir / "reference.json"), "--kernel", "cauchy",
                         "--lam", "1e-6", "--out", str(pred_dir))
        assert code == 0
        header = (pred_dir / "predictions.csv").read_text().splitlines()[0]
        assert header.startswith("t,mu1")

    def test_encode_takes_config_fields_and_given_flags_beat_them(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"demo_count": 5, "demo_noise": 0.01,
                                      "gmm_components": 3, "reference_points": 10}))
        code, out, _ = run(capsys, "encode", "--config", str(config),
                           "--out", str(tmp_path / "cfg"))
        assert code == 0 and out.startswith("encoded 5 demos into 10 reference points")
        assert len(json.loads((tmp_path / "cfg" / "gmm.json").read_text())["priors"]) == 3
        # the same four values as flags give the same bytes, demo_noise included
        code, _, _ = run(capsys, "encode", "--count", "5", "--noise", "0.01", "--components",
                         "3", "--grid-points", "10", "--out", str(tmp_path / "flags"))
        assert code == 0
        for name in ("gmm.json", "reference.json", "basis.json"):
            assert ((tmp_path / "cfg" / name).read_bytes()
                    == (tmp_path / "flags" / name).read_bytes()), name
        code, out, _ = run(capsys, "encode", "--config", str(config), "--components", "4",
                           "--out", str(tmp_path / "both"))
        assert code == 0 and out.startswith("encoded 5 demos into 10 reference points")
        assert len(json.loads((tmp_path / "both" / "gmm.json").read_text())["priors"]) == 4

    def test_kmp_predict_missing_reference_is_stage_failure(self, tmp_path, capsys):
        code, _, err = run(capsys, "kmp-predict", "--reference",
                           str(tmp_path / "nope.json"), "--out", str(tmp_path))
        assert code == 2 or code == 1  # missing file surfaces as an error exit
        assert err


class TestPerceptionCommands:
    @pytest.fixture()
    def scene_dir(self, tmp_path, capsys):
        out = tmp_path / "scene"
        code, _, _ = run(capsys, "generate", "scene", "--task", "egg",
                         "--seed", "11", "--out", str(out))
        assert code == 0
        return out

    def test_segment(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "seg"
        code, stdout, _ = run(capsys, "segment", "--cloud",
                              str(scene_dir / "scene.xyz"), "--seed", "11",
                              "--out", str(out))
        assert code == 0
        payload = json.loads((out / "segmentation.json").read_text())
        assert len(payload["clusters"]) == 2
        assert "plane" in payload

    def test_classify(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "cls"
        code, stdout, _ = run(capsys, "classify", "--cloud",
                              str(scene_dir / "scene.xyz"), "--svm",
                              str(scene_dir / "svm.json"), "--seed", "11",
                              "--out", str(out))
        assert code == 0
        payload = json.loads((out / "segmentation.json").read_text())
        labels = sorted(c["label"] for c in payload["clusters"])
        assert labels == ["egg", "tray"]

    def test_classify_agrees_with_simulate(self, scene_dir, tmp_path, capsys):
        # the scene and SVM that `generate scene --seed 11` writes are the ones
        # `simulate` builds from its default ransac_seed 11 and svm_seed 13
        cls = tmp_path / "cls"
        code, _, _ = run(capsys, "classify", "--cloud", str(scene_dir / "scene.xyz"),
                         "--svm", str(scene_dir / "svm.json"), "--seed", "11",
                         "--out", str(cls))
        assert code == 0
        sim = tmp_path / "sim"
        code, _, _ = run(capsys, "simulate", "--task", "egg", "--out", str(sim))
        assert code == 0
        segmentation = (cls / "segmentation.json").read_bytes()
        assert segmentation == (sim / "segmentation.json").read_bytes()
        log = json.loads((sim / "tasklog.json").read_text())
        record = next(s["data"] for s in log["stages"] if s["name"] == "perception")
        for key in ("inlier_count", "outlier_count", "svm_epochs", "svm_objective",
                    "svm_train_accuracy"):
            del record[key]
        assert json.loads(segmentation) == record


class TestSimulateAndBenchmark:
    def test_simulate_with_config(self, tmp_path, capsys):
        config = pipeline.default_config("egg")
        config_path = tmp_path / "config.json"
        config.to_json(config_path)
        out = tmp_path / "sim"
        code, stdout, _ = run(capsys, "simulate", "--task", "egg", "--config",
                              str(config_path), "--out", str(out))
        assert code == 0
        assert (out / "tasklog.json").exists()
        log = json.loads((out / "tasklog.json").read_text())
        assert [s["name"] for s in log["stages"]] == list(pipeline.STAGE_ORDER)

    def test_simulate_egg_seed_436_fits(self, tmp_path, capsys):
        # a floored M-step lowered the plain log-likelihood past the EM slack here
        code, _, err = run(capsys, "simulate", "--task", "egg", "--seed", "436",
                           "--out", str(tmp_path / "sim"))
        assert code == 0, err

    def test_task_flag_resolves_force_defaults_of_that_task(self, tmp_path, capsys):
        code, template, _ = run(capsys, "--print-config", "--task", "egg")
        assert code == 0
        config_path = tmp_path / "egg.json"
        config_path.write_text(template)
        code, _, _ = run(capsys, "simulate", "--config", str(config_path),
                         "--task", "ketchup", "--out", str(tmp_path / "sim"))
        assert code == 0
        log = json.loads((tmp_path / "sim" / "tasklog.json").read_text())
        force = next(s["data"] for s in log["stages"] if s["name"] == "force")
        assert force["mu"] == 0.71
        assert force["band"] == [2.38, 4.26]
        assert round(force["final_grip"], 3) == 3.320

    def test_task_flag_before_the_subcommand_holds(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "--task", "ketchup", "simulate",
                              "--out", str(tmp_path / "sim"))
        assert code == 0
        assert stdout.startswith("task ketchup:")
        assert json.loads((tmp_path / "sim" / "tasklog.json").read_text())["task"] == "ketchup"
        # without any --task, the config file's task stands
        config_path = tmp_path / "ketchup.json"
        pipeline.default_config("ketchup").to_json(config_path)
        code, stdout, _ = run(capsys, "simulate", "--config", str(config_path),
                              "--out", str(tmp_path / "cfg"))
        assert code == 0
        assert stdout.startswith("task ketchup:")

    def test_benchmark_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code, stdout, _ = run(capsys, "benchmark-kernels", "--task", "egg",
                              "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["rows"]) == {"exponential", "gaussian", "cauchy"}
        assert (out / "report.txt").exists()
        assert (out / "trajectory_gaussian_adaptation0.csv").exists()
