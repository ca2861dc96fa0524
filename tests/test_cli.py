import json

import numpy as np
import pytest

from synkit import cli, encoding, perception, pipeline
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

    def test_print_config_emits_valid_template(self, tmp_path, capsys):
        code, out, _ = run(capsys, "--print-config", "--task", "ketchup")
        assert code == 0
        payload = json.loads(out)
        assert payload["task"] == "ketchup"
        assert payload["force_mu"] is None
        template = tmp_path / "config.json"
        template.write_text(out)
        assert pipeline.PipelineConfig.from_json(template).mu() == 0.71


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
# equal classes, {models} a models_dir whose basis has a NaN theta0,
# {neg_reference} a reference whose covariances are -1e-3 I, {asym_reference}
# one whose covariances differ from their transpose in the upper triangle
# only, which eigvalsh does not read), then the text
# the one error line must name. A failing command does not make --out.
CONTRACT_CASES = [
    (("benchmark-kernels", "--length-scale", "1e-300"), None, "l=1e-300"),
    (("kmp-predict", "--reference", "{reference}", "--length-scale", "1e-300"), None,
     "l=1e-300"),
    (("simulate", "--config", "{config}"), {"kernel_l": 1e-300}, "l=1e-300"),
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
     "--points"),
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
    # more mixture components than samples fails in EM, which is the encoding stage
    (("simulate", "--config", "{config}"), {"gmm_components": 100}, "stage 'encoding'"),
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
    svm = {"weights": [1.0, 0.5], "bias": 0.0, "classes": ["a", "b"],
           "feature_mean": [0.0, 0.0], "feature_scale": [1.0, 1.0], "objective_history": [1.0]}
    files = {"reference": reference, "cloud": cloud, "nan_svm": tmp_path / "nan_svm.json",
             "flat_svm": tmp_path / "flat_svm.json", "same_svm": tmp_path / "same_svm.json",
             "neg_reference": tmp_path / "neg_reference.json",
             "asym_reference": tmp_path / "asym_reference.json", "models": tmp_path / "models",
             "config": tmp_path / "config.json"}
    files["nan_svm"].write_text(json.dumps({**svm, "weights": [1.0, float("nan")]}))
    files["flat_svm"].write_text(json.dumps({**svm, "feature_scale": [1.0, 0.0]}))
    files["same_svm"].write_text(json.dumps({**svm, "classes": ["egg", "egg"]}))
    files["neg_reference"].write_text(json.dumps({
        "times": grid.tolist(), "means": [[0.0, 0.0]] * 5,
        "covariances": [[[-1e-3, 0.0], [0.0, -1e-3]]] * 5}))
    files["asym_reference"].write_text(json.dumps({
        "times": grid.tolist(), "means": [[0.0, 0.0]] * 5,
        "covariances": [[[1e-2, 5.0], [0.0, 1e-2]]] * 5}))
    files["models"].mkdir()
    (files["models"] / "basis.json").write_text(json.dumps({
        "e_hat": np.eye(6)[:, :2].tolist(), "theta0": [float("nan")] + [0.0] * 5,
        "variance_fractions": [0.6, 0.4]}))
    files["config"].write_text(json.dumps(config).replace("{models}", str(files["models"])))
    argv = [a.format(**files) for a in argv]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith("error:") and named in err and err.count("\n") == 1
    assert "Traceback" not in out + err
    assert not (tmp_path / "out").exists()


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
