import json

import numpy as np
import pytest

from synkit import force, pipeline, synergy
from synkit.errors import ConfigInvalidError, StageError, SynkitError
from synkit.pipeline import STAGE_ORDER


class TestConfig:
    def test_default_template_round_trips(self, tmp_path):
        config = pipeline.default_config("egg")
        path = tmp_path / "config.json"
        config.to_json(path)
        loaded = pipeline.PipelineConfig.from_json(path)
        assert loaded == config

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        payload = json.loads(pipeline.default_config("egg").to_json())
        payload["mystery_knob"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigInvalidError):
            pipeline.PipelineConfig.from_json(path)

    @pytest.mark.parametrize("field,value", [
        ("task", "juggling"),
        ("synergy_threshold", 0.0),
        ("synergy_threshold", 1.5),
        ("demo_count", 1),
        ("kernel_kind", "triangular"),
        ("lam", -1.0),
        ("force_gain", 0.0),
        ("cluster_epsilon", -0.1),
        ("ransac_iterations", 10**6 + 1),
        ("dense_points", pipeline.MAX_DENSE_POINTS + 1),
        ("reference_points", pipeline.MAX_REFERENCE_POINTS + 1),
    ])
    def test_invalid_values_rejected(self, field, value):
        config = pipeline.default_config("egg")
        setattr(config, field, value)
        with pytest.raises(ConfigInvalidError):
            config.validate()

    @pytest.mark.parametrize("field,value", [("dense_points", pipeline.MAX_DENSE_POINTS),
                                             ("reference_points", pipeline.MAX_REFERENCE_POINTS)])
    def test_largest_grid_is_valid(self, field, value):
        config = pipeline.default_config("egg")
        setattr(config, field, value)
        config.validate()

    @pytest.mark.parametrize("components,count,points", [(100, 50, 2000), (5, 500, 2000)])
    def test_em_size_at_the_bound_is_valid(self, components, count, points):
        pipeline.PipelineConfig(gmm_components=components, demo_count=count,
                                reference_points=points).validate()

    @pytest.mark.parametrize("components,count,points", [(100, 51, 2000), (11, 500, 2000)])
    def test_em_size_past_the_bound_rejected(self, components, count, points):
        config = pipeline.PipelineConfig(gmm_components=components, demo_count=count,
                                         reference_points=points)
        with pytest.raises(ConfigInvalidError,
                           match=rf"gmm_components \* demos \* reference_points must be <= "
                                 rf"10000000, got {components} \* {count} \* {points}"):
            config.validate()

    def test_force_loop_rule_is_the_recurrence_spectral_radius_below_one(self):
        # the loop in (d, measured), with the grasp model's unit grip gain
        rng = np.random.default_rng(3)
        verdicts = set()
        for gain, dt, lag in 10.0 ** rng.uniform([-2, -3, -3], [2, 0, 0], (300, 3)):
            a = dt / lag
            radius = np.abs(np.linalg.eigvals([[1.0, -gain], [a, 1.0 - a - gain * a]])).max()
            config = pipeline.PipelineConfig(force_gain=gain, force_dt=dt, force_lag=lag)
            if radius < 1.0 - 1e-9:
                config.validate()
            elif radius > 1.0 + 1e-9:
                with pytest.raises(ConfigInvalidError, match="force_gain"):
                    config.validate()
            verdicts.add(radius < 1.0)
        assert verdicts == {True, False}

    def test_missing_paths_rejected(self):
        config = pipeline.default_config("egg")
        config.demos_path = "/nonexistent/demos.csv"
        with pytest.raises(ConfigInvalidError):
            config.validate()

    def test_band_defaults_from_scenario(self):
        config = pipeline.PipelineConfig(task="ketchup")
        assert config.force_band() == (2.38, 4.26)
        assert config.mu() == 0.71


class TestRunTask:
    def test_stage_order_matches_contract(self, egg_log, ketchup_log):
        for log in (egg_log, ketchup_log):
            assert tuple(s["name"] for s in log.stages) == STAGE_ORDER

    def test_egg_force_band_and_stability(self, egg_log):
        stage = egg_log.stage("force")
        assert stage["mu"] == 0.64
        lo, hi = stage["band"]
        assert (lo, hi) == (2.38, 3.16)
        assert lo <= stage["final_grip"] <= hi
        assert stage["settled"]
        assert stage["all_stable"]
        assert all(all(r["stable"]) for r in stage["records"])

    def test_ketchup_force_band(self, ketchup_log):
        stage = ketchup_log.stage("force")
        assert stage["mu"] == 0.71
        lo, hi = stage["band"]
        assert (lo, hi) == (2.38, 4.26)
        assert lo <= stage["final_grip"] <= hi
        assert stage["all_stable"]

    def test_ketchup_manipulation_monotone(self, ketchup_log):
        scenario = pipeline.default_config("ketchup").scenario()
        stage = ketchup_log.stage("adaptation")
        times = np.asarray(stage["times"])
        means = np.asarray(stage["means"])
        mask = times >= scenario["manip_start_time"] - 1e-12
        segment = means[mask]
        sign = np.sign(scenario["manip_end_e"] - scenario["manip_start_e"])
        diffs = np.diff(segment, axis=0) * sign[None, :]
        assert np.all(diffs > 0.0)
        assert np.abs(segment[0] - scenario["manip_start_e"]).max() < 1e-3
        assert np.abs(segment[-1] - scenario["manip_end_e"]).max() < 1e-3

    def test_grasp_via_point_attained(self, egg_log):
        stage = egg_log.stage("adaptation")
        times = np.asarray(stage["times"])
        means = np.asarray(stage["means"])
        via = stage["via_points"][0]
        idx = int(np.argmin(np.abs(times - via["t"])))
        assert np.abs(means[idx] - np.asarray(via["e"])).max() < 0.01

    def test_logged_coordinates_round_trip(self, egg_log, ketchup_log, egg_learning):
        basis = egg_learning["basis"]
        for log in (egg_log, ketchup_log):
            if log.task != "egg":
                _, basis, _, _ = pipeline.build_reference(
                    pipeline.default_config(log.task))
            stage = log.stage("adaptation")
            joints = np.asarray(log.stage("reconstruction")["joint_angles"])
            means = np.asarray(stage["means"])
            assert joints.shape == (means.shape[0], basis.joint_dim)
            for e, q in zip(means, joints):
                back = synergy.project(basis, q)
                assert np.abs(back - e).max() < 1e-9
                assert np.abs(synergy.reconstruct(basis, e) - q).max() < 1e-9

    def test_em_convergence_recorded(self, egg_log, ketchup_log):
        # both default tasks reach gmm_tol = 1e-6 well inside gmm_max_iter = 200
        for log in (egg_log, ketchup_log):
            encoding_stage = log.stage("encoding")
            assert encoding_stage["converged"], log.task
            assert encoding_stage["final_ll_delta"] < 1e-6
            assert 2 <= encoding_stage["em_iterations"] < 200

    def test_em_single_iteration_not_converged(self):
        config = pipeline.default_config("egg")
        config.gmm_max_iter = 1
        stage = pipeline.run_task(config).stage("encoding")
        assert stage["em_iterations"] == 1
        assert stage["final_ll_delta"] is None and stage["converged"] is False

    def test_em_failure_names_the_encoding_stage(self):
        # build_reference runs inside run_task's synergy block; EM is still encoding
        config = pipeline.default_config("egg")
        config.gmm_components = 100
        with pytest.raises(StageError, match="too few samples") as info:
            pipeline.run_task(config)
        assert info.value.stage == "encoding"

    def test_interrupt_passes_through_stages(self, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline.synthetic, "generate_synthetic_scene", interrupted)
        with pytest.raises(KeyboardInterrupt):
            pipeline.run_task(pipeline.default_config("egg"))

    def test_rerun_bit_identical(self, egg_log):
        again = pipeline.run_task(pipeline.default_config("egg"))
        assert again.to_json() == egg_log.to_json()

    def test_perception_stage_contents(self, egg_log):
        stage = egg_log.stage("perception")
        labels = sorted(c["label"] for c in stage["clusters"])
        assert labels == ["egg", "tray"]
        assert stage["inlier_count"] > 1500
        for cluster in stage["clusters"]:
            assert len(cluster["centroid"]) == 3
            assert len(cluster["extents"]) == 3

    def test_perception_svm_diagnostics(self, tmp_path):
        config = pipeline.default_config("ketchup")
        config.out_dir = str(tmp_path / "run")
        stage = pipeline.run_task(config).stage("perception")
        svm = json.loads((tmp_path / "run" / "svm.json").read_text())
        assert stage["svm_epochs"] == len(svm["objective_history"]) - 1
        assert 1 <= stage["svm_epochs"] < config.svm_epochs  # converged before the cap
        assert stage["svm_objective"] == svm["objective_history"][-1]
        assert stage["svm_train_accuracy"] == 1.0  # the fixture's classes separate

    def test_failed_run_writes_no_artifacts(self, tmp_path, monkeypatch):
        # the last stage fails, after every artifact's content exists
        def failing(*args):
            raise SynkitError("scoring failed")

        monkeypatch.setattr(pipeline.evaluation, "component_scores", failing)
        config = pipeline.default_config("egg")
        config.out_dir = str(tmp_path / "run")
        with pytest.raises(StageError, match="metrics"):
            pipeline.run_task(config)
        assert not (tmp_path / "run").exists()

    def test_artifacts_written(self, tmp_path):
        config = pipeline.default_config("egg")
        config.out_dir = str(tmp_path / "run")
        pipeline.run_task(config)
        out = tmp_path / "run"
        for name in ("basis.json", "gmm.json", "reference.json", "reference.csv",
                     "segmentation.json", "svm.json", "predictions.csv",
                     "grip_force.csv", "tasklog.json"):
            assert (out / name).exists(), name
        loaded = synergy.SynergyBasis.from_json(out / "basis.json")
        assert loaded.synergy_dim == 2

    def test_grip_force_csv_matches_force_records(self, tmp_path):
        config = pipeline.default_config("ketchup")
        config.out_dir = str(tmp_path / "run")
        log = pipeline.run_task(config)
        path = tmp_path / "run" / "grip_force.csv"
        assert path.read_text().splitlines()[0] == "t,force"
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        records = log.stage("force")["records"]
        expected = np.array([(r["t"], r["measured"]) for r in records])
        assert rows.shape == (config.force_steps, 2)
        assert np.array_equal(rows, expected)


class TestFileIngestion:
    def test_run_from_generated_files(self, tmp_path, capsys):
        from synkit.cli import cli_dispatch

        demos_dir = tmp_path / "demos"
        scene_dir = tmp_path / "scene"
        assert cli_dispatch(["generate", "demos", "--task", "egg", "--seed", "7",
                             "--out", str(demos_dir)]) == 0
        assert cli_dispatch(["generate", "scene", "--task", "egg", "--seed", "11",
                             "--out", str(scene_dir)]) == 0
        capsys.readouterr()

        config = pipeline.default_config("egg")
        config.demos_path = str(demos_dir)
        config.scene_path = str(scene_dir / "scene.xyz")
        config.models_dir = str(scene_dir)  # reuse the pre-trained svm.json
        log = pipeline.run_task(config)
        force_stage = log.stage("force")
        assert force_stage["settled"] and force_stage["all_stable"]
        labels = sorted(c["label"] for c in log.stage("perception")["clusters"])
        assert labels == ["egg", "tray"]
        # a reused svm.json has no training set to score
        assert log.stage("perception")["svm_train_accuracy"] is None

    def test_em_size_counts_the_demo_files_before_em(self, tmp_path):
        # demo_count does not apply to a demo directory, so its files are counted:
        # 51 files at 100 components on 2,000 points pass the bound by 2%
        rng = np.random.default_rng(0)
        for k in range(51):
            np.savetxt(tmp_path / f"demo_{k:02d}.csv",
                       np.column_stack([[0.0, 1.0], rng.standard_normal((2, 6))]),
                       delimiter=",", header="t,q1,q2,q3,q4,q5,q6", comments="")
        config = pipeline.PipelineConfig(demos_path=str(tmp_path), gmm_components=100,
                                         reference_points=2000).validate()
        with pytest.raises(StageError, match=r"stage 'encoding'.* got 100 \* 51 \* 2000"):
            pipeline.build_reference(config)

    def test_demo_file_without_header_loses_no_row(self, tmp_path, capsys):
        from synkit.cli import cli_dispatch

        assert cli_dispatch(["generate", "demos", "--task", "egg", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        headed = pipeline.load_demo_dir(tmp_path)
        first = tmp_path / "demo_00.csv"
        first.write_text(first.read_text().split("\n", 1)[1])
        plain = pipeline.load_demo_dir(tmp_path)
        assert len(plain) == len(headed)
        for (t0, q0), (t1, q1) in zip(headed, plain):
            assert np.array_equal(t0, t1) and np.array_equal(q0, q1)

    def test_demo_dir_without_files_rejected(self, tmp_path):
        with pytest.raises(ConfigInvalidError):
            pipeline.load_demo_dir(tmp_path)


class TestGraspModelConstruction:
    def test_grasp_matrix_shape_and_jacobian_orthonormal(self, egg_learning):
        basis = egg_learning["basis"]
        model = pipeline.build_grasp_model(basis, contact_radius=0.02)
        assert model.grasp_matrix.shape == (6, 9)
        q = model.hand_jacobian
        assert np.abs(q.T @ q - np.eye(basis.joint_dim)).max() < 1e-9
        # first column carries the shared normal direction
        from synkit.force import normal_pattern
        pattern = normal_pattern(3)
        assert float(q[:, 0] @ pattern) == pytest.approx(np.sqrt(3.0), abs=1e-9)


def oracle_force_loop(config, basis, grasp_model):
    """The grip-force loop step by step: each step adds its correction to
    ``delta_e`` and rebuilds the contact forces, currents, realized forces,
    grip and friction-cone flags from it."""
    lo, hi = config.force_band()
    target_final = 0.5 * (lo + hi)
    mu = config.mu()
    weight = config.scenario()["object_mass"] * 9.81
    omega = np.array([0.0, 0.0, weight, 0.0, 0.0, 0.0])
    dt = config.force_dt
    ramp_time = 0.5 * config.force_steps * dt
    coupling_pinv = np.linalg.pinv(grasp_model.stiffness @ basis.e_hat)
    pattern = force.normal_pattern(grasp_model.n_contacts)
    delta_e = coupling_pinv @ (lo * pattern)
    measured = lo
    records = []
    for k in range(config.force_steps):
        t = k * dt
        target_k = lo + min(t / ramp_time, 1.0) * (target_final - lo)
        delta_e = delta_e + force.adapt_force(float(target_k - measured), coupling_pinv,
                                              gain=config.force_gain)
        contacts = force.contact_forces(grasp_model, omega, basis, delta_e)
        currents = force.motor_currents(grasp_model, contacts)
        realized = force.realized_forces(grasp_model, currents)
        command = force.grip_force(realized)
        records.append({
            "t": t,
            "target": float(target_k),
            "measured": float(measured),
            "command": float(command),
            "stable": [force.friction_cone_check(f, mu) for f in realized],
            "delta_e": [float(v) for v in delta_e],
        })
        measured = measured + (dt / config.force_lag) * (command - measured)
    final_grip = float(measured)
    return {
        "records": records,
        "final_grip": final_grip,
        "settled": bool(lo <= final_grip <= hi),
        "all_stable": bool(all(all(r["stable"]) for r in records)),
    }


@pytest.fixture(scope="module")
def task_bases(egg_learning):
    ketchup = pipeline.build_reference(pipeline.default_config("ketchup"))[1]
    return {"egg": egg_learning["basis"], "ketchup": ketchup}


class TestForceLoop:
    # mu 9.5 lies inside the contacts' ratio ranges over the ramp (egg
    # about 9 to 17, ketchup 5 to 12), so flags differ between contacts and
    # between steps
    @pytest.mark.parametrize("mu", [None, 9.5])
    @pytest.mark.parametrize("steps", [80, 640])
    @pytest.mark.parametrize("task", ["egg", "ketchup"])
    def test_matches_per_step_oracle(self, task, steps, mu, task_bases):
        config = pipeline.default_config(task)
        config.force_steps = steps
        config.force_mu = mu
        basis = task_bases[task]
        model = pipeline.build_grasp_model(basis, contact_radius=0.025)
        got = pipeline._run_force_loop(config, basis, model)
        want = oracle_force_loop(config, basis, model)
        assert len(got["records"]) == steps
        assert [set(r) for r in got["records"]] == [set(r) for r in want["records"]]
        for key in ("settled", "all_stable"):
            assert got[key] == want[key]
        flags = [r["stable"] for r in got["records"]]
        assert flags == [r["stable"] for r in want["records"]]
        if mu is not None:
            assert 0.0 < np.mean(flags) < 1.0
        for key in ("t", "target"):
            assert [r[key] for r in got["records"]] == [r[key] for r in want["records"]]
        for key in ("measured", "command", "delta_e"):
            a = np.array([r[key] for r in got["records"]])
            b = np.array([r[key] for r in want["records"]])
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), key
        assert got["final_grip"] == pytest.approx(want["final_grip"], rel=1e-12, abs=0.0)
