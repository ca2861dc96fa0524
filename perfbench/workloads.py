"""The three closed-loop workloads: simulate, kernels and scenes.

Why each exists, and which layer it loads, is recorded in README.md next to
this file. A workload builds its inputs at set-up from a seed. Each request
is prepared (untimed), run (timed), then loaded and checked (untimed).
``corrupt`` yields deliberately broken copies of a good output, each of
which ``check`` must reject; the benchmark proves that on every run.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import shutil

import numpy as np

import oracle
import scenes
from synkit import cli, evaluation, kmp, perception, pipeline, synthetic

TASKS = ("egg", "ketchup")
STAGES = ("synergy", "encoding", "kmp", "perception", "adaptation", "reconstruction",
          "force", "metrics")
# Tolerances of the acceptance suite: centroids (criterion 5), via-point
# attainment (criterion 3), dense-solve oracle agreement (criterion 2).
CENTROID_TOL = 0.005
VIA_TOL = 0.01
ORACLE_TOL = 1e-8


def _quiet_cli(argv):
    """Run the CLI in-process with its console output captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.cli_dispatch(argv)
    return code, sink.getvalue()


def _distance(a, b):
    return float(np.linalg.norm(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))


def _exit_problem(out):
    if out["code"] != 0:
        return [f"exit code {out['code']}: {out['console'].strip()[-300:]}"]
    return []


class Simulate:
    """``synkit simulate`` in-process: egg and ketchup alternate, and two
    requests in eight squeeze for 640 force steps instead of 80."""

    name = "simulate"
    CYCLE = 8  # requests in one period of the mix
    LONG_STEPS = 640

    def setup(self, work, seed):
        self.work = work
        self.long_config = work / "long_squeeze.json"
        self.long_config.write_text(json.dumps({"force_steps": self.LONG_STEPS}) + "\n")
        self.truth = {}
        for task in TASKS:
            scenario = synthetic.task_scenario(task)
            label = scenario["target_label"]
            self.truth[task] = {
                "label": label,
                "centroid": synthetic.object_points(scenario["objects"][label]).mean(axis=0),
                "band": scenario["force_band"],
                "grasp_time": scenario["grasp_time"],
            }

    def kind(self, i):
        return "long" if i % 8 in (3, 6) else "default"

    def prepare(self, i, seed):
        task = TASKS[i % 2]
        out = self.work / f"request{i}"
        argv = ["simulate", "--task", task, "--seed", str(seed), "--out", str(out)]
        if self.kind(i) == "long":
            argv += ["--config", str(self.long_config)]
        return {"task": task, "argv": argv, "out": out}

    def run(self, job):
        return _quiet_cli(job["argv"])

    def load(self, job, raw):
        code, console = raw
        log = json.loads((job["out"] / "tasklog.json").read_text()) if code == 0 else None
        return {"code": code, "console": console, "log": log, "truth": self.truth[job["task"]]}

    def discard(self, job):
        shutil.rmtree(job["out"], ignore_errors=True)

    @staticmethod
    def check(out):
        problems = _exit_problem(out)
        if problems:
            return problems
        truth = out["truth"]
        names = tuple(stage["name"] for stage in out["log"]["stages"])
        if names != STAGES:
            problems.append(f"stages {names}")
        data = {stage["name"]: stage["data"] for stage in out["log"]["stages"]}

        found = [c for c in data["perception"]["clusters"] if c["label"] == truth["label"]]
        if not found:
            problems.append(f"no cluster labelled {truth['label']}")
        elif min(_distance(c["centroid"], truth["centroid"]) for c in found) > CENTROID_TOL:
            problems.append(f"{truth['label']} centroid off by more than {CENTROID_TOL} m")

        force = data["force"]
        lo, hi = truth["band"]
        if not lo <= force["final_grip"] <= hi:
            problems.append(f"final grip {force['final_grip']} outside [{lo}, {hi}]")
        if not all(all(record["stable"]) for record in force["records"]):
            problems.append("a contact left its friction cone")

        adaptation = data["adaptation"]
        grasp = adaptation["via_points"][0]
        if grasp["t"] != truth["grasp_time"]:
            problems.append(f"grasp via-point at t={grasp['t']}")
        at = adaptation["times"].index(grasp["t"])
        gap = _distance(adaptation["means"][at], grasp["e"])
        if gap > VIA_TOL:
            problems.append(f"adapted mean {gap:.4f} from the grasp via-point")
        return problems

    @staticmethod
    def corrupt(out):
        def edit(label, change):
            bad = copy.deepcopy(out)
            change(bad, {stage["name"]: stage["data"] for stage in bad["log"]["stages"]})
            return label, bad

        def relabel(bad, data):
            for c in data["perception"]["clusters"]:
                c["label"] = "nothing"

        def shift_centroid(bad, data):
            for c in data["perception"]["clusters"]:
                c["centroid"][0] += 2 * CENTROID_TOL

        def slip(bad, data):
            data["force"]["records"][-1]["stable"][0] = False

        def move_mean(bad, data):
            adaptation = data["adaptation"]
            at = adaptation["times"].index(adaptation["via_points"][0]["t"])
            adaptation["means"][at][0] += 2 * VIA_TOL

        yield edit("exit code", lambda bad, data: bad.update(code=2))
        yield edit("stage order", lambda bad, data: bad["log"]["stages"].reverse())
        yield edit("target label", relabel)
        yield edit("target centroid", shift_centroid)
        yield edit("final grip", lambda bad, data: data["force"].update(
            final_grip=bad["truth"]["band"][1] + 0.1))
        yield edit("friction cone", slip)
        yield edit("grasp via-point", move_mean)


class Kernels:
    """``evaluation.benchmark_kernels`` as ``synkit benchmark-kernels`` calls
    it: three kernels, three via-point adaptation sets, dense-grid scoring
    and trajectory CSV dumps. Reference sizes N come in equal thirds."""

    name = "kernels"
    SIZES = (25, 100, 200)
    CYCLE = len(SIZES)
    SCALES = (0.85, 1.0, 1.15)  # cubical, spherical, cylindrical instances
    LAM = 1.0
    LENGTH_SCALE = 0.02

    def setup(self, work, seed):
        self.work = work
        self.datasets = {}
        for n in self.SIZES:
            config = pipeline.default_config("egg", seed=seed)
            config.gmm_seed = seed
            config.reference_points = n
            reference, dense, actual, _ = cli.benchmark_dataset(config)
            self.datasets[n] = (reference, dense, actual)
        self.scenario = synthetic.task_scenario("egg")
        self.specs = [
            kmp.KernelSpec(kind="exponential", l=self.LENGTH_SCALE, sigma2=1.0),
            kmp.KernelSpec(kind="gaussian", l=self.LENGTH_SCALE, sigma2=1.0),
            kmp.KernelSpec(kind="cauchy", l=self.LENGTH_SCALE, sigma2=1.0, alpha=1.0),
        ]

    def kind(self, i):
        return f"n{self.SIZES[i % self.CYCLE]}"

    def prepare(self, i, seed):
        n = self.SIZES[i % self.CYCLE]
        rng = np.random.default_rng(seed)
        scales = np.asarray(self.SCALES) * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, len(self.SCALES)))
        s = self.datasets[n][0].synergy_dim
        sc = self.scenario
        adaptations = [
            [kmp.ViaPoint(t_star=sc["grasp_time"], desired_e=scale * sc["grasp_e"],
                          desired_cov=1e-6 * np.eye(s)),
             kmp.ViaPoint(t_star=1.0, desired_e=scale * sc["manip_end_e"],
                          desired_cov=1e-6 * np.eye(s))]
            for scale in scales
        ]
        dump = self.work / f"request{i}"
        dump.mkdir(parents=True, exist_ok=True)
        # the first request of each size is also checked against the oracle
        return {"n": n, "seed": seed, "adaptations": adaptations, "dump": dump,
                "oracle": i < self.CYCLE}

    def run(self, job):
        reference, dense, actual = self.datasets[job["n"]]
        return evaluation.benchmark_kernels(
            reference, job["adaptations"], self.specs, lam=self.LAM, seed=job["seed"],
            grid=dense, actual=actual, dataset_id=f"egg-synthetic-n{job['n']}",
            dump_dir=job["dump"])

    def load(self, job, report):
        out = {"rows": copy.deepcopy(report.rows), "kinds": [s.kind for s in self.specs]}
        if job["oracle"]:
            reference, dense, actual = self.datasets[job["n"]]
            out["oracle"] = {
                "reference": reference, "grid": dense, "actual": actual.means,
                "specs": [s.to_dict() for s in self.specs], "lam": self.LAM,
                "vias": [[(v.t_star, v.desired_e) for v in vias]
                         for vias in job["adaptations"]],
                "dumped": {
                    (s.kind, idx): np.loadtxt(
                        job["dump"] / f"trajectory_{s.kind}_adaptation{idx}.csv",
                        delimiter=",", skiprows=1, ndmin=2)
                    for s in self.specs for idx in range(len(job["adaptations"]))
                },
            }
        return out

    def discard(self, job):
        shutil.rmtree(job["dump"], ignore_errors=True)

    @staticmethod
    def check(out):
        problems = []
        for kind in out["kinds"]:
            row = out["rows"][kind]
            if not (math.isfinite(row["R"]) and -1.0 <= row["R"] <= 1.0):
                problems.append(f"{kind}: R = {row['R']}")
            if not (math.isfinite(row["rmse"]) and row["rmse"] >= 0.0):
                problems.append(f"{kind}: rMSE = {row['rmse']}")
        if "oracle" in out:
            problems += Kernels._oracle_problems(out["rows"], out["oracle"])
        return problems

    @staticmethod
    def _oracle_problems(rows, o):
        problems = []
        reference, grid, actual = o["reference"], o["grid"], o["actual"]
        s = actual.shape[1]
        for spec in o["specs"]:
            scores = []
            for idx, vias in enumerate(o["vias"]):
                times, means = oracle.insert_vias(reference.times, reference.means, vias)
                want = oracle.predict_means(times, means, spec, o["lam"], grid)
                dumped = o["dumped"][(spec["kind"], idx)]
                if dumped.shape != (grid.shape[0], 1 + 2 * s):
                    problems.append(f"{spec['kind']}/{idx}: dump shape {dumped.shape}")
                    continue
                gap = float(np.max(np.abs(dumped[:, 1 + s:] - want)))
                if gap > ORACLE_TOL:
                    problems.append(f"{spec['kind']}/{idx}: prediction {gap:.2e} from oracle")
                scores.append(oracle.score(actual, want))
            r, e = np.mean(scores, axis=0)
            row = rows[spec["kind"]]
            if abs(row["R"] - r) > ORACLE_TOL or abs(row["rmse"] - e) > ORACLE_TOL:
                problems.append(f"{spec['kind']}: R/rMSE disagree with the oracle")
        return problems

    @staticmethod
    def corrupt(out):
        def edit(label, change):
            bad = copy.deepcopy(out)
            change(bad)
            return label, bad

        yield edit("R above 1", lambda bad: bad["rows"]["gaussian"].update(R=1.5))
        yield edit("negative rMSE", lambda bad: bad["rows"]["cauchy"].update(rmse=-0.1))
        yield edit("NaN rMSE", lambda bad: bad["rows"]["exponential"].update(rmse=math.nan))
        if "oracle" in out:
            yield edit("R off the oracle", lambda bad: bad["rows"]["cauchy"].update(
                R=bad["rows"]["cauchy"]["R"] - 1e-6))

            def nudge(bad):
                bad["oracle"]["dumped"][("gaussian", 1)][100, -1] += 1e-6

            yield edit("trajectory off the oracle", nudge)


class Scenes:
    """``synkit classify`` in-process over dense ASCII clouds of the egg
    scene written at set-up. Object density x1, x1.5 and x2 come in equal
    thirds; the table size varies independently of it."""

    name = "scenes"
    CYCLE = 9
    # One task only: ketchup at x1.5 has 2044 object points against egg's
    # 2286, and the gap between the two would sit exactly at the median.
    TASK = "egg"
    DENSITIES = (1.0, 1.5, 2.0)
    # Table grid sides, about 1.6k, 5.2k and 10.8k points. Under x2 objects a
    # 40 x 40 table holds fewer points than the objects and RANSAC fits a
    # tilted plane through the tray, so the smallest x2 table is 56 x 56.
    TABLES = {1.0: (40, 72, 104), 1.5: (40, 72, 104), 2.0: (56, 80, 104)}

    def setup(self, work, seed):
        self.work = work
        self.inputs = {}
        for density in self.DENSITIES:
            svm = work / f"svm_x{density}.json"
            scenes.dense_svm(self.TASK, density, seed).to_json(svm)
            for grid in self.TABLES[density]:
                cloud, truth = scenes.dense_scene(self.TASK, density, grid, seed)
                path = work / f"scene_x{density}_t{grid}.xyz"
                perception.save_cloud(path, cloud)
                self.inputs[density, grid] = (path, svm, truth)

    def kind(self, i):
        return f"x{self.DENSITIES[i % 3]}"

    def prepare(self, i, seed):
        density = self.DENSITIES[i % 3]
        grid = self.TABLES[density][(i // 3) % 3]
        cloud, svm, truth = self.inputs[density, grid]
        out = self.work / f"request{i}"
        argv = ["classify", "--cloud", str(cloud), "--svm", str(svm), "--seed", str(seed),
                "--out", str(out)]
        return {"argv": argv, "out": out, "truth": truth}

    def run(self, job):
        return _quiet_cli(job["argv"])

    def load(self, job, raw):
        code, console = raw
        seg = json.loads((job["out"] / "segmentation.json").read_text()) if code == 0 else None
        return {"code": code, "console": console, "segmentation": seg, "truth": job["truth"]}

    def discard(self, job):
        shutil.rmtree(job["out"], ignore_errors=True)

    @staticmethod
    def check(out):
        problems = _exit_problem(out)
        if problems:
            return problems
        clusters = out["segmentation"]["clusters"]
        if len(clusters) != len(out["truth"]):
            problems.append(f"{len(clusters)} clusters, expected {len(out['truth'])}")
        for label, centroid in out["truth"].items():
            found = [c for c in clusters if c["label"] == label]
            if len(found) != 1:
                problems.append(f"{len(found)} clusters labelled {label}")
            elif _distance(found[0]["centroid"], centroid) > CENTROID_TOL:
                problems.append(f"{label} centroid off by more than {CENTROID_TOL} m")
        return problems

    @staticmethod
    def corrupt(out):
        def edit(label, change):
            bad = copy.deepcopy(out)
            change(bad["segmentation"]["clusters"])
            return label, bad

        def swap_labels(clusters):
            clusters[0]["label"], clusters[1]["label"] = clusters[1]["label"], clusters[0]["label"]

        def shift(clusters):
            clusters[0]["centroid"][2] += 2 * CENTROID_TOL

        yield "exit code", {**out, "code": 2}
        yield edit("extra cluster", lambda clusters: clusters.append(copy.deepcopy(clusters[0])))
        yield edit("swapped labels", swap_labels)
        yield edit("centroid", shift)


WORKLOADS = {w.name: w for w in (Simulate, Kernels, Scenes)}
