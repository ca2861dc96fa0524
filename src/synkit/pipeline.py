"""End-to-end task orchestration: learn, perceive, adapt, squeeze.

Runs the full stage graph on synthetic data: synergy extraction from
demonstrations, probabilistic encoding, kernelized regression, scene
segmentation and classification, pose-driven via-point adaptation, joint
reconstruction, and the tactile force loop with friction-cone checks.
Every stage appends a JSON-serializable record to the task log, and all
randomness flows through seeds carried by the configuration.
"""
from __future__ import annotations

import dataclasses
import math
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import encoding, evaluation, force, kmp, perception, synergy, synthetic
from ._io import JsonRecord, dump_json, read_csv, write_csv
from .errors import ConfigInvalidError, DimensionMismatchError, StageError, SynkitError

__all__ = ["PipelineConfig", "TaskLog", "default_config", "run_task", "build_reference",
           "detect_objects", "save_learning"]


@dataclass
class PipelineConfig(JsonRecord):
    """Every knob of the pipeline, JSON round-trippable.

    Optional ``demos_path`` (directory of demo_*.csv trajectories) and
    ``scene_path`` (ASCII cloud) switch those stages from synthetic
    generation to file ingestion; ``models_dir`` reuses a persisted
    ``basis.json`` / ``svm.json`` when present. Force band and friction
    defaults come from the task scenario when left None. A JSON config may
    leave out any key; ``validate`` runs once the overrides are applied.
    """

    json_error = ConfigInvalidError

    task: str = "egg"
    seed: int = 7
    out_dir: str | None = None
    demos_path: str | None = None
    scene_path: str | None = None
    models_dir: str | None = None
    synergy_threshold: float = 0.85
    demo_count: int = 8
    demo_noise: float = 0.004
    gmm_components: int = 5
    gmm_seed: int = 7
    gmm_max_iter: int = 200
    gmm_tol: float = 1e-6
    kernel_kind: str = "cauchy"
    kernel_l: float = 0.05
    kernel_sigma2: float = 1.0
    kernel_alpha: float = 1.0
    lam: float = 1e-6
    reference_points: int = 25
    dense_points: int = 201
    ransac_iterations: int = 300
    ransac_threshold: float = 0.005
    ransac_seed: int = 11
    cluster_epsilon: float = 0.02
    cluster_min_points: int = 30
    svm_c: float = 10.0
    svm_epochs: int = 200
    svm_seed: int = 13
    force_mu: float | None = None
    force_gain: float = 0.5
    force_target_low: float | None = None
    force_target_high: float | None = None
    force_steps: int = 80
    force_dt: float = 0.05
    force_lag: float = 0.15
    via_confidence: float = 1e-6

    def validate(self):
        """Check every field against its annotation, then the cross-field rules.

        Ints must be ints (not bools), floats finite, ``| None`` fields may be
        None; every number must be positive unless ``_MINIMUM`` gives its
        least allowed value, and at most its ``_MAXIMUM`` where it has one.
        """
        for name, kinds in _KINDS.items():
            value, kind = getattr(self, name), kinds[0]
            if value is None and type(None) in kinds:
                continue
            accepted = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ConfigInvalidError(f"{name} must be {kind.__name__}, got {value!r}")
            if kind is str:
                if name in _CHOICES and value not in _CHOICES[name]:
                    raise ConfigInvalidError(
                        f"unknown {name} {value!r}; choose from {_CHOICES[name]}")
            elif not math.isfinite(value):
                raise ConfigInvalidError(f"{name} must be finite, got {value!r}")
            elif name in _MINIMUM:
                if value < _MINIMUM[name]:
                    raise ConfigInvalidError(f"{name} must be >= {_MINIMUM[name]}, got {value!r}")
            elif value <= 0:
                raise ConfigInvalidError(f"{name} must be positive, got {value!r}")
            if name in _MAXIMUM and value > _MAXIMUM[name]:
                raise ConfigInvalidError(f"{name} must be <= {_MAXIMUM[name]}, got {value!r}")
        if self.demos_path is None:  # build_reference checks the demo files once counted
            self.check_em_size(self.demo_count)
        if self.synergy_threshold > 1.0:
            raise ConfigInvalidError("synergy_threshold must lie in (0, 1]")
        band = (self.force_target_low, self.force_target_high)
        if None not in band and band[0] >= band[1]:
            raise ConfigInvalidError("force target band must satisfy low < high")
        a = self.force_dt / self.force_lag  # Jury's test on the force loop's 2x2 recurrence
        if not (0.0 < a < 2.0 and self.force_gain * a < 2.0 * (2.0 - a)):
            raise ConfigInvalidError(
                "force loop is unstable: need 0 < a = force_dt / force_lag < 2 and "
                f"force_gain * a < 2 (2 - a), got a = {a!r}, force_gain = {self.force_gain!r}")
        for path_name in ("demos_path", "scene_path", "models_dir"):
            path = getattr(self, path_name)
            if path is not None and not Path(path).exists():
                raise ConfigInvalidError(f"{path_name} does not exist: {path}")
        return self

    def kernel_spec(self) -> kmp.KernelSpec:
        alpha = self.kernel_alpha if self.kernel_kind == "cauchy" else None
        return kmp.KernelSpec(kind=self.kernel_kind, l=self.kernel_l,
                              sigma2=self.kernel_sigma2, alpha=alpha)

    def scenario(self):
        return synthetic.task_scenario(self.task)

    def force_band(self):
        lo, hi = self.scenario()["force_band"]
        return (
            self.force_target_low if self.force_target_low is not None else lo,
            self.force_target_high if self.force_target_high is not None else hi,
        )

    def mu(self) -> float:
        return self.force_mu if self.force_mu is not None else self.scenario()["mu"]

    def check_em_size(self, demo_count):
        """Raise unless EM on ``demo_count`` demos stays within MAX_COMPONENT_SAMPLES."""
        size = self.gmm_components * demo_count * self.reference_points
        if size > MAX_COMPONENT_SAMPLES:
            raise ConfigInvalidError(
                f"gmm_components * demos * reference_points must be <= {MAX_COMPONENT_SAMPLES}, "
                f"got {self.gmm_components} * {demo_count} * {self.reference_points} = {size}")

    def check_basis(self, basis):
        """Raise unless the basis keeps as many synergies as the task's waypoints have."""
        steered = self.scenario()["grasp_e"].size
        if basis.synergy_dim != steered:
            raise DimensionMismatchError(
                f"the basis has synergy dimension {basis.synergy_dim} but the {self.task} "
                f"waypoints have dimension {steered}; adjust synergy_threshold or the demos")


# Each field's types from its annotation, its own type first: float | None
# gives (float, NoneType). Computed once; validate runs on every request.
_KINDS = {name: typing.get_args(hint) or (hint,)
          for name, hint in typing.get_type_hints(PipelineConfig).items()}
# Least allowed values of the numeric fields that may be zero or must exceed
# one; every other number must be positive.
_MINIMUM = {"seed": 0, "gmm_seed": 0, "ransac_seed": 0, "svm_seed": 0,
            "demo_noise": 0.0, "demo_count": 2}
# Largest sizes, so that the largest allowed run at the default 5 mixture
# components allocates under about 1 GiB.
# A dense point costs about 1.25 KiB: (S, S) covariance temporaries and its
# CSV row, measured as +61 MiB of peak RSS for 50,000 kmp-predict points at
# the hand's largest synergy dimension S = 6; 500,000 points take 610 MiB.
MAX_DENSE_POINTS = 500_000
# The KMP covariance system is (2N)^2 float64, 32 N^2 bytes, with S = 2 in
# every run that fits KMP on the reference; at most four such arrays are live
# at once (kernel, Kronecker product, solve copy, eigvalsh), 128 N^2 bytes,
# which is 512 MB at 2,000 points. The subnormal cutoff's two boolean masks,
# 8 N^2 bytes, are freed before the solve copy or eigvalsh is made.
MAX_REFERENCE_POINTS = 2_000
# A force step costs about 2.8 KiB (its record dict, its friction flags and
# its tasklog.json text) and 25 us, measured as +86 MiB of peak RSS and +0.8 s
# for simulate at 64,000 steps against 32,000; 250,000 steps take 670 MiB
# and about 6 s, and write a 92 MB tasklog.json.
MAX_FORCE_STEPS = 250_000
# A demonstration costs about 1.1 MiB at the largest reference grid, 2,000
# points: its interpolated trajectory and its EM samples, whose (C, d)
# temporaries are live at once. Measured as +45 MiB of peak RSS and +2.6 s
# for encode --grid-points 2000 at 80 demos against 40; 500 demos take
# 560 MiB and about a minute of EM.
MAX_DEMO_COUNT = 500
# A mixture component costs about 90-120 bytes per EM sample: k-means++
# seeding, Lloyd and every E-step hold (M, C, d) or (C, d, M) float64
# temporaries, with d = 3 for the tasks' two synergies. Measured as +267 MiB
# of peak RSS for encode --count 40 --grid-points 2000 (80,000 samples) at 40
# components against 10, and 918 MiB peak and 4 minutes at 100 components on
# 100,000 samples (50 demos).
MAX_GMM_COMPONENTS = 100
# That cost is components times samples (demos times reference_points):
# +80 MiB of peak RSS for encode --count 40 --grid-points 500 (20,000 samples)
# at 50 components against 10, about 105 bytes per component-sample, so the
# 10^7 allowed take about 1 GiB, as the 918 MiB peak at 100 components on
# 100,000 samples confirms. Without it 100 components on the largest sample
# count, 1,000,000, would take about 9 GiB.
MAX_COMPONENT_SAMPLES = 10_000_000
# svm_train's Newton matrix loses its rank at large C. On the training fixtures
# of both tasks at svm_seed 0-39, 20 values of C a decade, the least C that
# failed was 6.3e3, and none of 56 from 10 to 5.6e3 did; at C >= 10 those fixtures
# are separable, so every converged fit reads the same objective.
MAX_SVM_C = 1e3
_MAXIMUM = {"dense_points": MAX_DENSE_POINTS, "reference_points": MAX_REFERENCE_POINTS,
            "ransac_iterations": perception.RANSAC_MAX_ITERATIONS,
            "force_steps": MAX_FORCE_STEPS, "demo_count": MAX_DEMO_COUNT,
            "gmm_components": MAX_GMM_COMPONENTS, "svm_c": MAX_SVM_C}
_CHOICES = {"task": synthetic.TASKS, "kernel_kind": kmp.KERNEL_KINDS}


def default_config(task: str = "egg", seed: int = 7) -> PipelineConfig:
    return PipelineConfig(task=task, seed=seed)


@dataclass
class TaskLog(JsonRecord):
    """Ordered stage records of one pipeline run."""

    task: str
    config: dict
    stages: list = field(default_factory=list)

    def add(self, name: str, data: dict):
        self.stages.append({"name": name, "data": data})

    def stage(self, name: str) -> dict:
        for s in self.stages:
            if s["name"] == name:
                return s["data"]
        raise KeyError(name)



# Stage names in execution order; the learning stages precede the perception
# stages, which precede the force loop.
STAGE_ORDER = (
    "synergy",
    "encoding",
    "kmp",
    "perception",
    "adaptation",
    "reconstruction",
    "force",
    "metrics",
)


@contextmanager
def _stage(name):
    """Re-raise a stage's failure as StageError; interrupts pass through."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def load_demo_dir(path):
    """Read timed demonstrations from a directory of ``demo_*.csv`` files.

    Each file is a ``read_csv`` table of rows ``t, q1..qJ``, the format the
    ``generate demos`` command emits. A file that is not such a table, holds
    no data rows, or has another width than the first file is named.
    """
    files = sorted(Path(path).glob("demo_*.csv"))
    if not files:
        raise ConfigInvalidError(f"no demo_*.csv files under {path}")
    demos = []
    for f in files:
        rows = read_csv(f)
        if demos and rows.shape[1] != width:
            raise DimensionMismatchError(
                f"{f} has {rows.shape[1]} columns, but {files[0]} has {width}")
        width = rows.shape[1]
        demos.append((rows[:, 0], rows[:, 1:]))
    return demos


def build_reference(config: PipelineConfig):
    """Learning-phase artifacts: demos, fitted basis, GMM, GMR reference.

    A failure is a StageError naming the synergy or the encoding stage.
    """
    with _stage("synergy"):
        if config.demos_path is not None:
            demos = load_demo_dir(config.demos_path)
        else:
            demos, _ = synthetic.generate_synthetic_demos(
                config.task, count=config.demo_count, noise=config.demo_noise,
                seed=config.seed,
            )
        basis_file = _saved_model(config, "basis.json")
        if basis_file is not None:
            basis = synergy.SynergyBasis.from_json(basis_file)
        else:
            postures = np.vstack([angles for _, angles in demos])
            basis = synergy.fit_synergy_basis(postures, config.synergy_threshold,
                                              theta0=synthetic.nominal_posture())
    with _stage("encoding"):
        config.check_em_size(len(demos))
        grid = np.linspace(0.0, 1.0, config.reference_points)
        coeffs = encoding.interpolate_coefficients(demos, basis, grid)
        model = encoding.fit_gmm(grid, coeffs, n_components=config.gmm_components,
                                 seed=config.gmm_seed, max_iter=config.gmm_max_iter,
                                 tol=config.gmm_tol)
        reference = encoding.generate_reference(model, grid)
    return demos, basis, model, reference


def detect_objects(config: PipelineConfig, cloud, svm=None):
    """``perception.detect_objects`` with the config's RANSAC and clustering settings."""
    return perception.detect_objects(
        cloud, iterations=config.ransac_iterations, threshold=config.ransac_threshold,
        seed=config.ransac_seed, epsilon=config.cluster_epsilon,
        min_points=config.cluster_min_points, svm=svm)


def save_learning(out, basis, model, reference):
    """Write the learning-phase artifacts: basis, mixture and GMR reference."""
    out = Path(out)
    basis.to_json(out / "basis.json")
    model.to_json(out / "gmm.json")
    reference.to_json(out / "reference.json")
    reference.to_csv(out / "reference.csv")


def _saved_model(config, name):
    """Path of the model file ``name`` under ``models_dir``, or None when absent."""
    if config.models_dir is None:
        return None
    path = Path(config.models_dir) / name
    return path if path.exists() else None


# The tripod grasp: its contact count, the closing stiffness of the first
# synergy onto the contact normals, and the motor constant's diagonal.
GRASP_CONTACTS = 3
CLOSING_STIFFNESS = 40.0
MOTOR_GAIN = 0.5


def build_grasp_model(basis, contact_radius: float) -> force.GraspModel:
    """Tripod grasp mechanics around a detected object.

    Closing is driven by the first synergy direction through a rank-one
    stiffness onto the contact normals; the hand Jacobian is an orthonormal
    column basis whose first column is the shared normal direction, so the
    grip magnitude survives the force-current round trip exactly.
    """
    # contacts evenly around a horizontal circle, each frame (t1, t2, n) with
    # n inward; a contact at p adds rot on top and skew(p) @ rot below
    top, bottom = [], []
    for i in range(GRASP_CONTACTS):
        theta = 2.0 * np.pi * i / GRASP_CONTACTS
        outward = np.array([np.cos(theta), np.sin(theta), 0.0])
        px, py, pz = contact_radius * outward
        n = -outward
        t1 = np.cross([0.0, 0.0, 1.0], n)
        t1 /= np.linalg.norm(t1)
        rot = np.column_stack([t1, np.cross(n, t1), n])
        top.append(rot)
        bottom.append(np.array([[0.0, -pz, py], [pz, 0.0, -px], [-py, px, 0.0]]) @ rot)
    grasp_matrix = np.vstack([np.hstack(top), np.hstack(bottom)])

    pattern = force.normal_pattern(GRASP_CONTACTS)
    stiffness = CLOSING_STIFFNESS * np.outer(pattern, basis.e_hat[:, 0])

    j = basis.joint_dim
    rows = np.arange(1, 3 * GRASP_CONTACTS + 1, dtype=float)
    seed_cols = np.column_stack([pattern] + [np.cos((k + 1) * rows) for k in range(j - 1)])
    q, _ = np.linalg.qr(seed_cols)
    if q[:, 0] @ pattern < 0.0:
        q = -q
    hand_jacobian = q
    motor_constant = MOTOR_GAIN * np.eye(j)
    return force.GraspModel(grasp_matrix=grasp_matrix, stiffness=stiffness,
                            hand_jacobian=hand_jacobian, motor_constant=motor_constant)


def _run_force_loop(config: PipelineConfig, basis, grasp_model):
    """First-order grip plant tracking a ramped force target.

    The measured grip lags the commanded grip with time constant
    ``force_lag``; each step applies a synergy correction from the scalar
    target-minus-measured grip error and logs the per-contact friction-cone
    flags. ``force.adapt_force`` is linear in the error, so every correction
    lies along its unit-error, unit-gain direction ``v``, and the loop runs on
    the scalar ``d`` of ``delta_e = d v``; the realized forces ``F_w + d F_v``
    and their flags are formed for all steps at once.
    """
    lo, hi = config.force_band()
    target_final = 0.5 * (lo + hi)
    mu = config.mu()
    scenario = config.scenario()
    weight = scenario["object_mass"] * 9.81
    omega = np.array([0.0, 0.0, weight, 0.0, 0.0, 0.0])

    dt = config.force_dt
    steps = config.force_steps
    ramp_time = 0.5 * steps * dt
    ramp_rate = (target_final - lo) / ramp_time

    coupling_pinv = np.linalg.pinv(grasp_model.stiffness @ basis.e_hat)
    v = force.adapt_force(1.0, coupling_pinv, gain=1.0)

    def realized(wrench, delta_e):
        contacts = force.contact_forces(grasp_model, wrench, basis, delta_e)
        return force.realized_forces(grasp_model, force.motor_currents(grasp_model, contacts))

    f_w, f_v = realized(omega, np.zeros_like(v)), realized(np.zeros(6), v)
    c_w, c_v = force.grip_force(f_w), force.grip_force(f_v)

    d = measured = float(lo)
    records, d_steps = [], []
    for k in range(steps):
        t = k * dt
        target_k = lo + min(t / ramp_time, 1.0) * (target_final - lo)
        d += config.force_gain * (target_k - measured)
        command = c_w + c_v * d
        records.append({"t": t, "target": float(target_k), "measured": measured,
                        "command": command})
        d_steps.append(d)
        measured = measured + (dt / config.force_lag) * (command - measured)

    d_steps = np.array(d_steps)
    stable = force.friction_cone_check(f_w + d_steps[:, None, None] * f_v, mu)
    for record, flags, delta_e in zip(records, stable.tolist(),
                                      (d_steps[:, None] * v).tolist()):
        record.update(stable=flags, delta_e=delta_e)
    final_grip = float(measured)
    return {
        "mu": mu,
        "band": [lo, hi],
        "target": target_final,
        "ramp_rate": ramp_rate,
        "records": records,
        "final_grip": final_grip,
        "settled": bool(lo <= final_grip <= hi),
        "all_stable": bool(stable.all()),
    }


def run_task(config: PipelineConfig) -> TaskLog:
    """Execute the full pipeline for one task and write its artifacts.

    Stage errors are re-raised as StageError carrying the stage name, and a
    failed run writes no artifact. The log (and every artifact, when
    ``out_dir`` is set) is reproducible from the configuration alone.
    """
    config.validate()
    scenario = config.scenario()
    log = TaskLog(task=config.task, config=dataclasses.asdict(config))

    with _stage("synergy"):
        demos, basis, gmm_model, reference = build_reference(config)
        config.check_basis(basis)
        log.add("synergy", {
            "joint_dim": basis.joint_dim,
            "retained": basis.synergy_dim,
            "variance_fractions": basis.variance_fractions.tolist(),
            "theta0": basis.theta0.tolist(),
            "demo_count": len(demos),
        })

    with _stage("encoding"):
        # fit_gmm stops once a log-likelihood step falls below gmm_tol
        ll = gmm_model.ll_history
        final_ll_delta = float(ll[-1] - ll[-2]) if ll.shape[0] >= 2 else None
        converged = final_ll_delta is not None and final_ll_delta < config.gmm_tol
        log.add("encoding", {
            "components": gmm_model.n_components,
            "em_iterations": int(ll.shape[0]),
            "log_likelihood": float(ll[-1]),
            "converged": converged,
            "final_ll_delta": final_ll_delta,
            "grid_points": len(reference),
        })

    with _stage("kmp"):
        spec = config.kernel_spec()
        baseline = kmp.kmp_fit(reference, spec, config.lam)
        log.add("kmp", {
            "kernel": spec.to_dict(),
            "lambda": config.lam,
            "reference_points": baseline.n_reference,
        })

    with _stage("perception"):
        if config.scene_path is not None:
            cloud = perception.load_cloud(config.scene_path)
        else:
            cloud, _scene_meta = synthetic.generate_synthetic_scene(
                config.task, seed=config.ransac_seed)
        svm_file = _saved_model(config, "svm.json")
        if svm_file is not None:
            svm = perception.SvmModel.from_json(svm_file)
            train_accuracy = None
        else:
            features, labels = synthetic.svm_training_fixture(config.task,
                                                              seed=config.svm_seed)
            svm = perception.svm_train(features, labels, c=config.svm_c, epochs=config.svm_epochs)
            # ties go to the positive class, as in svm_classify
            positive = np.asarray(labels) == svm.classes[1]
            train_accuracy = float(np.mean(
                (perception.svm_decision(svm, features) >= 0.0) == positive))
        record, inliers, outliers = detect_objects(config, cloud, svm)
        log.add("perception", {
            **record,
            "inlier_count": int(inliers.shape[0]),
            "outlier_count": int(outliers.shape[0]),
            "svm_epochs": int(svm.objective_history.shape[0]) - 1,
            "svm_objective": float(svm.objective_history[-1]),
            "svm_train_accuracy": train_accuracy,
        })

    with _stage("adaptation"):
        target_label = scenario["target_label"]
        detected = [c for c in record["clusters"] if c["label"] == target_label]
        if not detected:
            raise SynkitError(f"no cluster classified as {target_label!r}")
        target = detected[0]

        nominal_points = synthetic.object_points(scenario["objects"][target_label])
        nominal_pose = perception.estimate_pose(
            perception.Cluster(np.arange(nominal_points.shape[0]), nominal_points),
            label=target_label)
        pose_delta = (perception.pose_to_synergy(target, basis)
                      - perception.pose_to_synergy(nominal_pose, basis))

        # the grasp via-point shifted by the pose delta, then the manipulation
        # phase steered along the task curve at every reference step from its start
        cov = config.via_confidence * np.eye(basis.synergy_dim)
        t0 = scenario["manip_start_time"]
        steering = sorted({float(t) for t in reference.times if t >= t0 - 1e-12} | {t0, 1.0})
        via_points = [kmp.ViaPoint(t_star=scenario["grasp_time"],
                                   desired_e=scenario["grasp_e"] + pose_delta, desired_cov=cov)]
        via_points += [kmp.ViaPoint(t_star=t, desired_e=e, desired_cov=cov) for t, e in
                       zip(steering, synthetic.coefficient_curves(config.task, steering))]
        adapted_reference = kmp.apply_via_points(reference, via_points)
        adapted = kmp.kmp_fit(adapted_reference, spec, config.lam)
        # executed steps follow the adapted reference grid
        steps = np.asarray(adapted_reference.times)
        means = kmp.kmp_predict(adapted, steps)
        log.add("adaptation", {
            "pose_delta": pose_delta.tolist(),
            "via_points": [
                {"t": vp.t_star, "e": vp.desired_e.tolist(),
                 "confidence": config.via_confidence}
                for vp in via_points
            ],
            "times": steps.tolist(),
            "means": means.tolist(),
        })

    with _stage("reconstruction"):
        joints = synergy.reconstruct(basis, means)
        log.add("reconstruction", {"joint_angles": joints.tolist()})

    with _stage("force"):
        contact_radius = 0.5 * float(np.mean(target["extents"][:2]))
        grasp_model = build_grasp_model(basis, contact_radius)
        force_log = _run_force_loop(config, basis, grasp_model)
        log.add("force", force_log)

    with _stage("metrics"):
        r, e = evaluation.component_scores(kmp.kmp_predict(baseline, steps), means[None])
        per_r, per_e = r[0].tolist(), e[0].tolist()
        log.add("metrics", {
            "R": float(np.mean(per_r)),
            "rmse": float(np.mean(per_e)),
            "per_component_R": per_r,
            "per_component_rmse": per_e,
        })

    if config.out_dir is not None:
        out_dir = Path(config.out_dir)
        # the dense prediction, for plotting only, goes first: its covariance
        # check can fail, and save_kmp_predictions makes out_dir only once it passes
        with _stage("adaptation"):
            dense = np.linspace(0.0, 1.0, config.dense_points)
            kmp.save_kmp_predictions(out_dir / "predictions.csv", adapted, dense)
        dump_json(record, out_dir / "segmentation.json")
        svm.to_json(out_dir / "svm.json")
        write_csv(out_dir / "grip_force.csv", ["t", "force"],
                  [(r["t"], r["measured"]) for r in force_log["records"]])
        save_learning(out_dir, basis, gmm_model, reference)
        log.to_json(out_dir / "tasklog.json")
    return log
