"""Batch command line: fit, encode, predict, segment, classify, benchmark, simulate.

Exit codes: 0 on success, 1 on usage errors, 2 when a pipeline stage fails.
"""
from __future__ import annotations

import argparse
import dataclasses
import difflib
import functools
import sys
from pathlib import Path

import numpy as np

from . import encoding, evaluation, kmp, perception, pipeline, synergy, synthetic
from ._io import dump_json, write_csv
from .errors import InvalidInputError, SynkitError, UsageError

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def _build_parser():
    parser = _Parser(prog="synkit", description=__doc__)
    parser.add_argument("--print-config", action="store_true",
                        help="print the full default config template and exit")
    parser.add_argument("--task", dest="top_task", default=None, choices=synthetic.TASKS,
                        help="task for --print-config and the subcommands that take one")
    sub = parser.add_subparsers(dest="command")

    # Each subcommand takes --out plus the shared flags it reads: the flag
    # sets nest, so each parent adds one flag to the one before.
    out_flags = _Parser(add_help=False)
    out_flags.add_argument("--out", default="out", help="output directory")
    seed_flags = _Parser(add_help=False, parents=[out_flags])
    seed_flags.add_argument("--seed", type=int, default=None, help="override the default seed")
    task_flags = _Parser(add_help=False, parents=[seed_flags])
    task_flags.add_argument("--task", default=None, choices=synthetic.TASKS)
    config_flags = _Parser(add_help=False, parents=[task_flags])
    config_flags.add_argument("--config", default=None, help="pipeline config JSON")

    p = sub.add_parser("fit-synergies", parents=[out_flags],
                       help="fit a synergy basis from a postures CSV")
    p.add_argument("--input", required=True, help="CSV of postures, one per row")
    p.add_argument("--threshold", type=float, default=0.85)

    p = sub.add_parser("encode", parents=[config_flags],
                       help="encode generated demos into a GMR reference")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--noise", type=float, default=0.004)
    p.add_argument("--components", type=int, default=5)
    p.add_argument("--grid-points", type=int, default=25)

    p = sub.add_parser("kmp-predict", parents=[out_flags],
                       help="fit a KMP on a reference JSON and predict on a grid")
    p.add_argument("--reference", required=True)
    p.add_argument("--kernel", default="gaussian", choices=kmp.KERNEL_KINDS)
    p.add_argument("--length-scale", type=float, default=0.05)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--points", type=int, default=201)

    for name, text in (("segment", "plane removal plus clustering on an ASCII cloud"),
                       ("classify", "segment a cloud and label clusters with a trained SVM")):
        p = sub.add_parser(name, parents=[seed_flags], help=text)
        p.add_argument("--cloud", required=True)
        if name == "classify":
            p.add_argument("--svm", required=True, help="SvmModel JSON")
        p.add_argument("--iterations", type=int, default=300)
        p.add_argument("--threshold", type=float, default=0.005)
        p.add_argument("--epsilon", type=float, default=0.02)
        p.add_argument("--min-points", type=int, default=30)

    p = sub.add_parser("benchmark-kernels", parents=[config_flags],
                       help="compare the three kernels on the synthetic benchmark")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--length-scale", type=float, default=0.02)
    p.add_argument("--alpha", type=float, default=1.0)

    sub.add_parser("simulate", parents=[config_flags], help="run a full task simulation")

    p = sub.add_parser("generate", parents=[task_flags],
                       help="emit synthetic demos or a synthetic scene")
    p.add_argument("what", choices=("demos", "scene"))
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--noise", type=float, default=0.004)

    return parser


def _load_config(args, **overrides):
    """The --config file (or the task default) with the flags applied, validated once."""
    path = getattr(args, "config", None)  # generate takes no --config
    config = (pipeline.PipelineConfig.from_json(path) if path is not None
              else pipeline.default_config())
    if args.task is not None:
        overrides["task"] = args.task
    if args.seed is not None:
        overrides.update(seed=args.seed, gmm_seed=args.seed,
                         ransac_seed=args.seed + 1, svm_seed=args.seed + 2)
    return dataclasses.replace(config, out_dir=args.out, **overrides).validate()


def _out_dir(args) -> Path:
    """The --out directory, made only once the command has its results to write."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_fit_synergies(args):
    postures = synergy.load_postures_csv(args.input)
    configs = synergy.ConfigurationMatrix.from_postures(postures)
    basis = synergy.fit_synergy_basis(configs, args.threshold)
    out = _out_dir(args)
    basis.to_json(out / "basis.json")
    print(f"retained {basis.synergy_dim} synergies "
          f"(fractions {np.round(basis.variance_fractions, 4).tolist()}) -> {out / 'basis.json'}")
    return 0


def _cmd_encode(args):
    config = _load_config(args, demo_count=args.count, demo_noise=args.noise,
                          gmm_components=args.components, reference_points=args.grid_points)
    _, _, basis, model, reference = pipeline.build_reference(config)
    out = _out_dir(args)
    pipeline.save_learning(out, basis, model, reference)
    print(f"encoded {config.demo_count} demos into {len(reference)} reference points "
          f"-> {out / 'reference.json'}")
    return 0


def _cmd_kmp_predict(args):
    if not 1 <= args.points <= pipeline.MAX_DENSE_POINTS:
        raise InvalidInputError(
            f"--points must lie in [1, {pipeline.MAX_DENSE_POINTS}], got {args.points}")
    out = Path(args.out)  # save_kmp_predictions makes it once the prediction passes
    reference = encoding.ReferenceTrajectory.from_json(args.reference)
    alpha = args.alpha if args.kernel == "cauchy" else None
    spec = kmp.KernelSpec(kind=args.kernel, l=args.length_scale,
                          sigma2=args.sigma2, alpha=alpha)
    model = kmp.kmp_fit(reference, spec, args.lam)
    grid = np.linspace(float(reference.times[0]), float(reference.times[-1]), args.points)
    kmp.save_kmp_predictions(out / "predictions.csv", model, grid)
    print(f"predicted {args.points} points with {args.kernel} kernel "
          f"-> {out / 'predictions.csv'}")
    return 0


def _cmd_segment(args):
    """``segment``, and ``classify`` with its SVM: one detection path."""
    svm = perception.SvmModel.from_json(args.svm) if args.command == "classify" else None
    record, inliers, outliers, poses = perception.detect_objects(
        perception.load_cloud(args.cloud), iterations=args.iterations,
        threshold=args.threshold, seed=args.seed if args.seed is not None else 11,
        epsilon=args.epsilon, min_points=args.min_points, svm=svm)
    out = _out_dir(args)
    dump_json(record, out / "segmentation.json")
    if svm is None:
        print(f"plane inliers {inliers.shape[0]}, outliers {outliers.shape[0]}, "
              f"{len(poses)} clusters -> {out / 'segmentation.json'}")
    else:
        for pose in poses:
            print(f"{pose.label}: score {pose.score:.3f}, centroid "
                  f"{np.round(pose.centroid, 4).tolist()}")
    return 0


def benchmark_dataset(config: pipeline.PipelineConfig):
    """Reference, dense actual, and three object-instance adaptations."""
    _, _, basis, model, reference = pipeline.build_reference(config)
    config.check_basis(basis)
    dense = np.linspace(0.0, 1.0, config.dense_points)
    actual = encoding.generate_reference(model, dense)
    scenario = config.scenario()
    s = basis.synergy_dim
    adaptations = []
    for scale in (0.85, 1.0, 1.15):  # cubical, spherical, cylindrical instances
        adaptations.append([
            kmp.ViaPoint(t_star=scenario["grasp_time"],
                         desired_e=scale * scenario["grasp_e"],
                         desired_cov=1e-6 * np.eye(s)),
            kmp.ViaPoint(t_star=1.0,
                         desired_e=scale * scenario["manip_end_e"],
                         desired_cov=1e-6 * np.eye(s)),
        ])
    return reference, dense, actual, adaptations


def _cmd_benchmark(args):
    out = Path(args.out)  # benchmark_kernels makes it once every kernel is fitted
    config = _load_config(args)
    reference, dense, actual, adaptations = benchmark_dataset(config)
    specs = [kmp.KernelSpec(kind=kind, l=args.length_scale, sigma2=config.kernel_sigma2,
                            alpha=args.alpha if kind == "cauchy" else None)
             for kind in kmp.KERNEL_KINDS]
    report = evaluation.benchmark_kernels(
        reference, adaptations, specs, lam=args.lam, seed=config.seed,
        grid=dense, actual=actual, dataset_id=f"{config.task}-synthetic",
        dump_dir=out)
    (out / "report.json").write_text(report.to_json())
    (out / "report.txt").write_text(report.to_text())
    print(report.to_text(), end="")
    return 0


def _cmd_simulate(args):
    config = _load_config(args)
    log = pipeline.run_task(config)
    force_stage = log.stage("force")
    print(f"task {config.task}: final grip {force_stage['final_grip']:.3f} N "
          f"in band {force_stage['band']}, stable={force_stage['all_stable']} "
          f"-> {Path(config.out_dir) / 'tasklog.json'}")
    return 0


def _cmd_generate(args):
    config = _load_config(args, demo_count=args.count, demo_noise=args.noise)
    out = _out_dir(args)
    task, seed = config.task, config.seed
    if args.what == "demos":
        demos, truth = synthetic.generate_synthetic_demos(
            task, count=args.count, noise=args.noise, seed=seed)
        joints = [f"q{j + 1}" for j in range(demos[0][1].shape[1])]
        for k, (times, angles) in enumerate(demos):
            write_csv(out / f"demo_{k:02d}.csv", ["t", *joints],
                      np.column_stack([times, angles]))
        write_csv(out / "postures.csv", joints, np.vstack([angles for _, angles in demos]))
        dump_json({
            "task": task, "seed": seed, "count": args.count, "noise": args.noise,
            "directions": truth["directions"].tolist(),
            "theta0": truth["theta0"].tolist(),
        }, out / "demos_truth.json")
        print(f"wrote {len(demos)} demos -> {out}")
    else:
        cloud, meta = synthetic.generate_synthetic_scene(task, seed=seed)
        perception.save_cloud(out / "scene.xyz", cloud)
        dump_json(meta, out / "scene_truth.json")
        features, labels = synthetic.svm_training_fixture(task, seed=seed + 2)
        svm = perception.svm_train(features, labels)
        svm.to_json(out / "svm.json")
        print(f"wrote scene with {cloud.shape[0]} points -> {out}")
    return 0


_DISPATCH = {
    "fit-synergies": _cmd_fit_synergies,
    "encode": _cmd_encode,
    "kmp-predict": _cmd_kmp_predict,
    "segment": _cmd_segment,
    "classify": _cmd_segment,
    "benchmark-kernels": _cmd_benchmark,
    "simulate": _cmd_simulate,
    "generate": _cmd_generate,
}


def cli_dispatch(argv) -> int:
    argv = list(argv)
    parser = _build_parser()
    if argv and argv[0] not in _DISPATCH and not argv[0].startswith("-"):
        nearest = difflib.get_close_matches(argv[0], list(_DISPATCH), n=1)
        hint = f"; did you mean {nearest[0]!r}?" if nearest else ""
        print(f"error: unknown subcommand {argv[0]!r}{hint}", file=sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.print_config:
        print(pipeline.default_config(task=args.top_task or "egg").to_json(), end="")
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 1
    # only the subcommands that take --task have a task attribute
    if args.top_task is not None and not hasattr(args, "task"):
        print(f"error: {args.command} does not take --task", file=sys.stderr)
        return 1
    args.task = getattr(args, "task", None) or args.top_task
    try:
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SynkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
