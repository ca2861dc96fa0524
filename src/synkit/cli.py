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
from ._io import dump_json, read_csv, write_csv, write_file
from .errors import SynkitError, UsageError

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
    # sets nest, so each parent adds one flag to the one before. A flag that
    # sets a pipeline value has that PipelineConfig field as its dest and no
    # default, so the config gives its default and _load_config validates it.
    out_flags = _Parser(add_help=False)
    out_flags.add_argument("--out", default="out", help="output directory")
    seed_flags = _Parser(add_help=False, parents=[out_flags])
    seed_flags.add_argument("--seed", type=int, help="override the config seeds")
    task_flags = _Parser(add_help=False, parents=[seed_flags])
    task_flags.add_argument("--task", choices=synthetic.TASKS)
    config_flags = _Parser(add_help=False, parents=[task_flags])
    config_flags.add_argument("--config", help="pipeline config JSON")
    demo_flags = _Parser(add_help=False)
    demo_flags.add_argument("--count", dest="demo_count", type=int)
    demo_flags.add_argument("--noise", dest="demo_noise", type=float)

    p = sub.add_parser("fit-synergies", parents=[out_flags],
                       help="fit a synergy basis from a postures CSV")
    p.add_argument("--input", required=True, help="CSV of postures, one per row")
    p.add_argument("--threshold", dest="synergy_threshold", type=float)

    p = sub.add_parser("encode", parents=[config_flags, demo_flags],
                       help="encode generated demos into a GMR reference")
    p.add_argument("--components", dest="gmm_components", type=int)
    p.add_argument("--grid-points", dest="reference_points", type=int)

    # kmp-predict and benchmark-kernels keep defaults of their own for the
    # kernel, so their kernel flags name no config field
    p = sub.add_parser("kmp-predict", parents=[out_flags],
                       help="fit a KMP on a reference JSON and predict on a grid")
    p.add_argument("--reference", required=True)
    p.add_argument("--kernel", default="gaussian", choices=kmp.KERNEL_KINDS)
    p.add_argument("--length-scale", type=float, default=0.05)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--lam", dest="kmp_lambda", type=float, default=1.0)
    p.add_argument("--points", dest="dense_points", type=int)

    for name, text in (("segment", "plane removal plus clustering on an ASCII cloud"),
                       ("classify", "segment a cloud and label clusters with a trained SVM")):
        p = sub.add_parser(name, parents=[out_flags], help=text)
        p.add_argument("--cloud", required=True)
        if name == "classify":
            p.add_argument("--svm", required=True, help="SvmModel JSON")
        p.add_argument("--seed", dest="ransac_seed", type=int, help="override the RANSAC seed")
        p.add_argument("--iterations", dest="ransac_iterations", type=int)
        p.add_argument("--threshold", dest="ransac_threshold", type=float)
        p.add_argument("--epsilon", dest="cluster_epsilon", type=float)
        p.add_argument("--min-points", dest="cluster_min_points", type=int)

    p = sub.add_parser("benchmark-kernels", parents=[config_flags],
                       help="compare the three kernels on the synthetic benchmark")
    p.add_argument("--lam", dest="kmp_lambda", type=float, default=1.0)
    p.add_argument("--length-scale", type=float, default=0.02)
    p.add_argument("--alpha", type=float, default=1.0)

    sub.add_parser("simulate", parents=[config_flags], help="run a full task simulation")

    p = sub.add_parser("generate", parents=[task_flags, demo_flags],
                       help="emit synthetic demos or a synthetic scene")
    p.add_argument("what", choices=("demos", "scene"))

    return parser


_FIELDS = frozenset(f.name for f in dataclasses.fields(pipeline.PipelineConfig))


def _load_config(args):
    """The --config file (or the default config) with the given flags applied,
    validated once: each flag whose dest is a config field sets that field."""
    path = getattr(args, "config", None)  # only some commands take --config
    config = (pipeline.PipelineConfig.from_json(path) if path is not None
              else pipeline.default_config())
    overrides = {name: value for name, value in vars(args).items()
                 if name in _FIELDS and value is not None}
    if "seed" in overrides:  # one --seed sets every seed of the run
        seed = overrides["seed"]
        overrides.update(gmm_seed=seed, ransac_seed=seed + 1, svm_seed=seed + 2)
    return dataclasses.replace(config, out_dir=args.out, **overrides).validate()


def _cmd_fit_synergies(args):
    config = _load_config(args)
    basis = synergy.fit_synergy_basis(read_csv(args.input), config.synergy_threshold)
    out = Path(args.out)
    basis.to_json(out / "basis.json")
    print(f"retained {basis.synergy_dim} synergies "
          f"(fractions {np.round(basis.variance_fractions, 4).tolist()}) -> {out / 'basis.json'}")
    return 0


def _cmd_encode(args):
    config = _load_config(args)
    _, basis, model, reference = pipeline.build_reference(config)
    out = Path(args.out)
    pipeline.save_learning(out, basis, model, reference)
    print(f"encoded {config.demo_count} demos into {len(reference)} reference points "
          f"-> {out / 'reference.json'}")
    return 0


def _cmd_kmp_predict(args):
    points = _load_config(args).dense_points
    out = Path(args.out)
    reference = encoding.ReferenceTrajectory.from_json(args.reference)
    alpha = args.alpha if args.kernel == "cauchy" else None
    spec = kmp.KernelSpec(kind=args.kernel, l=args.length_scale,
                          sigma2=args.sigma2, alpha=alpha)
    model = kmp.kmp_fit(reference, spec, args.kmp_lambda)
    grid = np.linspace(float(reference.times[0]), float(reference.times[-1]), points)
    kmp.save_kmp_predictions(out / "predictions.csv", model, grid)
    print(f"predicted {points} points with {args.kernel} kernel "
          f"-> {out / 'predictions.csv'}")
    return 0


def _cmd_segment(args):
    """``segment``, and ``classify`` with its SVM: one detection path."""
    config = _load_config(args)
    svm = perception.SvmModel.from_json(args.svm) if args.command == "classify" else None
    record, inliers, outliers = pipeline.detect_objects(
        config, perception.load_cloud(args.cloud), svm)
    out = Path(args.out)
    dump_json(record, out / "segmentation.json")
    if svm is None:
        print(f"plane inliers {inliers.shape[0]}, outliers {outliers.shape[0]}, "
              f"{len(record['clusters'])} clusters -> {out / 'segmentation.json'}")
    else:
        for pose in record["clusters"]:
            print(f"{pose['label']}: score {pose['score']:.3f}, centroid "
                  f"{np.round(pose['centroid'], 4).tolist()}")
    return 0


def benchmark_dataset(config: pipeline.PipelineConfig):
    """Reference, dense actual, and three object-instance adaptations."""
    _, basis, model, reference = pipeline.build_reference(config)
    config.check_basis(basis)
    dense = np.linspace(0.0, 1.0, config.dense_points)
    actual = encoding.generate_reference(model, dense)
    scenario = config.scenario()
    cov = config.via_confidence * np.eye(basis.synergy_dim)
    adaptations = []
    for scale in (0.85, 1.0, 1.15):  # cubical, spherical, cylindrical instances
        adaptations.append([
            kmp.ViaPoint(t_star=scenario["grasp_time"],
                         desired_e=scale * scenario["grasp_e"],
                         desired_cov=cov),
            kmp.ViaPoint(t_star=1.0,
                         desired_e=scale * scenario["manip_end_e"],
                         desired_cov=cov),
        ])
    return reference, dense, actual, adaptations


def _cmd_benchmark(args):
    out = Path(args.out)
    config = _load_config(args)
    reference, dense, actual, adaptations = benchmark_dataset(config)
    specs = [kmp.KernelSpec(kind=kind, l=args.length_scale, sigma2=config.kernel_sigma2,
                            alpha=args.alpha if kind == "cauchy" else None)
             for kind in kmp.KERNEL_KINDS]
    report = evaluation.benchmark_kernels(
        reference, adaptations, specs, lam=args.kmp_lambda, seed=config.seed,
        grid=dense, actual=actual, dataset_id=f"{config.task}-synthetic",
        dump_dir=out)
    write_file(out / "report.json", report.to_json())
    write_file(out / "report.txt", report.to_text())
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
    config = _load_config(args)
    out = Path(args.out)
    task, seed = config.task, config.seed
    if args.what == "demos":
        demos, truth = synthetic.generate_synthetic_demos(
            task, count=config.demo_count, noise=config.demo_noise, seed=seed)
        joints = [f"q{j + 1}" for j in range(demos[0][1].shape[1])]
        for k, (times, angles) in enumerate(demos):
            write_csv(out / f"demo_{k:02d}.csv", ["t", *joints],
                      np.column_stack([times, angles]))
        write_csv(out / "postures.csv", joints, np.vstack([angles for _, angles in demos]))
        dump_json({
            "task": task, "seed": seed, "count": config.demo_count, "noise": config.demo_noise,
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
    except (SynkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
