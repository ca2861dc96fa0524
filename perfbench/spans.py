"""Span recorder for the traced run, patched in from outside ``src/``.

Each public layer function is wrapped where its caller looks it up: a
module attribute when the caller goes through the module (``pipeline``
calls ``encoding.fit_gmm``), the importer's own global when the caller
bound the name at import (``evaluation`` binds ``kmp_fit``,
``kmp_predict`` and ``apply_via_points``; ``encoding`` binds
``synergy.project``). Spans stay in memory until the run ends. A span's
self time is its duration minus the time covered by its child spans.
"""
from __future__ import annotations

import gzip
import inspect
import json
from collections import defaultdict
from time import perf_counter

from synkit import cli, encoding, evaluation, kmp, perception, pipeline, synergy, synthetic

LAYERS = ("synergy", "encoding", "kmp", "perception", "force", "evaluation",
          "synthetic", "pipeline", "cli")
# perception.BRUTE_FORCE_LIMIT when this benchmark was written, fixed here so
# the .small/.large split keeps its meaning if the limit changes or goes
SMALL_CLOUD = 2000
KMP_SIZES = (25, 100, 200)
FORCE_HORIZONS = (80, 640)


def _nearest(value, choices):
    return min(choices, key=lambda c: abs(c - value))


# Probes read counts at the call boundary from the bound arguments and result.
def _em(args, result):
    iterations = int(result.ll_history.shape[0])
    return {"iterations": iterations, "capped": iterations >= args["max_iter"]}


def _fit_size(args, result):
    return {"n": len(args["reference"])}


def _predict_size(args, result):
    return {"n": args["model"].n_reference, "points": int(len(args["times"]))}


def _ransac(args, result):
    _, inliers, outliers = result
    return {"inlier_frac": len(inliers) / (len(inliers) + len(outliers))}


def _cluster(args, result):
    return {"points": int(len(args["cloud"]))}


def _svm(args, result):
    return {"epochs": int(result.objective_history.shape[0]) - 1}


def _force(args, result):
    return {"steps": len(result["records"])}


# (module, attribute, span name, probe). Several attributes may share a span
# name when the same function is looked up from more than one place.
PATCHES = (
    (synergy, "fit_synergy_basis", "synergy.fit", None),
    (encoding, "project", "synergy.project", None),
    (synergy, "reconstruct", "synergy.reconstruct", None),
    (encoding, "interpolate_coefficients", "encoding.interpolate", None),
    (encoding, "fit_gmm", "encoding.fit_gmm", _em),
    (encoding, "generate_reference", "encoding.gmr", None),
    (kmp, "kmp_fit", "kmp.fit", _fit_size),
    (evaluation, "kmp_fit", "kmp.fit", _fit_size),
    (kmp, "kmp_predict", "kmp.predict", _predict_size),
    (evaluation, "kmp_predict", "kmp.predict", _predict_size),
    (kmp, "apply_via_points", "kmp.via", None),
    (evaluation, "apply_via_points", "kmp.via", None),
    (perception, "load_cloud", "perception.load_cloud", None),
    (perception, "ransac_plane", "perception.ransac", _ransac),
    (perception, "euclidean_cluster", "perception.cluster", _cluster),
    (perception, "extract_features", "perception.classify", None),
    (perception, "svm_classify", "perception.classify", None),
    (perception, "estimate_pose", "perception.classify", None),
    (perception, "svm_train", "perception.svm_train", _svm),
    (pipeline, "_run_force_loop", "force.stage", _force),
    (evaluation, "benchmark_kernels", "evaluation.benchmark", None),
    (evaluation, "pearson_r", "evaluation.score", None),
    (evaluation, "rmse", "evaluation.score", None),
    (synthetic, "generate_synthetic_demos", "synthetic.demos", None),
    (synthetic, "generate_synthetic_scene", "synthetic.scene", None),
    (synthetic, "svm_training_fixture", "synthetic.svm_fixture", None),
    (pipeline, "run_task", "pipeline.run_task", None),
    (pipeline, "build_reference", "pipeline.build_reference", None),
    (cli, "cli_dispatch", "cli.dispatch", None),
)


class Tracer:
    """Records one span per call of every patched function.

    A span is ``[request, id, parent, name, start, end, self, attrs]``.
    ``install`` puts the wrappers in place and ``uninstall`` restores the
    original functions; spans accumulate across installs.
    """

    def __init__(self):
        self.spans = []
        self.request = -1
        self._stack = []  # [span id, time covered by children]
        self._patches = [(module, attr, getattr(module, attr),
                          self._wrap(name, getattr(module, attr), probe))
                         for module, attr, name, probe in PATCHES]

    def install(self):
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _wrap(self, name, fn, probe):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            # every started span is either finished or still open
            frame = [len(spans) + len(stack), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                span = [self.request, frame[0], parent, name, start, end,
                        end - start - frame[1], None]
                spans.append(span)
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[7] = probe(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_self_times(spans):
    """Per request: self time summed by layer."""
    out = defaultdict(lambda: defaultdict(float))
    for request, _, _, name, _, _, self_s, _ in spans:
        out[request][name.split(".", 1)[0]] += self_s
    return out


def per_layer_metrics(spans, requests):
    """Per-layer metrics as means per request over ``requests`` requests.

    Size splits (``.n25``, ``.small``, ``.h640`` ...) are means per call
    at that size, so they line up with per-call scaling tables.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    count = defaultdict(float)
    for _, _, _, name, _, _, self_s, attrs in spans:
        layer = name.split(".", 1)[0]
        total[name] += self_s
        total[layer + ".self"] += self_s
        calls[name] += 1
        if name == "encoding.fit_gmm":
            count["em_iterations"] += attrs["iterations"]
            count["em_capped"] += attrs["capped"]
        elif name == "kmp.fit":
            bucket = f"kmp.fit_s.n{_nearest(attrs['n'], KMP_SIZES)}"
            total[bucket] += self_s
            calls[bucket] += 1
        elif name == "kmp.predict":
            count["predict_points"] += attrs["points"]
            bucket = f"kmp.predict_s.n{_nearest(attrs['n'], KMP_SIZES)}"
            total[bucket] += self_s
            calls[bucket] += 1
        elif name == "perception.ransac":
            count["inlier_frac"] += attrs["inlier_frac"]
        elif name == "perception.cluster":
            count["cluster_points"] += attrs["points"]
            bucket = ("perception.cluster_s.small" if attrs["points"] <= SMALL_CLOUD
                      else "perception.cluster_s.large")
            total[bucket] += self_s
            calls[bucket] += 1
        elif name == "perception.svm_train":
            count["svm_epochs"] += attrs["epochs"]
        elif name == "force.stage":
            count["force_steps"] += attrs["steps"]
            bucket = f"force.stage_s.h{_nearest(attrs['steps'], FORCE_HORIZONS)}"
            total[bucket] += self_s
            calls[bucket] += 1

    def per_request(key):
        return total[key] / requests

    def per_call(key):
        return total[key] / calls[key] if calls[key] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "synergy.fit_s": (per_request("synergy.fit"), "s"),
        "synergy.project_s": (per_request("synergy.project"), "s"),
        "synergy.reconstruct_s": (per_request("synergy.reconstruct"), "s"),
        "encoding.interpolate_s": (per_request("encoding.interpolate"), "s"),
        "encoding.fit_gmm_s": (per_request("encoding.fit_gmm"), "s"),
        "encoding.gmr_s": (per_request("encoding.gmr"), "s"),
        "encoding.em_iterations": (count["em_iterations"] / requests, "count"),
        "encoding.em_capped_frac": (ratio(count["em_capped"], calls["encoding.fit_gmm"]),
                                    "ratio"),
        "kmp.fit_calls": (calls["kmp.fit"] / requests, "count"),
        "kmp.fit_s": (per_request("kmp.fit"), "s"),
        "kmp.predict_points": (count["predict_points"] / requests, "count"),
        "kmp.predict_s": (per_request("kmp.predict"), "s"),
        "kmp.via_s": (per_request("kmp.via"), "s"),
    }
    for n in KMP_SIZES:
        m[f"kmp.fit_s.n{n}"] = (per_call(f"kmp.fit_s.n{n}"), "s")
        m[f"kmp.predict_s.n{n}"] = (per_call(f"kmp.predict_s.n{n}"), "s")
    m.update({
        "perception.load_cloud_s": (per_request("perception.load_cloud"), "s"),
        "perception.ransac_s": (per_request("perception.ransac"), "s"),
        "perception.ransac_inlier_frac": (ratio(count["inlier_frac"],
                                                calls["perception.ransac"]), "ratio"),
        "perception.cluster_points": (ratio(count["cluster_points"],
                                            calls["perception.cluster"]), "count"),
        "perception.cluster_s": (per_request("perception.cluster"), "s"),
        "perception.cluster_s.small": (per_call("perception.cluster_s.small"), "s"),
        "perception.cluster_s.large": (per_call("perception.cluster_s.large"), "s"),
        "perception.classify_s": (per_request("perception.classify"), "s"),
        "perception.svm_train_s": (per_request("perception.svm_train"), "s"),
        "perception.svm_epochs": (ratio(count["svm_epochs"], calls["perception.svm_train"]),
                                  "count"),
        "force.stage_s": (per_request("force.stage"), "s"),
        "force.steps": (count["force_steps"] / requests, "count"),
        "force.step_us": (1e6 * ratio(total["force.stage"], count["force_steps"]), "us"),
    })
    for h in FORCE_HORIZONS:
        m[f"force.stage_s.h{h}"] = (per_call(f"force.stage_s.h{h}"), "s")
    m.update({
        "evaluation.self_s": (per_request("evaluation.self"), "s"),
        "synthetic.demos_s": (per_request("synthetic.demos"), "s"),
        "synthetic.scene_s": (per_request("synthetic.scene"), "s"),
        "synthetic.svm_fixture_s": (per_request("synthetic.svm_fixture"), "s"),
        "pipeline.self_s": (per_request("pipeline.self"), "s"),
        "cli.self_s": (per_request("cli.self"), "s"),
    })
    return m
