"""Seeded fuzzing of every file loader: malformed input raises only SynkitError."""
import json
import math

import numpy as np
import pytest

from synkit import _io, encoding, perception, pipeline, synergy
from synkit.errors import SynkitError

TRIALS = 80
JUNK = [None, True, "x", "", 0, -1, 2.5, math.nan, math.inf, -math.inf, 1e308,
        [], [[]], [1, [2]], ["a", "b", "c"], {}, {"a": 1}, [math.nan, 1.0]]


def _junk_value(value, rng):
    """A wrong type, a non-finite number or a reshaped copy of ``value``."""
    choice = rng.integers(4)
    if choice == 0 and isinstance(value, list) and value:
        return value[: rng.integers(len(value))]  # truncated
    if choice == 1 and isinstance(value, list) and value:
        leaf = value = json.loads(json.dumps(value))
        while isinstance(leaf[0], list) and leaf[0]:
            leaf = leaf[0]
        leaf[0] = JUNK[rng.integers(len(JUNK))]  # one bad element
        return value
    if choice == 2:
        return [value]  # one level too deep
    return JUNK[rng.integers(len(JUNK))]


def _mutate(payload, rng):
    """A random malformation of a valid JSON object."""
    choice = rng.integers(6)
    if choice == 0:
        return list(payload.values())
    if choice == 1:
        return float(rng.normal())
    out = dict(payload)
    keys = sorted(out)
    if choice == 2:
        for key in rng.choice(keys, size=rng.integers(1, 3), replace=False):
            del out[key]
    elif choice == 3:
        out[f"extra_{rng.integers(100)}"] = JUNK[rng.integers(len(JUNK))]
    else:
        for key in rng.choice(keys, size=rng.integers(1, 3), replace=False):
            out[key] = _junk_value(out[key], rng)
    return out


def _load_each(load, path, texts):
    """Load every text from ``path``; only SynkitError may escape. Returns the
    number of texts that loaded."""
    loaded = 0
    for text in texts:
        path.write_text(text)
        try:
            load(path)
            loaded += 1
        except SynkitError:
            pass
    return loaded


@pytest.fixture(scope="module")
def records(egg_learning):
    rng = np.random.default_rng(5)
    x = np.vstack([rng.normal(0.0, 1.0, (20, 3)), rng.normal(4.0, 1.0, (20, 3))])
    svm = perception.svm_train(x, ["a"] * 20 + ["b"] * 20, epochs=20, seed=1)
    return {
        "config": (pipeline.default_config("egg"),
                   lambda p: pipeline.PipelineConfig.from_json(p).validate()),
        "basis": (egg_learning["basis"], synergy.SynergyBasis.from_json),
        "gmm": (egg_learning["gmm"], encoding.GmmModel.from_json),
        "reference": (egg_learning["reference"], encoding.ReferenceTrajectory.from_json),
        "svm": (svm, perception.SvmModel.from_json),
    }


@pytest.mark.parametrize("name", ["config", "basis", "gmm", "reference", "svm"])
def test_malformed_record_json_raises_synkit_error(name, records, tmp_path):
    record, load = records[name]
    payload = json.loads(record.to_json())
    rng = np.random.default_rng(sum(map(ord, name)))
    texts = [json.dumps(_mutate(payload, rng)) for _ in range(TRIALS)]
    path = tmp_path / f"{name}.json"
    _load_each(load, path, texts)
    path.write_text(record.to_json())
    load(path)


# the demo directory loader reads each text as the one file demo_00.csv of a directory
@pytest.mark.parametrize("load,name", [
    (perception.load_cloud, "input.txt"),
    (_io.read_csv, "input.txt"),
    (lambda path: pipeline.load_demo_dir(path.parent), "demo_00.csv"),
], ids=["load_cloud", "read_csv", "load_demo_dir"])
def test_random_text_raises_synkit_error(load, name, tmp_path):
    rng = np.random.default_rng(17)
    alphabet = list("0123456789") + list(" .,-+e#\t\nnaifx") + ["nan", "inf", "1e999", "\n"]
    texts = ["".join(rng.choice(alphabet, size=rng.integers(0, 60))) for _ in range(TRIALS)]
    texts += ["1 2 3\n4 5 6\n", "1,2\n3,4\n"]
    assert _load_each(load, tmp_path / name, texts) >= 1
