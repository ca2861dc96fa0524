"""The JSON writer gives exactly the stdlib's sorted-key, indent=2 bytes; the CSV
writer's lines; the model records' identity equality."""
import dataclasses
import json
import math

import numpy as np
import pytest

from synkit import encoding, force, kmp, perception, pipeline, synergy
from synkit._io import dump_json, format_rows, write_csv

TRIALS = 400
MAX_DEPTH = 5
STRINGS = ["", "a", 'say "hi"', "back\\slash", "two\nlines", "tab\there", "nul\x00",
           "\x7f", "café", " ", "\U0001f95a egg", "/slash", "100%",
           "%s"]
SCALARS = [None, True, False, 0, -1, 7, 2**70, -(2**64) - 1, 0.0, -0.0, 1e-300, 5e-324,
           1.7976931348623157e308, 0.1, -2.5, math.nan, math.inf, -math.inf,
           np.float64(0.1), np.float64(-1e-8), np.float64(math.nan), *STRINGS]


def stdlib(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _scalar(rng):
    if rng.integers(3) == 0:
        return float(rng.standard_normal() * 10.0 ** int(rng.integers(-320, 300)))
    return SCALARS[rng.integers(len(SCALARS))]


def _key(rng):
    return STRINGS[rng.integers(len(STRINGS))] + str(rng.integers(4))


def _shape(rng, depth):
    """A random value shape: 'scalar', a list of shapes, or a dict of shapes."""
    kind = rng.integers(4) if depth < MAX_DEPTH else 0
    if kind <= 1:
        return "scalar"
    if kind == 2:
        return [_shape(rng, depth + 1) for _ in range(rng.integers(4))]
    return {_key(rng): _shape(rng, depth + 1) for _ in range(rng.integers(4))}


def _fill(shape, rng, depth):
    """A value of ``shape`` with random scalars; lists may come back as tuples."""
    if shape == "scalar":
        return _scalar(rng)
    if isinstance(shape, dict):
        return {k: _fill(v, rng, depth + 1) for k, v in shape.items()}
    items = [_fill(s, rng, depth + 1) for s in shape]
    return tuple(items) if rng.integers(4) == 0 else items


def _break(record, rng):
    """A record whose shape differs from its siblings' in one place."""
    record = dict(record)
    choice = rng.integers(5)
    key = next(iter(record), "k")
    if choice == 0:
        record[_key(rng) + "new"] = 1.0  # a different key set
    elif choice == 1:
        record[key] = [0.5] * (len(record[key]) + 1 if isinstance(record.get(key), list)
                               else 2)  # a different list length
    elif choice == 2:
        record[key] = {"nested": [1.0, 2.0]}  # a nested dict value
    elif choice == 3:
        record[key] = []  # an empty list value
    else:
        record[key] = [[1.0], [2.0, 3.0]]  # a list of uneven lists
    return record


def _value(rng, depth=0):
    kind = rng.integers(6) if depth < MAX_DEPTH else 0
    if kind <= 1:
        return _scalar(rng)
    if kind == 2:
        items = [_value(rng, depth + 1) for _ in range(rng.integers(5))]
        return tuple(items) if rng.integers(3) == 0 else items
    if kind == 3:
        return {_key(rng): _value(rng, depth + 1) for _ in range(rng.integers(5))}
    # a list of records that share one shape, sometimes with one record broken
    shape = {_key(rng): _shape(rng, depth + 2) for _ in range(rng.integers(4))}
    records = [_fill(shape, rng, depth + 1) for _ in range(1 + rng.integers(6))]
    if rng.integers(2) == 0:
        i = rng.integers(len(records))
        records[i] = _break(records[i], rng)
    return records


def test_random_payloads_match_stdlib_bytes():
    rng = np.random.default_rng(20211)
    for _ in range(TRIALS):
        payload = _value(rng)
        assert dump_json(payload) == stdlib(payload)


@pytest.mark.parametrize("payload", [
    {}, [], (), 0, "x", None, math.nan, np.float64(2.5), [[]], [{}], {"a": {}},
    [[], []], [{}, {}], ((1, 2), [3, 4]), {"\x00": 1, "b": [True, None]},
    {"%s": "%d", "a%%": [1, "%"]}, {"%": {}},
    [{"t": 0.0, "v": [1.0, 2.0]}, {"t": 0.5, "v": [3.0, 4.0]}],
    [{"t": 0.0, "v": [1.0, 2.0]}, {"t": 0.5, "v": [3.0]}],
    [{"t": 0.0, "v": [1.0, 2.0]}, {"t": 0.5, "w": [3.0, 4.0]}],
    [{"t": 0.0, "v": []}, {"t": 0.5, "v": []}],
    [{"t": 0.0, "v": []}, {"t": 0.5, "v": [1.0]}],
    [{"t": 0.0, "v": {"a": 1}}, {"t": 0.5, "v": {"a": 2}}],
    [{"t": 0.0, "v": {"a": 1}}, {"t": 0.5, "v": {"b": 2}}],
    [{"t": 1}, [1], 2.0],
    [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]],
])
def test_edge_payloads_match_stdlib_bytes(payload):
    assert dump_json(payload) == stdlib(payload)


@pytest.mark.parametrize("payload", [
    {"a": {1, 2}}, [np.int64(3)], [{"t": np.int64(1)}, {"t": np.int64(2)}],
    {"a": [1.0, object()]}, [np.float32(1.0)],
])
def test_values_the_stdlib_rejects_raise_type_error(payload):
    for write in (dump_json, stdlib):
        with pytest.raises(TypeError):
            write(payload)


def test_non_string_keys_raise_type_error():
    with pytest.raises(TypeError):
        dump_json({1: "int key"})


def test_every_json_artifact_of_a_long_simulate_matches_stdlib(tmp_path):
    config = dataclasses.replace(pipeline.default_config("ketchup"), force_steps=640,
                                 out_dir=str(tmp_path))
    log = pipeline.run_task(config)
    live = {f.name: getattr(log, f.name) for f in dataclasses.fields(log)}
    assert log.to_json() == stdlib(live)
    files = sorted(tmp_path.glob("*.json"))
    assert {f.name for f in files} >= {"tasklog.json", "reference.json", "gmm.json",
                                       "basis.json", "svm.json", "segmentation.json"}
    for f in files:
        text = f.read_text()
        assert text == stdlib(json.loads(text)), f.name


def test_csv_is_the_header_then_one_line_per_row(tmp_path):
    rows = np.array([[0.0, -1.5, 1e-300], [0.1, 2.0, 5e-324]])
    write_csv(tmp_path / "a.csv", ["t", "x", "y"], rows)
    write_csv(tmp_path / "b.csv", ["t", "x", "y"], format_rows(rows))
    write_csv(tmp_path / "empty.csv", ["t"], np.empty((0, 1)))
    want = "t,x,y\n0.0,-1.5,1e-300\n0.1,2.0,5e-324\n"
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text() == want
    assert (tmp_path / "empty.csv").read_text() == "t\n"


def _records():
    eye = np.eye(3)
    reference = encoding.ReferenceTrajectory(times=[0.0, 0.5, 1.0], means=np.zeros((3, 2)),
                                             covariances=np.tile(np.eye(2), (3, 1, 1)))
    return [
        reference,
        encoding.GmmModel(priors=[0.5, 0.5], means=np.zeros((2, 3)),
                          covariances=np.tile(eye, (2, 1, 1)), ll_history=[1.0]),
        kmp.ViaPoint(0.5, np.zeros(2), np.eye(2)),
        kmp.kmp_fit(reference, kmp.KernelSpec(kind="gaussian"), 1.0),
        perception.SvmModel(weights=[1.0, 0.5], bias=0.0, classes=["a", "b"],
                            feature_mean=[0.0, 0.0], feature_scale=[1.0, 1.0],
                            objective_history=[1.0]),
        perception.Cluster(indices=[0, 1], cloud=np.zeros((2, 3))),
        perception.ObjectPose(centroid=np.zeros(3), extents=np.ones(3)),
        synergy.SynergyBasis(e_hat=eye[:, :2], theta0=np.zeros(3),
                             variance_fractions=[0.6, 0.4]),
        force.GraspModel(grasp_matrix=np.zeros((6, 3)), stiffness=np.zeros((3, 2)),
                         hand_jacobian=np.zeros((3, 2)), motor_constant=np.eye(2)),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_with_arrays_compare_and_hash_by_identity(record):
    twin = dataclasses.replace(record)  # equal values, a second object
    assert record == record and not record != record
    assert record != twin and not record == twin
    assert len({record, twin}) == 2
