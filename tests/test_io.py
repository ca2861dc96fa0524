"""The JSON writer gives exactly the stdlib's sorted-key, indent=2 bytes; the CSV
writer's lines and the reader that reads them back; the model records' identity
equality."""
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from synkit import _io, encoding, evaluation, force, kmp, perception, pipeline, synergy
from synkit._io import dump_json, format_cells, read_csv, write_csv
from synkit.errors import ConfigInvalidError, DimensionMismatchError, InvalidInputError

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


def oracle_csv(header, rows):
    """The writer's bytes as its earlier code made them: one ``",".join(map(repr, row))``
    line per row of floats under the header line."""
    return "\n".join([",".join(header), *(",".join(map(repr, row)) for row in rows), ""])


def test_csv_is_the_header_then_one_line_per_row(tmp_path):
    rows = np.array([[0.0, -1.5, 1e-300], [0.1, 2.0, 5e-324]])
    write_csv(tmp_path / "a.csv", ["t", "x", "y"], rows)
    write_csv(tmp_path / "b.csv", ["t", "x", "y"], format_cells(rows))
    write_csv(tmp_path / "empty.csv", ["t"], np.empty((0, 1)))
    want = "t,x,y\n0.0,-1.5,1e-300\n0.1,2.0,5e-324\n"
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text() == want
    assert (tmp_path / "empty.csv").read_text() == "t\n"


# signed zero, the least subnormal, huge, non-finite and integer-valued floats
CSV_SPECIALS = [-0.0, 0.0, 5e-324, -1e-300, 1e300, 1.7976931348623157e308, math.nan, math.inf,
                -math.inf, 3.0, -7.0, 1e16, 2.0**53 + 2.0, 0.1]


@pytest.mark.parametrize("n_rows", [0, 1, 3, 40])
@pytest.mark.parametrize("width", range(1, 8))
def test_csv_writer_gives_the_row_join_bytes(width, n_rows, rng, tmp_path):
    scales = 10.0 ** rng.integers(-300, 300, 26)
    pool = np.concatenate([CSV_SPECIALS, rng.standard_normal(26) * scales])
    rows = np.resize(rng.permutation(pool), (n_rows, width))
    header = [f"c{j}" for j in range(width)]
    want = oracle_csv(header, rows.tolist())
    for name, given in [("array", rows), ("lists", rows.tolist()), ("cells", format_cells(rows)),
                        ("transposed", np.asfortranarray(rows))]:
        write_csv(tmp_path / f"{name}.csv", header, given)
        assert (tmp_path / f"{name}.csv").read_text() == want, name
    if n_rows:
        assert read_csv(tmp_path / "array.csv").tobytes() == rows.tobytes()


def test_csv_rows_in_chunks_make_the_directory(rng, tmp_path, monkeypatch):
    monkeypatch.setattr(_io, "ROW_CHUNK", 3)
    rows = rng.standard_normal((10, 2))
    for name, given in (("array", rows), ("cells", format_cells(rows))):
        path = tmp_path / name / "nested" / "table.csv"
        write_csv(path, ["a", "b"], given)
        assert path.read_text() == oracle_csv(["a", "b"], rows.tolist()), name


@pytest.mark.parametrize("rows", [
    [[1.0, 2.0, 3.0], [1.0]],  # ragged
    [(1.0, 2.0, 3.0), (1.0, 2.0)],
    [["1.0", "x", "2.0"]],  # not numeric
    np.zeros((2, 2)),  # too narrow
    np.zeros((2, 4)),  # too wide
    np.zeros(3),  # not a table
    ["1.0", "2.0", "3.0", "4.0"],  # cells that do not fill their rows
], ids=["ragged", "ragged-tuples", "non-numeric", "narrow", "wide", "flat", "cells"])
def test_csv_writer_rejects_rows_not_as_wide_as_the_header(rows, tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(DimensionMismatchError, match=re.escape(f"{path}: rows are not 3")):
        write_csv(path, ["t", "x", "y"], rows)
    assert not path.exists()


def test_csv_writer_rejects_an_empty_header(tmp_path):
    with pytest.raises(DimensionMismatchError, match="rows are not 0 numeric cells wide"):
        write_csv(tmp_path / "bad.csv", [], [])


def test_csv_reader_reads_back_with_and_without_header(tmp_path):
    rows = np.array([[0.0, -1.5, 1e-300], [0.1, 2.0, 5e-324], [math.pi, 1e300, -0.0]])
    write_csv(tmp_path / "headed.csv", ["t", "x", "y"], rows)
    text = (tmp_path / "headed.csv").read_text()
    (tmp_path / "plain.csv").write_text(text.split("\n", 1)[1])
    (tmp_path / "blank.csv").write_text(text.replace("\n", "\n\n").replace("\n", "\r\n"))
    for name in ("headed.csv", "plain.csv", "blank.csv"):
        got = read_csv(tmp_path / name)
        assert got.dtype == np.float64 and got.shape == (3, 3)
        assert got.tobytes() == rows.tobytes()


@pytest.mark.parametrize("text,lineno", [
    ("1.0,2.0\n3.0,4.0,5.0\n", 2),
    ("t,x\n1.0,2.0\n3.0\n", 3),
    ("t,x\n1.0,2.0\n3.0,x\n", 3),
    ("1.0,2.0\nt,x\n", 2),
    ("\nt,x\n1.0,2.0\n", 2),  # only the first line can be the header
    ("t,x\n1.0,,2.0\n", 2),
], ids=["ragged", "short", "cell", "header-after-rows", "header-after-blank", "empty-cell"])
def test_csv_reader_names_the_line_that_breaks_the_table(text, lineno, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DimensionMismatchError, match=f"^{re.escape(str(path))}:{lineno}: "):
        read_csv(path)


@pytest.mark.parametrize("text", ["", "\n\n", "t,x\n", "t,x\n\n"],
                         ids=["empty", "blank", "header", "header-blank"])
def test_csv_reader_rejects_a_file_without_rows(text, tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(DimensionMismatchError, match=f"^{re.escape(str(path))}: no data rows"):
        read_csv(path)


def test_csv_reader_names_an_undecodable_file(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"t,x\n\xff\xfe,1\n")
    with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}: not a text file"):
        read_csv(path)


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


@pytest.mark.parametrize("text", [b"{not json", b"\xff\xfe{}"], ids=["malformed", "undecodable"])
@pytest.mark.parametrize("cls,error", [(pipeline.PipelineConfig, ConfigInvalidError),
                                       (synergy.SynergyBasis, InvalidInputError)],
                         ids=["config", "basis"])
def test_record_file_that_is_not_json_is_named(cls, error, text, tmp_path):
    path = tmp_path / "record.json"
    path.write_bytes(text)
    with pytest.raises(error, match=f"^{re.escape(str(path))}: not JSON"):
        cls.from_json(path)


RAGGED = [[1, 2, 3], [1]]
SPEC = kmp.KernelSpec(kind="gaussian", l=0.1, sigma2=1.0)
GRASP = force.GraspModel(grasp_matrix=np.eye(6, 9), stiffness=np.zeros((9, 6)),
                         hand_jacobian=np.eye(9, 6), motor_constant=np.eye(6))


def kmp_model():
    reference = encoding.ReferenceTrajectory(times=[0.0, 0.5, 1.0], means=np.zeros((3, 1)),
                                             covariances=np.ones((3, 1, 1)))
    return kmp.kmp_fit(reference, SPEC)


@pytest.mark.parametrize("call,name", [
    (lambda out: perception.svm_train(RAGGED, ["a", "b"]), "features"),
    (lambda out: perception.ransac_plane(RAGGED), "cloud"),
    (lambda out: perception.euclidean_cluster(RAGGED, epsilon=0.1), "cloud"),
    (lambda out: perception.save_cloud(out, RAGGED), "points"),
    (lambda out: kmp.kernel_eval(SPEC, RAGGED, 0.0), "t1"),
    (lambda out: force.friction_cone_check(RAGGED, 0.5), "force"),
    (lambda out: kmp.build_kernel_matrix(SPEC, RAGGED), "times"),
    (lambda out: kmp.kmp_predict(kmp_model(), RAGGED), "times"),
    (lambda out: kmp.kmp_predict_cov(kmp_model(), RAGGED), "times"),
    (lambda out: force.motor_currents(GRASP, RAGGED), "forces"),
    (lambda out: force.grip_force(RAGGED), "forces"),
    (lambda out: evaluation.pearson_r(RAGGED, [1.0, 2.0]), "actual"),
    (lambda out: evaluation.rmse([1.0, 2.0], RAGGED), "predicted"),
    (lambda out: perception.euclidean_cluster([1.0] * 6, epsilon=0.1), "cloud"),
    (lambda out: perception.euclidean_cluster([1.0] * 4, epsilon=0.1), "cloud"),
], ids=["svm_train", "ransac_plane", "euclidean_cluster", "save_cloud", "kernel_eval",
        "friction_cone_check", "build_kernel_matrix", "kmp_predict", "kmp_predict_cov",
        "motor_currents", "grip_force", "pearson_r", "rmse", "euclidean_cluster-flat6",
        "euclidean_cluster-flat4"])
def test_ragged_input_raises_dimension_mismatch_naming_it(call, name, tmp_path):
    out = tmp_path / "cloud.xyz"
    with pytest.raises(DimensionMismatchError, match=f"^{name} "):
        call(out)
    assert not out.exists()
