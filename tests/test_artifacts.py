"""The pinned CLI artifacts keep their bytes: SHA-256 digests against a manifest.

The manifest lists what ``COMMANDS`` write when run from one directory, at
fixed relative ``--out`` paths, and what each prints to stdout, under a key
that begins with "/" as no relative path does. It also records the numpy,
BLAS and SIMD extensions of the run that made it, since float bits depend on those as well as on the code.
A digest that moves fails the test where the environment is the manifest's,
and skips it, naming both environments, where it is not. A CI runner with
another numpy or another CPU therefore skips: the test guards the bytes only
on a host that matches the manifest. When a change moves bits on purpose,
rewrite the manifest in the same diff with
``PYTHONPATH=src python tests/test_artifacts.py``.
"""
import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from synkit.cli import cli_dispatch

MANIFEST = Path(__file__).with_name("artifacts.sha256.json")
COMMANDS = [
    ["benchmark-kernels", "--task", "egg", "--out", "bench"],
    ["encode", "--task", "egg", "--out", "enc"],
    ["kmp-predict", "--kernel", "gaussian", "--reference", "enc/reference.json", "--out", "kmp"],
    ["simulate", "--task", "egg", "--out", "sim-egg"],
    ["simulate", "--task", "ketchup", "--out", "sim-ketchup"],
    ["generate", "scene", "--task", "egg", "--seed", "11", "--out", "scene"],
    ["segment", "--cloud", "scene/scene.xyz", "--seed", "11", "--out", "seg"],
    ["classify", "--cloud", "scene/scene.xyz", "--svm", "scene/svm.json", "--seed", "11",
     "--out", "cls"],
    ["generate", "demos", "--task", "egg", "--out", "demos"],
    ["fit-synergies", "--input", "demos/postures.csv", "--out", "fit"],
    ["simulate", "--config", "demos.json", "--out", "sim-demos"],
]
# the config of the run on the generated demo files, written before COMMANDS run
DEMOS_CONFIG = {"demos_path": "demos"}


def environment():
    """numpy's version, its BLAS and the SIMD extensions it found on this CPU."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 only prints its configuration
        return {"numpy": np.__version__, "blas": None, "simd": None}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "simd": config.get("SIMD Extensions", {}).get("found")}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def digests(directory):
    """Run COMMANDS in ``directory``; the SHA-256 of every file there, by path, and
    of each command's stdout, by "/stdout: synkit" and the command's arguments."""
    home = os.getcwd()
    os.chdir(directory)
    printed = {}
    try:
        Path("demos.json").write_text(json.dumps(DEMOS_CONFIG))
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                status = cli_dispatch(argv)
            if status != 0:
                raise RuntimeError(f"synkit {' '.join(argv)} failed")
            printed[f"/stdout: synkit {' '.join(argv)}"] = sha256(stdout.getvalue().encode())
    finally:
        os.chdir(home)
    return {**{path.relative_to(directory).as_posix(): sha256(path.read_bytes())
               for path in sorted(Path(directory).rglob("*")) if path.is_file()}, **printed}


def test_artifacts_keep_their_bytes(tmp_path, capsys):
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["commands"] == COMMANDS
    got = digests(tmp_path)
    capsys.readouterr()
    assert sorted(got) == sorted(manifest["sha256"])
    moved = [name for name, digest in got.items() if digest != manifest["sha256"][name]]
    if moved and environment() != manifest["environment"]:
        pytest.skip(f"{moved} moved, but the manifest was made with {manifest['environment']} "
                    f"and this run has {environment()}")
    assert not moved, f"{moved} moved on the manifest's own numpy, BLAS and SIMD"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        record = {"commands": COMMANDS, "environment": environment(), "sha256": digests(work)}
    MANIFEST.write_text(json.dumps(record, indent=2) + "\n")
