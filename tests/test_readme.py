"""The README's library example runs as written."""
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example():
    """The one ```python block of the README's "## Library example" section."""
    section = README.read_text().split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    return block


def test_library_example_runs_and_meets_its_via_point():
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    via, mean, cov = namespace["via"], namespace["mean"], namespace["cov"]
    assert namespace["coeffs"].shape == (8, 25, 2)
    assert np.abs(mean - via.desired_e).max() < 1e-5
    assert np.linalg.eigvalsh(cov).max() < 1e-4
    assert namespace["joints"].shape == (namespace["basis"].joint_dim,)
