"""The one JSON and CSV format shared by every synkit artifact.

JSON is sorted-key, two-space-indented text with a trailing newline. CSV is
one header line, then one row per record with every cell written as
``repr(float(cell))``, so a float reads back exactly.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def dump_json(payload, path=None) -> str:
    """Canonical JSON text of ``payload``, also written to ``path`` when given."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_csv(path, header, rows) -> None:
    """Write the header cells, then each row of a (records x columns) array."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in np.asarray(rows, dtype=float).tolist():
            fh.write(",".join(map(repr, row)) + "\n")
