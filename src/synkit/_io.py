"""The one JSON and CSV format shared by every synkit artifact.

JSON is sorted-key, two-space-indented text with a trailing newline: one
writer gives exactly the bytes of the stdlib's ``json.dumps(payload,
sort_keys=True, indent=2)``, but formats all of an artifact's scalars in one
call to the stdlib's C encoder. CSV is one header line, then one row per
record with every cell written as ``repr(float(cell))``, so a float reads
back exactly. Text inputs (clouds, postures) are read line by line through
``text_lines``. Every model record stores its arrays through ``freeze``, as
read-only, finite float64 copies.
"""
from __future__ import annotations

import dataclasses
import json
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError, SynkitError


# With indent None this is the C encoder; no scalar it encodes holds a raw "\n".
_ENCODE = json.JSONEncoder(separators=("\n", ": ")).encode
_KEY = json.encoder.encode_basestring_ascii
_LEAF = "%s"  # a scalar's place: the static text is a %-format, so keys double "%"
_NESTED = (dict, list, tuple)


def dump_json(payload, path=None) -> str:
    """Canonical JSON text of ``payload``, also written to ``path`` when given.

    The text is ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``.
    Keys must be ``str``; a value the stdlib cannot encode raises TypeError.
    """
    parts, leaves = [], []
    _walk(payload, "\n", parts, leaves)
    parts.append("\n")
    tokens = tuple(_ENCODE(leaves)[1:-1].split("\n")) if leaves else ()
    text = "".join(parts) % tokens
    if path is not None:
        Path(path).write_text(text)
    return text


def _walk(value, nl, parts, leaves):
    """Append the text of ``value`` to ``parts``, with a _LEAF for each scalar,
    and the scalars to ``leaves``; ``nl`` starts the line of its closing bracket.
    """
    if not isinstance(value, _NESTED):
        parts.append(_LEAF)
        leaves.append(value)
        return
    inner = nl + "  "
    if not value:
        parts.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        sep = "{" + inner
        for key in sorted(value):
            parts.append(sep + _KEY(key).replace("%", "%%") + ": ")
            _walk(value[key], inner, parts, leaves)
            sep = "," + inner
        parts.append(nl + "}")
    elif (columns := _columns(value)) is not None:
        item = []
        _walk(value[0], inner, item, [])
        item = "".join(item)
        parts.append("[" + inner + item + ("," + inner + item) * (len(value) - 1) + nl + "]")
        leaves.extend(chain.from_iterable(zip(*columns)))
    else:
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _walk(item, inner, parts, leaves)
            sep = "," + inner
        parts.append(nl + "]")


def _columns(items):
    """The leaf columns of a list whose items all have one shape, else None.

    Items have one shape when they are all scalars, all lists of one length
    whose elements all have one shape, or all dicts with one key set whose
    values under each key have one shape. Such items share their static
    text. Column j holds every item's j-th leaf.
    """
    types = set(map(type, items))
    if not any(issubclass(t, _NESTED) for t in types):
        return [items]
    if (all(issubclass(t, (list, tuple)) for t in types)
            and len(lengths := set(map(len, items))) == 1):
        step = lengths.pop()
        columns = _columns(list(chain.from_iterable(items)))
        return None if columns is None else [c[j::step] for j in range(step) for c in columns]
    if not (all(issubclass(t, dict) for t in types)
            and all(map(items[0].keys().__eq__, map(dict.keys, items)))):
        return None
    columns = []
    for key in sorted(items[0]):
        if (key_columns := _columns([item[key] for item in items])) is None:
            return None
        columns += key_columns
    return columns


class JsonRecord:
    """JSON I/O for a dataclass, derived from its fields.

    The record is one JSON object whose keys are exactly the field names;
    array values are written as nested lists. Reading checks the keys (a
    field with a default may be left out) and hands the values to the
    constructor, which coerces and validates them. A payload that does not
    fit raises ``json_error``.
    """

    json_error = InvalidInputError

    def to_json(self, path=None) -> str:
        """Canonical JSON text of the record, also written to ``path`` when given."""
        return dump_json({f.name: _plain(getattr(self, f.name))
                          for f in dataclasses.fields(self)}, path)

    @classmethod
    def from_json(cls, path):
        try:
            payload = json.loads(Path(path).read_text())
        except ValueError as exc:  # undecodable text or malformed JSON
            raise cls.json_error(f"{path}: not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise cls.json_error(
                f"{path}: expected a JSON object, got {type(payload).__name__}")
        fields = dataclasses.fields(cls)
        unknown = sorted(set(payload) - {f.name for f in fields})
        missing = [f.name for f in fields if f.name not in payload
                   and f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING]
        if unknown or missing:
            raise cls.json_error(f"{path}: unknown keys {unknown}, missing keys {missing}")
        try:
            return cls(**payload)
        except SynkitError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
        except (TypeError, ValueError) as exc:  # values the constructor cannot coerce
            raise cls.json_error(f"{path}: {exc}") from exc


def finite_array(value, name):
    """``value`` as a float64 copy; NaN or Inf raises InvalidInputError naming it, and a
    value numpy cannot read as a float array (ragged, non-numeric) DimensionMismatchError."""
    try:
        array = np.array(value, dtype=float)
    except (ValueError, TypeError) as exc:
        raise DimensionMismatchError(f"{name} is not a numeric array: {exc}") from None
    if not np.isfinite(array).all():
        raise InvalidInputError(f"{name} contains NaN or Inf")
    return array


def freeze(record, *names):
    """Store each named field of a frozen dataclass as a read-only ``finite_array``;
    returns the stored arrays in the order named."""
    arrays = []
    for name in names:
        array = finite_array(getattr(record, name), name)
        array.setflags(write=False)
        object.__setattr__(record, name, array)
        arrays.append(array)
    return arrays


def _plain(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


def text_lines(path, **open_args):
    """The lines of a text file; an undecodable file raises InvalidInputError naming it."""
    try:
        with open(path, **open_args) as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not a text file: {exc}") from None


def format_rows(rows) -> list[str]:
    """The CSV line of each row of a (records x columns) array, without its newline."""
    return [",".join(map(repr, row)) for row in np.asarray(rows, dtype=float).tolist()]


def write_csv(path, header, rows) -> None:
    """Write the header cells, then each row of a (records x columns) array.

    ``rows`` may instead be a list of lines from ``format_rows``, so that
    columns shared by several files are formatted once and joined to each.
    """
    preformatted = isinstance(rows, list) and rows and isinstance(rows[0], str)
    lines = rows if preformatted else format_rows(rows)
    with open(path, "w") as fh:
        fh.write("\n".join([",".join(header), *lines, ""]))
