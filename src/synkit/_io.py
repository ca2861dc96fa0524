"""The one writer, and the one JSON and CSV format, of every synkit artifact.

``write_file`` makes the directory at the first write, so a failed command,
whose checks all run first, writes nothing. JSON is sorted-key, two-space
indented text with a trailing newline: exactly the bytes of ``json.dumps(payload,
sort_keys=True, indent=2)``, its scalars formatted in one call to the stdlib's
C encoder. CSV is one header line, then one row per record, each cell
``repr(float(cell))`` so a float reads back exactly; ``write_csv`` fills one row
template per ``ROW_CHUNK`` rows, and ``read_csv`` reads it back, its header
optional. Text inputs are read line by line through ``text_lines``, arrays through
``float_array`` (``finite_array`` where NaN and Inf are invalid), and every model
record stores its own through ``freeze``, as read-only copies.
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
# table rows formatted per write; bounds a table writer's memory
ROW_CHUNK = 4096


def write_file(path, text) -> None:
    """Write ``text``, a string or string chunks, to ``path``, making its directory;
    the first chunk is formatted before the file opens, which writes it faster."""
    chunks = iter([text] if isinstance(text, str) else text)
    first = next(chunks, "")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(first)
        fh.writelines(chunks)


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
        write_file(path, text)
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


def float_array(value, name):
    """``value`` as a float64 array, itself when it is one; a value numpy cannot read
    as one (ragged, non-numeric) raises DimensionMismatchError naming it."""
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, TypeError) as exc:
        raise DimensionMismatchError(f"{name} is not a numeric array: {exc}") from None


def finite_array(value, name):
    """``float_array(value, name)``; NaN or Inf raises InvalidInputError naming it."""
    array = float_array(value, name)
    if not np.isfinite(array).all():
        raise InvalidInputError(f"{name} contains NaN or Inf")
    return array


def freeze(record, *names):
    """Store each named field of a frozen dataclass as a read-only copy of its
    ``finite_array``; returns the stored arrays in the order named."""
    arrays = []
    for name in names:
        array = finite_array(getattr(record, name), name).copy()
        array.setflags(write=False)
        object.__setattr__(record, name, array)
        arrays.append(array)
    return arrays


def _plain(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


def text_lines(path):
    """The lines of a text file; an undecodable file raises InvalidInputError naming it."""
    try:
        with open(path) as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not a text file: {exc}") from None


def format_cells(rows) -> list[str]:
    """The ``repr`` of every cell of a (records x columns) array, row by row."""
    return list(map(repr, np.asarray(rows, dtype=float).ravel().tolist()))


def write_csv(path, header, rows, sep=",", head=True) -> None:
    """Write the header line unless ``head`` is False, then each row of a
    (records x columns) array, its cells joined by ``sep``.

    ``rows`` may instead be its row-major list of cells from ``format_cells``.
    Ragged rows, or rows not as wide as the header, raise DimensionMismatchError.
    """
    width = len(header)
    try:
        rows = (tuple(rows) if isinstance(rows, list) and (not rows or isinstance(rows[0], str))
                else np.asarray(rows, dtype=float).reshape(len(rows), width).ravel())
        if len(rows) % width:
            raise ValueError(f"{len(rows)} cells")
    except (ValueError, TypeError, ZeroDivisionError) as exc:  # no table ``width`` cells wide
        raise DimensionMismatchError(
            f"{path}: rows are not {width} numeric cells wide: {exc}") from None
    row, step = sep.join(["%s"] * width) + "\n", ROW_CHUNK * width

    def text():
        line = sep.join(header) + "\n" if head else ""  # before the first chunk's rows
        for start in range(0, max(len(rows), 1), step):
            cells = rows[start:start + step]
            cells = cells if isinstance(cells, tuple) else tuple(map(repr, cells.tolist()))
            yield line + row * (len(cells) // width) % cells
            line = ""

    write_file(path, text())


def read_csv(path) -> np.ndarray:
    """The (rows x columns) floats of a CSV table such as ``write_csv`` writes.

    A first line with a non-numeric cell is the header and is skipped; every
    other nonblank line is one row of floats, as wide as the first row. A line
    that breaks this raises DimensionMismatchError naming ``path:lineno``, and
    a file without rows the same error naming the path.
    """
    rows = []
    for lineno, line in enumerate(text_lines(path), start=1):
        if not line.strip():
            continue
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError:
            if lineno == 1:
                continue  # the header
            raise DimensionMismatchError(
                f"{path}:{lineno}: non-numeric cell in {line.strip()!r}") from None
        if rows and len(row) != len(rows[0]):
            raise DimensionMismatchError(
                f"{path}:{lineno}: {len(row)} cells, but the first row has {len(rows[0])}")
        rows.append(row)
    if not rows:
        raise DimensionMismatchError(f"{path}: no data rows")
    return np.array(rows)
