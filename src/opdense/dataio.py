"""Dataset serialization: CSV and a small ARFF subset.

Both formats are byte-exact: values are written with 8 fixed decimals,
UTF-8, LF line endings, class column last. write -> read -> write is
byte identical. The readers share one line rule and one data-row parser,
so a CRLF file reads as its LF form does.

Also the checked reading of the JSON documents (model and selection
files): every malformed document raises ``SchemaMismatch``.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from .dataset import DENSITY_DECIMALS, Dataset
from .errors import SchemaMismatch, decode_utf8
from .labels import infer_scheme, scheme_labels


def _data_lines(ds: Dataset) -> list[str]:
    """One line per instance: each value with DENSITY_DECIMALS fixed decimals, then the label."""
    line = ",".join([f"%.{DENSITY_DECIMALS}f"] * ds.n_attributes + ["%s"])
    return [line % (*row, label) for row, label in zip(ds.X.tolist(), ds.labels)]


def _lines(data: bytes, what: str) -> list[str]:
    """The one line rule of both formats: UTF-8 text split on LF, each
    line stripped, blank lines dropped (so CRLF files read too)."""
    return [line for line in (raw.strip() for raw in decode_utf8(data, what).split("\n")) if line]


def _rows(lines: list[str], width: int) -> tuple[np.ndarray, list[str]]:
    """The data rows under a header of ``width`` attributes: each row's
    ``width`` values, converted as ``float()`` converts them, then its label."""
    X = np.empty((len(lines), width))
    labels = []
    for i, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) != width + 1:  # checked first: a single value would broadcast
            raise SchemaMismatch(f"data row {i + 1} has {len(cells)} cells, header has {width + 1}")
        try:
            X[i] = cells[:-1]  # numpy converts each Python str with float()
        except ValueError as exc:
            raise SchemaMismatch(f"data row {i + 1}: non-numeric cell: {exc}") from None
        labels.append(cells[-1].strip())
    return X, labels


def write_csv(ds: Dataset) -> bytes:
    lines = [",".join(ds.attributes + ("class",)), *_data_lines(ds)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def read_csv(data: bytes) -> Dataset:
    lines = _lines(data, "CSV dataset")
    if not lines:
        raise SchemaMismatch("empty CSV")
    *attributes, last = lines[0].split(",")
    if last != "class":
        raise SchemaMismatch("CSV header must end with a 'class' column")
    X, labels = _rows(lines[1:], len(attributes))
    return Dataset(attributes=tuple(attributes), X=X, labels=tuple(labels), scheme=infer_scheme(labels))


def write_arff(ds: Dataset) -> bytes:
    lines = ["@relation opcode_densities", ""]
    for name in ds.attributes:
        lines.append(f"@attribute {name} numeric")
    lines.append("@attribute class {" + ",".join(scheme_labels(ds.scheme)) + "}")
    lines.append("")
    lines.append("@data")
    lines += _data_lines(ds)
    return ("\n".join(lines) + "\n").encode("utf-8")


_ATTR_RE = re.compile(r"^@attribute\s+(\S+)\s+(.+)$", re.IGNORECASE)


def read_arff(data: bytes) -> Dataset:
    lines = [line for line in _lines(data, "ARFF dataset") if not line.startswith("%")]
    end = next((n for n, line in enumerate(lines) if line.lower().startswith("@data")), len(lines))
    attributes: list[str] = []
    class_values: tuple[str, ...] | None = None
    for line in lines[:end]:
        if line.lower().startswith("@relation"):
            continue
        m = _ATTR_RE.match(line)
        if not m:
            raise SchemaMismatch(f"unparseable header line: {line!r}")
        if class_values is not None:  # the reader takes the last cell of a row as its label
            raise SchemaMismatch(f"attribute declared after the class attribute: {line!r}")
        name, kind = m.group(1), m.group(2).strip()
        if kind.startswith("{"):
            if name != "class":
                raise SchemaMismatch("only the class attribute may be nominal")
            class_values = tuple(v.strip() for v in kind.strip("{}").split(","))
        elif kind.lower() == "numeric":
            attributes.append(name)
        else:
            raise SchemaMismatch(f"unsupported attribute type {kind!r}")
    X, labels = _rows(lines[end + 1:], len(attributes))
    if class_values is None:
        raise SchemaMismatch("missing nominal class attribute")
    declared = infer_scheme(class_values)
    if set(class_values) != set(scheme_labels(declared)):
        raise SchemaMismatch(f"class values {class_values} match no known scheme")
    return Dataset(attributes=tuple(attributes), X=X, labels=tuple(labels), scheme=declared)


def write_dataset(ds: Dataset, fmt: str) -> bytes:
    if fmt == "csv":
        return write_csv(ds)
    if fmt == "arff":
        return write_arff(ds)
    raise SchemaMismatch(f"unknown dataset format {fmt!r}")


def read_dataset(data: bytes, fmt: str) -> Dataset:
    if fmt == "csv":
        return read_csv(data)
    if fmt == "arff":
        return read_arff(data)
    raise SchemaMismatch(f"unknown dataset format {fmt!r}")


def format_for_path(path) -> str:
    suffix = str(path).rsplit(".", 1)[-1].lower()
    return "arff" if suffix == "arff" else "csv"


# --- JSON documents -------------------------------------------------------------

NUMBER = (int, float)


def json_object(text: str, what: str) -> dict:
    """``text`` parsed as a JSON object."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        raise SchemaMismatch(f"{what} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaMismatch(f"{what} must be a JSON object, not {type(doc).__name__}")
    return doc


def json_field(doc, key: str, kinds, what: str):
    """``doc[key]``, which must be an instance of ``kinds``; a bool is no number."""
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaMismatch(f"{what} is not a JSON object with {key!r}")
    value = doc[key]
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise SchemaMismatch(f"{what}: {key!r} must not be {type(value).__name__}")
    return value


def json_number(doc, key: str, what: str) -> float:
    """``doc[key]``, a finite number, as a float."""
    value = json_field(doc, key, NUMBER, what)
    try:
        value = float(value)
    except OverflowError:  # an integer past the float range
        value = math.inf
    if not math.isfinite(value):
        raise SchemaMismatch(f"{what}: {key!r} must be a finite number")
    return value


def json_strings(doc, key: str, what: str) -> tuple[str, ...]:
    values = json_field(doc, key, list, what)
    if not all(isinstance(v, str) for v in values):
        raise SchemaMismatch(f"{what}: {key!r} must be a list of strings")
    return tuple(values)


def json_floats(doc, key: str, what: str, ndim: int = 1) -> np.ndarray:
    """``doc[key]``, a list (of lists, for ``ndim=2``) of finite numbers."""
    values = json_field(doc, key, list, what)
    try:
        arr = np.array(values)
    except ValueError as exc:  # ragged rows
        raise SchemaMismatch(f"{what}: {key!r}: {exc}") from None
    if values and (arr.dtype.kind not in "iuf" or arr.ndim != ndim):
        raise SchemaMismatch(f"{what}: {key!r} must be a list{' of lists' * (ndim - 1)} of numbers")
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise SchemaMismatch(f"{what}: {key!r} holds a non-finite number")
    return arr
