"""Dataset serialization: CSV and a small ARFF subset.

Both formats are byte-exact: values are written with 8 fixed decimals,
UTF-8, LF line endings, class column last. write -> read -> write is
byte identical.

Also the checked reading of the JSON documents (model and selection
files): every malformed document raises ``SchemaMismatch``.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from .dataset import Dataset
from .errors import SchemaMismatch, decode_utf8
from .labels import LabelScheme, infer_scheme, scheme_labels


def _data_lines(ds: Dataset) -> list[str]:
    """One line per instance: each value with 8 fixed decimals, then the label."""
    line = ",".join(["%.8f"] * ds.n_attributes) + ",%s"
    return [line % (*row, label) for row, label in zip(ds.X.tolist(), ds.labels)]


def write_csv(ds: Dataset) -> bytes:
    lines = [",".join(ds.attributes + ("class",)), *_data_lines(ds)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def read_csv(data: bytes) -> Dataset:
    text = decode_utf8(data, "CSV dataset")
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise SchemaMismatch("empty CSV")
    header = lines[0].split(",")
    if not header or header[-1] != "class":
        raise SchemaMismatch("CSV header must end with a 'class' column")
    attributes = tuple(header[:-1])
    rows: list[list[float]] = []
    labels: list[str] = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise SchemaMismatch(f"row has {len(cells)} cells, header has {len(header)}")
        try:
            rows.append([float(c) for c in cells[:-1]])
        except ValueError as exc:
            raise SchemaMismatch(f"non-numeric cell in row: {exc}") from exc
        labels.append(cells[-1])
    scheme = infer_scheme(labels)
    X = np.array(rows) if rows else np.zeros((0, len(attributes)))
    return Dataset(attributes=attributes, X=X, labels=tuple(labels), scheme=scheme)


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
    text = decode_utf8(data, "ARFF dataset")
    attributes: list[str] = []
    class_values: tuple[str, ...] | None = None
    rows: list[list[float]] = []
    labels: list[str] = []
    in_data = False
    for raw in text.split("\n"):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if not in_data:
            low = line.lower()
            if low.startswith("@relation"):
                continue
            if low.startswith("@data"):
                in_data = True
                continue
            m = _ATTR_RE.match(line)
            if not m:
                raise SchemaMismatch(f"unparseable header line: {line!r}")
            name, kind = m.group(1), m.group(2).strip()
            if kind.startswith("{"):
                if name != "class":
                    raise SchemaMismatch("only the class attribute may be nominal")
                class_values = tuple(v.strip() for v in kind.strip("{}").split(","))
            elif kind.lower() == "numeric":
                attributes.append(name)
            else:
                raise SchemaMismatch(f"unsupported attribute type {kind!r}")
        else:
            cells = line.split(",")
            if len(cells) != len(attributes) + 1:
                raise SchemaMismatch("data row width does not match the header")
            try:
                rows.append([float(c) for c in cells[:-1]])
            except ValueError as exc:
                raise SchemaMismatch(f"non-numeric cell: {exc}") from exc
            labels.append(cells[-1].strip())
    if class_values is None:
        raise SchemaMismatch("missing nominal class attribute")
    for scheme in LabelScheme:
        if set(class_values) == set(scheme_labels(scheme)):
            declared = scheme
            break
    else:
        raise SchemaMismatch(f"class values {class_values} match no known scheme")
    bad = set(labels) - set(class_values)
    if bad:
        raise SchemaMismatch(f"data labels outside the declared class set: {sorted(bad)}")
    X = np.array(rows) if rows else np.zeros((0, len(attributes)))
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
