"""Mutation fuzzing of every input loader: each one, fed a mutated copy of
a valid document, returns a value or raises an OpdenseError with exit
code 2; never another exception."""

import copy
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, parse_outcome
from opdense.dataio import read_arff, read_csv, write_arff, write_csv
from opdense.errors import OpdenseError
from opdense.featsel import load_selection, pca_eval, save_selection
from opdense.kernels import KernelSpec
from opdense.pe import parse_pe
from opdense.reports import OpcodeHistogram, _parse_lines, format_report, parse_report, read_manifest
from opdense.svm import load_model, save_model, train_multiclass
from opdense.x86 import count_opcodes
from pe_builder import SECTION_EXECUTE, build_pe

TOKENS = [b"\n", b"\r\n", b",", b"\t", b" ", b".", b"-", b"%", b"0", b"1", b"9", b"1e999", b"nan",
          b"class", b"good", b"malware", b"@attribute", b"@data", b"numeric", b"{", b"}", b"[", b"]",
          b'"', b":", b"null", b"TOTAL", b"\xff", b"\x00", b"\xe9"]

edits = st.lists(
    st.tuples(st.integers(0, 1 << 16), st.sampled_from("dirt"),
              st.one_of(st.sampled_from(TOKENS), st.binary(min_size=1, max_size=4))),
    min_size=1, max_size=6,
)


def mutate(seed: bytes, changes) -> bytes:
    """Delete, insert or replace a chunk at each position, or truncate there."""
    data = bytearray(seed)
    for pos, op, chunk in changes:
        at = pos % (len(data) + 1)
        if op == "d":
            del data[at:at + len(chunk)]
        elif op == "i":
            data[at:at] = chunk
        elif op == "r":
            data[at:at + len(chunk)] = chunk
        else:
            del data[at:]
    return bytes(data)


_DROP = object()
JSON_VALUES = [_DROP, None, True, 0, -1, 2, 1.5, -1e308, 1e308, "", "x", "good", "puk",
               [], [0.0], [[0.0]], [["a"]], {}, {"a": 1}]


def _paths(doc, prefix=()):
    yield prefix
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


def mutate_json(text: str, changes) -> str:
    """Replace (or drop) the value at a chosen path, once per change."""
    doc = json.loads(text)
    for index, value in changes:
        paths = list(_paths(doc))[1:]
        if not paths:
            break
        *parent, key = paths[index % len(paths)]
        target = doc
        for step in parent:
            target = target[step]
        if value is not _DROP:
            target[key] = copy.deepcopy(value)
        elif isinstance(target, dict):
            del target[key]
        else:
            target.pop(key)
    return json.dumps(doc)


json_edits = st.lists(st.tuples(st.integers(0, 1 << 16), st.sampled_from(JSON_VALUES)), min_size=1, max_size=3)


def loads_or_rejects(load, data):
    try:
        load(data)
    except OpdenseError as exc:
        assert exc.exit_code == 2, repr(exc)


def _dataset():
    rng = np.random.RandomState(3)
    return make_dataset(np.round(rng.rand(8, 3), 8), ["good", "malware"] * 4, ("mov", "push", "ret"))


CSV = write_csv(_dataset())
ARFF = write_arff(_dataset())
REPORT = format_report(OpcodeHistogram("r", {"mov": 120, "push": 40, "ret": 7}, 170, "report")).encode()
MANIFEST = b'sample_id,label\ngood_000,good\nmalware_001,malware\n"id, quoted",good\n'
PE = build_pe([(".text", b"\x55\x8b\xec\x90\xc3", SECTION_EXECUTE), (".data", b"\x01\x02", 0x40000040)])
MODEL = save_model(train_multiclass(_dataset(), KernelSpec(family="puk", C=10.0)))
SELECTION = save_selection(pca_eval(_dataset()))


@settings(max_examples=150, deadline=None)
@given(edits)
def test_read_csv_survives_mutation(changes):
    loads_or_rejects(read_csv, mutate(CSV, changes))


@settings(max_examples=150, deadline=None)
@given(edits)
def test_read_arff_survives_mutation(changes):
    loads_or_rejects(read_arff, mutate(ARFF, changes))


@settings(max_examples=150, deadline=None)
@given(edits)
def test_parse_report_survives_mutation(changes):
    text = mutate(REPORT, changes).decode("utf-8", errors="replace")
    loads_or_rejects(lambda t: parse_report(t, "fuzz"), text)
    assert parse_outcome(parse_report, text) == parse_outcome(_parse_lines, text)


@settings(max_examples=150, deadline=None)
@given(edits)
def test_read_manifest_survives_mutation(changes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.csv"
        path.write_bytes(mutate(MANIFEST, changes))
        loads_or_rejects(read_manifest, path)


@settings(max_examples=150, deadline=None)
@given(edits)
def test_parse_pe_and_count_opcodes_survive_mutation(changes):
    loads_or_rejects(lambda data: count_opcodes(parse_pe(data)), mutate(PE, changes))


@settings(max_examples=150, deadline=None)
@given(json_edits, edits, st.booleans())
def test_load_model_survives_mutation(json_changes, byte_changes, also_bytes):
    text = mutate_json(MODEL, json_changes)
    if also_bytes:
        text = mutate(text.encode(), byte_changes).decode("utf-8", errors="replace")
    loads_or_rejects(load_model, text)


@settings(max_examples=150, deadline=None)
@given(json_edits, edits, st.booleans())
def test_load_selection_survives_mutation(json_changes, byte_changes, also_bytes):
    text = mutate_json(SELECTION, json_changes)
    if also_bytes:
        text = mutate(text.encode(), byte_changes).decode("utf-8", errors="replace")
    loads_or_rejects(load_selection, text)
