import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from opdense.dataio import _rows, read_arff, read_csv, write_arff, write_csv, read_dataset, write_dataset
from opdense.dataset import minmax_scale
from opdense.errors import SchemaMismatch
from opdense.labels import BINARY_LABELS, FAMILY_LABELS, LabelScheme, infer_scheme


def sample_ds():
    return make_dataset(
        [[0.32820513, 0.0], [0.1, 0.9]],
        ["good", "malware"],
        ("mov", "push"),
    )


def test_csv_header_and_class_last():
    data = write_csv(sample_ds())
    header = data.decode().splitlines()[0]
    assert header == "mov,push,class"


def test_csv_round_trip_values_exact():
    ds = sample_ds()
    again = read_csv(write_csv(ds))
    assert again.attributes == ds.attributes
    assert again.labels == ds.labels
    assert np.array_equal(again.X, ds.X)
    assert again.X[0, 0] == 0.32820513


def test_csv_write_read_write_byte_identical():
    ds = sample_ds()
    first = write_csv(ds)
    second = write_csv(read_csv(first))
    assert first == second


@given(st.integers(0, 4).flatmap(lambda width: st.lists(
    st.lists(st.floats(0, 1e300) | st.sampled_from([0.0, 5e-9, 1.5e-8, 0.125, 1.0, 123456789.0]),
             min_size=width, max_size=width), min_size=0, max_size=4)))
@settings(max_examples=100, deadline=None)
def test_data_rows_are_each_value_fixed_then_the_label(rows):
    width = len(rows[0]) if rows else 2
    labels = ["good", "malware"] * len(rows)
    ds = make_dataset(np.array(rows).reshape(len(rows), width), labels[:len(rows)])
    expected = [",".join([f"{v:.8f}" for v in row] + [label]) for row, label in zip(ds.X, ds.labels)]
    assert write_csv(ds).decode().split("\n")[1:-1] == expected
    assert write_arff(ds).decode().split("@data\n")[1].split("\n")[:-1] == expected


def test_arff_class_attribute_last_with_scheme_labels():
    text = write_arff(sample_ds()).decode()
    lines = [ln for ln in text.splitlines() if ln.startswith("@attribute")]
    assert lines[-1] == "@attribute class {good,malware}"


def test_arff_round_trip_byte_identical():
    ds = sample_ds()
    first = write_arff(ds)
    second = write_arff(read_arff(first))
    assert first == second


def test_arff_family_scheme():
    ds = make_dataset([[0.5]], ["Cerber"], ("mov",), scheme=LabelScheme.family)
    text = write_arff(ds).decode()
    assert "@attribute class {good,Torrentlocker,TeslaCrypt,Locky,CryptoWall,Cerber}" in text
    again = read_arff(write_arff(ds))
    assert again.scheme == LabelScheme.family
    assert again.labels == ("Cerber",)


@pytest.mark.parametrize("labels, scheme", [
    (["good"], LabelScheme.binary),
    (["good", "malware"], LabelScheme.binary),
    (["malware", "Locky"], LabelScheme.family),
])
def test_infer_scheme_is_binary_only_when_every_label_is_binary(labels, scheme):
    assert infer_scheme(labels) == scheme


def test_scaled_dataset_survives_both_formats():
    rng = np.random.RandomState(2)
    ds = make_dataset(rng.rand(6, 3), ["good", "malware"] * 3)
    scaled, _ = minmax_scale(ds)
    for fmt in ("csv", "arff"):
        data = write_dataset(scaled, fmt)
        again = read_dataset(data, fmt)
        assert np.max(np.abs(again.X - scaled.X)) <= 5e-9  # 8-decimal storage


def test_csv_row_width_mismatch():
    bad = b"mov,class\n0.1,0.2,good\n"
    with pytest.raises(SchemaMismatch):
        read_csv(bad)


def test_csv_missing_class_column():
    with pytest.raises(SchemaMismatch):
        read_csv(b"mov,push\n0.1,0.2\n")


def test_arff_label_outside_declared_set():
    bad = (
        "@relation r\n@attribute mov numeric\n"
        "@attribute class {good,malware}\n@data\n0.1,Cerber\n"
    ).encode()
    with pytest.raises(SchemaMismatch, match="label 'Cerber' not valid for scheme 'binary'"):
        read_arff(bad)


def test_arff_refuses_a_nominal_attribute_other_than_the_class():
    with pytest.raises(SchemaMismatch, match="only the class attribute may be nominal"):
        read_arff(b"@relation r\n@attribute mov {a,b}\n@attribute class {good,malware}\n@data\n")


def test_unknown_dataset_format_is_refused():
    with pytest.raises(SchemaMismatch, match="unknown dataset format 'json'"):
        read_dataset(write_csv(sample_ds()), "json")
    with pytest.raises(SchemaMismatch, match="unknown dataset format 'json'"):
        write_dataset(sample_ds(), "json")


def test_arff_unknown_class_set():
    bad = (
        "@relation r\n@attribute mov numeric\n"
        "@attribute class {cat,dog}\n@data\n0.1,cat\n"
    ).encode()
    with pytest.raises(SchemaMismatch):
        read_arff(bad)


# --- one line rule, one row parser ------------------------------------------------

def _crlf(data: bytes) -> bytes:
    return data.replace(b"\n", b"\r\n")


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_both_formats_and_line_ends_read_the_same_dataset(data):
    names = data.draw(st.lists(st.text("abcdefghijklmnopqrstuvwxyz0123456789_.", min_size=1, max_size=6),
                               min_size=0, max_size=5, unique=True))
    n = data.draw(st.integers(0, 5))
    values = st.sampled_from([0.0, 5e-9, 1e-8, 0.5, 0.12345678, 1.0, 1e300]) | st.floats(0, 1e6)
    X = np.array(data.draw(st.lists(st.lists(values, min_size=len(names), max_size=len(names)),
                                    min_size=n, max_size=n))).reshape(n, len(names))
    labels = data.draw(st.lists(st.sampled_from(data.draw(st.sampled_from([BINARY_LABELS, FAMILY_LABELS]))),
                                min_size=n, max_size=n))
    ds = make_dataset(X, labels, names, scheme=infer_scheme(labels))
    csv, arff = write_csv(ds), write_arff(ds)
    reads = [read_csv(csv), read_csv(_crlf(csv)), read_arff(arff), read_arff(_crlf(arff))]
    for again in reads:
        assert again.attributes == ds.attributes
        assert again.X.tobytes() == reads[0].X.tobytes()
        assert again.labels == ds.labels
        assert again.scheme == ds.scheme
    assert write_csv(reads[0]) == csv  # the 8-decimal text is a fixed point


def test_csv_with_crlf_and_blanks_at_line_ends_reads():
    ds = sample_ds()
    blanks = write_csv(ds).replace(b"\n", b" \r\n\t\r\n").replace(b",good", b", good")
    again = read_csv(blanks)
    assert again.attributes == ds.attributes and again.labels == ds.labels
    assert again.X.tobytes() == ds.X.tobytes()


CELLS = ["1_0", " 1.5 ", "+.5", "1.", "\u0661", "1e-400"]


def test_row_parser_converts_each_cell_as_float_does():
    X, labels = _rows([",".join(CELLS) + ", good"], len(CELLS))
    assert X.tobytes() == np.array([float(c) for c in CELLS]).tobytes()
    assert labels == ["good"]


@pytest.mark.parametrize("cell", ["1__0", "0x10", "", "1 5", "1\x00", "."])
def test_row_parser_refuses_what_float_refuses(cell):
    with pytest.raises(ValueError):
        float(cell)
    with pytest.raises(SchemaMismatch, match="non-numeric"):
        _rows([f"0.5,{cell},good"], 2)


@pytest.mark.parametrize("row", ["0.5", "0.5,good", "0.5,0.5,0.5,good"])
def test_row_of_the_wrong_width_is_refused_not_broadcast(row):
    with pytest.raises(SchemaMismatch, match="cells, header has 3"):
        read_csv(f"a,b,class\n{row}\n".encode())
    with pytest.raises(SchemaMismatch, match="cells, header has 3"):
        read_arff(f"@attribute a numeric\n@attribute b numeric\n@attribute class {{good,malware}}\n@data\n{row}\n".encode())


@pytest.mark.parametrize("header", [b"a,,class", b"a b,c,class", b" a,b ,class"])
def test_csv_refuses_a_name_arff_cannot_carry(header):
    with pytest.raises(SchemaMismatch, match="attribute name"):
        read_csv(header + b"\n0.1,0.2,good\n")


def test_arff_refuses_a_name_csv_cannot_carry():
    with pytest.raises(SchemaMismatch, match="attribute name"):
        read_arff(b"@attribute a,b numeric\n@attribute class {good,malware}\n@data\n0.1,good\n")


@pytest.mark.parametrize("after_class", ["@attribute mov numeric", "@attribute class {good,malware}"])
def test_arff_class_attribute_must_come_last(after_class):
    bad = f"@relation r\n@attribute class {{good,malware}}\n{after_class}\n@data\n0.5,good\n".encode()
    with pytest.raises(SchemaMismatch, match="after the class attribute"):
        read_arff(bad)
