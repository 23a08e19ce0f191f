import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opdense.errors import (
    DuplicateMnemonic,
    EmptyReport,
    MalformedLine,
    NoFilesFound,
    SchemaMismatch,
    UnresolvedLabel,
)
from opdense.labels import LabelScheme
from conftest import parse_outcome
from report_oracle import format_report_rows
from opdense.reports import (
    OpcodeHistogram,
    _parse_lines,
    format_report,
    parse_report,
    read_manifest,
    scan_directory,
)

TEN_LINE_BLOCK = """\
0001.\t522777\t49.30%\tmov
0002.\t100587\t9.49%\tcall
0003.\t092192\t8.69%\tlea
0004.\t068179\t6.43%\tsub
0005.\t035504\t3.35%\tjz
0006.\t034083\t3.21%\ttest
0007.\t033897\t3.20%\tjmp
0008.\t031512\t2.97%\tcmp
0009.\t025956\t2.45%\tpush
0010.\t018663\t1.76%\tadd
"""

TEN_LINE_COUNTS = {
    "mov": 522777, "call": 100587, "lea": 92192, "sub": 68179, "jz": 35504,
    "test": 34083, "jmp": 33897, "cmp": 31512, "push": 25956, "add": 18663,
}


def test_ten_line_block_counts():
    h = parse_report(TEN_LINE_BLOCK, "sample")
    assert h.counts == TEN_LINE_COUNTS
    # no TOTAL line: the total is the sum of the rows
    assert h.total == sum(TEN_LINE_COUNTS.values()) == 963350
    assert h.source == "report"


def test_leading_zeros_stripped():
    h = parse_report("0009.\t025956\t2.45%\tpush\n", "s")
    assert h.counts == {"push": 25956}


def test_single_line_total_is_sum():
    h = parse_report("0001.\t10\t100.00%\tnop\n", "s")
    assert h.total == 10


def test_explicit_total_wins():
    h = parse_report("0001.\t10\t50.00%\tnop\nTOTAL\t20\n", "s")
    assert h.total == 20


def test_explicit_total_below_sum_rejected():
    with pytest.raises(MalformedLine):
        parse_report("0001.\t10\t50.00%\tnop\nTOTAL 5\n", "s")


def test_spaces_accepted_as_separators():
    h = parse_report("1. 42 10.00% xor\n", "s")
    assert h.counts == {"xor": 42}


def test_mixed_case_mnemonics_lowered():
    h = parse_report("1. 3 10.00% MOV\n", "s")
    assert h.counts == {"mov": 3}


def test_duplicate_mnemonic():
    text = "1. 3 10.00% mov\n2. 4 20.00% MOV\n"
    with pytest.raises(DuplicateMnemonic):
        parse_report(text, "s")


def test_malformed_line_number():
    text = "1. 3 10.00% mov\nnot a line\n"
    with pytest.raises(MalformedLine) as err:
        parse_report(text, "s")
    assert err.value.line_no == 2


def test_data_after_total_rejected():
    text = "1. 3 10.00% mov\nTOTAL 3\n2. 1 5.00% ret\n"
    with pytest.raises(MalformedLine):
        parse_report(text, "s")


def test_overlong_count_is_malformed():
    digits = "9" * 5000  # more than Python converts to an int by default
    with pytest.raises(MalformedLine):
        parse_report(f"1. {digits} 50.00% mov\n", "x")
    with pytest.raises(MalformedLine):
        parse_report(f"1. 5 50.00% mov\nTOTAL {digits}\n", "x")


def test_empty_report():
    with pytest.raises(EmptyReport):
        parse_report("\n  \n", "s")


def test_a_report_without_rows_is_refused_by_the_histogram_and_a_zero_total_stays_malformed():
    with pytest.raises(EmptyReport, match="^s: no opcode rows$"):
        parse_report("TOTAL 5\n", "s")
    with pytest.raises(MalformedLine, match="total smaller than the sum of counts"):
        parse_report("1. 5 50.00% mov\nTOTAL 0\n", "s")


def test_round_trip_preserves_counts_and_total():
    h = parse_report(TEN_LINE_BLOCK, "s")
    again = parse_report(format_report(h), "s")
    assert again.counts == h.counts
    assert again.total == h.total


@given(st.dictionaries(
    keys=st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8),
    values=st.integers(min_value=0, max_value=10**8),
    min_size=1, max_size=30,
), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_round_trip_property(counts, extra_total):
    total = sum(counts.values()) + extra_total
    if total == 0:
        return
    h = OpcodeHistogram(sample_id="x", counts=counts, total=total, source="report")
    again = parse_report(format_report(h), "x")
    assert again.counts == counts
    assert again.total == total


# a name may hold "%", which the writer must pass as an argument, never
# put into its template
MNEMONICS = st.text(alphabet="abcmovz09%.-_\u00df", min_size=1, max_size=6)
WIDE = {f"m{i:05d}": i % 7 for i in range(10_000)}  # the rank column widens to 5 digits


@given(st.dictionaries(
    keys=MNEMONICS,
    # small counts tie, and ties come out in name order
    values=st.one_of(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=10**9)),
    min_size=1, max_size=40,
), st.integers(min_value=0, max_value=10**7))
@example({"mov": 1, "push": 799}, 0)  # 1 of 800 is 0.125 %, an exact half-up tie: 0.13%
@example({"a%s": 1, "%d%%": 1, "%": 2}, 1)
@example({"mov": 10**6, "push": 10**12, "ret": 10**6}, 3)  # wider than %06d
@example(WIDE, 0)
@example({**WIDE, "%": 5}, 10**6)
@settings(max_examples=200, deadline=None)
def test_format_report_agrees_with_the_row_oracle(counts, extra_total):
    total = sum(counts.values()) + extra_total or 1
    h = OpcodeHistogram(sample_id="x", counts=counts, total=total, source="report")
    # as lines, so that a failure names the first differing line of a
    # 10,000-row report instead of diffing the two texts
    assert format_report(h).splitlines(keepends=True) == format_report_rows(h).splitlines(keepends=True)


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_parser_is_total_on_arbitrary_text(text):
    try:
        parse_report(text, "fuzz")
    except (MalformedLine, DuplicateMnemonic, EmptyReport):
        pass


LONG = "9" * 5000  # more digits than Python converts to an int by default

# reports on which the whole-text parse must agree with the line loop
EDGE_REPORTS = {
    "crlf": "1. 5 50.00% mov\r\n2. 3 30.00% ret\r\nTOTAL 10\r\n",
    "crlf-last-line-bare": "1. 5 50.00% mov\r\nTOTAL 10",
    "lone-cr": "1. 5 50.00% mov\r2. 3 30.00% ret\r",
    "form-feed-in-line": "1.\f5 50.00% mov\n",
    "form-feed-line-break": "1. 5 50.00% mov\f2. 3 30.00% ret\n",
    "vertical-tab-in-line": "1. 5\x0b50.00% mov\n",
    "nel-after-mnemonic": "1. 5 50.00% mov\x852. 3 30.00% ret\n",
    "nel-in-mnemonic": "1. 5 50.00% m\x85ov\n",
    "file-separator": "1. 5 50.00% mov\x1c2. 3 30.00% ret\n",
    "no-break-space": "1.\u00a05 50.00% mov\n2. 3 30.00% ret\u00a0\n",
    "leading-blanks": "   1. 5 50.00% mov\n\t2. 3 30.00% ret\n \t TOTAL 9 \t\n",
    "blank-lines-between": "\n1. 5 50.00% mov\n\n   \n2. 3 30.00% ret\n\t\nTOTAL 9\n\n\n",
    "empty-lines-between": "\n\n1. 5 50.00% mov\n\n2. 3 30.00% ret\n\nTOTAL 9\n\n",
    "no-final-newline": "1. 5 50.00% mov\n2. 3 30.00% ret",
    "arabic-indic-digits": "\u0661. \u0665 \u0665\u0660.\u0660\u0660% mov\nTOTAL \u0661\u0660\n",
    "fullwidth-digits": "\uff11. \uff15\uff10 50.00% mov\n",
    "uppercase-mnemonics": "1. 5 50.00% MOV\n2. 3 30.00% Ret\n3. 1 1.00% \u0130nc\n",
    "sigma-mnemonic": "1. 5 50.00% A\u03a3\n2. 3 30.00% b\u03c2\n",
    "duplicate-row": "1. 5 50.00% mov\n2. 3 30.00% ret\n3. 1 10.00% MOV\n",
    "data-after-total": "1. 5 50.00% mov\nTOTAL 5\n2. 3 30.00% ret\n",
    "two-totals": "1. 5 50.00% mov\nTOTAL 9\nTOTAL 9\n",
    "total-zero": "1. 5 50.00% mov\nTOTAL 0\n",
    "total-zero-zero-rows": "1. 0 0.00% mov\nTOTAL 0\n",
    "zero-rows": "1. 0 0.00% mov\n2. 00 0.00% ret\n",
    "total-below-sum": "1. 5 50.00% mov\n2. 3 30.00% ret\nTOTAL 7\n",
    "total-only": "TOTAL 5\n",
    "blank-only": " \t\n\x85\u3000\n",
    "long-count": f"1. {LONG} 50.00% mov\n",
    "long-total": f"1. 5 50.00% mov\nTOTAL {LONG}\n",
    "long-rank": f"{LONG}. 5 50.00% mov\n",
    "garbage-line": "1. 5 50.00% mov\nnot a row\n",
    "two-rows-on-one-line": "1. 5 50.00% mov 2. 3 30.00% ret\n",
}


@pytest.mark.parametrize("text", EDGE_REPORTS.values(), ids=EDGE_REPORTS.keys())
def test_parse_report_agrees_with_the_line_loop(text):
    assert parse_outcome(parse_report, text) == parse_outcome(_parse_lines, text)


@pytest.mark.parametrize("text, line_no", [
    (EDGE_REPORTS["no-break-space"], 1),
    ("1. 5 50.00% mov\n2. 3 30.00% ret\u00a0\n", 2),
    ("1. 5 50.00% mov\nTOTAL\u00a09\n", 2),
], ids=["between fields", "after the mnemonic", "in the TOTAL line"])
def test_a_no_break_space_is_no_field_separator(text, line_no):
    with pytest.raises(MalformedLine, match=f"^line {line_no}: does not match the report grammar"):
        parse_report(text, "s")


def test_formatted_report_is_parsed_without_the_line_loop(monkeypatch):
    def line_loop(text, sample_id):
        raise AssertionError("fell back to the line loop")
    monkeypatch.setattr("opdense.reports._parse_lines", line_loop)
    assert parse_report(TEN_LINE_BLOCK, "s").counts == TEN_LINE_COUNTS
    h = parse_report(format_report(OpcodeHistogram("s", TEN_LINE_COUNTS, 10**6, "report")), "s")
    assert list(h.counts.items()) == sorted(TEN_LINE_COUNTS.items(), key=lambda kv: -kv[1])
    assert h.total == 10**6


@pytest.mark.parametrize("counts, total, error", [
    ({"": 1}, 1, MalformedLine),
    ({"mov": 1, "Push": 1}, 2, MalformedLine),
    ({"mov": 1, "a\u03a3": 1}, 2, MalformedLine),  # lower() makes it a final sigma
    ({"mov": 1, "\u0130": 1}, 2, MalformedLine),  # lower() makes it two characters
    ({"mov": 1, "mo v": 1}, 2, MalformedLine),
    ({"mov\u3000": 1}, 1, MalformedLine),
    ({"mov": 1, "ret\x85": 1}, 2, MalformedLine),
    ({"mov": 1, "ret": -1}, 1, MalformedLine),
    ({"mov": 0}, 0, EmptyReport),
    ({"mov": 1}, -1, EmptyReport),
    ({"mov": 2, "ret": 2}, 3, MalformedLine),
    ({}, 1, EmptyReport),
    ({"mov": 1, "a,b": 1}, 2, MalformedLine),  # would split a CSV header cell
])
def test_histogram_rejects(counts, total, error):
    with pytest.raises(error):
        OpcodeHistogram(sample_id="s", counts=counts, total=total, source="report")


@pytest.mark.parametrize("name", ["a\u03c2", "\u03c3\u03c2", "\u00df", "x86_64", "f2xm1"])
def test_histogram_accepts_lowercase_names(name):
    # "a\u03c2" ends in a final sigma, which lower() keeps as it is
    assert OpcodeHistogram(sample_id="s", counts={name: 1, "mov": 2}, total=3, source="report").total == 3


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_scan_directory_orders_by_sample_id(tmp_path):
    _write(tmp_path / "malware" / "b.txt", "1. 5 50.00% mov\n")
    _write(tmp_path / "good" / "a.txt", "1. 5 50.00% ret\n")
    result = scan_directory(tmp_path)
    assert [lh.histogram.sample_id for lh in result.histograms] == ["a", "b"]
    assert [lh.label.value for lh in result.histograms] == ["good", "malware"]
    assert {lh.label.scheme for lh in result.histograms} == {LabelScheme.binary}
    assert result.failures == []


def test_scan_empty_directory(tmp_path):
    with pytest.raises(NoFilesFound):
        scan_directory(tmp_path)


def test_manifest_overrides_directory(tmp_path):
    _write(tmp_path / "whatever" / "a.txt", "1. 5 50.00% mov\n")
    result = scan_directory(tmp_path, manifest={"a": "Cerber"})
    assert result.histograms[0].label.value == "Cerber"
    assert result.histograms[0].label.scheme == LabelScheme.family


def test_scan_partial_failure_recorded(tmp_path):
    _write(tmp_path / "good" / "ok.txt", "1. 5 50.00% mov\n")
    _write(tmp_path / "good" / "bad.txt", "garbage\n")
    _write(tmp_path / "good" / "long.txt", "1. " + "9" * 5000 + " 50.00% mov\n")
    (tmp_path / "good" / "utf16.txt").write_bytes("1. 5 50.00% mov\n".encode("utf-16"))
    result = scan_directory(tmp_path)
    assert len(result.histograms) == 1
    assert {f.path.name: type(f.error) for f in result.failures} == {
        "bad.txt": MalformedLine, "long.txt": MalformedLine, "utf16.txt": SchemaMismatch}


def test_scan_records_a_report_with_a_comma_in_a_mnemonic_and_goes_on(tmp_path):
    _write(tmp_path / "good" / "ok.txt", "1. 5 50.00% mov\n")
    _write(tmp_path / "good" / "comma.txt", "1. 5 50.00% a,b\n")
    result = scan_directory(tmp_path)
    assert [lh.histogram.sample_id for lh in result.histograms] == ["ok"]
    assert {f.path.name: type(f.error) for f in result.failures} == {"comma.txt": MalformedLine}


@pytest.mark.parametrize("callee", ["parse_report", "infer_scheme", "ClassLabel"])
def test_scan_lets_a_programming_error_propagate(tmp_path, monkeypatch, callee):
    _write(tmp_path / "good" / "ok.txt", "1. 5 50.00% mov\n")

    def broken(*args):
        raise TypeError("not an input error")
    monkeypatch.setattr(f"opdense.reports.{callee}", broken)
    with pytest.raises(TypeError):
        scan_directory(tmp_path)


def test_scan_unresolved_label_in_root(tmp_path):
    _write(tmp_path / "a.txt", "1. 5 50.00% mov\n")
    _write(tmp_path / "good" / "b.txt", "1. 5 50.00% mov\n")
    result = scan_directory(tmp_path)
    assert len(result.histograms) == 1
    assert isinstance(result.failures[0].error, UnresolvedLabel)


def test_scan_records_a_second_file_with_the_same_sample_id(tmp_path):
    _write(tmp_path / "good" / "a.txt", "1. 5 50.00% mov\n")
    _write(tmp_path / "malware" / "a.txt", "1. 5 50.00% ret\n")
    _write(tmp_path / "malware" / "b.txt", "1. 5 50.00% ret\n")
    result = scan_directory(tmp_path)
    assert [(lh.histogram.sample_id, lh.label.value) for lh in result.histograms] == [("a", "good"), ("b", "malware")]
    [failure] = result.failures
    assert failure.path == tmp_path / "malware" / "a.txt"
    assert isinstance(failure.error, UnresolvedLabel) and "duplicate sample id" in str(failure.error)


def test_scan_of_mixed_schemes_keeps_the_family_labels(tmp_path):
    for sid, label in (("a", "good"), ("b", "malware"), ("c", "Locky"), ("d", "malware")):
        _write(tmp_path / label / f"{sid}.txt", "1. 5 50.00% mov\n")
    result = scan_directory(tmp_path)
    assert [(lh.histogram.sample_id, lh.label.value) for lh in result.histograms] == [("a", "good"), ("c", "Locky")]
    assert {lh.label.scheme for lh in result.histograms} == {LabelScheme.family}
    assert [f.path.name for f in result.failures] == ["b.txt", "d.txt"]
    assert all(isinstance(f.error, UnresolvedLabel) and "fits no scheme" in str(f.error) for f in result.failures)


def test_manifest_reader(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("sample_id,label\na,good\nb,malware\n", encoding="utf-8")
    assert read_manifest(p) == {"a": "good", "b": "malware"}
