"""Instruction-count report parsing and serialization.

A report is the plain-text format produced by instruction counting tools:
one line per opcode of the form ``<rank>. <count> <density>% <mnemonic>``
followed by an optional ``TOTAL <n>`` line. Parsed density percentages
are thrown away; they are recomputed later at higher precision from the
counts and the total.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    DuplicateMnemonic,
    EmptyReport,
    MalformedLine,
    NoFilesFound,
    OpdenseError,
    SchemaMismatch,
    UnresolvedLabel,
    decode_utf8,
)
from .labels import BINARY_LABELS, FAMILY_LABELS, ClassLabel, infer_scheme
from .rounding import round_half_up_fractions

# the one row grammar, with blanks and tabs only as separators: (count,
# mnemonic) per row; it takes one line or, with findall, a whole report
REPORT_ROWS_RE = re.compile(r"^[ \t]*\d+\.[ \t]+(\d+)[ \t]+\d+\.\d+%[ \t]+(\S+)[ \t]*$", re.MULTILINE)
TOTAL_LINE_RE = re.compile(r"^[ \t]*TOTAL[ \t]+(\d+)[ \t]*$")
# no mnemonic or attribute name may hold one: it would split a CSV cell
# or an ARFF declaration
NAME_BREAK_RE = re.compile(r"[\s,]")


@dataclass
class OpcodeHistogram:
    """Opcode mnemonic -> occurrence count for one sample."""

    sample_id: str
    counts: dict[str, int]
    total: int
    source: str  # "report" | "disassembly"

    def __post_init__(self):
        if not self.counts:
            raise EmptyReport(f"{self.sample_id}: no opcode rows")
        # every name at once: a string equals its lower() exactly when each
        # of its characters does (final sigma, the one context rule, is
        # applied only to an uppercase sigma)
        names = "".join(self.counts)
        if "" in self.counts or names != names.lower() or NAME_BREAK_RE.search(names):
            bad = next(n for n in self.counts if not n or n != n.lower() or NAME_BREAK_RE.search(n))
            raise MalformedLine(0, bad, "mnemonic must be lowercase without whitespace or comma")
        if min(self.counts.values()) < 0:
            raise MalformedLine(0, next(n for n, c in self.counts.items() if c < 0), "negative count")
        if self.total <= 0:
            raise EmptyReport(f"{self.sample_id}: nonpositive total")
        if self.total < sum(self.counts.values()):
            raise MalformedLine(0, str(self.total), "total smaller than the sum of counts")


@dataclass
class LabeledHistogram:
    histogram: OpcodeHistogram
    label: ClassLabel


def parse_report(text: str, sample_id: str) -> OpcodeHistogram:
    """Parse a report into an OpcodeHistogram.

    Counts may be zero padded; rank numbers need not be contiguous. An
    explicit TOTAL line, when present, must be the last non-blank line
    and wins over the sum of the rows (a report may be truncated).
    """
    # One findall takes the rows. It is the answer only if the rows and a
    # last TOTAL line are every non-empty line, with no duplicate, no
    # overlong count and a total no smaller than the sum; anything else
    # goes to the line loop, which names the failing line.
    lines = text.splitlines()
    rows = REPORT_ROWS_RE.findall(text)
    last = lines and TOTAL_LINE_RE.match(lines[-1])
    try:
        counts = {mnemonic.lower(): int(count) for count, mnemonic in rows}
        total = int(last.group(1)) if last else sum(counts.values())
    except ValueError:  # a count with more digits than Python converts
        counts = {}
    if counts and len(counts) == len(rows) == len(lines) - lines.count("") - bool(last) \
            and total >= sum(counts.values()):
        return OpcodeHistogram(sample_id=sample_id, counts=counts, total=total, source="report")
    return _parse_lines(text, sample_id)


def _parse_lines(text: str, sample_id: str) -> OpcodeHistogram:
    """``parse_report`` one line at a time."""
    if not text.strip():
        raise EmptyReport(f"{sample_id}: empty report")
    counts: dict[str, int] = {}
    explicit_total: int | None = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if explicit_total is not None:
            raise MalformedLine(line_no, line, "content after the TOTAL line")
        m = REPORT_ROWS_RE.match(line)
        if m:
            mnemonic = m.group(2).lower()
            if mnemonic in counts:
                raise DuplicateMnemonic(mnemonic, line_no)
            counts[mnemonic] = _count(m.group(1), line_no, line)
            continue
        t = TOTAL_LINE_RE.match(line)
        if t:
            explicit_total = _count(t.group(1), line_no, line)
            continue
        raise MalformedLine(line_no, line)
    # the histogram refuses no rows; a TOTAL below the sum, even 0, is malformed here
    total = explicit_total if explicit_total is not None else sum(counts.values())
    if explicit_total is not None and explicit_total < sum(counts.values()):
        raise MalformedLine(0, str(explicit_total), "total smaller than the sum of counts")
    return OpcodeHistogram(sample_id=sample_id, counts=counts, total=total, source="report")


def _count(digits: str, line_no: int, line: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than Python converts (sys.get_int_max_str_digits)
        raise MalformedLine(line_no, line, "count has too many digits") from None


def format_report(histogram: OpcodeHistogram) -> str:
    """Serialize back to the report grammar: rows ranked by descending
    count (ties alphabetical), densities at two decimals, explicit TOTAL."""
    rows = sorted(histogram.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    width = max(4, len(str(len(rows))))
    pcts = round_half_up_fractions([100 * count for _, count in rows], histogram.total, 2)
    out = []
    for rank, ((mnemonic, count), pct) in enumerate(zip(rows, pcts), start=1):
        out.append(f"{rank:0{width}d}.\t{count:06d}\t{pct:.2f}%\t{mnemonic}")
    out.append(f"TOTAL\t{histogram.total}")
    return "\n".join(out) + "\n"


@dataclass
class ScanFailure:
    path: Path
    error: Exception


@dataclass
class ScanResult:
    histograms: list[LabeledHistogram]
    failures: list[ScanFailure] = field(default_factory=list)


def read_manifest(path: Path | str) -> dict[str, str]:
    """Two-column CSV ``sample_id,label``, each sample id once; a literal
    header row is skipped."""
    out: dict[str, str] = {}
    text = decode_utf8(Path(path).read_bytes(), f"manifest {path}")
    reader = csv.reader(io.StringIO(text, newline=""))
    for row in reader:
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) != 2:
            raise MalformedLine(reader.line_num, ",".join(row), "manifest rows must have two columns")
        sid, label = row[0].strip(), row[1].strip()
        if (sid, label) == ("sample_id", "label"):
            continue
        if sid in out:
            raise MalformedLine(reader.line_num, ",".join(row), f"sample id {sid!r} appears twice")
        out[sid] = label
    return out


def scan_directory(root: Path | str, manifest: dict[str, str] | None = None) -> ScanResult:
    """Parse every ``.txt`` report under ``root`` and label it.

    The manifest wins over the directory layout; otherwise the label is
    the immediate parent directory name. Output is ordered by sample_id
    ascending regardless of filesystem enumeration order; files that fail
    to parse or to resolve a valid label are reported, not fatal.
    """
    root = Path(root)
    files = sorted(root.rglob("*.txt"), key=lambda p: (p.stem, str(p)))
    if not files:
        raise NoFilesFound(f"no .txt report files under {root}")
    manifest = manifest or {}

    seen: set[str] = set()
    parsed: list[tuple[Path, OpcodeHistogram, str]] = []
    failures: list[ScanFailure] = []
    for path in files:
        sid = path.stem
        if sid in seen:
            failures.append(ScanFailure(path, UnresolvedLabel(sid, "duplicate sample id")))
            continue
        try:
            histogram = parse_report(decode_utf8(path.read_bytes(), str(path)), sid)
        except (OpdenseError, OSError) as exc:  # recorded per file, scan continues
            failures.append(ScanFailure(path, exc))
            continue
        seen.add(sid)
        if sid in manifest:
            raw_label = manifest[sid]
        elif path.parent != root:
            raw_label = path.parent.name
        else:
            failures.append(ScanFailure(path, UnresolvedLabel(sid, "file sits in the root and has no manifest entry")))
            continue
        parsed.append((path, histogram, raw_label))

    # A label that no scheme knows fails alone below; it decides no scheme.
    # Binary and family labels mixed give the family scheme, where each 'malware' fails alone.
    scheme = infer_scheme(lbl for _, _, lbl in parsed if lbl in BINARY_LABELS + FAMILY_LABELS)

    histograms: list[LabeledHistogram] = []
    for path, histogram, raw_label in parsed:
        try:
            label = ClassLabel(scheme, raw_label)
        except SchemaMismatch:
            failures.append(ScanFailure(path, UnresolvedLabel(histogram.sample_id, f"label {raw_label!r} fits no scheme")))
            continue
        histograms.append(LabeledHistogram(histogram, label))
    return ScanResult(histograms=histograms, failures=failures)
