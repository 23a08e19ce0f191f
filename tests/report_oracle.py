"""Report formatting, one row at a time.

The library writes a report with one format call over the whole text
(``opdense.reports.format_report``). This is the second, row-by-row
implementation of the same layout, kept as the oracle the writer is
checked against.
"""

from __future__ import annotations

from opdense.reports import OpcodeHistogram
from opdense.rounding import round_half_up_fractions


def format_report_rows(histogram: OpcodeHistogram) -> str:
    """Rows ranked by descending count (ties alphabetical), the rank
    zero-padded to max(4, digits of the row count), the count to 6
    digits, densities half-up at two decimals, an explicit TOTAL last."""
    rows = sorted(histogram.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    width = max(4, len(str(len(rows))))
    pcts = round_half_up_fractions([100 * count for _, count in rows], histogram.total, 2)
    out = []
    for rank, ((mnemonic, count), pct) in enumerate(zip(rows, pcts), start=1):
        out.append(f"{rank:0{width}d}.\t{count:06d}\t{pct:.2f}%\t{mnemonic}")
    out.append(f"TOTAL\t{histogram.total}")
    return "\n".join(out) + "\n"
