"""Class label schemes.

Two labelling schemes are supported: a two-class scheme (good/malware)
and a six-class scheme naming five crypto-ransomware families plus the
benign class. Label spellings are part of the file formats and must not
be altered.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import SchemaMismatch


class LabelScheme(str, Enum):
    binary = "binary"
    family = "family"


BINARY_LABELS: tuple[str, ...] = ("good", "malware")
FAMILY_LABELS: tuple[str, ...] = (
    "good",
    "Torrentlocker",
    "TeslaCrypt",
    "Locky",
    "CryptoWall",
    "Cerber",
)

_SCHEME_LABELS = {
    LabelScheme.binary: BINARY_LABELS,
    LabelScheme.family: FAMILY_LABELS,
}


def scheme_labels(scheme: LabelScheme) -> tuple[str, ...]:
    return _SCHEME_LABELS[LabelScheme(scheme)]


@dataclass(frozen=True)
class ClassLabel:
    scheme: LabelScheme
    value: str

    def __post_init__(self):
        allowed = scheme_labels(self.scheme)
        if self.value not in allowed:
            raise SchemaMismatch(
                f"label {self.value!r} not valid for scheme {self.scheme.value!r} "
                f"(expected one of {allowed})"
            )


def infer_scheme(values: Iterable[str]) -> LabelScheme:
    """The two-class scheme when every label is one of its labels (an
    all-'good' corpus is ambiguous), else the family scheme. Whether each
    label is valid for the scheme is ``ClassLabel``'s to decide."""
    return LabelScheme.binary if set(values) <= set(BINARY_LABELS) else LabelScheme.family


def class_order(scheme: LabelScheme, present: Iterable[str]) -> list[str]:
    """Labels in the scheme's canonical order, restricted to those present."""
    present = set(present)
    return [lab for lab in scheme_labels(scheme) if lab in present]
