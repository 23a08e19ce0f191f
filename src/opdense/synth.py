"""Synthetic labeled report corpus.

Generates per-class opcode profiles over a fixed mnemonic pool: a shared
Zipf-flavoured base mixture, class-specific high/low multipliers on a
handful of designated informative opcodes, per-sample Dirichlet jitter,
multinomial counts. Class signatures over the informative opcodes are
codewords at pairwise Hamming distance >= 2 (complementary words for the
two-class scheme), so every pair of classes separates on at least two
columns after scaling. Samples are written as report files in per-class
directories, so the output feeds straight into the ingestion pipeline.
Deterministic for a given seed (numpy legacy RandomState, whose stream
is frozen).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import UsageError
from .labels import BINARY_LABELS, FAMILY_LABELS
from .reports import OpcodeHistogram, format_report

MNEMONIC_POOL: tuple[str, ...] = (
    "mov", "push", "call", "pop", "lea", "cmp", "add", "jz", "jmp", "test",
    "sub", "xor", "jnz", "ret", "inc", "and", "or", "dec", "movzx", "shl",
    "sar", "jle", "jb", "ja", "jg", "jl", "jnb", "js", "jns", "shr",
    "imul", "mul", "neg", "not", "xchg", "stos", "lods", "scas", "rol", "ror",
    "rcr", "setz", "setnz", "setle", "setnle", "setbe", "setnbe", "setb", "setnb", "sets",
    "fld", "fstp", "fild", "fistp", "fdivp", "fsub", "fsubrp", "fmul", "fmulp", "fidiv",
    "fstsw", "fninit", "fucompp", "fdiv", "fdivrp", "faddp", "fldz", "fxch", "fabs", "frndint",
)


@dataclass
class SynthCorpus:
    root: Path
    classes: tuple[str, ...]
    informative: tuple[str, ...]
    files: tuple[Path, ...]


def _class_labels(n_classes: int) -> tuple[str, ...]:
    if n_classes == 2:
        return BINARY_LABELS
    if n_classes == 6:
        return FAMILY_LABELS
    raise UsageError("synthetic corpora support 2 or 6 classes")


def _signature(class_index: int, n_informative: int, n_classes: int) -> list[int]:
    """High/low codeword per class: complementary for two classes, a
    parity-extended 3-bit code (pairwise Hamming distance >= 2) for six."""
    if n_classes == 2:
        return [class_index] * n_informative
    b0, b1, b2 = (class_index >> 0) & 1, (class_index >> 1) & 1, (class_index >> 2) & 1
    bits = [b0, b1, b2, b0 ^ b1, b1 ^ b2]
    return [bits[j % 5] for j in range(n_informative)]


def generate_corpus(
    out_dir: Path | str,
    classes: int = 2,
    n_per_class: int = 20,
    informative: int = 5,
    seed: int = 42,
) -> SynthCorpus:
    labels = _class_labels(classes)
    if not 1 <= informative <= 16:
        raise UsageError("informative opcode count must be in 1..16")
    if n_per_class < 1:
        raise UsageError("need at least one sample per class")
    if not 0 <= seed < 2**32:  # the range numpy's RandomState takes
        raise UsageError("seed must be in 0..2**32-1")
    # one walk, before anything is written: a report this run would not
    # write would be read back by ingest as one of this corpus's samples
    out_dir = Path(out_dir)
    ours = {os.path.join(out_dir, label, f"{label}_{i:03d}.txt") for label in labels for i in range(n_per_class)}
    strays = {os.path.join(folder, name) for folder, _, found in os.walk(out_dir)
              for name in found if name.endswith(".txt")} - ours
    if strays:
        raise UsageError(f"{min(strays)} is no report of this corpus; give an out-dir that holds no other .txt report")
    rs = np.random.RandomState(seed)

    # steep base mixture: the tail opcodes are mostly absent per sample,
    # which keeps pure-noise columns from dominating distances
    base = 1.0 / (np.arange(len(MNEMONIC_POOL)) + 2.0) ** 1.6
    base /= base.sum()

    # informative opcodes come from the rare half of the pool
    rare = np.argsort(base)[: len(MNEMONIC_POOL) // 2]
    informative_idx = np.array(sorted(rs.choice(rare, size=informative, replace=False)))

    files: list[Path] = []
    for c, label in enumerate(labels):
        class_dir = out_dir / label
        class_dir.mkdir(parents=True, exist_ok=True)
        signature = _signature(c, informative, len(labels))
        profile = base.copy()
        for j, idx in enumerate(informative_idx):
            profile[idx] *= 12.0 if signature[j] else 0.05
        profile /= profile.sum()
        concentration = profile * 6000.0
        for i in range(n_per_class):
            jitter = rs.dirichlet(concentration)
            total = int(rs.randint(8_000, 60_001))
            counts = rs.multinomial(total, jitter)  # they sum to total
            present = {name: n for name, n in zip(MNEMONIC_POOL, counts.tolist()) if n}
            histogram = OpcodeHistogram(
                sample_id=f"{label}_{i:03d}",
                counts=present,
                total=total,
                source="report",
            )
            path = class_dir / f"{label}_{i:03d}.txt"
            path.write_bytes(format_report(histogram).encode("utf-8"))
            files.append(path)
    return SynthCorpus(
        root=out_dir,
        classes=labels,
        informative=tuple(MNEMONIC_POOL[k] for k in informative_idx),
        files=tuple(files),
    )
