"""Minimal 32-bit PE container parsing.

Reads just enough of the DOS stub, COFF header, optional header and
section table to hand executable section bytes to the decoder. Anything
that is not a 32-bit x86 image is rejected outright.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import NotPe, Not32Bit, Truncated

MACHINE_I386 = 0x014C
SCN_MEM_EXECUTE = 0x20000000
SCN_CNT_CODE = 0x00000020


@dataclass(frozen=True)
class Section:
    name: str
    raw_data: bytes
    characteristics: int

    @property
    def executable(self) -> bool:
        return bool(self.characteristics & (SCN_MEM_EXECUTE | SCN_CNT_CODE))


@dataclass(frozen=True)
class PeImage:
    sections: tuple[Section, ...]

    def executable_sections(self) -> list[Section]:
        return [s for s in self.sections if s.executable]


def _need(data: bytes, offset: int, count: int, what: str) -> bytes:
    if offset < 0 or offset + count > len(data):
        raise Truncated(offset, what)
    return data[offset:offset + count]


def parse_pe(data: bytes) -> PeImage:
    """Parse a 32-bit PE image; raises Not32Bit for any other machine."""
    if len(data) < 64:
        raise Truncated(len(data), "DOS header")
    if data[:2] != b"MZ":
        raise NotPe("missing MZ signature")
    (e_lfanew,) = struct.unpack_from("<I", data, 0x3C)
    sig = _need(data, e_lfanew, 4, "PE signature")
    if sig != b"PE\0\0":
        raise NotPe("missing PE signature")

    coff = _need(data, e_lfanew + 4, 20, "COFF header")
    machine, n_sections, _, _, _, opt_size, _ = struct.unpack("<HHIIIHH", coff)
    if machine != MACHINE_I386:
        raise Not32Bit(machine)

    opt_offset = e_lfanew + 24
    if opt_size >= 20:
        (magic,) = struct.unpack_from("<H", _need(data, opt_offset, 20, "optional header"))
        if magic not in (0x010B, 0x0107):  # PE32 / ROM
            raise Not32Bit(machine)

    sections: list[Section] = []
    table = opt_offset + opt_size
    spans: list[tuple[int, int]] = []
    for i in range(n_sections):
        raw = _need(data, table + i * 40, 40, f"section header {i}")
        name = raw[:8].rstrip(b"\0").decode("latin-1")
        raw_size, raw_ptr = struct.unpack_from("<II", raw, 16)
        (characteristics,) = struct.unpack_from("<I", raw, 36)
        body = _need(data, raw_ptr, raw_size, f"section {name!r} data") if raw_size else b""
        if raw_size:
            for lo, hi in spans:
                if raw_ptr < hi and raw_ptr + raw_size > lo:
                    raise NotPe(f"section {name!r} overlaps another section in the file")
            spans.append((raw_ptr, raw_ptr + raw_size))
        sections.append(Section(name=name, raw_data=bytes(body), characteristics=characteristics))
    return PeImage(sections=tuple(sections))
