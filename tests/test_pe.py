import pytest

from opdense.errors import NoExecutableSection, NoInstructionsDecoded, NotPe, Not32Bit, Truncated
from opdense.pe import parse_pe
from opdense.reports import parse_report, format_report
from opdense.x86 import count_opcodes
from pe_builder import SECTION_EXECUTE, build_pe, text_only_pe

DATA_SECTION = 0x40000040  # initialized data, readable


def test_minimal_pe_single_executable_section():
    image = parse_pe(text_only_pe(b"\x90" * 16))
    assert len(image.sections) == 1
    section = image.sections[0]
    assert section.name == ".text"
    assert section.executable
    assert section.raw_data == b"\x90" * 16


def test_amd64_machine_rejected():
    with pytest.raises(Not32Bit):
        parse_pe(text_only_pe(b"\x90" * 16, machine=0x8664))


def test_pe32_plus_optional_header_rejected():
    with pytest.raises(Not32Bit):
        parse_pe(build_pe([(".text", b"\x90" * 16, SECTION_EXECUTE)], opt_magic=0x020B))


def test_rom_optional_header_accepted():
    image = parse_pe(build_pe([(".text", b"\x90" * 16, SECTION_EXECUTE)], opt_magic=0x0107))
    assert [s.raw_data for s in image.sections] == [b"\x90" * 16]


def test_mz_only_is_truncated():
    with pytest.raises(Truncated):
        parse_pe(b"MZ")


def test_not_pe_signature():
    data = bytearray(text_only_pe(b"\x90"))
    data[0x40:0x44] = b"XXXX"
    with pytest.raises(NotPe):
        parse_pe(bytes(data))


def test_missing_mz():
    with pytest.raises(NotPe):
        parse_pe(b"ZM" + bytes(100))


def test_section_data_must_fit():
    data = bytearray(text_only_pe(b"\x90" * 64))
    truncated = bytes(data[:-32])
    with pytest.raises(Truncated):
        parse_pe(truncated)


def test_overlapping_sections_rejected():
    data = bytearray(build_pe([(".a", b"\x90" * 64, SECTION_EXECUTE),
                               (".b", b"\xC3" * 64, SECTION_EXECUTE)]))
    # point section 1's raw offset into section 0's span
    import struct
    table = 0x40 + 4 + 20 + 224
    (ptr0,) = struct.unpack_from("<I", data, table + 20)
    struct.pack_into("<I", data, table + 40 + 20, ptr0 + 8)
    with pytest.raises(NotPe):
        parse_pe(bytes(data))


def test_multiple_sections_executable_flagging():
    image = parse_pe(build_pe([
        (".text", b"\x90\xC3", SECTION_EXECUTE),
        (".data", b"\x00" * 8, DATA_SECTION),
    ]))
    assert [s.executable for s in image.sections] == [True, False]


def test_count_opcodes_skips_data_sections():
    image = parse_pe(build_pe([
        (".text", b"\x90\xC3", SECTION_EXECUTE),
        (".data", b"\x90" * 50, DATA_SECTION),
    ]))
    counted = count_opcodes(image)
    assert counted.counts == {"nop": 1, "ret": 1}
    assert counted.decoded_instructions == 2


def test_no_executable_section():
    image = parse_pe(build_pe([(".data", b"\x00" * 8, DATA_SECTION)]))
    with pytest.raises(NoExecutableSection):
        count_opcodes(image)


def test_empty_executable_section_counts_nothing():
    image = parse_pe(build_pe([(".text", b"", SECTION_EXECUTE)]))
    counted = count_opcodes(image)
    assert counted.counts == {}
    assert counted.decoded_instructions == 0
    assert counted.unknown_bytes == 0


def test_histogram_from_pe_nop_ret():
    h = count_opcodes(parse_pe(text_only_pe(b"\x90\xC3"))).histogram("tiny")
    assert h.counts == {"nop": 1, "ret": 1}
    assert h.total == 2
    assert h.source == "disassembly"


def test_histogram_from_pe_all_zero_bytes():
    # 00 00 decodes as a two-byte add, so N zero bytes give N/2 adds
    h = count_opcodes(parse_pe(text_only_pe(b"\x00" * 32))).histogram("zeros")
    assert h.counts == {"add": 16}


def test_histogram_from_pe_empty_text_errors():
    with pytest.raises(NoInstructionsDecoded):
        count_opcodes(parse_pe(text_only_pe(b""))).histogram("empty")


def test_histogram_serializes_through_report_grammar():
    h = count_opcodes(parse_pe(text_only_pe(b"\x90\x90\x40\xC3"))).histogram("rt")
    again = parse_report(format_report(h), "rt")
    assert again.counts == h.counts
    assert again.total == h.total
