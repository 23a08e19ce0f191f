"""Decoder unit vectors (hand-decoded lengths) and the length-soundness
property: instructions assembled by an independent byte generator must
decode to the assembled length."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opdense import x86
from opdense.x86 import (MAX_INSTRUCTION_LENGTH, ONE_BYTE, PREFIX_BYTES, THREE_BYTE_38, THREE_BYTE_3A,
                         TWO_BYTE, decode_one, lead_tables, sweep)

# (bytes, mnemonic, length) - lengths worked out by hand from the
# ModRM/SIB/displacement/immediate rules
VECTORS = [
    ("90", "nop", 1),
    ("C3", "ret", 1),
    ("C20400", "ret", 3),
    ("B801000000", "mov", 5),
    ("66B80100", "mov", 4),                # operand-size prefix shrinks imm
    ("0000", "add", 2),
    ("8B442404", "mov", 4),                # modrm + sib + disp8
    ("8D0485A0000000", "lea", 7),          # sib with base=101 and mod=0
    ("FF1578563412", "call", 6),
    ("FF25AABBCCDD", "jmp", 6),
    ("FFB42478563412", "push", 7),         # modrm + sib + disp32
    ("0FB6C0", "movzx", 3),
    ("0FBFD1", "movsx", 3),
    ("660F57C1", "xorpd", 4),
    ("0F57C1", "xorps", 3),
    ("F30F2CC8", "cvttss2si", 4),
    ("0F5CC1", "subps", 3),
    ("0F59C1", "mulps", 3),
    ("0FFDC1", "paddw", 3),
    ("0F58C1", "addps", 3),
    ("660F383AC1", "pminuw", 5),
    ("0F2FC8", "comiss", 3),
    ("0F60C1", "punpcklbw", 3),
    ("0FC8", "bswap", 2),
    ("0FAE15AABBCCDD", "ldmxcsr", 7),
    ("0F8D12345678", "jge", 6),
    ("7F05", "jg", 2),
    ("0F94C0", "setz", 3),
    ("0F97C1", "setnbe", 3),
    ("0F9FC2", "setnle", 3),
    ("0F45C8", "cmovnz", 3),
    ("0F46C8", "cmovbe", 3),
    ("D9E5", "fxam", 2),
    ("D9E1", "fabs", 2),
    ("D9EE", "fldz", 2),
    ("D9FC", "frndint", 2),
    ("DFE0", "fnstsw", 2),
    ("9BDFE0", "fstsw", 3),
    ("9BDD7DFE", "fstsw", 4),              # wait + fnstsw m16 fuses too
    ("9B", "wait", 1),
    ("9B90", "wait", 1),                   # 9B before a non-x87 opcode stays wait
    ("DBE3", "fninit", 2),
    ("9BDBE3", "finit", 3),
    ("9BDBE2", "fclex", 3),
    ("9BD97DFE", "fstcw", 4),
    ("9BD975F8", "fstenv", 4),
    ("9BDD75F8", "fsave", 4),
    ("9BD9C0", "wait", 1),                 # fld st0 has no wait form
    ("DEF9", "fdivp", 2),
    ("DEE1", "fsubrp", 2),
    ("DEC9", "fmulp", 2),
    ("DAE9", "fucompp", 2),
    ("DB45F8", "fild", 3),
    ("DF45F8", "fild", 3),
    ("DB5DF8", "fistp", 3),
    ("DA75F8", "fidiv", 3),
    ("D8E1", "fsub", 2),
    ("DCE1", "fsubr", 2),                  # DC swaps the subtract direction
    ("DD45F8", "fld", 3),
    ("F3A4", "movs", 2),
    ("F3AA", "stos", 2),
    ("AC", "lods", 1),
    ("AE", "scas", 1),
    ("A6", "cmps", 1),
    ("F7D8", "neg", 2),
    ("F7C178563412", "test", 6),
    ("F6C101", "test", 3),
    ("F7E1", "mul", 2),
    ("F7F9", "idiv", 2),
    ("C1E002", "shl", 3),
    ("C0C804", "ror", 3),
    ("D1F8", "sar", 2),
    ("D3E0", "shl", 2),
    ("80C105", "add", 3),
    ("81C178563412", "add", 6),
    ("6681C13412", "add", 5),
    ("83C105", "add", 3),
    ("8F00", "pop", 2),
    ("C60001", "mov", 3),
    ("C70078563412", "mov", 6),
    ("68AABBCCDD", "push", 5),
    ("6A01", "push", 2),
    ("6BC010", "imul", 3),
    ("69C0A0000000", "imul", 6),
    ("0FAFC1", "imul", 3),
    ("E8FBFFFFFF", "call", 5),
    ("66E8FBFF", "call", 4),
    ("EB05", "jmp", 2),
    ("E2FA", "loop", 2),
    ("E3FA", "jecxz", 2),
    ("C8100002", "enter", 4),
    ("C9", "leave", 1),
    ("CC", "int3", 1),
    ("CD21", "int", 2),
    ("EA11223344AABB", "jmp", 7),
    ("66EA1122AABB", "jmp", 6),
    ("A144332211", "mov", 5),
    ("67A14433", "mov", 4),
    ("A2DEADBEEF", "mov", 5),
    ("2E8B0D78563412", "mov", 7),          # segment override prefix
    ("F0834C240801", "or", 6),             # lock prefix
    ("0F31", "rdtsc", 2),
    ("0FA2", "cpuid", 2),
    ("0F01D0", None, None),                # xgetbv: outside the profile
    ("0FA4C102", "shld", 4),
    ("0FACC102", "shrd", 4),
    ("0FBAE007", "bt", 4),
    ("D40A", "aam", 2),
    ("D7", "xlat", 1),
    ("670F94C0", "setz", 4),
    ("678B4F04", "mov", 4),                # 16-bit addressing: [bx+4]
    ("678B0E3412", "mov", 5),              # 16-bit addressing: [disp16]
]
VECTORS = [v for v in VECTORS if v[1] is not None]


@pytest.mark.parametrize("hexcode,mnemonic,length", VECTORS)
def test_hand_decoded_vectors(hexcode, mnemonic, length):
    code = bytes.fromhex(hexcode)
    decoded = decode_one(code, 0)
    assert decoded is not None, hexcode
    assert decoded.mnemonic == mnemonic
    assert decoded.length == length


def test_unsupported_bytes_are_unknown():
    assert decode_one(bytes.fromhex("0F01D0"), 0) is None


def test_truncated_instruction_is_unknown():
    assert decode_one(bytes.fromhex("B80100"), 0) is None
    assert decode_one(bytes.fromhex("8B"), 0) is None
    assert decode_one(bytes.fromhex("66"), 0) is None  # prefixes only


def test_sweep_example_counts():
    result = sweep(bytes.fromhex("9090C3"))
    assert result.counts == {"nop": 2, "ret": 1}
    assert result.unknown_bytes == 0
    assert result.decoded_instructions == 3


def test_sweep_unknown_byte_advances_one():
    result = sweep(bytes.fromhex("0F01D090"))
    assert result.unknown_bytes == 1
    # after skipping 0F, bytes 01 D0 decode as add and 90 as nop
    assert result.counts == {"add": 1, "nop": 1}


def test_sweep_mov_imm32_ret():
    result = sweep(bytes.fromhex("B801000000C3"))
    assert result.counts == {"mov": 1, "ret": 1}
    assert result.decoded_instructions == 2


def test_sweep_progress_and_determinism():
    rng = np.random.RandomState(0)
    blob = bytes(rng.randint(0, 256, size=5000, dtype=np.uint8))
    a = sweep(blob)
    b = sweep(blob)
    assert a.counts == b.counts
    assert a.unknown_bytes == b.unknown_bytes
    pos = 0
    steps = 0
    while pos < len(blob):
        d = decode_one(blob, pos)
        pos += 1 if d is None else d.length
        steps += 1
        assert steps <= len(blob)
    assert pos >= len(blob)


def test_instruction_straddling_end_counts_first_byte_unknown():
    # full mov imm32 is five bytes; cut it to three
    result = sweep(bytes.fromhex("B80100"))
    assert result.unknown_bytes == 1
    assert result.counts == {"add": 1}  # the tail 01 00 decodes as add


def test_sweep_of_several_buffers_decodes_each_on_its_own():
    # joined, B8 01 00 00 00 would be one mov; apart, nothing crosses the cut
    result = sweep(bytes.fromhex("B801"), bytes.fromhex("000000"))
    assert result.counts == {"add": 1}
    assert result.unknown_bytes == 3
    assert result.decoded_instructions == 1
    assert sweep(bytes.fromhex("B801000000")).counts == {"mov": 1}


def _random_blob(seed, size):
    return bytes(np.random.RandomState(seed).randint(0, 256, size=size, dtype=np.uint8))


# bytes that steer the decoder into its less common paths: operand- and
# address-size, lock and repeat prefixes, the 0F, 0F 38 and 0F 3A
# escapes, wait and the x87 escapes
_STEERING = [b"\x66", b"\x67", b"\xf0", b"\xf2", b"\xf3", b"\x0f", b"\x0f\x38", b"\x0f\x3a",
             b"\x9b"] + [bytes([b]) for b in range(0xD8, 0xE0)]


def _steered_blob(seed, size, steering=_STEERING):
    rng = np.random.RandomState(seed)
    out = bytearray()
    while len(out) < size:
        if rng.rand() < 0.5:
            out += steering[rng.randint(len(steering))]
        else:
            out.append(rng.randint(256))
    return bytes(out[:size])


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


# (unknown bytes, decoded instructions, distinct mnemonics, digest of the
# sorted sweep counts, digest of decode_one at every offset), recorded
# from the decoder as it stood before its tables were flattened
@pytest.mark.parametrize("make_blob, seed, expected", [
    (_random_blob, 5, (247, 11853, 197, "61360686495201a0", "fe58646d7f24ff87")),
    (_steered_blob, 6, (1975, 10240, 318, "002cb21ed116def1", "15ebfff3b72888f9")),
], ids=["random", "steered"])
def test_pinned_decoder_output(make_blob, seed, expected):
    blob = make_blob(seed, 30000)
    result = sweep(blob)
    at_every_offset = [None if d is None else [d.mnemonic, d.length]
                       for d in (decode_one(blob, i) for i in range(len(blob)))]
    assert (result.unknown_bytes, result.decoded_instructions, len(result.counts),
            _digest(sorted(result.counts.items())), _digest(at_every_offset)) == expected


# what can follow the first two bytes: zeros, ones, and SIB bytes of
# base 0, 7 and 5 (05 and 65), base 5 adding a displacement under mod 0
_PAIR_TAILS = [bytes([b]) * 14 for b in (0x00, 0xFF, 0x05)] + [b"\x65" + b"\xff" * 13]


_LEADS = sorted(PREFIX_BYTES | {0x0F})


def test_pair_table_entries_decode_alike_after_any_tail():
    # the one-byte pair table, then each lead table: a hit is one byte
    # longer after the lead
    tables = lead_tables()
    for lead in [None] + _LEADS:
        row = 0 if lead is None else tables.row[lead]
        before = b"" if lead is None else bytes([lead])
        for key, (name_id, length) in enumerate(zip(tables.ids[row].tolist(), tables.lengths[row].tolist())):
            pair = key.to_bytes(2, "big")
            decoded = {decode_one(before + pair + tail, 0) for tail in _PAIR_TAILS}
            if length:
                assert decoded == {(tables.names[name_id], length + len(before))}, (before + pair).hex()
            else:
                # left to decode_one: a prefix or escape (0F 38 and 0F 3A
                # after 0F), no instruction, or one whose length the next
                # byte decides
                escapes = {0x38, 0x3A} if lead == 0x0F else PREFIX_BYTES | {0x0F, 0x9B}
                assert pair[0] in escapes or None in decoded or len(decoded) > 1, (before + pair).hex()


def test_lead_tables_cover_prefixes_and_0f_and_miss_for_any_other_lead():
    tables = lead_tables()
    assert lead_tables() is tables  # built once
    assert tables.ids.shape == tables.lengths.shape == (5, 1 << 16) and len(tables.row) == 256
    assert {tables.row[b] for b in PREFIX_BYTES - {0x66, 0x67}} == {0}
    assert len({tables.row[b] for b in (0x66, 0x67, 0x0F)} | {0}) == 4
    on_0f = tables.row[0x0F]  # 66 as the byte after 0F is an opcode
    assert (tables.names[tables.ids[on_0f, 0x66C1]], tables.lengths[on_0f, 0x66C1]) == ("pcmpgtd", 2)
    others = {tables.row[b] for b in range(256) if b not in PREFIX_BYTES | {0x0F}}
    assert len(others) == 1 and not tables.lengths[others.pop()].any()


def _decode_one_sweep(code):
    """The sweep by decode_one alone: (counts, unknown bytes, instructions)."""
    counts = {}
    unknown = pos = 0
    while pos < len(code):
        decoded = decode_one(code, pos)
        if decoded is None:
            unknown += 1
            pos += 1
            continue
        counts[decoded.mnemonic] = counts.get(decoded.mnemonic, 0) + 1
        pos += decoded.length
    return counts, unknown, sum(counts.values())


def _assert_sweeps_alike(code):
    result = sweep(code)
    assert (result.counts, result.unknown_bytes, result.decoded_instructions) == _decode_one_sweep(code), code.hex()


@pytest.mark.parametrize("make_blob", [_random_blob, _steered_blob], ids=["random", "steered"])
def test_sweep_equals_decode_one_on_short_buffers(make_blob):
    for size in range(41):
        for seed in range(5):
            _assert_sweeps_alike(make_blob(100 * size + seed, size))


def test_sweep_equals_decode_one_at_the_table_edge():
    # add [esp+disp32], imm32 (81 84 24 disp32 imm32), the longest
    # instruction the table gives, starting at every offset of the buffer:
    # on, before and after the last offset the table serves, across it,
    # and cut short by the end of the buffer
    add = bytes.fromhex("81842478563412AABBCCDD")
    for size in (24, 30):
        for start in range(size):
            code = (b"\x90" * start + add).ljust(size, b"\x90")[:size]
            _assert_sweeps_alike(code)
            if start + len(add) <= size:
                assert sweep(code).counts == {"nop": size - len(add), "add": 1}
    truncated = b"\x90" * 20 + bytes.fromhex("B80100")  # mov imm32 cut after two bytes
    _assert_sweeps_alike(truncated)
    result = sweep(truncated)
    assert (result.counts, result.unknown_bytes) == ({"nop": 20, "add": 1}, 1)


# every prefix, segment overrides included, and the 0F escape: the lead
# bytes of the lead tables
_LEAD_STEERING = [bytes([b]) for b in _LEADS]


def test_sweep_equals_decode_one_on_blobs_steered_by_every_lead_byte():
    for seed in range(4):
        _assert_sweeps_alike(_steered_blob(seed, 5000, _LEAD_STEERING))
    for size in range(41):
        _assert_sweeps_alike(_steered_blob(size, size, _LEAD_STEERING))


# bytes drawn toward the lookups' misses: prefixes, 0F and 9B, ModRM
# bytes that a SIB byte follows, and SIB bytes of base 5
_BIASED_BYTE = st.one_of(
    st.integers(0, 255),
    st.sampled_from(sorted(PREFIX_BYTES | {0x0F, 0x9B})),
    st.builds(lambda mod, reg: mod << 6 | reg << 3 | 4, st.integers(0, 2), st.integers(0, 7)),
    st.builds(lambda scale_index: scale_index << 3 | 5, st.integers(0, 31)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_BIASED_BYTE, max_size=64).map(bytes), max_size=4))
# 66 B8 iw, a lead-table hit, on the last offset the tables serve; and
# add [disp32], imm32 with a SIB byte, which decode_one takes from there
# into the last bytes of the buffer
@example([b"\x90" + bytes.fromhex("66B80100") + b"\x90" * 11])
@example([b"\x90" * 4 + bytes.fromhex("81042578563412AABBCCDD") + b"\x90" * 5, b"\x0f"])
def test_sweep_of_buffers_equals_the_sum_of_decode_one_sweeps(codes):
    counts, unknown = {}, 0
    for code in codes:
        code_counts, code_unknown, _ = _decode_one_sweep(code)
        for name, n in code_counts.items():
            counts[name] = counts.get(name, 0) + n
        unknown += code_unknown
    result = sweep(*codes)
    assert (result.counts, result.unknown_bytes, result.decoded_instructions) == (counts, unknown, sum(counts.values()))


@pytest.mark.parametrize("window", [1, 2, 3, 5, 16, 17, 64])
def test_sweep_in_small_windows_equals_the_sum_of_decode_one_sweeps(monkeypatch, window):
    # instructions, SIB forms, prefixes and the last bytes of a buffer all
    # fall across window ends
    monkeypatch.setattr(x86, "SWEEP_WINDOW", window)
    add = bytes.fromhex("81842478563412AABBCCDD")
    codes = [_steered_blob(seed, 300 + seed, _LEAD_STEERING) for seed in range(3)]
    codes += [_steered_blob(size, size) for size in range(0, 41, 4)]
    codes += [(b"\x90" * start + add).ljust(30, b"\x90") for start in range(20)]
    codes += [_random_blob(7, 500), b"\x90" * 20 + bytes.fromhex("B80100")]
    counts, unknown = {}, 0
    for code in codes:
        _assert_sweeps_alike(code)
        code_counts, code_unknown, _ = _decode_one_sweep(code)
        for name, n in code_counts.items():
            counts[name] = counts.get(name, 0) + n
        unknown += code_unknown
    result = sweep(*codes)
    assert (result.counts, result.unknown_bytes) == (counts, unknown)
    calls = []
    monkeypatch.setattr(x86, "decode_one", lambda code, pos: calls.append(pos) or decode_one(code, pos))
    assert sweep(b"\x90" * 100).counts == {"nop": 100}
    assert calls == list(range(100 - MAX_INSTRUCTION_LENGTH + 1, 100))  # only at the buffer's end


def test_sweep_of_a_5_mb_buffer_holds_its_arrays_one_window_at_a_time():
    code = bytes.fromhex("818578563412AABBCCDD") * 500_000  # add [ebp+disp32], imm32
    sweep(b"")  # the lead tables, built once
    tracemalloc.start()
    try:
        result = sweep(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.counts, result.unknown_bytes) == ({"add": 500_000}, 0)
    assert peak < 4_000_000


# plain entries - (mnemonic, immediate code, has ModRM) - of the decoder's
# tables, each with the opcode bytes and the mandatory prefix that reach it
_ONE_BYTE_CANDIDATES = [(None, bytes([op]), entry) for op, entry in enumerate(ONE_BYTE)
                        if entry is not None and entry[0] is not None and entry[1] != "moffs"]
_ESCAPED_CANDIDATES = (
    [(prefix, bytes([0x0F, op]), entry) for prefix, table in TWO_BYTE.items()
     for op, entry in enumerate(table) if entry is not None and entry[0] is not None]
    + [(prefix, bytes([0x0F, escape, op]), entry) for prefix in (None, 0x66, 0xF2, 0xF3)
       for escape, table in ((0x38, THREE_BYTE_38), (0x3A, THREE_BYTE_3A))
       for op, entry in enumerate(table) if entry is not None])


def _random_instruction(rng, candidates):
    """Assemble a random instruction from one of ``candidates``; return its
    bytes, mnemonic and length, the length computed with independent
    arithmetic."""
    mandatory, opcode, (name, imm, has_modrm) = candidates[int(rng.randint(len(candidates)))]
    out = bytearray()
    if rng.rand() < 0.25:
        # 66 would select another 0F table, so only plain opcodes draw it
        choices = [0x66, 0x67, 0xF0, 0x2E, 0x3E, 0x26, 0x64, 0x65] if opcode[0] != 0x0F else \
            [0x67, 0xF0, 0x2E, 0x3E, 0x26, 0x64, 0x65]
        for _ in range(int(rng.randint(1, 3))):
            out.append(int(rng.choice(choices)))
    if mandatory in (0xF2, 0xF3) and rng.rand() < 0.3:
        out.append(0x66)  # F2/F3 select the table; 66 still shrinks iz
    if mandatory is not None:
        out.append(mandatory)
    out += opcode + _operands(rng, imm, has_modrm, 0x66 in out, 0x67 in out)
    return bytes(out), name, len(out)


def _operands(rng, imm, has_modrm, osize16, asize16, sib=True):
    """The random ModRM block and immediate that follow an opcode; with
    ``sib`` False, never a SIB byte."""
    out = bytearray()
    if has_modrm:
        mod = int(rng.randint(0, 4))
        reg = int(rng.randint(0, 8))
        rm = int(rng.randint(0, 8)) if sib else int(rng.choice([0, 1, 2, 3, 5, 6, 7]))
        out.append((mod << 6) | (reg << 3) | rm)
        if mod != 3:
            if asize16:
                if mod == 1:
                    out.append(int(rng.randint(0, 256)))
                elif mod == 2 or (mod == 0 and rm == 6):
                    out.extend(rng.randint(0, 256, 2).astype(np.uint8).tobytes())
            else:
                if rm == 4:
                    base = int(rng.randint(0, 8))
                    out.append((base | (int(rng.randint(0, 8)) << 3)))
                    if mod == 0 and base == 5:
                        out.extend(rng.randint(0, 256, 4).astype(np.uint8).tobytes())
                elif mod == 0 and rm == 5:
                    out.extend(rng.randint(0, 256, 4).astype(np.uint8).tobytes())
                if mod == 1:
                    out.append(int(rng.randint(0, 256)))
                elif mod == 2:
                    out.extend(rng.randint(0, 256, 4).astype(np.uint8).tobytes())

    if imm == "ib":
        out.append(int(rng.randint(0, 256)))
    elif imm == "iw":
        out.extend(b"\x11\x22")
    elif imm == "enter":
        out.extend(b"\x11\x22\x33")
    elif imm == "iz":
        out.extend(bytes(range(0x41, 0x41 + (2 if osize16 else 4))))
    elif imm == "ptr":
        out.extend(bytes(range(0x41, 0x41 + (4 if osize16 else 6))))
    else:
        assert imm is None, imm
    return out


def test_length_soundness_over_generated_instructions():
    rng = np.random.RandomState(1234)
    for candidates in (_ONE_BYTE_CANDIDATES, _ESCAPED_CANDIDATES):
        checked = 0
        for _ in range(4000):
            code, name, expected_length = _random_instruction(rng, candidates)
            if expected_length > MAX_INSTRUCTION_LENGTH:
                continue
            decoded = decode_one(code + b"\x90" * 4, 0)  # padding never alters length
            assert decoded is not None, code.hex()
            assert (decoded.mnemonic, decoded.length) == (name, expected_length), code.hex()
            checked += 1
        assert checked > 3500


_PLAIN_0F_CANDIDATES = [c for c in _ESCAPED_CANDIDATES if c[0] is None and len(c[1]) == 2]


def test_singly_prefixed_and_0f_forms_sweep_without_decode_one(monkeypatch):
    # one prefix before a plain one-byte form, or a plain 0F form, none
    # with a SIB byte: the pair and lead tables serve every instruction
    rng = np.random.RandomState(18)
    stream, expected = bytearray(), {}
    for _ in range(3000):
        if rng.rand() < 0.5:
            lead = int(rng.choice(sorted(PREFIX_BYTES)))
            _, opcode, (name, imm, has_modrm) = _ONE_BYTE_CANDIDATES[int(rng.randint(len(_ONE_BYTE_CANDIDATES)))]
            stream += bytes([lead]) + opcode + _operands(rng, imm, has_modrm, lead == 0x66, lead == 0x67, sib=False)
        else:
            _, opcode, (name, imm, has_modrm) = _PLAIN_0F_CANDIDATES[int(rng.randint(len(_PLAIN_0F_CANDIDATES)))]
            stream += opcode + _operands(rng, imm, has_modrm, False, False, sib=False)
        expected[name] = expected.get(name, 0) + 1
    calls = []

    def counting_decode_one(code, pos):
        calls.append(pos)
        return decode_one(code, pos)

    monkeypatch.setattr(x86, "decode_one", counting_decode_one)
    result = sweep(bytes(stream) + b"\x90" * MAX_INSTRUCTION_LENGTH)
    expected["nop"] = expected.get("nop", 0) + MAX_INSTRUCTION_LENGTH
    assert (result.counts, result.unknown_bytes) == (expected, 0)
    assert calls == list(range(len(stream) + 1, len(stream) + MAX_INSTRUCTION_LENGTH))  # the padding's tail
