"""Generated 32-bit PE files whose opcode counts are known by construction.

The instruction encodings below are written from the Intel SDM, volume 2
(opcode map, appendix A; ModRM/SIB rules, section 2.1.5; x87 escapes,
appendix A.4), with mnemonics spelled the way opdense documents them:
lowercase, string operations by their stem, conditional families with
their condition suffix. They are deliberately not taken from
``opdense.x86``, so a decoder fault shows up as a count mismatch.

The bare ``9B`` (wait) byte is left out: its mnemonic depends on the
instruction after it. Fused wait forms (``9B DB E3`` = finit, ...) are
single instructions and are included.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

# operand kinds: "" none, "ib"/"iw"/"iz"(imm32)/"rel8"/"relz"(rel32)/"moffs",
# "enter" (iw+ib), "/r" ModRM with any reg, "/0".."/7" ModRM with a fixed reg,
# "m" prefix = memory operand only, "+r" register in the opcode byte,
# "+i" x87 stack register in the last byte, "16" suffix = 16-bit addressing.
_JCC = ("o", "no", "b", "nb", "z", "nz", "be", "a", "s", "ns", "p", "np", "l", "ge", "le", "g")
_CC = ("o", "no", "b", "nb", "z", "nz", "be", "nbe", "s", "ns", "p", "np", "l", "nl", "le", "nle")


def _table() -> list[tuple[str, bytes, str]]:
    t: list[tuple[str, str, str]] = []
    for base, name in ((0x00, "add"), (0x08, "or"), (0x10, "adc"), (0x18, "sbb"),
                       (0x20, "and"), (0x28, "sub"), (0x30, "xor"), (0x38, "cmp")):
        for off in range(4):
            t.append((name, f"{base + off:02X}", "/r"))
        t.append((name, f"{base + 4:02X}", "ib"))
        t.append((name, f"{base + 5:02X}", "iz"))
        t.append((name, f"66 {base + 5:02X}", "iw"))
        t.append((name, f"67 {base + 1:02X}", "/r16"))
    for digit, name in enumerate(("add", "or", "adc", "sbb", "and", "sub", "xor", "cmp")):
        t.append((name, "80", f"/{digit},ib"))
        t.append((name, "81", f"/{digit},iz"))
        t.append((name, "83", f"/{digit},ib"))
        t.append((name, "66 81", f"/{digit},iw"))
    t += [("inc", "40", "+r"), ("dec", "48", "+r"), ("push", "50", "+r"), ("pop", "58", "+r"),
          ("push", "68", "iz"), ("push", "6A", "ib"), ("push", "66 68", "iw"),
          ("imul", "69", "/r,iz"), ("imul", "6B", "/r,ib"), ("imul", "0F AF", "/r"),
          ("test", "84", "/r"), ("test", "85", "/r"), ("test", "A8", "ib"), ("test", "A9", "iz"),
          ("test", "66 A9", "iw"),
          ("xchg", "86", "/r"), ("xchg", "87", "/r"), ("xchg", "91", ""), ("xchg", "96", ""),
          ("mov", "88", "/r"), ("mov", "89", "/r"), ("mov", "8A", "/r"), ("mov", "8B", "/r"),
          ("mov", "66 89", "/r"), ("mov", "64 8B", "/r"), ("mov", "67 8B", "/r16"),
          ("mov", "8C", "/1"), ("mov", "8E", "/3"), ("mov", "A1", "moffs"), ("mov", "A3", "moffs"),
          ("mov", "67 A1", "moffs16"), ("mov", "B0", "+r,ib"), ("mov", "B8", "+r,iz"),
          ("mov", "66 B8", "+r,iw"), ("mov", "C6", "/0,ib"), ("mov", "C7", "/0,iz"),
          ("mov", "66 C7", "/0,iw"),
          ("lea", "8D", "m/r"), ("pop", "8F", "/0"), ("nop", "90", ""), ("cwde", "98", ""),
          ("cdq", "99", ""), ("pushf", "9C", ""), ("popf", "9D", ""), ("sahf", "9E", ""),
          ("lahf", "9F", ""), ("pusha", "60", ""), ("popa", "61", ""),
          ("movs", "A4", ""), ("movs", "F3 A5", ""), ("cmps", "F3 A6", ""), ("stos", "AA", ""),
          ("stos", "F3 AB", ""), ("lods", "AC", ""), ("scas", "F2 AE", ""),
          ("ret", "C3", ""), ("ret", "C2", "iw"), ("leave", "C9", ""), ("enter", "C8", "enter"),
          ("int3", "CC", ""), ("int", "CD", "ib"),
          ("call", "E8", "relz"), ("jmp", "E9", "relz"), ("jmp", "EB", "rel8"),
          ("loop", "E2", "rel8"), ("loope", "E1", "rel8"), ("loopne", "E0", "rel8"),
          ("jecxz", "E3", "rel8"), ("clc", "F8", ""), ("stc", "F9", ""), ("cmc", "F5", ""),
          ("cld", "FC", ""), ("std", "FD", ""), ("hlt", "F4", ""),
          ("add", "F0 01", "m/r"), ("xchg", "F0 87", "m/r"), ("jz", "3E 74", "rel8"),
          ("jnz", "2E 75", "rel8")]
    for digit, name in ((0, "rol"), (1, "ror"), (2, "rcl"), (3, "rcr"), (4, "shl"), (5, "shr"), (7, "sar")):
        t += [(name, "C0", f"/{digit},ib"), (name, "C1", f"/{digit},ib"),
              (name, "D0", f"/{digit}"), (name, "D1", f"/{digit}"), (name, "D3", f"/{digit}")]
    for digit, name in ((2, "not"), (3, "neg"), (4, "mul"), (5, "imul"), (6, "div"), (7, "idiv")):
        t += [(name, "F6", f"/{digit}"), (name, "F7", f"/{digit}")]
    t += [("test", "F6", "/0,ib"), ("test", "F7", "/0,iz"),
          ("inc", "FE", "/0"), ("dec", "FE", "/1"), ("inc", "FF", "/0"), ("dec", "FF", "/1"),
          ("call", "FF", "/2"), ("jmp", "FF", "/4"), ("push", "FF", "/6")]
    for i, cc in enumerate(_JCC):
        t.append(("j" + cc, f"{0x70 + i:02X}", "rel8"))
        t.append(("j" + cc, f"0F {0x80 + i:02X}", "relz"))
    for i, cc in enumerate(_CC):
        t.append(("set" + cc, f"0F {0x90 + i:02X}", "/0"))
        t.append(("cmov" + cc, f"0F {0x40 + i:02X}", "/r"))
    t += [("movzx", "0F B6", "/r"), ("movzx", "0F B7", "/r"), ("movzx", "66 0F B6", "/r"),
          ("movsx", "0F BE", "/r"), ("movsx", "0F BF", "/r"),
          ("bt", "0F A3", "/r"), ("bts", "0F AB", "/r"), ("btr", "0F B3", "/r"), ("btc", "0F BB", "/r"),
          ("bt", "0F BA", "/4,ib"), ("bts", "0F BA", "/5,ib"), ("btr", "0F BA", "/6,ib"),
          ("btc", "0F BA", "/7,ib"), ("shld", "0F A4", "/r,ib"), ("shld", "0F A5", "/r"),
          ("shrd", "0F AC", "/r,ib"), ("shrd", "0F AD", "/r"), ("cmpxchg", "0F B1", "/r"),
          ("xadd", "0F C1", "/r"), ("bswap", "0F C8", "+r"), ("cpuid", "0F A2", ""),
          ("rdtsc", "0F 31", ""), ("nop", "0F 1F", "/0"), ("bsf", "0F BC", "/r"), ("bsr", "0F BD", "/r"),
          ("movups", "0F 10", "/r"), ("movupd", "66 0F 10", "/r"), ("movss", "F3 0F 10", "/r"),
          ("movsd", "F2 0F 10", "/r"), ("movaps", "0F 28", "/r"), ("xorps", "0F 57", "/r"),
          ("movdqa", "66 0F 6F", "/r"), ("movdqu", "F3 0F 6F", "/r"), ("movq", "0F 6F", "/r"),
          ("pxor", "66 0F EF", "/r"), ("pxor", "0F EF", "/r"), ("paddd", "66 0F FE", "/r"),
          ("pshufd", "66 0F 70", "/r,ib"), ("popcnt", "F3 0F B8", "/r"),
          ("pshufb", "66 0F 38 00", "/r"), ("palignr", "66 0F 3A 0F", "/r,ib"),
          ("aeskeygenassist", "66 0F 3A DF", "/r,ib")]
    x87_mem = {
        "D8": ("fadd", "fmul", "fcom", "fcomp", "fsub", "fsubr", "fdiv", "fdivr"),
        "D9": ("fld", None, "fst", "fstp", None, "fldcw", None, "fnstcw"),
        "DA": ("fiadd", "fimul", "ficom", "ficomp", "fisub", "fisubr", "fidiv", "fidivr"),
        "DB": ("fild", None, "fist", "fistp", None, "fld", None, "fstp"),
        "DC": ("fadd", "fmul", "fcom", "fcomp", "fsub", "fsubr", "fdiv", "fdivr"),
        "DD": ("fld", None, "fst", "fstp", None, None, None, "fnstsw"),
        "DE": ("fiadd", "fimul", "ficom", "ficomp", "fisub", "fisubr", "fidiv", "fidivr"),
        "DF": ("fild", None, "fist", "fistp", None, "fild", None, "fistp"),
    }
    for esc, names in x87_mem.items():
        for digit, name in enumerate(names):
            if name:
                t.append((name, esc, f"m/{digit}"))
    t += [("fadd", "D8 C0", "+i"), ("fmul", "D8 C8", "+i"), ("fsub", "D8 E0", "+i"),
          ("fdiv", "D8 F0", "+i"), ("fld", "D9 C0", "+i"), ("fxch", "D9 C8", "+i"),
          ("fchs", "D9 E0", ""), ("fabs", "D9 E1", ""), ("fld1", "D9 E8", ""), ("fldz", "D9 EE", ""),
          ("fsqrt", "D9 FA", ""), ("frndint", "D9 FC", ""), ("fsin", "D9 FE", ""), ("fcos", "D9 FF", ""),
          ("fucompp", "DA E9", ""), ("fnclex", "DB E2", ""), ("fninit", "DB E3", ""),
          ("fsubr", "DC E0", "+i"), ("fsub", "DC E8", "+i"), ("fdivr", "DC F0", "+i"),
          ("fdiv", "DC F8", "+i"), ("ffree", "DD C0", "+i"), ("fstp", "DD D8", "+i"),
          ("faddp", "DE C0", "+i"), ("fmulp", "DE C8", "+i"), ("fcompp", "DE D9", ""),
          ("fsubrp", "DE E0", "+i"), ("fsubp", "DE E8", "+i"), ("fdivrp", "DE F0", "+i"),
          ("fdivp", "DE F8", "+i"), ("fnstsw", "DF E0", ""),
          ("finit", "9B DB E3", ""), ("fstsw", "9B DF E0", ""), ("fstcw", "9B D9", "m/7"),
          ("fstsw", "9B DD", "m/7")]
    return [(name, bytes.fromhex(code), form) for name, code, form in t]


ENCODINGS: tuple[tuple[str, bytes, str], ...] = tuple(_table())
VARIANTS = 8  # random encodings pooled per table entry

# mnemonics a generated ransomware sample leans on (bulk encryption loops,
# key schedules, file walking) against goodware's call-heavy control flow
_RANSOM_HEAVY = frozenset({"xor", "rol", "ror", "shl", "shr", "sar", "bswap", "movs", "stos", "lods",
                           "pxor", "pshufb", "aeskeygenassist", "palignr", "adc", "rcl", "rcr", "not"})
_GOOD_HEAVY = frozenset({"call", "push", "test", "jz", "jnz", "cmp", "leave", "ret", "fld", "fstp",
                         "fmul", "fadd", "movss", "movsd", "cmovz", "setz"})
_COMMON = {"mov": 30.0, "push": 12.0, "call": 8.0, "pop": 6.0, "lea": 6.0, "cmp": 5.0, "add": 5.0,
           "jz": 4.0, "jmp": 4.0, "test": 4.0, "sub": 3.0, "xor": 3.0, "jnz": 3.0, "ret": 2.0}


def _modrm(rs: np.random.RandomState, reg: int | None, memory_only: bool, addr16: bool) -> bytes:
    mod = int(rs.randint(0, 3)) if memory_only else int(rs.randint(0, 4))
    reg = int(rs.randint(0, 8)) if reg is None else reg
    rm = int(rs.randint(0, 8))
    out = bytearray([(mod << 6) | (reg << 3) | rm])
    if mod == 3:
        return bytes(out)
    if addr16:
        disp = 2 if (mod == 0 and rm == 6) or mod == 2 else (1 if mod == 1 else 0)
    else:
        disp = {0: 0, 1: 1, 2: 4}[mod]
        if rm == 4:
            sib = int(rs.randint(0, 256))
            out.append(sib)
            if mod == 0 and sib & 7 == 5:
                disp = 4
        elif mod == 0 and rm == 5:
            disp = 4
    out += rs.bytes(disp)
    return bytes(out)


_IMM = {"ib": 1, "iw": 2, "iz": 4, "rel8": 1, "relz": 4, "moffs": 4, "moffs16": 2, "enter": 3}


def encode(rs: np.random.RandomState, code: bytes, form: str) -> bytes:
    """One encoding of a table entry, random where the form leaves bytes free."""
    out = bytearray(code)
    parts = [p for p in form.split(",") if p]
    for part in parts:
        if part in ("+r", "+i"):
            out[-1] += int(rs.randint(0, 8))
        elif part in _IMM:
            out += rs.bytes(_IMM[part])
        else:
            memory_only = part.startswith("m")
            addr16 = part.endswith("16")
            field = part.lstrip("m").removesuffix("16")
            reg = None if field == "/r" else int(field[1:])
            out += _modrm(rs, reg, memory_only, addr16)
    return bytes(out)


def class_profile(label: str) -> np.ndarray:
    """Probability of each table entry in a sample of the given class."""
    weights = np.array([_COMMON.get(name, 0.3) for name, _, _ in ENCODINGS])
    heavy = _RANSOM_HEAVY if label == "malware" else _GOOD_HEAVY
    weights *= np.array([10.0 if name in heavy else 1.0 for name, _, _ in ENCODINGS])
    return weights / weights.sum()


@dataclass
class PeSample:
    sample_id: str
    label: str
    data: bytes
    expected: dict[str, int]  # mnemonic -> count in the code section
    random_bytes: int  # size of the extra random executable section, 0 if none


def build_pe(sections: list[tuple[str, bytes]]) -> bytes:
    """Minimal PE32 image (PE/COFF spec): DOS header with e_lfanew at 0x3C,
    signature, COFF header for i386, 224-byte optional header, section table."""
    opt_size, pe_offset = 224, 0x40
    headers_end = pe_offset + 4 + 20 + opt_size + 40 * len(sections)
    offset = (headers_end + 0x1FF) & ~0x1FF
    dos = bytearray(pe_offset)
    dos[0:2] = b"MZ"
    struct.pack_into("<I", dos, 0x3C, pe_offset)
    coff = struct.pack("<HHIIIHH", 0x014C, len(sections), 0, 0, 0, opt_size, 0x0102)
    opt = bytearray(opt_size)
    struct.pack_into("<H", opt, 0, 0x010B)
    struct.pack_into("<I", opt, 16, 0x1000)
    table, blobs, rva = bytearray(), bytearray(), 0x1000
    for name, body in sections:
        table += struct.pack("<8sIIIIIIHHI", name.encode("ascii"), len(body), rva, len(body),
                             offset, 0, 0, 0, 0, 0x60000020)
        blobs += body
        offset += len(body)
        rva += (len(body) + 0xFFF) & ~0xFFF
    head = bytes(dos) + b"PE\0\0" + coff + bytes(opt) + bytes(table)
    return head + b"\0" * (((headers_end + 0x1FF) & ~0x1FF) - len(head)) + bytes(blobs)


class PeGenerator:
    """Seeded source of labeled PE samples; each table entry gets a fixed
    pool of random encodings so a file is a cheap join of pooled bytes."""

    def __init__(self, seed: int):
        self.rs = np.random.RandomState(seed)
        self.pool = [[encode(self.rs, code, form) for _ in range(VARIANTS)] for _, code, form in ENCODINGS]
        self.profiles = {label: class_profile(label) for label in ("good", "malware")}

    def sample(self, sample_id: str, label: str, instructions: int, random_bytes: int = 0) -> PeSample:
        rs = self.rs
        mix = rs.dirichlet(self.profiles[label] * 400.0)
        counts = rs.multinomial(instructions, mix)
        order = rs.permutation(np.repeat(np.arange(len(ENCODINGS)), counts))
        variant = rs.randint(0, VARIANTS, size=len(order))
        code = b"".join([self.pool[e][v] for e, v in zip(order.tolist(), variant.tolist())])
        expected: dict[str, int] = {}
        for e in np.flatnonzero(counts):
            name = ENCODINGS[e][0]
            expected[name] = expected.get(name, 0) + int(counts[e])
        sections = [(".text", code)]
        if random_bytes:
            sections.append((".packed", rs.bytes(random_bytes)))
        return PeSample(sample_id, label, build_pe(sections), expected, random_bytes)
