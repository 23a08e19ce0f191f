"""Linear-sweep 32-bit x86 instruction counting.

The decoder covers the whole one-byte opcode map, the common two-byte
(0F) map including conditional families and packed-math rows, a slice of
the 0F 38 / 0F 3A maps, the full x87 escape range D8-DF, legacy prefixes
and the 32- and 16-bit ModRM/SIB/displacement rules. It recovers only
mnemonics and lengths - never operands.

Decoding is total: a byte that does not start a supported instruction is
counted as unknown and the sweep advances one byte, so progress is
guaranteed and identical bytes always produce identical counts.

Naming follows the x86 reference spellings, lowercased, with three
counting conventions: string operations collapse to their size-less stem
(movs, stos, lods, scas, cmps, ins, outs), conditional families keep the
full condition (ja, jnb, setnbe, cmovnle, ...), and an x87 instruction
fused with a preceding wait byte (9B) is counted as its wait form
(fstsw, finit, ...) while a bare 9B counts as wait.

``decode_one`` resolves every opcode through flat 256-entry tables
built once at import: ``ONE_BYTE``, ``TWO_BYTE`` (the 0F map under each
mandatory prefix - none, 66, F2, F3 - with the plain entry standing in
where a prefix has none of its own), ``THREE_BYTE_38`` and
``THREE_BYTE_3A``; the bytes of ModRM, SIB and displacement come from
``MODRM_LENGTH``.
An entry is ``(mnemonic, immediate code, modrm)`` or None. ``modrm`` is
False when no ModRM byte follows, True when one follows and leaves the
mnemonic alone, and otherwise a 256-entry table indexed by the ModRM byte
that gives ``(mnemonic, immediate code)`` or None: the opcode groups and
the x87 escapes all resolve that way.

``sweep`` takes most instructions from ``lead_tables()``, arrays built
on the first sweep, so importing the module stays cheap. A pair table
gives the name id and length that the first two bytes of an instruction
decode to whatever follows them, indexed by ``(first << 8) | second``,
or length 0: an unknown opcode or group form, a prefix, 0F or 9B as
first byte, and a ModRM byte with mod 0 and rm 4, whose SIB byte adds a
displacement when its base is 5. The tables are derived from
``ONE_BYTE``, ``TWO_BYTE`` and ``MODRM_LENGTH`` by one rule: the
one-byte map with no prefix, under 66 (16-bit immediates) and under 67
(16-bit addressing, so no SIB byte), and the 0F map. Per buffer, one
numpy gather reads the one-byte pair table at every offset. Only where
it misses, the byte there picks a lead table for the two bytes after
it: the 66, 67 or 0F table, or the plain one after a segment, lock or
repeat prefix, none of which changes a one-byte instruction's length.
A hit there is one byte longer. Then a Python loop walks the buffer by
those lengths, records the offsets it steps on and counts their names
with one ``np.bincount``. The lookups and the walk take a buffer one
window of ``SWEEP_WINDOW`` bytes at a time, so their arrays stay the
size of a window, and the walk carries its position across a window's
end. Where the length is 0 the walk calls
``decode_one``: two or more prefixes, 66, F2 or F3 before 0F, 0F 38 and
0F 3A, 9B, SIB forms, and the last ``MAX_INSTRUCTION_LENGTH - 1`` bytes
of a buffer, where an instruction may be cut short.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NoExecutableSection, NoInstructionsDecoded
from .pe import PeImage
from .reports import OpcodeHistogram

PREFIX_BYTES = frozenset({0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65, 0x66, 0x67, 0xF0, 0xF2, 0xF3})
MAX_INSTRUCTION_LENGTH = 15
SWEEP_WINDOW = 1 << 16  # bytes of a buffer that ``sweep`` tables and walks at a time

# immediate bytes by code, indexed by osize16 + 2 * asize16: iz (also
# rel16/32) shrinks to 16 bits under the operand-size prefix, ptr is a
# far pointer, moffs follows the address size, enter is iw + ib
_IMMEDIATE_LENGTHS = {
    None: (0, 0, 0, 0),
    "ib": (1, 1, 1, 1),
    "iw": (2, 2, 2, 2),
    "enter": (3, 3, 3, 3),
    "iz": (4, 2, 4, 2),
    "ptr": (6, 4, 6, 4),
    "moffs": (4, 4, 2, 2),
}


def _op(name: str, imm: str | None = None) -> tuple:
    return (name, imm, False)


def _rm(name: str, imm: str | None = None) -> tuple:
    return (name, imm, True)


def _block(base: int, name: str, count: int = 8) -> dict[int, str]:
    return {base + i: name for i in range(count)}


def _group(mem: tuple, imm=None, reg: dict[int, str] | None = None) -> tuple:
    """A ModRM-extended opcode. Memory forms (mod != 3) take their name
    from ``mem`` by the reg field; register forms take it from ``reg``,
    keyed by the whole ModRM byte, or from ``mem`` too when ``reg`` is
    None. ``imm`` is one immediate code, or a tuple of one per reg field."""
    imms = imm if isinstance(imm, tuple) else (imm,) * 8
    forms = [None if name is None else (name, imms[r]) for r, name in enumerate(mem)]
    table = [forms[(m >> 3) & 7] for m in range(256)]
    if reg is not None:
        named = {name: (name, None) for name in reg.values()}
        table[0xC0:] = [named.get(reg.get(m)) for m in range(0xC0, 0x100)]
    return (None, None, tuple(table))


_JCC = ("jo", "jno", "jb", "jnb", "jz", "jnz", "jbe", "ja",
        "js", "jns", "jp", "jnp", "jl", "jge", "jle", "jg")
_CC = ("o", "no", "b", "nb", "z", "nz", "be", "nbe",
       "s", "ns", "p", "np", "l", "nl", "le", "nle")
_NONE = (None,) * 8
_GRP1 = ("add", "or", "adc", "sbb", "and", "sub", "xor", "cmp")
_GRP2 = ("rol", "ror", "rcl", "rcr", "shl", "shr", "shl", "sar")
_GRP3 = ("test", "test", "not", "neg", "mul", "imul", "div", "idiv")
_GRP11 = ("mov",) + _NONE[1:]

# x87 escapes: memory forms by the reg field, register forms by ModRM byte
_X87_MEM = {
    0xD8: ("fadd", "fmul", "fcom", "fcomp", "fsub", "fsubr", "fdiv", "fdivr"),
    0xD9: ("fld", None, "fst", "fstp", "fldenv", "fldcw", "fnstenv", "fnstcw"),
    0xDA: ("fiadd", "fimul", "ficom", "ficomp", "fisub", "fisubr", "fidiv", "fidivr"),
    0xDB: ("fild", "fisttp", "fist", "fistp", None, "fld", None, "fstp"),
    0xDC: ("fadd", "fmul", "fcom", "fcomp", "fsub", "fsubr", "fdiv", "fdivr"),
    0xDD: ("fld", "fisttp", "fst", "fstp", "frstor", None, "fnsave", "fnstsw"),
    0xDE: ("fiadd", "fimul", "ficom", "ficomp", "fisub", "fisubr", "fidiv", "fidivr"),
    0xDF: ("fild", "fisttp", "fist", "fistp", "fbld", "fild", "fbstp", "fistp"),
}
_X87_REG = {
    0xD8: {**_block(0xC0, "fadd"), **_block(0xC8, "fmul"), **_block(0xD0, "fcom"),
           **_block(0xD8, "fcomp"), **_block(0xE0, "fsub"), **_block(0xE8, "fsubr"),
           **_block(0xF0, "fdiv"), **_block(0xF8, "fdivr")},
    0xD9: {**_block(0xC0, "fld"), **_block(0xC8, "fxch"), 0xD0: "fnop",
           0xE0: "fchs", 0xE1: "fabs", 0xE4: "ftst", 0xE5: "fxam",
           0xE8: "fld1", 0xE9: "fldl2t", 0xEA: "fldl2e", 0xEB: "fldpi",
           0xEC: "fldlg2", 0xED: "fldln2", 0xEE: "fldz",
           0xF0: "f2xm1", 0xF1: "fyl2x", 0xF2: "fptan", 0xF3: "fpatan",
           0xF4: "fxtract", 0xF5: "fprem1", 0xF6: "fdecstp", 0xF7: "fincstp",
           0xF8: "fprem", 0xF9: "fyl2xp1", 0xFA: "fsqrt", 0xFB: "fsincos",
           0xFC: "frndint", 0xFD: "fscale", 0xFE: "fsin", 0xFF: "fcos"},
    0xDA: {**_block(0xC0, "fcmovb"), **_block(0xC8, "fcmove"),
           **_block(0xD0, "fcmovbe"), **_block(0xD8, "fcmovu"), 0xE9: "fucompp"},
    0xDB: {**_block(0xC0, "fcmovnb"), **_block(0xC8, "fcmovne"),
           **_block(0xD0, "fcmovnbe"), **_block(0xD8, "fcmovnu"),
           0xE2: "fnclex", 0xE3: "fninit",
           **_block(0xE8, "fucomi"), **_block(0xF0, "fcomi")},
    0xDC: {**_block(0xC0, "fadd"), **_block(0xC8, "fmul"), **_block(0xE0, "fsubr"),
           **_block(0xE8, "fsub"), **_block(0xF0, "fdivr"), **_block(0xF8, "fdiv")},
    0xDD: {**_block(0xC0, "ffree"), **_block(0xD0, "fst"), **_block(0xD8, "fstp"),
           **_block(0xE0, "fucom"), **_block(0xE8, "fucomp")},
    0xDE: {**_block(0xC0, "faddp"), **_block(0xC8, "fmulp"), 0xD9: "fcompp",
           **_block(0xE0, "fsubrp"), **_block(0xE8, "fsubp"),
           **_block(0xF0, "fdivrp"), **_block(0xF8, "fdivp")},
    0xDF: {0xE0: "fnstsw", **_block(0xE8, "fucomip"), **_block(0xF0, "fcomip")},
}


def _one_byte_table() -> tuple:
    t: list = [None] * 256
    for i, name in enumerate(_GRP1):
        for off in range(4):
            t[8 * i + off] = _rm(name)
        t[8 * i + 4] = _op(name, "ib")
        t[8 * i + 5] = _op(name, "iz")
    for code, name in ((0x06, "push"), (0x07, "pop"), (0x0E, "push"), (0x16, "push"),
                       (0x17, "pop"), (0x1E, "push"), (0x1F, "pop"),
                       (0x27, "daa"), (0x2F, "das"), (0x37, "aaa"), (0x3F, "aas")):
        t[code] = _op(name)
    for i in range(8):
        t[0x40 + i] = _op("inc")
        t[0x48 + i] = _op("dec")
        t[0x50 + i] = _op("push")
        t[0x58 + i] = _op("pop")
    t[0x60] = _op("pusha")
    t[0x61] = _op("popa")
    t[0x62] = _rm("bound")
    t[0x63] = _rm("arpl")
    t[0x68] = _op("push", "iz")
    t[0x69] = _rm("imul", "iz")
    t[0x6A] = _op("push", "ib")
    t[0x6B] = _rm("imul", "ib")
    t[0x6C] = t[0x6D] = _op("ins")
    t[0x6E] = t[0x6F] = _op("outs")
    for i, cc in enumerate(_JCC):
        t[0x70 + i] = _op(cc, "ib")
    t[0x80] = t[0x82] = t[0x83] = _group(_GRP1, "ib")
    t[0x81] = _group(_GRP1, "iz")
    t[0x84] = t[0x85] = _rm("test")
    t[0x86] = t[0x87] = _rm("xchg")
    for code in (0x88, 0x89, 0x8A, 0x8B, 0x8C, 0x8E):
        t[code] = _rm("mov")
    t[0x8D] = _rm("lea")
    t[0x8F] = _group(("pop",) + _NONE[1:])
    t[0x90] = _op("nop")
    for i in range(1, 8):
        t[0x90 + i] = _op("xchg")
    t[0x98] = _op("cwde")
    t[0x99] = _op("cdq")
    t[0x9A] = _op("call", "ptr")
    t[0x9C] = _op("pushf")
    t[0x9D] = _op("popf")
    t[0x9E] = _op("sahf")
    t[0x9F] = _op("lahf")
    for code in (0xA0, 0xA1, 0xA2, 0xA3):
        t[code] = _op("mov", "moffs")
    t[0xA4] = t[0xA5] = _op("movs")
    t[0xA6] = t[0xA7] = _op("cmps")
    t[0xA8] = _op("test", "ib")
    t[0xA9] = _op("test", "iz")
    t[0xAA] = t[0xAB] = _op("stos")
    t[0xAC] = t[0xAD] = _op("lods")
    t[0xAE] = t[0xAF] = _op("scas")
    for i in range(8):
        t[0xB0 + i] = _op("mov", "ib")
        t[0xB8 + i] = _op("mov", "iz")
    t[0xC0] = t[0xC1] = _group(_GRP2, "ib")
    t[0xC2] = _op("ret", "iw")
    t[0xC3] = _op("ret")
    t[0xC4] = _rm("les")
    t[0xC5] = _rm("lds")
    t[0xC6] = _group(_GRP11, "ib")
    t[0xC7] = _group(_GRP11, "iz")
    t[0xC8] = _op("enter", "enter")
    t[0xC9] = _op("leave")
    t[0xCA] = _op("retf", "iw")
    t[0xCB] = _op("retf")
    t[0xCC] = _op("int3")
    t[0xCD] = _op("int", "ib")
    t[0xCE] = _op("into")
    t[0xCF] = _op("iret")
    t[0xD0] = t[0xD1] = t[0xD2] = t[0xD3] = _group(_GRP2)
    t[0xD4] = _op("aam", "ib")
    t[0xD5] = _op("aad", "ib")
    t[0xD6] = _op("salc")
    t[0xD7] = _op("xlat")
    for code in range(0xD8, 0xE0):
        t[code] = _group(_X87_MEM[code], reg=_X87_REG[code])
    t[0xE0] = _op("loopne", "ib")
    t[0xE1] = _op("loope", "ib")
    t[0xE2] = _op("loop", "ib")
    t[0xE3] = _op("jecxz", "ib")
    t[0xE4] = t[0xE5] = _op("in", "ib")
    t[0xE6] = t[0xE7] = _op("out", "ib")
    t[0xE8] = _op("call", "iz")
    t[0xE9] = _op("jmp", "iz")
    t[0xEA] = _op("jmp", "ptr")
    t[0xEB] = _op("jmp", "ib")
    t[0xEC] = t[0xED] = _op("in")
    t[0xEE] = t[0xEF] = _op("out")
    t[0xF1] = _op("int1")
    t[0xF4] = _op("hlt")
    t[0xF5] = _op("cmc")
    # only test (reg 0 and 1) of group 3 carries an immediate
    t[0xF6] = _group(_GRP3, ("ib", "ib") + _NONE[2:])
    t[0xF7] = _group(_GRP3, ("iz", "iz") + _NONE[2:])
    t[0xF8] = _op("clc")
    t[0xF9] = _op("stc")
    t[0xFA] = _op("cli")
    t[0xFB] = _op("sti")
    t[0xFC] = _op("cld")
    t[0xFD] = _op("std")
    t[0xFE] = _group(("inc", "dec") + _NONE[2:])
    t[0xFF] = _group(("inc", "dec", "call", "call", "jmp", "jmp", "push", None))
    return tuple(t)


def _two_byte_tables() -> dict[int | None, tuple]:
    maps: dict[int | None, list] = {prefix: [None] * 256 for prefix in (None, 0x66, 0xF2, 0xF3)}

    def put(op: int, name: str, prefix: int | None = None, modrm: bool = True, imm: str | None = None):
        maps[prefix][op] = (name, imm, modrm)

    plain = maps[None]
    plain[0x00] = _group(("sldt", "str", "lldt", "ltr", "verr", "verw", None, None))
    # the register forms of group 7 are mostly virtualization and state
    # opcodes outside the decoder's coverage; only smsw and lmsw keep them
    plain[0x01] = _group(("sgdt", "sidt", "lgdt", "lidt", "smsw", None, "lmsw", "invlpg"),
                         reg={**_block(0xE0, "smsw"), **_block(0xF0, "lmsw")})
    put(0x02, "lar")
    put(0x03, "lsl")
    put(0x06, "clts", modrm=False)
    put(0x08, "invd", modrm=False)
    put(0x09, "wbinvd", modrm=False)
    put(0x0B, "ud2", modrm=False)
    put(0x0D, "prefetch")
    put(0x10, "movups"); put(0x10, "movupd", 0x66); put(0x10, "movss", 0xF3); put(0x10, "movsd", 0xF2)
    put(0x11, "movups"); put(0x11, "movupd", 0x66); put(0x11, "movss", 0xF3); put(0x11, "movsd", 0xF2)
    put(0x12, "movlps"); put(0x13, "movlps")
    put(0x14, "unpcklps"); put(0x15, "unpckhps")
    put(0x16, "movhps"); put(0x17, "movhps")
    put(0x18, "prefetch")
    for op in range(0x19, 0x20):
        put(op, "nop")
    for op in range(0x20, 0x24):
        put(op, "mov")
    put(0x28, "movaps"); put(0x28, "movapd", 0x66)
    put(0x29, "movaps"); put(0x29, "movapd", 0x66)
    put(0x2A, "cvtpi2ps"); put(0x2A, "cvtsi2ss", 0xF3); put(0x2A, "cvtsi2sd", 0xF2)
    put(0x2B, "movntps")
    put(0x2C, "cvttps2pi"); put(0x2C, "cvttpd2pi", 0x66); put(0x2C, "cvttss2si", 0xF3); put(0x2C, "cvttsd2si", 0xF2)
    put(0x2D, "cvtps2pi"); put(0x2D, "cvtss2si", 0xF3); put(0x2D, "cvtsd2si", 0xF2)
    put(0x2E, "ucomiss"); put(0x2E, "ucomisd", 0x66)
    put(0x2F, "comiss"); put(0x2F, "comisd", 0x66)
    put(0x30, "wrmsr", modrm=False)
    put(0x31, "rdtsc", modrm=False)
    put(0x32, "rdmsr", modrm=False)
    put(0x33, "rdpmc", modrm=False)
    put(0x34, "sysenter", modrm=False)
    put(0x35, "sysexit", modrm=False)
    for i, cc in enumerate(_CC):
        put(0x40 + i, "cmov" + cc)
    put(0x50, "movmskps")
    put(0x51, "sqrtps"); put(0x51, "sqrtpd", 0x66); put(0x51, "sqrtss", 0xF3); put(0x51, "sqrtsd", 0xF2)
    put(0x52, "rsqrtps"); put(0x53, "rcpps")
    put(0x54, "andps"); put(0x54, "andpd", 0x66)
    put(0x55, "andnps"); put(0x55, "andnpd", 0x66)
    put(0x56, "orps"); put(0x56, "orpd", 0x66)
    put(0x57, "xorps"); put(0x57, "xorpd", 0x66)
    put(0x58, "addps"); put(0x58, "addpd", 0x66); put(0x58, "addss", 0xF3); put(0x58, "addsd", 0xF2)
    put(0x59, "mulps"); put(0x59, "mulpd", 0x66); put(0x59, "mulss", 0xF3); put(0x59, "mulsd", 0xF2)
    put(0x5A, "cvtps2pd"); put(0x5B, "cvtdq2ps")
    put(0x5C, "subps"); put(0x5C, "subpd", 0x66); put(0x5C, "subss", 0xF3); put(0x5C, "subsd", 0xF2)
    put(0x5D, "minps"); put(0x5D, "minpd", 0x66); put(0x5D, "minss", 0xF3); put(0x5D, "minsd", 0xF2)
    put(0x5E, "divps"); put(0x5E, "divpd", 0x66); put(0x5E, "divss", 0xF3); put(0x5E, "divsd", 0xF2)
    put(0x5F, "maxps"); put(0x5F, "maxpd", 0x66); put(0x5F, "maxss", 0xF3); put(0x5F, "maxsd", 0xF2)
    put(0x60, "punpcklbw"); put(0x61, "punpcklwd"); put(0x62, "punpckldq"); put(0x63, "packsswb")
    put(0x64, "pcmpgtb"); put(0x65, "pcmpgtw"); put(0x66, "pcmpgtd"); put(0x67, "packuswb")
    put(0x68, "punpckhbw"); put(0x69, "punpckhwd"); put(0x6A, "punpckhdq"); put(0x6B, "packssdw")
    put(0x6C, "punpcklqdq", 0x66); put(0x6D, "punpckhqdq", 0x66)
    put(0x6E, "movd")
    put(0x6F, "movq"); put(0x6F, "movdqa", 0x66); put(0x6F, "movdqu", 0xF3)
    put(0x70, "pshufw", imm="ib"); put(0x70, "pshufd", 0x66, imm="ib")
    put(0x70, "pshufhw", 0xF3, imm="ib"); put(0x70, "pshuflw", 0xF2, imm="ib")
    plain[0x71] = _group((None, None, "psrlw", None, "psraw", None, "psllw", None), "ib")
    plain[0x72] = _group((None, None, "psrld", None, "psrad", None, "pslld", None), "ib")
    plain[0x73] = _group((None, None, "psrlq", "psrldq", None, None, "psllq", "pslldq"), "ib")
    put(0x74, "pcmpeqb"); put(0x75, "pcmpeqw"); put(0x76, "pcmpeqd")
    put(0x77, "emms", modrm=False)
    put(0x7E, "movd"); put(0x7E, "movq", 0xF3)
    put(0x7F, "movq"); put(0x7F, "movdqa", 0x66); put(0x7F, "movdqu", 0xF3)
    for i, cc in enumerate(_JCC):
        put(0x80 + i, cc, modrm=False, imm="iz")
    for i, cc in enumerate(_CC):
        put(0x90 + i, "set" + cc)
    put(0xA0, "push", modrm=False); put(0xA1, "pop", modrm=False)
    put(0xA2, "cpuid", modrm=False)
    put(0xA3, "bt")
    put(0xA4, "shld", imm="ib"); put(0xA5, "shld")
    put(0xA8, "push", modrm=False); put(0xA9, "pop", modrm=False)
    put(0xAA, "rsm", modrm=False)
    put(0xAB, "bts")
    put(0xAC, "shrd", imm="ib"); put(0xAD, "shrd")
    plain[0xAE] = _group(("fxsave", "fxrstor", "ldmxcsr", "stmxcsr", "xsave", None, "xsaveopt", "clflush"),
                         reg={**_block(0xE8, "lfence"), **_block(0xF0, "mfence"), **_block(0xF8, "sfence")})
    put(0xAF, "imul")
    put(0xB0, "cmpxchg"); put(0xB1, "cmpxchg")
    put(0xB2, "lss"); put(0xB4, "lfs"); put(0xB5, "lgs")
    put(0xB3, "btr")
    put(0xB6, "movzx"); put(0xB7, "movzx")
    put(0xB8, "popcnt", 0xF3)
    plain[0xBA] = _group((None, None, None, None, "bt", "bts", "btr", "btc"), "ib")
    put(0xBB, "btc")
    put(0xBC, "bsf"); put(0xBD, "bsr")
    put(0xBE, "movsx"); put(0xBF, "movsx")
    put(0xC0, "xadd"); put(0xC1, "xadd")
    put(0xC2, "cmpps", imm="ib"); put(0xC2, "cmppd", 0x66, imm="ib")
    put(0xC2, "cmpss", 0xF3, imm="ib"); put(0xC2, "cmpsd", 0xF2, imm="ib")
    put(0xC3, "movnti")
    put(0xC4, "pinsrw", imm="ib"); put(0xC5, "pextrw", imm="ib")
    put(0xC6, "shufps", imm="ib"); put(0xC6, "shufpd", 0x66, imm="ib")
    plain[0xC7] = _group((None, "cmpxchg8b") + _NONE[2:])
    for op in range(0xC8, 0xD0):
        put(op, "bswap", modrm=False)
    put(0xD0, "addsubpd", 0x66)
    put(0xD1, "psrlw"); put(0xD2, "psrld"); put(0xD3, "psrlq")
    put(0xD4, "paddq"); put(0xD5, "pmullw")
    put(0xD6, "movq", 0x66)
    put(0xD7, "pmovmskb")
    put(0xD8, "psubusb"); put(0xD9, "psubusw"); put(0xDA, "pminub"); put(0xDB, "pand")
    put(0xDC, "paddusb"); put(0xDD, "paddusw"); put(0xDE, "pmaxub"); put(0xDF, "pandn")
    put(0xE0, "pavgb"); put(0xE1, "psraw"); put(0xE2, "psrad"); put(0xE3, "pavgw")
    put(0xE4, "pmulhuw"); put(0xE5, "pmulhw")
    put(0xE6, "cvttpd2dq", 0x66); put(0xE6, "cvtdq2pd", 0xF3); put(0xE6, "cvtpd2dq", 0xF2)
    put(0xE7, "movntq"); put(0xE7, "movntdq", 0x66)
    put(0xE8, "psubsb"); put(0xE9, "psubsw"); put(0xEA, "pminsw"); put(0xEB, "por")
    put(0xEC, "paddsb"); put(0xED, "paddsw"); put(0xEE, "pmaxsw"); put(0xEF, "pxor")
    put(0xF0, "lddqu", 0xF2)
    put(0xF1, "psllw"); put(0xF2, "pslld"); put(0xF3, "psllq")
    put(0xF4, "pmuludq"); put(0xF5, "pmaddwd"); put(0xF6, "psadbw"); put(0xF7, "maskmovq")
    put(0xF8, "psubb"); put(0xF9, "psubw"); put(0xFA, "psubd"); put(0xFB, "psubq")
    put(0xFC, "paddb"); put(0xFD, "paddw"); put(0xFE, "paddd")
    # the plain entry, group tables included, stands in wherever a
    # mandatory prefix has no entry of its own
    return {prefix: tuple(own or fallback for own, fallback in zip(table, plain))
            for prefix, table in maps.items()}


def _flat(names: dict[int, str], imm: str | None = None) -> tuple:
    return tuple(_rm(names[op], imm) if op in names else None for op in range(256))


ONE_BYTE = _one_byte_table()
TWO_BYTE = _two_byte_tables()
THREE_BYTE_38 = _flat({
    0x00: "pshufb", 0x01: "phaddw", 0x02: "phaddd", 0x03: "phaddsw",
    0x04: "pmaddubsw", 0x05: "phsubw", 0x06: "phsubd", 0x07: "phsubsw",
    0x08: "psignb", 0x09: "psignw", 0x0A: "psignd", 0x0B: "pmulhrsw",
    0x10: "pblendvb", 0x14: "blendvps", 0x15: "blendvpd", 0x17: "ptest",
    0x1C: "pabsb", 0x1D: "pabsw", 0x1E: "pabsd",
    0x20: "pmovsxbw", 0x21: "pmovsxbd", 0x22: "pmovsxbq",
    0x23: "pmovsxwd", 0x24: "pmovsxwq", 0x25: "pmovsxdq",
    0x28: "pmuldq", 0x29: "pcmpeqq", 0x2A: "movntdqa", 0x2B: "packusdw",
    0x30: "pmovzxbw", 0x31: "pmovzxbd", 0x32: "pmovzxbq",
    0x33: "pmovzxwd", 0x34: "pmovzxwq", 0x35: "pmovzxdq",
    0x38: "pminsb", 0x39: "pminsd", 0x3A: "pminuw", 0x3B: "pminud",
    0x3C: "pmaxsb", 0x3D: "pmaxsd", 0x3E: "pmaxuw", 0x3F: "pmaxud",
    0x40: "pmulld", 0x41: "phminposuw",
})
THREE_BYTE_3A = _flat({
    0x08: "roundps", 0x09: "roundpd", 0x0A: "roundss", 0x0B: "roundsd",
    0x0C: "blendps", 0x0D: "blendpd", 0x0E: "pblendw", 0x0F: "palignr",
    0x14: "pextrb", 0x15: "pextrw", 0x16: "pextrd", 0x17: "extractps",
    0x20: "pinsrb", 0x21: "insertps", 0x22: "pinsrd",
    0x40: "dpps", 0x41: "dppd", 0x42: "mpsadbw", 0x44: "pclmulqdq",
    0x60: "pcmpestrm", 0x61: "pcmpestri", 0x62: "pcmpistrm", 0x63: "pcmpistri",
    0xDF: "aeskeygenassist",
}, imm="ib")

# a wait byte (9B) directly before one of these x87 store/control forms
# fuses with it into the wait-form mnemonic
_WAIT_FUSED = [None] * 256
_WAIT_FUSED[0xD9] = _group(_NONE[:6] + ("fstenv", "fstcw"), reg={})
_WAIT_FUSED[0xDB] = _group(_NONE, reg={0xE2: "fclex", 0xE3: "finit"})
_WAIT_FUSED[0xDD] = _group(_NONE[:6] + ("fsave", "fstsw"), reg={})
_WAIT_FUSED[0xDF] = _group(_NONE, reg={0xE0: "fstsw"})


class DecodedInstruction(NamedTuple):
    mnemonic: str
    length: int


@dataclass
class DecodedCount:
    counts: dict[str, int] = field(default_factory=dict)
    unknown_bytes: int = 0
    decoded_instructions: int = 0

    def histogram(self, sample_id: str) -> OpcodeHistogram:
        """The counts as a report histogram; NoInstructionsDecoded when
        nothing decoded."""
        if self.decoded_instructions == 0:
            raise NoInstructionsDecoded(f"{sample_id}: no instructions decoded")
        return OpcodeHistogram(
            sample_id=sample_id,
            counts=dict(self.counts),
            total=self.decoded_instructions,
            source="disassembly",
        )


# ModRM + SIB + displacement bytes by ModRM byte, under 32- and 16-bit
# addressing; a 32-bit SIB with base 5 under mod 0 adds 4 (see _finish)
MODRM_LENGTH = (
    tuple(1 if m >= 0xC0 else 1 + (m & 7 == 4) + (4 if m & 0xC7 == 5 else (0, 1, 4)[m >> 6]) for m in range(256)),
    tuple(1 if m >= 0xC0 else 1 + (2 if m & 0xC7 == 6 else (0, 1, 2)[m >> 6]) for m in range(256)),
)


def _pair_table(entries: tuple, names: dict[str, int], osize16: bool = False,
                asize16: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Each opcode of the 256-entry map ``entries`` crossed with every byte
    that can follow it, as ``(first << 8) | second``, under the given
    operand and address sizes: the name ids and the lengths those two
    bytes decode to whatever follows them, length 0 where they do not
    decide one. ``names`` maps each mnemonic to its id and takes in new
    ones."""
    ids: list[int] = []
    lengths: list[int] = []
    column = osize16 + 2 * asize16  # of _IMMEDIATE_LENGTHS
    for entry in entries:
        if entry is None:
            ids += [0] * 256
            lengths += [0] * 256
            continue
        name, imm, modrm = entry
        if not modrm:
            ids += [names.setdefault(name, len(names))] * 256
            lengths += [1 + _IMMEDIATE_LENGTHS[imm][column]] * 256
            continue
        forms = [(name, imm)] * 256 if modrm is True else modrm
        for m, (form, modrm_length) in enumerate(zip(forms, MODRM_LENGTH[asize16])):
            if form is None or (m & 0xC7 == 0x04 and not asize16):
                ids.append(0)
                lengths.append(0)
            else:
                ids.append(names.setdefault(form[0], len(names)))
                lengths.append(1 + modrm_length + _IMMEDIATE_LENGTHS[form[1]][column])
    return np.array(ids, np.uint16), np.array(lengths, np.uint8)


class LeadTables(NamedTuple):
    """The pair tables ``sweep`` reads, as rows of ``ids`` and ``lengths``
    indexed by ``(first << 8) | second``: row 0 is the one-byte map, rows
    1 and 2 the one-byte map under 66 and under 67, row 3 the 0F map,
    and row 4 is all zeros. ``row[lead]`` is the row of the two bytes
    after the byte ``lead``: row 0 after a segment, lock or repeat
    prefix, which leaves a one-byte instruction's length alone, and row
    4 after any byte that is not a prefix or 0F."""
    names: tuple[str, ...]  # by name id
    row: np.ndarray  # uint8, 256
    ids: np.ndarray  # uint16, 5 x 65,536
    lengths: np.ndarray  # uint8, 5 x 65,536


@functools.cache
def lead_tables() -> LeadTables:
    """The tables of ``sweep``, built on the first sweep, not at import."""
    names: dict[str, int] = {}
    rows = [_pair_table(ONE_BYTE, names), _pair_table(ONE_BYTE, names, osize16=True),
            _pair_table(ONE_BYTE, names, asize16=True), _pair_table(TWO_BYTE[None], names)]
    rows.append((np.zeros(1 << 16, np.uint16), np.zeros(1 << 16, np.uint8)))
    ids, lengths = map(np.stack, zip(*rows))
    row = np.full(256, 4, np.uint8)
    row[sorted(PREFIX_BYTES)] = 0
    row[[0x66, 0x67, 0x0F]] = (1, 2, 3)
    for shared in (row, ids, lengths):  # every sweep reads these same arrays
        shared.flags.writeable = False
    return LeadTables(tuple(names), row, ids, lengths)


def decode_one(code: bytes, pos: int) -> DecodedInstruction | None:
    """Decode the instruction starting at ``pos``; None when the byte does
    not begin a supported, fully-contained instruction."""
    start = pos
    limit = min(len(code), start + MAX_INSTRUCTION_LENGTH)
    osize16 = asize16 = False
    rep = None  # the last F2/F3 prefix, which selects the 0F table over 66
    while pos < limit and code[pos] in PREFIX_BYTES:
        b = code[pos]
        if b == 0x66:
            osize16 = True
        elif b == 0x67:
            asize16 = True
        elif b == 0xF2 or b == 0xF3:
            rep = b
        pos += 1
    if pos >= limit:
        return None
    opcode = code[pos]
    pos += 1

    if opcode == 0x9B:
        if pos < limit:
            fused = _finish(code, start, pos + 1, limit, _WAIT_FUSED[code[pos]], osize16, asize16)
            if fused is not None:
                return fused
        return DecodedInstruction("wait", pos - start)
    if opcode != 0x0F:
        return _finish(code, start, pos, limit, ONE_BYTE[opcode], osize16, asize16)
    if pos >= limit:
        return None
    op = code[pos]
    pos += 1
    if op == 0x38 or op == 0x3A:
        if pos >= limit:
            return None
        entry = (THREE_BYTE_38 if op == 0x38 else THREE_BYTE_3A)[code[pos]]
        pos += 1
    else:
        entry = TWO_BYTE[rep or (0x66 if osize16 else None)][op]
    return _finish(code, start, pos, limit, entry, osize16, asize16)


def _finish(code, start, pos, limit, entry, osize16, asize16) -> DecodedInstruction | None:
    """Complete the instruction whose opcode bytes end before ``pos``:
    the ModRM block, if any, then the immediate."""
    if entry is None:
        return None
    name, imm, modrm = entry
    if modrm:
        if pos >= limit:
            return None
        modrm_byte = code[pos]
        if modrm is not True:
            form = modrm[modrm_byte]
            if form is None:
                return None
            name, imm = form
        length = MODRM_LENGTH[asize16][modrm_byte]
        if modrm_byte & 0xC7 == 0x04 and not asize16 and pos + 1 < limit and code[pos + 1] & 7 == 5:
            length += 4
        pos += length
    pos += _IMMEDIATE_LENGTHS[imm][osize16 + 2 * asize16]
    if pos > limit:
        return None
    return DecodedInstruction(name, pos - start)


def _steps(code: bytes, start: int, tables: LeadTables) -> tuple[bytes, np.ndarray]:
    """The step ``sweep`` takes at each offset of the window of ``code``
    from ``start``, without ``decode_one``, and the name id it counts
    there: the length the pair table gives, else the lead table one byte
    longer, else 0. The last ``MAX_INSTRUCTION_LENGTH - 1`` offsets of
    ``code``, where an instruction may be cut short, are 0 too."""
    end = min(len(code), start + SWEEP_WINDOW)
    tabled = min(end, len(code) - MAX_INSTRUCTION_LENGTH + 1) - start  # offsets the tables serve
    steps = np.zeros(end - start, np.uint8)
    if tabled <= 0:
        return steps.tobytes(), np.zeros(0, np.uint16)
    b = np.frombuffer(code, np.uint8, tabled + 2, start)  # a lookup reads up to two bytes on
    pair = b[:tabled].astype(np.uint16) << 8 | b[1:tabled + 1]
    ids = tables.ids[0, pair]
    lengths = steps[:tabled]  # a view: writing it writes steps
    lengths[:] = tables.lengths[0, pair]
    miss = np.flatnonzero(lengths == 0)
    row, after = tables.row[b[miss]], b[miss + 1].astype(np.uint16) << 8 | b[miss + 2]
    lead_lengths = tables.lengths[row, after]
    ids[miss] = tables.ids[row, after]
    lengths[miss] = lead_lengths + (lead_lengths != 0)
    return steps.tobytes(), ids


def sweep(*codes: bytes) -> DecodedCount:
    """Linear sweep of each buffer in turn, into one count: decode,
    advance by the instruction length; count an undecodable byte as
    unknown and advance one byte."""
    tables = lead_tables()
    counts: dict[str, int] = {}
    unknown = 0
    tally = np.zeros(len(tables.names), np.int64)
    for code in codes:
        pos = 0  # from the start of the window, which an instruction may run past
        for start in range(0, len(code), SWEEP_WINDOW):
            steps, ids = _steps(code, start, tables)
            on_path = bytearray(len(ids))
            end = len(steps)
            while pos < end:
                step = steps[pos]
                if step:
                    on_path[pos] = 1
                    pos += step
                    continue
                hit = decode_one(code, start + pos)
                if hit is None:
                    unknown += 1
                    pos += 1
                else:
                    counts[hit.mnemonic] = counts.get(hit.mnemonic, 0) + 1
                    pos += hit.length
            pos -= end
            tally += np.bincount(ids[np.frombuffer(on_path, np.bool_)], minlength=len(tally))
    for name_id in np.flatnonzero(tally):
        name = tables.names[name_id]
        counts[name] = counts.get(name, 0) + int(tally[name_id])
    return DecodedCount(counts, unknown, sum(counts.values()))


def count_opcodes(image: PeImage) -> DecodedCount:
    """Sweep every executable section of a parsed image."""
    sections = image.executable_sections()
    if not sections:
        raise NoExecutableSection("image has no executable section")
    return sweep(*(section.raw_data for section in sections))
