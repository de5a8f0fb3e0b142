import struct

import pytest

from pcfg.image import Image, SymbolKind, make_symbol
from pcfg.isa import LENGTHS, TARGET_OPS, Instruction, Opcode, encode

#: The opcode per raw byte value, None where no opcode is defined.
_BY_BYTE: list[Opcode | None] = [None] * 256
for _kind in Opcode:
    _BY_BYTE[_kind] = _kind

_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")


def decode_at(text: bytes, text_base: int, addr: int) -> Instruction:
    """Decode the instruction starting at `addr` within `text`: the
    one-instruction decoder that `scan_block` is checked against.

    Callers must have bounds-checked `addr`; bytes that do not form a
    complete defined instruction decode as a one-byte NOP.
    """
    off = addr - text_base
    kind = _BY_BYTE[text[off]]
    if kind is None:
        return Instruction(addr, Opcode.NOP, 1)
    length = LENGTHS[kind]
    if off + length > len(text):
        return Instruction(addr, Opcode.NOP, 1)
    if kind in TARGET_OPS:
        return Instruction(addr, kind, length, _U32.unpack_from(text, off + 1)[0])
    if kind is Opcode.IJMP_TABLE:
        base = _U32.unpack_from(text, off + 1)[0]
        bound = _U16.unpack_from(text, off + 5)[0]
        return Instruction(addr, kind, length, base, bound)
    if kind is Opcode.BOUND_HINT:
        return Instruction(addr, kind, length, _U16.unpack_from(text, off + 1)[0])
    if kind is Opcode.ALU:
        return Instruction(addr, kind, length, _U16.unpack_from(text, off + 1)[0])
    return Instruction(addr, kind, length)


def asm_image(text_base, instrs, symbols=(), data_base=0x100000, data=b""):
    """Assemble an image from (kind, a, b) tuples at absolute addresses."""
    text = bytearray()
    for item in instrs:
        kind = item[0]
        a = item[1] if len(item) > 1 else 0
        b = item[2] if len(item) > 2 else 0
        text += encode(kind, a, b)
    syms = tuple(
        make_symbol(off, name, SymbolKind.FUNC, noreturn)
        for off, name, noreturn in symbols
    )
    return Image(text_base, bytes(text), data_base, bytes(data), syms)


def decode_walk(text, base, addr, stop):
    """The reference for `scan_block`: a `decode_at` walk from `addr` over
    the instructions that start before `stop`, up to the first control
    flow one. Returns that instruction (or None), whether a frame
    teardown was seen, and the address and immediate of the last bound
    hint (-1 and None when there is none)."""
    teardown, hint_at, hint = False, -1, None
    while addr < stop:
        ins = decode_at(text, base, addr)
        if ins.is_control_flow:
            return ins, teardown, hint_at, hint
        if ins.kind is Opcode.FRAME_TEARDOWN:
            teardown = True
        elif ins.kind is Opcode.BOUND_HINT:
            hint_at, hint = addr, ins.a
        addr += ins.length
    return None, teardown, hint_at, hint


@pytest.fixture
def paper_layout():
    """A block [0x4, 0xd) ending in a return, splittable at 0xa."""
    return asm_image(
        0x4,
        [
            (Opcode.ALU,),
            (Opcode.ALU,),
            (Opcode.NOP,),
            (Opcode.NOP,),
            (Opcode.RET,),
        ],
    )
