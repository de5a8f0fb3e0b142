import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from pcfg.image import Image, SymbolKind, make_symbol
from pcfg.isa import Opcode, decode_at, encode


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
