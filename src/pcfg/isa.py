"""The instruction set of the binary image format.

Variable-length instructions: one opcode byte followed by little-endian
operands. Control transfers carry absolute 32-bit targets; a table jump
carries a 32-bit table base plus a 16-bit bound operand. Decoding
(`pcfg._kernels.scan_block`) is total: an unknown opcode byte, or a
known opcode whose operand bytes run past the end of the text section,
decodes as a single-byte no-op, so a linear scan can never get stuck
mid-stream.
"""

from __future__ import annotations

import struct
from enum import IntEnum
from typing import NamedTuple


class Opcode(IntEnum):
    NOP = 0x00
    ALU = 0x01
    JMP_DIRECT = 0x02
    JCC_DIRECT = 0x03
    CALL = 0x04
    RET = 0x05
    IJMP_TABLE = 0x06
    IJMP_OPAQUE = 0x07
    HALT = 0x08
    FRAME_TEARDOWN = 0x09
    BOUND_HINT = 0x0A


#: Instruction length per opcode. A pure function of the kind.
LENGTHS: dict[Opcode, int] = {
    Opcode.NOP: 1,
    Opcode.ALU: 3,
    Opcode.JMP_DIRECT: 5,
    Opcode.JCC_DIRECT: 5,
    Opcode.CALL: 5,
    Opcode.RET: 1,
    Opcode.IJMP_TABLE: 7,
    Opcode.IJMP_OPAQUE: 1,
    Opcode.HALT: 1,
    Opcode.FRAME_TEARDOWN: 1,
    Opcode.BOUND_HINT: 3,
}

#: Opcodes that transfer control. Exactly these end a basic block.
CONTROL_FLOW: frozenset[Opcode] = frozenset(
    {
        Opcode.JMP_DIRECT,
        Opcode.JCC_DIRECT,
        Opcode.CALL,
        Opcode.RET,
        Opcode.IJMP_TABLE,
        Opcode.IJMP_OPAQUE,
        Opcode.HALT,
    }
)

#: Opcodes whose single operand is an absolute branch/call target.
TARGET_OPS: frozenset[Opcode] = frozenset(
    {Opcode.JMP_DIRECT, Opcode.JCC_DIRECT, Opcode.CALL}
)

_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")


class Instruction(NamedTuple):
    """A decoded instruction.

    Operand meaning depends on the kind: `a` is the absolute target for
    JMP_DIRECT/JCC_DIRECT/CALL, the table base for IJMP_TABLE, and the
    bound immediate for BOUND_HINT; `b` is the bound operand of
    IJMP_TABLE. Both are zero otherwise.
    """

    addr: int
    kind: Opcode
    length: int
    a: int = 0
    b: int = 0

    @property
    def end(self) -> int:
        return self.addr + self.length

    @property
    def is_control_flow(self) -> bool:
        return self.kind in CONTROL_FLOW


def encode(kind: Opcode, a: int = 0, b: int = 0) -> bytes:
    """Encode one instruction to bytes."""
    out = bytes([kind.value])
    if kind in TARGET_OPS:
        out += _U32.pack(a)
    elif kind is Opcode.IJMP_TABLE:
        out += _U32.pack(a) + _U16.pack(b)
    elif kind is Opcode.BOUND_HINT:
        out += _U16.pack(a)
    elif kind is Opcode.ALU:
        out += _U16.pack(a & 0xFFFF)  # payload, ignored by analysis
    return out

