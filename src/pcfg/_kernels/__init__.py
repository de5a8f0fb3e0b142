"""The scan kernel.

`scan_block` is the hot loop of control flow traversal: decode forward
from an address until the first control flow instruction and report its
end address, kind and operands, plus the two facts about the walked
range that tail-call classification and jump-table bounds need, so the
engine need not decode a scanned range a second time. Both constructors
and the image's `contains_cfi` scan through this one pure-Python
implementation.
"""

from __future__ import annotations

# recorded by benchmark runs so that their numbers name the kernel
KERNEL_NAME = "pure"

#: (end_addr, opcode, a, b, teardown, hint_at, hint); see `scan_block`
ScanResult = tuple[int, int, int, int, bool, int, int | None]

# Flat per-opcode tables indexed by the raw byte. Unknown opcodes scan
# as one-byte no-ops; so do known opcodes with truncated operands.
_LENGTH = [1] * 256
_IS_CF = [False] * 256

_LENGTH[0x00] = 1  # nop
_LENGTH[0x01] = 3  # alu
_LENGTH[0x02] = 5  # jmp
_LENGTH[0x03] = 5  # jcc
_LENGTH[0x04] = 5  # call
_LENGTH[0x05] = 1  # ret
_LENGTH[0x06] = 7  # table jump
_LENGTH[0x07] = 1  # opaque jump
_LENGTH[0x08] = 1  # halt
_LENGTH[0x09] = 1  # frame teardown
_LENGTH[0x0A] = 3  # bound hint

for _op in (0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08):
    _IS_CF[_op] = True


def scan_block(text: bytes, text_base: int, addr: int) -> ScanResult:
    """Scan forward from `addr` to the first control flow instruction.

    Returns (end_addr, opcode, a, b, teardown, hint_at, hint) where
    end_addr is the address just after the instruction. If the scan
    reaches the end of text without finding one, returns end_addr =
    text_end, opcode -1 and operands 0. The last three describe the
    range [addr, end_addr) the scan walked: whether it holds a frame
    teardown, and the address and immediate of its last bound hint
    (-1 and None when it holds none). An `addr` below the text walks
    nothing.
    """
    off = addr - text_base
    n = len(text)
    if off < 0:
        return text_base + n, -1, 0, 0, False, -1, None
    end, kind, a, b = text_base + n, -1, 0, 0
    teardown = False
    hint_off = -1
    while off < n:
        op = text[off]
        if op > 0x0A:
            off += 1
            continue
        ln = _LENGTH[op]
        if off + ln > n:
            off += 1
            continue
        if _IS_CF[op]:
            end, kind = text_base + off + ln, op
            if op in (0x02, 0x03, 0x04, 0x06):
                a = int.from_bytes(text[off + 1 : off + 5], "little")
            if op == 0x06:
                b = int.from_bytes(text[off + 5 : off + 7], "little")
            break
        if op == 0x09:
            teardown = True
        elif op == 0x0A:
            hint_off = off
        off += ln
    if hint_off < 0:
        return end, kind, a, b, teardown, -1, None
    hint = int.from_bytes(text[hint_off + 1 : hint_off + 3], "little")
    return end, kind, a, b, teardown, text_base + hint_off, hint


def contains_cfi_scan(text: bytes, text_base: int, lo: int, hi: int) -> bool:
    """True iff a control flow instruction starts and ends within [lo, hi)."""
    off = lo - text_base
    limit = hi - text_base
    n = len(text)
    if off < 0:
        return False
    while off < limit and off < n:
        op = text[off]
        if op > 0x0A:
            off += 1
            continue
        ln = _LENGTH[op]
        if off + ln > n:
            off += 1
            continue
        if _IS_CF[op] and off + ln <= limit:
            return True
        off += ln
    return False
