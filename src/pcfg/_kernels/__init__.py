"""The scan kernel.

`scan_block` is the package's only decoder and the hot loop of control
flow traversal: decode forward from an address, up to an optional stop,
until the first control flow instruction, and report its end address,
kind and operands, plus the two facts about the walked range that tail
calls labelled on finished blocks and jump-table bounds need. Every
question about a byte range is one field of this scan: block ends,
terminators and frame teardown in both constructors, and
`jumptables.last_bound_hint`. Its tables come from `pcfg.isa`.
"""

from __future__ import annotations

from ..isa import CONTROL_FLOW, LENGTHS

# recorded by benchmark runs so that their numbers name the kernel
KERNEL_NAME = "pure"

#: (end_addr, opcode, a, b, teardown, hint_at, hint); see `scan_block`
ScanResult = tuple[int, int, int, int, bool, int, int | None]

# Flat per-opcode tables indexed by the raw byte. Unknown opcodes scan
# as one-byte no-ops; so do known opcodes with truncated operands.
_LENGTH = [1] * 256
_IS_CF = [False] * 256
for _op, _ln in LENGTHS.items():
    _LENGTH[_op] = _ln
for _op in CONTROL_FLOW:
    _IS_CF[_op] = True


def scan_block(
    text: bytes, text_base: int, addr: int, stop: int | None = None
) -> ScanResult:
    """Scan forward from `addr` to the first control flow instruction
    that starts before `stop` (the end of text when None).

    Returns (end_addr, opcode, a, b, teardown, hint_at, hint) where
    end_addr is the address just after the instruction. An instruction
    that starts before `stop` is decoded whole even where it runs past
    `stop`; only the end of text truncates one. If no control flow
    instruction starts before the stop, returns opcode -1, operands 0
    and end_addr = the stop, at most text end. The last three describe
    the range the scan walked: whether it holds a frame teardown, and
    the address and immediate of its last bound hint (-1 and None when
    it holds none). An `addr` below the text walks nothing.
    """
    off = addr - text_base
    n = len(text)
    limit = n if stop is None or stop - text_base > n else stop - text_base
    if off < 0:
        return text_base + limit, -1, 0, 0, False, -1, None
    end, kind, a, b = text_base + limit, -1, 0, 0
    teardown = False
    hint_off = -1
    while off < limit:
        op = text[off]
        if op > 0x0A:  # above Opcode.BOUND_HINT: undefined, a one-byte no-op
            off += 1
            continue
        ln = _LENGTH[op]
        if off + ln > n:
            off += 1
            continue
        if _IS_CF[op]:
            end, kind = text_base + off + ln, op
            # JMP_DIRECT, JCC_DIRECT, CALL, IJMP_TABLE
            if op in (0x02, 0x03, 0x04, 0x06):
                a = int.from_bytes(text[off + 1 : off + 5], "little")
            if op == 0x06:  # IJMP_TABLE
                b = int.from_bytes(text[off + 5 : off + 7], "little")
            break
        if op == 0x09:  # FRAME_TEARDOWN
            teardown = True
        elif op == 0x0A:  # BOUND_HINT
            hint_off = off
        off += ln
    if hint_off < 0:
        return end, kind, a, b, teardown, -1, None
    hint = int.from_bytes(text[hint_off + 1 : hint_off + 3], "little")
    return end, kind, a, b, teardown, text_base + hint_off, hint
