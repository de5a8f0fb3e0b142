"""Jump table target resolution.

An indirect table jump names a table base in the data section and a
declared bound. The effective bound is the maximum of the declared
bound and the last bound-hint immediate found in each currently-known
intra-procedural direct predecessor block, so targets discovered along
different paths accumulate as a union and the resolved set only ever
grows. Reads past the data section are clamped with a diagnostic;
entries that do not land in the text section are skipped. The registry
records one descriptor per table base so finalization can detect tables
whose effective extent overlaps the next table and trim them.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field

from .image import Image
from .isa import Opcode, decode_at

logger = logging.getLogger(__name__)


def read_table_entries(image: Image, base: int, bound: int) -> tuple[list[int | None], bool]:
    """Read up to `bound` 4-byte entries at `base`, clamped to the data
    section. Per index: the target address, or None when the entry does
    not point into the text section."""
    clamped = False
    if base < image.data_base or base > image.data_end:
        logger.warning("table base 0x%x outside data section", base)
        return [], True
    avail = (image.data_end - base) // 4
    n = bound
    if n > avail:
        logger.warning(
            "table at 0x%x: %d entries requested, %d available", base, bound, avail
        )
        n = avail
        clamped = True
    off = base - image.data_base
    out: list[int | None] = []
    for i in range(n):
        t = int.from_bytes(image.data[off + 4 * i : off + 4 * i + 4], "little")
        out.append(t if image.text_base <= t < image.text_end else None)
    return out, clamped


def read_table_targets(image: Image, base: int, bound: int) -> tuple[list[int], bool]:
    """Distinct in-text targets of the first `bound` table entries, sorted."""
    entries, clamped = read_table_entries(image, base, bound)
    return sorted({t for t in entries if t is not None}), clamped


def last_bound_hint(image: Image, start: int, end: int) -> int | None:
    """Immediate of the last bound-hint instruction in [start, end)."""
    addr = start
    hint = None
    while addr < end:
        ins = decode_at(image.text, image.text_base, addr)
        if ins.kind is Opcode.BOUND_HINT:
            hint = ins.a
        addr += ins.length
    return hint


def effective_bound(declared: int, hints) -> int:
    return max([declared, *hints])


@dataclass(eq=False)
class TableDescriptor:
    base: int
    declared_bound: int
    jump_end: int  # end address of the indirect jump; stable across splits
    effective_bound: int = 0
    final_bound: int | None = None
    owner_block: int | None = None
    targets: set[int] = field(default_factory=set)
    #: resolved target per table index (None where skipped); lets
    #: finalization trim by index without touching the image again
    index_targets: list[int | None] = field(default_factory=list)
    interested: set[int] = field(default_factory=set)  # function entries
    clamped: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


def update_descriptor(desc: TableDescriptor, image: Image, bound: int) -> set[int]:
    """Fold one analysis pass into the descriptor: bounds and targets
    accumulate as a union, so the resolved set never shrinks. Returns the
    targets this pass added. Callers serialize access per descriptor."""
    bound = max(bound, desc.effective_bound)
    entries, clamped = read_table_entries(image, desc.base, bound)
    found = {t for t in entries if t is not None}
    new = found - desc.targets
    desc.targets |= found
    desc.effective_bound = bound
    desc.index_targets = entries
    desc.clamped |= clamped
    return new


class TableRegistry:
    """One descriptor per table base; insertion is single-winner."""

    def __init__(self) -> None:
        self._by_base: dict[int, TableDescriptor] = {}

    def get_or_create(self, base: int, declared: int, jump_end: int) -> TableDescriptor:
        desc = TableDescriptor(base, declared, jump_end)
        return self._by_base.setdefault(base, desc)

    def get(self, base: int) -> TableDescriptor | None:
        return self._by_base.get(base)

    def sorted_descriptors(self) -> list[TableDescriptor]:
        return [self._by_base[b] for b in sorted(self._by_base)]

    def __len__(self) -> int:
        return len(self._by_base)

    def dump(self) -> list[dict]:
        """Registry summary sorted by base, for the JSON export."""
        out = []
        for d in self.sorted_descriptors():
            final = d.final_bound if d.final_bound is not None else d.effective_bound
            out.append(
                {
                    "base": f"0x{d.base:x}",
                    "declared_bound": d.declared_bound,
                    "effective_bound": d.effective_bound,
                    "final_bound": final,
                }
            )
        return out


def refresh_tables(state, image: Image, function) -> bool:
    """Re-run target resolution for every table jump this function has
    encountered; returns whether any table gained targets."""
    del image
    changed = False
    for desc in sorted(function.table_descs, key=lambda d: d.base):
        if state.refresh_descriptor(desc):
            changed = True
    return changed
