"""Jump table target resolution.

An indirect table jump names a table base in the data section and a
declared bound. `refresh_table` owns the one rule both constructors
refresh a table by: its bound is the maximum of the declared bound, the
last bound-hint immediate found in each currently-known
intra-procedural direct predecessor block, and the bound of its last
read. Tables only grow: a table's targets depend on its base and bound
alone, so a refresh whose bound did not grow cannot add a target, and
the table is read only at its first refresh and when its bound grows.
Each read extends the last one, so the resolved set only ever grows and
any order of refreshes reaches the same fixed point. Reads past the
data section are clamped, and each clamped table gets one diagnostic
once construction has settled its bound; entries that do not land in
the text section are skipped. The registry records one descriptor per
table jump, so jumps that share a base each get their own targets, and
finalization trims each table whose effective extent overlaps the next
larger base.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable
from dataclasses import dataclass, field

from ._kernels import scan_block
from .image import Image

logger = logging.getLogger(__name__)


def read_table_entries(image: Image, base: int, bound: int) -> tuple[list[int | None], bool]:
    """Read up to `bound` 4-byte entries at `base`, clamped to the data
    section. Per index: the target address, or None when the entry does
    not point into the text section."""
    clamped = False
    if base < image.data_base or base > image.data_end:
        return [], True
    avail = (image.data_end - base) // 4
    n = bound
    if n > avail:
        n = avail
        clamped = True
    off = base - image.data_base
    out: list[int | None] = []
    for i in range(n):
        t = int.from_bytes(image.data[off + 4 * i : off + 4 * i + 4], "little")
        out.append(t if image.text_base <= t < image.text_end else None)
    return out, clamped


def last_bound_hint(image: Image, start: int, end: int) -> int | None:
    """Immediate of the last bound-hint instruction in the block range
    [start, end): the hint a scan from `start` stopped at `end` reports."""
    return scan_block(image.text, image.text_base, start, end)[6]


@dataclass(eq=False)
class TableDescriptor:
    base: int
    declared_bound: int
    jump_end: int  # end address of the indirect jump; stable across splits
    effective_bound: int = 0  # the bound of the last read
    final_bound: int | None = None
    #: resolved target per table index (None where skipped), as last
    #: read; lets finalization trim by index without touching the image
    #: again
    index_targets: list[int | None] = field(default_factory=list)
    clamped: bool = False
    #: whether `refresh_table` has read the table; the first refresh
    #: reads even at bound 0, so a base outside the data section is
    #: still flagged clamped
    read: bool = False

    @property
    def targets(self) -> set[int]:
        """The resolved targets: every in-text entry of the last read."""
        return {t for t in self.index_targets if t is not None}

    @property
    def settled_bound(self) -> int:
        """The bound finalization settled on, else the effective one."""
        return self.final_bound if self.final_bound is not None else self.effective_bound


def refresh_table(desc: TableDescriptor, image: Image, hints: Iterable[int]) -> list[int]:
    """Refresh `desc` at the largest of its declared bound, `hints` and
    the bound of its last read; returns the targets this refresh added,
    sorted. The first refresh always reads, which flags a clamped base;
    a later one reads only when the bound grew. Callers serialize access
    per descriptor."""
    bound = max(desc.declared_bound, desc.effective_bound, *hints)
    if desc.read and bound == desc.effective_bound:
        return []
    entries, clamped = read_table_entries(image, desc.base, bound)
    old = desc.index_targets
    new = {t for t in entries[len(old) :] if t is not None}.difference(old)
    desc.effective_bound = bound
    desc.index_targets = entries
    desc.clamped = clamped
    desc.read = True
    return sorted(new)


class TableRegistry:
    """One descriptor per table jump, keyed by the jump's end; insertion
    is single-winner."""

    def __init__(self) -> None:
        self._by_jump: dict[int, TableDescriptor] = {}

    def get_or_create(self, base: int, declared: int, jump_end: int) -> TableDescriptor:
        desc = TableDescriptor(base, declared, jump_end)
        return self._by_jump.setdefault(jump_end, desc)

    def get(self, jump_end: int) -> TableDescriptor | None:
        return self._by_jump.get(jump_end)

    def sorted_descriptors(self) -> list[TableDescriptor]:
        """The descriptors by base, then by jump end."""
        return sorted(self._by_jump.values(), key=lambda d: (d.base, d.jump_end))

    def dump(self) -> list[dict]:
        """Registry summary sorted by base, then jump end, for the JSON
        export."""
        out = []
        for d in self.sorted_descriptors():
            out.append(
                {
                    "base": f"0x{d.base:x}",
                    "jump_end": f"0x{d.jump_end:x}",
                    "declared_bound": d.declared_bound,
                    "effective_bound": d.effective_bound,
                    "final_bound": d.settled_bound,
                }
            )
        return out


def log_clamped_tables(registry: TableRegistry, image: Image) -> int:
    """Log one warning per table whose reads were clamped to the data
    section, with its settled bound; returns how many there are."""
    clamped = [d for d in registry.sorted_descriptors() if d.clamped]
    for d in clamped:
        if d.base < image.data_base or d.base > image.data_end:
            logger.warning("table base 0x%x outside data section", d.base)
        else:
            avail = (image.data_end - d.base) // 4
            logger.warning(
                "table at 0x%x: %d entries requested, %d available",
                d.base,
                d.effective_bound,
                avail,
            )
    return len(clamped)

