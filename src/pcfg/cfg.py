"""The control flow graph model.

A graph holds basic blocks keyed by start address, a set of candidate
block start addresses whose ends are not yet resolved, a set of typed
edges, and function entry labels. Blocks are half-open address ranges
[start, end) containing at most one control flow instruction, which, if
present, is the final instruction of the range and is recorded as the
block's terminator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import NamedTuple

from .errors import InvalidGraphError
from .image import Image
from .isa import Instruction, Opcode


class ReturnStatus(Enum):
    UNSET = "UNSET"
    RETURN = "RETURN"
    NORETURN = "NORETURN"


class EdgeKind(IntEnum):
    DIRECT = 0
    COND_TAKEN = 1
    COND_FALLTHROUGH = 2
    CALL = 3
    CALL_FALLTHROUGH = 4
    RETURN = 5
    INDIRECT = 6
    TAIL_CALL = 7


#: Edge kinds followed when walking a single function's blocks.
INTRA_EDGE_KINDS: frozenset[EdgeKind] = frozenset(
    {
        EdgeKind.DIRECT,
        EdgeKind.COND_TAKEN,
        EdgeKind.COND_FALLTHROUGH,
        EdgeKind.CALL_FALLTHROUGH,
        EdgeKind.INDIRECT,
    }
)

#: Edge kinds that mark their target as entered from another function.
INTER_EDGE_KINDS: frozenset[EdgeKind] = frozenset(
    {EdgeKind.CALL, EdgeKind.TAIL_CALL}
)


@dataclass(frozen=True)
class Block:
    """Address range [start, end). `terminator` is the decoded control
    flow instruction ending the block, or None for blocks that fall
    through into a successor (split prefixes, early endings)."""

    start: int
    end: int
    terminator: Instruction | None = None


class Edge(NamedTuple):
    source: int  # start address of the source block
    target: int  # start address of the target block or candidate
    kind: EdgeKind


@dataclass(frozen=True)
class FunctionEntry:
    entry: int
    name: str | None
    status: ReturnStatus
    seed: bool  # True when discovered from the symbol table


@dataclass
class Cfg:
    blocks: dict[int, Block] = field(default_factory=dict)
    candidates: set[int] = field(default_factory=set)
    edges: set[Edge] = field(default_factory=set)
    entries: dict[int, FunctionEntry] = field(default_factory=dict)

    def clone(self) -> "Cfg":
        return Cfg(
            dict(self.blocks), set(self.candidates), set(self.edges), dict(self.entries)
        )


@dataclass(frozen=True)
class Violation:
    code: str
    addrs: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        where = ", ".join(f"0x{a:x}" for a in self.addrs)
        return f"{self.code}({where}): {self.message}"


_DIRECT_TERMS = frozenset({Opcode.JMP_DIRECT, Opcode.JCC_DIRECT})


def validate(g: Cfg) -> list[Violation]:
    """Check every structural invariant; empty result means a valid graph."""
    out: list[Violation] = []
    starts_seen: dict[int, int] = {}
    ends_seen: dict[int, int] = {}
    for key, b in g.blocks.items():
        if key != b.start:
            out.append(
                Violation("block-key-mismatch", (key, b.start), "block keyed by wrong start")
            )
        starts_seen[b.start] = starts_seen.get(b.start, 0) + 1
        ends_seen[b.end] = ends_seen.get(b.end, 0) + 1
        if b.start >= b.end:
            out.append(Violation("empty-block", (b.start, b.end), "start must precede end"))
    for addr, n in sorted(starts_seen.items()):
        if n > 1:
            out.append(
                Violation("duplicate-block-start", (addr,), f"{n} blocks start here")
            )
    for addr, n in sorted(ends_seen.items()):
        if n > 1:
            out.append(Violation("duplicate-block-end", (addr,), f"{n} blocks end here"))
    starts = set(starts_seen)
    for c in sorted(g.candidates):
        if c in starts:
            out.append(
                Violation("candidate-shadows-block", (c,), "candidate at a block start")
            )
    for e in sorted(g.edges, key=lambda e: (e.source, e.target, e.kind)):
        src = g.blocks.get(e.source)
        if src is None or src.start != e.source:
            out.append(
                Violation("dangling-edge-source", (e.source, e.target), "no source block")
            )
            continue
        if e.target not in starts and e.target not in g.candidates:
            out.append(
                Violation(
                    "dangling-edge-target", (e.source, e.target), "no target block or candidate"
                )
            )
        if e.kind is EdgeKind.CALL_FALLTHROUGH and e.target != src.end:
            out.append(
                Violation(
                    "bad-call-fallthrough",
                    (e.source, e.target),
                    "fall-through target must be the source block end",
                )
            )
        term = src.terminator.kind if src.terminator else None
        if e.kind in (EdgeKind.DIRECT, EdgeKind.TAIL_CALL) and term not in _DIRECT_TERMS:
            out.append(
                Violation(
                    "bad-edge-kind", (e.source, e.target), f"{e.kind.name} from {term} block"
                )
            )
        if e.kind is EdgeKind.CALL and term is not Opcode.CALL:
            out.append(
                Violation(
                    "bad-edge-kind", (e.source, e.target), f"CALL edge from {term} block"
                )
            )
    for key, f in sorted(g.entries.items()):
        if key != f.entry:
            out.append(
                Violation("entry-key-mismatch", (key, f.entry), "entry keyed by wrong address")
            )
        if f.entry not in starts and f.entry not in g.candidates:
            out.append(
                Violation("entry-not-in-graph", (f.entry,), "no block or candidate at entry")
            )
    return out


def _require_valid(g: Cfg) -> None:
    violations = validate(g)
    if violations:
        raise InvalidGraphError(violations)


def _coverage(blocks) -> list[tuple[int, int]]:
    """Merge block ranges into maximal disjoint intervals."""
    merged: list[tuple[int, int]] = []
    for b in sorted(blocks, key=lambda b: (b.start, b.end)):
        if merged and b.start <= merged[-1][1]:
            lo, hi = merged[-1]
            merged[-1] = (lo, max(hi, b.end))
        else:
            merged.append((b.start, b.end))
    return merged


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> bool:
    import bisect

    i = bisect.bisect_right(intervals, (lo, float("inf"))) - 1
    if i < 0:
        return False
    a, b = intervals[i]
    return a <= lo and hi <= b


def partial_order_le(g1: Cfg, g2: Cfg, image: Image) -> bool:
    """Whether `g2` contains at least the control flow elements of `g1`.

    Holds when g2 covers g1's addresses, preserves every g1 edge up to
    block-range adjustment (source end and target start are kept),
    refines each g1 block into a fall-through-connected chain, and keeps
    every function entry label.
    """
    del image  # both graphs must already be over the same image
    _require_valid(g1)
    _require_valid(g2)

    cover2 = _coverage(g2.blocks.values())
    for b in g1.blocks.values():
        if not _covered(cover2, b.start, b.end):
            return False

    edge_keys2 = set()
    for e in g2.edges:
        edge_keys2.add((g2.blocks[e.source].end, e.target))
    for e in g1.edges:
        if (g1.blocks[e.source].end, e.target) not in edge_keys2:
            return False

    links2 = {(e.source, e.target) for e in g2.edges}
    for b in g1.blocks.values():
        cur = g2.blocks.get(b.start)
        if cur is None:
            return False
        while cur.end < b.end:
            if (cur.start, cur.end) not in links2:
                return False
            nxt = g2.blocks.get(cur.end)
            if nxt is None:
                return False
            cur = nxt
        if cur.end != b.end:
            return False

    return all(a in g2.entries for a in g1.entries)


def canonical_serialize(g: Cfg) -> str:
    """Deterministic text form: equal graphs produce identical bytes."""
    _require_valid(g)
    lines: list[str] = []
    blocks = sorted(g.blocks.values(), key=lambda b: (b.start, b.end))
    lines.append(f"blocks {len(blocks)}")
    for b in blocks:
        lines.append(f"B 0x{b.start:x} 0x{b.end:x}")
    cands = sorted(g.candidates)
    lines.append(f"candidates {len(cands)}")
    for c in cands:
        lines.append(f"C 0x{c:x}")
    edges = sorted(g.edges, key=lambda e: (e.source, e.target, int(e.kind)))
    lines.append(f"edges {len(edges)}")
    for e in edges:
        lines.append(f"E 0x{e.source:x} 0x{e.target:x} {e.kind.name.lower()}")
    entries = sorted(g.entries.values(), key=lambda f: f.entry)
    lines.append(f"entries {len(entries)}")
    for f in entries:
        lines.append(f"F 0x{f.entry:x} {f.status.value} {int(f.seed)}")
    return "\n".join(lines) + "\n"


def to_dot(g: Cfg) -> str:
    """DOT export in canonical order."""
    _require_valid(g)
    lines = ["digraph cfg {", "  node [shape=box fontname=monospace];"]
    for b in sorted(g.blocks.values(), key=lambda b: (b.start, b.end)):
        term = b.terminator.kind.name.lower() if b.terminator else "fall"
        attrs = f'label="0x{b.start:x}..0x{b.end:x}\\n{term}"'
        if b.start in g.entries:
            f = g.entries[b.start]
            attrs += f' peripheries=2 xlabel="{f.status.value}"'
        lines.append(f'  "0x{b.start:x}" [{attrs}];')
    for c in sorted(g.candidates):
        lines.append(f'  "0x{c:x}" [label="0x{c:x}?" style=dashed];')
    for e in sorted(g.edges, key=lambda e: (e.source, e.target, int(e.kind))):
        lines.append(
            f'  "0x{e.source:x}" -> "0x{e.target:x}" [label="{e.kind.name.lower()}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(g: Cfg) -> dict:
    """JSON-ready dict mirroring the canonical sort order."""
    _require_valid(g)
    return {
        "blocks": [
            {
                "start": f"0x{b.start:x}",
                "end": f"0x{b.end:x}",
                "terminator": b.terminator.kind.name.lower() if b.terminator else None,
            }
            for b in sorted(g.blocks.values(), key=lambda b: (b.start, b.end))
        ],
        "candidates": [f"0x{c:x}" for c in sorted(g.candidates)],
        "edges": [
            {
                "source": f"0x{e.source:x}",
                "target": f"0x{e.target:x}",
                "kind": e.kind.name.lower(),
            }
            for e in sorted(g.edges, key=lambda e: (e.source, e.target, int(e.kind)))
        ],
        "entries": [
            {
                "entry": f"0x{f.entry:x}",
                "name": f.name,
                "status": f.status.value,
                "seed": f.seed,
            }
            for f in sorted(g.entries.values(), key=lambda f: f.entry)
        ],
    }
