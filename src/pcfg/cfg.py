"""The control flow graph model.

A graph holds basic blocks keyed by start address, a set of candidate
block start addresses whose ends are not yet resolved, a set of typed
edges, and function entry labels. Blocks are half-open address ranges
[start, end) containing at most one control flow instruction, which, if
present, is the final instruction of the range and is recorded as the
block's terminator. Blocks, edges and function entries are named
tuples: immutable, hashable values that are cheap to build. The writers
validate the graph they are handed.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import NamedTuple

from .errors import InvalidGraphError
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


#: The members of EdgeKind and their lower-case names, indexed by value,
#: so that writers and the engine's export look kinds up per edge
#: without an enum call.
EDGE_KINDS: tuple[EdgeKind, ...] = tuple(EdgeKind)
EDGE_KIND_NAMES: tuple[str, ...] = tuple(k.name.lower() for k in EdgeKind)

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

class Block(NamedTuple):
    """Address range [start, end). `terminator` is the decoded control
    flow instruction ending the block, or None for blocks that fall
    through into a successor (split prefixes, early endings)."""

    start: int
    end: int
    terminator: Instruction | None = None


class Edge(NamedTuple):
    """Edges sort canonically in their natural tuple order: source,
    target, then the kind's integer value."""

    source: int  # start address of the source block
    target: int  # start address of the target block or candidate
    kind: EdgeKind


class FunctionEntry(NamedTuple):
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
# members bound once: each enum class attribute lookup costs ~0.1 us, and
# validate looks kinds up per edge
_BRANCH_EDGES = frozenset({EdgeKind.DIRECT, EdgeKind.TAIL_CALL})
_CALL_EDGE = EdgeKind.CALL
_CALL_FALLTHROUGH_EDGE = EdgeKind.CALL_FALLTHROUGH
_CALL_TERM = Opcode.CALL
#: Each status's text, read per entry by the writer without an enum
#: property call.
_STATUS_TEXT: dict[ReturnStatus, str] = {s: s.value for s in ReturnStatus}


def _name(term: Opcode | None) -> str:
    # an f-string formats an IntEnum member as its value: name it
    return term.name if term is not None else "unterminated"


def _repeats(code: str, values, what: str) -> list[Violation]:
    """A violation per address that occurs more than once in `values`, in
    address order."""
    counts = Counter(values)
    return [
        Violation(code, (a,), f"{n} blocks {what} here")
        for a, n in sorted(counts.items())
        if n > 1
    ]


def validate(g: Cfg) -> list[Violation]:
    """Check every structural invariant; empty result means a valid graph."""
    out: list[Violation] = []
    blocks = g.blocks
    mismatched = False
    for key, b in blocks.items():
        if key != b.start:
            mismatched = True
            out.append(
                Violation("block-key-mismatch", (key, b.start), "block keyed by wrong start")
            )
        if b.start >= b.end:
            out.append(Violation("empty-block", (b.start, b.end), "start must precede end"))
    # keys are unique, so without a mismatched key they are the starts;
    # an address set shorter than the blocks has a repeat, and only then
    # are the addresses counted
    starts = {b.start for b in blocks.values()} if mismatched else blocks
    if len(starts) < len(blocks):
        out.extend(
            _repeats("duplicate-block-start", (b.start for b in blocks.values()), "start")
        )
    if len({b.end for b in blocks.values()}) < len(blocks):
        out.extend(_repeats("duplicate-block-end", (b.end for b in blocks.values()), "end"))
    for c in sorted(g.candidates):
        if c in starts:
            out.append(
                Violation("candidate-shadows-block", (c,), "candidate at a block start")
            )
    # edges are walked in set order and only their violations are sorted:
    # a stable sort by edge yields them as a walk in edge order would
    edge_out: list[tuple[Edge, Violation]] = []
    for e in g.edges:
        src = g.blocks.get(e.source)
        if src is None or src.start != e.source:
            v = Violation("dangling-edge-source", (e.source, e.target), "no source block")
            edge_out.append((e, v))
            continue
        if e.target not in starts and e.target not in g.candidates:
            v = Violation(
                "dangling-edge-target", (e.source, e.target), "no target block or candidate"
            )
            edge_out.append((e, v))
        if e.kind is _CALL_FALLTHROUGH_EDGE and e.target != src.end:
            v = Violation(
                "bad-call-fallthrough",
                (e.source, e.target),
                "fall-through target must be the source block end",
            )
            edge_out.append((e, v))
        term = src.terminator.kind if src.terminator else None
        if e.kind in _BRANCH_EDGES and term not in _DIRECT_TERMS:
            v = Violation(
                "bad-edge-kind", (e.source, e.target), f"{e.kind.name} from {_name(term)} block"
            )
            edge_out.append((e, v))
        if e.kind is _CALL_EDGE and term is not _CALL_TERM:
            v = Violation(
                "bad-edge-kind", (e.source, e.target), f"CALL edge from {_name(term)} block"
            )
            edge_out.append((e, v))
    edge_out.sort(key=lambda item: item[0])
    out.extend(v for _, v in edge_out)
    for key in sorted(g.entries):
        f = g.entries[key]
        if key != f.entry:
            out.append(
                Violation("entry-key-mismatch", (key, f.entry), "entry keyed by wrong address")
            )
        if f.entry not in starts and f.entry not in g.candidates:
            out.append(
                Violation("entry-not-in-graph", (f.entry,), "no block or candidate at entry")
            )
    return out


def require_valid(g: Cfg) -> None:
    """Raise `InvalidGraphError` listing the violations of an invalid graph."""
    violations = validate(g)
    if violations:
        raise InvalidGraphError(violations)


def coalesce_ranges(ranges) -> list[tuple[int, int]]:
    """Merge [lo, hi) intervals that touch or overlap; sorted output."""
    merged: list[list[int]] = []
    for lo, hi in sorted(ranges):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> bool:
    i = bisect.bisect_right(intervals, (lo, float("inf"))) - 1
    if i < 0:
        return False
    a, b = intervals[i]
    return a <= lo and hi <= b


def partial_order_le(g1: Cfg, g2: Cfg) -> bool:
    """Whether `g2` contains at least the control flow elements of `g1`.

    Holds when g2 covers g1's addresses, preserves every g1 edge up to
    block-range adjustment (source end and target start are kept),
    refines each g1 block into a fall-through-connected chain, and keeps
    every function entry label. Both graphs must be over the same image.
    """
    require_valid(g1)
    require_valid(g2)

    cover2 = coalesce_ranges((b.start, b.end) for b in g2.blocks.values())
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


def _section(head: str, lines: list[str]) -> str:
    """One section of a writer's text: `head`, then `lines`, each line
    ending in a newline. `lines` is the caller's fresh list, and is
    extended in place rather than copied."""
    lines.insert(0, head)
    lines.append("")
    return "\n".join(lines)


def canonical_serialize(g: Cfg) -> str:
    """Deterministic text form: equal graphs produce identical bytes. Each
    section is joined as it is written, so only one section's lines are
    alive at a time."""
    require_valid(g)
    # a valid graph keys each block by its start, and no two blocks share
    # one, so the sorted keys give the (start, end) order
    blocks = g.blocks
    names = EDGE_KIND_NAMES
    status_text = _STATUS_TEXT
    sections = [
        _section(
            f"blocks {len(blocks)}",
            [f"B 0x{start:x} 0x{blocks[start].end:x}" for start in sorted(blocks)],
        ),
        _section(
            f"candidates {len(g.candidates)}", [f"C 0x{c:x}" for c in sorted(g.candidates)]
        ),
        _section(
            f"edges {len(g.edges)}",
            [f"E 0x{source:x} 0x{target:x} {names[kind]}" for source, target, kind in sorted(g.edges)],
        ),
        _section(
            f"entries {len(g.entries)}",
            [
                f"F 0x{addr:x} {status_text[f.status]} {int(f.seed)}"
                for addr, f in sorted(g.entries.items())
            ],
        ),
    ]
    return "".join(sections)


def to_dot(g: Cfg) -> str:
    """DOT export in canonical order, its nodes and its edges each joined
    as they are written, like `canonical_serialize`."""
    require_valid(g)
    nodes = []
    for b in sorted(g.blocks.values(), key=lambda b: (b.start, b.end)):
        term = b.terminator.kind.name.lower() if b.terminator else "fall"
        attrs = f'label="0x{b.start:x}..0x{b.end:x}\\n{term}"'
        if b.start in g.entries:
            f = g.entries[b.start]
            attrs += f' peripheries=2 xlabel="{f.status.value}"'
        nodes.append(f'  "0x{b.start:x}" [{attrs}];')
    nodes += [f'  "0x{c:x}" [label="0x{c:x}?" style=dashed];' for c in sorted(g.candidates)]
    sections = [_section("digraph cfg {\n  node [shape=box fontname=monospace];", nodes)]
    del nodes
    edges = [
        f'  "0x{source:x}" -> "0x{target:x}" [label="{EDGE_KIND_NAMES[kind]}"];'
        for source, target, kind in sorted(g.edges)
    ]
    edges.append("}\n")
    sections.append("\n".join(edges))
    return "".join(sections)


def to_json_dict(g: Cfg) -> dict:
    """JSON-ready dict mirroring the canonical sort order."""
    require_valid(g)
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
                "source": f"0x{source:x}",
                "target": f"0x{target:x}",
                "kind": EDGE_KIND_NAMES[kind],
            }
            for source, target, kind in sorted(g.edges)
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
