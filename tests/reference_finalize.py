"""A reference finalization, written straight from the rules in the
`pcfg.finalize` module docstring and kept slow on purpose.

Each round recomputes every function boundary and judges every edge
against one snapshot of the graph, and every unreachable-code sweep
walks the whole graph. `pcfg.finalize.finalize_details` skips the work
that cannot change a result; the tests hold it to this reference.
"""

from __future__ import annotations

from pcfg.cfg import INTRA_EDGE_KINDS, Cfg, Edge, EdgeKind
from pcfg.jumptables import TableRegistry

_CALLISH = (EdgeKind.CALL, EdgeKind.TAIL_CALL)


def _trim(g: Cfg, registry: TableRegistry) -> None:
    """Cut each table that overlaps the next larger table base back to
    that base and drop the indirect edges only the cut entries produced."""
    ends = {b.end: b.start for b in g.blocks.values()}
    descs = registry.sorted_descriptors()
    for desc in descs:
        owner = ends.get(desc.jump_end)
        nxt = min((d.base for d in descs if d.base > desc.base), default=None)
        extent = desc.base + 4 * desc.effective_bound
        if nxt is None or extent <= nxt or owner is None:
            if desc.final_bound is None:
                desc.final_bound = desc.effective_bound
            continue
        new_bound = (nxt - desc.base) // 4
        kept = {t for t in desc.index_targets[:new_bound] if t is not None}
        for t in desc.index_targets[new_bound:]:
            if t is not None and t not in kept:
                g.edges.discard(Edge(owner, t, EdgeKind.INDIRECT))
        desc.final_bound = new_bound


def _out_edges(g: Cfg) -> dict[int, list[Edge]]:
    out: dict[int, list[Edge]] = {}
    for e in g.edges:
        out.setdefault(e.source, []).append(e)
    return out


def _sweep(g: Cfg) -> bool:
    """Drop every block and candidate no entry reaches over any edge,
    and every edge that touches one; returns whether any was dropped."""
    out = _out_edges(g)
    seen = set(g.entries)
    work = list(seen)
    while work:
        for e in out.get(work.pop(), ()):
            if e.target not in seen:
                seen.add(e.target)
                work.append(e.target)
    dead = (set(g.blocks) | g.candidates) - seen
    for n in dead:
        g.blocks.pop(n, None)
    g.candidates -= dead
    g.edges = {e for e in g.edges if e.source not in dead and e.target not in dead}
    return bool(dead)


def _boundary(g: Cfg, out: dict[int, list[Edge]], entry: int) -> set[int]:
    """The blocks the entry reaches over intra-procedural edges."""
    if entry not in g.blocks:
        return set()
    blocks = {entry}
    work = [entry]
    while work:
        for e in out.get(work.pop(), ()):
            if e.kind in INTRA_EDGE_KINDS and e.target in g.blocks and e.target not in blocks:
                blocks.add(e.target)
                work.append(e.target)
    return blocks


def _correction_round(g: Cfg, flipped: set[tuple[int, int]]) -> bool:
    """Judge every unflipped tail call against one snapshot, lowest rule
    first, then apply the flips; returns whether any edge flipped."""
    snapshot = frozenset(g.edges)
    out = _out_edges(g)
    boundaries = [_boundary(g, out, entry) for entry in sorted(g.entries)]
    incoming: dict[int, list[Edge]] = {}
    for e in snapshot:
        incoming.setdefault(e.target, []).append(e)
    flips: list[tuple[Edge, EdgeKind]] = []
    dropped: list[int] = []
    for e in sorted(snapshot):
        if (e.source, e.target) in flipped or e.kind is not EdgeKind.TAIL_CALL:
            continue
        # rule 2: a tail call within its own function is a branch
        if any(e.source in b and e.target in b for b in boundaries):
            flips.append((e, EdgeKind.DIRECT))
        # rule 3: a tail call that is its target's only in-edge
        elif len(incoming[e.target]) == 1:
            flips.append((e, EdgeKind.DIRECT))
            entry = g.entries.get(e.target)
            if entry is not None and not entry.seed:
                dropped.append(e.target)
    for e, kind in flips:
        g.edges.remove(e)
        g.edges.add(Edge(e.source, e.target, kind))
        flipped.add((e.source, e.target))
    for addr in dropped:
        g.entries.pop(addr, None)
    return bool(flips)


def _prune(g: Cfg) -> None:
    """Drop heuristic entries no call-like edge reaches, and the code
    only they reached, until neither changes."""
    while True:
        called = {e.target for e in g.edges if e.kind in _CALLISH}
        orphans = [a for a, f in g.entries.items() if not f.seed and a not in called]
        for a in orphans:
            del g.entries[a]
        if not _sweep(g) and not orphans:
            return


def reference_finalize(g: Cfg, registry: TableRegistry) -> tuple[int, int]:
    """Finalize `g` in place; returns (flips, correction rounds)."""
    _trim(g, registry)
    _sweep(g)
    # rule 1: a plain branch into an entry is a tail call; not a flip
    g.edges = {
        Edge(e.source, e.target, EdgeKind.TAIL_CALL)
        if e.kind is EdgeKind.DIRECT and e.target in g.entries
        else e
        for e in g.edges
    }
    flipped: set[tuple[int, int]] = set()
    rounds = 1
    while _correction_round(g, flipped):
        rounds += 1
    _prune(g)
    return len(flipped), rounds
