"""CFG finalization: the decreasing phase after traversal quiesces.

Removes over-approximated jump-table edges by trimming tables whose
effective extent overlaps the next table, then alternates function
boundary assignment with tail-call correction until a fixed point, then
prunes heuristic function entries with no incoming inter-procedural
edge. No new CFG elements are added. Finalization rewrites the graph it
is handed, which its caller owns. Every rule either walks elements in
a canonical order or judges them all against the same graph, so the
result is independent of how the traversal phase was scheduled.

Tail-call correction applies three rules to each branch edge, lowest
rule wins, judged against a per-iteration snapshot:

1. a plain branch whose target has an incoming call-like edge becomes a
   tail call;
2. a tail call whose target lies inside the branching function's own
   boundary becomes a plain branch;
3. a tail call that is its target's only incoming edge becomes a plain
   branch, and the target's entry label is dropped unless it came from
   the symbol table (outlined blocks fold back into their parent).

Each edge flips at most once per finalization, which bounds the loop.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterable
from dataclasses import dataclass

from .cfg import (
    Cfg,
    Edge,
    EdgeKind,
    INTRA_EDGE_KINDS,
    validate,
)
from .errors import InternalError, InvalidGraphError
from .jumptables import TableRegistry

_CALLISH = (EdgeKind.CALL, EdgeKind.TAIL_CALL)
# bound once: an enum class attribute lookup costs ~0.1 us per edge
_DIRECT = EdgeKind.DIRECT
_TAIL_CALL = EdgeKind.TAIL_CALL


@dataclass
class FunctionBoundary:
    entry: int
    blocks: set[int]


@dataclass
class FinalizeStats:
    flips: int = 0
    iterations: int = 0


def _drop_unreachable(g: Cfg) -> bool:
    """Drop every block and candidate no entry reaches, and every edge
    that loses an end with them; returns whether anything was dropped."""
    adj: dict[int, list[int]] = {}
    for e in g.edges:
        adj.setdefault(e.source, []).append(e.target)
    seen = set(g.entries)
    work = deque(g.entries)
    while work:
        cur = work.popleft()
        if cur not in g.blocks:
            continue
        for tgt in adj.get(cur, ()):
            if tgt not in seen:
                seen.add(tgt)
                work.append(tgt)
    dead = [s for s in g.blocks if s not in seen]
    lost = g.candidates - seen
    if not (dead or lost):
        return False
    for s in dead:
        del g.blocks[s]
    g.candidates -= lost
    g.edges = {
        e
        for e in g.edges
        if e.source in g.blocks and (e.target in g.blocks or e.target in g.candidates)
    }
    return True


def trim_overlapping_tables(g: Cfg, registry: TableRegistry) -> None:
    """Cut each table whose effective extent overlaps the next table's
    base back to that base, drop the indirect edges only the cut entries
    produced, and sweep away the code they alone reached."""
    ends = {b.end: b.start for b in g.blocks.values()}
    descs = registry.sorted_descriptors()
    drop: set[Edge] = set()
    for i, desc in enumerate(descs):
        owner = ends.get(desc.jump_end)
        nxt = descs[i + 1] if i + 1 < len(descs) else None
        extent = desc.base + 4 * desc.effective_bound
        if nxt is None or extent <= nxt.base or owner is None:
            if desc.final_bound is None:
                desc.final_bound = desc.effective_bound
            continue
        new_bound = (nxt.base - desc.base) // 4
        kept = {t for t in desc.index_targets[:new_bound] if t is not None}
        cut = {t for t in desc.index_targets[new_bound:] if t is not None} - kept
        drop.update(Edge(owner, t, EdgeKind.INDIRECT) for t in cut)
        desc.final_bound = new_bound
    drop &= g.edges
    if drop:
        g.edges -= drop
        _drop_unreachable(g)


def assign_function_boundaries(
    g: Cfg, prior: list[FunctionBoundary] | None = None, sources: Iterable[int] = ()
) -> list[FunctionBoundary]:
    """One boundary per entry: the blocks reachable from the entry over
    intra-procedural edges. Shared blocks appear in several boundaries.

    Given `prior`, the boundaries of an earlier version of `g` that
    differs from it only in the kinds of edges leaving `sources` and in
    removed entries, only the boundaries that contain one of `sources`
    are walked again: a walk that never reaches a changed edge's source
    cannot see the change."""
    adj: dict[int, list[int]] = {}
    for e in g.edges:
        if e.kind in INTRA_EDGE_KINDS:
            adj.setdefault(e.source, []).append(e.target)

    def walk(entry: int) -> FunctionBoundary:
        blocks: set[int] = set()
        if entry in g.blocks:
            work = deque([entry])
            blocks.add(entry)
            while work:
                cur = work.popleft()
                for tgt in adj.get(cur, ()):
                    if tgt in g.blocks and tgt not in blocks:
                        blocks.add(tgt)
                        work.append(tgt)
        return FunctionBoundary(entry, blocks)

    if prior is None:
        return [walk(entry) for entry in sorted(g.entries)]
    changed = set(sources)
    return [
        fb if changed.isdisjoint(fb.blocks) else walk(fb.entry)
        for fb in prior
        if fb.entry in g.entries
    ]


def correct_tail_calls(
    g: Cfg, boundaries: list[FunctionBoundary], flipped: set[tuple[int, int]]
) -> list[int]:
    """One pass of the three correction rules, applied to `g` in place.
    `flipped` holds the (source, target) of every edge flipped earlier
    in this finalization, none of which flips again; the pass adds the
    edges it flips and returns their sources. Every edge is judged
    against the graph as the pass found it and the flips are applied
    after the pass, so the order edges are judged in does not matter."""
    in_degree = Counter(e.target for e in g.edges)
    callish_in = Counter(e.target for e in g.edges if e.kind in _CALLISH)
    # rule 2 looks up only tail-call sources: the boundaries holding each
    tail_sources = {e.source for e in g.edges if e.kind is _TAIL_CALL}
    holders: dict[int, list[set[int]]] = {}
    for fb in boundaries:
        for src in tail_sources & fb.blocks:
            holders.setdefault(src, []).append(fb.blocks)

    flips: list[tuple[Edge, EdgeKind]] = []
    drop_entries: list[int] = []
    for e in g.edges:
        source, target, kind = e
        if kind is _DIRECT:
            if callish_in[target] and (source, target) not in flipped:
                flips.append((e, _TAIL_CALL))
        elif kind is _TAIL_CALL and (source, target) not in flipped:
            if any(target in blocks for blocks in holders.get(source, ())):
                flips.append((e, _DIRECT))
            elif in_degree[target] == 1:
                flips.append((e, _DIRECT))
                entry = g.entries.get(target)
                if entry is not None and not entry.seed:
                    drop_entries.append(target)

    for e, kind in flips:
        g.edges.discard(e)
        g.edges.add(Edge(e.source, e.target, kind))
        flipped.add((e.source, e.target))
    for addr in drop_entries:
        g.entries.pop(addr, None)
    return [e.source for e, _ in flips]


def _prune(g: Cfg) -> None:
    """Drop heuristic entries no call-like edge reaches, and the code
    only they reached, until neither changes."""
    while True:
        callish_targets = {e.target for e in g.edges if e.kind in _CALLISH}
        drop = [a for a, f in g.entries.items() if not f.seed and a not in callish_targets]
        for a in drop:
            del g.entries[a]
        swept = _drop_unreachable(g)
        if not (drop or swept):
            return


def finalize_details(g: Cfg, registry: TableRegistry) -> FinalizeStats:
    """Run the full finalization pipeline over `g` in place; idempotent
    on its own output."""
    stats = FinalizeStats()
    trim_overlapping_tables(g, registry)
    flipped: set[tuple[int, int]] = set()
    edge_budget = len(g.edges)
    boundaries = assign_function_boundaries(g)
    while True:
        stats.iterations += 1
        sources = correct_tail_calls(g, boundaries, flipped)
        if not sources:
            break
        if stats.iterations > edge_budget + 2:
            raise InternalError("tail-call correction failed to converge")
        boundaries = assign_function_boundaries(g, boundaries, sources)
    stats.flips = len(flipped)
    _prune(g)
    violations = validate(g)
    if violations:
        raise InvalidGraphError(violations)
    return stats
