"""CFG finalization: the decreasing phase after traversal quiesces.

Removes over-approximated jump-table edges by trimming tables whose
effective extent overlaps the next table, then alternates function
boundary assignment with tail-call correction until a fixed point, then
prunes heuristic function entries with no incoming inter-procedural
edge. No new CFG elements are added. Every rule runs over canonically
sorted elements, so the result is independent of how the traversal
phase was scheduled.

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
from dataclasses import dataclass, field
from itertools import islice

from .cfg import (
    Cfg,
    Edge,
    EdgeKind,
    INTRA_EDGE_KINDS,
    validate,
)
from .errors import InternalError, InvalidGraphError
from .image import Image
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
class FlipLedger:
    counts: dict[tuple[int, int], int] = field(default_factory=dict)

    def can_flip(self, source: int, target: int) -> bool:
        return self.counts.get((source, target), 0) < 1

    def record(self, source: int, target: int) -> None:
        self.counts[(source, target)] = self.counts.get((source, target), 0) + 1

    @property
    def total_flips(self) -> int:
        return sum(self.counts.values())


@dataclass
class FinalizeStats:
    tables_trimmed: int = 0
    trim_removed_edges: int = 0
    flips: int = 0
    iterations: int = 0
    pruned_entries: int = 0
    removed_blocks: int = 0


def trim_overlapping_tables(g: Cfg, registry: TableRegistry) -> Cfg:
    g, _ = _trim_details(g, registry, FinalizeStats())
    return g


def _remove_edges(g: Cfg, drop: set[Edge]) -> Cfg:
    """Remove a batch of edges with one reachability pass. Edge removals
    commute, so this equals applying them one at a time in any order."""
    kept = g.edges - drop
    adj: dict[int, list[int]] = {}
    for e in kept:
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
    blocks = {s: b for s, b in g.blocks.items() if s in seen}
    candidates = {c for c in g.candidates if c in seen}
    edges = {
        e
        for e in kept
        if e.source in blocks and (e.target in blocks or e.target in candidates)
    }
    return Cfg(blocks, candidates, edges, dict(g.entries))


def _trim_details(g: Cfg, registry: TableRegistry, stats: FinalizeStats) -> tuple[Cfg, FinalizeStats]:
    ends = {b.end: b.start for b in g.blocks.values()}
    descs = registry.sorted_descriptors()
    drop: set[Edge] = set()
    for i, desc in enumerate(descs):
        owner = ends.get(desc.jump_end)
        if owner is not None:
            desc.owner_block = owner
        nxt = descs[i + 1] if i + 1 < len(descs) else None
        extent = desc.base + 4 * desc.effective_bound
        if nxt is None or extent <= nxt.base or owner is None:
            if desc.final_bound is None:
                desc.final_bound = desc.effective_bound
            continue
        new_bound = (nxt.base - desc.base) // 4
        kept = {t for t in desc.index_targets[:new_bound] if t is not None}
        cut = {t for t in desc.index_targets[new_bound:] if t is not None} - kept
        if cut:
            stats.tables_trimmed += 1
        for t in sorted(cut):
            e = Edge(owner, t, EdgeKind.INDIRECT)
            if e in g.edges:
                drop.add(e)
                stats.trim_removed_edges += 1
        desc.final_bound = new_bound
    if drop:
        g = _remove_edges(g, drop)
    return g, stats


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
    g: Cfg, boundaries: list[FunctionBoundary], ledger: FlipLedger
) -> tuple[Cfg, bool]:
    """One pass of the three correction rules against a snapshot of the
    graph; returns the updated graph and whether anything flipped. Every
    edge is judged against the snapshot and the flips are applied after
    the pass, so the order edges are judged in does not matter."""
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
            if callish_in[target] and ledger.can_flip(source, target):
                flips.append((e, _TAIL_CALL))
        elif kind is _TAIL_CALL and ledger.can_flip(source, target):
            if any(target in blocks for blocks in holders.get(source, ())):
                flips.append((e, _DIRECT))
            elif in_degree[target] == 1:
                flips.append((e, _DIRECT))
                entry = g.entries.get(target)
                if entry is not None and not entry.seed:
                    drop_entries.append(target)

    if not flips:
        return g, False
    out = g.clone()
    for e, kind in flips:
        out.edges.discard(e)
        out.edges.add(Edge(e.source, e.target, kind))
        ledger.record(e.source, e.target)
    for addr in drop_entries:
        out.entries.pop(addr, None)
    return out, True


def _prune(g: Cfg, stats: FinalizeStats) -> Cfg:
    while True:
        changed = False
        callish_targets = {e.target for e in g.edges if e.kind in _CALLISH}
        drop = sorted(
            a for a, f in g.entries.items() if not f.seed and a not in callish_targets
        )
        if drop:
            g = g.clone()
            for a in drop:
                del g.entries[a]
            stats.pruned_entries += len(drop)
            changed = True

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
        if dead:
            g = g.clone()
            for s in dead:
                del g.blocks[s]
            g.candidates = {c for c in g.candidates if c in seen}
            g.edges = {
                e
                for e in g.edges
                if e.source in g.blocks
                and (e.target in g.blocks or e.target in g.candidates)
            }
            stats.removed_blocks += len(dead)
            changed = True
        if not changed:
            return g


def finalize(g: Cfg, image: Image, registry: TableRegistry) -> Cfg:
    return finalize_details(g, image, registry)[0]


def finalize_details(
    g: Cfg, image: Image, registry: TableRegistry
) -> tuple[Cfg, FinalizeStats]:
    """Run the full finalization pipeline; idempotent on its own output."""
    del image  # descriptors already carry their resolved entries
    stats = FinalizeStats()
    g, stats = _trim_details(g, registry, stats)
    ledger = FlipLedger()
    edge_budget = len(g.edges)
    boundaries = assign_function_boundaries(g)
    while True:
        stats.iterations += 1
        recorded = len(ledger.counts)
        g, changed = correct_tail_calls(g, boundaries, ledger)
        if not changed:
            break
        if stats.iterations > edge_budget + 2:
            raise InternalError("tail-call correction failed to converge")
        # the ledger records each flipped edge once, in flip order
        flipped = [source for source, _ in islice(ledger.counts, recorded, None)]
        boundaries = assign_function_boundaries(g, boundaries, flipped)
    stats.flips = ledger.total_flips
    g = _prune(g, stats)
    violations = validate(g)
    if violations:
        raise InvalidGraphError(violations)
    return g, stats
