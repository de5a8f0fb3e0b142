"""CFG finalization: the decreasing phase after traversal quiesces.

Removes over-approximated jump-table edges by trimming tables whose
effective extent overlaps the next table, then alternates function
boundary assignment with tail-call correction until a fixed point, then
prunes heuristic function entries with no incoming inter-procedural
edge. No new CFG elements are added. Finalization rewrites the graph it
is handed, which its caller owns. Every rule either walks elements in
a canonical order or judges them all against the same graph, so the
result is independent of how the traversal phase was scheduled.

Every step reads the graph's edges through one `EdgeIndex` (out-edges
by source, in-edges by target) of `g.edges` that the caller hands in,
and changes them only through it: the index is the only writer of the
edge set it was built over, so its three views stay in step through
each removal and flip, and no step rebuilds a view of every edge for
itself.

Tail-call correction has three rules. Rule 1 runs once, before the
rounds; rules 2 and 3 are judged against a per-round snapshot, lowest
rule wins:

1. every plain branch into an entry becomes a tail call; the
   constructors label only branches whose own block says so. This is
   a label, not a flip. Every call and tail-call target is an entry (a
   precondition of `finalize_details`), so no plain branch into a
   target with a call-like in-edge is left for a round to judge;
2. a tail call whose target lies inside the branching function's own
   boundary becomes a plain branch;
3. a tail call that is its target's only incoming edge becomes a plain
   branch, and the target's entry label is dropped unless it came from
   the symbol table (outlined blocks fold back into their parent).

Each edge flips at most once per finalization. The rounds keep this by
construction, with no record of what flipped: the first round judges
every tail call, the only edges rules 2 and 3 apply to, and a later
round judges only tail calls that have not flipped. A flip makes a
plain branch, which no round judges, so a flipped edge is never judged
again, an unflipped one is judged for as long as its verdict can change
(below), and every later round that flips shrinks the set of unflipped
tail calls, which ends the loop.

A later round judges only the unflipped tail calls whose source lies in
a boundary just walked again, because no other edge's verdict can have
changed:
- Rule 3 reads in-degree, which a flip does not change.
- Rule 2 reads the boundaries that hold the source. Before the last
  round, an entry that reaches the source now already reached either
  the source or the source of a tail call that round flipped (the
  first flipped edge on its path). Either way it held the source of an
  unflipped tail call, so its boundary is one of the last round's, and
  that boundary is unchanged unless it was walked again. A rule-2
  verdict that was false can thus turn true only through a boundary
  just walked. Dropped entries only remove boundaries.

Rule 2 reads only the boundaries that hold the source of an unflipped
tail call, so each round walks only those. A boundary holds block `s`
exactly when its entry reaches `s` over intra-procedural edges through
blocks, so one reverse walk from the tail-call sources finds their
entries, and a boundary kept from the last round is walked again only
when it holds the source of an edge that round flipped: a walk that
never reaches a changed edge's source cannot see the change. No other
boundary can decide a rule-2 verdict, so skipping them is exact.

Unreachable code is swept once over the whole graph, right after the
trim, and from then on only below what was removed. The local sweep
is exact: after the full sweep every node is reachable from an entry,
and a flip changes only an edge's kind, which reachability ignores. So
when entries (or edges) are removed, a node can lose reachability only
if every path to it from an entry passed through a removed item. Such
a node lies in the region below the removed items: their forward
closure, stopped at the surviving entries. Everything outside the
region keeps a path that avoids it, and a node inside stays reachable
exactly when it is reached, within the region, from a node with an
in-edge from outside the region.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .cfg import (
    Cfg,
    Edge,
    EdgeKind,
    INTRA_EDGE_KINDS,
)
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
    flips: int
    iterations: int


class EdgeIndex:
    """A graph's edge set (`edges`, the set it was built over) with its
    edges by source (`out`) and by target (`inc`). It is the only writer
    of that set, so the three views change together. No list is empty:
    an address without edges has no key."""

    __slots__ = ("edges", "out", "inc")

    def __init__(self, edges: set[Edge]):
        out: dict[int, list[Edge]] = {}
        inc: dict[int, list[Edge]] = {}
        for e in edges:
            source, target, _ = e
            bucket = out.get(source)
            if bucket is None:
                out[source] = [e]
            else:
                bucket.append(e)
            bucket = inc.get(target)
            if bucket is None:
                inc[target] = [e]
            else:
                bucket.append(e)
        self.edges = edges
        self.out = out
        self.inc = inc

    def add(self, e: Edge) -> bool:
        """Add `e`; returns whether it was not there yet."""
        if e in self.edges:
            return False
        self.edges.add(e)
        self.out.setdefault(e.source, []).append(e)
        self.inc.setdefault(e.target, []).append(e)
        return True

    def remove(self, e: Edge) -> None:
        self.edges.remove(e)
        for by, key in ((self.out, e.source), (self.inc, e.target)):
            bucket = by[key]
            bucket.remove(e)
            if not bucket:
                del by[key]

    def replace(self, old: Edge, new: Edge) -> None:
        """Swap `old` for `new`, an edge with the same ends; when `new` is
        there already, only remove `old`."""
        if new in self.edges:
            self.remove(old)
            return
        self.edges.remove(old)
        self.edges.add(new)
        for bucket in (self.out[old.source], self.inc[old.target]):
            bucket[bucket.index(old)] = new


def _remove_nodes(g: Cfg, index: EdgeIndex, nodes: set[int]) -> list[Edge]:
    """Drop the blocks and candidates at `nodes`, which no other node
    has an edge into, with every edge they touch; returns the edges."""
    for n in nodes:
        g.blocks.pop(n, None)
        g.candidates.discard(n)
    removed = [e for n in nodes for e in index.out.get(n, ())]
    for e in removed:
        index.remove(e)
    return removed


def _drop_unreachable(g: Cfg, index: EdgeIndex) -> bool:
    """Drop every block and candidate no entry reaches, and every edge
    that loses an end with them; returns whether anything was dropped.
    `index` indexes `g.edges` and is kept current."""
    out = index.out
    seen = set(g.entries)
    work = list(seen)
    while work:
        for e in out.get(work.pop(), ()):
            target = e.target
            if target not in seen:
                seen.add(target)
                work.append(target)
    dead = {s for s in g.blocks if s not in seen}
    dead |= g.candidates - seen
    if not dead:
        return False
    _remove_nodes(g, index, dead)
    return True


def _drop_unreachable_below(g: Cfg, index: EdgeIndex, roots: Iterable[int]) -> list[Edge]:
    """What `_drop_unreachable` does, for a graph that was fully
    reachable until some entries and edges were removed; `roots` holds
    those entries and the removed edges' targets. Only the region below
    `roots` is walked (see the module docstring). Returns the edges
    dropped."""
    entries, out, inc = g.entries, index.out, index.inc
    region = {r for r in roots if r not in entries}
    work = list(region)
    while work:
        for e in out.get(work.pop(), ()):
            target = e.target
            if target not in region and target not in entries:
                region.add(target)
                work.append(target)
    live = [n for n in region if any(e.source not in region for e in inc.get(n, ()))]
    reached = set(live)
    while live:
        for e in out.get(live.pop(), ()):
            target = e.target
            if target in region and target not in reached:
                reached.add(target)
                live.append(target)
    return _remove_nodes(g, index, region - reached)


def trim_overlapping_tables(g: Cfg, registry: TableRegistry, index: EdgeIndex) -> None:
    """Cut each table whose effective extent overlaps the next larger
    table base back to that base and drop the indirect edges only the
    cut entries produced. The code they alone reached is left to the
    sweep that follows the trim in `finalize_details`."""
    ends = {b.end: b.start for b in g.blocks.values()}
    descs = registry.sorted_descriptors()
    bases = sorted({d.base for d in descs})
    next_base = dict(zip(bases, bases[1:]))
    drop: set[Edge] = set()
    for desc in descs:
        owner = ends.get(desc.jump_end)
        nxt = next_base.get(desc.base)
        extent = desc.base + 4 * desc.effective_bound
        if nxt is None or extent <= nxt or owner is None:
            if desc.final_bound is None:
                desc.final_bound = desc.effective_bound
            continue
        new_bound = (nxt - desc.base) // 4
        kept = {t for t in desc.index_targets[:new_bound] if t is not None}
        cut = {t for t in desc.index_targets[new_bound:] if t is not None} - kept
        drop.update(Edge(owner, t, EdgeKind.INDIRECT) for t in cut)
        desc.final_bound = new_bound
    for e in drop & index.edges:
        index.remove(e)


def _entries_reaching(g: Cfg, index: EdgeIndex, blocks: Iterable[int]) -> list[int]:
    """The entries whose boundaries hold one of `blocks`, sorted: one
    reverse walk over intra-procedural edges between blocks, the mirror
    of the boundary walk."""
    g_blocks, inc = g.blocks, index.inc
    seen = {b for b in blocks if b in g_blocks}
    work = list(seen)
    while work:
        for source, _, kind in inc.get(work.pop(), ()):
            if kind in INTRA_EDGE_KINDS and source not in seen and source in g_blocks:
                seen.add(source)
                work.append(source)
    entries = g.entries
    return sorted(a for a in seen if a in entries)


def assign_function_boundaries(
    g: Cfg, index: EdgeIndex, entries: Iterable[int]
) -> list[FunctionBoundary]:
    """One boundary per entry of `entries`, in their order: the blocks
    reachable from the entry over intra-procedural edges. Shared blocks
    appear in several boundaries. `index` indexes `g.edges`."""
    out = index.out
    g_blocks = g.blocks
    boundaries = []
    for entry in entries:
        blocks: set[int] = set()
        if entry in g_blocks:
            work = [entry]
            blocks.add(entry)
            while work:
                for _, target, kind in out.get(work.pop(), ()):
                    if kind in INTRA_EDGE_KINDS and target in g_blocks and target not in blocks:
                        blocks.add(target)
                        work.append(target)
        boundaries.append(FunctionBoundary(entry, blocks))
    return boundaries


def correct_tail_calls(
    g: Cfg, index: EdgeIndex, boundaries: list[FunctionBoundary], judged: Iterable[Edge]
) -> list[Edge]:
    """One pass of rules 2 and 3 over the tail calls `judged`, applied to
    `g` in place through `index`; returns the tail calls that flipped, as
    they were before the flip. Every edge is judged against the graph as
    the pass found it and the flips are applied after the pass, so the
    order edges are judged in does not matter. `boundaries` must include
    every boundary that holds the source of a judged tail call."""
    inc = index.inc
    tails = list(judged)
    # rule 2 looks up only tail-call sources: the boundaries holding each
    tail_sources = {e.source for e in tails}
    holders: dict[int, list[set[int]]] = {}
    for fb in boundaries:
        for src in tail_sources & fb.blocks:
            holders.setdefault(src, []).append(fb.blocks)
    flipped: list[Edge] = []
    drop_entries: list[int] = []
    for e in tails:
        source, target, _ = e
        if any(target in blocks for blocks in holders.get(source, ())):
            flipped.append(e)
        elif len(inc[target]) == 1:
            flipped.append(e)
            entry = g.entries.get(target)
            if entry is not None and not entry.seed:
                drop_entries.append(target)

    for e in flipped:
        index.replace(e, Edge(e.source, e.target, _DIRECT))
    for addr in drop_entries:
        g.entries.pop(addr, None)
    return flipped


def _prune(g: Cfg, index: EdgeIndex, dropped: Iterable[int]) -> None:
    """Drop heuristic entries no call-like edge reaches, and the code
    only they reached, until neither changes. `dropped` holds the
    entries removed since the graph was last fully reachable; after the
    first round, only an entry that lost a call-like in-edge to the
    last sweep can have lost its last one."""
    roots = list(dropped)
    suspects: Iterable[int] = list(g.entries)
    while True:
        for a in suspects:
            f = g.entries.get(a)
            if f is not None and not f.seed:
                if not any(e.kind in _CALLISH for e in index.inc.get(a, ())):
                    del g.entries[a]
                    roots.append(a)
        if not roots:
            return
        removed = _drop_unreachable_below(g, index, roots)
        roots = []
        suspects = {e.target for e in removed if e.kind in _CALLISH}


def finalize_details(g: Cfg, registry: TableRegistry, index: EdgeIndex) -> FinalizeStats:
    """Run the full finalization pipeline over `g` in place, reading and
    updating `index`, which indexes `g.edges`; idempotent on its own
    output. The graph is not validated here: every writer in `pcfg.cfg`
    validates what it is handed.

    Precondition: every CALL and TAIL_CALL target in `g` is an entry,
    as both constructors make it (a call or tail call labels its
    target). Rule 1 relies on it (module docstring)."""
    trim_overlapping_tables(g, registry, index)
    _drop_unreachable(g, index)
    entries = set(g.entries)
    # rule 1: a plain branch into an entry is a tail call
    for a in entries:
        for e in [e for e in index.inc.get(a, ()) if e.kind is _DIRECT]:
            index.replace(e, Edge(e.source, a, _TAIL_CALL))
    # the first round judges every tail call; later rounds judge only
    # tail calls that have not flipped (module docstring)
    tails = {e for e in g.edges if e.kind is _TAIL_CALL}
    judged = list(tails)
    holding = _entries_reaching(g, index, {e.source for e in tails})
    boundaries = assign_function_boundaries(g, index, holding)
    flips = iterations = 0
    while True:
        iterations += 1
        flipped = correct_tail_calls(g, index, boundaries, judged)
        if not flipped:
            break
        flips += len(flipped)
        tails.difference_update(flipped)
        tail_sources = {e.source for e in tails}
        # a boundary from the last round is walked again only when it
        # holds a flipped edge's source
        changed = {e.source for e in flipped}
        kept = {fb.entry: fb for fb in boundaries if changed.isdisjoint(fb.blocks)}
        holding = _entries_reaching(g, index, tail_sources)
        walked = assign_function_boundaries(g, index, [a for a in holding if a not in kept])
        boundaries = [kept[a] for a in holding if a in kept] + walked
        # only a tail call held by a boundary just walked can flip now
        held = set().union(*(tail_sources & fb.blocks for fb in walked))
        judged = [e for e in tails if e.source in held]
    # rule 3 dropped these entries; the prune's first sweep starts below them
    _prune(g, index, entries.difference(g.entries))
    return FinalizeStats(flips, iterations)
