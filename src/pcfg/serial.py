"""Single-threaded CFG operations and the serial reference constructor.

The six operations are pure: each takes a whole graph value and returns
a new one, or the graph itself when it has nothing to change. Each is
a clone plus one in-place step over an `_IndexedCfg`, the graph
together with finalization's `EdgeIndex` of its edges, its blocks by
end and its sorted block starts; the index is the only writer of the
graph's edge set, and edge removal's step is finalization's
unreachable-code sweep. Every fact the steps read from the image's
bytes (block ends, terminators, frame teardown, bound hints) is one
field of a `scan_block` call, and every table is read through
`refresh_table`, the refresh rule the engine shares. `serial_construct`
applies the same steps to one indexed graph of its own, driven from the
symbol table seeds by a deterministic FIFO worklist, so each step costs
what it touches rather than the whole graph; finalization reads the
same index. During traversal a jump is a tail call only into a flagged
seed, and every other jump a plain branch, which the function's walk
follows; at quiescence `op_fei` is applied once to each plain jump, on
its finished block, as the engine's export does. As each function walks
every block it reaches, construction grows about linearly with the
image unless plain jumps chain functions: n functions that each jump to
the next cost n^2 / 2 visits. It is the correctness oracle the
concurrent engine is checked against, so it imports nothing from the
engine (`pcfg.parallel`). Like the engine, it runs with the cyclic
collector paused (`pcfg._collector`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from collections.abc import Callable
from functools import partial

from .cfg import (
    Block,
    Cfg,
    Edge,
    EdgeKind,
    FunctionEntry,
    INTRA_EDGE_KINDS,
    ReturnStatus,
)
from ._collector import COLLECTOR_PAUSE
from ._kernels import scan_block
from .errors import (
    AlreadySetError,
    CalleeUnsetError,
    EdgeNotFoundError,
    InternalError,
    NotACandidateError,
    NotDirectTerminatorError,
    NotIndirectTerminatorError,
    OutOfRangeError,
)
from .finalize import EdgeIndex, _drop_unreachable, assign_function_boundaries
from .image import Image
from .isa import LENGTHS, Instruction, Opcode
from .jumptables import TableDescriptor, TableRegistry, last_bound_hint, refresh_table
from .symtab import symbol_facts

_DIRECT_TERMS = (Opcode.JMP_DIRECT, Opcode.JCC_DIRECT, Opcode.CALL)
_INDIRECT_TERMS = (Opcode.IJMP_TABLE, Opcode.IJMP_OPAQUE)

#: Reads the last bound hint of a block range [start, end).
HintReader = Callable[[int, int], int | None]


class _IndexedCfg(EdgeIndex):
    """A graph plus the lookups the steps make, kept in step with it:
    the `EdgeIndex` of its edges, each block's start by its end, and the
    sorted block starts. Blocks change only through `put_block` and
    edges only through the `EdgeIndex` writers; candidates and entries
    are not indexed and are changed on `g` directly. Blocks never
    overlap in a graph the operations build, so a block end names one
    block and the nearest start below an address names the only block
    that can hold it."""

    __slots__ = ("g", "start_by_end", "starts")

    def __init__(self, g: Cfg):
        super().__init__(g.edges)
        self.g = g
        self.start_by_end = {b.end: b.start for b in g.blocks.values()}
        self.starts = sorted(g.blocks)

    def put_block(self, b: Block) -> None:
        old = self.g.blocks.get(b.start)
        if old is None:
            insort(self.starts, b.start)
        elif self.start_by_end.get(old.end) == b.start:
            del self.start_by_end[old.end]
        self.g.blocks[b.start] = b
        self.start_by_end[b.end] = b.start

    def outgoing(self, start: int) -> list[Edge]:
        """The edges leaving `start`, by target and kind."""
        return sorted(self.out.get(start, ()))

    def block_by_end(self, end: int) -> Block | None:
        start = self.start_by_end.get(end)
        return None if start is None else self.g.blocks[start]


def _split(ix: _IndexedCfg, b: Block, t: int) -> None:
    """Split block `b` at `t`: the prefix keeps the start and incoming
    edges, the suffix takes the terminator and outgoing edges, and a
    fall-through edge links the two."""
    ix.put_block(Block(b.start, t, None))
    ix.put_block(Block(t, b.end, b.terminator))
    for e in list(ix.out.get(b.start, ())):
        ix.remove(e)
        ix.add(Edge(t, e.target, e.kind))
    ix.add(Edge(b.start, t, EdgeKind.COND_FALLTHROUGH))


def _ber(ix: _IndexedCfg, image: Image, t: int) -> None:
    """The step of `op_ber`."""
    g = ix.g
    if t not in g.candidates:
        raise NotACandidateError(f"0x{t:x} is not a candidate")
    g.candidates.discard(t)
    if not image.text_base <= t < image.text_end:
        raise OutOfRangeError(t)

    below = bisect_left(ix.starts, t)
    if below:
        b = g.blocks[ix.starts[below - 1]]
        if t < b.end:
            _split(ix, b, t)
            return

    above = bisect_right(ix.starts, t)
    nxt = ix.starts[above] if above < len(ix.starts) else None
    end, kind, a, b_op, *_ = scan_block(image.text, image.text_base, t, nxt)
    # no control flow instruction starts and ends within [t, nxt)
    if nxt is not None and (kind == -1 or end > nxt):
        ix.put_block(Block(t, nxt, None))
        ix.add(Edge(t, nxt, EdgeKind.COND_FALLTHROUGH))
        return
    if kind == -1:
        term = Instruction(image.text_end, Opcode.HALT, 1)
    else:
        op = Opcode(kind)
        term = Instruction(end - LENGTHS[op], op, LENGTHS[op], a, b_op)
    ix.put_block(Block(t, end, term))


def op_ber(g: Cfg, image: Image, t: int) -> Cfg:
    """Block end resolution: replace candidate [t] with an actual block.

    Three cases: split an existing block containing t; end early at the
    next known block when no control flow instruction intervenes; or
    parse linearly to the first control flow instruction. A linear parse
    that runs off the end of text yields a block ending at text end with
    a synthesized halt terminator.
    """
    out = g.clone()
    _ber(_IndexedCfg(out), image, t)
    return out


def _link(g: Cfg, target: int) -> None:
    if target not in g.blocks:
        g.candidates.add(target)


def _dec(ix: _IndexedCfg, a: Block) -> list[Edge]:
    """The step of `op_dec`; returns the edges it created, by target and
    kind."""
    blk = ix.g.blocks.get(a.start)
    if blk is None:
        raise InternalError(f"no block at 0x{a.start:x}")
    term = blk.terminator
    if term is None or term.kind not in _DIRECT_TERMS:
        raise NotDirectTerminatorError(f"block at 0x{a.start:x}")
    if term.kind is Opcode.JMP_DIRECT:
        wanted = [(term.a, EdgeKind.DIRECT)]
    elif term.kind is Opcode.JCC_DIRECT:
        wanted = [(term.a, EdgeKind.COND_TAKEN), (blk.end, EdgeKind.COND_FALLTHROUGH)]
    else:
        wanted = [(term.a, EdgeKind.CALL)]
    created = []
    for target, kind in wanted:
        e = Edge(blk.start, target, kind)
        if ix.add(e):
            created.append(e)
        _link(ix.g, target)
    return sorted(created)


def op_dec(g: Cfg, a: Block) -> Cfg:
    """Direct edge creation from a block's terminating jump, conditional
    jump, or call. Targets without a block become candidates."""
    out = g.clone()
    _dec(_IndexedCfg(out), a)
    return out


def _cfec(ix: _IndexedCfg, call_edge: Edge, callee_status: ReturnStatus) -> bool:
    """The step of `op_cfec`; returns False when it leaves the graph as
    it was."""
    if call_edge.kind is not EdgeKind.CALL:
        raise InternalError("op_cfec requires a call edge")
    if callee_status is ReturnStatus.UNSET:
        raise CalleeUnsetError(f"callee 0x{call_edge.target:x} unresolved")
    if callee_status is ReturnStatus.NORETURN:
        return False
    src = ix.g.blocks.get(call_edge.source)
    if src is None:
        raise InternalError(f"no source block at 0x{call_edge.source:x}")
    ix.add(Edge(src.start, src.end, EdgeKind.CALL_FALLTHROUGH))
    _link(ix.g, src.end)
    return True


def op_cfec(g: Cfg, call_edge: Edge, callee_status: ReturnStatus) -> Cfg:
    """Call fall-through edge creation, gated on the callee's status."""
    out = g.clone()
    return out if _cfec(_IndexedCfg(out), call_edge, callee_status) else g


def _refresh(
    ix: _IndexedCfg, image: Image, blk: Block, desc: TableDescriptor, hint: HintReader
) -> list[int]:
    """Refresh the table jump block's table `desc` (`refresh_table`)
    against the block's currently-known intra-procedural predecessors,
    whose bound hints `hint` reads; add an edge to each target the
    refresh added, and return those targets, sorted."""
    g = ix.g
    hints = []
    for e in ix.inc.get(blk.start, ()):
        if e.kind in INTRA_EDGE_KINDS and e.source in g.blocks:
            h = hint(e.source, g.blocks[e.source].end)
            if h is not None:
                hints.append(h)
    new = refresh_table(desc, image, hints)
    for t in new:
        ix.add(Edge(blk.start, t, EdgeKind.INDIRECT))
        _link(g, t)
    return new


def _iec(ix: _IndexedCfg, image: Image, a: Block) -> bool:
    """The step of `op_iec`; returns False when it leaves the graph as it
    was."""
    blk = ix.g.blocks.get(a.start)
    if blk is None:
        raise InternalError(f"no block at 0x{a.start:x}")
    term = blk.terminator
    if term is None or term.kind not in _INDIRECT_TERMS:
        raise NotIndirectTerminatorError(f"block at 0x{a.start:x}")
    if term.kind is Opcode.IJMP_OPAQUE:
        return False
    desc = TableDescriptor(term.a, term.b, blk.end)
    _refresh(ix, image, blk, desc, partial(last_bound_hint, image))
    return True


def op_iec(g: Cfg, image: Image, a: Block) -> Cfg:
    """Indirect edge creation: resolve table targets and append edges.
    An opaque indirect jump contributes nothing."""
    out = g.clone()
    return out if _iec(_IndexedCfg(out), image, a) else g


def _has_teardown(image: Image, blk: Block) -> bool:
    return scan_block(image.text, image.text_base, blk.start, blk.end)[4]


def _label_entry(g: Cfg, addr: int) -> None:
    if addr not in g.entries:
        g.entries[addr] = FunctionEntry(addr, None, ReturnStatus.UNSET, seed=False)


def _fei(ix: _IndexedCfg, image: Image, e: Edge) -> bool:
    """The step of `op_fei`; returns False when it leaves the graph as it
    was."""
    g = ix.g
    if e not in g.edges:
        raise EdgeNotFoundError(f"0x{e.source:x} -> 0x{e.target:x}")
    if e.kind is EdgeKind.CALL:
        if e.target not in g.entries:
            _label_entry(g, e.target)
            return True
        return False
    if e.kind is EdgeKind.DIRECT and _has_teardown(image, g.blocks[e.source]):
        ix.replace(e, Edge(e.source, e.target, EdgeKind.TAIL_CALL))
        _label_entry(g, e.target)
        return True
    return False


def op_fei(g: Cfg, image: Image, e: Edge) -> Cfg:
    """Function entry identification.

    A call labels its target an entry. An unconditional branch is a tail
    call, and labels its target, when its block tears down the frame;
    otherwise it stays a plain branch. The verdict reads only the
    branch's block, so it holds once that block is final. A branch into
    an entry is finalization's rule 1, and one into the branching
    function's own body its rule 2, both judged on the whole graph.
    """
    out = g.clone()
    return out if _fei(_IndexedCfg(out), image, e) else g


def op_er(g: Cfg, e: Edge) -> Cfg:
    """Edge removal: drop the edge plus every block, candidate, and edge
    no longer reachable from any function entry."""
    if e not in g.edges:
        raise EdgeNotFoundError(f"0x{e.source:x} -> 0x{e.target:x}")
    out = g.clone()
    ix = _IndexedCfg(out)
    ix.remove(e)
    _drop_unreachable(out, ix)
    return out


class _SerialDriver:
    """Deterministic FIFO construction: the operations' steps applied in
    place to one indexed graph."""

    def __init__(self, image: Image):
        self.image = image
        self.g = Cfg()
        self.ix = _IndexedCfg(self.g)
        self.registry = TableRegistry()
        self.queue: deque[tuple[int, int]] = deque()
        self.visited: dict[int, set[int]] = {}
        self.dec_done: set[int] = set()
        self.facts = symbol_facts(image)
        # callee entry -> call-site end -> interested functions
        self.ft_waiters: dict[int, dict[int, set[int]]] = {}
        # table jump end -> functions whose traversal reached the jump
        self.table_fns: dict[int, set[int]] = {}
        # (start, end) -> last bound hint in that range of the image
        self.hints: dict[tuple[int, int], int | None] = {}

    def _hint(self, start: int, end: int) -> int | None:
        key = (start, end)
        if key not in self.hints:
            self.hints[key] = last_bound_hint(self.image, start, end)
        return self.hints[key]

    # -- status handling ------------------------------------------------

    def _set_status(self, addr: int, status: ReturnStatus) -> None:
        """Write `addr`'s status once; a RETURN gives its waiting call
        sites their fall-throughs, which the waiting functions visit."""
        cur = self.g.entries[addr].status
        if cur is not ReturnStatus.UNSET:
            raise AlreadySetError(f"0x{addr:x}: {cur.value} -> {status.value}")
        self.g.entries[addr] = self.g.entries[addr]._replace(status=status)
        ft = self.ft_waiters.pop(addr, {})
        if status is ReturnStatus.RETURN:
            for call_end in sorted(ft):
                src = self.ix.block_by_end(call_end)
                if src is None:
                    raise InternalError(f"no call block ending at 0x{call_end:x}")
                _cfec(self.ix, Edge(src.start, addr, EdgeKind.CALL), status)
                for fn in sorted(ft[call_end]):
                    self.queue.append((fn, call_end))

    def _set_status_return_if_unset(self, addr: int) -> None:
        if self.g.entries[addr].status is ReturnStatus.UNSET:
            self._set_status(addr, ReturnStatus.RETURN)

    # -- function bookkeeping --------------------------------------------

    def _ensure_traversal(self, addr: int) -> None:
        if addr not in self.visited:
            self.visited[addr] = set()
            self.queue.append((addr, addr))

    def _process_call_site(self, fn: int, blk: Block, callee: int) -> None:
        status = self.g.entries[callee].status
        if status is ReturnStatus.RETURN:
            _cfec(self.ix, Edge(blk.start, callee, EdgeKind.CALL), status)
            self.queue.append((fn, blk.end))
        elif status is ReturnStatus.UNSET:
            self.ft_waiters.setdefault(callee, {}).setdefault(blk.end, set()).add(fn)

    # -- jump tables ------------------------------------------------------

    def _table_sweep(self) -> bool:
        changed = False
        for desc in self.registry.sorted_descriptors():
            blk = self.ix.block_by_end(desc.jump_end)
            if blk is None:
                raise InternalError(f"no block ends at 0x{desc.jump_end:x}")
            new = _refresh(self.ix, self.image, blk, desc, self._hint)
            if not new:
                continue
            for fn in sorted(self.table_fns[desc.jump_end]):
                for t in new:
                    self.queue.append((fn, t))
            changed = True
        return changed

    # -- main dispatch -----------------------------------------------------

    def _process(self, fn: int, t: int) -> None:
        seen = self.visited[fn]
        if t in seen:
            return
        seen.add(t)
        if t in self.g.candidates:
            _ber(self.ix, self.image, t)
        elif t not in self.g.blocks:
            raise InternalError(f"0x{t:x} is neither candidate nor block start")
        blk = self.g.blocks[t]
        term = blk.terminator

        if term is None:
            for e in self.ix.outgoing(t):
                self.queue.append((fn, e.target))
            return

        kind = term.kind
        if kind in (Opcode.JMP_DIRECT, Opcode.JCC_DIRECT):
            if blk.end not in self.dec_done:
                self.dec_done.add(blk.end)
                for e in _dec(self.ix, blk):
                    # only a jump into a flagged seed is a tail call before
                    # its block is finished (`_label_tail_calls`)
                    if e.kind is EdgeKind.DIRECT and e.target in self.facts.noreturn:
                        self.ix.replace(e, Edge(e.source, e.target, EdgeKind.TAIL_CALL))
            for e in self.ix.outgoing(t):
                if e.kind in (
                    EdgeKind.DIRECT,
                    EdgeKind.COND_TAKEN,
                    EdgeKind.COND_FALLTHROUGH,
                ):
                    self.queue.append((fn, e.target))
        elif kind is Opcode.CALL:
            callee = term.a
            if blk.end not in self.dec_done:
                self.dec_done.add(blk.end)
                _dec(self.ix, blk)
                _fei(self.ix, self.image, Edge(blk.start, callee, EdgeKind.CALL))
                self._ensure_traversal(callee)
            self._process_call_site(fn, blk, callee)
        elif kind is Opcode.RET:
            self._set_status_return_if_unset(fn)
        elif kind is Opcode.IJMP_TABLE:
            desc = self.registry.get_or_create(term.a, term.b, blk.end)
            self.table_fns.setdefault(blk.end, set()).add(fn)
            if blk.end not in self.dec_done:
                self.dec_done.add(blk.end)
                _refresh(self.ix, self.image, blk, desc, self._hint)
            for e in self.ix.outgoing(t):
                if e.kind is EdgeKind.INDIRECT:
                    self.queue.append((fn, e.target))
        # opaque jumps, HALT and the synthesized end-of-text terminator
        # have no successors

    def _label_tail_calls(self) -> None:
        """Apply `op_fei`'s step to each plain jump of the finished graph
        whose block tears down the frame. A new entry returns when its
        boundary, walked before any jump is relabelled, holds a `ret`:
        the reach over which the traversal found every other status."""
        g = self.g
        plain = sorted(e for e in g.edges if e.kind is EdgeKind.DIRECT)
        torn = [e for e in plain if _has_teardown(self.image, g.blocks[e.source])]
        new = sorted({e.target for e in torn}.difference(g.entries))
        boundaries = assign_function_boundaries(g, self.ix, new)
        for e in torn:
            _fei(self.ix, self.image, e)
        for fb in boundaries:
            terms = (g.blocks[s].terminator for s in fb.blocks)
            returns = any(t is not None and t.kind is Opcode.RET for t in terms)
            status = ReturnStatus.RETURN if returns else ReturnStatus.NORETURN
            g.entries[fb.entry] = g.entries[fb.entry]._replace(status=status)

    def _seed(self) -> None:
        facts = self.facts
        for addr in facts.seeds:
            self.g.entries[addr] = FunctionEntry(
                addr, facts.names[addr], ReturnStatus.UNSET, seed=True
            )
            self.g.candidates.add(addr)
            if addr in facts.noreturn:
                self._set_status(addr, ReturnStatus.NORETURN)
            self._ensure_traversal(addr)

    def run(self) -> Cfg:
        self._seed()
        while True:
            while self.queue:
                fn, t = self.queue.popleft()
                self._process(fn, t)
            if self._table_sweep():
                continue
            unresolved = sorted(
                a for a, f in self.g.entries.items() if f.status is ReturnStatus.UNSET
            )
            if unresolved:
                for a in unresolved:
                    self._set_status(a, ReturnStatus.NORETURN)
                continue
            break

        if self.g.candidates:
            raise InternalError(
                f"unresolved candidates after quiescence: {sorted(self.g.candidates)}"
            )
        self._label_tail_calls()
        from .finalize import finalize_details

        finalize_details(self.g, self.registry, self.ix)
        return self.g


def serial_construct(image: Image) -> Cfg:
    """Build the finalized CFG single-threaded. This is the oracle the
    concurrent constructor is compared against byte-for-byte."""
    return serial_construct_details(image)[0]


def serial_construct_details(image: Image) -> tuple[Cfg, TableRegistry]:
    # the pause outlasts the driver, so the first collection after it
    # walks the finished graph alone
    with COLLECTOR_PAUSE:
        driver = _SerialDriver(image)
        cfg = driver.run()
        registry = driver.registry
        del driver
    return cfg, registry
