"""Single-threaded CFG operations and the serial reference constructor.

The six operations are pure: each takes a whole graph value and returns
a new one. `serial_construct` drives them from the symbol table seeds
with a deterministic FIFO worklist and is the correctness oracle the
concurrent engine is checked against. Clarity over speed throughout;
quadratic scans are fine at the input sizes this module sees.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace

from .cfg import (
    Block,
    Cfg,
    Edge,
    EdgeKind,
    FunctionEntry,
    INTRA_EDGE_KINDS,
    ReturnStatus,
)
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
from .image import Image, contains_cfi
from .isa import LENGTHS, Instruction, Opcode, decode_at
from .jumptables import (
    TableRegistry,
    effective_bound,
    last_bound_hint,
    read_table_targets,
    update_descriptor,
)
from .symtab import symbol_facts

_DIRECT_TERMS = (Opcode.JMP_DIRECT, Opcode.JCC_DIRECT, Opcode.CALL)
_INDIRECT_TERMS = (Opcode.IJMP_TABLE, Opcode.IJMP_OPAQUE)


def _outgoing(g: Cfg, start: int) -> list[Edge]:
    return sorted(
        (e for e in g.edges if e.source == start),
        key=lambda e: (e.target, int(e.kind)),
    )


def _block_by_end(g: Cfg, end: int) -> Block | None:
    for b in g.blocks.values():
        if b.end == end:
            return b
    return None


def _split(out: Cfg, b: Block, t: int) -> None:
    """Split block `b` at `t`: the prefix keeps the start and incoming
    edges, the suffix takes the terminator and outgoing edges, and a
    fall-through edge links the two."""
    out.blocks[b.start] = Block(b.start, t, None)
    out.blocks[t] = Block(t, b.end, b.terminator)
    for e in [e for e in out.edges if e.source == b.start]:
        out.edges.discard(e)
        out.edges.add(Edge(t, e.target, e.kind))
    out.edges.add(Edge(b.start, t, EdgeKind.COND_FALLTHROUGH))


def op_ber(g: Cfg, image: Image, t: int) -> Cfg:
    """Block end resolution: replace candidate [t] with an actual block.

    Three cases: split an existing block containing t; end early at the
    next known block when no control flow instruction intervenes; or
    parse linearly to the first control flow instruction. A linear parse
    that runs off the end of text yields a block ending at text end with
    a synthesized halt terminator.
    """
    if t not in g.candidates:
        raise NotACandidateError(f"0x{t:x} is not a candidate")
    out = g.clone()
    out.candidates.discard(t)

    for b in out.blocks.values():
        if b.start < t < b.end:
            _split(out, b, t)
            return out

    nxt = min((s for s in out.blocks if s > t), default=None)
    if nxt is not None and not contains_cfi(image, t, nxt):
        out.blocks[t] = Block(t, nxt, None)
        out.edges.add(Edge(t, nxt, EdgeKind.COND_FALLTHROUGH))
        return out

    if not image.text_base <= t < image.text_end:
        raise OutOfRangeError(t)
    end, kind, a, b_op, *_ = scan_block(image.text, image.text_base, t)
    if kind == -1:
        term = Instruction(image.text_end, Opcode.HALT, 1)
    else:
        op = Opcode(kind)
        term = Instruction(end - LENGTHS[op], op, LENGTHS[op], a, b_op)
    out.blocks[t] = Block(t, end, term)
    return out


def _link(out: Cfg, target: int) -> None:
    if target not in out.blocks:
        out.candidates.add(target)


def op_dec(g: Cfg, a: Block) -> Cfg:
    """Direct edge creation from a block's terminating jump, conditional
    jump, or call. Targets without a block become candidates."""
    blk = g.blocks.get(a.start)
    if blk is None:
        raise InternalError(f"no block at 0x{a.start:x}")
    term = blk.terminator
    if term is None or term.kind not in _DIRECT_TERMS:
        raise NotDirectTerminatorError(f"block at 0x{a.start:x}")
    out = g.clone()
    if term.kind is Opcode.JMP_DIRECT:
        out.edges.add(Edge(blk.start, term.a, EdgeKind.DIRECT))
        _link(out, term.a)
    elif term.kind is Opcode.JCC_DIRECT:
        out.edges.add(Edge(blk.start, term.a, EdgeKind.COND_TAKEN))
        _link(out, term.a)
        out.edges.add(Edge(blk.start, blk.end, EdgeKind.COND_FALLTHROUGH))
        _link(out, blk.end)
    else:
        out.edges.add(Edge(blk.start, term.a, EdgeKind.CALL))
        _link(out, term.a)
    return out


def op_cfec(g: Cfg, call_edge: Edge, callee_status: ReturnStatus) -> Cfg:
    """Call fall-through edge creation, gated on the callee's status."""
    if call_edge.kind is not EdgeKind.CALL:
        raise InternalError("op_cfec requires a call edge")
    if callee_status is ReturnStatus.UNSET:
        raise CalleeUnsetError(f"callee 0x{call_edge.target:x} unresolved")
    if callee_status is ReturnStatus.NORETURN:
        return g
    src = g.blocks.get(call_edge.source)
    if src is None:
        raise InternalError(f"no source block at 0x{call_edge.source:x}")
    out = g.clone()
    out.edges.add(Edge(src.start, src.end, EdgeKind.CALL_FALLTHROUGH))
    _link(out, src.end)
    return out


def _intra_pred_blocks(g: Cfg, start: int) -> list[Block]:
    preds = []
    for e in g.edges:
        if e.target == start and e.kind in INTRA_EDGE_KINDS and e.source in g.blocks:
            preds.append(g.blocks[e.source])
    return sorted(preds, key=lambda b: b.start)


def resolve_indirect_targets(g: Cfg, image: Image, blk: Block) -> tuple[int, list[int], bool]:
    """Effective bound, targets, and clamp flag for a table jump block,
    given the currently-known intra-procedural predecessors."""
    term = blk.terminator
    hints = []
    for p in _intra_pred_blocks(g, blk.start):
        h = last_bound_hint(image, p.start, p.end)
        if h is not None:
            hints.append(h)
    bound = effective_bound(term.b, hints)
    targets, clamped = read_table_targets(image, term.a, bound)
    return bound, targets, clamped


def op_iec(g: Cfg, image: Image, a: Block) -> Cfg:
    """Indirect edge creation: resolve table targets and append edges.
    An opaque indirect jump contributes nothing."""
    blk = g.blocks.get(a.start)
    if blk is None:
        raise InternalError(f"no block at 0x{a.start:x}")
    term = blk.terminator
    if term is None or term.kind not in _INDIRECT_TERMS:
        raise NotIndirectTerminatorError(f"block at 0x{a.start:x}")
    if term.kind is Opcode.IJMP_OPAQUE:
        return g
    _, targets, _ = resolve_indirect_targets(g, image, blk)
    out = g.clone()
    for t in targets:
        out.edges.add(Edge(blk.start, t, EdgeKind.INDIRECT))
        _link(out, t)
    return out


def _reaches(g: Cfg, source: int, goal: int, exclude: Edge | None) -> bool:
    """Whether `goal` is reachable from `source` over intra-procedural
    edges, optionally ignoring one edge (compared by endpoints)."""
    seen = {source}
    work = deque([source])
    while work:
        cur = work.popleft()
        if cur == goal:
            return True
        if cur not in g.blocks:
            continue
        for e in g.edges:
            if e.source != cur or e.kind not in INTRA_EDGE_KINDS:
                continue
            if exclude is not None and e.source == exclude.source and e.target == exclude.target:
                continue
            if e.target not in seen:
                seen.add(e.target)
                work.append(e.target)
    return goal in seen


def _has_teardown(image: Image, blk: Block) -> bool:
    addr = blk.start
    while addr < blk.end:
        ins = decode_at(image.text, image.text_base, addr)
        if ins.kind is Opcode.FRAME_TEARDOWN:
            return True
        addr += ins.length
    return False


def _relabel(g: Cfg, e: Edge, kind: EdgeKind) -> Cfg:
    out = g.clone()
    out.edges.discard(e)
    out.edges.add(Edge(e.source, e.target, kind))
    return out


def op_fei(g: Cfg, image: Image, e: Edge, context_entry: int | None = None) -> Cfg:
    """Function entry identification.

    Call edges label their target trivially. For an unconditional branch
    the heuristics run in order: a branch to a known entry is a tail
    call; a branch to a block already reachable inside the current
    function is not; a branch preceded by frame teardown in its block is
    a tail call and labels its target. `context_entry` names the
    function under analysis; when omitted it is inferred as any entry
    that reaches the edge source.
    """
    if e not in g.edges:
        raise EdgeNotFoundError(f"0x{e.source:x} -> 0x{e.target:x}")
    if e.kind is EdgeKind.CALL:
        if e.target not in g.entries:
            out = g.clone()
            out.entries[e.target] = FunctionEntry(
                e.target, None, ReturnStatus.UNSET, seed=False
            )
            return out
        return g
    if e.kind is not EdgeKind.DIRECT:
        return g

    if e.target in g.entries:
        return _relabel(g, e, EdgeKind.TAIL_CALL)

    if context_entry is not None:
        contexts = [context_entry] if context_entry in g.entries else []
    else:
        contexts = [f for f in sorted(g.entries) if _reaches(g, f, e.source, exclude=e)]
    for f in contexts:
        if _reaches(g, f, e.target, exclude=e):
            return g

    if _has_teardown(image, g.blocks[e.source]):
        out = _relabel(g, e, EdgeKind.TAIL_CALL)
        if e.target not in out.entries:
            out.entries[e.target] = FunctionEntry(
                e.target, None, ReturnStatus.UNSET, seed=False
            )
        return out
    return g


def op_er(g: Cfg, e: Edge) -> Cfg:
    """Edge removal: drop the edge plus every block, candidate, and edge
    no longer reachable from any function entry."""
    if e not in g.edges:
        raise EdgeNotFoundError(f"0x{e.source:x} -> 0x{e.target:x}")
    kept = g.edges - {e}
    adj: dict[int, list[int]] = {}
    for ed in kept:
        adj.setdefault(ed.source, []).append(ed.target)
    seen: set[int] = set()
    work = deque(g.entries.keys())
    seen.update(g.entries.keys())
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
        ed
        for ed in kept
        if ed.source in blocks and (ed.target in blocks or ed.target in candidates)
    }
    return Cfg(blocks, candidates, edges, dict(g.entries))


class _SerialDriver:
    """Deterministic FIFO construction over the pure operations."""

    def __init__(self, image: Image):
        self.image = image
        self.g = Cfg()
        self.registry = TableRegistry()
        self.queue: deque[tuple[int, int]] = deque()
        self.visited: dict[int, set[int]] = {}
        self.dec_done: set[int] = set()
        # callee entry -> call-site end -> interested functions
        self.ft_waiters: dict[int, dict[int, set[int]]] = {}
        # callee entry -> functions whose branch tail-calls it
        self.tail_waiters: dict[int, set[int]] = {}

    # -- status handling ------------------------------------------------

    def _set_status(self, addr: int, status: ReturnStatus) -> None:
        cur = self.g.entries[addr].status
        if cur is not ReturnStatus.UNSET:
            if status is ReturnStatus.RETURN and cur is ReturnStatus.RETURN:
                return
            raise AlreadySetError(f"0x{addr:x}: {cur.value} -> {status.value}")
        self.g.entries[addr] = replace(self.g.entries[addr], status=status)
        ft = self.ft_waiters.pop(addr, {})
        tails = self.tail_waiters.pop(addr, set())
        if status is ReturnStatus.RETURN:
            for call_end in sorted(ft):
                src = _block_by_end(self.g, call_end)
                if src is None:
                    raise InternalError(f"no call block ending at 0x{call_end:x}")
                self.g = op_cfec(self.g, Edge(src.start, addr, EdgeKind.CALL), status)
                for fn in sorted(ft[call_end]):
                    self.queue.append((fn, call_end))
            for fn in sorted(tails):
                self._set_status_return_if_unset(fn)

    def _set_status_return_if_unset(self, addr: int) -> None:
        if self.g.entries[addr].status is ReturnStatus.UNSET:
            self._set_status(addr, ReturnStatus.RETURN)

    # -- function bookkeeping --------------------------------------------

    def _ensure_traversal(self, addr: int) -> None:
        if addr not in self.visited:
            self.visited[addr] = set()
            self.queue.append((addr, addr))

    def _tail_interest(self, fn: int, target: int) -> None:
        self._ensure_traversal(target)
        status = self.g.entries[target].status
        if status is ReturnStatus.RETURN:
            self._set_status_return_if_unset(fn)
        elif status is ReturnStatus.UNSET:
            self.tail_waiters.setdefault(target, set()).add(fn)

    def _process_call_site(self, fn: int, blk: Block, callee: int) -> None:
        status = self.g.entries[callee].status
        if status is ReturnStatus.RETURN:
            self.g = op_cfec(self.g, Edge(blk.start, callee, EdgeKind.CALL), status)
            self.queue.append((fn, blk.end))
        elif status is ReturnStatus.UNSET:
            self.ft_waiters.setdefault(callee, {}).setdefault(blk.end, set()).add(fn)

    # -- jump tables ------------------------------------------------------

    def _refresh_block_table(self, blk: Block) -> set[int]:
        desc = self.registry.get(blk.terminator.a)
        bound, _, _ = resolve_indirect_targets(self.g, self.image, blk)
        new = update_descriptor(desc, self.image, bound)
        if new:
            self.g = op_iec(self.g, self.image, blk)
        return new

    def _table_sweep(self) -> bool:
        changed = False
        for desc in self.registry.sorted_descriptors():
            blk = _block_by_end(self.g, desc.jump_end)
            if blk is None:
                raise InternalError(f"no block ends at 0x{desc.jump_end:x}")
            new = self._refresh_block_table(blk)
            if not new:
                continue
            for fn in sorted(desc.interested):
                for t in sorted(new):
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
            self.g = op_ber(self.g, self.image, t)
        elif t not in self.g.blocks:
            raise InternalError(f"0x{t:x} is neither candidate nor block start")
        blk = self.g.blocks[t]
        term = blk.terminator

        if term is None:
            for e in _outgoing(self.g, t):
                self.queue.append((fn, e.target))
            return

        kind = term.kind
        if kind in (Opcode.JMP_DIRECT, Opcode.JCC_DIRECT):
            if blk.end not in self.dec_done:
                self.dec_done.add(blk.end)
                before = set(self.g.edges)
                self.g = op_dec(self.g, blk)
                created = sorted(
                    self.g.edges - before, key=lambda e: (e.target, int(e.kind))
                )
                for e in created:
                    if e.kind is EdgeKind.DIRECT:
                        self.g = op_fei(self.g, self.image, e, context_entry=fn)
            blk = self.g.blocks[t]
            for e in _outgoing(self.g, t):
                if e.kind is EdgeKind.TAIL_CALL:
                    self._tail_interest(fn, e.target)
                elif e.kind in (
                    EdgeKind.DIRECT,
                    EdgeKind.COND_TAKEN,
                    EdgeKind.COND_FALLTHROUGH,
                ):
                    self.queue.append((fn, e.target))
        elif kind is Opcode.CALL:
            callee = term.a
            if blk.end not in self.dec_done:
                self.dec_done.add(blk.end)
                self.g = op_dec(self.g, blk)
                self.g = op_fei(
                    self.g, self.image, Edge(blk.start, callee, EdgeKind.CALL)
                )
                self._ensure_traversal(callee)
            self._process_call_site(fn, blk, callee)
        elif kind is Opcode.RET:
            self._set_status_return_if_unset(fn)
        elif kind is Opcode.IJMP_TABLE:
            desc = self.registry.get_or_create(term.a, term.b, blk.end)
            desc.interested.add(fn)
            if blk.end not in self.dec_done:
                self.dec_done.add(blk.end)
                self._refresh_block_table(blk)
            for e in _outgoing(self.g, t):
                if e.kind is EdgeKind.INDIRECT:
                    self.queue.append((fn, e.target))
        elif kind is Opcode.IJMP_OPAQUE:
            if blk.end not in self.dec_done:
                self.dec_done.add(blk.end)
                self.g = op_iec(self.g, self.image, blk)
        # HALT and the synthesized end-of-text terminator have no successors

    def _seed(self) -> None:
        facts = symbol_facts(self.image)
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
        from .finalize import finalize

        return finalize(self.g, self.image, self.registry)


def serial_construct(image: Image) -> Cfg:
    """Build the finalized CFG single-threaded. This is the oracle the
    concurrent constructor is compared against byte-for-byte."""
    return _SerialDriver(image).run()


def serial_construct_details(image: Image) -> tuple[Cfg, TableRegistry]:
    driver = _SerialDriver(image)
    cfg = driver.run()
    return cfg, driver.registry
