"""Multi-worker CFG construction.

Workers cooperate over shared state under five guarantees: one block per
start address (single-winner insertion), one block per end address
(single-winner end registration), outgoing edges created only by the
thread that registered the end, an eager block split inside the one end
registration loop whenever two blocks reach the same end, and one
function per entry address. Linear parsing runs with no global lookups
between control flow instructions.

Return statuses resolve eagerly in one direction only: the first return
instruction found anywhere in a function marks it returning immediately
and wakes every caller blocked on a call fall-through, without waiting
for the callee's traversal to finish. Functions that never prove they
return stay unresolved until global quiescence, where the remaining
ones (mutual-call cycles included) are all marked non-returning at
once. A jump is classified once per visit, before its block's end is
registered, so the edge it creates and the walk that follows agree. A
branch classified as a tail call makes the branching function wait on
its target the same way a caller waits on a callee, in the same waiter
set, which keeps statuses independent of which thread classified the
branch first.

Work is scheduled as one task per function traversal on a fixed pool of
threads sharing one C-level `queue.SimpleQueue`. A worker that is
already running takes the next task before a sleeping one wakes: a put
wakes at most one sleeper, which then waits for the GIL, so sleepers
wake about once per GIL switch interval, not once per task. The count
of unfinished tasks is a list that spawns append to and finished tasks
pop from, both atomic; a lock around it convoys, because once a worker
is preempted while holding it every later acquisition blocks and
switches threads. The thread driving quiescence sleeps on a condition
no worker waits on, woken only by the worker that finishes the last
task or records the first error, and never polls.

A worker's error ends the run: tasks spawned or still queued after the
first error never run, and every worker is joined before `run` raises
it.

Block ends are guarded by a fixed table of `_END_STRIPES` locks: end `e`
by stripe `e % _END_STRIPES`, and a table descriptor by the stripe of
its jump end. Every read-modify-write of one end (registration, the call
fall-through edge, a table refresh) holds that end's stripe and takes no
other end lock while it does: the split loop releases one end before it
takes the next. A function record has one lock, over its worklist,
status and waiter set. No thread takes an engine lock while it holds
another: a status write releases its record's lock before it wakes the
waiters, a waiter holds only its target's lock, and an enqueue holds
only its own record's lock while it spawns. So two ends that share a
stripe serialize but cannot deadlock, and neither can records.

A function record holds state only while it uses it. Its worklist is
created under the record lock by the first enqueue and handed whole to
the drain, so a drained function holds none. Its waiter set is created
by the first waiter and dropped when its status is written; a status is
written once, so no set is made again. Its set of visited addresses
lasts until quiescence.

A table jump's table is refreshed at each visit of the jump and in the
quiescence sweep, by `refresh_table`, the rule the serial oracle
refreshes by too: tables only grow, so any order of refreshes reaches
the same fixed point.

`ConcurrentCfgState.run` is the engine's one driver: it traverses to
quiescence and exports the raw graph. `construct_details` is the one
place that finalizes it, after dropping the whole state, so
finalization runs in the memory the engine held. The finalized graph
is required to match the single-threaded reference constructor
byte-for-byte under any worker count and schedule; the
finalization pass erases the only schedule-visible differences (tail
call labels and heuristic entry labels).
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, fields

from .cfg import (
    EDGE_KINDS,
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
from .errors import AlreadySetError, InternalError, OutOfRangeError
from .finalize import EdgeIndex, finalize_details
from .image import Image
from .isa import LENGTHS, Instruction, Opcode
from .jumptables import TableRegistry, last_bound_hint, log_clamped_tables, refresh_table
from .symtab import symbol_facts

_INTRA_INTS = frozenset(int(k) for k in INTRA_EDGE_KINDS)
_NO_TERM = -2
_SYNTH_HALT = -1
#: the site of a tail-call waiter; a call-site waiter's site is the
#: call block's end
_TAIL_SITE = -1
# bound once: an enum class attribute lookup costs ~0.1 us, and every
# `ret` visit compares against it
_UNSET = ReturnStatus.UNSET

_DIRECT = int(EdgeKind.DIRECT)
_COND_TAKEN = int(EdgeKind.COND_TAKEN)
_COND_FALLTHROUGH = int(EdgeKind.COND_FALLTHROUGH)
_CALL_EDGE = int(EdgeKind.CALL)
_CALL_FALLTHROUGH = int(EdgeKind.CALL_FALLTHROUGH)
_INDIRECT = int(EdgeKind.INDIRECT)
_TAIL_CALL = int(EdgeKind.TAIL_CALL)

_JMP = int(Opcode.JMP_DIRECT)
_JCC = int(Opcode.JCC_DIRECT)
_CALL = int(Opcode.CALL)
_RET = int(Opcode.RET)
_TABLE = int(Opcode.IJMP_TABLE)
_OPAQUE = int(Opcode.IJMP_OPAQUE)
_HALT = int(Opcode.HALT)

#: Opcode members indexed by their value
_OPCODES = {int(op): op for op in Opcode}

#: How many locks guard block ends: end `e` is guarded by stripe
#: `e % _END_STRIPES`
_END_STRIPES = 64


class _EngineBlock:
    __slots__ = ("start", "end", "term", "ta", "tb", "hint_at", "hint", "out")

    def __init__(self, start: int):
        self.start = start
        self.end = 0
        self.term = _NO_TERM
        self.ta = 0
        self.tb = 0
        # what the scan that set `end` saw in [start, end): the address
        # and immediate of the last bound hint (-1 and None when it saw
        # none)
        self.hint_at = -1
        self.hint: int | None = None
        # (target, kind) -> None; append-only during traversal except for
        # moves performed under the end's stripe lock
        self.out: dict[tuple[int, int], None] = {}


class _FuncRecord:
    __slots__ = (
        "entry",
        "lock",
        "pending",
        "active",
        "visited",
        "status",
        "waiters",
    )

    def __init__(self, entry: int, status: ReturnStatus):
        self.entry = entry
        self.lock = threading.Lock()
        # the worklist, only while it has work (see the module docstring)
        self.pending: deque[int] | None = None
        self.active = False
        # dropped at quiescence
        self.visited: set[int] | None = set()
        self.status = status
        # (waiting function, call-site end or _TAIL_SITE), from the first
        # waiter until the status is written
        self.waiters: set[tuple[int, int]] | None = None


@dataclass(slots=True)
class EngineStats:
    blocks_created: int = 0
    block_claim_losses: int = 0
    end_registrations: int = 0
    end_registration_losses: int = 0
    splits_performed: int = 0
    functions_created: int = 0
    function_claim_losses: int = 0
    waiters_registered: int = 0
    finalize_flips: int = 0
    finalize_iterations: int = 0
    raw_edge_count: int = 0
    tables_clamped: int = 0
    init_seconds: float = 0.0
    traversal_seconds: float = 0.0
    export_seconds: float = 0.0
    finalize_seconds: float = 0.0


class _TaskPool:
    """Runs tasks, and the tasks they spawn, on a fixed set of worker
    threads. A worker's first error is the one `wait_idle` raises; tasks
    spawned or still queued after it never run."""

    def __init__(self, workers: int):
        self._q: queue.SimpleQueue = queue.SimpleQueue()
        # one item per spawned task that has not finished: appends and
        # pops are atomic, so counting takes no lock
        self._unfinished: list[None] = []
        # only `wait_idle` sleeps on this condition
        self._idle = threading.Condition(threading.Lock())
        self._stop = False
        self._error: BaseException | None = None
        self._threads = [
            threading.Thread(target=self._run, args=(i,), daemon=True)
            for i in range(workers)
        ]
        #: one per worker, which counts into it alone
        self.ctxs = [EngineStats() for _ in range(workers)]

    def start(self) -> None:
        for t in self._threads:
            t.start()

    def spawn(self, task) -> None:
        # a spawn that races the first error still queues its task, and
        # the worker that takes it drops it
        if self._stop:
            return
        self._unfinished.append(None)
        self._q.put(task)

    def _run(self, idx: int) -> None:
        ctx = self.ctxs[idx]
        get = self._q.get
        unfinished = self._unfinished
        while True:
            task = get()
            if task is None:
                return
            if self._stop:
                continue
            try:
                task(ctx)
            except BaseException as exc:  # surfaced by wait_idle
                with self._idle:
                    if self._error is None:
                        self._error = exc
                        self._stop = True
                        self._idle.notify()
                continue
            unfinished.pop()
            # tasks spawn only while they run, so once the list is empty
            # only the thread driving quiescence, which is not waiting
            # then, refills it: the last task's worker sees it empty, and
            # a second notify is harmless
            if not unfinished:
                with self._idle:
                    self._idle.notify()

    def wait_idle(self) -> None:
        with self._idle:
            while self._unfinished and self._error is None:
                self._idle.wait()
            if self._error is not None:
                raise self._error

    def shutdown(self) -> None:
        self._stop = True
        for _ in self._threads:
            self._q.put(None)
        for t in self._threads:
            t.join()


class ConcurrentCfgState:
    """Shared construction state plus the engine operating on it."""

    def __init__(self, image: Image, workers: int):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.image = image
        # bound once: `Image.text_end` is a property, and every visit reads it
        self._text_base = image.text_base
        self._text_end = image.text_end
        self.workers = workers
        self.blocks_by_start: dict[int, _EngineBlock] = {}
        self.blocks_by_end: dict[int, _EngineBlock] = {}
        self._end_locks = tuple(threading.Lock() for _ in range(_END_STRIPES))
        self.functions: dict[int, _FuncRecord] = {}
        # block start -> ends of its intra-procedural predecessors
        self.incoming: dict[int, list[int]] = {}
        self.registry = TableRegistry()
        self.symbols = symbol_facts(image)
        self.pool = _TaskPool(workers)
        self._running = False

    # -- invariant primitives ---------------------------------------------

    def attempt_create_block(self, addr: int, ctx: EngineStats) -> bool:
        """Single-winner claim of the block starting at `addr`. True means
        the caller owns parsing of that block."""
        blk = _EngineBlock(addr)
        if self.blocks_by_start.setdefault(addr, blk) is blk:
            ctx.blocks_created += 1
            return True
        ctx.block_claim_losses += 1
        return False

    def attempt_create_function(self, addr: int, ctx: EngineStats) -> bool:
        """Single-winner creation of the function record at `addr`; the
        winner's traversal is queued immediately."""
        if addr in self.functions:
            ctx.function_claim_losses += 1
            return False
        status = ReturnStatus.NORETURN if addr in self.symbols.noreturn else ReturnStatus.UNSET
        rec = _FuncRecord(addr, status)
        if self.functions.setdefault(addr, rec) is not rec:
            ctx.function_claim_losses += 1
            return False
        ctx.functions_created += 1
        self._enqueue_addr(rec, addr)
        return True

    def register_block_end(self, block: _EngineBlock, tail: bool, ctx: EngineStats) -> None:
        """Single-winner end registration with the eager block split. The
        first block at an end creates its outgoing edges while holding
        the end's stripe lock (a block cut short has none to create); a
        jump's edge is a tail call when `tail`, the branch's class. A
        block that finds another at its end splits with it: the later
        start keeps the end and the other block is cut to end there, then
        registered at that strictly smaller end, so the loop converges; a
        cut that would not shorten the end raises `InternalError`. Each
        round releases one end's lock before it takes the next."""
        cur = block
        lost = False
        by_end = self.blocks_by_end
        locks = self._end_locks
        while True:
            end = cur.end
            with locks[end % _END_STRIPES]:
                reg = by_end.get(end)
                if reg is None:
                    by_end[end] = cur
                    ctx.end_registrations += 1
                    self._create_edges_locked(cur, tail)
                    return
                if reg is cur or reg.start == cur.start:
                    return
                if not lost:
                    lost = True
                    ctx.end_registration_losses += 1
                cut = max(reg.start, cur.start)
                if cut >= end:
                    raise InternalError(
                        f"0x{end:x}: splitting at 0x{cut:x} does not shorten the block"
                    )
                if reg.start > cur.start:
                    self._truncate(cur, cut)
                else:
                    cur.out.update(reg.out)
                    cur.term, cur.ta, cur.tb = reg.term, reg.ta, reg.tb
                    by_end[end] = cur
                    self._truncate(reg, cut)
                    cur = reg
                ctx.splits_performed += 1

    def _truncate(self, b: _EngineBlock, new_end: int) -> None:
        # a truncated block keeps only the fall-through into its successor
        b.end = new_end
        b.term = _NO_TERM
        b.ta = 0
        b.tb = 0
        b.out = {(new_end, _COND_FALLTHROUGH): None}
        self.incoming.setdefault(new_end, []).append(new_end)

    # -- edges ---------------------------------------------------------------

    def _add_edge_locked(self, block: _EngineBlock, target: int, kind: int) -> None:
        key = (target, kind)
        if key in block.out:
            return
        block.out[key] = None
        # only table refreshes read predecessors, and only intra ones
        if kind in _INTRA_INTS:
            self.incoming.setdefault(target, []).append(block.end)

    def _create_edges_locked(self, block: _EngineBlock, tail: bool) -> None:
        term = block.term
        if term == _JMP:
            self._add_edge_locked(block, block.ta, _TAIL_CALL if tail else _DIRECT)
        elif term == _JCC:
            self._add_edge_locked(block, block.ta, _COND_TAKEN)
            self._add_edge_locked(block, block.end, _COND_FALLTHROUGH)
        elif term == _CALL:
            self._add_edge_locked(block, block.ta, _CALL_EDGE)

    def _ensure_cfec(self, call_end: int) -> None:
        """Idempotently create the call fall-through edge at a call site.
        Skipped while the call block's end is unregistered; the registrant
        re-checks the callee status right after registering."""
        with self._end_locks[call_end % _END_STRIPES]:
            blk = self.blocks_by_end.get(call_end)
            if blk is not None:
                self._add_edge_locked(blk, call_end, _CALL_FALLTHROUGH)

    # -- tail call classification -------------------------------------------

    def _reaches_intra(self, source: int, goal: int, exclude: tuple[int, int]) -> bool:
        seen = {source}
        work = deque([source])
        while work:
            cur = work.popleft()
            if cur == goal:
                return True
            b = self.blocks_by_start.get(cur)
            if b is None:
                continue
            for tgt, kind in list(b.out):
                if kind not in _INTRA_INTS:
                    continue
                if (cur, tgt) == exclude:
                    continue
                if tgt not in seen:
                    seen.add(tgt)
                    work.append(tgt)
        return False

    def _classify_branch(self, fn: _FuncRecord, src: int, target: int, teardown: bool) -> bool:
        """Tail-call heuristics in order: branch to a known entry; branch
        to a block already reachable inside this function; frame teardown
        before the branch (`teardown`, from the scan of the source block)."""
        if target in self.functions:
            return True
        if self._reaches_intra(fn.entry, target, (src, target)):
            return False
        return teardown

    # -- return status ---------------------------------------------------------

    def _set_status(self, entry: int, status: ReturnStatus, strict: bool) -> None:
        """Single-assignment status write with eager caller notification:
        a strict write of a set status raises `AlreadySetError`, and a
        non-strict write (a `ret`, or a tail-call propagation) only
        fills an unset status, so a known-noreturn flag wins over a `ret`
        found in the flagged function, as in the serial oracle."""
        waiters = self._write_status(entry, status, strict)
        if status is ReturnStatus.RETURN and waiters:
            self._wake(waiters)

    def _write_status(
        self, entry: int, status: ReturnStatus, strict: bool
    ) -> set[tuple[int, int]] | None:
        """The status write of `_set_status`; returns the waiters it
        took, or None when it wrote nothing."""
        rec = self.functions[entry]
        # a status is written once, so a set one needs no lock to be seen
        if not strict and rec.status is not _UNSET:
            return None
        with rec.lock:
            cur = rec.status
            if cur is not _UNSET:
                if not strict:
                    return None
                raise AlreadySetError(f"0x{entry:x}: {cur.value} -> {status.value}")
            rec.status = status
            waiters = rec.waiters
            rec.waiters = None
        return waiters

    def _wake(self, waiters: set[tuple[int, int]]) -> None:
        """Act on `waiters` of a function that returns, in sorted order:
        a call falls through, and a tail call returns where its target
        does, so its function's own waiters wake before the next waiter
        here. The explicit stack keeps that depth-first order for tail-call
        chains of any length."""
        stack = [iter(sorted(waiters))]
        while stack:
            for fn_addr, site in stack[-1]:
                if site != _TAIL_SITE:
                    self._ensure_cfec(site)
                    self._enqueue_addr(self.functions[fn_addr], site)
                    continue
                woken = self._write_status(fn_addr, ReturnStatus.RETURN, False)
                if woken:
                    stack.append(iter(sorted(woken)))
                    break
            else:
                stack.pop()

    def _await_status(self, ctx: EngineStats, fn: _FuncRecord, target: int, site: int) -> None:
        """`fn` waits on `target`'s return status at `site`, a call-site
        end or `_TAIL_SITE`: it joins the target's waiters while the
        status is unset, and acts at once on a target that returns."""
        rec = self.functions[target]
        with rec.lock:
            val = rec.status
            if val is ReturnStatus.UNSET:
                if rec.waiters is None:
                    rec.waiters = {(fn.entry, site)}
                else:
                    rec.waiters.add((fn.entry, site))
                ctx.waiters_registered += 1
        if val is ReturnStatus.RETURN:
            self._wake({(fn.entry, site)})

    def resolve_status_cycles(self) -> None:
        """At quiescence, every still-unresolved function (cyclic call
        dependencies included) is non-returning; drain their waiters."""
        for addr in sorted(self.functions):
            if self.functions[addr].status is ReturnStatus.UNSET:
                self._set_status(addr, ReturnStatus.NORETURN, strict=True)

    # -- jump tables ---------------------------------------------------------

    def refresh_descriptor(self, desc) -> bool:
        """Refresh one table (`refresh_table`) against its owner's
        currently-known predecessors; add an edge to each target it adds
        and queue those for every interested function. Returns whether it
        added any. The descriptor is guarded by its jump end's stripe
        lock."""
        jump_end = desc.jump_end
        by_end = self.blocks_by_end
        with self._end_locks[jump_end % _END_STRIPES]:
            owner = by_end.get(jump_end)
            if owner is None:
                return False
            hints = []
            for pe in set(self.incoming.get(owner.start, ())):
                pb = by_end.get(pe)
                if pb is None:
                    continue
                h = self._last_hint(pb)
                if h is not None:
                    hints.append(h)
            new = refresh_table(desc, self.image, hints)
            if not new:
                return False
            for t in new:
                self._add_edge_locked(owner, t, _INDIRECT)
            interested = sorted(desc.interested)
        for fi in interested:
            rec = self.functions[fi]
            for t in new:
                self._enqueue_addr(rec, t)
        return True

    def _last_hint(self, b: _EngineBlock) -> int | None:
        """`last_bound_hint` over the block's current range, read from its
        scan unless a split cut the block short before its recorded hint,
        in which case the shorter range is scanned again."""
        end = b.end
        if b.hint_at < end:
            return b.hint
        return last_bound_hint(self.image, b.start, end)

    def _global_table_sweep(self) -> bool:
        changed = False
        for desc in self.registry.sorted_descriptors():
            if self.refresh_descriptor(desc):
                changed = True
        return changed

    # -- work scheduling -------------------------------------------------------

    def _enqueue_addr(self, rec: _FuncRecord, addr: int) -> None:
        if addr in rec.visited:
            return
        with rec.lock:
            pending = rec.pending
            if pending is None:
                rec.pending = deque((addr,))
            else:
                pending.append(addr)
            if not rec.active and self._running:
                rec.active = True
                self.pool.spawn(lambda ctx, r=rec: self.traverse_function(r, ctx))

    def traverse_function(self, rec: _FuncRecord, ctx: EngineStats) -> None:
        """Drain one function's worklist; going idle drops it. The drain
        takes the whole worklist in one lock acquisition and queues the
        function's own direct successors on a local FIFO.
        Wake-ups and table targets still arrive in the worklist, which
        is moved to the FIFO's tail after each visit that finds it
        non-empty. A visit adds successors or worklist entries, never
        both, so one worker drains addresses in the order they were
        queued, as through one shared worklist."""
        process = self._process
        while True:
            with rec.lock:
                work = rec.pending
                rec.pending = None
            while work:
                process(ctx, rec, work.popleft(), work)
                if rec.pending:
                    with rec.lock:
                        work.extend(rec.pending)
                        rec.pending = None
            with rec.lock:
                if not rec.pending:
                    rec.active = False
                    return

    # -- per-address dispatch ----------------------------------------------------

    def _process(self, ctx: EngineStats, fn: _FuncRecord, addr: int, work: deque[int]) -> None:
        """Visit `addr` in `fn`, appending its direct successors that the
        function has not visited to `work`."""
        if not self._text_base <= addr < self._text_end:
            raise OutOfRangeError(addr)
        visited = fn.visited
        if addr in visited:
            return
        visited.add(addr)

        claimed = self.attempt_create_block(addr, ctx)
        end, kind, a, b, teardown, hint_at, hint = scan_block(
            self.image.text, self.image.text_base, addr
        )
        # classified once, before registration: the edge and the walk
        # follow the same class, and no stripe is held while it is found
        tail = kind == _JMP and self._classify_branch(fn, addr, a, teardown)
        if claimed:
            blk = self.blocks_by_start[addr]
            blk.end = end
            blk.term = kind if kind != -1 else _SYNTH_HALT
            blk.ta = a
            blk.tb = b
            blk.hint_at = hint_at
            blk.hint = hint
            self.register_block_end(blk, tail, ctx)

        if kind == _JMP:
            if tail:
                self.attempt_create_function(a, ctx)
                self._await_status(ctx, fn, a, _TAIL_SITE)
            elif a not in visited:
                work.append(a)
        elif kind == _JCC:
            if a not in visited:
                work.append(a)
            if end not in visited:
                work.append(end)
        elif kind == _CALL:
            self.attempt_create_function(a, ctx)
            self._await_status(ctx, fn, a, end)
        elif kind == _RET:
            self._set_status(fn.entry, ReturnStatus.RETURN, strict=False)
        elif kind == _TABLE:
            desc = self.registry.get_or_create(a, b, end)
            with self._end_locks[desc.jump_end % _END_STRIPES]:
                desc.interested.add(fn.entry)
                known = sorted(desc.targets)
            for t in known:
                self._enqueue_addr(fn, t)
            self.refresh_descriptor(desc)
        # opaque jumps, halts, and running off text end have no successors

    # -- drive to completion --------------------------------------------------

    def run(self) -> tuple[Cfg, EngineStats]:
        """Traverse to quiescence and export the raw graph, before
        finalization. The state stays readable afterwards."""
        stats = EngineStats()
        t0 = time.perf_counter()
        self._running = True
        self.pool.start()
        try:
            seeds = self.symbols.seeds
            step = max(1, (len(seeds) + self.workers - 1) // self.workers)
            for i in range(0, len(seeds), step):
                chunk = seeds[i : i + step]
                self.pool.spawn(
                    lambda ctx, c=chunk: [self.attempt_create_function(a, ctx) for a in c]
                )
            t1 = time.perf_counter()
            stats.init_seconds = t1 - t0

            while True:
                self.pool.wait_idle()
                if self._global_table_sweep():
                    continue
                if any(rec.status is ReturnStatus.UNSET for rec in self.functions.values()):
                    self.resolve_status_cycles()
                    continue
                break
        finally:
            self.pool.shutdown()
        # nothing visits after quiescence: free the per-function visit sets
        # before the export, the engine's memory peak
        for rec in self.functions.values():
            rec.visited = None
        t2 = time.perf_counter()
        stats.traversal_seconds = t2 - t1

        for ctx in self.pool.ctxs:
            for f in fields(EngineStats):
                setattr(stats, f.name, getattr(stats, f.name) + getattr(ctx, f.name))
        stats.tables_clamped = log_clamped_tables(self.registry, self.image)
        cfg = self.export_cfg()
        stats.raw_edge_count = len(cfg.edges)
        stats.export_seconds = time.perf_counter() - t2
        return cfg, stats

    # -- export ---------------------------------------------------------------

    def export_cfg(self) -> Cfg:
        blocks: dict[int, Block] = {}
        for s, b in self.blocks_by_start.items():
            if b.term == _NO_TERM:
                term = None
            elif b.term == _SYNTH_HALT:
                term = Instruction(self.image.text_end, Opcode.HALT, 1)
            else:
                op = _OPCODES[b.term]
                term = Instruction(b.end - LENGTHS[op], op, LENGTHS[op], b.ta, b.tb)
            blocks[s] = Block(b.start, b.end, term)
        # a target no block starts at is a candidate: only a split drops
        # out-edges, and what it drops leads to a block start
        edges = set()
        candidates = set()
        for b in self.blocks_by_start.values():
            for t, k in b.out:
                edges.add(Edge(b.start, t, EDGE_KINDS[k]))
                if t not in blocks:
                    candidates.add(t)
        # every seed has a name, so the name map doubles as the seed set
        names = self.symbols.names
        entries = {
            a: FunctionEntry(a, names.get(a), rec.status, a in names)
            for a, rec in self.functions.items()
        }
        return Cfg(blocks, candidates, edges, entries)


def construct(image: Image, workers: int) -> Cfg:
    """Build the finalized CFG with `workers` cooperating workers. Output
    is identical to `serial_construct` for every worker count."""
    return construct_details(image, workers)[0]


def construct_details(image: Image, workers: int) -> tuple[Cfg, EngineStats, TableRegistry]:
    """Build and finalize the CFG; the one place the engine's graph is
    finalized."""
    # every engine object stays live until the state is dropped, so a
    # collection before then would find nothing to free; the state is
    # dropped before finalize, so finalize reuses its memory, and the
    # first collection after the pause walks the finished graph alone
    with COLLECTOR_PAUSE:
        state = ConcurrentCfgState(image, workers)
        cfg, stats = state.run()
        registry = state.registry
        del state
        t = time.perf_counter()
        fstats = finalize_details(cfg, registry, EdgeIndex(cfg.edges))
        stats.finalize_flips = fstats.flips
        stats.finalize_iterations = fstats.iterations
        stats.finalize_seconds = time.perf_counter() - t
    return cfg, stats, registry
