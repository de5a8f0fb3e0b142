"""Multi-worker CFG construction.

Workers cooperate over shared state under five guarantees: one block per
start address (single-winner insertion), one block per end address
(single-winner end registration), outgoing edges created only by the
thread that registered the end, an eager block split inside the one end
registration loop whenever two blocks reach the same end, and one
function per entry address. A block that loses its end to a later start
is cut once, at the lowest start above its own in the blocks that fall
into that end, so a block inserted below known starts does not split its
way down through them. Linear parsing runs with no global lookups
between control flow instructions.

The engine walks blocks, not functions. The first visitor of an address
claims, scans and registers its block, and the registration that creates
the block's edges handles its successors: it pushes branch targets onto
its worker's local stack, and creates, pushes and waits on the function
its call names. So each block is scanned once, and each terminator's
successors are handled once. During traversal a jump is a tail call only
into a flagged seed, which the symbol table names before the pool
starts; every other jump is a plain intra-procedural edge. The export
applies `pcfg.serial.op_fei` once to each plain jump, on its finished
block, so no label depends on the visit order. Tasks are batches of
addresses: `_SEED_BATCH` seeds, or the targets a table refresh adds.

"A `ret` is reachable from here" only turns from false to true, so
return statuses are a backward fixed point over `incoming`, the
intra-procedural predecessors of each block start. A block returns when
it ends in `ret` or has an intra-procedural successor that returns. Its
start then goes on one shared worklist, which marks it once, pushes its
predecessors, writes RETURN for an entry (a noreturn flag wins) and
gives each call site waiting on the entry its fall-through edge, which
is then visited, so nothing recurses. No mark is missed: the worklist
marks a start before it reads its predecessors, and every writer
re-checks after it writes. An end registration re-checks the blocks it
registered, which hands a split block's mark to the block that keeps the
end; a new call fall-through or table target re-checks its block; a new
function record reads its entry's mark. Entries still unset at
quiescence, call cycles included, become non-returning at once.

Work is scheduled on a fixed pool of threads sharing one C-level
`queue.SimpleQueue`. A worker that is already running takes the next
task before a sleeping one wakes: a put wakes at most one sleeper, which
then waits for the GIL, so sleepers wake about once per GIL switch
interval, not once per task. The count of unfinished tasks is a list
that spawns append to and finished tasks pop from, both atomic; a lock
around it convoys, because once a worker is preempted while holding it
every later acquisition blocks and switches threads. The thread driving
quiescence sleeps on a condition no worker waits on, woken only by the
worker that finishes the last task or records the first error, and
never polls. A task drains the return worklist before it ends, so the
worklist is empty once the pool is idle.

A worker's error ends the run: tasks spawned or still queued after the
first error never run, and every worker is joined before `run` raises
it.

Block ends are guarded by a fixed table of `_STRIPES` locks: end `e` by
end stripe `e % _STRIPES`, and a table descriptor by the stripe of its
jump end. Every read-modify-write of one end (registration, the call
fall-through edge, a table refresh) holds that end's stripe and takes no
other end lock while it does: the split loop releases one end before it
takes the next. Function records are guarded the same way, by a second
fixed table: the record at entry `a` by record stripe `a % _STRIPES`,
over its status and waiter set. No thread takes an engine lock while it
holds another, so two ends or two records that share a stripe serialize
but cannot deadlock.

A function record holds its status, and a set of waiting call sites
from the first one until its status is written. Nothing is kept per
function or per visit: a walk's state is its worker's stack.

A table is refreshed by `refresh_table`, the serial oracle's rule too,
when its jump's block is registered, and at quiescence while it is
dirty: its owner's start gained a predecessor, a split moved the owner's
start, or its last refresh met an unregistered predecessor end. A
predecessor's split only shortens its range and can only drop its hint,
so a clean table's refresh could not grow its bound; tables only grow,
so any order of refreshes reaches the same fixed point.

`ConcurrentCfgState.run` is the engine's one driver: it traverses to
quiescence and returns the stats, leaving the state readable.
`export_cfg` then moves the state into the raw graph rather than copying
it: it drops the maps the graph does not need (ends, predecessors,
dirty tables, and return marks once read) and pops each block and
function record as it builds that item's graph values, so the state and
the graph never exist in full together. `construct_details` is the one
place that finalizes the graph, after dropping the emptied state, so
finalization runs in the memory the engine held. The raw graph, and so
the finalized one, is required to match the single-threaded reference
constructor byte-for-byte under any worker count and schedule.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, fields
from functools import partial

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
from .jumptables import (
    TableDescriptor,
    TableRegistry,
    last_bound_hint,
    log_clamped_tables,
    refresh_table,
)
from .symtab import symbol_facts

_INTRA_INTS = frozenset(int(k) for k in INTRA_EDGE_KINDS)
_NO_TERM = -2
_SYNTH_HALT = -1
# bound once: an enum class attribute lookup costs ~0.1 us, and every
# status check compares against one
_UNSET = ReturnStatus.UNSET
_RETURN = ReturnStatus.RETURN

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

#: How many locks guard block ends, and how many guard function records:
#: end `e` is guarded by end stripe `e % _STRIPES`, and the record at
#: entry `a` by record stripe `a % _STRIPES`
_STRIPES = 64

#: How many seeds one traversal task starts from
_SEED_BATCH = 128


class _EngineBlock:
    __slots__ = ("start", "end", "term", "ta", "tb", "teardown", "hint_at", "hint", "out")

    def __init__(self, start: int):
        self.start = start
        self.end = 0
        self.term = _NO_TERM
        self.ta = 0
        self.tb = 0
        # what the scan that set `end` saw in [start, end): whether it
        # tore down the frame, and the address and immediate of the last
        # bound hint (-1 and None when it saw none)
        self.teardown = False
        self.hint_at = -1
        self.hint: int | None = None
        # (target, kind) -> None; append-only during traversal except for
        # moves performed under the end's stripe lock
        self.out: dict[tuple[int, int], None] = {}


class _FuncRecord:
    # guarded by the record stripe of its entry
    __slots__ = ("status", "waiters")

    def __init__(self, status: ReturnStatus):
        self.status = status
        # the ends of the call sites waiting on the status, from the first
        # waiter until the status is written
        self.waiters: set[int] | None = None


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
        """Stop and join every worker that started; a `start` that raised
        part way leaves the rest unstarted."""
        self._stop = True
        started = [t for t in self._threads if t.ident is not None]
        for _ in started:
            self._q.put(None)
        for t in started:
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
        self.blocks_by_start: dict[int, _EngineBlock] = {}
        self.blocks_by_end: dict[int, _EngineBlock] = {}
        self._end_locks = tuple(threading.Lock() for _ in range(_STRIPES))
        self.functions: dict[int, _FuncRecord] = {}
        self._record_locks = tuple(threading.Lock() for _ in range(_STRIPES))
        # block start -> ends of its intra-procedural predecessors
        self.incoming: dict[int, list[int]] = {}
        # the starts of blocks known to return, and the return worklist:
        # starts found to return, not yet marked and propagated
        self.returns: set[int] = set()
        self._return_work: list[int] = []
        self.registry = TableRegistry()
        # the tables the quiescence sweep refreshes
        self._dirty: set[TableDescriptor] = set()
        self.symbols = symbol_facts(image)
        self.pool = _TaskPool(workers)

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
        caller that gets True queues the entry's traversal. Once the
        record is published, an entry block already known to return goes
        on the return worklist, which writes the status."""
        if addr in self.functions:
            ctx.function_claim_losses += 1
            return False
        status = ReturnStatus.NORETURN if addr in self.symbols.noreturn else ReturnStatus.UNSET
        rec = _FuncRecord(status)
        if self.functions.setdefault(addr, rec) is not rec:
            ctx.function_claim_losses += 1
            return False
        ctx.functions_created += 1
        if addr in self.returns:
            self._return_work.append(addr)
        return True

    def register_block_end(self, block: _EngineBlock, ctx: EngineStats) -> bool:
        """Single-winner end registration with the eager block split.
        The first block at an end creates its outgoing edges while
        holding the end's stripe lock (a block cut short has none to
        create); a jump's edge is a tail call only into a flagged seed.
        A block that finds another at its end splits with it: the later
        start keeps the end, with the terminator and its edges, and the
        other block is cut to end there, or, if it is the block being
        registered, at the lowest start above its own among the blocks
        that fall into that end; it is then registered at that strictly
        smaller end, so the loop converges; a cut that would not shorten
        the end raises `InternalError`. Each round releases one end's
        lock before it takes the next. Then every block the loop
        registered or handed an end is re-checked for a return, which
        hands a split block's mark to the block that keeps the end.
        Returns whether `block` created its edges, which makes the
        caller the one that handles its successors."""
        cur = block
        lost = False
        created = False
        touched = [block]
        by_end = self.blocks_by_end
        locks = self._end_locks
        while True:
            end = cur.end
            with locks[end % _STRIPES]:
                reg = by_end.get(end)
                if reg is None:
                    by_end[end] = cur
                    ctx.end_registrations += 1
                    self._create_edges_locked(cur)
                    created = not lost
                    break
                if reg is cur or reg.start == cur.start:
                    break
                if not lost:
                    lost = True
                    ctx.end_registration_losses += 1
                cut = max(reg.start, cur.start)
                if cut >= end:
                    raise InternalError(
                        f"0x{end:x}: splitting at 0x{cut:x} does not shorten the block"
                    )
                if reg.start > cur.start:
                    # where cutting at one start after another would stop
                    low = reg
                    while (nxt := by_end.get(low.start)) is not None and nxt.start > cur.start:
                        low = nxt
                    self._truncate(cur, low.start)
                else:
                    cur.out.update(reg.out)
                    cur.term, cur.ta, cur.tb = reg.term, reg.ta, reg.tb
                    by_end[end] = cur
                    if cur.term == _TABLE:
                        # the table's owner now starts at `cur`
                        desc = self.registry.get(end)
                        if desc is not None:
                            self._dirty.add(desc)
                    self._truncate(reg, cut)
                    cur = reg
                    touched.append(reg)
                ctx.splits_performed += 1
        for b in touched:
            if self._returns(b):
                self._return_work.append(b.start)
        return created

    def _truncate(self, b: _EngineBlock, new_end: int) -> None:
        # a truncated block keeps only the fall-through into its successor
        b.end = new_end
        b.term = _NO_TERM
        b.ta = 0
        b.tb = 0
        b.out = {(new_end, _COND_FALLTHROUGH): None}
        self._add_pred(new_end, new_end)

    # -- edges ---------------------------------------------------------------

    def _add_pred(self, start: int, pred_end: int) -> None:
        self.incoming.setdefault(start, []).append(pred_end)
        # a table whose owner starts here may now read one more hint
        owner = self.blocks_by_start.get(start)
        if owner is not None and owner.term == _TABLE:
            desc = self.registry.get(owner.end)
            if desc is not None:
                self._dirty.add(desc)

    def _add_edge_locked(self, block: _EngineBlock, target: int, kind: int) -> None:
        key = (target, kind)
        if key in block.out:
            return
        block.out[key] = None
        # return marks and table refreshes read predecessors, intra ones only
        if kind in _INTRA_INTS:
            self._add_pred(target, block.end)

    def _create_edges_locked(self, block: _EngineBlock) -> None:
        term = block.term
        if term == _JMP:
            kind = _TAIL_CALL if block.ta in self.symbols.noreturn else _DIRECT
            self._add_edge_locked(block, block.ta, kind)
        elif term == _JCC:
            self._add_edge_locked(block, block.ta, _COND_TAKEN)
            self._add_edge_locked(block, block.end, _COND_FALLTHROUGH)
        elif term == _CALL:
            self._add_edge_locked(block, block.ta, _CALL_EDGE)

    def _ensure_cfec(self, call_end: int, stack: list[int]) -> None:
        """Idempotently create the call fall-through edge at a registered
        call site, re-check the call block against it and push the
        fall-through onto `stack`."""
        with self._end_locks[call_end % _STRIPES]:
            blk = self.blocks_by_end[call_end]
            self._add_edge_locked(blk, call_end, _CALL_FALLTHROUGH)
        if call_end in self.returns:
            self._return_work.append(blk.start)
        stack.append(call_end)

    # -- return status ---------------------------------------------------------

    def _returns(self, b: _EngineBlock) -> bool:
        """Whether what block `b` holds now makes it return: a `ret`, or
        an intra-procedural successor known to return."""
        if b.term == _RET:
            return True
        for t, k in list(b.out):
            if k in _INTRA_INTS and t in self.returns:
                return True
        return False

    def _propagate(self, stack: list[int]) -> None:
        """Drain the return worklist: mark each start once and push its
        intra-procedural predecessors, write RETURN for an entry (a
        noreturn flag wins, as in the serial oracle) and give its waiting
        call sites their fall-throughs, pushed onto `stack`."""
        work = self._return_work
        returns = self.returns
        by_end = self.blocks_by_end
        incoming = self.incoming
        while True:
            try:
                s = work.pop()
            except IndexError:
                return
            if s not in returns:
                returns.add(s)
                # a predecessor not registered yet re-checks once it is
                for pe in incoming.get(s, ()):
                    pb = by_end.get(pe)
                    if pb is not None and pb.start not in returns:
                        work.append(pb.start)
            if s in self.functions:
                for site in self._write_status(s, _RETURN, False) or ():
                    self._ensure_cfec(site, stack)

    def _write_status(
        self, entry: int, status: ReturnStatus, strict: bool
    ) -> set[int] | None:
        """Single-assignment status write: a strict write of a set status
        raises `AlreadySetError`, and a non-strict one only fills an
        unset status. Returns the waiters it took, or None when it wrote
        nothing."""
        rec = self.functions[entry]
        # a status is written once, so a set one needs no lock to be seen
        if not strict and rec.status is not _UNSET:
            return None
        with self._record_locks[entry % _STRIPES]:
            cur = rec.status
            if cur is not _UNSET:
                if not strict:
                    return None
                raise AlreadySetError(f"0x{entry:x}: {cur.value} -> {status.value}")
            rec.status = status
            waiters = rec.waiters
            rec.waiters = None
        return waiters

    def _await_status(self, ctx: EngineStats, target: int, site: int, stack: list[int]) -> None:
        """The call ending at `site` waits on `target`'s return status: it
        joins the target's waiters while the status is unset, and gets its
        fall-through at once if the target returns."""
        rec = self.functions[target]
        with self._record_locks[target % _STRIPES]:
            val = rec.status
            if val is _UNSET:
                if rec.waiters is None:
                    rec.waiters = set()
                rec.waiters.add(site)
                ctx.waiters_registered += 1
        if val is _RETURN:
            self._ensure_cfec(site, stack)

    def resolve_status_cycles(self) -> None:
        """At quiescence, every still-unresolved function (cyclic call
        dependencies included) is non-returning; its waiters are dropped."""
        for addr in sorted(self.functions):
            if self.functions[addr].status is _UNSET:
                self._write_status(addr, ReturnStatus.NORETURN, True)

    # -- jump tables ---------------------------------------------------------

    def refresh_descriptor(self, desc: TableDescriptor) -> bool:
        """Refresh one table (`refresh_table`) against the currently-known
        predecessors of its owner, the block holding its jump; add an
        edge to each target the refresh adds, re-check the owner against
        them and queue them as one task. Returns whether it added any.
        Once the descriptor exists, a predecessor added at the owner's
        start marks the table dirty; so does a predecessor end found
        unregistered. The descriptor is guarded by its jump end's stripe
        lock."""
        jump_end = desc.jump_end
        by_end = self.blocks_by_end
        with self._end_locks[jump_end % _STRIPES]:
            owner = by_end[jump_end]
            hints = []
            for pe in set(self.incoming.get(owner.start, ())):
                pb = by_end.get(pe)
                if pb is None:
                    self._dirty.add(desc)
                elif (h := self._last_hint(pb)) is not None:
                    hints.append(h)
            new = refresh_table(desc, self.image, hints)
            if not new:
                return False
            for t in new:
                self._add_edge_locked(owner, t, _INDIRECT)
        if not self.returns.isdisjoint(new):
            self._return_work.append(owner.start)
        self.pool.spawn(partial(self.traverse_function, new))
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
        """Refresh the dirty tables; returns whether any added a target."""
        dirty, self._dirty = self._dirty, set()
        changed = False
        for desc in sorted(dirty, key=lambda d: (d.base, d.jump_end)):
            if self.refresh_descriptor(desc):
                changed = True
        return changed

    # -- traversal -------------------------------------------------------------

    def traverse_function(self, batch: list[int], ctx: EngineStats) -> None:
        """One task: walk from the addresses in `batch`, in order, on a
        local stack, draining the return worklist first whenever it has
        work, until both are empty. Visits push the successors they find,
        and propagation the fall-throughs it wakes."""
        stack = list(reversed(batch))
        work = self._return_work
        visit = self._visit
        while True:
            if work:
                self._propagate(stack)
            elif stack:
                visit(ctx, stack.pop(), stack)
            else:
                return

    def _visit(self, ctx: EngineStats, addr: int, stack: list[int]) -> None:
        """Claim, scan and register the block at `addr` unless one starts
        there, and handle its successors if its registration created its
        edges."""
        blocks = self.blocks_by_start
        if addr in blocks:
            return
        if not self._text_base <= addr < self._text_end:
            raise OutOfRangeError(addr)
        if not self.attempt_create_block(addr, ctx):
            return
        blk = blocks[addr]
        end, kind, a, b, blk.teardown, blk.hint_at, blk.hint = scan_block(
            self.image.text, self._text_base, addr
        )
        blk.end = end
        blk.term = kind if kind != -1 else _SYNTH_HALT
        blk.ta = a
        blk.tb = b
        if not self.register_block_end(blk, ctx):
            return
        if kind == _CALL:
            if self.attempt_create_function(a, ctx):
                stack.append(a)
            self._await_status(ctx, a, end, stack)
        elif kind == _JMP:
            stack.append(a)
        elif kind == _JCC:
            stack.append(a)
            stack.append(end)
        elif kind == _TABLE:
            self.refresh_descriptor(self.registry.get_or_create(a, b, end))
        # the registration marked a `ret`; opaque jumps, halts and running
        # off text end have no successors

    # -- drive to completion --------------------------------------------------

    def run(self) -> EngineStats:
        """Traverse to quiescence and return the stats, the export's and
        finalization's fields left unset. The state stays readable until
        `export_cfg` moves it out."""
        stats = EngineStats()
        t0 = time.perf_counter()
        seeds = self.symbols.seeds
        # every seed's record exists before any task runs
        for addr in seeds:
            self.attempt_create_function(addr, stats)
        try:
            self.pool.start()
            for i in range(0, len(seeds), _SEED_BATCH):
                self.pool.spawn(partial(self.traverse_function, seeds[i : i + _SEED_BATCH]))
            t1 = time.perf_counter()
            stats.init_seconds = t1 - t0

            self.pool.wait_idle()
            while self._global_table_sweep():
                self.pool.wait_idle()
            if any(rec.status is _UNSET for rec in self.functions.values()):
                self.resolve_status_cycles()
        finally:
            self.pool.shutdown()
        stats.traversal_seconds = time.perf_counter() - t1

        for ctx in self.pool.ctxs:
            for f in fields(EngineStats):
                setattr(stats, f.name, getattr(stats, f.name) + getattr(ctx, f.name))
        stats.tables_clamped = log_clamped_tables(self.registry, self.image)
        return stats

    # -- export ---------------------------------------------------------------

    def export_cfg(self) -> Cfg:
        """Move the quiescent state into the raw graph, before finalization.
        The maps the graph does not need are dropped first, and each block
        and function record is popped as its graph values are built, so
        the state and the graph never exist in full together. Afterwards
        the state's maps are empty; the registry is kept.

        On the way, `pcfg.serial.op_fei` labels each plain jump whose
        block tears down the frame a tail call, and its target an entry
        whose status is its block's return mark. A block that still holds
        a jump scanned exactly its own range, as a split hands the end to
        the higher start, whose scan reached it; so the scan's teardown
        flag is the finished block's."""
        self.blocks_by_end.clear()
        self.incoming.clear()
        self._dirty.clear()
        returns = self.returns
        by_start = self.blocks_by_start
        text_end = self._text_end
        blocks: dict[int, Block] = {}
        edges = set()
        candidates = set()
        tail_targets = set()
        # popped in insertion order, the order the graph had when copied
        for s in list(by_start):
            b = by_start.pop(s)
            if b.term == _NO_TERM:
                term = None
            elif b.term == _SYNTH_HALT:
                term = Instruction(text_end, Opcode.HALT, 1)
            else:
                op = _OPCODES[b.term]
                term = Instruction(b.end - LENGTHS[op], op, LENGTHS[op], b.ta, b.tb)
            blocks[s] = Block(s, b.end, term)
            # a target no block starts at is a candidate: only a split
            # drops out-edges, and what it drops leads to a block start
            for t, k in b.out:
                # only a jump's edge is DIRECT
                if k == _DIRECT and b.teardown:
                    k = _TAIL_CALL
                    tail_targets.add(t)
                edges.add(Edge(s, t, EDGE_KINDS[k]))
                if t not in blocks and t not in by_start:
                    candidates.add(t)
        # every seed has a name, so the name map doubles as the seed set
        names = self.symbols.names
        functions = self.functions
        entries = {}
        for a in list(functions):
            rec = functions.pop(a)
            entries[a] = FunctionEntry(a, names.get(a), rec.status, a in names)
        for a in tail_targets.difference(entries):
            status = _RETURN if a in returns else ReturnStatus.NORETURN
            entries[a] = FunctionEntry(a, None, status, False)
        returns.clear()
        return Cfg(blocks, candidates, edges, entries)


def construct(image: Image, workers: int) -> Cfg:
    """Build the finalized CFG with `workers` cooperating workers. Output
    is identical to `serial_construct` for every worker count."""
    return construct_details(image, workers)[0]


def construct_details(image: Image, workers: int) -> tuple[Cfg, EngineStats, TableRegistry]:
    """Build and finalize the CFG; the one place the engine's graph is
    finalized. `run` traverses, `export_cfg` moves the state into the
    raw graph, and the emptied state is dropped before finalization."""
    # every engine object stays live until the export moves it out, so a
    # collection before then would find nothing to free; the export frees
    # the state as it builds the graph, so finalize reuses its memory, and
    # the first collection after the pause walks the finished graph alone
    with COLLECTOR_PAUSE:
        state = ConcurrentCfgState(image, workers)
        stats = state.run()
        t = time.perf_counter()
        cfg = state.export_cfg()
        stats.raw_edge_count = len(cfg.edges)
        stats.export_seconds = time.perf_counter() - t
        registry = state.registry
        del state
        t = time.perf_counter()
        fstats = finalize_details(cfg, registry, EdgeIndex(cfg.edges))
        stats.finalize_flips = fstats.flips
        stats.finalize_iterations = fstats.iterations
        stats.finalize_seconds = time.perf_counter() - t
    return cfg, stats, registry
