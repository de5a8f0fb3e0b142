"""Multi-worker CFG construction.

Workers cooperate over shared state under five guarantees: one block per
start address (single-winner insertion), one block per end address
(single-winner end registration), outgoing edges created only by the
thread that registered the end, losers of end registration resolve the
overlap with an eager block-split loop, and one function per entry
address. Linear parsing runs with no global lookups between control
flow instructions; a per-worker cache of scan results skips re-decoding
ranges the worker has already walked.

Return statuses resolve eagerly in one direction only: the first return
instruction found anywhere in a function marks it returning immediately
and wakes every caller blocked on a call fall-through, without waiting
for the callee's traversal to finish. Functions that never prove they
return stay unresolved until global quiescence, where the remaining
ones (mutual-call cycles included) are all marked non-returning at
once. A branch classified as a tail call makes the branching function
wait on its target the same way a caller waits on a callee, which keeps
statuses independent of which thread classified the branch first.

The finalized graph is required to match the single-threaded reference
constructor byte-for-byte under any worker count and schedule; the
finalization pass erases the only schedule-visible differences (tail
call labels and heuristic entry labels).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

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
from .errors import AlreadySetError
from .finalize import finalize_details
from .image import Image
from .isa import LENGTHS, Instruction, Opcode, decode_at
from .jumptables import (
    TableRegistry,
    effective_bound,
    last_bound_hint,
    refresh_tables,
    update_descriptor,
)
from .symtab import symbol_facts

_INTRA_INTS = frozenset(int(k) for k in INTRA_EDGE_KINDS)
_NO_TERM = -2
_SYNTH_HALT = -1

_JMP = int(Opcode.JMP_DIRECT)
_JCC = int(Opcode.JCC_DIRECT)
_CALL = int(Opcode.CALL)
_RET = int(Opcode.RET)
_TABLE = int(Opcode.IJMP_TABLE)
_OPAQUE = int(Opcode.IJMP_OPAQUE)
_HALT = int(Opcode.HALT)


class _EngineBlock:
    __slots__ = ("start", "end", "term", "ta", "tb", "out")

    def __init__(self, start: int):
        self.start = start
        self.end = 0
        self.term = _NO_TERM
        self.ta = 0
        self.tb = 0
        # (target, kind) -> None; append-only during traversal except for
        # moves performed under the end-entry lock
        self.out: dict[tuple[int, int], None] = {}


class _EndEntry:
    __slots__ = ("lock", "block")

    def __init__(self):
        self.lock = threading.Lock()
        self.block: _EngineBlock | None = None


class _FuncRecord:
    __slots__ = (
        "entry",
        "name",
        "seed",
        "lock",
        "pending",
        "active",
        "visited",
        "table_descs",
        "status_lock",
        "status",
        "ft_waiters",
        "tail_fns",
        "waiter_peak",
    )

    def __init__(self, entry: int, name: str | None, seed: bool, status: ReturnStatus):
        self.entry = entry
        self.name = name
        self.seed = seed
        self.lock = threading.Lock()
        self.pending: deque[int] = deque()
        self.active = False
        self.visited: set[int] = set()
        self.table_descs: set = set()
        self.status_lock = threading.Lock()
        self.status = status
        self.ft_waiters: dict[int, set[int]] = {}  # call-site end -> waiting functions
        self.tail_fns: set[int] = set()  # functions tail-calling here
        self.waiter_peak = 0


class _WorkerCtx:
    """Per-worker scratch: counters and the thread-local scan cache."""

    __slots__ = (
        "scans",
        "cfis",
        "cache_hits",
        "lookups",
        "targets",
        "blocks_created",
        "claim_losses",
        "end_wins",
        "end_losses",
        "splits",
        "fns_created",
        "fn_losses",
        "waiters_registered",
        "per_start",
        "per_end",
        "per_entry",
        "split_chains",
        "discovered",
    )

    def __init__(self):
        self.scans: dict[int, tuple[int, int, int, int]] = {}
        self.cfis = 0
        self.cache_hits = 0
        self.lookups = 0
        self.targets = 0
        self.blocks_created = 0
        self.claim_losses = 0
        self.end_wins = 0
        self.end_losses = 0
        self.splits = 0
        self.fns_created = 0
        self.fn_losses = 0
        self.waiters_registered = 0
        self.per_start: dict[int, int] = {}
        self.per_end: dict[int, int] = {}
        self.per_entry: dict[int, int] = {}
        self.split_chains: list[tuple[int, ...]] = []
        self.discovered: set[int] | None = None


@dataclass
class EngineStats:
    workers: int = 0
    blocks_created: int = 0
    block_claim_losses: int = 0
    end_registrations: int = 0
    end_registration_losses: int = 0
    splits_performed: int = 0
    split_chains: list[tuple[int, ...]] = field(default_factory=list)
    functions_created: int = 0
    function_claim_losses: int = 0
    cfis_decoded: int = 0
    scan_cache_hits: int = 0
    block_start_lookups: int = 0
    branch_targets_processed: int = 0
    waiters_registered: int = 0
    waiter_peak: int = 0
    waiters_live_at_quiescence: int = -1
    call_fallthrough_edges: int = 0
    finalize_flips: int = 0
    finalize_iterations: int = 0
    raw_edge_count: int = 0
    per_start_creations: dict[int, int] = field(default_factory=dict)
    per_end_registrations: dict[int, int] = field(default_factory=dict)
    per_entry_creations: dict[int, int] = field(default_factory=dict)
    init_seconds: float = 0.0
    traversal_seconds: float = 0.0
    finalize_seconds: float = 0.0


class _TaskPool:
    def __init__(self, workers: int):
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._q: deque = deque()
        self._unfinished = 0
        self._stop = False
        self._error: BaseException | None = None
        self._threads = [
            threading.Thread(target=self._run, args=(i,), daemon=True)
            for i in range(workers)
        ]
        self.ctxs = [_WorkerCtx() for _ in range(workers)]

    def start(self) -> None:
        for t in self._threads:
            t.start()

    def spawn(self, task) -> None:
        with self._cv:
            if self._stop:
                return
            self._unfinished += 1
            self._q.append(task)
            self._cv.notify()

    def _run(self, idx: int) -> None:
        ctx = self.ctxs[idx]
        while True:
            with self._cv:
                while not self._q and not self._stop:
                    self._cv.wait()
                if self._stop and not self._q:
                    return
                task = self._q.popleft()
            try:
                task(ctx)
            except BaseException as exc:  # surfaced by wait_idle
                with self._cv:
                    if self._error is None:
                        self._error = exc
                    self._stop = True
                    self._q.clear()
                    self._unfinished = 0
                    self._cv.notify_all()
                continue
            with self._cv:
                self._unfinished -= 1
                if self._unfinished == 0:
                    self._cv.notify_all()

    def wait_idle(self) -> None:
        with self._cv:
            while self._unfinished > 0 and self._error is None:
                self._cv.wait()
            if self._error is not None:
                err = self._error
                self._stop = True
                self._cv.notify_all()
                raise err

    def shutdown(self) -> None:
        with self._cv:
            self._stop = True
            self._cv.notify_all()
        for t in self._threads:
            t.join()


class ConcurrentCfgState:
    """Shared construction state plus the engine operating on it."""

    def __init__(self, image: Image, workers: int, debug: bool = False):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.image = image
        self.workers = workers
        self.debug = debug
        self.blocks_by_start: dict[int, _EngineBlock] = {}
        self.blocks_by_end: dict[int, _EndEntry] = {}
        self.candidates: dict[int, None] = {}
        self.functions: dict[int, _FuncRecord] = {}
        self.incoming: dict[int, list[tuple[int, int]]] = {}
        self.registry = TableRegistry()
        self.symbols = symbol_facts(image)
        self.pool = _TaskPool(workers)
        self._running = False

    # -- invariant primitives ---------------------------------------------

    def attempt_create_block(self, addr: int, ctx: _WorkerCtx | None = None) -> bool:
        """Single-winner claim of the block starting at `addr`. True means
        the caller owns parsing of that block."""
        blk = _EngineBlock(addr)
        if ctx:
            ctx.lookups += 1
        won = self.blocks_by_start.setdefault(addr, blk) is blk
        if won:
            self.candidates.pop(addr, None)
            if ctx:
                ctx.blocks_created += 1
                if self.debug:
                    ctx.per_start[addr] = ctx.per_start.get(addr, 0) + 1
        elif ctx:
            ctx.claim_losses += 1
        return won

    def attempt_create_function(self, addr: int, ctx: _WorkerCtx | None = None) -> bool:
        """Single-winner creation of the function record at `addr`; the
        winner's traversal is queued immediately."""
        if addr in self.functions:
            if ctx:
                ctx.fn_losses += 1
            return False
        syms = self.symbols
        status = ReturnStatus.NORETURN if addr in syms.noreturn else ReturnStatus.UNSET
        # every seed has a name, so the name map doubles as the seed set
        rec = _FuncRecord(addr, syms.names.get(addr), addr in syms.names, status)
        if self.functions.setdefault(addr, rec) is not rec:
            if ctx:
                ctx.fn_losses += 1
            return False
        if ctx:
            ctx.fns_created += 1
            if self.debug:
                ctx.per_entry[addr] = ctx.per_entry.get(addr, 0) + 1
            if ctx.discovered is not None:
                ctx.discovered.add(addr)
        self._enqueue_work(rec, (addr,))
        return True

    def register_block_end(self, block: _EngineBlock, fn: _FuncRecord | None, ctx: _WorkerCtx | None = None):
        """Single-winner end registration. The winner creates the block's
        outgoing edges while holding the entry lock and returns them;
        losers get an empty list and must run the split loop."""
        entry = self.blocks_by_end.setdefault(block.end, _EndEntry())
        with entry.lock:
            if entry.block is None:
                entry.block = block
                if ctx:
                    ctx.end_wins += 1
                    if self.debug:
                        ctx.per_end[block.end] = ctx.per_end.get(block.end, 0) + 1
                edges = self._create_edges_locked(block, fn, ctx)
                return True, edges
            if entry.block is block or entry.block.start == block.start:
                return True, []
            if ctx:
                ctx.end_losses += 1
            return False, []

    def split_chain(self, block: _EngineBlock, ctx: _WorkerCtx | None = None) -> None:
        """Eager block split: resolve overlapping blocks that reached the
        same end. Each iteration re-registers a truncated prefix at a
        strictly smaller end address, so the loop converges."""
        cur = block
        chain: list[int] = []
        while True:
            chain.append(cur.end)
            entry = self.blocks_by_end.setdefault(cur.end, _EndEntry())
            with entry.lock:
                reg = entry.block
                if reg is None:
                    entry.block = cur
                    if ctx:
                        ctx.end_wins += 1
                        if self.debug:
                            ctx.per_end[cur.end] = ctx.per_end.get(cur.end, 0) + 1
                    break
                if reg is cur or reg.start == cur.start:
                    break
                if reg.start > cur.start:
                    self._truncate(cur, reg.start)
                    if ctx:
                        ctx.splits += 1
                else:
                    cur.out.update(reg.out)
                    cur.term, cur.ta, cur.tb = reg.term, reg.ta, reg.tb
                    entry.block = cur
                    self._truncate(reg, cur.start)
                    if ctx:
                        ctx.splits += 1
                    cur = reg
        if ctx and self.debug and len(chain) > 1:
            ctx.split_chains.append(tuple(chain))

    def _truncate(self, b: _EngineBlock, new_end: int) -> None:
        # a truncated block keeps only the fall-through into its successor
        b.end = new_end
        b.term = _NO_TERM
        b.ta = 0
        b.tb = 0
        b.out = {(new_end, int(EdgeKind.COND_FALLTHROUGH)): None}
        self.incoming.setdefault(new_end, []).append(
            (new_end, int(EdgeKind.COND_FALLTHROUGH))
        )

    # -- edges ---------------------------------------------------------------

    def _add_edge_locked(self, block: _EngineBlock, target: int, kind: int, ctx=None) -> None:
        key = (target, kind)
        if key in block.out:
            return
        block.out[key] = None
        self.incoming.setdefault(target, []).append((block.end, kind))
        if ctx:
            ctx.targets += 1
            ctx.lookups += 1
        if target not in self.blocks_by_start:
            self.candidates.setdefault(target, None)

    def _create_edges_locked(self, block: _EngineBlock, fn: _FuncRecord | None, ctx) -> list[Edge]:
        term = block.term
        if term == _JMP:
            tail = self._classify_branch(fn, block.start, block.end, block.ta)
            kind = int(EdgeKind.TAIL_CALL) if tail else int(EdgeKind.DIRECT)
            self._add_edge_locked(block, block.ta, kind, ctx)
        elif term == _JCC:
            self._add_edge_locked(block, block.ta, int(EdgeKind.COND_TAKEN), ctx)
            self._add_edge_locked(block, block.end, int(EdgeKind.COND_FALLTHROUGH), ctx)
        elif term == _CALL:
            self._add_edge_locked(block, block.ta, int(EdgeKind.CALL), ctx)
        return [Edge(block.start, t, EdgeKind(k)) for (t, k) in block.out]

    def _ensure_cfec(self, call_end: int) -> None:
        """Idempotently create the call fall-through edge at a call site.
        Skipped while the call block's end is unregistered; the registrant
        re-checks the callee status right after registering."""
        entry = self.blocks_by_end.setdefault(call_end, _EndEntry())
        with entry.lock:
            blk = entry.block
            if blk is None:
                return
            key = (call_end, int(EdgeKind.CALL_FALLTHROUGH))
            if key in blk.out:
                return
            blk.out[key] = None
            self.incoming.setdefault(call_end, []).append(
                (blk.end, int(EdgeKind.CALL_FALLTHROUGH))
            )
            if call_end not in self.blocks_by_start:
                self.candidates.setdefault(call_end, None)

    # -- tail call classification -------------------------------------------

    def _has_teardown(self, start: int, end: int) -> bool:
        addr = start
        text = self.image.text
        base = self.image.text_base
        while addr < end:
            ins = decode_at(text, base, addr)
            if ins.kind is Opcode.FRAME_TEARDOWN:
                return True
            addr += ins.length
        return False

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
        return goal in seen

    def _classify_branch(self, fn: _FuncRecord | None, src: int, src_end: int, target: int) -> bool:
        """Tail-call heuristics in order: branch to a known entry; branch
        to a block already reachable inside this function; frame teardown
        before the branch."""
        if target in self.functions:
            return True
        if fn is not None:
            if self._reaches_intra(fn.entry, target, (src, target)):
                return False
        else:
            for f in sorted(self.functions):
                if self._reaches_intra(f, src, (src, target)) and self._reaches_intra(
                    f, target, (src, target)
                ):
                    return False
        return self._has_teardown(src, src_end)

    # -- return status ---------------------------------------------------------

    def update_return_status(self, entry: int, status: ReturnStatus) -> None:
        """Single-assignment status write with eager caller notification."""
        self._set_status(entry, status, strict=True)

    def _set_status(self, entry: int, status: ReturnStatus, strict: bool) -> None:
        """A non-strict write (a `ret`, or a tail-call propagation) only
        fills an unset status, so a known-noreturn flag wins over a `ret`
        found in the flagged function, as in the serial oracle."""
        rec = self.functions[entry]
        with rec.status_lock:
            cur = rec.status
            if cur is not ReturnStatus.UNSET:
                if not strict:
                    return
                raise AlreadySetError(f"0x{entry:x}: {cur.value} -> {status.value}")
            rec.status = status
            ft = rec.ft_waiters
            rec.ft_waiters = {}
            tails = rec.tail_fns
            rec.tail_fns = set()
        if status is ReturnStatus.RETURN:
            for call_end in sorted(ft):
                self._ensure_cfec(call_end)
                for fn_addr in sorted(ft[call_end]):
                    self._enqueue_addr(self.functions[fn_addr], call_end)
            for fn_addr in sorted(tails):
                self._set_status(fn_addr, ReturnStatus.RETURN, strict=False)

    def resolve_status_cycles(self) -> None:
        """At quiescence, every still-unresolved function (cyclic call
        dependencies included) is non-returning; drain their waiters."""
        for addr in sorted(self.functions):
            if self.functions[addr].status is ReturnStatus.UNSET:
                self._set_status(addr, ReturnStatus.NORETURN, strict=True)

    def _count_live_waiters(self) -> int:
        n = 0
        for rec in self.functions.values():
            with rec.status_lock:
                n += sum(len(s) for s in rec.ft_waiters.values()) + len(rec.tail_fns)
        return n

    # -- jump tables ---------------------------------------------------------

    def refresh_descriptor(self, desc) -> bool:
        """Re-resolve one table against the currently-known predecessor
        set; append any new edges and queue the new targets for every
        interested function. Monotone: the target set never shrinks."""
        entry = self.blocks_by_end.setdefault(desc.jump_end, _EndEntry())
        with entry.lock:
            owner = entry.block
            if owner is None:
                return False
            with desc.lock:
                pred_ends = {
                    pe
                    for pe, kind in list(self.incoming.get(owner.start, ()))
                    if kind in _INTRA_INTS
                }
                hints = []
                for pe in sorted(pred_ends):
                    pent = self.blocks_by_end.get(pe)
                    pb = pent.block if pent is not None else None
                    if pb is None:
                        continue
                    h = last_bound_hint(self.image, pb.start, pb.end)
                    if h is not None:
                        hints.append(h)
                bound = effective_bound(desc.declared_bound, hints)
                new = update_descriptor(desc, self.image, bound)
                if not new:
                    return False
                for t in sorted(new):
                    self._add_edge_locked(owner, t, int(EdgeKind.INDIRECT))
                interested = sorted(desc.interested)
                new_sorted = sorted(new)
        for fi in interested:
            rec = self.functions[fi]
            for t in new_sorted:
                self._enqueue_addr(rec, t)
        return True

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
        self._enqueue_work(rec, (addr,))

    def _enqueue_work(self, rec: _FuncRecord, addrs) -> None:
        with rec.lock:
            rec.pending.extend(addrs)
            if rec.pending and not rec.active and self._running:
                rec.active = True
                self.pool.spawn(lambda ctx, r=rec: self.traverse_function(r, ctx))

    def traverse_function(self, rec: _FuncRecord, ctx: _WorkerCtx) -> set[int]:
        """Drain one function's worklist, driving its jump tables to a
        fixed point before going idle; returns newly discovered entries."""
        outer = ctx.discovered
        discovered: set[int] = set()
        ctx.discovered = discovered
        try:
            while True:
                while True:
                    with rec.lock:
                        if not rec.pending:
                            break
                        addr = rec.pending.popleft()
                    self._process(ctx, rec, addr)
                refresh_tables(self, self.image, rec)
                with rec.lock:
                    if not rec.pending:
                        rec.active = False
                        return discovered
        finally:
            ctx.discovered = outer

    # -- per-address dispatch ----------------------------------------------------

    def _process(self, ctx: _WorkerCtx, fn: _FuncRecord, addr: int) -> None:
        if addr in fn.visited:
            return
        fn.visited.add(addr)
        ctx.targets += 1

        cached = ctx.scans.get(addr)
        if cached is not None:
            ctx.cache_hits += 1
            end, kind, a, b = cached
        else:
            claimed = self.attempt_create_block(addr, ctx)
            end, kind, a, b = scan_block(self.image.text, self.image.text_base, addr)
            ctx.cfis += 1
            ctx.scans[addr] = (end, kind, a, b)
            if claimed:
                blk = self.blocks_by_start[addr]
                blk.end = end
                blk.term = kind if kind != -1 else _SYNTH_HALT
                blk.ta = a
                blk.tb = b
                won, _ = self.register_block_end(blk, fn, ctx)
                if not won:
                    self.split_chain(blk, ctx)

        if kind == _JMP:
            tail = self._classify_branch(fn, addr, end, a)
            if tail:
                self.attempt_create_function(a, ctx)
                self._tail_interest(ctx, fn, a)
            else:
                self._enqueue_addr(fn, a)
        elif kind == _JCC:
            self._enqueue_addr(fn, a)
            self._enqueue_addr(fn, end)
        elif kind == _CALL:
            self.attempt_create_function(a, ctx)
            self._process_call_site(ctx, fn, end, a)
        elif kind == _RET:
            self._set_status(fn.entry, ReturnStatus.RETURN, strict=False)
        elif kind == _TABLE:
            desc = self.registry.get_or_create(a, b, end)
            fn.table_descs.add(desc)
            with desc.lock:
                desc.interested.add(fn.entry)
                known = sorted(desc.targets)
            for t in known:
                self._enqueue_addr(fn, t)
            if cached is None:
                self.refresh_descriptor(desc)
        # opaque jumps, halts, and running off text end have no successors

    def _process_call_site(self, ctx: _WorkerCtx, fn: _FuncRecord, call_end: int, callee: int) -> None:
        rec = self.functions[callee]
        with rec.status_lock:
            val = rec.status
            if val is ReturnStatus.UNSET:
                rec.ft_waiters.setdefault(call_end, set()).add(fn.entry)
                ctx.waiters_registered += 1
                n = sum(len(s) for s in rec.ft_waiters.values()) + len(rec.tail_fns)
                if n > rec.waiter_peak:
                    rec.waiter_peak = n
        if val is ReturnStatus.RETURN:
            self._ensure_cfec(call_end)
            self._enqueue_addr(fn, call_end)

    def _tail_interest(self, ctx: _WorkerCtx, fn: _FuncRecord, target: int) -> None:
        rec = self.functions[target]
        with rec.status_lock:
            val = rec.status
            if val is ReturnStatus.UNSET:
                rec.tail_fns.add(fn.entry)
                ctx.waiters_registered += 1
                n = sum(len(s) for s in rec.ft_waiters.values()) + len(rec.tail_fns)
                if n > rec.waiter_peak:
                    rec.waiter_peak = n
        if val is ReturnStatus.RETURN:
            self._set_status(fn.entry, ReturnStatus.RETURN, strict=False)

    # -- drive to completion --------------------------------------------------

    def run(self) -> tuple[Cfg, EngineStats]:
        stats = EngineStats(workers=self.workers)
        t0 = time.perf_counter()
        self._running = True
        self.pool.start()

        seeds = self.symbols.seeds
        step = max(1, (len(seeds) + self.workers - 1) // self.workers)
        for i in range(0, len(seeds), step):
            chunk = seeds[i : i + step]
            self.pool.spawn(
                lambda ctx, c=chunk: [self.attempt_create_function(a, ctx) for a in c]
            )
        t1 = time.perf_counter()
        stats.init_seconds = t1 - t0

        first_quiescence = True
        while True:
            self.pool.wait_idle()
            if first_quiescence:
                stats.waiters_live_at_quiescence = self._count_live_waiters()
                first_quiescence = False
            if self._global_table_sweep():
                continue
            if any(
                rec.status is ReturnStatus.UNSET for rec in self.functions.values()
            ):
                self.resolve_status_cycles()
                continue
            break
        self.pool.shutdown()
        t2 = time.perf_counter()
        stats.traversal_seconds = t2 - t1

        self._merge_ctx_stats(stats)
        cfg = self.export_cfg()
        stats.raw_edge_count = len(cfg.edges)
        final, fstats = finalize_details(cfg, self.image, self.registry)
        stats.finalize_flips = fstats.flips
        stats.finalize_iterations = fstats.iterations
        stats.finalize_seconds = time.perf_counter() - t2
        stats.call_fallthrough_edges = sum(
            1 for e in final.edges if e.kind is EdgeKind.CALL_FALLTHROUGH
        )
        return final, stats

    def _merge_ctx_stats(self, stats: EngineStats) -> None:
        for ctx in self.pool.ctxs:
            stats.blocks_created += ctx.blocks_created
            stats.block_claim_losses += ctx.claim_losses
            stats.end_registrations += ctx.end_wins
            stats.end_registration_losses += ctx.end_losses
            stats.splits_performed += ctx.splits
            stats.split_chains.extend(ctx.split_chains)
            stats.functions_created += ctx.fns_created
            stats.function_claim_losses += ctx.fn_losses
            stats.cfis_decoded += ctx.cfis
            stats.scan_cache_hits += ctx.cache_hits
            stats.block_start_lookups += ctx.lookups
            stats.branch_targets_processed += ctx.targets
            stats.waiters_registered += ctx.waiters_registered
            for src, dst in (
                (ctx.per_start, stats.per_start_creations),
                (ctx.per_end, stats.per_end_registrations),
                (ctx.per_entry, stats.per_entry_creations),
            ):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v
        stats.waiter_peak = max(
            (rec.waiter_peak for rec in self.functions.values()), default=0
        )

    # -- export ---------------------------------------------------------------

    def export_cfg(self) -> Cfg:
        blocks: dict[int, Block] = {}
        for s, b in self.blocks_by_start.items():
            if b.term == _NO_TERM:
                term = None
            elif b.term == _SYNTH_HALT:
                term = Instruction(self.image.text_end, Opcode.HALT, 1)
            else:
                op = Opcode(b.term)
                term = Instruction(b.end - LENGTHS[op], op, LENGTHS[op], b.ta, b.tb)
            blocks[s] = Block(b.start, b.end, term)
        edges = set()
        for b in self.blocks_by_start.values():
            for t, k in b.out:
                edges.add(Edge(b.start, t, EdgeKind(k)))
        candidates = {c for c in self.candidates if c not in self.blocks_by_start}
        entries = {
            a: FunctionEntry(a, rec.name, rec.status, rec.seed)
            for a, rec in self.functions.items()
        }
        return Cfg(blocks, candidates, edges, entries)


# -- module-level operation surface ------------------------------------------


def traverse_function(state: ConcurrentCfgState, image: Image, f: _FuncRecord) -> set[int]:
    del image
    return state.traverse_function(f, _WorkerCtx())


def update_return_status(state: ConcurrentCfgState, entry: int, status: ReturnStatus) -> None:
    state.update_return_status(entry, status)


def resolve_status_cycles(state: ConcurrentCfgState) -> None:
    state.resolve_status_cycles()


def construct(image: Image, workers: int, debug: bool = False) -> Cfg:
    """Build the finalized CFG with `workers` cooperating workers. Output
    is identical to `serial_construct` for every worker count."""
    cfg, _ = ConcurrentCfgState(image, workers, debug).run()
    return cfg


def construct_details(
    image: Image, workers: int, debug: bool = False
) -> tuple[Cfg, EngineStats, TableRegistry]:
    state = ConcurrentCfgState(image, workers, debug)
    cfg, stats = state.run()
    return cfg, stats, state.registry
