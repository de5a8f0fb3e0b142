import gc
import statistics
import sys
import threading
import time
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcfg import finalize, jumptables, parallel
from pcfg._kernels import scan_block
from pcfg.cfg import EdgeKind, ReturnStatus, canonical_serialize
from pcfg.errors import AlreadySetError, InternalError, OutOfRangeError
from pcfg.image import Image, SymbolKind, make_symbol
from pcfg.isa import LENGTHS, Opcode
from pcfg.parallel import ConcurrentCfgState, construct, construct_details
from pcfg.serial import serial_construct
from pcfg.workload import ScenarioSpec, generate

from conftest import asm_image, decode_walk


def _ctx():
    return parallel.EngineStats()


def _raised_within(seconds, fn):
    """What `fn()` raised, or None. It runs in a daemon thread, so a
    split loop that spins fails the test instead of stalling the suite."""
    outcome = []

    def run():
        try:
            fn()
        except Exception as exc:
            outcome.append(exc)
        else:
            outcome.append(None)

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout=seconds)
    assert not t.is_alive(), f"did not return within {seconds} s"
    return outcome[0]


def _claim_and_scan(state, addr):
    assert state.attempt_create_block(addr, _ctx())
    blk = state.blocks_by_start[addr]
    scan = scan_block(state.image.text, state.image.text_base, addr)
    blk.end, blk.term, blk.ta, blk.tb, _, blk.hint_at, blk.hint = scan
    return blk


class TestBlockCreation:
    def test_concurrent_claims_have_one_winner(self, paper_layout):
        state = ConcurrentCfgState(paper_layout, 1)
        wins = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            wins.append(state.attempt_create_block(0xD, _ctx()))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(wins) == 1

    def test_second_sequential_claim_loses(self, paper_layout):
        state = ConcurrentCfgState(paper_layout, 1)
        assert state.attempt_create_block(0x4, _ctx())
        assert not state.attempt_create_block(0x4, _ctx())

    def test_distinct_addresses_win_independently(self, paper_layout):
        state = ConcurrentCfgState(paper_layout, 1)
        results = {}

        def worker(addr):
            results[addr] = state.attempt_create_block(addr, _ctx())

        threads = [threading.Thread(target=worker, args=(a,)) for a in (0x4, 0xA)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {0x4: True, 0xA: True}


class TestFunctionCreation:
    def test_single_winner_and_rediscovery(self, paper_layout):
        state = ConcurrentCfgState(paper_layout, 1)
        wins = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            wins.append(state.attempt_create_function(0x900 & 0xF or 0x4, _ctx()))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(wins) == 1
        assert not state.attempt_create_function(0x4, _ctx())

    def test_symbol_seeding_creates_exactly_n(self):
        img, _ = generate(ScenarioSpec.make("big-random", seed=2, functions=50))
        n_seeds = len(img.func_symbols())
        state = ConcurrentCfgState(img, 4)
        stats = state.run()
        assert stats.functions_created == len(state.functions)
        cfg = state.export_cfg()
        seeded = [f for f in cfg.entries.values() if f.seed]
        assert len(seeded) == n_seeds


class TestEndRegistrationAndSplit:
    def test_winner_creates_edges_loser_gets_none(self):
        # the loser of end 0xf creates no edge: it takes the end and the
        # winner's jump edge over, and the winner is cut to fall into it
        img = asm_image(0x4, [(Opcode.ALU,), (Opcode.ALU,), (Opcode.JMP_DIRECT, 0x4)])
        state = ConcurrentCfgState(img, 1)
        b1 = _claim_and_scan(state, 0x4)
        state.register_block_end(b1, _ctx())
        assert list(b1.out) == [(0x4, int(EdgeKind.DIRECT))]
        b2 = _claim_and_scan(state, 0x7)
        ctx = _ctx()
        state.register_block_end(b2, ctx)
        assert list(b2.out) == [(0x4, int(EdgeKind.DIRECT))]
        assert list(b1.out) == [(0x7, int(EdgeKind.COND_FALLTHROUGH))]
        assert state.incoming[0x4] == [0xF]
        assert (ctx.end_registrations, ctx.end_registration_losses) == (1, 1)

    def test_two_way_split(self, paper_layout):
        state = ConcurrentCfgState(paper_layout, 1)
        b1 = _claim_and_scan(state, 0x4)
        state.register_block_end(b1, _ctx())
        b2 = _claim_and_scan(state, 0xA)
        ctx = _ctx()
        state.register_block_end(b2, ctx)
        assert (b2.start, b2.end) == (0xA, 0xD)
        assert b2.term == int(Opcode.RET)
        assert (b1.start, b1.end) == (0x4, 0xA)
        assert list(b1.out) == [(0xA, int(EdgeKind.COND_FALLTHROUGH))]
        assert state.blocks_by_end[0xD] is b2
        assert state.blocks_by_end[0xA] is b1
        assert (ctx.end_registration_losses, ctx.splits_performed) == (1, 1)

    def test_three_way_split_chain(self):
        # starts 0x4, 0xa, 0xd all scan to the jump ending at 0x12
        img = asm_image(
            0x4, [(Opcode.ALU,), (Opcode.ALU,), (Opcode.ALU,), (Opcode.JMP_DIRECT, 0x4)]
        )
        state = ConcurrentCfgState(img, 1)
        first = _claim_and_scan(state, 0x4)
        state.register_block_end(first, _ctx())
        mid = _claim_and_scan(state, 0xD)
        state.register_block_end(mid, _ctx())
        last = _claim_and_scan(state, 0xA)
        # 0xa loses 0x12 to 0xd, then 0xd to 0x4: one loss, two cuts
        ctx = _ctx()
        state.register_block_end(last, ctx)
        assert (ctx.end_registration_losses, ctx.splits_performed) == (1, 2)
        spans = {(b.start, b.end) for b in state.blocks_by_start.values()}
        assert spans == {(0x4, 0xA), (0xA, 0xD), (0xD, 0x12)}
        tail = state.blocks_by_end[0x12]
        assert (0x4, int(EdgeKind.DIRECT)) in tail.out
        for start, end in ((0x4, 0xA), (0xA, 0xD)):
            blk = state.blocks_by_start[start]
            assert list(blk.out) == [(end, int(EdgeKind.COND_FALLTHROUGH))]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 6).flatmap(lambda k: st.permutations(range(k))),
        st.sampled_from(
            [(Opcode.JMP_DIRECT, 0x4), (Opcode.JCC_DIRECT, 0x4), (Opcode.CALL, 0x4), (Opcode.RET,)]
        ),
    )
    def test_end_registration_commutes(self, order, terminator):
        # k blocks, one per instruction start, all scan to the one end
        k = len(order)
        img = asm_image(0x4, [(Opcode.ALU,)] * (k - 1) + [terminator])
        starts = [0x4 + 3 * i for i in range(k)]
        end = img.text_end

        def registered(order):
            state = ConcurrentCfgState(img, 1)
            for i in order:
                state.register_block_end(_claim_and_scan(state, starts[i]), _ctx())
            return state

        state = registered(order)
        spans = {(b.start, b.end) for b in state.blocks_by_start.values()}
        assert spans == set(zip(starts, starts[1:] + [end]))
        for start, nxt in zip(starts, starts[1:]):
            blk = state.blocks_by_start[start]
            assert list(blk.out) == [(nxt, int(EdgeKind.COND_FALLTHROUGH))]
        filled = state.blocks_by_end
        assert sorted(filled) == starts[1:] + [end]
        assert all(b.end == e for e, b in filled.items())
        reference = registered(range(k))
        assert {b.start: b.out for b in state.blocks_by_start.values()} == {
            b.start: b.out for b in reference.blocks_by_start.values()
        }

    def test_starts_inserted_below_known_ones_split_once_each(self):
        # the order two workers can make: the upper half of a run's
        # starts, rising, then the lower half, rising; a cut that only
        # reached the next start down would split each lower block once
        # per upper start
        def splits(k):
            img = asm_image(0x4, [(Opcode.ALU,)] * (2 * k - 1) + [(Opcode.RET,)])
            starts = [0x4 + 3 * i for i in range(2 * k)]
            state = ConcurrentCfgState(img, 1)
            ctx = _ctx()
            for start in starts[k:] + starts[:k]:
                state.register_block_end(_claim_and_scan(state, start), ctx)
            spans = {(b.start, b.end) for b in state.blocks_by_start.values()}
            assert spans == set(zip(starts, starts[1:] + [img.text_end]))
            return ctx.splits_performed

        small, large = splits(64), splits(128)
        assert large <= 2.2 * small, (small, large)

    def test_split_that_does_not_shorten_raises(self, paper_layout):
        # a scan at the text end walks nothing: the block [0xd, 0xd)
        # loses the end 0xd to [0x4, 0xd), and no split can shorten it
        state = ConcurrentCfgState(paper_layout, 1)
        b1 = _claim_and_scan(state, 0x4)
        state.register_block_end(b1, _ctx())
        empty = _claim_and_scan(state, 0xD)
        assert (empty.start, empty.end) == (0xD, 0xD)
        exc = _raised_within(10, lambda: state.register_block_end(empty, _ctx()))
        assert isinstance(exc, InternalError) and "0xd" in str(exc)

    def test_same_start_registration_is_noop(self, paper_layout):
        state = ConcurrentCfgState(paper_layout, 1)
        b1 = _claim_and_scan(state, 0x4)
        state.register_block_end(b1, _ctx())
        out_before = dict(b1.out)
        ctx = _ctx()
        state.register_block_end(b1, ctx)
        assert b1.out == out_before
        assert state.blocks_by_end[0xD] is b1
        assert (ctx.end_registrations, ctx.end_registration_losses) == (0, 0)


class TestScanFacts:
    """The last-hint report a block keeps from its scan, against a
    `decode_at` walk over the same range. The scan's teardown flag is
    not kept: the scan's caller classifies the branch with it, and
    `test_isa.py` checks it against the walk."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 0x0B) | st.integers(0, 0xFF), min_size=1, max_size=40),
        st.data(),
    )
    def test_report_matches_decode_walk(self, raw, data):
        text = bytes(raw)
        img = Image(0x100, text, 0x10000, b"", ())
        start = data.draw(st.integers(0x100, img.text_end - 1))
        state = ConcurrentCfgState(img, 1)
        blk = _claim_and_scan(state, start)
        end = blk.end
        assert blk.hint == decode_walk(text, 0x100, start, end)[3]
        assert state._last_hint(blk) == blk.hint
        # a split may cut the block short anywhere, before its last hint
        # or after it
        blk.end = data.draw(st.integers(start + 1, end))
        assert state._last_hint(blk) == decode_walk(text, 0x100, start, blk.end)[3]


class TestTraverseFunction:
    def test_call_discovers_callee_and_fallthrough(self):
        img = asm_image(
            0x0,
            [(Opcode.CALL, 0xA), (Opcode.RET,), (Opcode.NOP,), (Opcode.NOP,),
             (Opcode.NOP,), (Opcode.ALU,), (Opcode.RET,)],
            symbols=[(0x0, "caller$1", False)],
        )
        state = ConcurrentCfgState(img, 1)
        ctx = _ctx()
        assert state.attempt_create_function(0x0, ctx)
        # one task walks the caller's block, the callee it creates, and
        # the fall-through that the callee's `ret` wakes
        state.traverse_function([0x0], ctx)
        assert set(state.functions) == {0x0, 0xA}
        assert state.functions[0xA].status is ReturnStatus.RETURN
        assert state.functions[0x0].status is ReturnStatus.RETURN
        blk = state.blocks_by_end[0x5]
        assert (0x5, int(EdgeKind.CALL_FALLTHROUGH)) in blk.out
        assert {0x0, 0x5, 0xA} <= state.returns
        assert state._return_work == []
        assert ctx.blocks_created == len(state.blocks_by_start) == 3
        assert ctx.block_claim_losses == 0

    def test_halt_function_resolves_noreturn_at_quiescence(self):
        img = asm_image(0x0, [(Opcode.HALT,)], symbols=[(0x0, "die$1", False)])
        cfg = construct(img, 1)
        assert cfg.entries[0x0].status is ReturnStatus.NORETURN
        assert len(cfg.blocks) == 1 and cfg.edges == set()

    def test_table_jump_queues_all_targets(self):
        img, truth = generate(ScenarioSpec.make("jump-table", seed=4, entries=3))
        cfg = construct(img, 1)
        assert canonical_serialize(cfg) == canonical_serialize(serial_construct(img))


class TestReturnStatus:
    def test_double_set_raises(self, paper_layout):
        state = ConcurrentCfgState(paper_layout, 1)
        state.attempt_create_function(0x4, _ctx())
        state._write_status(0x4, ReturnStatus.RETURN, True)
        with pytest.raises(AlreadySetError):
            state._write_status(0x4, ReturnStatus.RETURN, True)
        with pytest.raises(AlreadySetError):
            state._write_status(0x4, ReturnStatus.NORETURN, True)
        # a non-strict write only fills an unset status
        assert state._write_status(0x4, ReturnStatus.NORETURN, False) is None
        assert state.functions[0x4].status is ReturnStatus.RETURN

    def test_eager_notification_drains_waiters_before_quiescence(self, monkeypatch):
        # a waiter left at quiescence means a function left unset, which
        # is what the cycle resolution runs for
        img, truth = generate(
            ScenarioSpec.make("noreturn-chain", seed=9, depth=8, early_ret=1)
        )
        resolved = []
        resolve = ConcurrentCfgState.resolve_status_cycles
        monkeypatch.setattr(
            ConcurrentCfgState,
            "resolve_status_cycles",
            lambda self: resolved.append(self) or resolve(self),
        )
        cfg, stats, _ = construct_details(img, 4)
        assert resolved == []
        assert stats.waiters_registered >= 1
        assert sum(1 for e in cfg.edges if e.kind is EdgeKind.CALL_FALLTHROUGH) == 8

    def test_known_noreturn_symbol_blocks_fallthrough_without_waiting(self):
        img = asm_image(
            0x0,
            [(Opcode.CALL, 0x6), (Opcode.RET,), (Opcode.HALT,)],
            symbols=[(0x0, "f$1", False), (0x6, "exit$1", True)],
        )
        cfg = construct(img, 2)
        assert cfg.entries[0x6].status is ReturnStatus.NORETURN
        assert cfg.entries[0x0].status is ReturnStatus.NORETURN
        assert not any(e.kind is EdgeKind.CALL_FALLTHROUGH for e in cfg.edges)

    @pytest.mark.parametrize(
        "g_symbols",
        [
            [(0x6, "g$1", True)],
            # only the second of g's two symbols carries the flag
            [(0x6, "g$1", False), (0x6, "g$2", True)],
        ],
    )
    def test_noreturn_flag_wins_over_ret(self, g_symbols):
        img = asm_image(
            0x0,
            [(Opcode.CALL, 0x6), (Opcode.RET,), (Opcode.RET,)],
            symbols=[(0x0, "f$1", False)] + g_symbols,
        )
        want = serial_construct(img)
        assert want.entries[0x0].status is ReturnStatus.NORETURN
        assert want.entries[0x6].status is ReturnStatus.NORETURN
        for workers in (1, 2):
            got = construct(img, workers)
            assert canonical_serialize(got) == canonical_serialize(want)

    def test_cycle_resolution(self):
        img, truth = generate(ScenarioSpec.make("noreturn-cycle", seed=2, k=3))
        cfg, stats, _ = construct_details(img, 4)
        noreturn = [f for f in cfg.entries.values() if f.status is ReturnStatus.NORETURN]
        assert len(noreturn) == 3
        assert not any(e.kind is EdgeKind.CALL_FALLTHROUGH for e in cfg.edges)

    def test_self_recursion_is_noreturn(self):
        img, _ = generate(ScenarioSpec.make("noreturn-cycle", seed=1, k=1))
        cfg = construct(img, 2)
        assert all(f.status is ReturnStatus.NORETURN for f in cfg.entries.values())

    @pytest.mark.parametrize("order", [(0x4, 0xA), (0xA, 0x4)])
    def test_a_split_keeps_both_halves_marked(self, paper_layout, order):
        # [0x4, 0xd) ends in a `ret`; whichever half registers second, the
        # block that keeps the `ret` and the one that falls into it both
        # return, though the first was marked before the split
        state = ConcurrentCfgState(paper_layout, 1)
        for start in order:
            state.register_block_end(_claim_and_scan(state, start), _ctx())
            state._propagate([])
        assert state.returns == {0x4, 0xA}
        assert state._return_work == []

    def test_resolve_status_cycles_direct(self, paper_layout):
        state = ConcurrentCfgState(paper_layout, 1)
        state.attempt_create_function(0x4, _ctx())
        state.attempt_create_function(0xA, _ctx())
        # 0xa's entry block returns; draining the worklist writes it
        state._return_work.append(0xA)
        state._propagate([])
        assert state.functions[0xA].status is ReturnStatus.RETURN
        assert state.functions[0x4].status is ReturnStatus.UNSET
        state.resolve_status_cycles()
        assert state.functions[0x4].status is ReturnStatus.NORETURN
        assert state.functions[0xA].status is ReturnStatus.RETURN


class TestOracleEquivalence:
    def test_small_corpus_all_worker_counts(self):
        specs = [
            ScenarioSpec.make("shared-code", 3, sharers=6),
            ScenarioSpec.make("tailcall-ambiguous", 3),
            ScenarioSpec.make("jump-table-overapprox", 3, extra=2),
            ScenarioSpec.make("big-random", 3, functions=60),
        ]
        for spec in specs:
            img, _ = generate(spec)
            want = canonical_serialize(serial_construct(img))
            for workers in (1, 2, 4, 8):
                got = canonical_serialize(construct(img, workers))
                assert got == want, f"{spec.family} diverged at {workers} workers"

    def test_big_random_at_scale(self):
        # the oracle grows about linearly, so equivalence is checked on an
        # image far past the corpus's sizes
        img, _ = generate(ScenarioSpec.make("big-random", 11, functions=10000))
        want = canonical_serialize(serial_construct(img))
        for workers in (1, 2):
            got = canonical_serialize(construct(img, workers))
            assert got == want, f"diverged at {workers} workers"

    def test_repeated_runs_identical(self):
        img, _ = generate(ScenarioSpec.make("big-random", 5, functions=80))
        outputs = {canonical_serialize(construct(img, 4)) for _ in range(5)}
        assert len(outputs) == 1


class TestInstrumentation:
    def _stress(self):
        """The quiescent state and its stats, not yet exported."""
        img, _ = generate(ScenarioSpec.make("shared-code", 0, sharers=64))
        state = ConcurrentCfgState(img, 8)
        return state, state.run()

    def test_unique_creations_per_address(self):
        # each counter counts single-winner insertions, so one more win
        # at any address would leave it above the size of its map
        state, stats = self._stress()
        filled_ends = len(state.blocks_by_end)
        assert stats.blocks_created == len(state.blocks_by_start) > 0
        assert stats.end_registrations == filled_ends
        assert stats.functions_created == len(state.functions)
        block_starts = set(state.blocks_by_start)
        assert block_starts == set(state.export_cfg().blocks)

    def test_split_chains_strictly_decrease(self):
        # `register_block_end` raises InternalError on a cut that does not
        # shorten the end, so a clean run under contention is the audit
        _, stats = self._stress()
        assert stats.splits_performed > 0

    def test_every_block_is_scanned_once(self, monkeypatch):
        img, _ = generate(ScenarioSpec.make("big-random", 1, functions=200))
        scans = []

        def counted(*args):
            scans.append(args)
            return scan_block(*args)

        monkeypatch.setattr(parallel, "scan_block", counted)
        cfg, stats, _ = construct_details(img, 1)
        assert canonical_serialize(cfg) == canonical_serialize(serial_construct(img))
        assert len(scans) == stats.blocks_created
        # a visit finds a walked block before it claims, so a single
        # worker never loses a claim, shared blocks included
        assert stats.block_claim_losses == 0


def test_stage_times_fit_in_construct_wall_time():
    img, _ = generate(ScenarioSpec.make("big-random", seed=6, functions=200))
    t0 = time.perf_counter()
    _, stats, _ = construct_details(img, 2)
    wall = time.perf_counter() - t0
    stages = (
        stats.init_seconds
        + stats.traversal_seconds
        + stats.export_seconds
        + stats.finalize_seconds
    )
    assert stats.export_seconds > 0
    assert stages <= wall


@pytest.fixture
def collector():
    """Puts the cyclic collector back as the test found it."""
    was = gc.isenabled()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


def _spy_finalize(monkeypatch, hook):
    """Calls `hook()` as either constructor enters finalization."""
    real = finalize.finalize_details

    def spy(*args):
        hook()
        return real(*args)

    # the engine imported the name; the oracle looks it up at each run
    monkeypatch.setattr(parallel, "finalize_details", spy)
    monkeypatch.setattr(finalize, "finalize_details", spy)


class TestCollectorPause:
    """The engine and the oracle share one pause of the collector."""

    def _image(self):
        return generate(ScenarioSpec.make("big-random", seed=8, functions=30))[0]

    def _builds(self, img):
        return (lambda: construct(img, 2), lambda: serial_construct(img))

    @pytest.mark.parametrize("enabled", [True, False])
    def test_prior_state_restored(self, collector, monkeypatch, enabled):
        inside = []
        _spy_finalize(monkeypatch, lambda: inside.append(gc.isenabled()))
        if enabled:
            gc.enable()
        else:
            gc.disable()
        for build in self._builds(self._image()):
            build()
            assert gc.isenabled() is enabled
        assert inside == [False, False]

    def test_engine_state_is_freed_without_a_collection(self, collector):
        # the pause only pays off if reference counting frees the state
        gc.enable()
        img = self._image()
        gc.collect()
        for workers in (1, 2):
            construct(img, workers)
        assert gc.collect() == 0

    def test_oracle_state_is_freed_without_a_collection(self, collector):
        gc.enable()
        img = self._image()
        gc.collect()
        serial_construct(img)
        assert gc.collect() == 0

    def test_restored_after_an_error_in_run(self, collector, monkeypatch):
        def boom():
            raise RuntimeError("boom")

        _spy_finalize(monkeypatch, boom)
        gc.enable()
        for build in self._builds(self._image()):
            with pytest.raises(RuntimeError, match="boom"):
                build()
            assert gc.isenabled()

    def test_overlapping_constructs_in_two_threads(self, collector, monkeypatch):
        # an engine construct and an oracle construct both reach
        # finalization; the first then finishes while the second is
        # still inside, which must keep the pause
        img = self._image()
        both_inside = threading.Barrier(2, timeout=30)
        first_done = threading.Event()
        seen_by_second = []

        def hook():
            both_inside.wait()
            if threading.current_thread().name == "second":
                assert first_done.wait(timeout=30)
                seen_by_second.append(gc.isenabled())

        def first():
            construct(img, 1)
            first_done.set()

        _spy_finalize(monkeypatch, hook)
        gc.enable()
        threads = [
            threading.Thread(target=first, name="first"),
            threading.Thread(target=serial_construct, args=(img,), name="second"),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen_by_second == [False]
        assert gc.isenabled()

    def test_many_overlapping_constructs(self, collector, monkeypatch):
        # more threads than cores entering and leaving the pause with a
        # short switch interval: a lost update of the depth count would
        # switch the collector on while a construct still runs, or leave
        # it off after the last one
        img = self._image()
        inside = []

        def worker(build):
            for _ in range(3):
                build()

        _spy_finalize(monkeypatch, lambda: inside.append(gc.isenabled()))
        gc.enable()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(build,))
                for build in self._builds(img) * 2
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert inside == [False] * 12
        assert gc.isenabled()


#: ends in a jcc at 0x1025 whose fall-through is the text end, 0x102a
_FALLTHROUGH_TO_TEXT_END = Image(
    0x1000,
    bytes.fromhex(
        "000604800000030001000001000009000604800000010003001000000100000100000a05000329100000"
    ),
    0x8000,
    bytes.fromhex("0d1000001c100000171000002210000015100000161000002710000000100000"),
    (make_symbol(0x1000, "f$1", SymbolKind.FUNC, False),),
)


@pytest.mark.parametrize("workers", [1, 2])
def test_fallthrough_to_text_end_raises_instead_of_hanging(workers):
    exc = _raised_within(10, lambda: construct(_FALLTHROUGH_TO_TEXT_END, workers))
    # the oracle's error, for the fall-through address
    assert isinstance(exc, OutOfRangeError)
    assert exc.addr == _FALLTHROUGH_TO_TEXT_END.text_end
    with pytest.raises(OutOfRangeError):
        serial_construct(_FALLTHROUGH_TO_TEXT_END)


def _tail_call_chain(n):
    """n functions, each a jmp to the next one's symbol; the last returns.
    Each jump is a plain branch until finalization labels it, so the
    last block's return mark reaches the first entry through n - 1
    predecessors, and the oracle's walk from each function covers the
    rest of the chain."""
    jmp = LENGTHS[Opcode.JMP_DIRECT]
    instrs = [(Opcode.JMP_DIRECT, 0x1000 + jmp * (i + 1)) for i in range(n - 1)]
    symbols = [(0x1000 + jmp * i, f"f{i}", False) for i in range(n)]
    return asm_image(0x1000, instrs + [(Opcode.RET,)], symbols)


def test_tail_call_chain_longer_than_the_recursion_limit():
    n = 5000
    assert n > sys.getrecursionlimit()
    img = _tail_call_chain(n)
    oracle = serial_construct(img)
    want = canonical_serialize(oracle)
    for g in (oracle, construct(img, 1), construct(img, 2)):
        assert len(g.entries) == n
        assert {f.status for f in g.entries.values()} == {ReturnStatus.RETURN}
        assert canonical_serialize(g) == want


@pytest.fixture
def short_switch_interval():
    """Preempts threads about every 10 us, for races that need it, and
    puts the interval back as the test found it."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


#: every generator family at its parameters' upper bounds, and big-random
#: at 500 functions, two seeds each
_RAW_GRAPH_SPECS = [
    ScenarioSpec.make(family, seed, **params)
    for family, params in (
        ("shared-code", {"sharers": 256}),
        ("noreturn-chain", {"depth": 64, "early_ret": 1}),
        ("noreturn-cycle", {"k": 64}),
        ("tailcall-ambiguous", {}),
        ("jump-table", {"entries": 256}),
        ("jump-table-overapprox", {"extra": 64}),
        ("multi-entry", {}),
        ("outlined-cold", {}),
        ("opaque-jump", {}),
        ("big-random", {"functions": 500}),
    )
    for seed in (1, 2)
]


def test_raw_graph_does_not_depend_on_the_schedule(short_switch_interval):
    # jumps are labelled once, at the export, on finished blocks, so the
    # graph before finalization is the same at every worker count
    for spec in _RAW_GRAPH_SPECS:
        img, _ = generate(spec)
        graphs = []
        for workers in (1, 2, 2, 4, 4):
            state = ConcurrentCfgState(img, workers)
            state.run()
            g = state.export_cfg()
            graphs.append((g.blocks, g.edges, g.entries, g.candidates))
        assert all(g == graphs[0] for g in graphs), spec


def _noreturn_pairs(n):
    """n functions `f_i: jmp g_i`, then n functions `g_i: ret`, each g_i
    flagged noreturn. A jump into g_i is a tail call only if g_i's flag
    is known when the jump's edge is made; a plain branch into the `ret`
    would make f_i return. The oracle knows every seed first, so its f_i
    tail-call the flagged g_i and never return."""
    jmp = LENGTHS[Opcode.JMP_DIRECT]
    g0 = 0x1000 + jmp * n
    instrs = [(Opcode.JMP_DIRECT, g0 + i) for i in range(n)] + [(Opcode.RET,)] * n
    symbols = [(0x1000 + jmp * i, f"f{i}", False) for i in range(n)]
    symbols += [(g0 + i, f"g{i}", True) for i in range(n)]
    return asm_image(0x1000, instrs, symbols)


@pytest.mark.parametrize("workers", [2, 4])
def test_every_seed_is_known_before_any_jump_is_classified(short_switch_interval, workers):
    img = _noreturn_pairs(2000)
    oracle = serial_construct(img)
    assert {oracle.entries[0x1000].status, oracle.entries[0x1000 + 5 * 2000].status} == {
        ReturnStatus.NORETURN
    }
    want = canonical_serialize(oracle)
    diverged = sum(canonical_serialize(construct(img, workers)) != want for _ in range(5))
    assert diverged == 0


def _two_jumps_to_one_target(teardown_taken):
    """A function `f` whose `jcc` leads to two jumps to 0x10, one after
    a frame teardown and one plain, with the teardown on the taken side
    or on the fall-through. The torn-down jump makes 0x10 an entry, and
    the plain one is labelled a tail call into it whichever of the two
    is visited first."""
    plain = [(Opcode.JMP_DIRECT, 0x10)]
    torn = [(Opcode.FRAME_TEARDOWN,), (Opcode.JMP_DIRECT, 0x10)]
    if teardown_taken:
        # 0x0 teardown, jmp; 0x6 f: jcc 0x0; 0xb jmp; 0x10 ret
        instrs, f = torn + [(Opcode.JCC_DIRECT, 0x0)] + plain, 0x6
    else:
        # 0x0 jmp; 0x5 f: jcc 0x0; 0xa teardown, jmp; 0x10 ret
        instrs, f = plain + [(Opcode.JCC_DIRECT, 0x0)] + torn, 0x5
    return asm_image(0x0, instrs + [(Opcode.RET,)], [(f, "f", False)])


@pytest.mark.parametrize("teardown_taken", [True, False])
def test_jump_labels_do_not_depend_on_the_visit_order(short_switch_interval, teardown_taken):
    img = _two_jumps_to_one_target(teardown_taken)
    oracle = serial_construct(img)
    # the torn-down jump makes 0x10 an entry, so both jumps tail-call it
    tails = {(e.source, e.target) for e in oracle.edges if e.kind is EdgeKind.TAIL_CALL}
    assert {t for _, t in tails} == {0x10} and len(tails) == 2
    assert oracle.entries[0x10].status is ReturnStatus.RETURN
    want = canonical_serialize(oracle)
    for workers in (1, 2, 4):
        for _ in range(10):
            assert canonical_serialize(construct(img, workers)) == want, workers


@pytest.mark.parametrize("workers", [1, 2])
def test_shared_code_splits_grow_linearly(monkeypatch, workers):
    # each sharer inserts a start into one straight-line run: every
    # block is scanned once, and the split count grows linearly with the
    # sharers (the cut that skips known starts is guarded by
    # test_starts_inserted_below_known_ones_split_once_each)
    scans = []

    def counted(*args):
        scans.append(args)
        return scan_block(*args)

    monkeypatch.setattr(parallel, "scan_block", counted)
    splits = {}
    for sharers in (128, 256):
        img, _ = generate(ScenarioSpec.make("shared-code", 1, sharers=sharers))
        scans.clear()
        cfg, stats, _ = construct_details(img, workers)
        assert canonical_serialize(cfg) == canonical_serialize(serial_construct(img))
        assert len(scans) == stats.blocks_created
        splits[sharers] = stats.splits_performed
    assert splits[256] <= 2.2 * max(splits[128], 1), splits


def test_workers_are_joined_before_the_error_surfaces():
    # a worker still running after the raise shows in some runs only
    for _ in range(10):
        state = ConcurrentCfgState(_FALLTHROUGH_TO_TEXT_END, 4)
        exc = _raised_within(10, state.run)
        assert isinstance(exc, OutOfRangeError)
        assert not any(t.is_alive() for t in state.pool._threads)


def test_a_worker_that_fails_to_start_leaves_no_thread_behind(monkeypatch, paper_layout):
    # the second worker's start raises, as `Thread.start` does when the
    # system has no thread to give: the error surfaces, and the worker
    # that did start is stopped and joined
    real_start = threading.Thread.start
    starts = []

    def start(thread):
        starts.append(thread)
        if len(starts) == 2:
            raise RuntimeError("can't start new thread")
        real_start(thread)

    baseline = threading.active_count()
    monkeypatch.setattr(threading.Thread, "start", start)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        construct(paper_layout, 2)
    assert len(starts) == 2 and not starts[0].is_alive()
    assert threading.active_count() == baseline


def _within(seconds, fn):
    """Runs `fn` under `_raised_within` and re-raises what it raised."""
    exc = _raised_within(seconds, fn)
    if exc is not None:
        raise exc


class TestTaskPool:
    """The pool's contract, at one worker, at the box's core count and
    at more workers than cores."""

    @pytest.fixture(params=[1, 2, 8])
    def pool(self, request):
        pool = parallel._TaskPool(request.param)
        pool.start()
        yield pool
        pool.shutdown()
        assert not any(t.is_alive() for t in pool._threads)

    def test_wait_idle_on_an_empty_pool_returns(self, pool):
        _within(5, pool.wait_idle)

    def test_spawn_from_outside_wakes_a_sleeping_pool(self, pool):
        # the quiescence sweep spawns from the driving thread after
        # every worker went back to sleep
        ran = []

        def body():
            pool.spawn(lambda ctx: ran.append(1))
            pool.wait_idle()
            time.sleep(0.05)
            pool.spawn(lambda ctx: ran.append(2))
            pool.wait_idle()

        _within(10, body)
        assert ran == [1, 2]

    def test_spawned_tasks_finish_before_wait_idle_returns(self, pool):
        # a short switch interval interleaves the count's updates: one
        # lost would make `wait_idle` return early or never
        leaves = []

        def task(depth):
            def run(ctx):
                if depth == 0:
                    time.sleep(0.001)
                    leaves.append(ctx)
                    return
                pool.spawn(task(depth - 1))
                pool.spawn(task(depth - 1))

            return run

        def body():
            for n in range(1, 4):
                pool.spawn(task(7))
                pool.wait_idle()
                assert len(leaves) == n * 2**7

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _within(30, body)
        finally:
            sys.setswitchinterval(interval)
        assert set(map(id, leaves)) <= set(map(id, pool.ctxs))

    def test_first_error_wins_and_later_spawns_never_run(self, pool):
        ran = []

        def fail(exc):
            def run(ctx):
                raise exc

            return run

        first = ValueError("first")

        def body():
            pool.spawn(fail(first))
            with pytest.raises(ValueError) as raised:
                pool.wait_idle()
            assert raised.value is first
            pool.spawn(fail(KeyError("second")))
            pool.spawn(lambda ctx: ran.append(ctx))
            with pytest.raises(ValueError) as raised:
                pool.wait_idle()
            assert raised.value is first
            pool.shutdown()

        _within(10, body)
        assert ran == []

    def test_tasks_queued_before_the_first_error_never_run(self, pool):
        # every other worker holds a blocker, so the recorder the failing
        # task queues waits until that task's own worker is free, and by
        # then the error is recorded
        gate = threading.Event()
        ran = []
        first = ValueError("first")

        def block(ctx):
            gate.wait(5)

        def fail(ctx):
            pool.spawn(lambda ctx: ran.append(ctx))
            raise first

        def body():
            for _ in range(len(pool.ctxs) - 1):
                pool.spawn(block)
            pool.spawn(fail)
            with pytest.raises(ValueError) as raised:
                pool.wait_idle()
            assert raised.value is first
            gate.set()
            pool.shutdown()

        try:
            _within(10, body)
        finally:
            gate.set()
        assert ran == []


def test_spawns_do_not_wake_a_thread_each():
    # a pool that wakes a sleeper per spawn switches threads about once
    # per task (about 2,200 tasks here); one whose running workers take
    # new tasks first switches about once per GIL switch interval
    resource = pytest.importorskip("resource")
    img, _ = generate(ScenarioSpec.make("big-random", seed=3, functions=2000))
    medians = {}
    for workers in (2, 8):
        deltas = []
        for _ in range(5):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw
            construct(img, workers)
            deltas.append(resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw - before)
        medians[workers] = (statistics.median(deltas), deltas)
    if not any(any(deltas) for _, deltas in medians.values()):
        pytest.skip("this platform does not count voluntary context switches")
    assert all(median < 500 for median, _ in medians.values()), medians


def test_worker_count_validated(paper_layout):
    with pytest.raises(ValueError):
        construct(paper_layout, 0)


#: one image of each generator family, jump tables included
_FAMILY_SPECS = [
    ScenarioSpec.make("shared-code", 1),
    ScenarioSpec.make("noreturn-chain", 1),
    ScenarioSpec.make("noreturn-cycle", 1),
    ScenarioSpec.make("tailcall-ambiguous", 1),
    ScenarioSpec.make("jump-table", 1),
    ScenarioSpec.make("jump-table-overapprox", 1),
    ScenarioSpec.make("multi-entry", 1),
    ScenarioSpec.make("outlined-cold", 1),
    ScenarioSpec.make("opaque-jump", 1),
    ScenarioSpec.make("big-random", 1, functions=120),
]


class _NestingCheck:
    """Stands in for one engine lock, an end stripe or a record stripe,
    and fails the acquiring thread if that thread already holds an engine
    lock."""

    def __init__(self, lock, what, held, log):
        self._lock = lock
        self._what = what
        self._held = held
        self._log = log

    def __enter__(self):
        if getattr(self._held, "lock", None) is not None:
            self._log.append("nested")
            raise AssertionError(f"a thread took a {self._what} lock while holding another")
        self._lock.acquire()
        self._held.lock = self
        self._log.append(self._what)

    def __exit__(self, *exc):
        self._held.lock = None
        self._lock.release()


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_no_thread_holds_two_end_stripes(workers):
    # holding one engine lock at a time, an end stripe or a record
    # stripe, is what rules out a deadlock between locks taken in one
    # order by one thread and in another by a second; a short switch
    # interval preempts workers inside their critical sections
    held = threading.local()
    log = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for spec in _FAMILY_SPECS:
            img, _ = generate(spec)
            state = ConcurrentCfgState(img, workers)
            log.clear()
            state._end_locks = tuple(
                _NestingCheck(lk, "stripe", held, log) for lk in state._end_locks
            )
            state._record_locks = tuple(
                _NestingCheck(lk, "record", held, log) for lk in state._record_locks
            )
            out = []
            assert _raised_within(30, lambda: out.append(state.run())) is None, spec.family
            assert "nested" not in log, spec.family
            assert {"stripe", "record"} <= set(log), spec.family
            (stats,) = out
            # a lost update at one end would register two blocks there
            assert stats.end_registrations == len(state.blocks_by_end), spec.family
            cfg = state.export_cfg()
            finalize.finalize_details(cfg, state.registry, finalize.EdgeIndex(cfg.edges))
            want = canonical_serialize(serial_construct(img))
            assert canonical_serialize(cfg) == want, spec.family
    finally:
        sys.setswitchinterval(interval)


class TestEngineMemory:
    """A record holds its status, and a waiter set only while it uses it,
    and shares a fixed table of stripe locks; nothing is kept per visit;
    the export moves the state into the graph; and the engine's state is
    freed before finalize."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_records_hold_only_what_they_use(self, workers):
        assert parallel._FuncRecord.__slots__ == ("status", "waiters")
        waited = 0
        for spec in _FAMILY_SPECS:
            img, _ = generate(spec)
            state = ConcurrentCfgState(img, workers)
            stats = state.run()
            waited += stats.waiters_registered
            for rec in state.functions.values():
                assert rec.status is not ReturnStatus.UNSET and rec.waiters is None
            assert state._return_work == []
        assert waited > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_export_moves_the_state(self, workers):
        # the export empties the maps it reads or drops, so the state and
        # the graph are never both held in full, and the graph it leaves
        # finalizes to the oracle's bytes
        for spec in _FAMILY_SPECS:
            img, _ = generate(spec)
            state = ConcurrentCfgState(img, workers)
            stats = state.run()
            assert len(state.blocks_by_start) == stats.blocks_created > 0, spec.family
            cfg = state.export_cfg()
            assert state.blocks_by_start == {}, spec.family
            assert state.blocks_by_end == {}, spec.family
            assert state.functions == {}, spec.family
            assert state.incoming == {}, spec.family
            assert len(cfg.blocks) == stats.blocks_created, spec.family
            finalize.finalize_details(cfg, state.registry, finalize.EdgeIndex(cfg.edges))
            want = canonical_serialize(serial_construct(img))
            assert canonical_serialize(cfg) == want, spec.family

    def test_state_is_freed_before_finalize(self, monkeypatch):
        refs = []
        real_export = ConcurrentCfgState.export_cfg

        def export(self):
            refs.append(weakref.ref(self))
            return real_export(self)

        alive = []
        real_finalize = parallel.finalize_details

        def check(*args):
            alive.append(refs[-1]() is not None)
            return real_finalize(*args)

        monkeypatch.setattr(ConcurrentCfgState, "export_cfg", export)
        monkeypatch.setattr(parallel, "finalize_details", check)
        img, _ = generate(ScenarioSpec.make("big-random", 4, functions=200))
        for workers in (1, 2):
            construct_details(img, workers)
        assert alive == [False, False]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_traced_peak_per_function(self, workers):
        img, _ = generate(ScenarioSpec.make("big-random", 1, functions=2000))
        seeded = len(img.func_symbols())
        tracemalloc.start()
        try:
            construct_details(img, workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / seeded < 1600, f"{peak / seeded:.0f} B per seeded function"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "spec",
    [
        ScenarioSpec.make("jump-table", 2),
        ScenarioSpec.make("jump-table-overapprox", 2, extra=2),
        ScenarioSpec.make("big-random", 2, functions=300),
    ],
    ids=lambda spec: spec.family,
)
def test_tables_are_read_again_only_when_their_bound_grows(monkeypatch, spec, workers):
    # a table's targets depend on its base and bound alone, so after the
    # first read only a larger bound can add one
    img, _ = generate(spec)
    want = canonical_serialize(serial_construct(img))
    reads = []
    real_read = jumptables.read_table_entries

    def counted(image, base, bound):
        reads.append((base, bound))
        return real_read(image, base, bound)

    monkeypatch.setattr(jumptables, "read_table_entries", counted)
    state = ConcurrentCfgState(img, workers)
    state.run()
    cfg = state.export_cfg()
    finalize.finalize_details(cfg, state.registry, finalize.EdgeIndex(cfg.edges))
    descs = state.registry.sorted_descriptors()
    assert descs
    for desc in descs:
        bounds = [bound for base, bound in reads if base == desc.base]
        assert desc.read and bounds, hex(desc.base)
        assert all(a < b for a, b in zip(bounds, bounds[1:])), (hex(desc.base), bounds)
        assert bounds[-1] == desc.effective_bound
    assert {base for base, _ in reads} == {desc.base for desc in descs}
    assert canonical_serialize(cfg) == want
