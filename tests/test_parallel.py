import threading

import pytest

from pcfg._kernels import scan_block
from pcfg.cfg import EdgeKind, ReturnStatus, canonical_serialize
from pcfg.errors import AlreadySetError
from pcfg.isa import Opcode
from pcfg.parallel import (
    ConcurrentCfgState,
    construct,
    construct_details,
    resolve_status_cycles,
    traverse_function,
    update_return_status,
)
from pcfg.serial import serial_construct
from pcfg.workload import ScenarioSpec, generate

from conftest import asm_image


def _claim_and_scan(state, addr):
    assert state.attempt_create_block(addr)
    blk = state.blocks_by_start[addr]
    end, kind, a, b = scan_block(state.image.text, state.image.text_base, addr)
    blk.end, blk.term, blk.ta, blk.tb = end, kind, a, b
    return blk


class TestBlockCreation:
    def test_concurrent_claims_have_one_winner(self, paper_layout):
        state = ConcurrentCfgState(paper_layout, 1)
        wins = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            wins.append(state.attempt_create_block(0xD))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(wins) == 1

    def test_second_sequential_claim_loses(self, paper_layout):
        state = ConcurrentCfgState(paper_layout, 1)
        assert state.attempt_create_block(0x4)
        assert not state.attempt_create_block(0x4)

    def test_distinct_addresses_win_independently(self, paper_layout):
        state = ConcurrentCfgState(paper_layout, 1)
        results = {}

        def worker(addr):
            results[addr] = state.attempt_create_block(addr)

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
            wins.append(state.attempt_create_function(0x900 & 0xF or 0x4))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(wins) == 1
        assert not state.attempt_create_function(0x4)

    def test_symbol_seeding_creates_exactly_n(self):
        img, _ = generate(ScenarioSpec.make("big-random", seed=2, functions=50))
        n_seeds = len(img.func_symbols())
        cfg, stats, _ = construct_details(img, 4, debug=True)
        seeded = [f for f in cfg.entries.values() if f.seed]
        assert len(seeded) == n_seeds
        assert all(v == 1 for v in stats.per_entry_creations.values())


class TestEndRegistrationAndSplit:
    def test_winner_creates_edges_loser_gets_none(self):
        img = asm_image(0x4, [(Opcode.ALU,), (Opcode.ALU,), (Opcode.JMP_DIRECT, 0x4)])
        state = ConcurrentCfgState(img, 1)
        b1 = _claim_and_scan(state, 0x4)
        won, edges = state.register_block_end(b1, None)
        assert won
        assert [(e.target, e.kind) for e in edges] == [(0x4, EdgeKind.DIRECT)]
        b2 = _claim_and_scan(state, 0x7)
        won2, edges2 = state.register_block_end(b2, None)
        assert not won2 and edges2 == []

    def test_two_way_split(self, paper_layout):
        state = ConcurrentCfgState(paper_layout, 1)
        b1 = _claim_and_scan(state, 0x4)
        assert state.register_block_end(b1, None)[0]
        b2 = _claim_and_scan(state, 0xA)
        won, _ = state.register_block_end(b2, None)
        assert not won
        state.split_chain(b2)
        assert (b2.start, b2.end) == (0xA, 0xD)
        assert b2.term == int(Opcode.RET)
        assert (b1.start, b1.end) == (0x4, 0xA)
        assert list(b1.out) == [(0xA, int(EdgeKind.COND_FALLTHROUGH))]
        assert state.blocks_by_end[0xD].block is b2
        assert state.blocks_by_end[0xA].block is b1

    def test_three_way_split_chain(self):
        # starts 0x4, 0xa, 0xd all scan to the jump ending at 0x12
        img = asm_image(
            0x4, [(Opcode.ALU,), (Opcode.ALU,), (Opcode.ALU,), (Opcode.JMP_DIRECT, 0x4)]
        )
        state = ConcurrentCfgState(img, 1)
        first = _claim_and_scan(state, 0x4)
        assert state.register_block_end(first, None)[0]
        mid = _claim_and_scan(state, 0xD)
        won, _ = state.register_block_end(mid, None)
        assert not won
        state.split_chain(mid)
        last = _claim_and_scan(state, 0xA)
        won, _ = state.register_block_end(last, None)
        assert not won
        state.split_chain(last)
        spans = {(b.start, b.end) for b in state.blocks_by_start.values()}
        assert spans == {(0x4, 0xA), (0xA, 0xD), (0xD, 0x12)}
        tail = state.blocks_by_end[0x12].block
        assert (0x4, int(EdgeKind.DIRECT)) in tail.out
        for start, end in ((0x4, 0xA), (0xA, 0xD)):
            blk = state.blocks_by_start[start]
            assert list(blk.out) == [(end, int(EdgeKind.COND_FALLTHROUGH))]

    def test_same_start_registration_is_noop(self, paper_layout):
        state = ConcurrentCfgState(paper_layout, 1)
        b1 = _claim_and_scan(state, 0x4)
        assert state.register_block_end(b1, None)[0]
        won, edges = state.register_block_end(b1, None)
        assert won and edges == []
        assert state.blocks_by_end[0xD].block is b1


class TestTraverseFunction:
    def test_call_discovers_callee_and_fallthrough(self):
        img = asm_image(
            0x0,
            [(Opcode.CALL, 0xA), (Opcode.RET,), (Opcode.NOP,), (Opcode.NOP,),
             (Opcode.NOP,), (Opcode.ALU,), (Opcode.RET,)],
            symbols=[(0x0, "caller$1", False)],
        )
        state = ConcurrentCfgState(img, 1)
        state.attempt_create_function(0x0)
        new = traverse_function(state, img, state.functions[0x0])
        assert new == {0xA}
        new2 = traverse_function(state, img, state.functions[0xA])
        assert new2 == set()
        assert state.functions[0xA].status is ReturnStatus.RETURN
        # the drain re-queued the fall-through; resume the caller
        assert traverse_function(state, img, state.functions[0x0]) == set()
        assert state.functions[0x0].status is ReturnStatus.RETURN
        blk = state.blocks_by_end[0x5].block
        assert (0x5, int(EdgeKind.CALL_FALLTHROUGH)) in blk.out

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
        state.attempt_create_function(0x4)
        update_return_status(state, 0x4, ReturnStatus.RETURN)
        with pytest.raises(AlreadySetError):
            update_return_status(state, 0x4, ReturnStatus.RETURN)
        with pytest.raises(AlreadySetError):
            update_return_status(state, 0x4, ReturnStatus.NORETURN)

    def test_eager_notification_drains_waiters_before_quiescence(self):
        img, truth = generate(
            ScenarioSpec.make("noreturn-chain", seed=9, depth=8, early_ret=1)
        )
        cfg, stats, _ = construct_details(img, 4)
        assert stats.waiters_live_at_quiescence == 0
        assert stats.waiters_registered >= 1
        assert stats.call_fallthrough_edges == 8

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

    def test_resolve_status_cycles_direct(self, paper_layout):
        state = ConcurrentCfgState(paper_layout, 1)
        state.attempt_create_function(0x4)
        state.attempt_create_function(0xA)
        update_return_status(state, 0xA, ReturnStatus.RETURN)
        resolve_status_cycles(state)
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

    def test_repeated_runs_identical(self):
        img, _ = generate(ScenarioSpec.make("big-random", 5, functions=80))
        outputs = {canonical_serialize(construct(img, 4)) for _ in range(5)}
        assert len(outputs) == 1


class TestInstrumentation:
    def _stress(self):
        img, _ = generate(ScenarioSpec.make("shared-code", 0, sharers=64))
        return construct_details(img, 8, debug=True)

    def test_unique_creations_per_address(self):
        cfg, stats, _ = self._stress()
        assert stats.per_start_creations
        assert all(v == 1 for v in stats.per_start_creations.values())
        assert all(v == 1 for v in stats.per_end_registrations.values())
        assert all(v == 1 for v in stats.per_entry_creations.values())
        assert set(stats.per_start_creations) == set(cfg.blocks)

    def test_split_chains_strictly_decrease(self):
        _, stats, _ = self._stress()
        assert stats.splits_performed > 0
        for chain in stats.split_chains:
            assert all(a > b for a, b in zip(chain, chain[1:]))

    def test_no_per_instruction_lookups(self):
        _, stats, _ = self._stress()
        assert (
            stats.block_start_lookups
            <= stats.cfis_decoded + stats.branch_targets_processed
        )

    def test_scan_cache_only_skips_decoding(self):
        img, _ = generate(ScenarioSpec.make("shared-code", 1, sharers=8))
        base = canonical_serialize(construct(img, 1))
        cfg, stats, _ = construct_details(img, 1)
        assert canonical_serialize(cfg) == base


def test_worker_count_validated(paper_layout):
    with pytest.raises(ValueError):
        construct(paper_layout, 0)
