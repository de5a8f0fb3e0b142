import random

import pytest

from pcfg.cfg import (
    Block,
    Cfg,
    Edge,
    EdgeKind,
    FunctionEntry,
    ReturnStatus,
    canonical_serialize,
    validate,
)
from pcfg.finalize import (
    assign_function_boundaries,
    correct_tail_calls,
    finalize_details,
    trim_overlapping_tables,
)
from pcfg.isa import Instruction, Opcode
from pcfg.jumptables import TableRegistry
from pcfg.serial import serial_construct_details
from pcfg.parallel import construct_details
from pcfg.workload import ScenarioSpec, generate


def _entry(addr, seed=True, status=ReturnStatus.RETURN):
    return FunctionEntry(addr, None, status, seed)


def _ret_block(addr, end=None):
    end = end if end is not None else addr + 1
    return Block(addr, end, Instruction(end - 1, Opcode.RET, 1))


def _jmp_block(addr, end, target):
    return Block(addr, end, Instruction(end - 5, Opcode.JMP_DIRECT, 5, target))


class TestTrim:
    def _overapprox(self, seed=0, extra=2):
        img, truth = generate(
            ScenarioSpec.make("jump-table-overapprox", seed=seed, extra=extra)
        )
        return img, truth

    def test_trim_op_removes_overread_edges(self):
        img, _ = self._overapprox(seed=3)
        from pcfg.parallel import ConcurrentCfgState

        state = ConcurrentCfgState(img, 1)
        state.run()
        raw = state.export_cfg()
        trimmed = raw.clone()
        trim_overlapping_tables(trimmed, state.registry)
        raw_ind = sum(1 for e in raw.edges if e.kind is EdgeKind.INDIRECT)
        new_ind = sum(1 for e in trimmed.edges if e.kind is EdgeKind.INDIRECT)
        assert new_ind < raw_ind

    def test_overapproximated_table_is_trimmed(self):
        img, truth = self._overapprox()
        cfg, registry = serial_construct_details(img)
        for desc in registry.sorted_descriptors():
            assert desc.final_bound == truth.jump_table_sizes[desc.base]
        # bogus indirect edges were removed along with dangling blocks
        d1 = registry.sorted_descriptors()[0]
        (owner,) = (b.start for b in cfg.blocks.values() if b.end == d1.jump_end)
        out = {e.target for e in cfg.edges if e.source == owner and e.kind is EdgeKind.INDIRECT}
        assert len(out) == truth.jump_table_sizes[d1.base]

    def test_trimmed_target_shared_with_other_table_survives(self):
        img, truth = self._overapprox(seed=1)
        cfg, registry = serial_construct_details(img)
        d1, d2 = registry.sorted_descriptors()
        # the second table's target was over-read by the first; it must
        # still be a block because its own table reaches it
        (survivor,) = d2.targets
        assert survivor in cfg.blocks

    def test_dangling_decoys_removed(self):
        img, truth = self._overapprox(seed=2, extra=3)
        cfg, registry = serial_construct_details(img)
        d1 = registry.sorted_descriptors()[0]
        trimmed_away = {
            t
            for t in d1.targets
            if all(t not in ranges_to_set(r) for r in truth.function_ranges.values())
        }
        for t in trimmed_away:
            assert t not in cfg.blocks

    def test_disjoint_tables_unchanged(self):
        img, truth = generate(ScenarioSpec.make("jump-table", seed=3, entries=4))
        cfg, registry = serial_construct_details(img)
        (desc,) = registry.sorted_descriptors()
        assert desc.final_bound == desc.effective_bound == 4


def ranges_to_set(ranges):
    out = set()
    for lo, hi in ranges:
        out.update(range(lo, hi))
    return out


class TestBoundaries:
    def test_shared_block_in_both_boundaries(self):
        img, _ = generate(ScenarioSpec.make("multi-entry", seed=4))
        cfg, registry = serial_construct_details(img)
        entries = sorted(a for a, f in cfg.entries.items() if f.name and "e" in f.name)
        bounds = {fb.entry: fb.blocks for fb in assign_function_boundaries(cfg)}
        shared = bounds[entries[0]] & bounds[entries[1]]
        assert shared, "expected a block shared by both entries"

    def test_tail_call_target_not_in_boundary(self):
        img, _ = generate(ScenarioSpec.make("tailcall-ambiguous", seed=4))
        cfg, registry = serial_construct_details(img)
        tail_targets = {e.target for e in cfg.edges if e.kind is EdgeKind.TAIL_CALL}
        (target,) = tail_targets
        for fb in assign_function_boundaries(cfg):
            if fb.entry != target:
                assert target not in fb.blocks

    @pytest.mark.parametrize("seed", range(4))
    def test_incremental_update_matches_full_walk(self, seed):
        # flip branch kinds both ways and drop heuristic entries, as a
        # tail-call correction round does; only the boundaries holding a
        # flipped edge's source are walked again
        img, _ = generate(ScenarioSpec.make("big-random", seed=seed, functions=60))
        g, _, _ = construct_details(img, 1)
        prior = assign_function_boundaries(g)
        rng = random.Random(seed)
        branches = sorted(
            e for e in g.edges if e.kind in (EdgeKind.DIRECT, EdgeKind.TAIL_CALL)
        )
        flipped = rng.sample(branches, len(branches) // 3)
        out = g.clone()
        for e in flipped:
            out.edges.discard(e)
            new = EdgeKind.DIRECT if e.kind is EdgeKind.TAIL_CALL else EdgeKind.TAIL_CALL
            out.edges.add(Edge(e.source, e.target, new))
        heuristic = sorted(a for a, f in g.entries.items() if not f.seed)
        for addr in rng.sample(heuristic, min(2, len(heuristic))):
            del out.entries[addr]
        full = assign_function_boundaries(out)
        assert [(b.entry, b.blocks) for b in full] != [(b.entry, b.blocks) for b in prior]
        incremental = assign_function_boundaries(out, prior, [e.source for e in flipped])
        assert [(b.entry, b.blocks) for b in incremental] == [
            (b.entry, b.blocks) for b in full
        ]

    def test_isolated_entry_singleton_boundary(self):
        g = Cfg(blocks={4: _ret_block(4)}, entries={4: _entry(4)})
        (fb,) = assign_function_boundaries(g)
        assert fb.blocks == {4}


class TestTailCallRules:
    def _two_branch_graph(self, kind_a, kind_b, target_entry=True):
        """Blocks a and b both branch to t."""
        g = Cfg()
        g.blocks[0x0] = _jmp_block(0x0, 0x5, 0x20)
        g.blocks[0x10] = _jmp_block(0x10, 0x15, 0x20)
        g.blocks[0x20] = _ret_block(0x20)
        g.edges = {Edge(0x0, 0x20, kind_a), Edge(0x10, 0x20, kind_b)}
        g.entries = {0x0: _entry(0x0), 0x10: _entry(0x10)}
        if target_entry:
            g.entries[0x20] = _entry(0x20, seed=False)
        return g

    def test_rule1_direct_branch_to_called_target_flips(self):
        g = self._two_branch_graph(EdgeKind.TAIL_CALL, EdgeKind.DIRECT)
        flipped = set()
        sources = correct_tail_calls(g, assign_function_boundaries(g), flipped)
        assert sources == [0x10]
        assert flipped == {(0x10, 0x20)}
        assert Edge(0x10, 0x20, EdgeKind.TAIL_CALL) in g.edges

    def test_rule2_branch_within_boundary_flips_back(self):
        # entry block conditionally reaches t, and t is also tail-called
        # from inside the same function: boundary membership wins
        g = Cfg()
        g.blocks[0x0] = Block(0x0, 0x5, Instruction(0x0, Opcode.JCC_DIRECT, 5, 0x20))
        g.blocks[0x5] = _jmp_block(0x5, 0xA, 0x20)
        g.blocks[0x20] = _ret_block(0x20)
        g.edges = {
            Edge(0x0, 0x20, EdgeKind.COND_TAKEN),
            Edge(0x0, 0x5, EdgeKind.COND_FALLTHROUGH),
            Edge(0x5, 0x20, EdgeKind.TAIL_CALL),
        }
        g.entries = {0x0: _entry(0x0)}
        sources = correct_tail_calls(g, assign_function_boundaries(g), set())
        assert sources == [0x5]
        assert Edge(0x5, 0x20, EdgeKind.DIRECT) in g.edges

    def test_rule3_sole_incoming_edge_flips_and_drops_heuristic_entry(self):
        g = Cfg()
        g.blocks[0x0] = _jmp_block(0x0, 0x5, 0x20)
        g.blocks[0x20] = _ret_block(0x20)
        g.edges = {Edge(0x0, 0x20, EdgeKind.TAIL_CALL)}
        g.entries = {0x0: _entry(0x0), 0x20: _entry(0x20, seed=False)}
        sources = correct_tail_calls(g, assign_function_boundaries(g), set())
        assert sources == [0x0]
        assert Edge(0x0, 0x20, EdgeKind.DIRECT) in g.edges
        assert 0x20 not in g.entries

    def test_rule3_keeps_seeded_entry(self):
        g = Cfg()
        g.blocks[0x0] = _jmp_block(0x0, 0x5, 0x20)
        g.blocks[0x20] = _ret_block(0x20)
        g.edges = {Edge(0x0, 0x20, EdgeKind.TAIL_CALL)}
        g.entries = {0x0: _entry(0x0), 0x20: _entry(0x20, seed=True)}
        sources = correct_tail_calls(g, assign_function_boundaries(g), set())
        assert sources == [0x0]
        assert 0x20 in g.entries

    def test_ledger_blocks_second_flip(self):
        g = self._two_branch_graph(EdgeKind.TAIL_CALL, EdgeKind.DIRECT)
        flipped = {(0x10, 0x20)}
        assert correct_tail_calls(g, assign_function_boundaries(g), flipped) == []
        assert flipped == {(0x10, 0x20)}
        assert Edge(0x10, 0x20, EdgeKind.DIRECT) in g.edges


class TestFinalize:
    def test_idempotent(self):
        for family, params in (
            ("tailcall-ambiguous", {}),
            ("outlined-cold", {}),
            ("jump-table-overapprox", {"extra": 2}),
            ("big-random", {"functions": 50}),
        ):
            img, _ = generate(ScenarioSpec.make(family, 6, **params))
            cfg, registry = serial_construct_details(img)
            before = canonical_serialize(cfg)
            finalize_details(cfg, registry)
            assert canonical_serialize(cfg) == before

    def test_never_adds_elements(self):
        img, _ = generate(ScenarioSpec.make("jump-table-overapprox", seed=7, extra=2))
        from pcfg.parallel import ConcurrentCfgState

        state = ConcurrentCfgState(img, 2)
        pre, _ = state.run()  # already finalized; rebuild the raw graph
        raw = state.export_cfg()
        final = raw.clone()
        finalize_details(final, state.registry)
        assert set(final.blocks) <= set(raw.blocks)
        assert final.edges <= raw.edges | {
            Edge(e.source, e.target, EdgeKind.TAIL_CALL) for e in raw.edges
        } | {Edge(e.source, e.target, EdgeKind.DIRECT) for e in raw.edges}
        covered_raw = ranges_to_set((b.start, b.end) for b in raw.blocks.values())
        covered_final = ranges_to_set((b.start, b.end) for b in final.blocks.values())
        assert covered_final <= covered_raw

    def test_flip_budget_bounded_by_edges(self):
        img, _ = generate(ScenarioSpec.make("big-random", seed=8, functions=80))
        from pcfg.parallel import ConcurrentCfgState

        state = ConcurrentCfgState(img, 2)
        state.run()
        raw = state.export_cfg()
        raw_edges = len(raw.edges)
        stats = finalize_details(raw, state.registry)
        assert stats.flips <= raw_edges
        assert stats.iterations <= stats.flips + 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_construct_never_clones(self, monkeypatch, workers):
        # finalization trims a table and flips an edge on this image, yet
        # rewrites the exported graph instead of copying it
        img, _ = generate(ScenarioSpec.make("big-random", seed=1, functions=300))
        clones = []
        real_clone = Cfg.clone

        def counted(g):
            clones.append(g)
            return real_clone(g)

        monkeypatch.setattr(Cfg, "clone", counted)
        _, stats, registry = construct_details(img, workers)
        assert stats.finalize_flips > 0
        assert any(d.final_bound < d.effective_bound for d in registry.sorted_descriptors())
        assert clones == []

    def test_outlined_cold_folds_back(self):
        img, truth = generate(ScenarioSpec.make("outlined-cold", seed=9))
        cfg, _ = serial_construct_details(img)
        assert not any(e.kind is EdgeKind.TAIL_CALL for e in cfg.edges)
        (entry,) = cfg.entries
        assert len(truth.function_ranges[entry]) == 2  # non-contiguous function

    def test_heuristic_orphan_pruned_seed_retained(self):
        g = Cfg()
        g.blocks[0x0] = _ret_block(0x0)
        g.blocks[0x10] = _ret_block(0x10)
        g.entries = {0x0: _entry(0x0, seed=True), 0x10: _entry(0x10, seed=False)}
        finalize_details(g, TableRegistry())
        assert 0x0 in g.entries
        assert 0x10 not in g.entries
        assert 0x10 not in g.blocks

    def test_output_validates(self):
        img, _ = generate(ScenarioSpec.make("big-random", seed=10, functions=60))
        cfg, _, _ = construct_details(img, 4)
        assert validate(cfg) == []
