import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcfg import cfg as cfg_module
from pcfg import finalize, parallel
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
    EdgeIndex,
    FinalizeStats,
    FunctionBoundary,
    _drop_unreachable,
    _drop_unreachable_below,
    assign_function_boundaries,
    correct_tail_calls,
    finalize_details,
    trim_overlapping_tables,
)
from pcfg.image import load_image, pack_image
from pcfg.isa import Instruction, Opcode
from pcfg.jumptables import TableRegistry
from pcfg.serial import serial_construct, serial_construct_details
from pcfg.parallel import ConcurrentCfgState, construct_details
from pcfg.workload import FAMILIES, ScenarioSpec, generate
from reference_finalize import reference_finalize

#: The generator corpus: every family at three seeds, big-random small.
CORPUS = [
    ScenarioSpec.make(family, seed, **({"functions": 120} if family == "big-random" else {}))
    for family in sorted(FAMILIES)
    for seed in range(3)
]


def _entry(addr, seed=True, status=ReturnStatus.RETURN):
    return FunctionEntry(addr, None, status, seed)


def _ret_block(addr, end=None):
    end = end if end is not None else addr + 1
    return Block(addr, end, Instruction(end - 1, Opcode.RET, 1))


def _jmp_block(addr, end, target):
    return Block(addr, end, Instruction(end - 5, Opcode.JMP_DIRECT, 5, target))


def _boundaries(g):
    """Every entry's boundary, in entry order."""
    return assign_function_boundaries(g, EdgeIndex(g.edges), sorted(g.entries))


def _sweep(g):
    return _drop_unreachable(g, EdgeIndex(g.edges))


class TestTrim:
    def _overapprox(self, seed=0, extra=2):
        img, truth = generate(
            ScenarioSpec.make("jump-table-overapprox", seed=seed, extra=extra)
        )
        return img, truth

    def test_trim_op_removes_overread_edges(self):
        img, _ = self._overapprox(seed=3)
        raw, registry = _engine_before_finalize(img, 1)
        trimmed = raw.clone()
        trim_overlapping_tables(trimmed, registry, EdgeIndex(trimmed.edges))
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
        bounds = {fb.entry: fb.blocks for fb in _boundaries(cfg)}
        shared = bounds[entries[0]] & bounds[entries[1]]
        assert shared, "expected a block shared by both entries"

    def test_tail_call_target_not_in_boundary(self):
        img, _ = generate(ScenarioSpec.make("tailcall-ambiguous", seed=4))
        cfg, registry = serial_construct_details(img)
        tail_targets = {e.target for e in cfg.edges if e.kind is EdgeKind.TAIL_CALL}
        (target,) = tail_targets
        for fb in _boundaries(cfg):
            if fb.entry != target:
                assert target not in fb.blocks

    @pytest.mark.parametrize("seed", range(4))
    def test_incremental_update_matches_full_walk(self, monkeypatch, seed):
        # every boundary a round reads, reused from the last round or
        # walked again, equals a fresh walk of the graph the round sees,
        # and no boundary holding a judged tail call's source is missing
        real_walk = finalize.assign_function_boundaries
        real_round = finalize.correct_tail_calls
        last: list = []
        later = {"reused": 0, "walked": 0}

        def checked(g, index, boundaries, judged):
            judged = list(judged)
            fresh = {fb.entry: fb.blocks for fb in real_walk(g, EdgeIndex(g.edges), g.entries)}
            assert {fb.entry: fb.blocks for fb in boundaries} == {
                fb.entry: fresh[fb.entry] for fb in boundaries
            }
            sources = {e.source for e in judged if e.kind is EdgeKind.TAIL_CALL}
            holding = {a for a, blocks in fresh.items() if blocks & sources}
            assert holding <= {fb.entry for fb in boundaries}
            if last:
                reused = sum(any(fb is old for old in last) for fb in boundaries)
                later["reused"] += reused
                later["walked"] += len(boundaries) - reused
            last[:] = boundaries
            return real_round(g, index, boundaries, judged)

        monkeypatch.setattr(finalize, "correct_tail_calls", checked)
        rng = random.Random(seed)
        kinds = list(EdgeKind) + [EdgeKind.DIRECT, EdgeKind.TAIL_CALL] * 2
        for _ in range(100):
            blocks = rng.randint(2, 12)
            g = Cfg(blocks={4 * i: Block(4 * i, 4 * i + 1) for i in range(blocks)})
            # one edge per source and target, as one terminator makes
            ends = {
                (4 * rng.randrange(blocks), 4 * rng.randrange(blocks)): rng.choice(kinds)
                for _ in range(rng.randint(4, 40))
            }
            g.edges = {Edge(s, t, k) for (s, t), k in ends.items()}
            for _ in range(rng.randint(1, 6)):
                a = 4 * rng.randrange(blocks)
                g.entries[a] = _entry(a, rng.random() < 0.5)
            last.clear()
            finalize_details(g, TableRegistry(), EdgeIndex(g.edges))
        # later rounds both reused boundaries and walked some again
        assert later["reused"] and later["walked"]

    def test_isolated_entry_singleton_boundary(self):
        g = Cfg(blocks={4: _ret_block(4)}, entries={4: _entry(4)})
        (fb,) = _boundaries(g)
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

    @staticmethod
    def _round(g, judged=None):
        """One correction round over every entry's boundary; it judges
        `judged`, or every tail call."""
        if judged is None:
            judged = sorted(e for e in g.edges if e.kind is EdgeKind.TAIL_CALL)
        index = EdgeIndex(g.edges)
        boundaries = assign_function_boundaries(g, index, sorted(g.entries))
        flipped = correct_tail_calls(g, index, boundaries, judged)
        assert TestLocalSweep._normal(index) == TestLocalSweep._normal(EdgeIndex(g.edges))
        return flipped

    def test_rule1_labels_branches_into_entries_without_a_flip(self):
        # both plain branches into the entry 0x20 become tail calls, and
        # no round turns them back: 0x20 has two in-edges and lies in
        # neither branching function. Rule 1 reads entries, not in-edges:
        # a plain branch into a called target that is no entry stays plain
        g = self._two_branch_graph(EdgeKind.DIRECT, EdgeKind.DIRECT)
        g.blocks[0x30] = _jmp_block(0x30, 0x35, 0x50)
        g.blocks[0x40] = Block(0x40, 0x45, Instruction(0x40, Opcode.CALL, 5, 0x50))
        g.blocks[0x50] = _ret_block(0x50)
        g.edges |= {Edge(0x30, 0x50, EdgeKind.DIRECT), Edge(0x40, 0x50, EdgeKind.CALL)}
        g.entries |= {0x30: _entry(0x30), 0x40: _entry(0x40)}
        stats = finalize_details(g, TableRegistry(), EdgeIndex(g.edges))
        assert stats == FinalizeStats(flips=0, iterations=1)
        assert g.edges == {
            Edge(0x0, 0x20, EdgeKind.TAIL_CALL),
            Edge(0x10, 0x20, EdgeKind.TAIL_CALL),
            Edge(0x30, 0x50, EdgeKind.DIRECT),
            Edge(0x40, 0x50, EdgeKind.CALL),
        }

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
        assert self._round(g) == [Edge(0x5, 0x20, EdgeKind.TAIL_CALL)]
        assert Edge(0x5, 0x20, EdgeKind.DIRECT) in g.edges

    def test_rule3_sole_incoming_edge_flips_and_drops_heuristic_entry(self):
        g = Cfg()
        g.blocks[0x0] = _jmp_block(0x0, 0x5, 0x20)
        g.blocks[0x20] = _ret_block(0x20)
        g.edges = {Edge(0x0, 0x20, EdgeKind.TAIL_CALL)}
        g.entries = {0x0: _entry(0x0), 0x20: _entry(0x20, seed=False)}
        assert self._round(g) == [Edge(0x0, 0x20, EdgeKind.TAIL_CALL)]
        assert Edge(0x0, 0x20, EdgeKind.DIRECT) in g.edges
        assert 0x20 not in g.entries

    def test_rule3_keeps_seeded_entry(self):
        g = Cfg()
        g.blocks[0x0] = _jmp_block(0x0, 0x5, 0x20)
        g.blocks[0x20] = _ret_block(0x20)
        g.edges = {Edge(0x0, 0x20, EdgeKind.TAIL_CALL)}
        g.entries = {0x0: _entry(0x0), 0x20: _entry(0x20, seed=True)}
        assert self._round(g) == [Edge(0x0, 0x20, EdgeKind.TAIL_CALL)]
        assert 0x20 in g.entries

    def test_only_judged_edges_flip(self):
        # rule 3 would flip either tail call, each its target's only
        # in-edge, but only the judged one flips
        g = Cfg()
        g.blocks[0x0] = _jmp_block(0x0, 0x5, 0x20)
        g.blocks[0x10] = _jmp_block(0x10, 0x15, 0x30)
        g.blocks[0x20] = _ret_block(0x20)
        g.blocks[0x30] = _ret_block(0x30)
        first, second = Edge(0x0, 0x20, EdgeKind.TAIL_CALL), Edge(0x10, 0x30, EdgeKind.TAIL_CALL)
        g.edges = {first, second}
        g.entries = {a: _entry(a) for a in (0x0, 0x10, 0x20, 0x30)}
        assert self._round(g, []) == []
        assert g.edges == {first, second}
        assert self._round(g, [first]) == [first]
        assert g.edges == {Edge(0x0, 0x20, EdgeKind.DIRECT), second}

    @staticmethod
    def _judged_after_flip(monkeypatch, img) -> int:
        """Finalize the engine's 1-worker graph of `img`, failing if a
        round judges an edge, keyed by its ends, that an earlier round
        flipped; returns how many edges flipped."""
        flipped: set[tuple[int, int]] = set()
        real = finalize.correct_tail_calls

        def checked(g, index, boundaries, judged):
            judged = list(judged)
            assert not flipped & {(e.source, e.target) for e in judged}
            result = real(g, index, boundaries, judged)
            ends = {(e.source, e.target) for e in result}
            assert len(ends) == len(result)
            flipped.update(ends)
            return result

        monkeypatch.setattr(finalize, "correct_tail_calls", checked)
        _, stats, _ = construct_details(img, 1)
        assert stats.finalize_flips == len(flipped)
        return len(flipped)

    @pytest.mark.parametrize("spec", CORPUS, ids=lambda s: f"{s.family}-{s.seed}")
    def test_no_edge_is_judged_after_it_flips(self, monkeypatch, spec):
        self._judged_after_flip(monkeypatch, generate(spec)[0])

    def test_no_edge_is_judged_after_it_flips_on_big_random(self, monkeypatch):
        img, _ = generate(ScenarioSpec.make("big-random", 1, functions=20000))
        assert self._judged_after_flip(monkeypatch, img) == 398


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
            finalize_details(cfg, registry, EdgeIndex(cfg.edges))
            assert canonical_serialize(cfg) == before

    def test_never_adds_elements(self):
        img, _ = generate(ScenarioSpec.make("jump-table-overapprox", seed=7, extra=2))
        raw, registry = _engine_before_finalize(img, 2)
        final = raw.clone()
        finalize_details(final, registry, EdgeIndex(final.edges))
        assert set(final.blocks) <= set(raw.blocks)
        assert final.edges <= raw.edges | {
            Edge(e.source, e.target, EdgeKind.TAIL_CALL) for e in raw.edges
        } | {Edge(e.source, e.target, EdgeKind.DIRECT) for e in raw.edges}
        covered_raw = ranges_to_set((b.start, b.end) for b in raw.blocks.values())
        covered_final = ranges_to_set((b.start, b.end) for b in final.blocks.values())
        assert covered_final <= covered_raw

    def test_flip_budget_bounded_by_edges(self):
        img, _ = generate(ScenarioSpec.make("big-random", seed=8, functions=80))
        raw, registry = _engine_before_finalize(img, 2)
        raw_edges = len(raw.edges)
        stats = finalize_details(raw, registry, EdgeIndex(raw.edges))
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
        finalize_details(g, TableRegistry(), EdgeIndex(g.edges))
        assert 0x0 in g.entries
        assert 0x10 not in g.entries
        assert 0x10 not in g.blocks

    def test_output_validates(self):
        img, _ = generate(ScenarioSpec.make("big-random", seed=10, functions=60))
        cfg, _, _ = construct_details(img, 4)
        assert validate(cfg) == []


class TestOneValidation:
    """Finalization does not validate; the writer validates once."""

    @staticmethod
    def _count(monkeypatch) -> list:
        real = cfg_module.validate
        calls = []

        def counted(g):
            calls.append(g)
            return real(g)

        # every pcfg module that bound the function under its own name
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "pcfg" and getattr(module, "validate", None) is real:
                monkeypatch.setattr(module, "validate", counted)
        return calls

    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_analysis_validates_once(self, monkeypatch, workers):
        img, _ = generate(ScenarioSpec.make("big-random", seed=1, functions=300))
        raw = pack_image(img)
        calls = self._count(monkeypatch)
        g, _, _ = construct_details(load_image(raw), workers)
        canonical_serialize(g)
        assert len(calls) == 1

    def test_oracle_analysis_validates_once(self, monkeypatch):
        img, _ = generate(ScenarioSpec.make("big-random", seed=1, functions=300))
        calls = self._count(monkeypatch)
        canonical_serialize(serial_construct(img))
        assert len(calls) == 1


def _oracle_before_finalize(monkeypatch, img) -> tuple[Cfg, TableRegistry]:
    """The oracle's graph as its finalization receives it, copied, and
    the oracle's table registry."""
    seen = []
    real = finalize.finalize_details

    def capture(g, registry, index):
        seen.append((g.clone(), registry))
        return real(g, registry, index)

    monkeypatch.setattr(finalize, "finalize_details", capture)
    serial_construct(img)
    (found,) = seen
    return found


def _engine_before_finalize(img, workers) -> tuple[Cfg, TableRegistry]:
    """The engine's graph as its finalization receives it, and the
    engine's table registry."""
    state = ConcurrentCfgState(img, workers)
    state.run()
    return state.export_cfg(), state.registry


class TestLocalSweep:
    """The local sweeps rely on a fully reachable graph after the one
    full sweep; these tests pin that precondition and their exactness."""

    @pytest.mark.parametrize("spec", CORPUS, ids=lambda s: f"{s.family}-{s.seed}")
    def test_graphs_are_fully_reachable_before_finalize(self, monkeypatch, spec):
        # and every call and tail-call target is an entry, the
        # precondition that lets rule 1 read entries alone
        img, _ = generate(spec)
        raws = [_engine_before_finalize(img, workers)[0] for workers in (1, 2)]
        raws.append(_oracle_before_finalize(monkeypatch, img)[0])
        for raw in raws:
            called = {e.target for e in raw.edges if e.kind in (EdgeKind.CALL, EdgeKind.TAIL_CALL)}
            assert called <= set(raw.entries)
            assert _sweep(raw) is False

    @staticmethod
    def _normal(index: EdgeIndex):
        return (
            {k: sorted(v) for k, v in index.out.items()},
            {k: sorted(v) for k, v in index.inc.items()},
        )

    @pytest.mark.parametrize("spec", CORPUS, ids=lambda s: f"{s.family}-{s.seed}")
    def test_index_matches_edges_when_finalize_ends(self, monkeypatch, spec):
        handed = []
        real = finalize.finalize_details

        def recorded(g, registry, index):
            handed.append(index)
            return real(g, registry, index)

        # the engine imported the name; the oracle looks it up at each run
        monkeypatch.setattr(parallel, "finalize_details", recorded)
        monkeypatch.setattr(finalize, "finalize_details", recorded)
        img, _ = generate(spec)
        for run in (lambda: construct_details(img, 1)[0], lambda: serial_construct(img)):
            handed.clear()
            g = run()
            (index,) = handed  # finalization ran once, over the index handed in
            assert self._normal(index) == self._normal(EdgeIndex(g.edges))

    @settings(max_examples=300, deadline=None)
    @given(
        blocks=st.integers(2, 10),
        candidates=st.integers(0, 3),
        raw_edges=st.lists(
            st.tuples(st.integers(0, 99), st.integers(0, 99), st.sampled_from(list(EdgeKind))),
            min_size=6,
            max_size=30,
        ),
        raw_entries=st.lists(st.integers(0, 99), min_size=2, max_size=5),
        drop_entries=st.lists(st.integers(0, 99), min_size=1, max_size=3),
        drop_edges=st.lists(st.integers(0, 99), max_size=4),
    )
    def test_local_sweep_matches_full_sweep(
        self, blocks, candidates, raw_edges, raw_entries, drop_entries, drop_edges
    ):
        nodes = blocks + candidates
        g = Cfg()
        for i in range(blocks):
            g.blocks[4 * i] = Block(4 * i, 4 * i + 1)
        g.candidates = {4 * (blocks + i) for i in range(candidates)}
        g.edges = {Edge(4 * (s % blocks), 4 * (t % nodes), k) for s, t, k in raw_edges}
        g.entries = {4 * (a % nodes): _entry(4 * (a % nodes)) for a in raw_entries}
        _sweep(g)
        assert _sweep(g.clone()) is False

        index = EdgeIndex(g.edges)
        entries = sorted(g.entries)
        roots = [entries[i % len(entries)] for i in drop_entries]
        for a in roots:
            g.entries.pop(a, None)
        edges = sorted(g.edges)
        cut = {edges[i % len(edges)] for i in drop_edges} if edges else set()
        for e in cut:
            index.remove(e)
            roots.append(e.target)
        want = g.clone()
        _sweep(want)

        _drop_unreachable_below(g, index, roots)
        assert (g.blocks, g.candidates, g.edges) == (want.blocks, want.candidates, want.edges)
        assert self._normal(index) == self._normal(EdgeIndex(g.edges))


_edges = st.builds(Edge, st.integers(0, 5), st.integers(0, 5), st.sampled_from(list(EdgeKind)))


@settings(max_examples=300, deadline=None)
@given(
    start=st.lists(_edges, max_size=12),
    steps=st.lists(
        st.tuples(st.sampled_from(["add", "remove", "replace"]), _edges, st.integers(0, 99)),
        max_size=30,
    ),
)
def test_edge_index_keeps_its_views_in_step(start, steps):
    # `remove` and `replace` take an edge the set holds, picked by
    # `pick`; `replace` swaps it for the same ends with `e`'s kind
    edges = set(start)
    index = EdgeIndex(edges)
    want = set(edges)
    for op, e, pick in steps:
        if op == "add":
            assert index.add(e) == (e not in want)
            assert not index.add(e)
            want.add(e)
        elif want:
            old = sorted(want)[pick % len(want)]
            if op == "remove":
                index.remove(old)
                want.remove(old)
            elif e.kind is not old.kind:
                new = Edge(old.source, old.target, e.kind)
                index.replace(old, new)
                want.remove(old)
                want.add(new)
        assert index.edges is edges and edges == want
        assert TestLocalSweep._normal(index) == TestLocalSweep._normal(EdgeIndex(set(want)))


def _shuffled(items, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


class TestOrderIndependence:
    """The result does not depend on the order of the graph's block and
    entry dicts, of its edge set, or of the index's keys and buckets."""

    @pytest.mark.parametrize(
        "spec", [s for s in CORPUS if s.seed < 2], ids=lambda s: f"{s.family}-{s.seed}"
    )
    def test_shuffled_graphs_finalize_alike(self, monkeypatch, spec):
        img, _ = generate(spec)
        graphs = [_engine_before_finalize(img, 1), _oracle_before_finalize(monkeypatch, img)]
        rng = random.Random(spec.seed)

        def shuffled_index(edges) -> EdgeIndex:
            index = EdgeIndex(edges)
            index.out = {k: _shuffled(v, rng) for k, v in _shuffled(index.out.items(), rng)}
            index.inc = {k: _shuffled(v, rng) for k, v in _shuffled(index.inc.items(), rng)}
            return index

        # a registry finalized once trims the same edges again: the trim
        # reads each table's effective bound and targets, never its final
        # bound
        for g, registry in graphs:
            want = g.clone()
            stats = finalize_details(want, registry, EdgeIndex(want.edges))
            for _ in range(4):
                got = Cfg(
                    dict(_shuffled(g.blocks.items(), rng)),
                    set(g.candidates),
                    set(_shuffled(g.edges, rng)),
                    dict(_shuffled(g.entries.items(), rng)),
                )
                assert finalize_details(got, registry, shuffled_index(got.edges)) == stats
                assert canonical_serialize(got) == canonical_serialize(want)


class TestReference:
    """`finalize_details` walks only the boundaries and judges only the
    edges that can change a result; `reference_finalize` recomputes
    everything each round. Both must give the same graph, flip count
    and number of rounds."""

    @staticmethod
    def _agree(g: Cfg, registry: TableRegistry) -> FinalizeStats:
        want = g.clone()
        stats = finalize_details(g, registry, EdgeIndex(g.edges))
        assert reference_finalize(want, registry) == (stats.flips, stats.iterations)
        assert (g.blocks, g.candidates, g.edges, g.entries) == (
            want.blocks,
            want.candidates,
            want.edges,
            want.entries,
        )
        return stats

    @pytest.mark.parametrize("spec", CORPUS, ids=lambda s: f"{s.family}-{s.seed}")
    def test_corpus_graphs(self, monkeypatch, spec):
        img, _ = generate(spec)
        for workers in (1, 2):
            self._agree(*_engine_before_finalize(img, workers))
        self._agree(*_oracle_before_finalize(monkeypatch, img))

    def test_flip_that_widens_a_boundary_is_seen_next_round(self):
        # a's tail call into b is b's only in-edge, so round 1 folds b
        # into a; only then does a's boundary hold c and d, and round 2
        # turns c's tail call into a plain branch
        g = Cfg()
        g.blocks[0x0] = _jmp_block(0x0, 0x5, 0x10)
        g.blocks[0x10] = Block(0x10, 0x15, Instruction(0x10, Opcode.JCC_DIRECT, 5, 0x20))
        g.blocks[0x20] = _jmp_block(0x20, 0x25, 0x30)
        g.blocks[0x30] = _ret_block(0x30)
        g.edges = {
            Edge(0x0, 0x10, EdgeKind.TAIL_CALL),
            Edge(0x10, 0x20, EdgeKind.COND_TAKEN),
            Edge(0x10, 0x30, EdgeKind.COND_FALLTHROUGH),
            Edge(0x20, 0x30, EdgeKind.TAIL_CALL),
        }
        g.entries = {0x0: _entry(0x0)}
        stats = self._agree(g, TableRegistry())
        assert (stats.flips, stats.iterations) == (2, 3)
        assert Edge(0x20, 0x30, EdgeKind.DIRECT) in g.edges

    @settings(max_examples=400, deadline=None)
    @given(
        blocks=st.integers(2, 12),
        candidates=st.integers(0, 2),
        raw_edges=st.lists(
            st.tuples(
                st.integers(0, 99),
                st.integers(0, 99),
                # rule 1 labels plain branches, and the rounds judge tail calls
                st.sampled_from(list(EdgeKind) + [EdgeKind.DIRECT, EdgeKind.TAIL_CALL] * 2),
            ),
            min_size=4,
            max_size=40,
        ),
        raw_entries=st.lists(st.tuples(st.integers(0, 99), st.booleans()), min_size=1, max_size=6),
    )
    def test_random_graphs(self, blocks, candidates, raw_edges, raw_entries):
        nodes = blocks + candidates
        g = Cfg()
        for i in range(blocks):
            g.blocks[4 * i] = Block(4 * i, 4 * i + 1)
        g.candidates = {4 * (blocks + i) for i in range(candidates)}
        # the ledger keys an edge by its ends, so at most one edge per pair
        ends: dict[tuple[int, int], EdgeKind] = {}
        for s, t, k in raw_edges:
            ends.setdefault((4 * (s % blocks), 4 * (t % nodes)), k)
        g.edges = {Edge(s, t, k) for (s, t), k in ends.items()}
        g.entries = {4 * (a % nodes): _entry(4 * (a % nodes), seed) for a, seed in raw_entries}
        self._agree(g, TableRegistry())


class TestWalkCounts:
    """Guards that keep the boundary walks and judged edges from growing
    with the size of the graph instead of with its tail calls."""

    @staticmethod
    def _count_walks(monkeypatch) -> list[FunctionBoundary]:
        """The boundaries finalization walks, one per walk, each checked
        to hold a tail-call source when it is walked."""
        walks = []
        real = finalize.assign_function_boundaries

        def counted(g, index, entries):
            boundaries = real(g, index, entries)
            sources = {e.source for e in g.edges if e.kind is EdgeKind.TAIL_CALL}
            assert all(fb.blocks & sources for fb in boundaries)
            walks.extend(boundaries)
            return boundaries

        monkeypatch.setattr(finalize, "assign_function_boundaries", counted)
        return walks

    def test_shared_code_walks_no_boundary(self, monkeypatch):
        # 256 functions share one block, so a walk of every boundary
        # would visit that block 256 times; none holds a tail call
        img, _ = generate(ScenarioSpec.make("shared-code", 0, sharers=256))
        walks = self._count_walks(monkeypatch)
        for run in (lambda: construct_details(img, 1)[0], lambda: serial_construct(img)):
            g = run()
            assert len(g.entries) == 256
            assert walks == []

    def test_big_random_walks_only_tail_call_holders(self, monkeypatch):
        img, _ = generate(ScenarioSpec.make("big-random", 1, functions=20000))
        walks = self._count_walks(monkeypatch)
        judged: list[int] = []
        tail_calls: list[int] = []
        real_tails = finalize.correct_tail_calls

        def tails(g, index, boundaries, edges):
            edges = list(edges)
            assert all(e.kind is EdgeKind.TAIL_CALL for e in edges)
            judged.append(len(edges))
            tail_calls.append(sum(e.kind is EdgeKind.TAIL_CALL for e in g.edges))
            return real_tails(g, index, boundaries, edges)

        monkeypatch.setattr(finalize, "correct_tail_calls", tails)
        g, stats, _ = construct_details(img, 1)
        assert stats.finalize_iterations == len(judged) >= 2
        # 2,152 walks for 20,877 entries
        assert len(walks) < len(g.entries) // 5
        # round 1 judges every tail call (2,152 of 28,084 edges), and
        # round 2 none
        assert judged[0] == tail_calls[0] == 2152
        assert all(n < len(g.edges) // 100 for n in judged[1:])
