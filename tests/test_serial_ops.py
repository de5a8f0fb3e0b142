import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcfg import finalize as finalize_module
from pcfg import jumptables
from pcfg import serial as serial_module
from pcfg.cfg import (
    Block,
    Cfg,
    Edge,
    EdgeKind,
    FunctionEntry,
    ReturnStatus,
    canonical_serialize,
)
from pcfg.errors import (
    CalleeUnsetError,
    PcfgError,
    EdgeNotFoundError,
    NotACandidateError,
    NotDirectTerminatorError,
    NotIndirectTerminatorError,
)
from pcfg.image import Image
from pcfg.isa import Opcode
from pcfg.parallel import construct
from pcfg.serial import (
    _IndexedCfg,
    _SerialDriver,
    op_ber,
    op_cfec,
    op_dec,
    op_er,
    op_fei,
    op_iec,
    serial_construct,
)
from pcfg.workload import ScenarioSpec, generate

from conftest import asm_image


def _entry(addr, seed=True):
    return FunctionEntry(addr, None, ReturnStatus.UNSET, seed)


class TestBlockEndResolution:
    def test_linear_parsing(self, paper_layout):
        g = Cfg(candidates={0x4}, entries={0x4: _entry(0x4)})
        out = op_ber(g, paper_layout, 0x4)
        assert 0x4 not in out.candidates
        blk = out.blocks[0x4]
        assert (blk.start, blk.end) == (0x4, 0xD)
        assert blk.terminator.kind is Opcode.RET

    def test_block_splitting(self, paper_layout):
        g = Cfg(candidates={0x4}, entries={0x4: _entry(0x4)})
        g = op_ber(g, paper_layout, 0x4)
        g.candidates.add(0xA)
        out = op_ber(g, paper_layout, 0xA)
        assert (out.blocks[0x4].start, out.blocks[0x4].end) == (0x4, 0xA)
        assert out.blocks[0x4].terminator is None
        assert (out.blocks[0xA].start, out.blocks[0xA].end) == (0xA, 0xD)
        assert out.blocks[0xA].terminator.kind is Opcode.RET
        assert Edge(0x4, 0xA, EdgeKind.COND_FALLTHROUGH) in out.edges

    def test_split_moves_outgoing_edges(self):
        img = asm_image(0x4, [(Opcode.ALU,), (Opcode.ALU,), (Opcode.JMP_DIRECT, 0x4)])
        g = Cfg(candidates={0x4}, entries={0x4: _entry(0x4)})
        g = op_ber(g, img, 0x4)
        g = op_dec(g, g.blocks[0x4])
        g.candidates.discard(0x4)
        g.candidates.add(0x7)
        out = op_ber(g, img, 0x7)
        assert Edge(0x7, 0x4, EdgeKind.DIRECT) in out.edges
        assert Edge(0x4, 0x4, EdgeKind.DIRECT) not in out.edges
        assert Edge(0x4, 0x7, EdgeKind.COND_FALLTHROUGH) in out.edges

    def test_early_block_ending(self, paper_layout):
        g = Cfg(candidates={0xA}, entries={0xA: _entry(0xA)})
        g = op_ber(g, paper_layout, 0xA)  # block [0xa, 0xd)
        g.candidates.add(0x4)
        out = op_ber(g, paper_layout, 0x4)
        assert (out.blocks[0x4].start, out.blocks[0x4].end) == (0x4, 0xA)
        assert out.blocks[0x4].terminator is None
        assert Edge(0x4, 0xA, EdgeKind.COND_FALLTHROUGH) in out.edges

    def test_early_end_when_first_cfi_straddles_next_block(self):
        # alu [0, 3), jmp [3, 8), ret [8, 9); the block at 5 decodes the
        # jmp's zero operand bytes as nops
        img = asm_image(0x0, [(Opcode.ALU,), (Opcode.JMP_DIRECT, 0x0), (Opcode.RET,)])
        g = Cfg(candidates={0x5}, entries={0x5: _entry(0x5)})
        g = op_ber(g, img, 0x5)
        assert (g.blocks[0x5].end, g.blocks[0x5].terminator.kind) == (0x9, Opcode.RET)
        g.candidates.add(0x0)
        out = op_ber(g, img, 0x0)
        # the jmp starts before 5 but ends after it, so it ends no block
        assert out.blocks[0x0] == Block(0x0, 0x5, None)
        assert Edge(0x0, 0x5, EdgeKind.COND_FALLTHROUGH) in out.edges

    def test_not_a_candidate(self, paper_layout):
        with pytest.raises(NotACandidateError):
            op_ber(Cfg(), paper_layout, 0x4)

    def test_parse_past_text_end_synthesizes_halt(self):
        img = asm_image(0x0, [(Opcode.ALU,), (Opcode.ALU,)])
        g = Cfg(candidates={0x0}, entries={0x0: _entry(0x0)})
        out = op_ber(g, img, 0x0)
        blk = out.blocks[0x0]
        assert blk.end == img.text_end
        assert blk.terminator.kind is Opcode.HALT

    def test_ber_commutes_with_ber(self, paper_layout):
        g = Cfg(candidates={0x4, 0xA}, entries={0x4: _entry(0x4), 0xA: _entry(0xA)})
        ab = op_ber(op_ber(g, paper_layout, 0x4), paper_layout, 0xA)
        ba = op_ber(op_ber(g, paper_layout, 0xA), paper_layout, 0x4)
        assert canonical_serialize(ab) == canonical_serialize(ba)


class TestDirectEdgeCreation:
    def _graph(self, img):
        g = Cfg(candidates={img.text_base}, entries={img.text_base: _entry(img.text_base)})
        return op_ber(g, img, img.text_base)

    def test_unconditional_jump(self):
        img = asm_image(0x0, [(Opcode.JMP_DIRECT, 0x400)])
        out = op_dec(self._graph(img), Block(0x0, 0x5, None))
        assert Edge(0x0, 0x400, EdgeKind.DIRECT) in out.edges
        assert 0x400 in out.candidates

    def test_conditional_jump(self):
        img = asm_image(0x0, [(Opcode.JCC_DIRECT, 0x400), (Opcode.RET,)])
        out = op_dec(self._graph(img), Block(0x0, 0x5, None))
        assert Edge(0x0, 0x400, EdgeKind.COND_TAKEN) in out.edges
        assert Edge(0x0, 0x5, EdgeKind.COND_FALLTHROUGH) in out.edges
        assert {0x400, 0x5} <= out.candidates

    def test_call(self):
        img = asm_image(0x0, [(Opcode.CALL, 0x400)])
        out = op_dec(self._graph(img), Block(0x0, 0x5, None))
        assert Edge(0x0, 0x400, EdgeKind.CALL) in out.edges
        assert Edge(0x0, 0x5, EdgeKind.CALL_FALLTHROUGH) not in out.edges

    def test_existing_block_target_not_re_candidated(self):
        img = asm_image(0x0, [(Opcode.JMP_DIRECT, 0x5), (Opcode.RET,)])
        g = Cfg(candidates={0x0, 0x5}, entries={0x0: _entry(0x0)})
        g = op_ber(g, img, 0x0)
        g = op_ber(g, img, 0x5)
        out = op_dec(g, g.blocks[0x0])
        assert 0x5 not in out.candidates
        assert Edge(0x0, 0x5, EdgeKind.DIRECT) in out.edges

    def test_wrong_terminator_rejected(self, paper_layout):
        g = Cfg(candidates={0x4}, entries={0x4: _entry(0x4)})
        g = op_ber(g, paper_layout, 0x4)
        with pytest.raises(NotDirectTerminatorError):
            op_dec(g, g.blocks[0x4])

    def test_dec_commutes_with_dec_same_target(self):
        img = asm_image(
            0x0, [(Opcode.JMP_DIRECT, 0x400), (Opcode.JMP_DIRECT, 0x400)]
        )
        g = Cfg(candidates={0x0, 0x5}, entries={0x0: _entry(0x0), 0x5: _entry(0x5)})
        g = op_ber(op_ber(g, img, 0x0), img, 0x5)
        a, b = g.blocks[0x0], g.blocks[0x5]
        ab = op_dec(op_dec(g, a), b)
        ba = op_dec(op_dec(g, b), a)
        assert canonical_serialize(ab) == canonical_serialize(ba)

    def test_dec_applied_twice_is_idempotent(self):
        img = asm_image(0x0, [(Opcode.JMP_DIRECT, 0x400)])
        g = self._graph(img)
        once = op_dec(g, g.blocks[0x0])
        twice = op_dec(once, once.blocks[0x0])
        assert canonical_serialize(once) == canonical_serialize(twice)


class TestCallFallthrough:
    def _graph(self):
        img = asm_image(0x0, [(Opcode.CALL, 0x40), (Opcode.RET,)])
        g = Cfg(candidates={0x0}, entries={0x0: _entry(0x0)})
        g = op_ber(g, img, 0x0)
        g = op_dec(g, g.blocks[0x0])
        return g

    def test_returning_callee_creates_fallthrough(self):
        g = self._graph()
        out = op_cfec(g, Edge(0x0, 0x40, EdgeKind.CALL), ReturnStatus.RETURN)
        assert Edge(0x0, 0x5, EdgeKind.CALL_FALLTHROUGH) in out.edges
        assert 0x5 in out.candidates

    def test_noreturn_callee_leaves_graph_unchanged(self):
        g = self._graph()
        out = op_cfec(g, Edge(0x0, 0x40, EdgeKind.CALL), ReturnStatus.NORETURN)
        assert canonical_serialize(out) == canonical_serialize(g)

    def test_unset_callee_is_an_error(self):
        g = self._graph()
        with pytest.raises(CalleeUnsetError):
            op_cfec(g, Edge(0x0, 0x40, EdgeKind.CALL), ReturnStatus.UNSET)


def _table_image(entries, declared, hint=None, extra_words=()):
    """entry block {hint?; jcc default}; table jump; `entries` ret targets."""
    instrs = []
    base = 0x0
    if hint is not None:
        instrs.append((Opcode.BOUND_HINT, hint))
    hdr = 3 if hint is not None else 0
    jmp_at = base + hdr + 5
    cases_at = jmp_at + 7
    default_at = cases_at + len(entries)
    instrs.append((Opcode.JCC_DIRECT, default_at))
    instrs.append((Opcode.IJMP_TABLE, 0x100000, declared))
    for _ in entries:
        instrs.append((Opcode.RET,))
    instrs.append((Opcode.RET,))
    data = b"".join((cases_at + i).to_bytes(4, "little") for i in entries)
    data += b"".join(w.to_bytes(4, "little") for w in extra_words)
    img = asm_image(0x0, instrs, data=data)
    return img, jmp_at, cases_at


class TestIndirectEdgeCreation:
    def _graph(self, img, jmp_at):
        g = Cfg(candidates={0x0}, entries={0x0: _entry(0x0)})
        g = op_ber(g, img, 0x0)
        g = op_dec(g, g.blocks[0x0])
        g = op_ber(g, img, jmp_at)
        return g

    def test_declared_bound_targets(self):
        img, jmp_at, cases_at = _table_image([0, 1, 2], declared=3)
        g = self._graph(img, jmp_at)
        out = op_iec(g, img, g.blocks[jmp_at])
        targets = {e.target for e in out.edges if e.kind is EdgeKind.INDIRECT}
        assert targets == {cases_at, cases_at + 1, cases_at + 2}

    def test_predecessor_hint_raises_bound(self):
        img, jmp_at, cases_at = _table_image([0, 1, 2], declared=1, hint=3)
        g = self._graph(img, jmp_at)
        out = op_iec(g, img, g.blocks[jmp_at])
        targets = {e.target for e in out.edges if e.kind is EdgeKind.INDIRECT}
        assert targets == {cases_at, cases_at + 1, cases_at + 2}

    def test_out_of_text_entries_skipped(self):
        img, jmp_at, cases_at = _table_image([0], declared=2, extra_words=[0xDEAD0000])
        g = self._graph(img, jmp_at)
        out = op_iec(g, img, g.blocks[jmp_at])
        targets = {e.target for e in out.edges if e.kind is EdgeKind.INDIRECT}
        assert targets == {cases_at}

    def test_opaque_adds_no_edges(self):
        img = asm_image(0x0, [(Opcode.IJMP_OPAQUE,)])
        g = Cfg(candidates={0x0}, entries={0x0: _entry(0x0)})
        g = op_ber(g, img, 0x0)
        out = op_iec(g, img, g.blocks[0x0])
        assert out.edges == set()

    def test_wrong_terminator_rejected(self):
        img = asm_image(0x0, [(Opcode.RET,)])
        g = Cfg(candidates={0x0}, entries={0x0: _entry(0x0)})
        g = op_ber(g, img, 0x0)
        with pytest.raises(NotIndirectTerminatorError):
            op_iec(g, img, g.blocks[0x0])

    def test_refresh_with_new_predecessor_grows_targets(self):
        # layout: jcc default; table jump; 3 ret cases; default ret;
        # then a loop block {hint 3; jmp table-jump}
        jmp_at, cases_at, default_at = 0x5, 0xC, 0xF
        loop_at = default_at + 1
        img = asm_image(
            0x0,
            [
                (Opcode.JCC_DIRECT, default_at),
                (Opcode.IJMP_TABLE, 0x100000, 1),
                (Opcode.RET,),
                (Opcode.RET,),
                (Opcode.RET,),
                (Opcode.RET,),
                (Opcode.BOUND_HINT, 3),
                (Opcode.JMP_DIRECT, jmp_at),
            ],
            data=b"".join((cases_at + i).to_bytes(4, "little") for i in range(3)),
        )
        g = self._graph(img, jmp_at)
        first = op_iec(g, img, g.blocks[jmp_at])
        t1 = {e.target for e in first.edges if e.kind is EdgeKind.INDIRECT}
        assert t1 == {cases_at}
        # a new predecessor with a wider bound hint appears
        g2 = first.clone()
        g2.candidates.add(loop_at)
        g2 = op_ber(g2, img, loop_at)
        g2 = op_dec(g2, g2.blocks[loop_at])
        second = op_iec(g2, img, g2.blocks[jmp_at])
        t2 = {e.target for e in second.edges if e.kind is EdgeKind.INDIRECT}
        assert t1 < t2
        assert t2 == {cases_at, cases_at + 1, cases_at + 2}


class TestFunctionEntryIdentification:
    def test_call_edge_labels_target(self):
        img = asm_image(0x0, [(Opcode.CALL, 0x5), (Opcode.RET,)])
        g = Cfg(candidates={0x0, 0x5}, entries={0x0: _entry(0x0)})
        g = op_ber(g, img, 0x0)
        g = op_dec(g, g.blocks[0x0])
        out = op_fei(g, img, Edge(0x0, 0x5, EdgeKind.CALL))
        assert 0x5 in out.entries
        assert out.entries[0x5].seed is False

    def test_teardown_branch_is_tail_call(self):
        # essence of the classic ambiguity: teardown then an unconditional
        # jump out of the function
        img = asm_image(
            0x0, [(Opcode.FRAME_TEARDOWN,), (Opcode.JMP_DIRECT, 0x6), (Opcode.RET,)]
        )
        g = Cfg(candidates={0x0}, entries={0x0: _entry(0x0)})
        g = op_ber(g, img, 0x0)
        g = op_dec(g, g.blocks[0x0])
        out = op_fei(g, img, Edge(0x0, 0x6, EdgeKind.DIRECT))
        assert Edge(0x0, 0x6, EdgeKind.TAIL_CALL) in out.edges
        assert 0x6 in out.entries

    def test_branch_to_known_entry_is_tail_call(self):
        # op_fei reads only the branch's own block, so a plain branch into
        # an entry stays plain; finalization's rule 1 labels it, which is
        # a label and not a flip. Two such branches keep rule 3 away.
        img = asm_image(0x0, [(Opcode.JMP_DIRECT, 0xA), (Opcode.JMP_DIRECT, 0xA), (Opcode.RET,)])
        g = Cfg(
            candidates={0x0, 0x5, 0xA},
            entries={a: _entry(a) for a in (0x0, 0x5, 0xA)},
        )
        for a in (0x0, 0x5, 0xA):
            g = op_ber(g, img, a)
        g = op_dec(op_dec(g, g.blocks[0x0]), g.blocks[0x5])
        for src in (0x0, 0x5):
            e = Edge(src, 0xA, EdgeKind.DIRECT)
            assert op_fei(g, img, e) is g
        stats = finalize_module.finalize_details(
            g, jumptables.TableRegistry(), finalize_module.EdgeIndex(g.edges)
        )
        assert {e for e in g.edges if e.kind is EdgeKind.TAIL_CALL} == {
            Edge(0x0, 0xA, EdgeKind.TAIL_CALL),
            Edge(0x5, 0xA, EdgeKind.TAIL_CALL),
        }
        assert stats.flips == 0

    def test_branch_back_into_function_is_not_tail_call(self):
        # jcc falls through to a teardown+jump targeting the taken path:
        # op_fei makes the jump a tail call and 0xb an entry, and
        # finalization turns it back, since 0xb lies inside the function
        img = asm_image(
            0x0,
            [
                (Opcode.JCC_DIRECT, 0xB),
                (Opcode.FRAME_TEARDOWN,),
                (Opcode.JMP_DIRECT, 0xB),
                (Opcode.RET,),
            ],
            [(0x0, "f", False)],
        )
        oracle = serial_construct(img)
        want = canonical_serialize(oracle)
        assert "E 0x5 0xb direct\n" in want
        assert list(oracle.entries) == [0x0]
        for workers in (1, 2):
            assert canonical_serialize(construct(img, workers)) == want

    def test_missing_edge_rejected(self, paper_layout):
        with pytest.raises(EdgeNotFoundError):
            op_fei(Cfg(), paper_layout, Edge(0x0, 0x4, EdgeKind.DIRECT))


class TestEdgeRemoval:
    def _graph(self):
        # entry -> a -> leaf, plus entry -> shared and a -> shared
        ret = lambda addr: None
        g = Cfg()
        from pcfg.isa import Instruction

        jcc = Instruction(0x0, Opcode.JCC_DIRECT, 5, 0x20)
        jmp = Instruction(0x20, Opcode.JMP_DIRECT, 5, 0x40)
        g.blocks[0x0] = Block(0x0, 0x5, jcc)
        g.blocks[0x20] = Block(0x20, 0x25, jmp)
        g.blocks[0x40] = Block(0x40, 0x41, Instruction(0x40, Opcode.RET, 1))
        g.blocks[0x5] = Block(0x5, 0x6, Instruction(0x5, Opcode.RET, 1))
        g.edges = {
            Edge(0x0, 0x20, EdgeKind.COND_TAKEN),
            Edge(0x0, 0x5, EdgeKind.COND_FALLTHROUGH),
            Edge(0x20, 0x40, EdgeKind.DIRECT),
        }
        g.entries[0x0] = _entry(0x0)
        return g

    def test_removing_only_edge_drops_leaf(self):
        g = self._graph()
        out = op_er(g, Edge(0x20, 0x40, EdgeKind.DIRECT))
        assert 0x40 not in out.blocks
        assert Edge(0x20, 0x40, EdgeKind.DIRECT) not in out.edges
        assert 0x20 in out.blocks

    def test_shared_block_survives_one_removal(self):
        g = self._graph()
        g.edges.add(Edge(0x0, 0x40, EdgeKind.COND_TAKEN))
        out = op_er(g, Edge(0x20, 0x40, EdgeKind.DIRECT))
        assert 0x40 in out.blocks

    def test_cascading_removal(self):
        g = self._graph()
        out = op_er(g, Edge(0x0, 0x20, EdgeKind.COND_TAKEN))
        assert 0x20 not in out.blocks
        assert 0x40 not in out.blocks
        assert out.entries.keys() == {0x0}

    def test_er_commutes(self):
        rng = random.Random(3)
        for _ in range(25):
            g = self._graph()
            extra = [Edge(0x0, 0x40, EdgeKind.COND_TAKEN), Edge(0x20, 0x5, EdgeKind.DIRECT)]
            for e in extra:
                if rng.random() < 0.7:
                    g.edges.add(e)
            pool = sorted(g.edges)
            e1, e2 = rng.sample(pool, 2)
            try:
                ab = op_er(op_er(g, e1), e2)
            except EdgeNotFoundError:
                ab = None
            try:
                ba = op_er(op_er(g, e2), e1)
            except EdgeNotFoundError:
                ba = None
            if ab is not None and ba is not None:
                assert canonical_serialize(ab) == canonical_serialize(ba)

    def test_missing_edge_rejected(self):
        with pytest.raises(EdgeNotFoundError):
            op_er(Cfg(), Edge(0x0, 0x4, EdgeKind.DIRECT))


class TestSerialConstruct:
    def test_single_function(self):
        img = asm_image(0x0, [(Opcode.ALU,), (Opcode.RET,)], symbols=[(0x0, "f$0", False)])
        g = serial_construct(img)
        assert len(g.blocks) == 1
        assert len(g.entries) == 1
        assert g.entries[0x0].status is ReturnStatus.RETURN
        assert g.edges == set()

    def test_noreturn_chain_has_no_fallthrough(self):
        img, _ = generate(ScenarioSpec.make("noreturn-chain", seed=3, depth=3))
        g = serial_construct(img)
        assert not any(e.kind is EdgeKind.CALL_FALLTHROUGH for e in g.edges)
        assert sum(1 for f in g.entries.values() if f.status is ReturnStatus.NORETURN) == 4

    def test_tailcall_ambiguous_is_order_independent(self):
        img, _ = generate(ScenarioSpec.make("tailcall-ambiguous", seed=5))
        # worklist order follows symbol order; reverse it for the B-first run
        flipped = Image(
            img.text_base, img.text, img.data_base, img.data, tuple(reversed(img.symbols))
        )
        a_first = serial_construct(img)
        b_first = serial_construct(flipped)
        assert canonical_serialize(a_first) == canonical_serialize(b_first)

    def test_tailcall_ambiguous_pre_finalization_is_order_independent(self, monkeypatch):
        # jumps are labelled once, on finished blocks, so the two worklist
        # orders build the same graph before finalization: both the prefix
        # up to quiescence of direct work and the whole raw graph
        img, _ = generate(ScenarioSpec.make("tailcall-ambiguous", seed=5))
        flipped = Image(
            img.text_base, img.text, img.data_base, img.data, tuple(reversed(img.symbols))
        )

        def graph(g):
            return g.blocks, g.candidates, g.edges, g.entries

        def traversed(i):
            d = _SerialDriver(i)
            d._seed()
            while d.queue:
                fn, t = d.queue.popleft()
                d._process(fn, t)
            return graph(d.g)

        assert traversed(img) == traversed(flipped)
        monkeypatch.setattr(finalize_module, "finalize_details", lambda *args: None)
        raw = [graph(_SerialDriver(i).run()) for i in (img, flipped)]
        assert raw[0] == raw[1]
        assert any(e.kind is EdgeKind.TAIL_CALL for e in raw[0][2])


_PURITY_IMAGES = [
    generate(ScenarioSpec.make("big-random", s, functions=8))[0] for s in range(4)
] + [generate(ScenarioSpec.make("jump-table", s, entries=4))[0] for s in range(2)]


def _terminated_by(g, kinds):
    return sorted(
        (b for b in g.blocks.values() if b.terminator and b.terminator.kind in kinds),
        key=lambda b: b.start,
    )


class TestStepsOverIndexedGraph:
    """The public operations stay pure, and the driver that applies
    their in-place steps keeps its index in step with its graph."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(range(len(_PURITY_IMAGES))),
        st.lists(st.integers(0, 1000), max_size=14),
    )
    def test_ops_leave_their_input_unchanged(self, which, picks):
        img = _PURITY_IMAGES[which]
        seeds = sorted({s.offset for s in img.func_symbols()})
        g = Cfg(candidates=set(seeds), entries={a: _entry(a) for a in seeds})
        direct = (Opcode.JMP_DIRECT, Opcode.JCC_DIRECT, Opcode.CALL)
        for p in picks:
            blocks = _terminated_by(g, direct)
            if g.candidates and (p % 2 or not blocks):
                g = op_ber(g, img, sorted(g.candidates)[p % len(g.candidates)])
            elif blocks:
                g = op_dec(g, blocks[p % len(blocks)])
        tables = _terminated_by(g, (Opcode.IJMP_TABLE, Opcode.IJMP_OPAQUE))
        for blk in tables:
            g = op_iec(g, img, blk)
        calls = [partial(op_ber, g, img, t) for t in sorted(g.candidates)]
        calls += [partial(op_dec, g, b) for b in _terminated_by(g, direct)]
        calls += [partial(op_iec, g, img, b) for b in tables]
        for e in sorted(g.edges):
            calls.append(partial(op_fei, g, img, e))
            calls.append(partial(op_er, g, e))
            if e.kind is EdgeKind.CALL:
                calls.append(partial(op_cfec, g, e, ReturnStatus.RETURN))
                calls.append(partial(op_cfec, g, e, ReturnStatus.NORETURN))
        for call in calls:
            before = g.clone()
            try:
                call()
            except PcfgError:
                pass
            assert g == before

    def test_driver_index_matches_its_graph(self, monkeypatch):
        specs = [
            ScenarioSpec.make(family, seed)
            for family in (
                "shared-code",
                "noreturn-chain",
                "tailcall-ambiguous",
                "jump-table",
                "jump-table-overapprox",
                "multi-entry",
                "outlined-cold",
                "opaque-jump",
            )
            for seed in (1, 2)
        ] + [ScenarioSpec.make("big-random", 4, functions=300)]
        # finalization reads and updates the driver's edge index, not its
        # block lookups: compare the index with a rebuilt one as
        # traversal hands it over; the two order their buckets apart
        real_finalize = finalize_module.finalize_details
        checked = []

        def lookups(ix):
            return (
                {k: sorted(v) for k, v in ix.out.items()},
                {k: sorted(v) for k, v in ix.inc.items()},
                ix.start_by_end,
                ix.starts,
            )

        def check_index(g, registry, index):
            assert driver.ix.g is g and index is driver.ix
            assert lookups(driver.ix) == lookups(_IndexedCfg(g)), spec.family
            checked.append(spec)
            return real_finalize(g, registry, index)

        monkeypatch.setattr(finalize_module, "finalize_details", check_index)
        for spec in specs:
            driver = _SerialDriver(generate(spec)[0])
            assert driver.run() is driver.g
        assert checked == specs

    def test_driver_traversal_never_clones(self, monkeypatch):
        img, _ = generate(ScenarioSpec.make("big-random", 2, functions=2000))
        clones = []
        real_clone = Cfg.clone

        def counted(self):
            clones.append(self)
            return real_clone(self)

        monkeypatch.setattr(Cfg, "clone", counted)
        graph = serial_construct(img)
        assert clones == []
        assert len(graph.blocks) > 2000

    @pytest.mark.parametrize(
        "spec",
        [
            ScenarioSpec.make("jump-table", 2),
            ScenarioSpec.make("jump-table-overapprox", 2, extra=2),
            ScenarioSpec.make("big-random", 2, functions=300),
        ],
        ids=lambda spec: spec.family,
    )
    def test_driver_reads_a_table_once_per_refresh(self, monkeypatch, spec):
        # the oracle reads a table only through `refresh_table`, at most
        # once per refresh and only when the table's bound grew, so it
        # reads each table as often as the engine does at one worker,
        # though the engine refreshes a table at every visit of its jump
        reads = []
        per_refresh = []
        real_read = jumptables.read_table_entries
        real_refresh = serial_module.refresh_table

        def read(image, base, bound):
            reads.append((base, bound))
            return real_read(image, base, bound)

        def refresh(desc, image, hints):
            before = len(reads)
            added = real_refresh(desc, image, hints)
            per_refresh.append(len(reads) - before)
            return added

        monkeypatch.setattr(jumptables, "read_table_entries", read)
        monkeypatch.setattr(serial_module, "refresh_table", refresh)
        img = generate(spec)[0]
        serial_construct(img)
        oracle = len(reads)
        assert per_refresh and set(per_refresh) <= {0, 1}
        assert sum(per_refresh) == oracle
        reads.clear()
        construct(img, 1)
        assert oracle == len(reads)
