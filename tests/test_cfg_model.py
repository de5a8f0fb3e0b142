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
    partial_order_le,
    to_dot,
    to_json_dict,
    validate,
)
from pcfg.errors import InvalidGraphError
from pcfg.isa import Instruction, Opcode
from pcfg.serial import op_ber, op_dec

from conftest import asm_image


def _ret(addr):
    return Instruction(addr, Opcode.RET, 1)


def _jmp(addr, target):
    return Instruction(addr, Opcode.JMP_DIRECT, 5, target)


def _entry(addr, seed=True, status=ReturnStatus.UNSET):
    return FunctionEntry(addr, None, status, seed)


def test_empty_graph_is_valid():
    assert validate(Cfg()) == []


def test_duplicate_block_start_detected():
    g = Cfg(blocks={4: Block(4, 10, None), 5: Block(4, 12, None)})
    codes = {v.code for v in validate(g)}
    assert "duplicate-block-start" in codes


def test_duplicate_block_end_detected():
    g = Cfg(blocks={4: Block(4, 12, None), 6: Block(6, 12, None)})
    codes = {v.code for v in validate(g)}
    assert "duplicate-block-end" in codes


def test_dangling_edge_source_detected():
    g = Cfg(edges={Edge(4, 8, EdgeKind.DIRECT)})
    codes = {v.code for v in validate(g)}
    assert "dangling-edge-source" in codes


def test_dangling_edge_target_detected():
    g = Cfg(
        blocks={4: Block(4, 9, _jmp(4, 0x40))},
        edges={Edge(4, 0x40, EdgeKind.DIRECT)},
    )
    codes = {v.code for v in validate(g)}
    assert "dangling-edge-target" in codes
    g.candidates.add(0x40)
    assert validate(g) == []


def test_candidate_shadowing_block_detected():
    g = Cfg(blocks={4: Block(4, 5, _ret(4))}, candidates={4})
    codes = {v.code for v in validate(g)}
    assert "candidate-shadows-block" in codes


def test_call_fallthrough_must_target_source_end():
    call = Instruction(4, Opcode.CALL, 5, 0x40)
    g = Cfg(
        blocks={4: Block(4, 9, call), 0x40: Block(0x40, 0x41, _ret(0x40))},
        edges={Edge(4, 12, EdgeKind.CALL_FALLTHROUGH)},
        candidates={12},
    )
    codes = {v.code for v in validate(g)}
    assert "bad-call-fallthrough" in codes


def test_edge_kind_terminator_compatibility():
    g = Cfg(
        blocks={4: Block(4, 5, _ret(4)), 8: Block(8, 9, _ret(8))},
        edges={Edge(4, 8, EdgeKind.DIRECT)},
    )
    codes = {v.code for v in validate(g)}
    assert "bad-edge-kind" in codes


def test_bad_edge_kind_names_the_opcode():
    g = Cfg(
        blocks={
            4: Block(4, 5, _ret(4)),
            8: Block(8, 9, _ret(8)),
            0x10: Block(0x10, 0x14, None),
        },
        edges={Edge(4, 8, EdgeKind.DIRECT), Edge(0x10, 8, EdgeKind.CALL)},
    )
    assert [str(v) for v in validate(g)] == [
        "bad-edge-kind(0x4, 0x8): DIRECT from RET block",
        "bad-edge-kind(0x10, 0x8): CALL edge from unterminated block",
    ]


def test_entry_must_reference_graph():
    g = Cfg(entries={4: _entry(4)})
    codes = {v.code for v in validate(g)}
    assert "entry-not-in-graph" in codes


def test_canonical_empty_graph_has_zero_counts():
    assert canonical_serialize(Cfg()) == "blocks 0\ncandidates 0\nedges 0\nentries 0\n"


def test_canonical_is_insertion_order_independent():
    def build(order):
        g = Cfg()
        for addr in order:
            g.blocks[addr] = Block(addr, addr + 1, _ret(addr))
        g.entries[order[0]] = _entry(order[0])
        for addr in order[1:]:
            g.entries[addr] = _entry(addr)
        return g

    a = build([4, 8, 12])
    b = build([12, 4, 8])
    assert canonical_serialize(a) == canonical_serialize(b)


def test_canonical_rejects_invalid_graph():
    g = Cfg(edges={Edge(4, 8, EdgeKind.DIRECT)})
    with pytest.raises(InvalidGraphError):
        canonical_serialize(g)


def _line(base=0x4):
    """g1: one block [0x4, 0xd) ending in ret, labeled as an entry."""
    g = Cfg()
    g.blocks[base] = Block(base, 0xD, _ret(0xC))
    g.entries[base] = _entry(base)
    return g


def test_partial_order_reflexive():
    g = _line()
    assert partial_order_le(g, g)


def test_partial_order_accepts_split():
    g1 = _line()
    g2 = Cfg()
    g2.blocks[0x4] = Block(0x4, 0xA, None)
    g2.blocks[0xA] = Block(0xA, 0xD, _ret(0xC))
    g2.edges.add(Edge(0x4, 0xA, EdgeKind.COND_FALLTHROUGH))
    g2.entries[0x4] = _entry(0x4)
    assert partial_order_le(g1, g2)
    assert not partial_order_le(g2, g1)  # g1 lacks the split edge


def test_partial_order_requires_entry_preservation():
    g1 = _line()
    g2 = Cfg(blocks=dict(g1.blocks))
    assert not partial_order_le(g1, g2)


def test_partial_order_requires_edge_preservation():
    g1 = _line()
    g1.blocks[0x4] = Block(0x4, 0x9, _jmp(0x4, 0x4))
    g1.blocks.pop(0xD, None)
    g1.edges.add(Edge(0x4, 0x4, EdgeKind.DIRECT))
    g2 = Cfg(blocks={0x4: Block(0x4, 0x9, _jmp(0x4, 0x4))}, entries={0x4: _entry(0x4)})
    assert not partial_order_le(g1, g2)


def _random_ber_chain(image, seeds, steps, rng):
    """Apply a random sequence of block-end resolutions, recording each
    intermediate graph."""
    g = Cfg(candidates=set(seeds), entries={s: _entry(s) for s in seeds})
    chain = [g]
    for _ in range(steps):
        cands = sorted(g.candidates)
        if not cands:
            break
        g = op_ber(g, image, rng.choice(cands))
        blocks = [
            b
            for b in g.blocks.values()
            if b.terminator is not None
            and b.terminator.kind in (Opcode.JMP_DIRECT, Opcode.JCC_DIRECT)
        ]
        if blocks and rng.random() < 0.7:
            g = op_dec(g, rng.choice(sorted(blocks, key=lambda b: b.start)))
        chain.append(g)
    return chain


def test_partial_order_holds_along_construction_and_is_transitive():
    rng = random.Random(7)
    img = asm_image(
        0x0,
        [
            (Opcode.ALU,),
            (Opcode.JCC_DIRECT, 0x10),
            (Opcode.ALU,),
            (Opcode.NOP,),
            (Opcode.NOP,),
            (Opcode.NOP,),
            (Opcode.NOP,),
            (Opcode.RET,),
            (Opcode.JMP_DIRECT, 0x3),
            (Opcode.RET,),
        ],
    )
    for trial in range(20):
        chain = _random_ber_chain(img, [0x0], 6, rng)
        for i in range(len(chain) - 1):
            assert partial_order_le(chain[i], chain[i + 1])
        # transitivity along the chain
        assert partial_order_le(chain[0], chain[-1])


def test_increasing_phase_covers_cfec_and_iec():
    from pcfg.cfg import ReturnStatus as RS
    from pcfg.serial import op_cfec, op_iec
    from pcfg.workload import ScenarioSpec, generate

    # call fall-through creation only ever grows the graph
    img = asm_image(0x0, [(Opcode.CALL, 0x6), (Opcode.RET,), (Opcode.RET,)])
    g = Cfg(candidates={0x0, 0x6}, entries={0x0: _entry(0x0), 0x6: _entry(0x6)})
    g = op_ber(g, img, 0x0)
    g = op_dec(g, g.blocks[0x0])
    after = op_cfec(g, Edge(0x0, 0x6, EdgeKind.CALL), RS.RETURN)
    assert partial_order_le(g, after)

    # indirect edge creation likewise
    timg, _ = generate(ScenarioSpec.make("jump-table", seed=1, entries=3))
    seed = timg.func_symbols()[0].offset
    tg = Cfg(candidates={seed}, entries={seed: _entry(seed)})
    tg = op_ber(tg, timg, seed)
    tg = op_dec(tg, tg.blocks[seed])
    for cand in sorted(tg.candidates):
        nxt = op_ber(tg, timg, cand)
        assert partial_order_le(tg, nxt)
        tg = nxt
    table_blocks = [
        b
        for b in tg.blocks.values()
        if b.terminator is not None and b.terminator.kind is Opcode.IJMP_TABLE
    ]
    assert table_blocks
    after = op_iec(tg, timg, table_blocks[0])
    assert partial_order_le(tg, after)


def test_exports_are_deterministic():
    g = _line()
    assert to_dot(g) == to_dot(g)
    assert to_json_dict(g) == to_json_dict(g)
    assert '"0x4"' in to_dot(g)


def test_violations_pinned_in_order():
    # every violation kind at once, several per edge and several edges;
    # the list (order included) is what the sorted-walk validate returned
    def blk(start, end, kind, target=0):
        length = 1 if kind is Opcode.RET else 5
        return Block(start, end, Instruction(end - length, kind, length, target))

    g = Cfg()
    g.blocks = {
        0x40: blk(0x40, 0x41, Opcode.RET),
        0x10: blk(0x10, 0x15, Opcode.CALL, 0x40),
        0x20: blk(0x20, 0x21, Opcode.RET),
        0x30: blk(0x30, 0x35, Opcode.JMP_DIRECT, 0x99),
        0x50: Block(0x50, 0x50, None),
        0x60: blk(0x61, 0x62, Opcode.RET),
        0x70: blk(0x70, 0x41, Opcode.RET),
        0x61: blk(0x61, 0x63, Opcode.RET),
    }
    g.candidates = {0x99, 0x20, 0x15}
    g.edges = {
        Edge(0x30, 0x77, EdgeKind.TAIL_CALL),
        Edge(0x20, 0x40, EdgeKind.CALL),
        Edge(0x20, 0x40, EdgeKind.DIRECT),
        Edge(0x10, 0x16, EdgeKind.CALL_FALLTHROUGH),
        Edge(0x10, 0x40, EdgeKind.CALL),
        Edge(0x10, 0x15, EdgeKind.CALL_FALLTHROUGH),
        Edge(0x5, 0x10, EdgeKind.DIRECT),
        Edge(0x20, 0x88, EdgeKind.TAIL_CALL),
        Edge(0x30, 0x99, EdgeKind.DIRECT),
        Edge(0x40, 0x10, EdgeKind.COND_TAKEN),
        Edge(0x10, 0x30, EdgeKind.DIRECT),
    }
    g.entries = {
        0x10: FunctionEntry(0x10, "f", ReturnStatus.RETURN, True),
        0x90: _entry(0x90, seed=False),
        0x41: _entry(0x40, status=ReturnStatus.NORETURN),
    }
    assert [str(v) for v in validate(g)] == [
        "empty-block(0x50, 0x50): start must precede end",
        "block-key-mismatch(0x60, 0x61): block keyed by wrong start",
        "empty-block(0x70, 0x41): start must precede end",
        "duplicate-block-start(0x61): 2 blocks start here",
        "duplicate-block-end(0x41): 2 blocks end here",
        "candidate-shadows-block(0x20): candidate at a block start",
        "dangling-edge-source(0x5, 0x10): no source block",
        "dangling-edge-target(0x10, 0x16): no target block or candidate",
        "bad-call-fallthrough(0x10, 0x16): fall-through target must be the source block end",
        "bad-edge-kind(0x10, 0x30): DIRECT from CALL block",
        "bad-edge-kind(0x20, 0x40): DIRECT from RET block",
        "bad-edge-kind(0x20, 0x40): CALL edge from RET block",
        "dangling-edge-target(0x20, 0x88): no target block or candidate",
        "bad-edge-kind(0x20, 0x88): TAIL_CALL from RET block",
        "dangling-edge-target(0x30, 0x77): no target block or candidate",
        "entry-key-mismatch(0x41, 0x40): entry keyed by wrong address",
        "entry-not-in-graph(0x90): no block or candidate at entry",
    ]


def test_repeated_starts_and_ends_pinned_with_counts():
    # several repeated addresses, inserted out of order and repeated more
    # than twice, next to every other violation code: each repeat is
    # reported once, in address order, with its count
    g = Cfg()
    g.blocks = {
        0x80: Block(0x30, 0x90, None),
        0x10: Block(0x10, 0x20, _ret(0x1F)),
        0x70: Block(0x30, 0x20, None),
        0x30: Block(0x30, 0x38, None),
        0x44: Block(0x40, 0x48, _jmp(0x43, 0x10)),
        0x40: Block(0x40, 0x48, None),
        0x38: Block(0x38, 0x48, None),
        0x50: Block(0x50, 0x20, None),
    }
    g.candidates = {0x38, 0x30, 0x99}
    g.edges = {
        Edge(0x38, 0x10, EdgeKind.CALL),
        Edge(0x38, 0x11, EdgeKind.CALL_FALLTHROUGH),
        Edge(0x1, 0x10, EdgeKind.DIRECT),
        Edge(0x10, 0x99, EdgeKind.TAIL_CALL),
    }
    g.entries = {
        0x99: _entry(0x99),
        0x12: _entry(0x12),
        0x20: _entry(0x21),
    }
    assert [str(v) for v in validate(g)] == [
        "block-key-mismatch(0x80, 0x30): block keyed by wrong start",
        "block-key-mismatch(0x70, 0x30): block keyed by wrong start",
        "empty-block(0x30, 0x20): start must precede end",
        "block-key-mismatch(0x44, 0x40): block keyed by wrong start",
        "empty-block(0x50, 0x20): start must precede end",
        "duplicate-block-start(0x30): 3 blocks start here",
        "duplicate-block-start(0x40): 2 blocks start here",
        "duplicate-block-end(0x20): 3 blocks end here",
        "duplicate-block-end(0x48): 3 blocks end here",
        "candidate-shadows-block(0x30): candidate at a block start",
        "candidate-shadows-block(0x38): candidate at a block start",
        "dangling-edge-source(0x1, 0x10): no source block",
        "bad-edge-kind(0x10, 0x99): TAIL_CALL from RET block",
        "bad-edge-kind(0x38, 0x10): CALL edge from unterminated block",
        "dangling-edge-target(0x38, 0x11): no target block or candidate",
        "bad-call-fallthrough(0x38, 0x11): fall-through target must be the source block end",
        "entry-not-in-graph(0x12): no block or candidate at entry",
        "entry-key-mismatch(0x20, 0x21): entry keyed by wrong address",
        "entry-not-in-graph(0x21): no block or candidate at entry",
    ]


def _values():
    """One value of each graph and image value type, built afresh."""
    from pcfg.image import SymbolKind, make_symbol

    return [
        Block(4, 9, _jmp(4, 0x20)),
        FunctionEntry(4, "f", ReturnStatus.RETURN, True),
        Instruction(4, Opcode.IJMP_TABLE, 7, 0x8000, 3),
        make_symbol(4, "f$1", SymbolKind.FUNC, True),
    ]


_VALUE_FIELDS = [
    ("start", "end", "terminator"),
    ("entry", "name", "status", "seed"),
    ("addr", "kind", "length", "a", "b"),
    ("offset", "mangled", "pretty", "kind", "known_noreturn"),
]


@pytest.mark.parametrize("index", range(4))
def test_value_types_are_immutable(index):
    value = _values()[index]
    for field in _VALUE_FIELDS[index]:
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
    assert _values()[index] == value


@pytest.mark.parametrize("index", range(4))
def test_equal_values_hash_equal(index):
    a, b = _values()[index], _values()[index]
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_instruction_end_and_control_flow():
    call = Instruction(0x10, Opcode.CALL, 5, 0x40)
    assert (call.end, call.is_control_flow) == (0x15, True)
    hint = Instruction(0x10, Opcode.BOUND_HINT, 3, 7)
    assert (hint.end, hint.is_control_flow) == (0x13, False)
    assert Block(0x10, 0x15, call).terminator.end == 0x15
