import logging
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcfg import jumptables
from pcfg.cfg import EdgeKind, ReturnStatus, canonical_serialize
from pcfg.finalize import EdgeIndex, finalize_details
from pcfg.image import Image
from pcfg.isa import Opcode
from pcfg.jumptables import (
    TableDescriptor,
    TableRegistry,
    last_bound_hint,
    read_table_entries,
    refresh_table,
)
from pcfg.parallel import ConcurrentCfgState, construct, construct_details
from pcfg.serial import serial_construct, serial_construct_details
from pcfg.workload import ScenarioSpec, extract_facets, generate

from conftest import asm_image


def _data_image(words, text=b"\x05" * 0x40, text_base=0x100, data_base=0x1000):
    data = b"".join(struct.pack("<I", w) for w in words)
    return Image(text_base, text, data_base, data, ())


def test_read_targets_matches_raw_words():
    words = [0x100, 0x110, 0x120]
    img = _data_image(words)
    entries, clamped = read_table_entries(img, 0x1000, 3)
    assert entries == words
    assert not clamped


def test_out_of_text_entries_skipped():
    img = _data_image([0x100, 0xDEAD_BEEF, 0x120])
    desc = TableDescriptor(0x1000, 3, 0x140)
    assert refresh_table(desc, img, []) == [0x100, 0x120]
    assert not desc.clamped


def test_duplicate_entries_deduplicated():
    img = _data_image([0x100, 0x100, 0x104])
    desc = TableDescriptor(0x1000, 3, 0x140)
    assert refresh_table(desc, img, []) == [0x100, 0x104]
    assert desc.index_targets == [0x100, 0x100, 0x104]


def test_read_clamped_to_data_section():
    img = _data_image([0x100, 0x104])
    entries, clamped = read_table_entries(img, 0x1000, 10)
    assert entries == [0x100, 0x104]
    assert clamped


def test_base_outside_data_is_clamped_empty():
    img = _data_image([0x100])
    entries, clamped = read_table_entries(img, 0x9000, 4)
    assert entries == []
    assert clamped


def test_index_entries_keep_positions():
    img = _data_image([0x100, 0xDEAD_BEEF, 0x104])
    entries, _ = read_table_entries(img, 0x1000, 3)
    assert entries == [0x100, None, 0x104]


def test_last_bound_hint():
    img = asm_image(
        0x0,
        [(Opcode.BOUND_HINT, 3), (Opcode.ALU,), (Opcode.BOUND_HINT, 7), (Opcode.RET,)],
    )
    assert last_bound_hint(img, 0x0, len(img.text)) == 7
    assert last_bound_hint(img, 0x6, len(img.text)) == 7
    img2 = asm_image(0x0, [(Opcode.ALU,), (Opcode.RET,)])
    assert last_bound_hint(img2, 0x0, 0x4) is None


def test_effective_bound_is_max_of_declared_and_hints():
    img = _data_image([0x100, 0x104, 0x108, 0x10C, 0x110])
    for declared, hints, bound in [(3, [], 3), (1, [5, 2], 5), (0, [], 0)]:
        desc = TableDescriptor(0x1000, declared, jump_end=0x140)
        refresh_table(desc, img, hints)
        assert desc.effective_bound == bound
        assert len(desc.index_targets) == bound


def test_refresh_table_is_monotone():
    img = _data_image([0x100, 0x104, 0x108, 0x10C])
    reg = TableRegistry()
    desc = reg.get_or_create(0x1000, declared=1, jump_end=0x110)
    assert refresh_table(desc, img, []) == [0x100]
    assert refresh_table(desc, img, [3, 2]) == [0x104, 0x108]
    # a later pass with a narrower bound never shrinks anything
    assert refresh_table(desc, img, [2]) == []
    assert desc.effective_bound == 3
    assert desc.targets == {0x100, 0x104, 0x108}
    assert desc.index_targets == [0x100, 0x104, 0x108]


_TEXT_BASE, _TEXT_END, _DATA_BASE = 0x100, 0x140, 0x1000

# data words that point inside or outside the text
_words = st.lists(
    st.one_of(st.integers(_TEXT_BASE, _TEXT_END - 1), st.integers(0, 2**32 - 1)),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(
    words=_words,
    base_delta=st.integers(-12, 60),
    declared=st.integers(0, 16),
    passes=st.lists(st.lists(st.integers(0, 16), max_size=3), min_size=1, max_size=6),
)
def test_update_descriptor_matches_a_from_scratch_reference(words, base_delta, declared, passes):
    # each pass's bound is the declared bound widened by that pass's
    # hints; after every pass the descriptor must equal what reading the
    # table afresh at every bound so far gives: targets are the union of
    # the reads, the bound their maximum, and the index targets the read
    # at that maximum. The first pass reads; a later one reads only when
    # it raises that maximum, since only a larger bound can add a target
    img = _data_image(words)  # text [_TEXT_BASE, _TEXT_END)
    base = _DATA_BASE + base_delta  # below, inside (aligned or not) or past the data
    desc = TableDescriptor(base, declared, jump_end=_TEXT_END)
    reads = []

    def read(image, at, bound):
        reads.append(bound)
        return read_table_entries(image, at, bound)

    bounds: list[int] = []
    for hints in passes:
        bound = max([declared, *hints])
        grows = not bounds or bound > max(bounds)
        bounds.append(bound)
        before = set(desc.targets)
        del reads[:]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jumptables, "read_table_entries", read)
            added = refresh_table(desc, img, hints)
        assert reads == ([max(bounds)] if grows else [])
        fresh = [read_table_entries(img, base, b) for b in bounds]
        union = {t for entries, _ in fresh for t in entries if t is not None}
        assert desc.targets == union
        assert added == sorted(union - before)
        assert desc.effective_bound == max(bounds)
        assert desc.index_targets == read_table_entries(img, base, max(bounds))[0]
        assert desc.clamped == any(clamped for _, clamped in fresh)
        assert desc.read


def test_registry_single_winner_under_contention():
    reg = TableRegistry()
    results = []

    def worker():
        results.append(reg.get_or_create(0x1000, 4, 0x200))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(reg.sorted_descriptors()) == 1
    assert all(d is results[0] for d in results)


def test_registry_dump_sorted_with_final_bounds():
    reg = TableRegistry()
    d2 = reg.get_or_create(0x2000, 2, 0x20)
    d1 = reg.get_or_create(0x1000, 4, 0x10)
    d1.effective_bound = 6
    d1.final_bound = 4
    d2.effective_bound = 2
    dump = reg.dump()
    assert [d["base"] for d in dump] == ["0x1000", "0x2000"]
    assert dump[0]["final_bound"] == 4
    assert dump[1]["final_bound"] == 2


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_engine_refresh_reaches_fixed_point(workers):
    # the growing variant analyzes narrow first, then a loop-back
    # predecessor, found after the jump's visit, widens the bound in the
    # quiescence sweep
    img, truth = generate(ScenarioSpec.make("jump-table", seed=1, entries=5))
    state = ConcurrentCfgState(img, workers)
    state.run()
    (desc,) = state.registry.sorted_descriptors()
    assert desc.effective_bound == truth.jump_table_sizes[desc.base]
    # the refresh reads the state, which the export moves out
    assert not state.refresh_descriptor(desc)  # already at the fixed point
    assert len(desc.targets) == 5
    cfg = state.export_cfg()
    finalize_details(cfg, state.registry, EdgeIndex(cfg.edges))
    assert canonical_serialize(cfg) == canonical_serialize(serial_construct(img))


def _canon_everywhere(img):
    """The oracle's canonical bytes, checked equal to the engine's at 1
    and 2 workers, and the oracle's graph and registry."""
    cfg, registry = serial_construct_details(img)
    text = canonical_serialize(cfg)
    for workers in (1, 2):
        assert canonical_serialize(construct(img, workers)) == text
    return cfg, registry


def _indirect(cfg):
    return sorted((e.source, e.target) for e in cfg.edges if e.kind is EdgeKind.INDIRECT)


def test_jumps_sharing_a_table_base_each_get_its_targets():
    # two functions jump through the same table of two `ret`s
    img = asm_image(
        0x0,
        [
            (Opcode.IJMP_TABLE, 0x100000, 2),
            (Opcode.RET,),
            (Opcode.RET,),
            (Opcode.IJMP_TABLE, 0x100000, 2),
        ],
        symbols=[(0x0, "a$1", False), (0x9, "b$1", False)],
        data=struct.pack("<II", 0x7, 0x8),
    )
    cfg, registry = _canon_everywhere(img)
    assert _indirect(cfg) == [(0x0, 0x7), (0x0, 0x8), (0x9, 0x7), (0x9, 0x8)]
    assert {a: f.status for a, f in cfg.entries.items()} == {
        0x0: ReturnStatus.RETURN,
        0x9: ReturnStatus.RETURN,
    }
    assert [d["jump_end"] for d in registry.dump()] == ["0x7", "0x10"]


def test_jumps_sharing_a_table_base_trim_at_the_next_larger_base():
    # jumps at 0x0 and 0xa read three and one entries at 0x100000, and
    # the jump at 0x11 one entry at 0x100008: the first table is cut
    # back to two entries, and the base's size is the larger of the two
    img = asm_image(
        0x0,
        [
            (Opcode.IJMP_TABLE, 0x100000, 3),
            (Opcode.RET,),
            (Opcode.RET,),
            (Opcode.RET,),
            (Opcode.IJMP_TABLE, 0x100000, 1),
            (Opcode.IJMP_TABLE, 0x100008, 1),
        ],
        symbols=[(0x0, "a$1", False), (0xA, "b$1", False), (0x11, "c$1", False)],
        data=struct.pack("<III", 0x7, 0x8, 0x9),
    )
    cfg, registry = _canon_everywhere(img)
    assert _indirect(cfg) == [(0x0, 0x7), (0x0, 0x8), (0xA, 0x7), (0x11, 0x9)]
    assert [(d.base, d.jump_end, d.final_bound) for d in registry.sorted_descriptors()] == [
        (0x100000, 0x7, 2),
        (0x100000, 0x11, 1),
        (0x100008, 0x18, 1),
    ]
    assert extract_facets(cfg, registry).jump_table_sizes == {0x100000: 2, 0x100008: 1}


def test_teardown_jump_feeds_its_bound_hint_to_the_table_it_reaches():
    # `hint 3; teardown; jmp 0x20` reaches a table jump declared with one
    # entry, of four words that point at `ret`s. The jump is labelled once
    # its block is finished, so during traversal it is a plain
    # predecessor of the table's owner and its hint widens the table to
    # three entries; finalization then folds the tail call back, since
    # it is its target's only in-edge
    img = asm_image(
        0x0,
        [(Opcode.BOUND_HINT, 3), (Opcode.FRAME_TEARDOWN,), (Opcode.JMP_DIRECT, 0x20)]
        + [(Opcode.NOP,)] * (0x20 - 0x9)
        + [(Opcode.IJMP_TABLE, 0x100000, 1)]
        + [(Opcode.RET,)] * 4,
        symbols=[(0x0, "f0", False)],
        data=struct.pack("<IIII", 0x27, 0x28, 0x29, 0x2A),
    )
    cfg, _ = _canon_everywhere(img)
    assert canonical_serialize(cfg) == (
        "blocks 5\n"
        "B 0x0 0x9\n"
        "B 0x20 0x27\n"
        "B 0x27 0x28\n"
        "B 0x28 0x29\n"
        "B 0x29 0x2a\n"
        "candidates 0\n"
        "edges 4\n"
        "E 0x0 0x20 direct\n"
        "E 0x20 0x27 indirect\n"
        "E 0x20 0x28 indirect\n"
        "E 0x20 0x29 indirect\n"
        "entries 1\n"
        "F 0x0 RETURN 1\n"
    )


def test_clamped_tables_logged_once_each_and_counted(caplog):
    # one table based outside the data section, one reading past its end;
    # both are refreshed several times during traversal
    img = asm_image(
        0x0,
        [(Opcode.IJMP_TABLE, 0x9000, 4), (Opcode.IJMP_TABLE, 0x100000, 5), (Opcode.RET,)],
        symbols=[(0x0, "outside$1", False), (0x7, "short$1", False)],
        data=struct.pack("<II", 0xE, 0xE),
    )
    counts = []
    for workers in (1, 2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="pcfg.jumptables"):
            _, stats, _ = construct_details(img, workers)
        assert [r.getMessage() for r in caplog.records] == [
            "table base 0x9000 outside data section",
            "table at 0x100000: 5 entries requested, 2 available",
        ]
        counts.append(stats.tables_clamped)
    assert counts == [2, 2]


def test_unclamped_tables_log_nothing(caplog):
    img, _ = generate(ScenarioSpec.make("jump-table", seed=1, entries=5))
    with caplog.at_level(logging.WARNING, logger="pcfg.jumptables"):
        _, stats, _ = construct_details(img, 1)
    assert caplog.records == []
    assert stats.tables_clamped == 0
