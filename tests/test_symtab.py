from pcfg.image import Image, SymbolKind, make_symbol
from pcfg.symtab import symbol_facts


def _facts(*symbols):
    syms = tuple(
        make_symbol(offset, mangled, kind, noreturn)
        for offset, mangled, kind, noreturn in symbols
    )
    return symbol_facts(Image(0x0, bytes(0x100), 0x1000, b"", syms))


F, O = SymbolKind.FUNC, SymbolKind.OBJECT


def test_first_name_wins():
    facts = _facts((0x40, "frob$aa", F, False), (0x40, "alias$bb", F, False))
    assert facts.names == {0x40: "frob"}


def test_equal_pretty_names_at_two_offsets_both_kept():
    facts = _facts((0x10, "shared$1", F, False), (0x20, "shared$2", F, False))
    assert facts.names == {0x10: "shared", 0x20: "shared"}


def test_any_noreturn_flag_counts():
    facts = _facts(
        (0x10, "g$1", F, False),
        (0x10, "g$2", F, True),
        (0x20, "h$1", F, False),
    )
    assert facts.noreturn == {0x10}


def test_non_func_symbols_ignored():
    facts = _facts((0x10, "table$1", O, True), (0x20, "f$1", F, False))
    assert facts.names == {0x20: "f"}
    assert facts.seeds == (0x20,)
    assert facts.noreturn == frozenset()


def test_seeds_deduplicated_in_symbol_order():
    facts = _facts(
        (0x30, "c$1", F, False),
        (0x10, "a$1", F, False),
        (0x30, "c$2", F, False),
        (0x20, "b$1", F, False),
    )
    assert facts.seeds == (0x30, 0x10, 0x20)


def test_miss_returns_empty():
    facts = _facts()
    assert facts.names == {}
    assert facts.seeds == ()
    assert facts.noreturn == frozenset()
