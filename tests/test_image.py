import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcfg._kernels import scan_block
from pcfg.errors import MalformedImageError
from pcfg.image import Image, SymbolKind, load_image, make_symbol, pack_image
from pcfg.isa import Opcode

from conftest import asm_image


def test_minimal_image_round_trip():
    img = Image(0x1000, b"\x08", 0x2000, b"", (make_symbol(0x1000, "main$0", SymbolKind.FUNC),))
    loaded = load_image(pack_image(img))
    assert loaded == img
    assert len(loaded.symbols) == 1


def test_two_section_round_trip():
    img = Image(0x1000, b"\x05" * 0x100, 0x2000, b"\x00" * 0x40, ())
    loaded = load_image(pack_image(img))
    assert loaded.text_base == 0x1000 and loaded.text_end == 0x1100
    assert loaded.data_base == 0x2000 and loaded.data_end == 0x2040
    assert pack_image(loaded) == pack_image(img)


def test_bad_magic_rejected():
    raw = bytearray(pack_image(Image(0, b"\x05", 0x100, b"", ())))
    raw[:4] = b"XXXX"
    with pytest.raises(MalformedImageError):
        load_image(bytes(raw))


def test_truncated_section_rejected():
    raw = pack_image(Image(0, b"\x05" * 10, 0x100, b"", ()))
    with pytest.raises(MalformedImageError):
        load_image(raw[:-6])


def test_trailing_bytes_rejected():
    raw = pack_image(Image(0, b"\x05", 0x100, b"", ()))
    with pytest.raises(MalformedImageError):
        load_image(raw + b"\x00")


def test_overlapping_sections_rejected():
    img = Image(0x1000, b"\x05" * 0x40, 0x1020, b"\x00" * 8, ())
    with pytest.raises(MalformedImageError):
        load_image(pack_image(img))


def test_function_symbol_outside_text_rejected():
    img = Image(0x1000, b"\x05", 0x2000, b"", (make_symbol(0x1400, "f$0", SymbolKind.FUNC),))
    with pytest.raises(MalformedImageError):
        load_image(pack_image(img))


def test_undecodable_symbol_name_rejected():
    img = Image(0x1000, b"\x05", 0x2000, b"", (make_symbol(0x1000, "f", SymbolKind.FUNC),))
    raw = pack_image(img)
    assert raw.endswith(b"f")
    with pytest.raises(MalformedImageError, match="UTF-8"):
        load_image(raw[:-1] + b"\xff")


def test_symbol_name_derivation():
    s = make_symbol(0x10, "frob_impl$1a2b", SymbolKind.FUNC)
    assert s.pretty == "frob_impl"
    assert s.mangled == "frob_impl$1a2b"
    o = make_symbol(0x20, "blob", SymbolKind.OBJECT)
    assert o.pretty == "blob"


def test_symbol_flags_round_trip():
    img = Image(
        0x1000,
        b"\x08\x05",
        0x2000,
        b"\x00" * 4,
        (
            make_symbol(0x1000, "die$x", SymbolKind.FUNC, known_noreturn=True),
            make_symbol(0x2000, "tbl$x", SymbolKind.OBJECT),
        ),
    )
    loaded = load_image(pack_image(img))
    assert loaded.symbols[0].known_noreturn is True
    assert loaded.symbols[1].kind is SymbolKind.OBJECT


@given(st.data())
def test_contains_cfi_monotone_in_range(data):
    body = data.draw(
        st.lists(
            st.sampled_from([(Opcode.ALU,), (Opcode.NOP,), (Opcode.RET,), (Opcode.HALT,)]),
            min_size=1,
            max_size=10,
        )
    )
    img = asm_image(0, body)
    mid = data.draw(st.integers(0, len(img.text)))
    hi = data.draw(st.integers(mid, len(img.text)))
    # the control flow instruction a scan finds before one stop is the
    # one it finds before every later stop
    found = scan_block(img.text, 0, 0, mid)
    if found[1] != -1:
        assert scan_block(img.text, 0, 0, hi) == found
