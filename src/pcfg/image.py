"""Loaded binary image: text and data sections plus a symbol table.

Container layout (little-endian): magic "PCFG", version u16, then three
sections in order — TEXT {base u64, len u32, bytes}, DATA {base u64,
len u32, bytes}, SYMS {count u32, entries {offset u64, kind u8, noreturn
u8, name_len u16, mangled bytes}}. The pretty name is the mangled name
stripped of its trailing "$suffix".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import MalformedImageError

MAGIC = b"PCFG"
VERSION = 1


class SymbolKind(Enum):
    FUNC = 0
    OBJECT = 1


_SYMBOL_KINDS = {k.value: k for k in SymbolKind}
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_SECTION = struct.Struct("<QI")
_SYMBOL = struct.Struct("<QBBH")


class SymbolEntry(NamedTuple):
    offset: int
    mangled: str
    pretty: str
    kind: SymbolKind
    known_noreturn: bool


def make_symbol(
    offset: int, mangled: str, kind: SymbolKind, known_noreturn: bool = False
) -> SymbolEntry:
    """Build a symbol, deriving its pretty name from the mangled name."""
    if not mangled:
        raise MalformedImageError("empty mangled symbol name")
    pretty = mangled[: mangled.rindex("$")] if "$" in mangled else mangled
    return SymbolEntry(offset, mangled, pretty, kind, known_noreturn)


@dataclass(frozen=True)
class Image:
    text_base: int
    text: bytes
    data_base: int
    data: bytes
    symbols: tuple[SymbolEntry, ...]

    @property
    def text_end(self) -> int:
        return self.text_base + len(self.text)

    @property
    def data_end(self) -> int:
        return self.data_base + len(self.data)

    def func_symbols(self) -> list[SymbolEntry]:
        return [s for s in self.symbols if s.kind is SymbolKind.FUNC]


def _validate(image: Image) -> Image:
    t0, t1 = image.text_base, image.text_end
    d0, d1 = image.data_base, image.data_end
    if image.text and image.data and t0 < d1 and d0 < t1:
        raise MalformedImageError("text and data sections overlap")
    for s in image.symbols:
        if s.kind is SymbolKind.FUNC and not t0 <= s.offset < t1:
            raise MalformedImageError(
                f"function symbol {s.mangled!r} at 0x{s.offset:x} outside text"
            )
    return image


def pack_image(image: Image) -> bytes:
    """Serialize an image to container bytes."""
    out = bytearray()
    out += MAGIC
    out += _U16.pack(VERSION)
    out += _SECTION.pack(image.text_base, len(image.text))
    out += image.text
    out += _SECTION.pack(image.data_base, len(image.data))
    out += image.data
    out += _U32.pack(len(image.symbols))
    for s in image.symbols:
        name = s.mangled.encode("utf-8")
        out += _SYMBOL.pack(s.offset, s.kind.value, int(s.known_noreturn), len(name))
        out += name
    return bytes(out)


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.raw):
            raise MalformedImageError(f"truncated {what}")
        chunk = self.raw[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, layout: struct.Struct, what: str):
        return layout.unpack(self.take(layout.size, what))


def load_image(raw: bytes) -> Image:
    """Parse and validate container bytes into an Image."""
    r = _Reader(raw)
    if r.take(4, "magic") != MAGIC:
        raise MalformedImageError("bad magic")
    (version,) = r.unpack(_U16, "version")
    if version != VERSION:
        raise MalformedImageError(f"unsupported version {version}")
    text_base, text_len = r.unpack(_SECTION, "text header")
    text = r.take(text_len, "text bytes")
    data_base, data_len = r.unpack(_SECTION, "data header")
    data = r.take(data_len, "data bytes")
    (count,) = r.unpack(_U32, "symbol count")
    symbols = []
    for _ in range(count):
        offset, kind_b, noreturn, name_len = r.unpack(_SYMBOL, "symbol entry")
        raw_name = r.take(name_len, "symbol name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedImageError(f"symbol name {raw_name!r} is not UTF-8") from exc
        kind = _SYMBOL_KINDS.get(kind_b)
        if kind is None:
            raise MalformedImageError(f"bad symbol kind {kind_b}")
        symbols.append(make_symbol(offset, name, kind, bool(noreturn)))
    if r.pos != len(raw):
        raise MalformedImageError("trailing bytes after symbol table")
    return _validate(Image(text_base, text, data_base, data, tuple(symbols)))

