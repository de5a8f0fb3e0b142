"""The facts both constructors read from an image's symbol table.

Only function symbols count. An offset may carry several of them; its
name is the pretty name of the first, and it is known non-returning if
any of them carries the noreturn flag. Every named offset seeds one
function, in symbol order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .image import Image


@dataclass(frozen=True)
class SymbolFacts:
    names: dict[int, str]  # offset -> pretty name of its first FUNC symbol
    seeds: tuple[int, ...]  # distinct FUNC symbol offsets, in symbol order
    noreturn: frozenset[int]  # offsets with at least one flagged FUNC symbol


def symbol_facts(image: Image) -> SymbolFacts:
    names: dict[int, str] = {}
    noreturn: set[int] = set()
    for sym in image.func_symbols():
        names.setdefault(sym.offset, sym.pretty)
        if sym.known_noreturn:
            noreturn.add(sym.offset)
    return SymbolFacts(names, tuple(names), frozenset(noreturn))
