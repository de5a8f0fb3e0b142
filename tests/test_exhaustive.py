"""Bounded-exhaustive equivalence: every tiny image, not a sample.

Every text of at most three instructions drawn from ALU, RET,
FRAME_TEARDOWN, JMP, JCC and CALL, with each branch target one of the
text's instruction starts, is analyzed under every symbol table of one
or two FUNC symbols: the first instruction alone, or the first plus one
other start, with at most one of them flagged noreturn (13,824 images at
three instructions). The engine at 1 worker must give the oracle's bytes
or raise the oracle's `PcfgError` subclass, and so must the engine at 2
workers on a fixed subset. A failure lists the smallest images first.
"""

from itertools import product

import pytest

from pcfg.cfg import EdgeKind, ReturnStatus, canonical_serialize
from pcfg.errors import PcfgError
from pcfg.image import Image, SymbolKind, make_symbol
from pcfg.isa import LENGTHS, Opcode
from pcfg.parallel import construct
from pcfg.serial import serial_construct

from conftest import asm_image

_BASE = 0x1000
_PLAIN = (Opcode.ALU, Opcode.RET, Opcode.FRAME_TEARDOWN)
_BRANCHES = (Opcode.JMP_DIRECT, Opcode.JCC_DIRECT, Opcode.CALL)
#: every how many images of one size the 2-worker engine also runs
_W2_STRIDE = 16


def _texts(k):
    """Every instruction list of length k, as `asm_image` takes it, with
    its instruction starts."""
    for kinds in product(_PLAIN + _BRANCHES, repeat=k):
        starts = [_BASE]
        for kind in kinds[:-1]:
            starts.append(starts[-1] + LENGTHS[kind])
        choices = [
            [(kind, t) for t in starts] if kind in _BRANCHES else [(kind,)] for kind in kinds
        ]
        for instrs in product(*choices):
            yield list(instrs), starts


def _symbol_tables(starts):
    """The first start alone, or with one other start; at most one of
    them flagged noreturn."""
    first = starts[0]
    for flagged in (False, True):
        yield [(first, "f0", flagged)]
    for other in starts[1:]:
        for flagged in (None, first, other):
            yield [(first, "f0", flagged == first), (other, "f1", flagged == other)]


def _images(k):
    for instrs, starts in _texts(k):
        for symbols in _symbol_tables(starts):
            yield asm_image(_BASE, instrs, symbols)


def _outcome(build, img):
    """The canonical bytes, or the class of the `PcfgError` raised."""
    try:
        return canonical_serialize(build(img))
    except PcfgError as exc:
        return type(exc)


def _describe(img):
    symbols = ", ".join(
        f"0x{s.offset:x}{' noreturn' if s.known_noreturn else ''}" for s in img.symbols
    )
    return f"text {img.text.hex()} symbols {symbols}"


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_tiny_image_matches_the_oracle(k):
    count = 0
    diverged = []
    for i, img in enumerate(_images(k)):
        count += 1
        want = _outcome(serial_construct, img)
        workers = (1, 2) if i % _W2_STRIDE == 0 else (1,)
        for w in workers:
            if _outcome(lambda g: construct(g, w), img) != want:
                diverged.append((len(img.text), _describe(img), w))
    assert count == {1: 12, 2: 405, 3: 13824}[k]
    assert sorted(diverged)[:5] == [], f"{len(diverged)} of {count} images diverge"


def test_split_between_teardown_and_jump_leaves_the_jump_plain():
    # `jmp 0x1005; teardown; jmp 0x1005` with seeds 0x1000 and 0x1006.
    # The seed at 0x1006 splits the teardown off the second jump, so its
    # finished block does not tear down the frame. A scan that starts at
    # 0x1005 sees the teardown before the split, and once made the jump
    # a tail call, depending on which seed was visited first.
    img = Image(
        _BASE,
        bytes.fromhex("0205100000090205100000"),
        0x100000,
        b"",
        (
            make_symbol(0x1000, "f0", SymbolKind.FUNC, False),
            make_symbol(0x1006, "f1", SymbolKind.FUNC, False),
        ),
    )
    oracle = serial_construct(img)
    assert not any(e.kind is EdgeKind.TAIL_CALL for e in oracle.edges)
    assert {a: f.status for a, f in oracle.entries.items()} == {
        0x1000: ReturnStatus.NORETURN,
        0x1006: ReturnStatus.NORETURN,
    }
    want = canonical_serialize(oracle)
    for workers in (1, 2, 4):
        for _ in range(5):
            assert canonical_serialize(construct(img, workers)) == want, workers
