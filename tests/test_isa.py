from hypothesis import given, settings
from hypothesis import strategies as st

from pcfg._kernels import scan_block
from pcfg.isa import CONTROL_FLOW, LENGTHS, Instruction, Opcode, encode

from conftest import decode_at, decode_walk


def test_fixed_opcode_table():
    assert decode_at(b"\x05", 0, 0).kind is Opcode.RET
    assert decode_at(b"\x05", 0, 0).length == 1
    ins = decode_at(b"\x02" + (0x400).to_bytes(4, "little"), 0, 0)
    assert ins.kind is Opcode.JMP_DIRECT
    assert ins.a == 0x400
    assert ins.length == 5


def test_lengths_are_a_function_of_kind():
    expected = {
        Opcode.NOP: 1,
        Opcode.RET: 1,
        Opcode.IJMP_OPAQUE: 1,
        Opcode.HALT: 1,
        Opcode.FRAME_TEARDOWN: 1,
        Opcode.ALU: 3,
        Opcode.BOUND_HINT: 3,
        Opcode.JMP_DIRECT: 5,
        Opcode.JCC_DIRECT: 5,
        Opcode.CALL: 5,
        Opcode.IJMP_TABLE: 7,
    }
    assert LENGTHS == expected


def test_control_flow_set():
    cf = {
        Opcode.JMP_DIRECT,
        Opcode.JCC_DIRECT,
        Opcode.CALL,
        Opcode.RET,
        Opcode.IJMP_TABLE,
        Opcode.IJMP_OPAQUE,
        Opcode.HALT,
    }
    assert CONTROL_FLOW == cf
    for op in Opcode:
        assert Instruction(0, op, LENGTHS[op]).is_control_flow == (op in cf)


_CASES = st.one_of(
    st.sampled_from(
        [Opcode.NOP, Opcode.RET, Opcode.IJMP_OPAQUE, Opcode.HALT, Opcode.FRAME_TEARDOWN]
    ).map(lambda k: (k, 0, 0)),
    st.tuples(
        st.sampled_from([Opcode.JMP_DIRECT, Opcode.JCC_DIRECT, Opcode.CALL]),
        st.integers(0, 2**32 - 1),
    ).map(lambda t: (t[0], t[1], 0)),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1)).map(
        lambda t: (Opcode.IJMP_TABLE, t[0], t[1])
    ),
    st.integers(0, 2**16 - 1).map(lambda imm: (Opcode.BOUND_HINT, imm, 0)),
    st.integers(0, 2**16 - 1).map(lambda imm: (Opcode.ALU, imm, 0)),
)


@given(_CASES)
def test_encode_decode_round_trip(case):
    kind, a, b = case
    raw = encode(kind, a, b)
    assert len(raw) == LENGTHS[kind]
    ins = decode_at(raw, 0x40, 0x40)
    assert (ins.kind, ins.a, ins.b, ins.length) == (kind, a, b, LENGTHS[kind])


@given(st.integers(0x0B, 0xFF))
def test_unknown_opcodes_decode_as_nop(op):
    ins = decode_at(bytes([op, 0, 0, 0]), 0, 0)
    assert (ins.kind, ins.length) == (Opcode.NOP, 1)


def test_truncated_operands_decode_as_nop():
    # a jump opcode with only two operand bytes left in text
    ins = decode_at(b"\x02\x01\x02", 0, 0)
    assert (ins.kind, ins.length) == (Opcode.NOP, 1)


@settings(max_examples=300)
@given(
    st.lists(st.integers(0, 0x0B) | st.integers(0, 0xFF), min_size=1, max_size=40),
    st.data(),
)
def test_scan_block_matches_bounded_decode_walk(raw, data):
    text = bytes(raw)
    base = 0x100
    text_end = base + len(text)
    addr = data.draw(st.integers(base, text_end - 1))
    stop = data.draw(st.none() | st.integers(addr, text_end + 8))
    end, kind, a, b, teardown, hint_at, hint = scan_block(text, base, addr, stop)
    bound = text_end if stop is None else min(stop, text_end)
    cfi, w_teardown, w_hint_at, w_hint = decode_walk(text, base, addr, bound)
    if cfi is None:
        assert (end, kind, a, b) == (bound, -1, 0, 0)
    else:
        assert (end, kind, a, b) == (cfi.end, cfi.kind, cfi.a, cfi.b)
    assert (teardown, hint_at, hint) == (w_teardown, w_hint_at, w_hint)
