"""Deterministic scenario generator with exact ground truth.

Each family emits an image exercising one challenging construct (shared
code, non-returning call chains and cycles, ambiguous tail calls, jump
tables with and without over-approximation, multi-entry functions,
outlined cold blocks, opaque indirect jumps), together with the ground
truth the finalized graph must reproduce: per-function address ranges
(shared blocks appear in every owner's set), trimmed jump table sizes,
non-returning call sites, and tail-call edges. `big-random` packs many
independent family instances into one image. Equal specs produce
byte-identical outputs.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path

from .cfg import Cfg, Edge, EdgeKind, coalesce_ranges
from .errors import SpecOutOfBoundsError
from .finalize import EdgeIndex, assign_function_boundaries
from .image import Image, SymbolEntry, SymbolKind, make_symbol, pack_image
from .isa import LENGTHS, Opcode, encode
from .jumptables import TableRegistry

TEXT_BASE = 0x1000
DATA_BASE = 0x100000


@dataclass
class GroundTruth:
    function_ranges: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    jump_table_sizes: dict[int, int] = field(default_factory=dict)
    noreturn_call_sites: set[int] = field(default_factory=set)
    tailcall_edges: set[tuple[int, int]] = field(default_factory=set)

    def to_json_dict(self) -> dict:
        return {
            "functions": [
                {
                    "entry": f"0x{entry:x}",
                    "ranges": [[f"0x{lo:x}", f"0x{hi:x}"] for lo, hi in ranges],
                }
                for entry, ranges in sorted(self.function_ranges.items())
            ],
            "jump_tables": [
                {"base": f"0x{base:x}", "size": size}
                for base, size in sorted(self.jump_table_sizes.items())
            ],
            "noreturn_calls": [f"0x{a:x}" for a in sorted(self.noreturn_call_sites)],
            "tail_calls": [
                [f"0x{s:x}", f"0x{t:x}"] for s, t in sorted(self.tailcall_edges)
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GroundTruth":
        return cls(
            function_ranges={
                int(f["entry"], 16): [
                    (int(lo, 16), int(hi, 16)) for lo, hi in f["ranges"]
                ]
                for f in d["functions"]
            },
            jump_table_sizes={
                int(t["base"], 16): t["size"] for t in d["jump_tables"]
            },
            noreturn_call_sites={int(a, 16) for a in d["noreturn_calls"]},
            tailcall_edges={(int(s, 16), int(t, 16)) for s, t in d["tail_calls"]},
        )


@dataclass(frozen=True)
class ScenarioSpec:
    family: str
    seed: int = 0
    params: tuple[tuple[str, int], ...] = ()

    @classmethod
    def make(cls, family: str, seed: int = 0, **params: int) -> "ScenarioSpec":
        return cls(family, seed, tuple(sorted(params.items())))

    def param(self, name: str, default: int) -> int:
        for k, v in self.params:
            if k == name:
                return v
        return default


class _Ref:
    """An operand naming the address `delta` bytes past a label placed
    later; `build()` patches it in."""

    __slots__ = ("label", "delta")

    def __init__(self, label: str, delta: int = 0):
        self.label = label
        self.delta = delta


class _Builder:
    """Assembler plus truth accumulator. Instructions and data words are
    encoded as they come and a label is an absolute address as soon as it
    is placed, so symbols and truth are recorded in addresses while the
    code is laid out; only operands that name a label placed later wait
    for `build()`."""

    def __init__(self) -> None:
        self.text = bytearray()
        self.data = bytearray()
        # (text offset, opcode, forward operand, second operand)
        self.fixups: list[tuple[int, Opcode, _Ref, int]] = []
        self.labels: dict[str, int] = {}
        self.symbols: list[SymbolEntry] = []  # FUNC symbols, in `func` order
        self.object_symbols: list[SymbolEntry] = []  # OBJECT symbols, after them
        self.truth = GroundTruth()

    # -- text -----------------------------------------------------------

    def here(self) -> int:
        return TEXT_BASE + len(self.text)

    def label(self, name: str) -> int:
        addr = self.labels[name] = self.here()
        return addr

    def emit(self, kind: Opcode, a: int | _Ref = 0, b: int = 0) -> None:
        if isinstance(a, _Ref):
            self.fixups.append((len(self.text), kind, a, b))
            a = 0
        self.text += encode(kind, a, b)

    def gap(self, n: int) -> None:
        for _ in range(n):
            self.emit(Opcode.NOP)

    # -- data -------------------------------------------------------------

    def table_label(self, name: str) -> int:
        base = self.labels[name] = DATA_BASE + len(self.data)
        return base

    def word(self, value: int) -> None:
        self.data += struct.pack("<I", value)

    # -- truth ---------------------------------------------------------------

    def func(self, entry: int, mangled: str, noreturn: bool = False) -> None:
        self.symbols.append(make_symbol(entry, mangled, SymbolKind.FUNC, noreturn))

    def range_for(self, entry: int, lo: int, hi: int) -> None:
        self.truth.function_ranges.setdefault(entry, []).append((lo, hi))

    # -- assembly ----------------------------------------------------------------

    def build(self) -> tuple[Image, GroundTruth]:
        for off, kind, ref, b in self.fixups:
            operand = self.labels[ref.label] + ref.delta
            self.text[off : off + LENGTHS[kind]] = encode(kind, operand, b)
        symbols = tuple(self.symbols + self.object_symbols)
        ranges = self.truth.function_ranges
        for entry, segs in ranges.items():
            ranges[entry] = coalesce_ranges(segs)
        image = Image(TEXT_BASE, bytes(self.text), DATA_BASE, bytes(self.data), symbols)
        return image, self.truth


def _pads(b: _Builder, rng: random.Random, lo: int = 0, hi: int = 3) -> None:
    for _ in range(rng.randint(lo, hi)):
        b.emit(Opcode.ALU, rng.randint(0, 0xFFFF))


# -- family builders -------------------------------------------------------


def _build_plain(b: _Builder, rng: random.Random, p: str) -> None:
    entry = b.here()
    _pads(b, rng, 1, 6)
    b.emit(Opcode.RET)
    b.func(entry, f"{p}$fn")
    b.range_for(entry, entry, b.here())


def _build_shared_code(b: _Builder, rng: random.Random, p: str, sharers: int) -> None:
    common = f"{p}common"
    entries = []
    for i in range(sharers):
        entry = b.here()
        _pads(b, rng)
        b.emit(Opcode.JMP_DIRECT, _Ref(common, 3 * i))
        b.func(entry, f"{p}f{i}$fn")
        b.range_for(entry, entry, b.here())
        entries.append(entry)
    start = b.label(common)
    for _ in range(sharers):
        b.emit(Opcode.ALU)
    b.emit(Opcode.RET)
    for i, entry in enumerate(entries):
        b.range_for(entry, start + 3 * i, b.here())


def _build_noreturn_chain(
    b: _Builder, rng: random.Random, p: str, depth: int, early_ret: bool
) -> None:
    for i in range(depth):
        entry = b.label(f"{p}f{i}")
        _pads(b, rng)
        b.emit(Opcode.CALL, _Ref(f"{p}f{i + 1}"))
        call_end = b.here()
        b.emit(Opcode.RET)
        b.func(entry, f"{p}f{i}$fn")
        if early_ret:
            b.range_for(entry, entry, b.here())
        else:
            b.range_for(entry, entry, call_end)
            b.truth.noreturn_call_sites.add(call_end)
    deepest = b.label(f"{p}f{depth}")
    if early_ret:
        b.emit(Opcode.JCC_DIRECT, _Ref(f"{p}tail"))
        b.emit(Opcode.RET)
        b.label(f"{p}tail")
        _pads(b, rng, 1, 4)
        b.emit(Opcode.RET)
        b.func(deepest, f"{p}f{depth}$fn")
    else:
        known = rng.random() < 0.5
        _pads(b, rng, 0, 2)
        b.emit(Opcode.HALT)
        b.func(deepest, f"{p}f{depth}$exit", noreturn=known)
    b.range_for(deepest, deepest, b.here())


def _build_noreturn_cycle(b: _Builder, rng: random.Random, p: str, k: int) -> None:
    first = b.here()
    for i in range(k):
        entry = b.label(f"{p}f{i}")
        _pads(b, rng)
        # the last function's call closes the cycle at the first
        b.emit(Opcode.CALL, _Ref(f"{p}f{i + 1}") if i + 1 < k else first)
        call_end = b.here()
        b.emit(Opcode.RET)  # unreachable: the callee never returns
        b.func(entry, f"{p}f{i}$fn")
        b.range_for(entry, entry, call_end)
        b.truth.noreturn_call_sites.add(call_end)


def _build_tailcall_ambiguous(b: _Builder, rng: random.Random, p: str) -> None:
    target = f"{p}t"
    fa = b.here()
    _pads(b, rng)
    b.emit(Opcode.FRAME_TEARDOWN)
    b.emit(Opcode.JMP_DIRECT, _Ref(target))
    b.func(fa, f"{p}a$fn")
    b.range_for(fa, fa, b.here())

    fb = b.here()
    _pads(b, rng)
    b.emit(Opcode.JMP_DIRECT, _Ref(target))
    b.func(fb, f"{p}b$fn")
    b.range_for(fb, fb, b.here())

    t = b.label(target)
    _pads(b, rng, 1, 4)
    b.emit(Opcode.RET)
    # the branch target survives as a discovered function with two
    # incoming tail calls; both branches finalize as tail calls
    b.range_for(t, t, b.here())
    b.truth.tailcall_edges |= {(fa, t), (fb, t)}


def _build_jump_table(b: _Builder, rng: random.Random, p: str, entries: int) -> None:
    table = f"{p}tab"
    grow = entries >= 2 and rng.random() < 0.5
    declared = 1 if grow else entries
    entry_hint = max(1, entries // 2) if grow else entries

    entry = b.here()
    _pads(b, rng)
    b.emit(Opcode.BOUND_HINT, entry_hint)
    b.emit(Opcode.JCC_DIRECT, _Ref(f"{p}default"))
    jmp = b.here()
    b.emit(Opcode.IJMP_TABLE, _Ref(table), declared)
    cases = []
    for i in range(entries):
        cases.append(b.here())
        if grow and i == 0:
            # a case that loops back to the dispatch with the full bound,
            # widening the table on re-analysis
            b.emit(Opcode.BOUND_HINT, entries)
            b.emit(Opcode.JMP_DIRECT, jmp)
        else:
            _pads(b, rng, 0, 2)
            b.emit(Opcode.RET)
    b.label(f"{p}default")
    b.emit(Opcode.RET)
    b.func(entry, f"{p}$fn")
    b.range_for(entry, entry, b.here())

    b.truth.jump_table_sizes[b.table_label(table)] = entries
    for case in cases:
        b.word(case)


def _build_jump_table_overapprox(
    b: _Builder, rng: random.Random, p: str, extra: int
) -> None:
    n1 = rng.randint(2, 4)
    t1, t2 = f"{p}tab1", f"{p}tab2"

    f1 = b.here()
    b.emit(Opcode.BOUND_HINT, n1 + extra)
    b.emit(Opcode.JCC_DIRECT, _Ref(f"{p}d1"))
    b.emit(Opcode.IJMP_TABLE, _Ref(t1), n1 + extra)
    cases = []
    for _ in range(n1):
        cases.append(b.here())
        _pads(b, rng, 0, 2)
        b.emit(Opcode.RET)
    b.label(f"{p}d1")
    b.emit(Opcode.RET)
    b.func(f1, f"{p}f1$fn")
    b.range_for(f1, f1, b.here())

    f2 = b.here()
    b.emit(Opcode.BOUND_HINT, 1)
    b.emit(Opcode.JCC_DIRECT, _Ref(f"{p}d2"))
    b.emit(Opcode.IJMP_TABLE, _Ref(t2), 1)
    case = b.here()
    _pads(b, rng, 0, 2)
    b.emit(Opcode.RET)
    b.label(f"{p}d2")
    b.emit(Opcode.RET)
    b.func(f2, f"{p}f2$fn")
    b.range_for(f2, f2, b.here())

    # decoy blocks only reachable through the over-read table entries;
    # trimming must cascade them away
    decoys = []
    for _ in range(max(0, extra - 1)):
        decoys.append(b.here())
        b.emit(Opcode.ALU)
        b.emit(Opcode.RET)

    b.truth.jump_table_sizes[b.table_label(t1)] = n1
    for target in cases:
        b.word(target)
    b.truth.jump_table_sizes[b.table_label(t2)] = 1
    for target in (case, *decoys):
        b.word(target)


def _build_multi_entry(b: _Builder, rng: random.Random, p: str) -> None:
    shared = f"{p}s"
    entries = []
    for name in ("e1", "e2"):
        entry = b.here()
        _pads(b, rng)
        b.emit(Opcode.JMP_DIRECT, _Ref(shared))
        b.func(entry, f"{p}{name}$fn")
        b.range_for(entry, entry, b.here())
        entries.append(entry)
    s_lo = b.label(shared)
    _pads(b, rng, 1, 3)
    b.emit(Opcode.RET)
    for entry in entries:
        b.range_for(entry, s_lo, b.here())
    # a seeded function nothing references: retained, never pruned
    decoy = b.here()
    _pads(b, rng, 1, 2)
    b.emit(Opcode.RET)
    b.func(decoy, f"{p}decoy$fn")
    b.range_for(decoy, decoy, b.here())
    b.object_symbols.append(make_symbol(DATA_BASE, f"{p}blob$obj", SymbolKind.OBJECT))


def _build_outlined_cold(b: _Builder, rng: random.Random, p: str) -> None:
    entry = b.here()
    _pads(b, rng, 0, 2)
    b.emit(Opcode.JCC_DIRECT, _Ref(f"{p}cold_jump"))
    _pads(b, rng, 1, 3)
    b.emit(Opcode.RET)
    b.label(f"{p}cold_jump")
    b.emit(Opcode.FRAME_TEARDOWN)
    b.emit(Opcode.JMP_DIRECT, _Ref(f"{p}cold"))
    b.func(entry, f"{p}$fn")
    b.range_for(entry, entry, b.here())
    b.gap(rng.randint(2, 6))
    # outlined block: a single tail-call edge in, so finalization folds
    # it back into its parent and drops the heuristic entry
    cold = b.label(f"{p}cold")
    _pads(b, rng, 1, 3)
    b.emit(Opcode.HALT)
    b.range_for(entry, cold, b.here())


def _build_opaque_jump(b: _Builder, rng: random.Random, p: str) -> None:
    g = b.here()
    _pads(b, rng, 0, 2)
    b.emit(Opcode.IJMP_OPAQUE)
    b.func(g, f"{p}g$fn")
    b.range_for(g, g, b.here())

    h = b.here()
    _pads(b, rng)
    b.emit(Opcode.CALL, g)
    call_end = b.here()
    b.emit(Opcode.RET)  # unreachable: the callee never returns
    b.func(h, f"{p}h$fn")
    b.range_for(h, h, call_end)
    b.truth.noreturn_call_sites.add(call_end)


_SIMPLE_FAMILIES = {
    "shared-code": (_build_shared_code, {"sharers": (2, 2, 256)}),
    "noreturn-chain": (_build_noreturn_chain, {"depth": (3, 1, 64), "early_ret": (0, 0, 1)}),
    "noreturn-cycle": (_build_noreturn_cycle, {"k": (2, 1, 64)}),
    "tailcall-ambiguous": (_build_tailcall_ambiguous, {}),
    "jump-table": (_build_jump_table, {"entries": (3, 1, 256)}),
    "jump-table-overapprox": (_build_jump_table_overapprox, {"extra": (2, 1, 64)}),
    "multi-entry": (_build_multi_entry, {}),
    "outlined-cold": (_build_outlined_cold, {}),
    "opaque-jump": (_build_opaque_jump, {}),
}

_BIG_RANDOM_SCHEMA = {"functions": (200, 1, 100000)}

FAMILIES = tuple(_SIMPLE_FAMILIES) + ("big-random",)

#: every parameter name across the families' schemas, sorted
PARAMETERS = tuple(
    sorted(
        {name for _, schema in _SIMPLE_FAMILIES.values() for name in schema}
        | set(_BIG_RANDOM_SCHEMA)
    )
)

# big-random unit mix: (family, weight, params from rng, seed budget cost)
_MIX = (
    ("plain", 35),
    ("shared-code", 12),
    ("noreturn-chain", 12),
    ("noreturn-cycle", 8),
    ("tailcall-ambiguous", 8),
    ("jump-table", 8),
    ("jump-table-overapprox", 5),
    ("multi-entry", 5),
    ("outlined-cold", 4),
    ("opaque-jump", 3),
)


def _check_params(spec: ScenarioSpec, schema: dict) -> dict:
    known = set(schema)
    vals = {}
    for name, value in spec.params:
        if name not in known:
            raise SpecOutOfBoundsError(f"{spec.family}: unknown parameter {name!r}")
        default, lo, hi = schema[name]
        if not lo <= value <= hi:
            raise SpecOutOfBoundsError(
                f"{spec.family}: {name}={value} outside [{lo}, {hi}]"
            )
        vals[name] = value
    for name, (default, _, _) in schema.items():
        vals.setdefault(name, default)
    return vals


def generate(spec: ScenarioSpec) -> tuple[Image, GroundTruth]:
    """Build the image and exact ground truth for a scenario."""
    rng = random.Random(f"{spec.family}|{spec.params}|{spec.seed}")
    b = _Builder()
    if spec.family in _SIMPLE_FAMILIES:
        builder, schema = _SIMPLE_FAMILIES[spec.family]
        vals = _check_params(spec, schema)
        builder(b, rng, "u0_", **vals)
    elif spec.family == "big-random":
        vals = _check_params(spec, _BIG_RANDOM_SCHEMA)
        _build_big_random(b, rng, vals["functions"])
    else:
        raise SpecOutOfBoundsError(f"unknown family {spec.family!r}")
    return b.build()


def _build_big_random(b: _Builder, rng: random.Random, budget: int) -> None:
    families = [name for name, _ in _MIX]
    weights = [w for _, w in _MIX]
    idx = 0
    while budget > 0:
        name = rng.choices(families, weights)[0]
        p = f"u{idx}_"
        idx += 1
        # every branch after the first runs with a budget of at least 2
        if name == "plain" or budget == 1:
            _build_plain(b, rng, p)
            cost = 1
        elif name == "shared-code":
            k = min(rng.randint(2, 4), budget)
            _build_shared_code(b, rng, p, k)
            cost = k
        elif name == "noreturn-chain":
            d = min(rng.randint(1, 3), budget - 1)
            _build_noreturn_chain(b, rng, p, d, rng.random() < 0.5)
            cost = d + 1
        elif name == "noreturn-cycle":
            k = min(rng.randint(1, 3), budget)
            _build_noreturn_cycle(b, rng, p, k)
            cost = k
        elif name == "tailcall-ambiguous":
            _build_tailcall_ambiguous(b, rng, p)
            cost = 2
        elif name == "jump-table":
            _build_jump_table(b, rng, p, rng.randint(2, 5))
            cost = 1
        elif name == "jump-table-overapprox":
            _build_jump_table_overapprox(b, rng, p, rng.randint(1, 3))
            cost = 2
        elif name == "multi-entry" and budget >= 3:
            _build_multi_entry(b, rng, p)
            cost = 3
        elif name == "outlined-cold":
            _build_outlined_cold(b, rng, p)
            cost = 1
        elif name == "opaque-jump":
            _build_opaque_jump(b, rng, p)
            cost = 2
        else:
            _build_plain(b, rng, p)
            cost = 1
        budget -= cost
        b.gap(rng.randint(1, 4))
        b.word(0)  # slack between units' tables


def emit(image: Image, truth: GroundTruth, out_dir) -> tuple[Path, Path]:
    """Write image.pcfg and truth.json; loading them back reproduces the
    inputs exactly."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    image_path = out / "image.pcfg"
    truth_path = out / "truth.json"
    image_path.write_bytes(pack_image(image))
    truth_path.write_text(json.dumps(truth.to_json_dict(), indent=2) + "\n")
    return image_path, truth_path


def load_truth(path) -> GroundTruth:
    return GroundTruth.from_json_dict(json.loads(Path(path).read_text()))


def extract_facets(g: Cfg, registry: TableRegistry) -> GroundTruth:
    """Project a finalized graph onto the four ground-truth facets."""
    truth = GroundTruth()
    for fb in assign_function_boundaries(g, EdgeIndex(g.edges), sorted(g.entries)):
        truth.function_ranges[fb.entry] = coalesce_ranges(
            (g.blocks[s].start, g.blocks[s].end) for s in fb.blocks
        )
    sizes = truth.jump_table_sizes
    for desc in registry.sorted_descriptors():
        # jumps that share a base: the largest bound any of them settled on
        sizes[desc.base] = max(desc.settled_bound, sizes.get(desc.base, 0))
    for blk in g.blocks.values():
        term = blk.terminator
        if term is not None and term.kind is Opcode.CALL:
            if Edge(blk.start, blk.end, EdgeKind.CALL_FALLTHROUGH) not in g.edges:
                truth.noreturn_call_sites.add(blk.end)
    truth.tailcall_edges = {
        (e.source, e.target) for e in g.edges if e.kind is EdgeKind.TAIL_CALL
    }
    return truth


def diff_truth(expected: GroundTruth, actual: GroundTruth) -> list[str]:
    """Human-readable differences, empty when the facets match exactly."""
    diffs: list[str] = []
    exp_f, act_f = expected.function_ranges, actual.function_ranges
    for entry in sorted(set(exp_f) | set(act_f)):
        if entry not in act_f:
            diffs.append(f"functions: missing entry 0x{entry:x}")
        elif entry not in exp_f:
            diffs.append(f"functions: unexpected entry 0x{entry:x}")
        elif exp_f[entry] != act_f[entry]:
            diffs.append(
                f"functions: 0x{entry:x} ranges {_fmt(act_f[entry])} != {_fmt(exp_f[entry])}"
            )
    exp_t, act_t = expected.jump_table_sizes, actual.jump_table_sizes
    for base in sorted(set(exp_t) | set(act_t)):
        if exp_t.get(base) != act_t.get(base):
            diffs.append(
                f"jump_tables: 0x{base:x} size {act_t.get(base)} != {exp_t.get(base)}"
            )
    for a in sorted(expected.noreturn_call_sites ^ actual.noreturn_call_sites):
        side = "missing" if a in expected.noreturn_call_sites else "unexpected"
        diffs.append(f"noreturn_calls: {side} 0x{a:x}")
    for s, t in sorted(expected.tailcall_edges ^ actual.tailcall_edges):
        side = (
            "missing" if (s, t) in expected.tailcall_edges else "unexpected"
        )
        diffs.append(f"tail_calls: {side} 0x{s:x} -> 0x{t:x}")
    return diffs


def _fmt(ranges) -> str:
    return "[" + ", ".join(f"0x{lo:x}..0x{hi:x}" for lo, hi in ranges) + "]"
