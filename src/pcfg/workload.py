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

from .cfg import Cfg, Edge, EdgeKind
from .errors import SpecOutOfBoundsError
from .finalize import EdgeIndex, assign_function_boundaries
from .image import Image, SymbolKind, make_symbol, pack_image
from .isa import LENGTHS, Opcode
from .jumptables import TableRegistry

TEXT_BASE = 0x1000
DATA_BASE = 0x100000


def coalesce_ranges(ranges) -> list[tuple[int, int]]:
    """Merge [lo, hi) intervals that touch or overlap; sorted output."""
    merged: list[list[int]] = []
    for lo, hi in sorted(ranges):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


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
    __slots__ = ("label", "delta")

    def __init__(self, label: str, delta: int = 0):
        self.label = label
        self.delta = delta


class _Builder:
    """Two-pass assembler plus truth accumulator over symbolic labels."""

    def __init__(self) -> None:
        self.items: list[tuple[Opcode, object, int]] = []
        self.offset = 0
        self.labels: dict[str, int] = {}
        self.data_words: list[object] = []  # int or _Ref
        self.symbols: list[tuple[str, str, bool]] = []  # (label, mangled, noreturn)
        self.object_symbols: list[tuple[int, str]] = []  # (data offset, mangled)
        # truth, in label space
        self.ranges: dict[str, list[tuple[_Ref, _Ref]]] = {}
        self.tables: list[tuple[str, int]] = []  # (base label, true size)
        self.noreturn_calls: list[_Ref] = []
        self.tail_calls: list[tuple[_Ref, _Ref]] = []

    # -- text -----------------------------------------------------------

    def label(self, name: str) -> None:
        self.labels[name] = self.offset

    def here(self, delta: int = 0) -> _Ref:
        name = f"@{len(self.labels)}"
        self.labels[name] = self.offset + delta
        return _Ref(name)

    def emit(self, kind: Opcode, a: object = 0, b: int = 0) -> None:
        self.items.append((kind, a, b))
        self.offset += LENGTHS[kind]

    def gap(self, n: int) -> None:
        for _ in range(n):
            self.emit(Opcode.NOP)

    # -- data -------------------------------------------------------------

    def table_label(self, name: str) -> None:
        self.labels[name] = -1  # patched in resolve()
        self.data_words.append(("label", name))

    def word(self, value: object) -> None:
        self.data_words.append(value)

    # -- truth ---------------------------------------------------------------

    def func(self, label: str, mangled: str, noreturn: bool = False) -> None:
        self.symbols.append((label, mangled, noreturn))

    def range_for(self, entry_label: str, lo: _Ref, hi: _Ref) -> None:
        self.ranges.setdefault(entry_label, []).append((lo, hi))

    # -- assembly ----------------------------------------------------------------

    def build(self) -> tuple[Image, GroundTruth]:
        text = bytearray()
        off = 0
        from .isa import encode

        # place data words, patching table labels with running addresses
        data_off = 0
        words: list[object] = []
        for w in self.data_words:
            if isinstance(w, tuple) and w[0] == "label":
                self.labels[w[1]] = -(data_off + 1)  # data-space marker
            else:
                words.append(w)
                data_off += 4

        def addr(ref) -> int:
            if isinstance(ref, _Ref):
                raw = self.labels[ref.label]
                base = raw + ref.delta
            else:
                raw = self.labels[ref]
                base = raw
            if raw < 0:
                return DATA_BASE + (-raw - 1)
            return TEXT_BASE + base

        for kind, a, b in self.items:
            av = addr(a) if isinstance(a, (_Ref, str)) else a
            text += encode(kind, av, b)
        data = bytearray()
        for w in words:
            wv = addr(w) if isinstance(w, (_Ref, str)) else w
            data += struct.pack("<I", wv)

        symbols = [
            make_symbol(addr(label), mangled, SymbolKind.FUNC, noreturn)
            for label, mangled, noreturn in self.symbols
        ]
        symbols += [
            make_symbol(DATA_BASE + off_, mangled, SymbolKind.OBJECT)
            for off_, mangled in self.object_symbols
        ]
        image = Image(TEXT_BASE, bytes(text), DATA_BASE, bytes(data), tuple(symbols))

        truth = GroundTruth()
        for entry_label, segs in self.ranges.items():
            truth.function_ranges[addr(entry_label)] = coalesce_ranges(
                (addr(lo), addr(hi)) for lo, hi in segs
            )
        for base_label, size in self.tables:
            truth.jump_table_sizes[addr(base_label)] = size
        truth.noreturn_call_sites = {addr(r) for r in self.noreturn_calls}
        truth.tailcall_edges = {(addr(s), addr(t)) for s, t in self.tail_calls}
        return image, truth


def _pads(b: _Builder, rng: random.Random, lo: int = 0, hi: int = 3) -> None:
    for _ in range(rng.randint(lo, hi)):
        b.emit(Opcode.ALU, rng.randint(0, 0xFFFF))


# -- family builders -------------------------------------------------------


def _build_plain(b: _Builder, rng: random.Random, p: str) -> None:
    b.label(p)
    start = b.here()
    _pads(b, rng, 1, 6)
    b.emit(Opcode.RET)
    b.func(p, f"{p}$fn")
    b.range_for(p, start, b.here())


def _build_shared_code(b: _Builder, rng: random.Random, p: str, sharers: int) -> None:
    common = f"{p}common"
    for i in range(sharers):
        b.label(f"{p}f{i}")
        lo = b.here()
        _pads(b, rng)
        b.emit(Opcode.JMP_DIRECT, _Ref(common, 3 * i))
        b.func(f"{p}f{i}", f"{p}f{i}$fn")
        b.range_for(f"{p}f{i}", lo, b.here())
    b.label(common)
    for _ in range(sharers):
        b.emit(Opcode.ALU)
    b.emit(Opcode.RET)
    common_end = b.here()
    for i in range(sharers):
        b.range_for(f"{p}f{i}", _Ref(common, 3 * i), common_end)


def _build_noreturn_chain(
    b: _Builder, rng: random.Random, p: str, depth: int, early_ret: bool
) -> None:
    for i in range(depth):
        b.label(f"{p}f{i}")
        lo = b.here()
        _pads(b, rng)
        b.emit(Opcode.CALL, _Ref(f"{p}f{i + 1}"))
        call_end = b.here()
        b.emit(Opcode.RET)
        b.func(f"{p}f{i}", f"{p}f{i}$fn")
        if early_ret:
            b.range_for(f"{p}f{i}", lo, b.here())
        else:
            b.range_for(f"{p}f{i}", lo, call_end)
            b.noreturn_calls.append(call_end)
    deepest = f"{p}f{depth}"
    b.label(deepest)
    lo = b.here()
    if early_ret:
        b.emit(Opcode.JCC_DIRECT, _Ref(f"{p}tail"))
        b.emit(Opcode.RET)
        b.label(f"{p}tail")
        _pads(b, rng, 1, 4)
        b.emit(Opcode.RET)
        b.func(deepest, f"{deepest}$fn")
    else:
        known = rng.random() < 0.5
        _pads(b, rng, 0, 2)
        b.emit(Opcode.HALT)
        b.func(deepest, f"{deepest}$exit", noreturn=known)
    b.range_for(deepest, lo, b.here())


def _build_noreturn_cycle(b: _Builder, rng: random.Random, p: str, k: int) -> None:
    for i in range(k):
        b.label(f"{p}f{i}")
        lo = b.here()
        _pads(b, rng)
        b.emit(Opcode.CALL, _Ref(f"{p}f{(i + 1) % k}"))
        call_end = b.here()
        b.emit(Opcode.RET)  # unreachable: the callee never returns
        b.func(f"{p}f{i}", f"{p}f{i}$fn")
        b.range_for(f"{p}f{i}", lo, call_end)
        b.noreturn_calls.append(call_end)


def _build_tailcall_ambiguous(b: _Builder, rng: random.Random, p: str) -> None:
    target = f"{p}t"
    b.label(f"{p}a")
    a_lo = b.here()
    _pads(b, rng)
    b.emit(Opcode.FRAME_TEARDOWN)
    b.emit(Opcode.JMP_DIRECT, _Ref(target))
    b.func(f"{p}a", f"{p}a$fn")
    b.range_for(f"{p}a", a_lo, b.here())

    b.label(f"{p}b")
    b_lo = b.here()
    _pads(b, rng)
    b.emit(Opcode.JMP_DIRECT, _Ref(target))
    b.func(f"{p}b", f"{p}b$fn")
    b.range_for(f"{p}b", b_lo, b.here())

    b.label(target)
    t_lo = b.here()
    _pads(b, rng, 1, 4)
    b.emit(Opcode.RET)
    # the branch target survives as a discovered function with two
    # incoming tail calls; both branches finalize as tail calls
    b.range_for(target, t_lo, b.here())
    b.tail_calls.append((a_lo, _Ref(target)))
    b.tail_calls.append((b_lo, _Ref(target)))


def _build_jump_table(b: _Builder, rng: random.Random, p: str, entries: int) -> None:
    table = f"{p}tab"
    grow = entries >= 2 and rng.random() < 0.5
    declared = 1 if grow else entries
    entry_hint = max(1, entries // 2) if grow else entries

    b.label(p)
    lo = b.here()
    _pads(b, rng)
    b.emit(Opcode.BOUND_HINT, entry_hint)
    b.emit(Opcode.JCC_DIRECT, _Ref(f"{p}default"))
    b.label(f"{p}jmp")
    b.emit(Opcode.IJMP_TABLE, _Ref(table), declared)
    for i in range(entries):
        b.label(f"{p}case{i}")
        if grow and i == 0:
            # a case that loops back to the dispatch with the full bound,
            # widening the table on re-analysis
            b.emit(Opcode.BOUND_HINT, entries)
            b.emit(Opcode.JMP_DIRECT, _Ref(f"{p}jmp"))
        else:
            _pads(b, rng, 0, 2)
            b.emit(Opcode.RET)
    b.label(f"{p}default")
    b.emit(Opcode.RET)
    b.func(p, f"{p}$fn")
    b.range_for(p, lo, b.here())

    b.table_label(table)
    for i in range(entries):
        b.word(_Ref(f"{p}case{i}"))
    b.tables.append((table, entries))


def _build_jump_table_overapprox(
    b: _Builder, rng: random.Random, p: str, extra: int
) -> None:
    n1 = rng.randint(2, 4)
    t1, t2 = f"{p}tab1", f"{p}tab2"

    b.label(f"{p}f1")
    f1_lo = b.here()
    b.emit(Opcode.BOUND_HINT, n1 + extra)
    b.emit(Opcode.JCC_DIRECT, _Ref(f"{p}d1"))
    b.emit(Opcode.IJMP_TABLE, _Ref(t1), n1 + extra)
    for i in range(n1):
        b.label(f"{p}l1_{i}")
        _pads(b, rng, 0, 2)
        b.emit(Opcode.RET)
    b.label(f"{p}d1")
    b.emit(Opcode.RET)
    b.func(f"{p}f1", f"{p}f1$fn")
    b.range_for(f"{p}f1", f1_lo, b.here())

    b.label(f"{p}f2")
    f2_lo = b.here()
    b.emit(Opcode.BOUND_HINT, 1)
    b.emit(Opcode.JCC_DIRECT, _Ref(f"{p}d2"))
    b.emit(Opcode.IJMP_TABLE, _Ref(t2), 1)
    b.label(f"{p}l2_0")
    _pads(b, rng, 0, 2)
    b.emit(Opcode.RET)
    b.label(f"{p}d2")
    b.emit(Opcode.RET)
    b.func(f"{p}f2", f"{p}f2$fn")
    b.range_for(f"{p}f2", f2_lo, b.here())

    # decoy blocks only reachable through the over-read table entries;
    # trimming must cascade them away
    for j in range(max(0, extra - 1)):
        b.label(f"{p}decoy{j}")
        b.emit(Opcode.ALU)
        b.emit(Opcode.RET)

    b.table_label(t1)
    for i in range(n1):
        b.word(_Ref(f"{p}l1_{i}"))
    b.tables.append((t1, n1))
    b.table_label(t2)
    b.word(_Ref(f"{p}l2_0"))
    b.tables.append((t2, 1))
    for j in range(max(0, extra - 1)):
        b.word(_Ref(f"{p}decoy{j}"))


def _build_multi_entry(b: _Builder, rng: random.Random, p: str) -> None:
    shared = f"{p}s"
    for name in ("e1", "e2"):
        b.label(f"{p}{name}")
        lo = b.here()
        _pads(b, rng)
        b.emit(Opcode.JMP_DIRECT, _Ref(shared))
        b.func(f"{p}{name}", f"{p}{name}$fn")
        b.range_for(f"{p}{name}", lo, b.here())
    b.label(shared)
    s_lo = b.here()
    _pads(b, rng, 1, 3)
    b.emit(Opcode.RET)
    s_hi = b.here()
    for name in ("e1", "e2"):
        b.range_for(f"{p}{name}", s_lo, s_hi)
    # a seeded function nothing references: retained, never pruned
    b.label(f"{p}decoy")
    d_lo = b.here()
    _pads(b, rng, 1, 2)
    b.emit(Opcode.RET)
    b.func(f"{p}decoy", f"{p}decoy$fn")
    b.range_for(f"{p}decoy", d_lo, b.here())
    b.object_symbols.append((0, f"{p}blob$obj"))


def _build_outlined_cold(b: _Builder, rng: random.Random, p: str) -> None:
    b.label(p)
    lo = b.here()
    _pads(b, rng, 0, 2)
    b.emit(Opcode.JCC_DIRECT, _Ref(f"{p}cold_jump"))
    _pads(b, rng, 1, 3)
    b.emit(Opcode.RET)
    b.label(f"{p}cold_jump")
    b.emit(Opcode.FRAME_TEARDOWN)
    b.emit(Opcode.JMP_DIRECT, _Ref(f"{p}cold"))
    hot_hi = b.here()
    b.func(p, f"{p}$fn")
    b.range_for(p, lo, hot_hi)
    b.gap(rng.randint(2, 6))
    # outlined block: a single tail-call edge in, so finalization folds
    # it back into its parent and drops the heuristic entry
    b.label(f"{p}cold")
    cold_lo = b.here()
    _pads(b, rng, 1, 3)
    b.emit(Opcode.HALT)
    b.range_for(p, cold_lo, b.here())


def _build_opaque_jump(b: _Builder, rng: random.Random, p: str) -> None:
    b.label(f"{p}g")
    g_lo = b.here()
    _pads(b, rng, 0, 2)
    b.emit(Opcode.IJMP_OPAQUE)
    b.func(f"{p}g", f"{p}g$fn")
    b.range_for(f"{p}g", g_lo, b.here())

    b.label(f"{p}h")
    h_lo = b.here()
    _pads(b, rng)
    b.emit(Opcode.CALL, _Ref(f"{p}g"))
    call_end = b.here()
    b.emit(Opcode.RET)  # unreachable: the callee never returns
    b.func(f"{p}h", f"{p}h$fn")
    b.range_for(f"{p}h", h_lo, call_end)
    b.noreturn_calls.append(call_end)


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

FAMILIES = tuple(_SIMPLE_FAMILIES) + ("big-random",)

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
        vals = _check_params(spec, {"functions": (200, 1, 100000)})
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
        if name == "plain" or budget == 1:
            _build_plain(b, rng, p)
            cost = 1
        elif name == "shared-code":
            k = min(rng.randint(2, 4), budget)
            if k < 2:
                _build_plain(b, rng, p)
                cost = 1
            else:
                _build_shared_code(b, rng, p, k)
                cost = k
        elif name == "noreturn-chain":
            d = min(rng.randint(1, 3), budget - 1)
            if d < 1:
                _build_plain(b, rng, p)
                cost = 1
            else:
                _build_noreturn_chain(b, rng, p, d, rng.random() < 0.5)
                cost = d + 1
        elif name == "noreturn-cycle":
            k = min(rng.randint(1, 3), budget)
            _build_noreturn_cycle(b, rng, p, k)
            cost = k
        elif name == "tailcall-ambiguous" and budget >= 2:
            _build_tailcall_ambiguous(b, rng, p)
            cost = 2
        elif name == "jump-table":
            _build_jump_table(b, rng, p, rng.randint(2, 5))
            cost = 1
        elif name == "jump-table-overapprox" and budget >= 2:
            _build_jump_table_overapprox(b, rng, p, rng.randint(1, 3))
            cost = 2
        elif name == "multi-entry" and budget >= 3:
            _build_multi_entry(b, rng, p)
            cost = 3
        elif name == "outlined-cold":
            _build_outlined_cold(b, rng, p)
            cost = 1
        elif name == "opaque-jump" and budget >= 2:
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
    for desc in registry.sorted_descriptors():
        truth.jump_table_sizes[desc.base] = desc.settled_bound
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
