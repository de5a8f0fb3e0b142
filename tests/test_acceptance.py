"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
per-criterion timing as they complete.
"""

import random
import time

import pytest

from pcfg._kernels import scan_block
from pcfg.cfg import Cfg, Edge, EdgeKind, FunctionEntry, ReturnStatus, canonical_serialize, partial_order_le
from pcfg.cli import main as cli_main
from pcfg.errors import EdgeNotFoundError
from pcfg.isa import Opcode
from pcfg.parallel import ConcurrentCfgState, construct, construct_details
from pcfg.serial import op_ber, op_dec, op_er, op_fei, op_iec, serial_construct
from pcfg.workload import ScenarioSpec, emit, generate

SEEDS = (0, 1, 2, 3, 4)

CORPUS_SPECS = [
    ScenarioSpec.make(family, seed, **params)
    for family, params in (
        ("shared-code", {}),
        ("noreturn-chain", {}),
        ("noreturn-cycle", {}),
        ("tailcall-ambiguous", {}),
        ("jump-table", {}),
        ("jump-table-overapprox", {}),
        ("multi-entry", {}),
        ("outlined-cold", {}),
        ("opaque-jump", {}),
        ("big-random", {"functions": 120}),
    )
    for seed in SEEDS
]


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    return [(spec, *generate(spec)) for spec in CORPUS_SPECS]


def test_criterion_1_oracle_equivalence(corpus):
    """Parallel output equals the serial oracle byte-for-byte for every
    corpus image and every worker count."""
    t0 = time.perf_counter()
    assert len(corpus) >= 50
    mismatches = []
    for spec, img, _ in corpus:
        want = canonical_serialize(serial_construct(img))
        for workers in (1, 2, 4, 8):
            got = canonical_serialize(construct(img, workers))
            if got != want:
                mismatches.append((spec.family, spec.seed, workers))
    _report(
        "criterion 1: oracle equivalence, 50 images x workers {1,2,4,8}",
        not mismatches,
        f"{time.perf_counter() - t0:.1f}s"
        + (f", diverged: {mismatches[:3]}" if mismatches else ""),
    )


def test_criterion_2_determinism():
    """20 repeated 8-worker runs on one large image produce one output."""
    t0 = time.perf_counter()
    img, _ = generate(ScenarioSpec.make("big-random", 7, functions=10000))
    outputs = {canonical_serialize(construct(img, 8)) for _ in range(20)}
    _report(
        "criterion 2: determinism, 20 runs at 8 workers on big-random(10000, seed=7)",
        len(outputs) == 1,
        f"{len(outputs)} distinct output(s), {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_3_ground_truth_verification(corpus, tmp_path):
    """cmd_verify exits 0 on every generated corpus image."""
    t0 = time.perf_counter()
    failures = []
    for i, (spec, img, truth) in enumerate(corpus):
        image_path, truth_path = emit(img, truth, tmp_path / f"c{i}")
        code = cli_main(
            ["verify", str(image_path), "--truth", str(truth_path), "--threads", "4"]
        )
        if code != 0:
            failures.append((spec.family, spec.seed))
    _report(
        "criterion 3: ground-truth verification over the full corpus",
        not failures,
        f"{len(corpus)} images, {time.perf_counter() - t0:.1f}s"
        + (f", failed: {failures[:3]}" if failures else ""),
    )


class _AlgebraSampler:
    """Randomized mid-construction graphs over generated images."""

    def __init__(self, rng):
        self.rng = rng
        self.images = [
            generate(ScenarioSpec.make("big-random", s, functions=8))[0] for s in range(6)
        ] + [generate(ScenarioSpec.make("jump-table", s, entries=4))[0] for s in range(3)]

    def fresh(self, img):
        seeds = [s.offset for s in img.func_symbols()]
        g = Cfg(
            candidates=set(seeds),
            entries={
                a: FunctionEntry(a, None, ReturnStatus.UNSET, True) for a in seeds
            },
        )
        return g

    def grow(self, img, g, steps):
        for _ in range(steps):
            if self.rng.random() < 0.5 and g.candidates:
                g = op_ber(g, img, self.rng.choice(sorted(g.candidates)))
            else:
                blocks = self._direct_blocks(g)
                if blocks:
                    g = op_dec(g, self.rng.choice(blocks))
        return g

    def _direct_blocks(self, g):
        return sorted(
            (
                b
                for b in g.blocks.values()
                if b.terminator is not None
                and b.terminator.kind
                in (Opcode.JMP_DIRECT, Opcode.JCC_DIRECT, Opcode.CALL)
            ),
            key=lambda b: b.start,
        )

    def sample(self, need):
        """A random graph satisfying `need` in ('cands2', 'blocks2',
        'mixed', 'edges2', 'table')."""
        while True:
            if need == "table":
                img, g = self._with_table()
            else:
                img = self.rng.choice(self.images)
                g = self.grow(img, self.fresh(img), self.rng.randint(0, 10))
            if need == "cands2" and len(g.candidates) >= 2:
                return img, g
            if need == "blocks2" and len(self._direct_blocks(g)) >= 2:
                return img, g
            if need == "mixed" and g.candidates and self._direct_blocks(g):
                return img, g
            if need == "edges2" and len(g.edges) >= 2:
                return img, g
            if need == "table" and (g.candidates or self._direct_blocks(g)):
                return img, g

    def _with_table(self):
        """Grow a jump-table image until its indirect jump block exists."""
        img = self.rng.choice(self.images[-3:])
        g = self.fresh(img)
        (entry,) = g.candidates
        g = op_ber(g, img, entry)
        g = op_dec(g, g.blocks[entry])
        for t in sorted(g.candidates):
            kind = scan_block(img.text, img.text_base, t)[1]
            if kind == int(Opcode.IJMP_TABLE):
                g = op_ber(g, img, t)
                break
        g = self.grow(img, g, self.rng.randint(0, 6))
        tables = [
            b
            for b in g.blocks.values()
            if b.terminator is not None and b.terminator.kind is Opcode.IJMP_TABLE
        ]
        if not tables:
            return self._with_table()
        return img, g


def test_criterion_4_operation_algebra():
    """Commutativity and monotonic ordering, 1000 randomized instances
    per law, plus a constructed dependency witness."""
    t0 = time.perf_counter()
    rng = random.Random(1234)
    sampler = _AlgebraSampler(rng)
    n = 1000

    for _ in range(n):
        img, g = sampler.sample("cands2")
        a, b = rng.sample(sorted(g.candidates), 2)
        ab = op_ber(op_ber(g, img, a), img, b)
        ba = op_ber(op_ber(g, img, b), img, a)
        assert canonical_serialize(ab) == canonical_serialize(ba)

    for _ in range(n):
        img, g = sampler.sample("blocks2")
        x, y = rng.sample(sampler._direct_blocks(g), 2)
        ab = op_dec(op_dec(g, x), y)
        ba = op_dec(op_dec(g, y), x)
        assert canonical_serialize(ab) == canonical_serialize(ba)

    for _ in range(n):
        img, g = sampler.sample("mixed")
        t = rng.choice(sorted(g.candidates))
        blk = rng.choice(sampler._direct_blocks(g))
        ab = op_dec(op_ber(g, img, t), g.blocks[blk.start])
        ba = op_ber(op_dec(g, blk), img, t)
        assert canonical_serialize(ab) == canonical_serialize(ba)

    done = 0
    while done < n:
        img, g = sampler.sample("edges2")
        e1, e2 = rng.sample(sorted(g.edges), 2)
        try:
            ab = op_er(op_er(g, e1), e2)
            ba = op_er(op_er(g, e2), e1)
        except EdgeNotFoundError:
            continue  # one order removed the other edge as unreachable
        assert canonical_serialize(ab) == canonical_serialize(ba)
        done += 1

    for _ in range(n):
        img, g = sampler.sample("table")
        tables = [
            b
            for b in g.blocks.values()
            if b.terminator is not None and b.terminator.kind is Opcode.IJMP_TABLE
        ]
        table = min(tables, key=lambda b: b.start)
        use_ber = g.candidates and (rng.random() < 0.5 or not sampler._direct_blocks(g))
        if use_ber:
            t = rng.choice(sorted(g.candidates))
            lhs = op_ber(op_iec(g, img, table), img, t)
            rhs = op_iec(op_ber(g, img, t), img, table)
        else:
            blk = rng.choice(sampler._direct_blocks(g))
            lhs = op_dec(op_iec(g, img, table), g.blocks[blk.start])
            rhs = op_iec(op_dec(g, blk), img, table)
        assert partial_order_le(lhs, rhs)

    # dependency witness: function entry identification depends on block
    # end resolution. A split between a teardown and its jump changes
    # the jump's verdict, so op_fei before and after that op_ber disagree
    from conftest import asm_image

    img = asm_image(
        0x0,
        [(Opcode.FRAME_TEARDOWN,), (Opcode.JMP_DIRECT, 0x10)]
        + [(Opcode.NOP,)] * 10
        + [(Opcode.RET,)],
    )
    g = Cfg(
        candidates={0x0, 0x1},
        entries={0x0: FunctionEntry(0x0, None, ReturnStatus.UNSET, True)},
    )
    g = op_ber(g, img, 0x0)
    g = op_dec(g, g.blocks[0x0])
    fei_first = op_ber(op_fei(g, img, Edge(0x0, 0x10, EdgeKind.DIRECT)), img, 0x1)
    ber_first = op_fei(op_ber(g, img, 0x1), img, Edge(0x1, 0x10, EdgeKind.DIRECT))
    dependent = (
        Edge(0x1, 0x10, EdgeKind.TAIL_CALL) in fei_first.edges
        and 0x10 in fei_first.entries
        and Edge(0x1, 0x10, EdgeKind.DIRECT) in ber_first.edges
        and 0x10 not in ber_first.entries
    )

    # a teardown branch and a plain branch to the same target commute:
    # op_fei reads only the branch's own block, not which entries exist
    img = asm_image(
        0x0,
        [
            (Opcode.FRAME_TEARDOWN,),
            (Opcode.JMP_DIRECT, 0x10),
            (Opcode.NOP,), (Opcode.NOP,), (Opcode.NOP,), (Opcode.NOP,), (Opcode.NOP,),
            (Opcode.JMP_DIRECT, 0x10),
            (Opcode.NOP,), (Opcode.NOP,), (Opcode.NOP,), (Opcode.NOP,),
            (Opcode.RET,),
        ],
    )
    g = Cfg(
        candidates={0x0, 0xB},
        entries={
            0x0: FunctionEntry(0x0, None, ReturnStatus.UNSET, True),
            0xB: FunctionEntry(0xB, None, ReturnStatus.UNSET, True),
        },
    )
    g = op_ber(op_ber(g, img, 0x0), img, 0xB)
    g = op_dec(op_dec(g, g.blocks[0x0]), g.blocks[0xB])
    e_teardown = Edge(0x0, 0x10, EdgeKind.DIRECT)
    e_plain = Edge(0xB, 0x10, EdgeKind.DIRECT)
    first = op_fei(op_fei(g, img, e_teardown), img, e_plain)
    second = op_fei(op_fei(g, img, e_plain), img, e_teardown)
    commutes = canonical_serialize(first) == canonical_serialize(second)

    _report(
        "criterion 4: operation algebra, 1000 instances per law + witness",
        dependent and commutes,
        f"{time.perf_counter() - t0:.1f}s",
    )


def test_criterion_5_convergence_audits(corpus):
    """Split chains converge under contention (a split step that does not
    strictly shorten its end raises InternalError out of the run);
    tail-call flips never exceed the edge count on any corpus image."""
    t0 = time.perf_counter()
    img, _ = generate(ScenarioSpec.make("shared-code", 0, sharers=64))
    _, stats, _ = construct_details(img, 8)
    chains_ok = stats.splits_performed > 0
    ledger_ok = True
    for spec, cimg, _ in corpus:
        _, cstats, _ = construct_details(cimg, 2)
        if cstats.finalize_flips > cstats.raw_edge_count:
            ledger_ok = False
            break
    _report(
        "criterion 5: convergence audits (split chains, flip budget)",
        chains_ok and ledger_ok,
        f"{stats.splits_performed} splits, {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_6_invariant_counters():
    """Exactly one successful creation per distinct block start, block
    end, and function entry: each win is counted, so the counters equal
    the sizes of the maps they insert into. No status double-writes (one
    would raise AlreadySetError out of the run)."""
    t0 = time.perf_counter()
    img, _ = generate(ScenarioSpec.make("shared-code", 0, sharers=64))
    state = ConcurrentCfgState(img, 8)
    stats = state.run()
    # the state is read before the export moves it into the graph
    filled_ends = len(state.blocks_by_end)
    block_starts = set(state.blocks_by_start)
    n_functions = len(state.functions)
    cfg = state.export_cfg()
    ok = (
        stats.blocks_created == len(block_starts) > 0
        and stats.end_registrations == filled_ends
        and stats.functions_created == n_functions
        and block_starts == set(cfg.blocks)
    )
    _report(
        "criterion 6: invariant counters on the contention stress image",
        ok,
        f"{stats.blocks_created} blocks, {filled_ends} ends, "
        f"{stats.functions_created} functions, "
        f"{time.perf_counter() - t0:.1f}s",
    )


def test_criterion_7_scaling_report():
    """Soft criterion: reported, not gated. Speedup at 8 workers vs 1 is
    environment-dependent (GIL, core count); see README."""
    t0 = time.perf_counter()
    img, _ = generate(ScenarioSpec.make("big-random", 11, functions=50000))
    times = {}
    for workers in (1, 8):
        start = time.perf_counter()
        construct(img, workers)
        times[workers] = time.perf_counter() - start
    speedup = times[1] / times[8]
    import os

    cores = os.cpu_count()
    print(
        f"[REPORT] criterion 7: big-random(50000) speedup at 8 workers = "
        f"{speedup:.2f}x (w1 {times[1]:.1f}s, w8 {times[8]:.1f}s, "
        f"{cores} logical cpus, {time.perf_counter() - t0:.1f}s total); "
        f"target >=2.0x applies on >=8-core machines and is reported, not gated"
    )


def test_criterion_8_eager_notification_liveness(monkeypatch):
    """Every waiter drains before traversal quiescence when the deepest
    callee of a 32-deep call chain returns early: no status is left for
    the quiescence-time cycle resolution."""
    t0 = time.perf_counter()
    spec = ScenarioSpec.make("noreturn-chain", 7, depth=32, early_ret=1)
    img, truth = generate(spec)
    assert truth.noreturn_call_sites == set()
    resolved = []
    resolve = ConcurrentCfgState.resolve_status_cycles
    monkeypatch.setattr(
        ConcurrentCfgState,
        "resolve_status_cycles",
        lambda self: resolved.append(self) or resolve(self),
    )
    cfg, stats, _ = construct_details(img, 8)
    fallthroughs = sum(1 for e in cfg.edges if e.kind is EdgeKind.CALL_FALLTHROUGH)
    ok = resolved == [] and stats.waiters_registered >= 1 and fallthroughs == 32
    _report(
        "criterion 8: eager-notification liveness on noreturn-chain(depth=32)",
        ok,
        f"{stats.waiters_registered} waiters registered, "
        f"{fallthroughs} fall-through edges, {len(resolved)} cycle resolutions, "
        f"{time.perf_counter() - t0:.1f}s",
    )
