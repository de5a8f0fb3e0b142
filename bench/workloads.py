"""Benchmark inputs: the two workloads and their correctness references.

Every input is a pure function of the workload seed. The library only
ever sees the packed image bytes; the reference each result is checked
against is never the engine itself:

- big-random: the generator's ground truth for one 20k-function image.
- corpus-equivalence: every simple generator family over a spread of
  parameters that always includes both bounds, big-random at 250 to 2000
  functions, and one long-blocks image that this module assembles with
  `isa.encode`, recording its ground truth while assembling; the
  reference is the serial oracle and the ground truth.

The two stress opposite layers: big-random's short function bodies make
engine bookkeeping, finalize, validate/serialize and the collector the
cost, while the long-blocks image takes about a third of the corpus's
engine time, spent scanning and re-decoding long blocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from pcfg import image as image_mod
from pcfg import workload as workload_mod
from pcfg.isa import Opcode, encode

TEXT_BASE = 0x1000
DATA_BASE = 0x400000


@dataclass
class Input:
    """One image as the user would hand it to `pcfg analyze`."""

    label: str
    raw: bytes
    truth: workload_mod.GroundTruth
    functions: int  # seeded (symbol-table) function entries
    oracle: bool  # whether the serial oracle is run on it


def _seeded(img: image_mod.Image) -> int:
    return len({s.offset for s in img.func_symbols()})


def _label(spec: workload_mod.ScenarioSpec) -> str:
    params = ",".join(f"{k}={v}" for k, v in spec.params)
    return f"{spec.family}[{params}]#{spec.seed}"


def _from_spec(spec: workload_mod.ScenarioSpec, oracle: bool) -> Input:
    img, truth = workload_mod.generate(spec)
    return Input(_label(spec), image_mod.pack_image(img), truth, _seeded(img), oracle)


# -- big-random ---------------------------------------------------------------

BIG_RANDOM_FUNCTIONS = 20000


def _big_random_spec(seed: int, functions: int) -> workload_mod.ScenarioSpec:
    return workload_mod.ScenarioSpec.make("big-random", seed, functions=functions)


def big_random(seed: int, functions: int | None = None, oracle: bool = False) -> list[Input]:
    spec = _big_random_spec(seed, functions or BIG_RANDOM_FUNCTIONS)
    return [_from_spec(spec, oracle)]


# -- long-blocks ----------------------------------------------------------------


LONG_BLOCKS_FUNCTIONS = 50  # small enough for the serial oracle
LONG_BLOCKS_BLOCK = 200  # mean ALU instructions in an entry block

_ALU = len(encode(Opcode.ALU))
_JMP = len(encode(Opcode.JMP_DIRECT))
_CALL = len(encode(Opcode.CALL))
_HINT = len(encode(Opcode.BOUND_HINT))
_TABLE = len(encode(Opcode.IJMP_TABLE))
_RET = len(encode(Opcode.RET))


@dataclass
class _Plan:
    a: int  # ALUs in the entry block, which ends in a jcc to `mid`
    b: int  # ALUs before the call
    c: int  # ALUs after the call fall-through, up to the bound hint
    d: int  # ALUs from `mid` to the table jump
    hint: int  # table size, named only by the bound hint
    declared: int  # bound operand of the table jump itself (< hint)
    cases: list[int]  # ALUs per case block, each ending in a forward jmp
    join: int  # ALUs before the final ret

    def size(self) -> int:
        return (
            _ALU * (self.a + self.b + self.c + 2 + self.d + sum(self.cases) + self.join)
            + _JMP * (1 + len(self.cases))
            + _CALL
            + _HINT
            + _TABLE
            + _RET
        )


def _plan(rng: random.Random) -> _Plan:
    block = LONG_BLOCKS_BLOCK
    hint = rng.randint(2, 5)
    return _Plan(
        a=rng.randint(block * 3 // 4, block * 5 // 4),
        b=rng.randint(block * 3 // 4, block * 5 // 4),
        c=rng.randint(block * 2 // 5, block * 3 // 5),
        d=rng.randint(block * 2 // 5, block * 3 // 5),
        hint=hint,
        declared=rng.randint(1, hint - 1),
        cases=[rng.randint(block * 3 // 10, block * 7 // 10) for _ in range(hint)],
        join=rng.randint(block * 3 // 4, block * 5 // 4),
    )


def build_long_blocks(
    functions: int, seed: int
) -> tuple[image_mod.Image, workload_mod.GroundTruth]:
    """Assemble an image of long straight-line blocks and its ground truth.

    Function i (of `functions`, plus one leaf at the end):

        entry: ALU*a; jcc mid            -- mid lies inside a later block
               ALU*b; call f(i+1)        -- an acyclic chain ending in the leaf
               ALU*c; hint H; ALU*2      -- split here when mid is reached
        mid:   ALU*d; ijmp table, bound < H
        case j (j < H): ALU*k_j; jmp join
        join:  ALU*e; ret

    The table grows to H entries only once the split exposes the bound
    hint in `mid`'s predecessor, so the engine re-walks predecessor blocks
    on every refresh. Every function returns, so no call site is
    non-returning and no branch is a tail call.
    """
    rng = random.Random(f"long-blocks|{functions}|{seed}")
    plans = [_plan(rng) for _ in range(functions)]
    entries = []
    addr = TEXT_BASE
    for p in plans:
        entries.append(addr)
        addr += p.size() + 1  # one padding nop between functions
    leaf = addr
    leaf_alus = rng.randint(4, 12)

    text = bytearray()
    data = bytearray()
    truth = workload_mod.GroundTruth()
    symbols = []

    alu_op = encode(Opcode.ALU)[:1]

    def alus(n: int) -> None:
        payload = rng.randbytes(2 * n)  # the ALU operand, ignored by analysis
        for j in range(0, 2 * n, 2):
            text.extend(alu_op)
            text.extend(payload[j : j + 2])

    def here() -> int:
        return TEXT_BASE + len(text)

    for i, p in enumerate(plans):
        entry = here()
        assert entry == entries[i]
        callee = entries[i + 1] if i + 1 < functions else leaf
        table = DATA_BASE + len(data)
        # offsets of the later labels, from the plan
        mid = (
            entry
            + _ALU * (p.a + p.b + p.c + 2)
            + _JMP
            + _CALL
            + _HINT
        )
        case0 = mid + _ALU * p.d + _TABLE
        case_addrs = []
        at = case0
        for k in p.cases:
            case_addrs.append(at)
            at += _ALU * k + _JMP
        join = at

        alus(p.a)
        text.extend(encode(Opcode.JCC_DIRECT, mid))
        alus(p.b)
        text.extend(encode(Opcode.CALL, callee))
        alus(p.c)
        text.extend(encode(Opcode.BOUND_HINT, p.hint))
        alus(2)
        assert here() == mid
        alus(p.d)
        text.extend(encode(Opcode.IJMP_TABLE, table, p.declared))
        for case, k in zip(case_addrs, p.cases):
            assert here() == case
            alus(k)
            text.extend(encode(Opcode.JMP_DIRECT, join))
        assert here() == join
        alus(p.join)
        text.extend(encode(Opcode.RET))
        truth.function_ranges[entry] = [(entry, here())]
        text.extend(encode(Opcode.NOP))

        for case in case_addrs:
            data.extend(case.to_bytes(4, "little"))
        data.extend(bytes(4))  # slack word between tables
        truth.jump_table_sizes[table] = p.hint
        symbols.append(image_mod.make_symbol(entry, f"lb{i}$fn", image_mod.SymbolKind.FUNC))

    assert here() == leaf
    alus(leaf_alus)
    text.extend(encode(Opcode.RET))
    truth.function_ranges[leaf] = [(leaf, here())]
    symbols.append(image_mod.make_symbol(leaf, "lb_leaf$fn", image_mod.SymbolKind.FUNC))

    img = image_mod.Image(TEXT_BASE, bytes(text), DATA_BASE, bytes(data), tuple(symbols))
    return img, truth


def long_blocks(seed: int, functions: int | None = None) -> list[Input]:
    """The corpus's long-blocks image, checked against the oracle."""
    functions = functions or LONG_BLOCKS_FUNCTIONS
    img, truth = build_long_blocks(functions, seed)
    raw = image_mod.pack_image(img)
    label = f"long-blocks[functions={functions}]#{seed}"
    return [Input(label, raw, truth, _seeded(img), oracle=True)]


# -- corpus-equivalence ---------------------------------------------------------


CORPUS_BIG_RANDOM = (250, 500, 1000, 2000)
PER_FAMILY = 4


def _families() -> dict[str, list[tuple[str, int, int]]]:
    """Each simple generator family with its parameters' (name, lower,
    upper) bounds, read from the generator's own schema table."""
    return {
        family: [(name, lo, hi) for name, (_, lo, hi) in schema.items()]
        for family, (_, schema) in workload_mod._SIMPLE_FAMILIES.items()
    }


def _stratum(rng: random.Random, lo: int, hi: int, k: int, parts: int) -> int:
    """A value near the k-th of `parts` equal steps from lo to hi, jittered
    by up to a twentieth of the range: the spread differs per seed, but
    the corpus keeps the same shape, so its percentiles stay comparable."""
    centre = lo + (hi - lo) * k / parts
    jitter = (hi - lo) / 20
    return max(lo, min(hi, round(rng.uniform(centre - jitter, centre + jitter))))


def corpus_specs(seed: int) -> list[workload_mod.ScenarioSpec]:
    """PER_FAMILY images of every simple family, whose parameters take
    their lower bound in the first, their upper bound in the second and
    spread values between in the rest; then big-random at each size of
    CORPUS_BIG_RANDOM."""
    rng = random.Random(f"corpus-equivalence|{seed}")
    make = workload_mod.ScenarioSpec.make
    specs = []
    for family, params in _families().items():
        values = {
            name: [lo, hi] + [_stratum(rng, lo, hi, k, PER_FAMILY - 1) for k in range(1, PER_FAMILY - 1)]
            for name, lo, hi in params
        }
        for j in range(PER_FAMILY):
            specs.append(make(family, rng.randrange(1 << 30), **{n: v[j] for n, v in values.items()}))
    for n in CORPUS_BIG_RANDOM:
        specs.append(make("big-random", rng.randrange(1 << 30), functions=n))
    return specs


def corpus(seed: int) -> list[Input]:
    inputs = [_from_spec(spec, oracle=True) for spec in corpus_specs(seed)]
    return inputs + long_blocks(seed)


# -- per-workload extras ---------------------------------------------------------


def inputs(workload: str, seed: int) -> list[Input]:
    if workload == "big-random":
        return big_random(seed)
    return corpus(seed)


def warmup(workload: str, seed: int) -> list[Input]:
    """Small inputs of the workload's kind, analyzed during set-up."""
    if workload == "big-random":
        return big_random(seed, functions=BIG_RANDOM_FUNCTIONS // 100)
    warm = [_from_spec(spec, oracle=True) for spec in corpus_specs(seed)[::8]]
    return warm + long_blocks(seed, functions=max(1, LONG_BLOCKS_FUNCTIONS // 10))


def growth(workload: str, seed: int) -> tuple[str, Input]:
    """Label of the workload's largest input, and the same input at a
    quarter of the functions from the same seed."""
    if workload == "big-random":
        spec = _big_random_spec(seed, BIG_RANDOM_FUNCTIONS)
        return _label(spec), big_random(seed, BIG_RANDOM_FUNCTIONS // 4)[0]
    spec = corpus_specs(seed)[-1]
    quarter = _big_random_spec(spec.seed, spec.param("functions", 0) // 4)
    return _label(spec), _from_spec(quarter, oracle=False)


def probe(workload: str, seed: int) -> list[Input]:
    """Where the workload's own image is too large for the quadratic
    oracle, a smaller image of the same kind that the traced run checks
    against it, so the serial layer is measured on every workload."""
    if workload == "big-random":
        return big_random(seed, functions=BIG_RANDOM_FUNCTIONS // 20, oracle=True)
    return []


WORKLOADS = ("big-random", "corpus-equivalence")
