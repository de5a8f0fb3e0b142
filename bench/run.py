#!/usr/bin/env python3
"""The pcfg benchmark: one workload, one run.

    python3 bench/run.py --workload big-random --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; it imports pcfg from `src/` there
and sets no program knob. One run sets up the workload's inputs five
times (the median is `setup_s`), then repeats rounds of equivalence
iterations over its inputs for about `--seconds` (a round is never cut).
An iteration takes each input through the user's `pcfg analyze` path
(`load_image` -> `construct_details` -> `canonical_serialize`) at 1 and 2
workers and checks both results against the workload's reference: the
serial oracle on corpus-equivalence, the ground truth everywhere, and
byte equality across workers and repeats.

With `--trace 0` it reports the end-to-end metrics. With `--trace 1` it
also runs every analysis once more with the layer wrappers of
`tracing.py` installed and reports the per-layer metrics, plus the
one-shot comparisons (levels scheduling, growth with image size) that
are reported but not gated. A run record (checksums, kernel, Python,
nproc, seed, commit; spans when traced) is written under `.bench_out/`.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 5
GROWTH_REPEATS = 3
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10

clock = time.perf_counter


def import_pcfg() -> float:
    """Import pcfg from this checkout's `src/`; returns the import seconds."""
    if not (SRC / "pcfg" / "__init__.py").is_file():
        raise SystemExit(f"error: no pcfg sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = clock()
    import pcfg  # the package imports every module

    seconds = clock() - t0
    if Path(pcfg.__file__).resolve().parent != (SRC / "pcfg").resolve():
        raise SystemExit(f"error: imported pcfg from {pcfg.__file__}, not {SRC}")
    return seconds


# -- metric tables --------------------------------------------------------------

END_TO_END = {
    "analyze_s": "s",
    "analyze_tail_s": "s",
    "analyze_w2_s": "s",
    "speedup_w2": "ratio",
    "functions_per_s": "1/s",
    "equivalence_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "workload.generate_s": "s",
    "image.load_s": "s",
    "kernels.scan_calls": "count",
    "kernels.scan_s": "s",
    "kernels.scan_bytes_per_s": "B/s",
    "isa.decode_calls": "count",
    "isa.decode_s": "s",
    "jumptables.refresh_calls": "count",
    "jumptables.refresh_yield": "ratio",
    "jumptables.hint_walk_s": "s",
    "symtab.insert_calls": "count",
    "symtab.seal_s": "s",
    "parallel.init_s": "s",
    "parallel.traversal_s": "s",
    "parallel.export_s": "s",
    "parallel.traverse_calls": "count",
    "parallel.worker_busy_share": "ratio",
    "parallel.claim_loss_ratio": "ratio",
    "parallel.scan_cache_hit_ratio": "ratio",
    "parallel.splits": "count",
    "parallel.blocks_created": "count",
    "parallel.status_cycle_rounds": "count",
    "parallel.levels_w2_s": "s",
    "parallel.growth_x4": "ratio",
    "finalize.total_s": "s",
    "finalize.boundaries_s": "s",
    "finalize.tailcalls_s": "s",
    "finalize.rest_s": "s",
    "finalize.iterations": "count",
    "finalize.flips": "count",
    "cfg.validate_calls": "count",
    "cfg.validate_s": "s",
    "cfg.serialize_s": "s",
    "cfg.clone_calls": "count",
    "serial.construct_s": "s",
    "serial.op_calls": "count",
    "serial.op_s": "s",
    "gc.collections": "count",
    "gc.pause_s": "s",
    "trace.overhead": "ratio",
}


# -- one analysis ----------------------------------------------------------------


def analyze(raw: bytes, workers: int, **knobs):
    """The user's `pcfg analyze`: bytes in, canonical text out. Module
    attributes are looked up at call time, so traced wrappers apply."""
    from pcfg import cfg, image, parallel

    t0 = clock()
    img = image.load_image(raw)
    graph, stats, registry = parallel.construct_details(img, workers, **knobs)
    text = cfg.canonical_serialize(graph)
    return clock() - t0, text, graph, stats, registry


@dataclass
class Samples:
    """Everything one run measured."""

    e1: list = field(default_factory=list)  # (label, seconds, seeded functions)
    e2: list = field(default_factory=list)  # (label, seconds)
    iterations: list = field(default_factory=list)  # (label, seconds)
    traced_e1: list = field(default_factory=list)  # (label, seconds)
    frames: dict = field(default_factory=lambda: {"e1": [], "e2": [], "oracle": []})
    stats: dict = field(default_factory=lambda: {"e1": [], "e2": []})


class Checker:
    """Judges every engine analysis against the input's reference.

    The reference bytes are the oracle's output where the oracle runs,
    otherwise the first output whose ground-truth facets match. Every
    later output of the same input, at any worker count, must equal them.
    `mutate` lets the self-tests corrupt engine output on its way in.
    """

    def __init__(self, mutate=None):
        self.mutate = mutate
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, label: str, workers: int, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{label} @{workers}: {why}")

    def judge(self, inp, workers: int, text: str, truth_diffs=None) -> None:
        """Check one output's bytes. `truth_diffs`, when given, is the
        output's ground-truth check; one that passes it becomes the
        reference if there is none yet."""
        self.attempted += 1
        if self.mutate is not None:
            text = self.mutate(text, workers)
        if truth_diffs:
            self.fail(inp.label, workers, f"ground truth: {truth_diffs[0]}")
            return
        if truth_diffs is not None:
            self.reference.setdefault(inp.label, text)
        ref = self.reference.get(inp.label)
        if ref is None:
            self.fail(inp.label, workers, "no verified reference")
        elif text != ref:
            self.fail(inp.label, workers, "canonical bytes differ from the reference")

    def crashed(self, inp, workers: int, exc: BaseException) -> None:
        self.attempted += 1
        self.fail(inp.label, workers, f"raised {type(exc).__name__}: {exc}")


@dataclass
class Analysis:
    seconds: float  # the operation alone, from image bytes to canonical text
    text: str
    stats: object = None
    frame: object = None  # the tracer's frame, when traced
    truth_diffs: list | None = None  # ground-truth differences, when checked


def run_engine(checker: Checker, inp, workers: int, tracer=None, check_truth=False):
    """One analysis; None when it raised (counted as failed). With
    `check_truth` its graph is compared with the input's ground truth here,
    after the timing, so that no graph outlives its own analysis."""
    from pcfg import workload

    if tracer is not None:
        tracer.install()
    try:
        seconds, text, graph, stats, registry = analyze(inp.raw, workers)
    except Exception as exc:  # a failed analysis is counted, not fatal
        checker.crashed(inp, workers, exc)
        return None
    finally:
        if tracer is not None:
            tracer.uninstall()
    frame = tracer.collect() if tracer is not None else None
    diffs = None
    if check_truth:
        diffs = workload.diff_truth(inp.truth, workload.extract_facets(graph, registry))
    return Analysis(seconds, text, stats, frame, diffs)


def run_oracle(checker: Checker, inp, tracer=None):
    """The serial oracle on one input, timed like `analyze`; its bytes
    become the input's reference. None when it raised."""
    from pcfg import cfg, image, serial

    if tracer is not None:
        tracer.install()
    try:
        t0 = clock()
        text = cfg.canonical_serialize(serial.serial_construct(image.load_image(inp.raw)))
        seconds = clock() - t0
    except Exception as exc:
        checker.problems.append(f"{inp.label}: oracle raised {type(exc).__name__}: {exc}")
        return None
    finally:
        if tracer is not None:
            tracer.uninstall()
    ref = checker.reference.setdefault(inp.label, text)
    if ref != text:
        checker.problems.append(f"{inp.label}: oracle output changed between repeats")
    return Analysis(seconds, text, frame=tracer.collect() if tracer is not None else None)


def iterate(inp, checker: Checker, samples: Samples, tracer=None) -> None:
    """One equivalence iteration of one input: the oracle where the input
    uses it, then the engine at 1 and 2 workers, then the byte compare.
    Its time is that of these operations alone; the ground-truth check of
    the 1-worker result is the benchmark's own work and is not counted.
    With a tracer, the same three run once more with the layer wrappers
    installed; the untraced 1-worker time is what the trace overhead is
    measured against."""

    def fresh(fn, *args, **kwargs):
        # the cycle collector runs between steps, outside the timings:
        # each analysis leaves its engine state behind as cyclic garbage
        gc.collect()
        return fn(*args, **kwargs)

    oracle = fresh(run_oracle, checker, inp) if inp.oracle else None
    one = fresh(run_engine, checker, inp, 1, check_truth=True)
    two = fresh(run_engine, checker, inp, 2)
    t0 = clock()
    if one is not None:
        checker.judge(inp, 1, one.text, one.truth_diffs)
    if two is not None:
        checker.judge(inp, 2, two.text)
    work = clock() - t0 + sum(r.seconds for r in (oracle, one, two) if r is not None)
    samples.iterations.append((inp.label, work))
    if one is not None:
        samples.e1.append((inp.label, one.seconds, inp.functions))
    if two is not None:
        samples.e2.append((inp.label, two.seconds))
    if tracer is None:
        return
    if inp.oracle:
        traced = fresh(run_oracle, checker, inp, tracer)
        if traced is not None:
            samples.frames["oracle"].append(traced.frame)
    for workers, key in ((1, "e1"), (2, "e2")):
        traced = fresh(run_engine, checker, inp, workers, tracer)
        if traced is None:
            continue
        checker.judge(inp, workers, traced.text)
        samples.frames[key].append(traced.frame)
        samples.stats[key].append(traced.stats)
        if workers == 1:
            samples.traced_e1.append((inp.label, traced.seconds))


# -- statistics ------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile of TAIL_GRID with at least TAIL_BEYOND values
    above it (nearest rank); the grid's lowest when there are too few
    values for any, because the maximum of a few repeats is host noise."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_GRID:
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND or p == TAIL_GRID[-1]:
            return ordered[rank - 1], f"p{p:g} of {n}"


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_input(samples: list) -> dict[str, list[float]]:
    """Seconds grouped by input label, in first-seen order."""
    groups: dict[str, list[float]] = {}
    for label, seconds, *_ in samples:
        groups.setdefault(label, []).append(seconds)
    return groups


def summarize(samples: list) -> tuple[float, float, str]:
    """Centre and tail of per-analysis seconds. Each input is reduced to
    the median and the tail percentile of its own repeats; a corpus then
    reports the mean of each over its inputs (corpus seconds per input),
    because the median input of a corpus is a millisecond-sized image
    whose time is thread wake-up latency, which swings by half under host
    load, and a percentile across inputs would pick a different image
    from one seed's corpus to the next."""
    groups = list(per_input(samples).values()) or [[0.0]]
    tails = [tail(g) for g in groups]
    centre = statistics.fmean(statistics.median(g) for g in groups)
    value = statistics.fmean(t for t, _ in tails)
    note = f"{tails[0][1]} repeats"
    if len(groups) > 1:
        note = f"mean over {len(groups)} inputs of each one's {note}"
    return centre, value, note


def input_medians(samples: Samples) -> dict:
    """Each input's median seconds, for the run record."""
    out: dict[str, dict] = {}
    for key in ("e1", "e2", "iterations"):
        for label, values in per_input(getattr(samples, key)).items():
            out.setdefault(label, {})[key] = statistics.median(values)
    return out


def end_to_end(samples: Samples, inputs: list, setup_s: float) -> tuple[dict, dict]:
    analyze_s, tail_s, tail_note = summarize(samples.e1)
    analyze_w2_s, _, _ = summarize(samples.e2)
    equivalence_s, _, _ = summarize(samples.iterations)
    values = {
        "analyze_s": analyze_s,
        "analyze_tail_s": tail_s,
        "analyze_w2_s": analyze_w2_s,
        "speedup_w2": _ratio(analyze_s, analyze_w2_s),
        # seeded functions over the 1-worker seconds of one analysis of
        # every input, each input timed by the median of its repeats
        "functions_per_s": _ratio(
            sum({label: f for label, _, f in samples.e1}.values()),
            analyze_s * len(per_input(samples.e1)),
        ),
        "equivalence_s": equivalence_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    notes = {
        "analyze_s": f"{len(samples.e1)} analyses of {len(per_input(samples.e1))} inputs",
        "analyze_tail_s": tail_note,
        "analyze_w2_s": f"{len(samples.e2)} analyses",
        "equivalence_s": f"{len(samples.iterations)} input iterations; "
        + ("oracle + " if any(inp.oracle for inp in inputs) else "no oracle: ")
        + "1 and 2 workers + byte compare",
    }
    return values, notes


def _stat(stats: list, name: str) -> float:
    # a stat field a later change removes reads as zero
    return sum(getattr(s, name, 0) for s in stats)


def per_layer(samples: Samples, generate_s: float, extras: dict) -> dict:
    from tracing import sum_frames

    f1 = sum_frames(samples.frames["e1"])
    n1 = len(samples.frames["e1"])
    f2 = sum_frames(samples.frames["e2"])
    fo = sum_frames(samples.frames["oracle"])
    no = len(samples.frames["oracle"])
    s1, s2 = samples.stats["e1"], samples.stats["e2"]

    losses = _stat(s2, "block_claim_losses") + _stat(s2, "end_registration_losses")
    losses += _stat(s2, "function_claim_losses")
    attempts = losses + _stat(s2, "blocks_created") + _stat(s2, "end_registrations")
    attempts += _stat(s2, "functions_created")
    hits = _stat(s1, "scan_cache_hits")
    untraced = summarize(samples.e1)[0]
    traced = summarize(samples.traced_e1)[0]
    return {
        "workload.generate_s": generate_s,
        "image.load_s": _per(f1.total["image.load"], n1),
        "kernels.scan_calls": _per(f1.calls["kernels.scan"], n1),
        "kernels.scan_s": _per(f1.total["kernels.scan"], n1),
        "kernels.scan_bytes_per_s": _ratio(f1.extra["kernels.scan"], f1.total["kernels.scan"]),
        "isa.decode_calls": _per(f1.calls["isa.decode"], n1),
        "isa.decode_s": _per(f1.total["isa.decode"], n1),
        "jumptables.refresh_calls": _per(f1.calls["jumptables.refresh"], n1),
        "jumptables.refresh_yield": _ratio(
            f1.extra["jumptables.refresh"], f1.calls["jumptables.refresh"]
        ),
        "jumptables.hint_walk_s": _per(f1.total["jumptables.hint_walk"], n1),
        "symtab.insert_calls": _per(f1.calls["symtab.insert"], n1),
        "symtab.seal_s": _per(f1.total["symtab.seal"], n1),
        "parallel.init_s": _per(_stat(s1, "init_seconds"), len(s1)),
        "parallel.traversal_s": _per(_stat(s1, "traversal_seconds"), len(s1)),
        "parallel.export_s": _per(f1.total["parallel.export"], n1),
        "parallel.traverse_calls": _per(f1.calls["parallel.traverse"], n1),
        "parallel.worker_busy_share": _ratio(
            f2.total["parallel.traverse"], 2 * _stat(s2, "traversal_seconds")
        ),
        "parallel.claim_loss_ratio": _ratio(losses, attempts),
        "parallel.scan_cache_hit_ratio": _ratio(hits, hits + _stat(s1, "cfis_decoded")),
        "parallel.splits": _per(_stat(s1, "splits_performed"), len(s1)),
        "parallel.blocks_created": _per(_stat(s1, "blocks_created"), len(s1)),
        "parallel.status_cycle_rounds": _per(f1.calls["parallel.status_cycles"], n1),
        "parallel.levels_w2_s": extras["levels_w2_s"],
        "parallel.growth_x4": extras["growth_x4"],
        "finalize.total_s": _per(f1.total["finalize.total"], n1),
        "finalize.boundaries_s": _per(f1.total["finalize.boundaries"], n1),
        "finalize.tailcalls_s": _per(f1.total["finalize.tailcalls"], n1),
        # finalize's own time: trim and prune, without its timed children
        "finalize.rest_s": _per(f1.self_["finalize.total"], n1),
        "finalize.iterations": _per(_stat(s1, "finalize_iterations"), len(s1)),
        "finalize.flips": _per(_stat(s1, "finalize_flips"), len(s1)),
        "cfg.validate_calls": _per(f1.calls["cfg.validate"], n1),
        "cfg.validate_s": _per(f1.total["cfg.validate"], n1),
        "cfg.serialize_s": _per(f1.self_["cfg.serialize"], n1),
        "cfg.clone_calls": _per(f1.calls["cfg.clone"], n1),
        "serial.construct_s": _per(fo.total["serial.construct"], no),
        "serial.op_calls": _per(fo.calls["serial.op"], no),
        "serial.op_s": _per(fo.total["serial.op"], no),
        "gc.collections": _per(f1.gc_collections, n1),
        "gc.pause_s": _per(f1.gc_pause_s, n1),
        "trace.overhead": _ratio(traced, untraced) - 1,
    }


# -- one-shot comparisons (traced run only) ----------------------------------------


def one_shots(workload: str, seed: int, inputs: list, checker: Checker, samples: Samples):
    """Levels-mode scheduling and growth with image size; reported, not gated."""
    import workloads

    notes = {}
    full_label, quarter = workloads.growth(workload, seed)
    full = next(inp for inp in inputs if inp.label == full_label)

    levels_w2_s = 0.0
    tasks = [s for label, s in samples.e2 if label == full_label] or [0.0]
    gc.collect()
    try:
        levels_w2_s, text, *_ = analyze(full.raw, 2, mode="levels")
    except (TypeError, ValueError) as exc:  # the mode, or its keyword, is gone
        notes["parallel.levels_w2_s"] = f"levels mode unavailable: {exc}"
    except Exception as exc:
        checker.crashed(full, 2, exc)
    else:
        checker.judge(full, 2, text)
        notes["parallel.levels_w2_s"] = (
            f"levels {levels_w2_s:.4f} s vs tasks {statistics.median(tasks):.4f} s, 2 workers"
        )

    small = []
    for _ in range(GROWTH_REPEATS):
        gc.collect()
        result = run_engine(checker, quarter, 1, check_truth=True)
        if result is not None:
            checker.judge(quarter, 1, result.text, result.truth_diffs)
            small.append(result.seconds)
    big = statistics.median([s for label, s, _ in samples.e1 if label == full_label] or [0.0])
    small = statistics.median(small or [0.0])
    growth_x4 = _ratio(big, small)
    notes["parallel.growth_x4"] = (
        f"{full_label}: {big:.4f} s / {quarter.label}: {small:.4f} s (4.0 is linear)"
    )
    return {"levels_w2_s": levels_w2_s, "growth_x4": growth_x4}, notes


# -- the run ----------------------------------------------------------------------


def setup(workload: str, seed: int, checker: Checker):
    """Generate and pack the inputs, then warm the interpreter on a small
    instance; repeated, and the median is reported."""
    import workloads

    totals, generation = [], []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        inputs = workloads.inputs(workload, seed)
        generation.append(clock() - t0)
        for inp in workloads.warmup(workload, seed):
            iterate(inp, checker, Samples())
        totals.append(clock() - t0)
    return inputs, statistics.median(totals), statistics.median(generation)


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float = 0.0, mutate=None):
    """One benchmark run; returns the result dict the CLI prints."""
    import workloads
    from pcfg._kernels import KERNEL_NAME

    checker = Checker(mutate)
    inputs, setup_s, generate_s = setup(workload, seed, checker)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    samples = Samples()
    deadline = clock() + seconds
    while True:
        t0 = clock()
        for inp in inputs:
            iterate(inp, checker, samples, tracer)
        # stop unless another round ends within half a round of the deadline
        if clock() + (clock() - t0) / 2 >= deadline:
            break

    values, notes = end_to_end(samples, inputs, import_s + setup_s)
    metrics = {name: (values[name], END_TO_END[name]) for name in END_TO_END}
    if trace:
        probe = Samples()
        for inp in workloads.probe(workload, seed):
            iterate(inp, checker, probe, tracer)
        samples.frames["oracle"] += probe.frames["oracle"]
        extras, shot_notes = one_shots(workload, seed, inputs, checker, samples)
        notes.update(shot_notes)
        layer = per_layer(samples, generate_s, extras)
        metrics = {name: (layer[name], PER_LAYER[name]) for name in PER_LAYER}
        if tracer.missing:
            notes["trace.missing"] = ", ".join(sorted(tracer.missing))
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "kernel": KERNEL_NAME,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "sha256": {
            label: hashlib.sha256(text.encode()).hexdigest()
            for label, text in sorted(checker.reference.items())
        },
        "end_to_end": values,
        "per_input": input_medians(samples),
        "notes": notes,
        "problems": checker.problems,
    }
    correct = checker.failed == 0 and not checker.problems and checker.attempted > 0
    return {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
        "record": record,
        "spans": tracer.spans if tracer is not None else [],
    }


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from files."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def write_record(result: dict) -> Path:
    rec = result["record"]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json"
    body = dict(rec, metrics={k: v for k, (v, _) in result["metrics"].items()})
    body["span_fields"] = ["request", "id", "parent", "layer", "thread", "start", "end"]
    body["spans"] = result["spans"]
    path.write_text(json.dumps(body, separators=(",", ":")) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_pcfg()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    rec = result["record"]
    path = write_record(result)

    print(
        f"pcfg benchmark: {rec['workload']} seed={rec['seed']} seconds={rec['seconds']:g} "
        f"trace={rec['trace']} kernel={rec['kernel']} python={rec['python']} "
        f"nproc={rec['nproc']} commit={rec['commit']}"
    )
    for name, (value, unit) in result["metrics"].items():
        note = rec["notes"].get(name, "")
        print(f"  {name:32} {value:>14.6g} {unit:6} {note}")
    for name, note in rec["notes"].items():
        if name not in result["metrics"] and name not in END_TO_END:
            print(f"  {name}: {note}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(
        f"  check: correct={str(result['correct']).lower()} attempted={result['attempted']} "
        f"failed={result['failed']} failed_ratio={ratio:g}"
    )
    for problem in rec["problems"]:
        print(f"  problem: {problem}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
