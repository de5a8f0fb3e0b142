"""Command line interface: analyze, verify, bench, gen.

Results go to stdout and are byte-stable for fixed inputs; timing and
progress go to stderr so outputs stay diffable. Exit codes: 0 success;
1 a malformed image, a failed verification, diverging bench runs or a
`gen` spec out of bounds; 2 a missing or unreadable file, bad input or
bad arguments; 3 (`ANALYSIS_FAILED`) a typed `PcfgError` raised while
building the graph or while checking or writing it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

from .cfg import ReturnStatus, canonical_serialize, require_valid, to_dot, to_json_dict
from .errors import MalformedImageError, PcfgError, SpecOutOfBoundsError
from .image import Image, load_image
from .parallel import construct_details
from .workload import (
    FAMILIES,
    PARAMETERS,
    ScenarioSpec,
    diff_truth,
    emit,
    extract_facets,
    generate,
    load_truth,
)


#: Exit code of a command whose construction or output check raised.
ANALYSIS_FAILED = 3


def _analysis_failed(exc: PcfgError) -> int:
    print(f"error: analysis failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    return ANALYSIS_FAILED


def _default_threads() -> int:
    return min(os.cpu_count() or 1, 64)


def _thread_count(text: str) -> int:
    """One `--threads` count; argparse exits 2 on one below 1."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"thread count {count} is below 1")
    return count


def _thread_counts(text: str) -> list[int]:
    return [_thread_count(t) for t in text.split(",") if t]


def _load(path: str) -> Image | int:
    """The image at `path`, or the exit code of a command that cannot
    load it: 1 for a malformed image, 2 for a missing or unreadable
    file."""
    try:
        return load_image(Path(path).read_bytes())
    except MalformedImageError as exc:
        print(f"error: malformed image: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_analyze(image_path: str, threads: int, fmt: str, out: str | None) -> int:
    image = _load(image_path)
    if isinstance(image, int):
        return image
    try:
        cfg, stats, registry = construct_details(image, threads)
        # the writer validates the graph before anything is printed
        if fmt == "canon":
            text = canonical_serialize(cfg)
        elif fmt == "dot":
            text = to_dot(cfg)
        else:
            text = json.dumps(
                {"cfg": to_json_dict(cfg), "jump_tables": registry.dump()}, indent=2
            ) + "\n"
    except PcfgError as exc:
        return _analysis_failed(exc)
    print(
        f"init {stats.init_seconds:.3f}s traversal {stats.traversal_seconds:.3f}s "
        f"export {stats.export_seconds:.3f}s finalization {stats.finalize_seconds:.3f}s",
        file=sys.stderr,
    )
    trimmed = sum(
        1 for d in registry.sorted_descriptors() if d.settled_bound < d.effective_bound
    )
    noreturn = sum(
        1 for f in cfg.entries.values() if f.status is ReturnStatus.NORETURN
    )
    print(
        f"summary functions={len(cfg.entries)} blocks={len(cfg.blocks)} "
        f"edges={len(cfg.edges)} noreturn={noreturn} tables_trimmed={trimmed}"
    )
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(image_path: str, truth_path: str, threads: int) -> int:
    image = _load(image_path)
    if isinstance(image, int):
        return image
    try:
        expected = load_truth(truth_path)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"error: bad input: {exc}", file=sys.stderr)
        return 2
    try:
        cfg, _, registry = construct_details(image, threads)
        require_valid(cfg)
    except PcfgError as exc:
        return _analysis_failed(exc)
    actual = extract_facets(cfg, registry)
    diffs = diff_truth(expected, actual)
    facets = ("functions", "jump_tables", "noreturn_calls", "tail_calls")
    for facet in facets:
        bad = [d for d in diffs if d.startswith(facet)]
        print(f"{facet}: {'FAIL' if bad else 'ok'}")
    for d in diffs[:10]:
        print(f"  {d}")
    if diffs:
        print(f"verify: {len(diffs)} difference(s)")
        return 1
    print("verify: all facets match")
    return 0


def cmd_bench(image_path: str, threads_list: list[int], repeat: int) -> int:
    image = _load(image_path)
    if isinstance(image, int):
        return image
    results: dict[int, list[float]] = {}
    outputs: dict[int, str] = {}
    for threads in threads_list:
        times = []
        for i in range(repeat):
            try:
                t0 = time.perf_counter()
                cfg, _, _ = construct_details(image, threads)
                times.append(time.perf_counter() - t0)
                canon = canonical_serialize(cfg)
            except PcfgError as exc:
                return _analysis_failed(exc)
            if outputs.setdefault(threads, canon) != canon:
                print(
                    f"error: run {i} at {threads} threads diverged from its first run",
                    file=sys.stderr,
                )
                return 1
        results[threads] = times
    first = next(iter(outputs.values()))
    if any(v != first for v in outputs.values()):
        print("error: outputs diverge across thread counts", file=sys.stderr)
        return 1
    base = statistics.mean(results[1]) if 1 in results else statistics.mean(
        results[threads_list[0]]
    )
    print(f"{'threads':>8} {'mean_s':>10} {'min_s':>10} {'speedup':>8}", file=sys.stderr)
    for threads in threads_list:
        mean = statistics.mean(results[threads])
        best = min(results[threads])
        print(
            f"{threads:>8} {mean:>10.4f} {best:>10.4f} {base / mean:>8.2f}",
            file=sys.stderr,
        )
        print(
            f"bench threads={threads} mean={mean:.6f} min={best:.6f} "
            f"speedup={base / mean:.3f}",
            file=sys.stderr,
        )
    print(
        f"bench ok threads={','.join(str(t) for t in threads_list)} "
        f"repeat={repeat} identical_output=yes"
    )
    return 0


def cmd_gen(family: str, seed: int, out_dir: str, params: dict[str, int]) -> int:
    try:
        spec = ScenarioSpec.make(family, seed, **params)
        image, truth = generate(spec)
    except SpecOutOfBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        image_path, truth_path = emit(image, truth, out_dir)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(str(image_path))
    print(str(truth_path))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcfg", description="parallel CFG reconstruction over pcfg images"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="construct and export a CFG")
    p.add_argument("image")
    p.add_argument("--threads", type=_thread_count, default=_default_threads())
    p.add_argument("--format", choices=("dot", "json", "canon"), default="canon")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="check a CFG against ground truth")
    p.add_argument("image")
    p.add_argument("--truth", required=True)
    p.add_argument("--threads", type=_thread_count, default=_default_threads())

    p = sub.add_parser("bench", help="time construction across thread counts")
    p.add_argument("image")
    p.add_argument("--threads", type=_thread_counts, default="1")
    p.add_argument("--repeat", type=int, default=3)

    p = sub.add_parser("gen", help="generate a scenario image plus ground truth")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    for name in PARAMETERS:
        p.add_argument(f"--{name.replace('_', '-')}", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "analyze":
        return cmd_analyze(args.image, args.threads, args.format, args.out)
    if args.command == "verify":
        return cmd_verify(args.image, args.truth, args.threads)
    if args.command == "bench":
        if not args.threads or args.repeat < 1:
            print("error: need at least one thread count and repeat >= 1", file=sys.stderr)
            return 2
        return cmd_bench(args.image, args.threads, args.repeat)
    if args.command == "gen":
        params = {
            name: getattr(args, name)
            for name in PARAMETERS
            if getattr(args, name) is not None
        }
        return cmd_gen(args.family, args.seed, args.out, params)
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
