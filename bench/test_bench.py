"""Self-tests of the benchmark; run with `python3 -m pytest bench`.

They shrink the workloads through the module constants in `workloads.py`
so that a full run, traced and untraced, takes seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_pcfg()

import tracing  # noqa: E402
import workloads  # noqa: E402
from pcfg import cfg, image, parallel, serial, workload  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "BIG_RANDOM_FUNCTIONS", 400)
    monkeypatch.setattr(workloads, "LONG_BLOCKS_FUNCTIONS", 16)
    monkeypatch.setattr(workloads, "CORPUS_BIG_RANDOM", (40, 80))
    monkeypatch.setattr(workloads, "PER_FAMILY", 2)


def _spec() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_long_blocks_truth_and_oracle():
    img, truth = workloads.build_long_blocks(12, seed=5)
    raw = image.pack_image(img)
    oracle_text = cfg.canonical_serialize(serial.serial_construct(image.load_image(raw)))
    for workers in (1, 2):
        graph, stats, registry = parallel.construct_details(image.load_image(raw), workers)
        assert workload.diff_truth(truth, workload.extract_facets(graph, registry)) == []
        assert cfg.canonical_serialize(graph) == oracle_text
        assert stats.splits_performed > 0
    assert all(size >= 2 for size in truth.jump_table_sizes.values())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_printed_metrics_are_declared(small, name, trace):
    result = run.run(name, seed=3, seconds=0, trace=trace)
    assert result["correct"], result["record"]["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}
    printed = {name: unit for name, (_, unit) in result["metrics"].items()}
    assert printed == declared
    if not trace:
        assert all(value > 0 for value, _ in result["metrics"].values())


def test_corrupted_output_raises_failed_ratio(small):
    def corrupt(text, workers):
        return text.replace("\nE ", "\nE  ", 1) if workers == 2 else text

    result = run.run("big-random", seed=3, seconds=0, trace=False, mutate=corrupt)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_corrupted_output_is_caught_by_the_oracle(small):
    # corrupting every engine result the same way leaves them all equal to
    # each other; only the oracle reference can tell
    result = run.run(
        "corpus-equivalence", seed=3, seconds=0, trace=False,
        mutate=lambda text, workers: text + "#",
    )
    assert result["failed"] == result["attempted"]


def test_missing_wrapped_name_reports_zero(small, monkeypatch):
    targets = tracing.TARGETS + (("pcfg.parallel", None, "gone", "symtab.seal", True),)
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.analyze(workloads.big_random(1, functions=50)[0].raw, 1)
    finally:
        tracer.uninstall()
    frame = tracer.collect()
    assert "pcfg.parallel.gone" in tracer.missing
    assert frame.calls["symtab.seal"] == 1  # the real seal, still wrapped
    assert not hasattr(parallel, "gone")
    assert frame.calls["parallel.construct"] == 1


def test_fails_without_sources():
    # a directory holding only BENCHMARK.json and the benchmark itself
    tmp_path = BENCH.parent / ".bench_out" / "without-sources"
    bench = tmp_path / "bench"
    bench.mkdir(parents=True, exist_ok=True)
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text((BENCH.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "big-random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
