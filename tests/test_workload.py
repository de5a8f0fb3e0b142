import hashlib
import json

import pytest

from pcfg import workload
from pcfg.cfg import canonical_serialize
from pcfg.errors import SpecOutOfBoundsError
from pcfg.image import load_image, pack_image
from pcfg.serial import serial_construct_details
from pcfg.workload import (
    GroundTruth,
    ScenarioSpec,
    coalesce_ranges,
    diff_truth,
    emit,
    extract_facets,
    generate,
    load_truth,
)

ALL_SPECS = [
    ScenarioSpec.make("shared-code"),
    ScenarioSpec.make("shared-code", sharers=9),
    ScenarioSpec.make("noreturn-chain"),
    ScenarioSpec.make("noreturn-chain", depth=6, early_ret=1),
    ScenarioSpec.make("noreturn-cycle"),
    ScenarioSpec.make("noreturn-cycle", k=1),
    ScenarioSpec.make("tailcall-ambiguous"),
    ScenarioSpec.make("jump-table"),
    ScenarioSpec.make("jump-table", entries=7),
    ScenarioSpec.make("jump-table-overapprox"),
    ScenarioSpec.make("jump-table-overapprox", extra=1),
    ScenarioSpec.make("multi-entry"),
    ScenarioSpec.make("outlined-cold"),
    ScenarioSpec.make("opaque-jump"),
    ScenarioSpec.make("big-random", functions=50),
]


def _pinned_specs() -> list[ScenarioSpec]:
    """Every family at seeds 0-3, at its defaults and at each parameter's
    bounds (big-random's upper bound is too large to generate here), and
    the benchmark's 20,000-function big-random at seeds 1 and 23."""
    specs = []
    for family, (_, schema) in workload._SIMPLE_FAMILIES.items():
        for seed in range(4):
            specs.append(ScenarioSpec.make(family, seed))
            for name, (_, lo, hi) in schema.items():
                specs += [ScenarioSpec.make(family, seed, **{name: v}) for v in (lo, hi)]
    for seed in range(4):
        specs += [ScenarioSpec.make("big-random", seed), ScenarioSpec.make("big-random", seed, functions=1)]
    specs += [ScenarioSpec.make("big-random", seed, functions=20000) for seed in (1, 23)]
    return specs


def test_generated_inputs_are_pinned():
    # the benchmark's inputs come from this generator: a change to any
    # image or its ground truth changes what every earlier measurement
    # meant, so it must be deliberate
    specs = _pinned_specs()
    digest = hashlib.sha256()
    for spec in specs:
        img, truth = generate(spec)
        digest.update(pack_image(img))
        digest.update(json.dumps(truth.to_json_dict(), sort_keys=True).encode())
    assert len(specs) == 94
    assert digest.hexdigest() == "549042ae6cb84580db903bb819740e1f97101f9b95bc19d9154118558a644f79"


def test_coalesce_ranges():
    assert coalesce_ranges([(4, 8), (8, 12), (20, 24)]) == [(4, 12), (20, 24)]
    assert coalesce_ranges([(8, 12), (4, 9)]) == [(4, 12)]
    assert coalesce_ranges([]) == []


def test_generation_is_deterministic():
    for spec in ALL_SPECS:
        img1, t1 = generate(spec)
        img2, t2 = generate(spec)
        assert pack_image(img1) == pack_image(img2)
        assert t1 == t2


def test_different_seeds_differ():
    a, _ = generate(ScenarioSpec.make("big-random", seed=1, functions=30))
    b, _ = generate(ScenarioSpec.make("big-random", seed=2, functions=30))
    assert pack_image(a) != pack_image(b)


def test_emit_round_trip(tmp_path):
    spec = ScenarioSpec.make("big-random", seed=7, functions=1000)
    img, truth = generate(spec)
    image_path, truth_path = emit(img, truth, tmp_path / "w")
    assert load_image(image_path.read_bytes()) == img
    assert load_truth(truth_path) == truth
    # emitted twice -> identical files
    img2, truth2 = generate(spec)
    emit(img2, truth2, tmp_path / "w2")
    assert (tmp_path / "w" / "image.pcfg").read_bytes() == (
        tmp_path / "w2" / "image.pcfg"
    ).read_bytes()
    assert (tmp_path / "w" / "truth.json").read_text() == (
        tmp_path / "w2" / "truth.json"
    ).read_text()


def test_truth_json_schema(tmp_path):
    img, truth = generate(ScenarioSpec.make("jump-table", seed=2, entries=3))
    _, truth_path = emit(img, truth, tmp_path)
    doc = json.loads(truth_path.read_text())
    assert set(doc) == {"functions", "jump_tables", "noreturn_calls", "tail_calls"}
    for f in doc["functions"]:
        assert f["entry"].startswith("0x")
        for lo, hi in f["ranges"]:
            assert lo.startswith("0x") and hi.startswith("0x")
    for t in doc["jump_tables"]:
        assert t["base"].startswith("0x") and t["size"] >= 1


def test_parameter_bounds_enforced():
    with pytest.raises(SpecOutOfBoundsError):
        generate(ScenarioSpec.make("noreturn-chain", depth=65))
    with pytest.raises(SpecOutOfBoundsError):
        generate(ScenarioSpec.make("big-random", functions=100001))
    with pytest.raises(SpecOutOfBoundsError):
        generate(ScenarioSpec.make("jump-table", entries=0))
    with pytest.raises(SpecOutOfBoundsError):
        generate(ScenarioSpec.make("shared-code", bogus=1))
    with pytest.raises(SpecOutOfBoundsError):
        generate(ScenarioSpec.make("no-such-family"))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.family}{dict(s.params)}")
def test_truth_soundness_serial_matches_ground_truth(spec):
    for seed in (0, 1, 2):
        img, truth = generate(
            ScenarioSpec(spec.family, seed, spec.params)
        )
        cfg, registry = serial_construct_details(img)
        assert diff_truth(truth, extract_facets(cfg, registry)) == []


def test_diff_truth_reports_each_facet():
    img, truth = generate(ScenarioSpec.make("jump-table-overapprox", seed=1))
    cfg, registry = serial_construct_details(img)
    good = extract_facets(cfg, registry)
    assert diff_truth(truth, good) == []
    base = next(iter(truth.jump_table_sizes))
    perturbed = GroundTruth(
        dict(truth.function_ranges),
        dict(truth.jump_table_sizes),
        set(truth.noreturn_call_sites),
        set(truth.tailcall_edges),
    )
    perturbed.jump_table_sizes[base] += 1
    diffs = diff_truth(perturbed, good)
    assert any(f"0x{base:x}" in d for d in diffs)


def test_big_random_composes_constructs():
    img, truth = generate(ScenarioSpec.make("big-random", seed=13, functions=150))
    assert len(img.func_symbols()) == 150
    assert truth.jump_table_sizes  # at least one table unit landed
    assert truth.noreturn_call_sites
    cfg, registry = serial_construct_details(img)
    assert diff_truth(truth, extract_facets(cfg, registry)) == []
    assert canonical_serialize(cfg)
