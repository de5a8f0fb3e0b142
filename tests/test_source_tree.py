"""The library takes no settings from the environment and no setting but
the worker count, ships one scan kernel, in Python source only, decodes
only through that kernel, reads jump tables only in `pcfg.jumptables`,
keeps the serial oracle independent of the engine it checks, keeps no
engine stat that nothing reads and no export that nothing uses, gives
no finalize step or serial operation an optional argument, and keeps
every engine name the benchmark's tracer wraps."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import pcfg
from pcfg import finalize, serial
from pcfg.parallel import ConcurrentCfgState, EngineStats, construct, construct_details

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pcfg"


def test_library_reads_no_environment():
    readers = [
        str(p.relative_to(SRC))
        for p in sorted(SRC.rglob("*.py"))
        if "os.environ" in p.read_text() or "getenv" in p.read_text()
    ]
    assert readers == []


@pytest.mark.parametrize("entry", [construct, construct_details, ConcurrentCfgState])
def test_worker_count_is_the_only_setting(entry):
    assert list(inspect.signature(entry).parameters) == ["image", "workers"]


def test_no_native_or_generated_sources():
    found = [
        str(p.relative_to(SRC))
        for p in sorted(SRC.rglob("*"))
        if p.suffix in (".c", ".pyx", ".so")
    ]
    assert found == []


def test_serial_oracle_imports_nothing_from_the_engine():
    tree = ast.parse((SRC / "serial.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "pcfg." + module if module else "pcfg"
            imported.append(module)
            imported += [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    engine = [m for m in imported if m == "pcfg.parallel" or m.startswith("pcfg.parallel.")]
    assert imported and engine == []


def test_scan_block_is_the_only_range_decoder():
    # the one-instruction `decode_at` is the tests' reference for the
    # kernel and lives in their conftest; the library decodes only
    # through `scan_block`
    users = [
        str(p.relative_to(SRC))
        for p in sorted(SRC.rglob("*.py"))
        if "decode_at" in p.read_text()
    ]
    assert users == []
    tree = ast.parse((SRC / "_kernels" / "__init__.py").read_text())
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert defined == {"scan_block"}


def test_jumptables_alone_reads_tables():
    # both constructors refresh tables through `refresh_table`, so the
    # refresh rule has one owner
    readers = [
        str(p.relative_to(SRC))
        for p in sorted(SRC.rglob("*.py"))
        if "read_table_entries" in p.read_text()
    ]
    assert readers == ["jumptables.py"]


#: exports kept for callers outside the library, the CLI and the
#: benchmark, whether or not those use them too
_EXPORTED_FOR_CALLERS = {
    # the documented entry point
    "construct",
    # the operations and the order that the operation-algebra laws are
    # stated in
    "op_ber",
    "op_cfec",
    "op_dec",
    "op_er",
    "op_fei",
    "op_iec",
    "partial_order_le",
}


def _names_used(path: Path) -> set[str]:
    # names, attributes, imported names and strings (the benchmark's
    # tracer names what it wraps in strings)
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_export_is_used():
    # a name in `pcfg.__all__` must be used outside the module that
    # defines it: by another library module, the CLI or the benchmark
    users = [p for p in sorted(SRC.rglob("*.py")) if p != SRC / "__init__.py"]
    users += sorted((ROOT / "bench").glob("*.py"))
    used = {p: _names_used(p) for p in users}
    unused = [
        name
        for name in pcfg.__all__
        if name not in _EXPORTED_FOR_CALLERS
        and not any(
            name in names
            for p, names in used.items()
            if p.with_suffix("").name != getattr(pcfg, name).__module__.rsplit(".", 1)[-1]
        )
    ]
    assert unused == []


def test_every_engine_stat_is_read():
    readers = [SRC / "cli.py", ROOT / "bench" / "run.py"]
    readers += [p for p in sorted(ROOT.glob("tests/test_*.py")) if p.name != Path(__file__).name]
    text = "\n".join(p.read_text() for p in readers)
    unread = [
        f.name for f in dataclasses.fields(EngineStats) if not re.search(rf"\b{f.name}\b", text)
    ]
    assert unread == []


def test_finalize_steps_take_no_parameter_defaults():
    # each finalize step takes exactly what `finalize_details` hands it,
    # and each serial operation's step what the oracle's driver hands it,
    # so no default path exists that only some callers take
    for module, anchor in ((finalize, "finalize_details"), (serial, "op_fei")):
        functions = []
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                functions += [f for f in vars(obj).values() if inspect.isfunction(f)]
            elif inspect.isfunction(obj):
                functions.append(obj)
        defaulted = [
            f.__qualname__
            for f in functions
            if any(p.default is not p.empty for p in inspect.signature(f).parameters.values())
        ]
        assert anchor in {f.__name__ for f in functions}
        assert defaulted == [], module.__name__


def test_benchmark_tracer_finds_its_engine_targets():
    # the tracer wraps names given as strings and skips a missing one, so
    # a renamed engine method would leave its probe reading zero;
    # `decode_at` left the library before this check existed
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    checked = []
    for module, cls, attr, *_ in targets:
        if module != "pcfg.parallel" or attr == "decode_at":
            continue
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        checked.append((cls, attr, owner is not None and attr in vars(owner)))
    assert {attr for _, attr, _ in checked} >= {"traverse_function", "refresh_descriptor"}
    assert [c for c in checked if not c[2]] == []
