"""The library takes no settings from the environment and no setting but
the worker count, ships one scan kernel, in Python source only, decodes
byte ranges only through that kernel, keeps the serial oracle
independent of the engine it checks, and keeps no engine stat that
nothing reads."""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

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
    # `decode_at` decodes one instruction for `image.decode`; every walk
    # over a byte range is a `scan_block` call
    users = [
        str(p.relative_to(SRC))
        for p in sorted(SRC.rglob("*.py"))
        if "decode_at" in p.read_text()
    ]
    assert users == ["image.py", "isa.py"]
    tree = ast.parse((SRC / "_kernels" / "__init__.py").read_text())
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert defined == {"scan_block"}


def test_every_engine_stat_is_read():
    readers = [SRC / "cli.py", ROOT / "bench" / "run.py"]
    readers += [p for p in sorted(ROOT.glob("tests/test_*.py")) if p.name != Path(__file__).name]
    text = "\n".join(p.read_text() for p in readers)
    unread = [
        f.name for f in dataclasses.fields(EngineStats) if not re.search(rf"\b{f.name}\b", text)
    ]
    assert unread == []
