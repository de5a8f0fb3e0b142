"""The library takes no settings from the environment and ships one
scan kernel, in Python source only."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pcfg"


def test_library_reads_no_environment():
    readers = [
        str(p.relative_to(SRC))
        for p in sorted(SRC.rglob("*.py"))
        if "os.environ" in p.read_text() or "getenv" in p.read_text()
    ]
    assert readers == []


def test_no_native_or_generated_sources():
    found = [
        str(p.relative_to(SRC))
        for p in sorted(SRC.rglob("*"))
        if p.suffix in (".c", ".pyx", ".so")
    ]
    assert found == []
