"""Layer tracing from outside the library.

`Tracer.install` rebinds, for the duration of one traced analysis, the
names one pcfg module looks up to call into another (a module global such
as `pcfg.parallel.scan_block`, or a method on a class) to a wrapper that
counts calls and times them. No file under `src/` changes. A name that no
longer exists is skipped, so its layer reports zero calls.

Each thread accumulates into its own record; `collect` merges them once
the analysis has returned and its worker threads have been joined. Wrapped
calls nest: a wrapper charges its duration to the enclosing wrapped call
on the same thread, which gives every layer a self time. Coarse layers
also record spans (request, id, parent, name, thread, start, end), kept in
memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field

#: What to wrap: (module, class or None, attribute, layer, records spans).
TARGETS = (
    ("pcfg.image", None, "load_image", "image.load", True),
    ("pcfg.image", None, "decode_at", "isa.decode", False),
    ("pcfg.parallel", None, "decode_at", "isa.decode", False),
    ("pcfg.jumptables", None, "decode_at", "isa.decode", False),
    ("pcfg.serial", None, "decode_at", "isa.decode", False),
    ("pcfg.parallel", None, "scan_block", "kernels.scan", False),
    ("pcfg.serial", None, "scan_block", "kernels.scan", False),
    ("pcfg.parallel", None, "last_bound_hint", "jumptables.hint_walk", False),
    ("pcfg.serial", None, "last_bound_hint", "jumptables.hint_walk", False),
    ("pcfg.parallel", "ConcurrentCfgState", "refresh_descriptor", "jumptables.refresh", False),
    ("pcfg.symtab", "IndexedSymbols", "insert", "symtab.insert", False),
    ("pcfg.symtab", "IndexedSymbols", "seal", "symtab.seal", True),
    ("pcfg.parallel", None, "construct_details", "parallel.construct", True),
    ("pcfg.parallel", "ConcurrentCfgState", "traverse_function", "parallel.traverse", True),
    ("pcfg.parallel", "ConcurrentCfgState", "resolve_status_cycles", "parallel.status_cycles", True),
    ("pcfg.parallel", "ConcurrentCfgState", "export_cfg", "parallel.export", True),
    ("pcfg.parallel", None, "finalize_details", "finalize.total", True),
    ("pcfg.finalize", None, "finalize_details", "finalize.total", True),
    ("pcfg.finalize", None, "assign_function_boundaries", "finalize.boundaries", True),
    ("pcfg.finalize", None, "correct_tail_calls", "finalize.tailcalls", True),
    ("pcfg.finalize", None, "validate", "cfg.validate", True),
    ("pcfg.cfg", None, "validate", "cfg.validate", True),
    ("pcfg.cfg", None, "canonical_serialize", "cfg.serialize", True),
    ("pcfg.serial", None, "serial_construct", "serial.construct", True),
    ("pcfg.serial", None, "op_ber", "serial.op", False),
    ("pcfg.serial", None, "op_dec", "serial.op", False),
    ("pcfg.serial", None, "op_cfec", "serial.op", False),
    ("pcfg.serial", None, "op_iec", "serial.op", False),
    ("pcfg.serial", None, "op_fei", "serial.op", False),
    ("pcfg.serial", None, "op_er", "serial.op", False),
)

#: Counted but not timed, so they do not enter the self-time accounting.
COUNTED = (("pcfg.cfg", "Cfg", "clone", "cfg.clone"),)

#: Spans that worker threads' outermost spans are attributed to.
ROOTS = frozenset({"parallel.construct", "serial.construct"})

LAYERS = sorted({t[3] for t in TARGETS} | {c[3] for c in COUNTED})


def _scan_bytes(args, result) -> int:
    # scan_block(text, text_base, addr) -> (end, kind, a, b)
    return result[0] - args[2]


def _refresh_added(args, result) -> int:
    return 1 if result else 0


#: Per-layer extra quantity folded from each call's arguments and result.
EXTRA = {"kernels.scan": _scan_bytes, "jumptables.refresh": _refresh_added}


class _ThreadRecord:
    __slots__ = ("calls", "total", "self_", "extra", "stack", "spans", "thread")

    def __init__(self, thread: int):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.total = dict.fromkeys(LAYERS, 0.0)
        self.self_ = dict.fromkeys(LAYERS, 0.0)
        self.extra = dict.fromkeys(LAYERS, 0)
        self.stack: list[list] = []  # [child seconds, span id] per open call
        self.spans: list[tuple] = []
        self.thread = thread


@dataclass
class Frame:
    """Merged counters of one or more traced analyses."""

    calls: dict = field(default_factory=lambda: dict.fromkeys(LAYERS, 0))
    total: dict = field(default_factory=lambda: dict.fromkeys(LAYERS, 0.0))
    self_: dict = field(default_factory=lambda: dict.fromkeys(LAYERS, 0.0))
    extra: dict = field(default_factory=lambda: dict.fromkeys(LAYERS, 0))
    gc_collections: int = 0
    gc_pause_s: float = 0.0

    def add(self, other) -> None:
        """Fold in a thread record or another frame."""
        for layer in LAYERS:
            self.calls[layer] += other.calls[layer]
            self.total[layer] += other.total[layer]
            self.self_[layer] += other.self_[layer]
            self.extra[layer] += other.extra[layer]


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: dict[int, _ThreadRecord] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self._request = 0
        self._root: int | None = None
        self._gc_start = 0.0
        self._gc_count = 0
        self._gc_pause = 0.0
        self.spans: list[tuple] = []
        self.missing: set[str] = set()

    # -- per-thread records ------------------------------------------------

    def _record(self) -> _ThreadRecord:
        ident = threading.get_ident()
        rec = self._records.get(ident)
        if rec is None:
            with self._lock:
                rec = self._records.setdefault(ident, _ThreadRecord(len(self._records)))
        return rec

    # -- wrappers --------------------------------------------------------------

    def _timed(self, fn, layer: str, span: bool):
        records = self._records
        new = self._record
        ident = threading.get_ident
        clock = time.perf_counter
        ids = self._ids
        extra = EXTRA.get(layer)
        is_root = layer in ROOTS
        tracer = self

        def traced(*args, **kwargs):
            rec = records.get(ident()) or new()
            stack = rec.stack
            if span:
                parent = stack[-1][1] if stack else tracer._root
                sid = next(ids)
                if is_root:
                    tracer._root = sid
            else:
                sid = stack[-1][1] if stack else None
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                rec.calls[layer] += 1
                rec.total[layer] += d
                rec.self_[layer] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if span:
                    rec.spans.append((tracer._request, sid, parent, layer, rec.thread, t0, t1))
                if is_root:
                    tracer._root = None
            if extra is not None:
                rec.extra[layer] += extra(args, result)
            return result

        return traced

    def _counted(self, fn, layer: str):
        records = self._records
        new = self._record
        ident = threading.get_ident

        def counted(*args, **kwargs):
            (records.get(ident()) or new()).calls[layer] += 1
            return fn(*args, **kwargs)

        return counted

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self._gc_count += 1
            self._gc_pause += time.perf_counter() - self._gc_start

    # -- install / collect ---------------------------------------------------

    def _owner(self, module: str, cls: str | None):
        owner = importlib.import_module(module)
        return getattr(owner, cls, None) if cls else owner

    def install(self) -> None:
        """Start one traced analysis: rebind every target that exists."""
        assert not self._saved, "tracer already installed"
        self._request += 1
        self._root = None
        plan = [(m, c, a, self._timed, (layer, span)) for m, c, a, layer, span in TARGETS]
        plan += [(m, c, a, self._counted, (layer,)) for m, c, a, layer in COUNTED]
        for module, cls, attr, make, wrap_args in plan:
            owner = self._owner(module, cls)
            where = owner.__dict__ if owner is not None else {}
            fn = where.get(attr)
            if fn is None:
                self.missing.add(f"{module}.{cls + '.' if cls else ''}{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, make(fn, *wrap_args))
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc_callback)
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def collect(self) -> Frame:
        """Merge and reset the per-thread records of the last analysis.
        Call only after the analysis returned and its workers were joined."""
        with self._lock:
            records = list(self._records.values())
            self._records.clear()
        frame = Frame(gc_collections=self._gc_count, gc_pause_s=self._gc_pause)
        self._gc_count = 0
        self._gc_pause = 0.0
        for rec in records:
            frame.add(rec)
            self.spans.extend(rec.spans)
        return frame


def sum_frames(frames: list[Frame]) -> Frame:
    out = Frame()
    for f in frames:
        out.add(f)
        out.gc_collections += f.gc_collections
        out.gc_pause_s += f.gc_pause_s
    return out
