"""Parallel control-flow-graph reconstruction over a compact binary
image format, with a single-threaded reference constructor, a scenario
generator with exact ground truth, and a CLI."""

from .cfg import (
    Block,
    Cfg,
    Edge,
    EdgeKind,
    FunctionEntry,
    ReturnStatus,
    canonical_serialize,
    partial_order_le,
    validate,
)
from .image import Image, SymbolKind, load_image, pack_image
from .isa import Instruction, Opcode, encode
from .parallel import ConcurrentCfgState, construct, construct_details
from .serial import (
    op_ber,
    op_cfec,
    op_dec,
    op_er,
    op_fei,
    op_iec,
    serial_construct,
)
from .workload import GroundTruth, ScenarioSpec, generate

__all__ = [
    "Block",
    "Cfg",
    "ConcurrentCfgState",
    "Edge",
    "EdgeKind",
    "FunctionEntry",
    "GroundTruth",
    "Image",
    "Instruction",
    "Opcode",
    "ReturnStatus",
    "ScenarioSpec",
    "SymbolKind",
    "canonical_serialize",
    "construct",
    "construct_details",
    "encode",
    "generate",
    "load_image",
    "op_ber",
    "op_cfec",
    "op_dec",
    "op_er",
    "op_fei",
    "op_iec",
    "pack_image",
    "partial_order_le",
    "serial_construct",
    "validate",
]
