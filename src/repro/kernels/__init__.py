"""Tensor-kernel layer: operator registry, static blocks, fusion, batched
kernel generation and auto-scheduling."""

from .batched import BatchedOperand, BatchedOutput, BlockKernel, LaunchRecord
from .block import (
    ArgRef,
    BlockInput,
    BlockOp,
    StaticBlock,
    const_ref,
    input_ref,
    op_ref,
    single_op_block,
)
from .fusion import KernelGroup, fuse_block, fused_kernel_name
from .registry import OpDef, all_ops, get_op, has_op, register

__all__ = [
    "OpDef",
    "register",
    "get_op",
    "has_op",
    "all_ops",
    "StaticBlock",
    "BlockInput",
    "BlockOp",
    "ArgRef",
    "input_ref",
    "op_ref",
    "const_ref",
    "single_op_block",
    "KernelGroup",
    "fuse_block",
    "fused_kernel_name",
    "BlockKernel",
    "BatchedOperand",
    "BatchedOutput",
    "LaunchRecord",
]
