"""Baseline systems the paper compares against."""

from .cortex import SUPPORTED_MODELS as CORTEX_SUPPORTED_MODELS
from .cortex import CortexModel
from .dynet import (
    DYNET_SCHEMES,
    DyNetImprovements,
    DyNetModel,
    DyNetScheduler,
    compile_dynet,
    dynet_compiler_options,
)
from .eager import compile_eager

__all__ = [
    "CortexModel",
    "CORTEX_SUPPORTED_MODELS",
    "DyNetModel",
    "DyNetScheduler",
    "DyNetImprovements",
    "compile_dynet",
    "dynet_compiler_options",
    "DYNET_SCHEMES",
    "compile_eager",
]
