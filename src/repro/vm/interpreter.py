"""Relay-VM-style interpreter and eager reference executor.

Two execution modes over the same tree-walking evaluator:

* ``eager``  — every tensor operator executes immediately with NumPy,
  unbatched.  This is the *ground truth* used by the test-suite to check all
  other backends, and it doubles as the "no auto-batching" eager baseline.
* ``lazy``   — tensor operators are recorded as single-operator DFG nodes in
  an :class:`~repro.runtime.executor.AcrobatRuntime` (depths are recomputed
  dynamically by the runtime), which models executing the unbatched program
  on the Relay VM with dynamic batching but *without* AOT compilation.  The
  interpretation overhead per IR node is what Table 4 measures against the
  AOT-compiled program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..engine.engine import EngineModel, ExecutionEngine, ProgramBinding
from ..ir.adt import ADTValue, bind, matches
from ..ir.expr import (
    Call,
    Constant,
    ConstructorRef,
    Expr,
    Function,
    GlobalVar,
    If,
    Let,
    Match,
    OpRef,
    TupleExpr,
    TupleGetItem,
    Var,
)
from ..ir.module import IRModule
from ..kernels.batched import BlockKernel
from ..kernels.block import single_op_block
from ..kernels.registry import get_op
from ..runtime.device import GPUSpec
from ..runtime.executor import AcrobatRuntime, ExecutionOptions
from ..runtime.fibers import FiberScheduler
from ..runtime.tensor import LazyTensor, materialize_value
from ..utils import ensure_recursion_limit


class _Closure:
    """A function value paired with its defining environment."""

    __slots__ = ("func", "env")

    def __init__(self, func: Function, env: Dict[int, Any]) -> None:
        self.func = func
        self.env = env


class Interpreter:
    """Environment-passing evaluator for the IR."""

    def __init__(
        self,
        module: IRModule,
        mode: str = "eager",
        runtime: Optional[AcrobatRuntime] = None,
    ) -> None:
        if mode not in ("eager", "lazy"):
            raise ValueError("mode must be 'eager' or 'lazy'")
        self.module = module
        self.mode = mode
        self.runtime = runtime
        #: lazily created single-operator blocks, keyed by operator signature
        self._op_blocks: Dict[Tuple, int] = {}
        # deep recursion support: raised once at construction, never lowering
        # a limit the user already raised (the engine does the same for the
        # compiled path)
        ensure_recursion_limit()

    # -- public ------------------------------------------------------------------
    def run_main(self, args: Sequence[Any]) -> Any:
        main = self.module.main
        env = {id(p): a for p, a in zip(main.params, args)}
        return self._eval(main.body, env)

    # -- evaluation -----------------------------------------------------------------
    def _eval(self, expr: Expr, env: Dict[int, Any]) -> Any:
        if isinstance(expr, Var):
            try:
                return env[id(expr)]
            except KeyError:
                raise KeyError(f"interpreter: unbound variable {expr!r}") from None
        if isinstance(expr, Constant):
            return expr.value
        if isinstance(expr, GlobalVar):
            return _Closure(self.module.functions[expr.name], {})
        if isinstance(expr, Function):
            return _Closure(expr, dict(env))
        if isinstance(expr, Let):
            value = self._eval(expr.value, env)
            env = dict(env)
            env[id(expr.var)] = value
            return self._eval(expr.body, env)
        if isinstance(expr, If):
            cond = self._eval(expr.cond, env)
            return self._eval(expr.then_branch if cond else expr.else_branch, env)
        if isinstance(expr, Match):
            data = self._eval(expr.data, env)
            for clause in expr.clauses:
                if matches(clause.pattern, data):
                    cenv = dict(env)
                    bind(clause.pattern, data, cenv)
                    return self._eval(clause.body, cenv)
            raise RuntimeError("match failure")
        if isinstance(expr, TupleExpr):
            return tuple(self._eval(f, env) for f in expr.fields)
        if isinstance(expr, TupleGetItem):
            return self._eval(expr.tup, env)[expr.index]
        if isinstance(expr, Call):
            return self._eval_call(expr, env)
        raise TypeError(f"interpreter: cannot evaluate {type(expr).__name__}")

    def _eval_call(self, call: Call, env: Dict[int, Any]) -> Any:
        op = call.op
        args = [self._eval(a, env) for a in call.args]
        if isinstance(op, OpRef):
            return self._apply_op(op.name, args, call.attrs)
        if isinstance(op, ConstructorRef):
            return ADTValue(op.constructor, args)
        if isinstance(op, GlobalVar):
            func = self.module.functions[op.name]
            return self._apply_closure(_Closure(func, {}), args)
        closure = self._eval(op, env)
        return self._apply_closure(closure, args)

    def _apply_closure(self, closure: Any, args: List[Any]) -> Any:
        if not isinstance(closure, _Closure):
            raise TypeError(f"interpreter: calling non-function value {closure!r}")
        func = closure.func
        env = dict(closure.env)
        for p, a in zip(func.params, args):
            env[id(p)] = a
        return self._eval(func.body, env)

    # -- operators ---------------------------------------------------------------------
    def _apply_op(self, name: str, args: List[Any], attrs: Dict[str, Any]) -> Any:
        opdef = get_op(name)
        if opdef.kind == "host":
            return opdef.compute(*args, **attrs)
        if opdef.kind == "sync":
            if self.mode == "lazy":
                self.runtime.trigger()
                value = self.runtime.read(args[0])
            else:
                value = np.asarray(args[0])
            return opdef.compute(value, **attrs)
        # a Python float is a float32 scalar (``Constant``'s typing, and what
        # compiled blocks embed): as a 0-d float64 array it would promote the
        # whole op — and everything downstream — to float64
        args = [np.float32(a) if isinstance(a, float) else a for a in args]
        if self.mode == "eager":
            concrete = [np.asarray(a) for a in args]
            return np.asarray(opdef.compute(*concrete, **attrs))
        return self._invoke_lazy(name, args, attrs)

    def _invoke_lazy(self, name: str, args: List[Any], attrs: Dict[str, Any]) -> Any:
        opdef = get_op(name)
        arg_shapes = []
        for a in args:
            if isinstance(a, LazyTensor):
                arg_shapes.append(a.inferred_shape)
            else:
                arg_shapes.append(tuple(np.asarray(a).shape))
        key = (
            name,
            len(args),
            tuple(arg_shapes),
            tuple(sorted((k, str(v)) for k, v in attrs.items())),
        )
        if key not in self._op_blocks:
            block = single_op_block(
                block_id=len(self.runtime.kernels),
                op_name=name,
                num_inputs=len(args),
                attrs=attrs,
                name=f"vm_{name}",
            )
            kernel = BlockKernel(block, enable_fusion=False, enable_horizontal_fusion=False)
            self.runtime.kernels[block.block_id] = kernel
            self._op_blocks[key] = block.block_id
        result = self.runtime.invoke(self._op_blocks[key], 0, 0, args)
        if isinstance(result, LazyTensor) and all(s is not None for s in arg_shapes):
            try:
                result.inferred_shape = tuple(opdef.infer_shape(list(arg_shapes), attrs))
            except Exception:
                result.inferred_shape = None
        return result


class VMProgramBinding(ProgramBinding):
    """Engine adapter interpreting the unbatched program per instance."""

    uses_fibers = False

    def __init__(self, model: "VMModel") -> None:
        self.model = model

    def bind(
        self, runtime: AcrobatRuntime, fibers: Optional[FiberScheduler]
    ) -> Callable[[Any], Any]:
        interp = Interpreter(self.model.module, mode="lazy", runtime=runtime)
        binder = self.model.instance_binder

        return lambda instance: interp.run_main(binder(instance))


@dataclass
class VMModel(EngineModel):
    """Relay-VM-style execution of a model (Table 4 baseline).

    Mirrors the :class:`~repro.compiler.driver.CompiledModel` interface so the
    experiment harness can swap backends; execution goes through the shared
    :class:`~repro.engine.engine.ExecutionEngine`.
    """

    module: IRModule
    params: Dict[str, np.ndarray]
    gpu_spec: Optional[GPUSpec] = None
    gather_fusion: bool = True
    #: when False, every operator executes as its own batch of one (eager,
    #: no-auto-batching execution — the PyTorch baseline of Fig. 5)
    batching: bool = True

    def make_engine(
        self,
        device: Any = None,
        scheduler: Optional[str] = None,
        *,
        placement: Any = None,
    ) -> ExecutionEngine:
        """Engine interpreting the program with runtime-only batching.

        Kernels start empty: the interpreter creates single-operator blocks
        on demand and installs them into the engine's runtime.
        ``device``/``placement`` shard execution over a device group
        exactly as :meth:`CompiledModel.make_engine` does.
        """
        return ExecutionEngine(
            program=VMProgramBinding(self),
            kernels={},
            options=ExecutionOptions(
                gather_fusion=self.gather_fusion,
                scheduler=scheduler
                or ("dynamic_depth" if self.batching else "nobatch"),
            ),
            device=device,
            gpu_spec=self.gpu_spec,
            placement=placement,
        )


def run_reference(
    module: IRModule,
    params: Mapping[str, np.ndarray],
    instances: Sequence[Any],
) -> List[Any]:
    """Ground-truth unbatched eager execution (used for correctness checks)."""
    vm = VMModel(module=module, params={k: np.asarray(v) for k, v in params.items()})
    interp = Interpreter(module, mode="eager")
    outputs = []
    for instance in instances:
        outputs.append(materialize_value(interp.run_main(vm._instance_args(instance))))
    return outputs
