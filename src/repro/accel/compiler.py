"""Compile a traced program for a target platform.

``compile_program`` runs the three checks every real toolchain in the
paper applies, in order:

1. **Operator support** — every traced op must be in the platform's
   PyTorch support matrix (:mod:`repro.accel.opsupport`); e.g. the SG
   compressor's ``gather``/``scatter`` only compile on the IPU.
2. **Matmul-unit limits** — GroqChip's MXM modules accept matrices up to
   320 per side; larger operands fail compilation.
3. **On-chip memory allocation** — per-compute-unit tile capacity (SN30
   PMUs) and whole-graph on-chip residence (GroqChip, IPU) are enforced,
   reproducing the paper's 512x512 and batch>1000 failures.

The returned :class:`CompiledProgram` executes the original function
numerically (real NumPy results) while reporting modelled device timing;
shapes are frozen, so feeding a different shape raises, exactly like the
real compilers' static-shape requirement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.accel.cost import ProgramCost, cost_of_graph
from repro.accel.graph import Graph, trace
from repro.accel.opsupport import supported_ops
from repro.accel.perf import TimingBreakdown, estimate_time
from repro.accel.registry import get_platform
from repro.accel.spec import AcceleratorSpec, MB
from repro.errors import (
    CompileError,
    IntegrityFault,
    OutOfMemoryError,
    ShapeError,
    UnsupportedOperatorError,
)
from repro.faults import corrupt_buffer, fire_fault
from repro.integrity import policy as _integrity
from repro.integrity.digest import plane_digest
from repro.obs.metrics import get_registry
from repro.tensor import Tensor, no_grad


@dataclass(frozen=True)
class PlanKey:
    """Stable identity of one compiled plan.

    Two :func:`compile_program` calls with identical (platform, input
    shapes, compressor configuration) produce equal, hashable keys, so
    callers — the serving plan cache, the degradation ladder — can
    memoize compiled programs instead of re-tracing.  The compressor
    fields (``method``/``cf``/``s``/``block``/``direction``) are supplied
    by callers that know them; ``name`` disambiguates auto-generated keys
    for arbitrary traced functions that share input shapes.
    """

    platform: str
    input_shapes: tuple[tuple[int, ...], ...]
    method: str = ""
    cf: int = 0
    s: int = 1
    block: int = 0
    direction: str = ""
    name: str = ""

    def __post_init__(self) -> None:
        # Normalize so list-of-lists callers hash/compare identically.
        object.__setattr__(
            self,
            "input_shapes",
            tuple(tuple(int(d) for d in shape) for shape in self.input_shapes),
        )

    @classmethod
    def for_compressor(
        cls,
        platform: str,
        input_shape: tuple[int, ...],
        *,
        method: str,
        cf: int,
        s: int,
        block: int,
        direction: str,
    ) -> "PlanKey":
        """Key for one compressor program at one example input shape."""
        return cls(
            platform=platform,
            input_shapes=(tuple(input_shape),),
            method=method,
            cf=cf,
            s=s,
            block=block,
            direction=direction,
        )

    def describe(self) -> str:
        shapes = "/".join("x".join(str(d) for d in s) for s in self.input_shapes)
        bits = [self.platform, shapes]
        if self.method:
            bits.append(f"{self.method} cf={self.cf}" + (f" s={self.s}" if self.method == "ps" else ""))
        if self.direction:
            bits.append(self.direction)
        if self.name:
            bits.append(self.name)
        return " ".join(bits)


def _check_operators(graph: Graph, spec: AcceleratorSpec) -> None:
    allowed = supported_ops(spec.name)
    for op in graph.op_names:
        if op not in allowed:
            raise UnsupportedOperatorError(
                f"operator {op!r} is not supported by the {spec.name} toolchain",
                platform=spec.name,
                reason=f"unsupported operator: {op}",
            )


def _check_matmul_unit(cost: ProgramCost, spec: AcceleratorSpec) -> None:
    limit = spec.memory.max_matmul_dim
    if limit is not None and cost.max_matmul_dim > limit:
        raise OutOfMemoryError(
            f"{spec.name}: matmul operand side {cost.max_matmul_dim} exceeds "
            f"the {limit}x{limit} matrix unit limit",
            platform=spec.name,
            reason="matmul unit limit",
        )


def _check_memory(cost: ProgramCost, spec: AcceleratorSpec) -> None:
    mem = spec.memory
    if mem.per_tile_tensor_bytes is not None and cost.max_compute_tile_bytes > mem.per_tile_tensor_bytes:
        raise OutOfMemoryError(
            f"{spec.name}: a {cost.max_compute_tile_bytes / MB:.2f} MB operand "
            f"tile exceeds the {mem.per_tile_tensor_bytes / MB:.2f} MB "
            "per-memory-unit capacity",
            platform=spec.name,
            reason="per-tile capacity",
        )
    onchip_required = cost.total_tensor_bytes + cost.n_samples * mem.per_sample_schedule_bytes
    if mem.graph_must_fit_onchip and onchip_required > mem.total_onchip_bytes:
        raise OutOfMemoryError(
            f"{spec.name}: program requires {onchip_required / MB:.1f} MB "
            f"on-chip but only {mem.total_onchip_bytes / MB:.0f} MB is available",
            platform=spec.name,
            reason="on-chip capacity",
        )
    if mem.offchip_bytes is not None and cost.total_tensor_bytes > mem.offchip_bytes:
        raise OutOfMemoryError(
            f"{spec.name}: program exceeds device memory",
            platform=spec.name,
            reason="device memory",
        )


@dataclass
class RunResult:
    """Output of one compiled-program invocation."""

    output: Tensor
    timing: TimingBreakdown
    wall_seconds: float  # host-side NumPy execution time (not the model)

    @property
    def device_seconds(self) -> float:
        """Modelled end-to-end time including host-device transfer."""
        return self.timing.total


@dataclass
class CompiledProgram:
    """A shape-frozen program bound to one accelerator."""

    fn: Callable[..., Tensor]
    graph: Graph
    cost: ProgramCost
    spec: AcceleratorSpec
    name: str = "program"
    key: PlanKey | None = None
    _runs: int = field(default=0, repr=False)
    # ``cost`` and ``spec`` are frozen, so the modelled timing is too.
    _timing: TimingBreakdown = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._timing = estimate_time(self.cost, self.spec)

    def run(self, *inputs) -> RunResult:
        """Execute numerically and report modelled timing.

        Input shapes must match the compile-time shapes — all four
        accelerator toolchains fix tensor sizes at compile time.
        """
        arrays = [x if isinstance(x, Tensor) else Tensor(np.asarray(x)) for x in inputs]
        if tuple(a.shape for a in arrays) != self.graph.input_shapes:
            raise ShapeError(
                f"{self.spec.name}: program compiled for input shapes "
                f"{self.graph.input_shapes}, got {tuple(a.shape for a in arrays)}"
            )
        fire_fault("run", platform=self.spec.name)
        start = time.perf_counter()
        with no_grad():
            out = self.fn(*arrays)
        out = self._guard_output(out)
        wall = time.perf_counter() - start
        self._runs += 1
        timing = self._timing
        reg = get_registry()
        reg.counter(
            "repro_program_runs_total", help="compiled-program executions, by platform"
        ).inc(platform=self.spec.name)
        reg.counter(
            "repro_device_modelled_seconds_total",
            help="modelled device seconds booked by program runs",
            unit="s",
        ).inc(timing.total, platform=self.spec.name)
        return RunResult(output=out, timing=timing, wall_seconds=wall)

    def _guard_output(self, out: Tensor) -> Tensor:
        """Device-output integrity boundary.

        The SDC hook may flip a bit in the finished output buffer here —
        the model for corruption on the device-to-host readback path.
        With the guard armed, a digest taken before the hook convicts the
        flip and raises :class:`~repro.errors.IntegrityFault` (a transient
        fault: the retry ladder recomputes).  With guards off the wrong
        bytes sail through, exactly like real silent corruption.
        """
        policy = _integrity._POLICY
        guard = policy is not None and policy.device_output
        arr = out.data
        pre = plane_digest(arr) if guard else None
        mangled = corrupt_buffer("device_output", arr, platform=self.spec.name)
        if mangled is arr:
            return out
        if guard and plane_digest(mangled) != pre:
            _integrity.note_detected("device_output", self.spec.name)
            raise IntegrityFault(
                f"device output digest mismatch on {self.spec.name}",
                platform=self.spec.name,
                site="device_output",
            )
        return Tensor(mangled)

    @property
    def runs(self) -> int:
        return self._runs

    def estimated_time(self) -> float:
        """Modelled seconds per run at the compiled shapes."""
        return self._timing.total


def compile_program(
    fn: Callable[..., Tensor],
    example_inputs,
    platform: str | AcceleratorSpec,
    *,
    name: str = "program",
    key: PlanKey | None = None,
) -> CompiledProgram:
    """Trace ``fn`` and compile it for ``platform``.

    Raises :class:`UnsupportedOperatorError` or :class:`OutOfMemoryError`
    when the platform's toolchain would reject the program.  The returned
    program carries a :class:`PlanKey` (the caller's ``key`` if given,
    otherwise one derived from platform + traced input shapes + ``name``)
    that memoizing callers can index on.
    """
    spec = platform if isinstance(platform, AcceleratorSpec) else get_platform(platform)
    compiles = get_registry().counter(
        "repro_compiles_total", help="toolchain compile attempts, by platform and status"
    )
    try:
        fire_fault("compile", platform=spec.name)
        if not isinstance(example_inputs, (list, tuple)):
            example_inputs = (example_inputs,)
        graph = trace(fn, *example_inputs)
        cost = cost_of_graph(graph)
        _check_operators(graph, spec)
        _check_matmul_unit(cost, spec)
        _check_memory(cost, spec)
    except CompileError:
        compiles.inc(platform=spec.name, status="rejected")
        raise
    compiles.inc(platform=spec.name, status="ok")
    if key is None:
        key = PlanKey(platform=spec.name, input_shapes=graph.input_shapes, name=name)
    return CompiledProgram(fn=fn, graph=graph, cost=cost, spec=spec, name=name, key=key)
