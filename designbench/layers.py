"""Per-layer metric names and the benchmark-side span hooks.

The traced run records spans around calls into the program's public
layer functions.  The hooks here swap a module attribute (or a backend
instance's method) for a recording wrapper and put it back afterwards;
nothing inside the program changes, and the untraced runs never install
them.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, List, Tuple

BACKENDS = ("arrays", "dd", "tn", "mps", "stab")
TASK_METHODS = ("statevector", "sample", "expectation", "amplitude")
VERIFY_METHODS = ("auto", "stab", "zx", "dd", "tn", "arrays")
COMPILE_PASSES = {
    "RemoveIdentities": "remove_identities",
    "CancelInverses": "cancel_inverses",
    "MergeRotations": "merge_rotations",
    "CommutativeCancellation": "commutative_cancellation",
    "ZXOptimize": "zx_optimize",
    "DecomposeToBasis": "decompose_to_basis",
    "ChooseLayout": "choose_layout",
    "Route": "route",
    "Collapse1qRuns": "collapse_1q_runs",
    "Resynth2qBlocks": "resynth_2q_blocks",
}

# (name, unit, better) of every per-layer metric, grouped by the
# workload that exercises the layer.  The traced run of every workload
# reports all of them: its own group from its own operations, the other
# groups from a small fixed probe of that layer.
SIM_LAYERS: List[Tuple[str, str, str]] = [
    ("core.analyze_ms", "ms", "lower"),
    ("core.dispatch_overhead_ms", "ms", "lower"),
    ("core.auto_regret", "ratio", "lower"),
    ("compile.fuse_ms", "ms", "lower"),
    *[(f"{b}.kernel_ms", "ms", "lower") for b in BACKENDS],
    ("dd.peak_nodes", "count", "lower"),
    ("mps.max_bond", "count", "lower"),
    ("arrays.trajectories_ms", "ms", "lower"),
    ("dd.trajectories_ms", "ms", "lower"),
    ("parallel.sweep_ms", "ms", "lower"),
    ("parallel.sweep_serial_ms", "ms", "lower"),
    ("parallel.shm_bytes", "bytes", "lower"),
]
FLOW_LAYERS: List[Tuple[str, str, str]] = [
    ("compile.l1_ms", "ms", "lower"),
    ("compile.l2_ms", "ms", "lower"),
    ("compile.l3_ms", "ms", "lower"),
    ("compile.route_ms", "ms", "lower"),
    *[(f"compile.pass.{p}_ms", "ms", "lower") for p in COMPILE_PASSES.values()],
    ("compile.twoq.l1", "count", "lower"),
    ("compile.twoq.l2", "count", "lower"),
    ("compile.twoq.l3", "count", "lower"),
    ("compile.swaps", "count", "lower"),
    *[(f"verify.{m}_ms", "ms", "lower") for m in VERIFY_METHODS],
    ("verify.auto_regret", "ratio", "lower"),
    ("verify.zx_conclusive_ratio", "ratio", "higher"),
]
SERVE_LAYERS: List[Tuple[str, str, str]] = [
    ("service.warm_ms", "ms", "lower"),
    ("service.cold_ms", "ms", "lower"),
    ("service.overhead_ms", "ms", "lower"),
    ("cache.key_ms", "ms", "lower"),
    ("cache.keys_per_request", "count", "lower"),
    ("cache.get_ms", "ms", "lower"),
    ("cache.put_ms", "ms", "lower"),
    ("cache.warm_hit_ratio", "ratio", "higher"),
    ("cluster.overhead_ms", "ms", "lower"),
    ("cluster.connect_ms", "ms", "lower"),
    ("wire.codec_ms", "ms", "lower"),
    ("cluster.affinity_ratio", "ratio", "higher"),
]
PER_LAYER = SIM_LAYERS + FLOW_LAYERS + SERVE_LAYERS


@contextlib.contextmanager
def patched(patches: List[Tuple[object, str, Callable]]) -> Iterator[None]:
    """Temporarily set ``owner.attr = wrapper(original)`` for each patch."""
    saved = []
    try:
        for owner, attr, make in patches:
            original = getattr(owner, attr)
            saved.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original, own in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def core_hooks(tracer, repro) -> List[Tuple[object, str, Callable]]:
    """Spans for routing, fusion and every backend task method."""
    from repro.compile import fusion
    from repro.core import backend as core_backend

    hooks = [
        (core_backend, "choose_backend",
         lambda fn: tracer.wrap("core.analyze", fn)),
        (fusion, "fuse_gates", lambda fn: tracer.wrap("compile.fusion", fn)),
    ]
    for name in BACKENDS:
        impl = repro.core.REGISTRY.get(name)
        for method in TASK_METHODS:
            hooks.append(
                (impl, method,
                 lambda fn, name=name: tracer.wrap(f"{name}.kernel", fn))
            )
    return hooks
