"""Backend registry: one name per simulation kernel.

The infrastructure's higher layers (flow, verification, RTG executor,
CLI, test suite) select a kernel by name rather than by class, so a
backend choice can travel through configuration, subprocess boundaries
and cache keys as a plain string.
"""

from __future__ import annotations

import functools

from .compiled import CompiledSimulator
from .kernel import Simulator
from .oblivious import ObliviousSimulator

__all__ = ["SIMULATOR_BACKENDS", "create_simulator"]

_fused = functools.partial(CompiledSimulator, fuse=True)

#: name -> simulator factory; "event" is the default everywhere.
#: ``traced`` and ``batched`` name one fused kernel (batching is how
#: :class:`~repro.sim.batched.LaneBatch` drives it, not a kernel kind)
SIMULATOR_BACKENDS = {
    "event": Simulator,
    "oblivious": ObliviousSimulator,
    "compiled": CompiledSimulator,
    "traced": _fused,
    "batched": _fused,
}


def create_simulator(backend: str = "event", *,
                     name: str = "sim", **kwargs) -> Simulator:
    """Instantiate the kernel registered under *backend*."""
    try:
        factory = SIMULATOR_BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown simulation backend {backend!r} "
            f"(have: {', '.join(sorted(SIMULATOR_BACKENDS))})"
        ) from None
    return factory(name, **kwargs)
