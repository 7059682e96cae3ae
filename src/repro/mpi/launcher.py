"""Front door for SPMD execution: pick a backend, run a function on N ranks.

>>> from repro import mpi
>>> def hello(comm):
...     return comm.allreduce(comm.rank)
>>> mpi.run_spmd(hello, size=4)
[6, 6, 6, 6]
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.mpi.inproc import ThreadBackend
from repro.mpi.procs import ProcessBackend

_BACKEND_CLASSES = {
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`run_spmd`'s ``backend`` argument."""
    return tuple(sorted(_BACKEND_CLASSES))


def backend_capacity(backend: str) -> int:
    """Largest world size ``backend`` will launch (its ``max_world_size``).

    :func:`check_pool_size` validates grow requests against this before
    anything is torn down, so an over-capacity resize is a pointed
    ``ValueError`` at the boundary, not a half-built world.
    """
    try:
        backend_cls = _BACKEND_CLASSES[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {available_backends()}"
        ) from None
    return backend_cls.max_world_size


def check_pool_size(size: int, backend: str) -> None:
    """Validate a requested pool size with pointed errors.

    Shrinking below one rank or growing past the backend's capacity is
    rejected here, before any teardown, so an illegal resize never costs
    the session its current world.
    """
    cap = backend_capacity(backend)
    if size < 1:
        raise ValueError(
            f"cannot shrink the rank pool below 1 (requested size={size})"
        )
    if size > cap:
        raise ValueError(
            f"cannot grow the rank pool to {size}: the {backend!r} backend "
            f"launches at most {cap} ranks"
        )


def run_spmd(
    fn: Callable[..., Any],
    size: int,
    backend: str = "thread",
    args: Sequence[Any] = (),
    kwargs: dict[str, Any] | None = None,
    **backend_options: Any,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` across ``size`` ranks.

    Parameters
    ----------
    fn:
        The SPMD function.  Its first argument is the communicator.
    size:
        Number of ranks.
    backend:
        ``"thread"`` (default; deterministic, in-process) or ``"process"``
        (OS processes, true parallelism).
    backend_options:
        Forwarded to the backend constructor, e.g. ``default_timeout=5.0``.

    Returns
    -------
    list
        Per-rank return values indexed by rank.
    """
    try:
        backend_cls = _BACKEND_CLASSES[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {available_backends()}"
        ) from None
    return backend_cls(**backend_options).run(fn, size, args=args, kwargs=kwargs)
