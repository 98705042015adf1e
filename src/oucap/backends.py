"""Backend selection for the simulation hot loop.

The compiled extension (oucap._sk_core, built from Cython) is preferred when
importable; otherwise the pure-numpy twin is used.  Both implement the same
``filter_batch`` contract with identical arithmetic order, so swapping them
never changes results.  ``OUCAP_BACKEND=cython|numpy`` forces the choice.
Only the compiled kernel releases the GIL, so only its batches gain from
worker threads (``releases_gil``); numpy batches run on the calling thread.
"""

from __future__ import annotations

import os

from . import _sk_numpy
from .errors import BackendUnavailable

try:  # pragma: no cover - exercised only when the extension built
    from . import _sk_core
except ImportError:  # pragma: no cover
    _sk_core = None


def available_backends() -> tuple[str, ...]:
    names = ["numpy"]
    if _sk_core is not None:
        names.insert(0, "cython")
    return tuple(names)


def get_backend(name: str | None = None):
    """Return the backend module, honouring OUCAP_BACKEND when name is None.

    An unknown name raises ValueError; naming the compiled backend where the
    extension is not built raises BackendUnavailable.
    """
    if name is None:
        name = os.environ.get("OUCAP_BACKEND", "").strip().lower() or None
    if name is None:
        return _sk_core if _sk_core is not None else _sk_numpy
    if name == "numpy":
        return _sk_numpy
    if name == "cython":
        if _sk_core is None:
            raise BackendUnavailable(
                "compiled backend requested via OUCAP_BACKEND=cython "
                "but the extension is not built"
            )
        return _sk_core
    raise ValueError(f"unknown backend {name!r}; expected 'cython' or 'numpy'")


def releases_gil(kern) -> bool:
    """True when the backend module's filter_batch releases the GIL, so that
    its batches can usefully run on a thread pool.  Only numpy holds it."""
    return kern.NAME != "numpy"


def thread_count(n_tasks: int) -> int:
    """Worker threads for a GIL-releasing kernel: min(OUCAP_THREADS or
    cpu_count, n_tasks), >= 1.  A kernel that holds the GIL runs its batches
    on the calling thread and never consults this."""
    raw = os.environ.get("OUCAP_THREADS", "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise ValueError(f"OUCAP_THREADS must be an integer, got {raw!r}") from exc
        if cap < 1:
            raise ValueError("OUCAP_THREADS must be >= 1")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_tasks))
