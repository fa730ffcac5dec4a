"""Engine backend selection.

Two backends produce :class:`~repro.sim.metrics.RunMetrics`:

* ``reference`` — the canonical pure-Python slot engine
  (:class:`~repro.sim.engine.Engine`).  Always available; its results
  define correctness.
* ``numpy`` — the vectorized batch backend (:mod:`repro.sim.vectorized`),
  which advances many fault-free Monte-Carlo trials of one topology per
  array op.  Seed-for-seed identical to the reference (the parity suite
  enforces it), roughly an order of magnitude faster on campaign
  workloads, and only available when NumPy is installed
  (``pip install .[fast]``).

``auto`` resolves to ``numpy`` when importable and silently falls back
to ``reference`` otherwise, so campaign code can request speed without
adding a hard dependency.  The ``REPRO_BACKEND`` environment variable
supplies the default when a caller passes ``None``.  Only fault-free
experiments (``gap`` and ``experiment``) consult it: faulted runs,
chaos campaigns included, always take the reference engine.
"""

from __future__ import annotations

import os

from repro.errors import SimulationError

__all__ = [
    "BACKENDS",
    "BackendUnavailable",
    "numpy_available",
    "available_backends",
    "resolve_backend",
]

BACKENDS = ("reference", "numpy", "auto")

_BACKEND_ENV = "REPRO_BACKEND"


class BackendUnavailable(SimulationError):
    """A requested engine backend cannot run in this environment."""


def numpy_available() -> bool:
    """Whether the vectorized backend's only dependency imports."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def available_backends() -> tuple[str, ...]:
    """The backends that can actually run here (reference always can)."""
    return ("reference", "numpy") if numpy_available() else ("reference",)


def resolve_backend(name: str | None) -> str:
    """Resolve a backend request to ``"reference"`` or ``"numpy"``.

    ``None`` defers to ``$REPRO_BACKEND`` (itself defaulting to
    ``reference``); ``auto`` picks ``numpy`` when importable.  An
    explicit ``numpy`` request raises :class:`BackendUnavailable` when
    it cannot be honoured — asking for speed and silently not getting
    it would corrupt benchmark comparisons.
    """
    if name is None:
        name = os.environ.get(_BACKEND_ENV, "").strip() or "reference"
    if name not in BACKENDS:
        raise SimulationError(
            f"unknown backend {name!r}; choose from {', '.join(BACKENDS)}"
        )
    if name == "auto":
        return "numpy" if numpy_available() else "reference"
    if name == "numpy" and not numpy_available():
        raise BackendUnavailable(
            "the numpy backend needs NumPy, which is not installed; "
            "install the fast extra (pip install .[fast]) or use "
            "--backend reference"
        )
    return name
