"""The experiment harness: seeded repetition and parameter sweeps.

Disciplines enforced here so individual experiments stay honest:

* every repetition gets an independent child seed derived from the
  experiment's master seed and the sweep point's tag (see
  :mod:`repro.rng`) — re-ordering sweep points never changes any run;
* the graph for a sweep point is generated from a seed independent of
  the protocol's coin flips, so all protocols at a sweep point face
  the *same* topologies (paired comparison, as the gap experiment
  needs);
* repetition results never depend on execution order, so
  :func:`repeat_runs` and :func:`sweep` may fan work out to a process
  pool (``ExperimentConfig(jobs=N)`` or the ``REPRO_JOBS`` environment
  variable — see :mod:`repro.parallel`) and still return exactly what
  the serial loop would.

Repetitions are dispatched through :func:`repro.parallel.resilient_map`,
so a worker that crashes mid-campaign is retried with exponential
backoff (exact, because chunk inputs are re-derived seeds) and a
``task_timeout`` turns a hung worker into a retry instead of a stuck
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro import rng as rng_mod
from repro.errors import ExperimentError
from repro.parallel import _apply_args, resilient_map, resolve_jobs

__all__ = ["ExperimentConfig", "repeat_runs", "sweep"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments.

    ``reps`` is the Monte-Carlo repetition count; ``master_seed`` the
    root of the whole experiment's randomness; ``quick`` asks the
    experiment for a reduced parameter grid (used by the CI-speed
    benchmarks; full grids reproduce the EXPERIMENTS.md numbers).
    ``jobs`` selects the execution backend for repetitions: ``None``
    defers to the ``REPRO_JOBS`` environment variable, ``1`` runs
    serially, ``N > 1`` uses a pool of N worker processes and ``0``
    uses every CPU.  Because per-repetition seeds are derived (not
    drawn from a shared stream), the result tables are identical for
    every ``jobs`` value.  ``task_timeout`` (seconds per repetition,
    ``None`` = unbounded) bounds how long a pooled repetition may run
    before its worker is presumed hung and the chunk is retried.

    ``backend`` selects the engine backend for experiments that support
    batched execution (see :mod:`repro.sim.backends`): ``None`` defers
    to ``$REPRO_BACKEND``, ``"auto"`` picks the vectorized NumPy
    backend when installed.  Backends are seed-for-seed identical, so
    result tables do not depend on the choice.
    """

    reps: int = 30
    master_seed: int = 20260706
    quick: bool = False
    jobs: int | None = None
    task_timeout: float | None = None
    backend: str | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def seeds(self, *tags: object) -> list[int]:
        """Independent per-repetition seeds for one sweep point."""
        return list(rng_mod.seed_sequence(self.master_seed, self.reps, *tags))

    def effective_jobs(self) -> int:
        """The concrete worker count (resolves ``REPRO_JOBS``/CPUs)."""
        return resolve_jobs(self.jobs)


def repeat_runs(
    config: ExperimentConfig,
    tag: Sequence[object],
    run_once: Callable[[int], Any],
) -> list[Any]:
    """Run ``run_once(seed)`` for each derived repetition seed.

    With ``config.jobs > 1`` (or ``REPRO_JOBS`` set) and a picklable
    ``run_once``, repetitions execute on a resilient process pool
    (worker-death retry, optional per-task timeout); the returned list
    is element-for-element identical to the serial result either way.
    """
    if config.reps < 1:
        raise ExperimentError("reps must be >= 1")
    return resilient_map(
        run_once,
        config.seeds(*tag),
        jobs=config.effective_jobs(),
        task_timeout=config.task_timeout,
    )


def sweep(
    config: ExperimentConfig,
    points: Iterable[Any],
    run_point: Callable[[Any, list[int]], Any],
) -> list[Any]:
    """Evaluate ``run_point(point, seeds)`` at every sweep point.

    Sweep points are independent by the seeding discipline, so they are
    dispatched through the same resilient process-pool backend as
    :func:`repeat_runs`; results come back in point order regardless.
    """
    tasks = [(run_point, (point, config.seeds("sweep", point))) for point in points]
    return resilient_map(
        _apply_args,
        tasks,
        jobs=config.effective_jobs(),
        task_timeout=config.task_timeout,
    )
