"""``repro.perf`` — the performance plane: sampling profiler, memory
observability, and span-attributed cost accounting.

Three pieces, all stdlib-only:

* :mod:`repro.perf.sampler` — a wall-clock **sampling profiler**: a
  daemon thread snapshots ``sys._current_frames()`` at a configurable
  rate and aggregates folded stacks (Brendan Gregg's one-line-per-stack
  format).  It installs no signal handlers, never raises into the
  sampled program, and costs nothing when not running.
* :mod:`repro.perf.core` — :class:`PerfSession`, which owns a sampler
  plus optional :mod:`tracemalloc` accounting, and the ambient
  active-session registry (:func:`get_active` / :func:`set_active` /
  :func:`activate`) mirroring :mod:`repro.telemetry.core`: when no
  session is active every helper is one module-global load plus a
  ``None`` check, so the engine hot-path numbers survive untouched
  (``bench_engine.py --check`` guards this).  Samples and memory peaks
  are **attributed to spans**: :func:`perf_span` labels the running
  thread, and every sample taken while the label is live is credited
  to it — per engine slot-batch, Decay phase, vectorized kernel, pool
  chunk, and fabric worker.
* :mod:`repro.perf.flame` — a deterministic, self-contained (no
  scripts, no timestamps, no randomness) **flamegraph HTML** renderer
  over folded stacks, plus folded-profile parsing/merging/diffing for
  ``perf flame`` / ``perf diff`` and the bench regression gate.

Cross-process: ``REPRO_PERF=<hz>`` in the environment asks pool
workers (:mod:`repro.parallel`) and fabric workers
(:mod:`repro.fabric.worker`) to sample themselves; their ``perf_*``
records ship back / land in worker logs exactly like the rest of the
telemetry stream and are merged chunk-tagged.
"""

from repro.perf.core import (
    DEFAULT_HZ,
    ENV_VAR,
    PerfSession,
    activate,
    get_active,
    hz_from_env,
    perf_span,
    set_active,
)
from repro.perf.flame import (
    diff_folded,
    load_stacks,
    merge_folded,
    parse_folded,
    render_flamegraph,
    top_frames,
)
from repro.perf.sampler import Sampler

__all__ = [
    "DEFAULT_HZ",
    "ENV_VAR",
    "PerfSession",
    "Sampler",
    "activate",
    "diff_folded",
    "get_active",
    "hz_from_env",
    "load_stacks",
    "merge_folded",
    "parse_folded",
    "perf_span",
    "render_flamegraph",
    "set_active",
    "top_frames",
]
