"""Work-unit execution pipeline.

The paper's datasets are unions of independent units: D2 is dozens of
volunteers' separate collection sessions, D1 is separate drives.  This
package runs such units, and one knob, ``workers``, decides where:

* a :class:`WorkUnit` is one self-contained, self-seeded job — one D2
  session, one D1 drive, one fleet shard, one server patch, one lint
  shard — that can run anywhere a ``repro`` import is possible;
* :func:`resolve_backend` maps ``workers`` to a backend:
  :class:`SerialBackend` runs units in-process (``None`` or ``<= 1``),
  :class:`ProcessPoolBackend` fans them out over worker processes and
  merges results back in ``unit_id`` order;
* :func:`default_workers` is the one reader of ``REPRO_WORKERS``, for
  the entry points that honour it (the CLI, the shared experiment
  datasets and :func:`repro.simulate.fleet.run_fleet`);
* :func:`run_cached` is the digest-keyed result cache the lint
  analyzers share: it runs only the units a caller-held cache misses;
* :func:`process_cached` gives units a per-process home for expensive
  shared context (deployments, scenarios) that every unit of a build
  would otherwise rebuild.

The ordered merge makes the worker count change wall-clock time only,
as long as each unit's result depends on the unit alone.  That holds
for D2 builds and lint passes: their units take no radio snapshots, or
replay a witness in a world of their own.  D1 drives, fleet shards and
server patches read the radio environment's prepared-cell LRU, whose
entries depend on which earlier queries warmed it, so their outputs
can differ between a serial run and a pool of cold workers (a ROADMAP
open item, pinned by strict xfails in the test suite).

Builders consume ``backend.run(units)`` as a *stream*: each unit's
harvest (already-crawled samples/instances, not raw log bytes) is
ingested as it completes, so no build ever materializes the full log
archive.
"""

from repro.pipeline.backends import (
    ProcessPoolBackend,
    SerialBackend,
    default_workers,
    resolve_backend,
    run_cached,
)
from repro.pipeline.context import clear_process_cache, process_cached
from repro.pipeline.unit import WorkUnit

__all__ = [
    "ProcessPoolBackend",
    "SerialBackend",
    "WorkUnit",
    "clear_process_cache",
    "default_workers",
    "process_cached",
    "resolve_backend",
    "run_cached",
]
