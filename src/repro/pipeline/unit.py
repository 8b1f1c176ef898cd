"""The unit of pipelined work.

A work unit must be *self-contained*: everything its :meth:`~WorkUnit.run`
needs is either carried in the unit itself (options, ids, seeds) or
rebuilt deterministically inside the executing process (typically via
:func:`repro.pipeline.context.process_cached`).  Units that run with
``workers > 1`` additionally have to be picklable, which in practice
means frozen dataclasses of plain options — never live simulator
objects.

Units are *self-seeded*: any randomness is derived from data the unit
carries (build seed + unit identity), never from shared mutable RNG
state, so no unit's random draws depend on which worker runs it or in
what order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class WorkUnit(ABC):
    """One self-contained job in a dataset build or server run.

    Attributes:
        unit_id: Position of the unit in its build's canonical (serial)
            order.  Backends merge results back in ``unit_id`` order,
            so parallel output equals serial output whenever each
            unit's result depends on the unit alone.
    """

    unit_id: int

    @abstractmethod
    def run(self) -> object:
        """Execute the unit and return its (picklable) result."""
