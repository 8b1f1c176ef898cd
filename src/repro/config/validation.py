"""Structural validity checks for configurations.

Distinct from :mod:`repro.lint` (which audits *policy* quality, e.g.
priority loops and threshold conflicts): this module only
checks that values sit in their standardized domains — the kind of check
an encoder performs before putting a value on the air.
"""

from __future__ import annotations

from repro.cellnet.rat import RAT
from repro.config.legacy import LegacyCellConfig, validate_legacy
from repro.config.lte import LteCellConfig


def validate_config(config: LteCellConfig | LegacyCellConfig, rat: RAT) -> list[str]:
    """Domain-check any cell configuration; returns violations.

    Raises:
        TypeError: When the config object's type does not match ``rat``
            (e.g. an :class:`LteCellConfig` paired with a legacy RAT).
            A mismatch is a caller bug, not a domain violation, so it is
            not reported in the returned list.
    """
    if rat is RAT.LTE:
        if not isinstance(config, LteCellConfig):
            raise TypeError(
                f"expected LteCellConfig for {rat.value}, "
                f"got {type(config).__name__}"
            )
        return config.validate()
    if not isinstance(config, LegacyCellConfig):
        raise TypeError(
            f"expected LegacyCellConfig for {rat.value}, "
            f"got {type(config).__name__}"
        )
    return validate_legacy(config, rat)


def assert_valid(config: LteCellConfig | LegacyCellConfig, rat: RAT) -> None:
    """Raise ``ValueError`` when a configuration violates its domains."""
    problems = validate_config(config, rat)
    if problems:
        raise ValueError("; ".join(problems))
