"""MMLab's analysis toolkit.

One module per analysis family, mirroring the paper's evaluation:

* :mod:`diversity` — Simpson index, coefficient of variation, richness
  and the dependence measure zeta (Eq. 4/5; Figs. 14-17).
* :mod:`events` — decisive reporting-event mix and parameter ranges
  (Fig. 5).
* :mod:`performance` — radio and throughput impacts around handoffs
  (Figs. 6-10).
* :mod:`thresholds` — measurement-vs-decision threshold gaps (Fig. 11).
* :mod:`temporal` — configuration churn over time (Fig. 13).
* :mod:`spatial` — city-level and proximity diversity (Figs. 20/21).
* :mod:`frequency` — frequency dependence of parameters (Figs. 18/19).
* :mod:`rats` — cross-RAT comparisons (Table 4, Fig. 22).
* :mod:`prediction` — device-side handoff prediction (Section 6).

Automated configuration verification (Sections 4.2, 5.4.1, 6) is the
:mod:`repro.lint` rule engine.
"""

from repro.core.analysis.diversity import (
    DiversityMeasures,
    simpson_index,
    coefficient_of_variation,
    richness,
    diversity_of_values,
    parameter_diversity,
    dependence,
)

__all__ = [
    "DiversityMeasures",
    "simpson_index",
    "coefficient_of_variation",
    "richness",
    "diversity_of_values",
    "parameter_diversity",
    "dependence",
]
