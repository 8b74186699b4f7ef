"""Representation and character varieties of reflection groups.

Computational companion to the study of the 22-generator right-angled
Coxeter group acting on hyperbolic, anti-de Sitter and half-pipe
4-space: exact Q(sqrt 2) tables and group presentations, the quadratic
constraint systems modelling the representation variety, numeric
kernel/rank reports, exact first group cohomology, cusp-group
classification, and a CLI reproducing the headline numbers.
"""

from .coxeter import (RACG, cuboctahedron_vectors, gamma22, gamma22_vectors, gamma_co,
                      gamma_cube, gamma_rect, verify_representation)
from .geometry import (PairClassAdS, PairClassHyp, QuadraticSpace, classify_pair_ads,
                       classify_pair_hyp, eval_bilinear, eval_form, reflection_matrix)
from .repvar import (ConstraintSystem, Lift, RankReport, build_constraints,
                     canonical_tangency_pairs, constraint_system, find_cusp_subgroups,
                     find_tangency_pairs, gram_matrix, jacobian, kernel_report,
                     known_tangent, nearest_standard_t, orbit_tangent, project_to_variety,
                     residual, residual_max, standard_lift, trace_path)
from .scalars import QSqrt2, SQRT2, parse_scalar

__version__ = "0.1.0"
