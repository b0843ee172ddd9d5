"""liecones: exact structure theory of real Lie superalgebras.

Invariant-cone certificates, Cartan subsuperalgebras and root data,
Clifford modules, and the coadjoint-orbit classification for nilpotent
Lie supergroups -- all over explicit computable subfields of R.

The package raises three exception classes: InputError (arguments outside a
function's domain), Undetermined (a bounded search or splitting step cannot
decide) and InvariantViolation (a re-check of computed data failed).
"""

from .exactnum import (Field, FieldMismatchError, InputError, InvariantViolation, Poly,
                       QQ, QQ_I, Scalar, Undetermined, parse_scalar, real_root_signs)
from .glinalg import (GradedSpace, Matrix, Subspace, generalized_eigenspaces,
                      image, joint_eigenspaces, kernel)
from .lsa import (LieSuperalgebra, center, centroid, check_axioms, derivations,
                  differential_constants, grassmann_extend, is_nilpotent,
                  is_solvable, quotient, series, subalgebra_on, supercommutant)
from .cartan import (CartanData, RootDatum, cartan_subalgebra_even,
                     cartan_subsuperalgebra, compact_cartan_even, fitting_null,
                     fixed_point_projection, is_compactly_embedded, root_decomposition)
from .cones import (ConeCertificate, OddSquareForm, StarReducedReport,
                    convex_hull_contains_zero, find_isotropic_odd,
                    find_pd_functional, nilpotent_vanishing_ideal, odd_square,
                    star_reduced_report)
from .orbits import (OrbitDescriptor, PolarizingSystem, branching_multiplicity,
                     classify_orbits, coadjoint_orbit_member, in_admissible_cone,
                     kirillov_heisenberg_check, polarizing_flag)
from .cliffrep import (MatrixRep, classify_heisenberg_clifford, clifford_module,
                       equivalent, parity_change, verify_rep)
from .hwm import CartanModule, TruncatedModule, build_truncated, positive_system
from . import catalog

__version__ = "0.1.0"
