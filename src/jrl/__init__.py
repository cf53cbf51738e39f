"""Finite group rings, the Jordan circle product, and a brute-force
nilpotency oracle cross-checked against a structural classifier."""

from .errors import (AlgebraError, ContextMismatch, EmptySequence,
                     InvalidExponent, NoIdentity, NoInverse, NotAbelianGroup,
                     NotAssociative, NotDistributive, ParseError, TooLarge,
                     UnknownName, ValidationError)
from .groups import (BUILTIN_GROUP_NAMES, FiniteGroup, Subgroup, builtin_group,
                     center, commutator_span_condition, cyclic_group,
                     derived_subgroup, dihedral_group_8, direct_product,
                     is_central, iso_class, quaternion_group, squares_central,
                     symmetric_group_3)
from .rings import (BUILTIN_RING_NAMES, FiniteRing, builtin_ring,
                    matrix_ring_2x2_gf2, scalar4_plus_strict_upper_3x3,
                    scalar_plus_strict_upper_3x3, upper_triangular_2x2,
                    zmod_ring)
from .groupring import (GroupRing, GroupRingElement, circle,
                        check_monomial_circle_expansion,
                        check_product_circle_expansion, format_element,
                        gr_add, gr_mul, gr_neg, jordan_power, left_normed_jordan,
                        left_normed_lie, lie_bracket)
from .nilpotency import (EXHAUSTIVE_CAP, JordanSearchResult, RingConditions,
                         SpanningSet, exhaustive_check, lie_vanishes_left_normed,
                         minimal_jordan_index, ring_conditions, spanning_set,
                         vanishes_left_normed)
from .classify import CLAUSE_TEXT, ClassificationResult, classify, explain
from .identities import IdentityCheck, run_identity_suite, suite_passed
from .fileio import (group_file_text, load_structure, parse_group_file,
                     parse_ring_file, ring_file_text, write_group_file,
                     write_ring_file)
from .harness import (CatalogEntry, CrossCheckRecord, catalog_from_dir,
                      crosscheck, default_catalog, emit_report,
                      has_disagreement, report_lines, resolve_group,
                      resolve_ring)

__version__ = "0.1.0"
