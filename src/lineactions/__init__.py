"""Group actions on the line and circle: explicit BS(m, n) actions with
ping-pong certificates, the BS word problem, rotation numbers, Aut(F_n)
relation verification, and the BS(1, n) local-rigidity conjugacy solver."""

__version__ = "0.1.0"

from .action import (BSAction, Certificate, PingPongTable, build_action,
                     certify_word, find_g_fixed_point, rotation_obstruction,
                     sweep_certify, verify_inclusions)
from .circle import (AtomicCircleMeasure, AuditReport, MonotoneRealMap,
                     SampledIntervalMap, audit_aba, audit_commuting_fixsets,
                     equal_on_support_check, mean_translation_number, nu,
                     rigid_rotation, translation_number_estimate)
from .errors import (ConstructionError, InconclusiveError, LineActionsError,
                     PreconditionError, PropertyViolationError,
                     RepresentationError)
from .maps import (AffineMap, Enclosure, FundamentalDomainMap, MapTree,
                   ThetaMap, TranslateConjugate, TrigPolyLift, build_theta,
                   compose, fourier_smooth, from_grid, from_knots, from_spec,
                   identity, invert, iterate, rat, rat_str, sine_lift)
from .presentations import (CommGraph, FreeAutomorphism, PresentationSchema,
                            aut_A, aut_B, aut_equal, autfn_schema,
                            braid_conjugator, commutator, free_inv, free_mul,
                            free_reduce, identity_aut, mc_schema,
                            pin_commutator_convention, twisted_generators,
                            verify_autfn_relations)
from .rigidity import ConjugacyResult, detect_nonstandard, solve_conjugacy
from .words import (BSWord, NormalForm, bs1n_affine, count_pinch_free,
                    enumerate_reduced, equal, interval_case_commutator,
                    is_trivial, obstruction_commutator, reduce)
