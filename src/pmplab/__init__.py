"""Exact-arithmetic workbench for finite measure algebras carrying
measure-preserving free-group actions.

Everything is computed over rationals: partition metrics, type and
independence distances, extension and ergodization constructions, quotient
actions of finite marked groups, closure-condition audits, and approximate
conjugacy certificates.  No floats anywhere; every reported quantity can be
recomputed exactly from the returned witness."""
from types import ModuleType as _ModuleType

from .algebra import (
    AtomPartition,
    Event,
    EventTuple,
    JointDistribution,
    MeasuredAlgebra,
    dist_max,
    dist_partition,
    joint_distribution,
    lift_event,
    lift_tuple,
    product_algebra,
    refine_to_unit,
    uniform_algebra,
    validate_algebra,
)
from .action import (
    FkAction,
    Word,
    apply_gen_tuple,
    generated_subalgebra,
    invariant_components,
    product_action,
    refine_action_to_unit,
    uniform_distance,
    uniform_distance_tuples,
    validate_action,
)
from .audit import (
    C1Report,
    C2SearchResult,
    EcSearchResult,
    axiom_residual,
    check_C1,
    ec_in_extension_check,
    search_C2_witness,
)
from .constructions import (
    ConjugacyCertificate,
    EppaExtension,
    Ergodization,
    Isomorphism,
    JointQuotient,
    MarkedGroup,
    Matching,
    PartialIsomorphism,
    QuotientEmbedding,
    approx_conjugacy_search,
    cyclic_group,
    embed_into_profinite_tensor,
    embed_transitive_into_quotient,
    eppa_extend,
    ergodize,
    joint_quotient,
    match_partitions,
    permutation_marked_group,
    quotient_action,
    verify_conjugacy,
)
from .errors import PmplabError, ValidationError
from .modeltheory import (
    TripleDistribution,
    independence_deficiency,
    joint_tv_distance,
    relatively_independent_joining,
    triple_law,
    type_distance_max,
    type_distance_tv,
)

__version__ = "0.1.0"

# The re-exported names only: the submodules bound by the imports above stay
# out, so that `from pmplab import *` cannot rebind a caller's own names.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
