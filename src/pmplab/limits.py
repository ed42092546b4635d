"""Every size cap of pmplab, with the checks that enforce them.

Refusals.  Each check is arithmetic only and runs before anything of the
refused size is built; past a cap the entry point raises InstanceTooLarge,
which the command line reports with exit 2.

- MAX_REFINED_ATOMS bounds the atoms of one refinement or product
  (_check_refined_size).  algebra._split checks it for refine_to_unit and
  match_partitions, and through them refine_action_to_unit, eppa_extend
  and the conjugacy search.  product_algebra and uniform_algebra check it
  for every extension by product_action: the search depths past 1,
  refine, tensor and embed_into_profinite_tensor.
  It also bounds the atoms summed over refinement depths 1..max_refine
  (_check_summed_refinement), checked only by action.extensions, which
  every search deepens through: search_C2_witness, axiom_residual,
  ec_in_extension_check and approx_conjugacy_search.
- MAX_GROUP_ORDER bounds the elements of a group the library enumerates:
  cyclic_group, permutation_marked_group and joint_quotient, and of a
  group read as generator columns or as a table (jsonio.group_from_json),
  checked as soon as its order or its number of rows is read.  All of them
  raise through _check_group_order.
- MAX_GROUP_ENTRIES bounds the entries of the permutations that
  permutation_marked_group and the embeddings build while they enumerate a
  group, degree entries per composition (_check_group_entries, before each).
- MAX_GENERATOR_ENTRIES bounds the entries of the generators eppa_extend
  builds, one of den entries per partial, len(partials) * den in all
  (_check_generator_entries, before the overalgebra or any generator).
- MAX_EXACT_STEPS bounds approx_conjugacy_search's exact phase for k >= 2,
  k * n^2 steps over n atoms at depth 1 (_check_exact_steps).
- MAX_BEAM_STEPS bounds the work of approx_conjugacy_search's beam,
  beam_width * n^2 for n refined atoms, summed over the depths that run it
  (_check_beam_steps, before each beam).
- MAX_LP_ENTRIES bounds the rows * columns of type_distance_max's linear
  program, sum(|p| + |q| - 1) + n rows by sum(|p| * |q|) + 1 + n columns
  over its free residual cells p, q at arity n (_check_lp_entries, before
  any row is built).

Search bounds.  These end a search instead of refusing it.

- EXHAUSTIVE_TUPLE_CAP: an audit depth with at most this many candidate
  tuples is scanned in index order, the extension check stopping at its
  first hit, a larger one searched by greedy descent (search_C2_witness,
  axiom_residual, ec_in_extension_check).  A whole
  second-condition scan of 2**n candidates holds ints of 2**n fields of fb
  bytes each, fb the least power of two with the depth's denominator below
  2**(8*fb - 1): one per target key, one per candidate bit and its
  complement (cached per (n, fb)), and a few more while it runs, so 4 KB
  each at the cap with a denominator below 128, and 64 KB each at 2**16
  candidates.
- GREEDY_ROUNDS bounds the rounds of one greedy descent.  A second-condition
  descent holds one int of n + 1 fields per target key, no n x n structure.
- MAX_GROUPING_STEPS bounds approx_conjugacy_search's exact grouping of the
  leftover cycle lengths of one generator: the sub-multisets its states
  enumerate and the groups they match, summed over the depths that group
  (_check_grouping_steps, before each state's enumeration and each batch
  of matches).  The InstanceTooLarge it raises never leaves the search:
  that depth, and every later one, runs the beam instead.
"""
from __future__ import annotations

from .errors import InstanceTooLarge

# A product builds size * fiber.size atoms: an audit depth m and
# `refine ACTION m` build size * m.  The unit refinements build 1/unit atoms.
# The largest refinement or product of the benchmark's seeds 0-2 has 405
# atoms (a unit refinement; the largest product has 288).
MAX_REFINED_ATOMS = 1 << 16

# Largest group the library enumerates: admits S_6 (720), refuses S_7 (5040).
# A group holds k * order entries, and so do an embed document and the check
# of a group read as columns; joint-quotient writes the order^2 table, and a
# table read from outside is checked in order^2 steps.
MAX_GROUP_ORDER = 1024

# Z/1024 rotating 2048 points builds 2^21 entries, on 1087 atoms (the largest
# embedding the tests build) about 1.1M.
MAX_GROUP_ENTRIES = 1 << 21

# eppa_extend builds one generator of den entries per partial: the cap admits
# two on the largest unit refinement.  The benchmark's eppa requests of seeds
# 0-6 build at most 1,290 entries.
MAX_GENERATOR_ENTRIES = 1 << 17

# The largest exact phase in the benchmark (c03, c04) takes 2 * 64^2 = 8192
# steps, its largest beam 16 * 64^2 = 65536.
MAX_EXACT_STEPS = 1 << 22
MAX_BEAM_STEPS = 1 << 22

# type_distance_max on 128 equal atoms, an all-atom base and fiber tuples of
# 64-atom events: the cap admits arity 5, 29 x 160 = 4640 entries (0.17 s on
# one Xeon core), and refuses arity 6, 54 x 607 = 32778 (6.6 s), and 7,
# 102 x 2311.  The benchmark's largest program, of seeds 0-6, is 11 x 15.
MAX_LP_ENTRIES = 1 << 13

EXHAUSTIVE_TUPLE_CAP = 4096
GREEDY_ROUNDS = 64

# The benchmark's largest grouping, of seeds 0-6, takes 107 steps; n fixed
# points against an n-cycle take n + 3, about 0.13 s at the cap on one Xeon
# core.
MAX_GROUPING_STEPS = 1 << 16


def _check_refined_size(atoms: int) -> None:
    """Raise InstanceTooLarge, by arithmetic alone, when a refinement,
    product or fiber of this many atoms would pass MAX_REFINED_ATOMS."""
    if atoms > MAX_REFINED_ATOMS:
        raise InstanceTooLarge(
            f"an algebra of {atoms} atoms exceeds the cap {MAX_REFINED_ATOMS} atoms"
        )


def _check_group_order(order: int) -> None:
    """Raise InstanceTooLarge when a group of this many elements would pass
    MAX_GROUP_ORDER."""
    if order > MAX_GROUP_ORDER:
        raise InstanceTooLarge(f"group has more than {MAX_GROUP_ORDER} elements")


def _check_group_entries(entries: int) -> None:
    """Raise InstanceTooLarge when a group walk's entries pass MAX_GROUP_ENTRIES."""
    if entries > MAX_GROUP_ENTRIES:
        raise InstanceTooLarge(f"group enumeration builds more than {MAX_GROUP_ENTRIES} entries")


def _check_generator_entries(entries: int) -> None:
    """Raise InstanceTooLarge when generators of this many entries in all
    would pass MAX_GENERATOR_ENTRIES."""
    if entries > MAX_GENERATOR_ENTRIES:
        raise InstanceTooLarge(
            f"generators of {entries} entries exceed the cap {MAX_GENERATOR_ENTRIES} entries"
        )


def _check_summed_refinement(size: int, depths: int) -> None:
    """Raise InstanceTooLarge when refining size atoms at every depth
    1..depths, size*depths*(depths+1)/2 atoms in all, would pass
    MAX_REFINED_ATOMS; only arithmetic, nothing is allocated."""
    summed = size * (depths * (depths + 1) // 2)
    if summed > MAX_REFINED_ATOMS:
        raise InstanceTooLarge(
            f"refinements to depths 1..{depths} sum to {summed} atoms, "
            f"past the cap {MAX_REFINED_ATOMS} atoms"
        )


def _check_beam_steps(steps: int) -> None:
    """Raise InstanceTooLarge when the beam steps summed so far, the
    next beam's included, pass MAX_BEAM_STEPS."""
    if steps > MAX_BEAM_STEPS:
        raise InstanceTooLarge(
            f"beam searches summing to {steps} steps exceed the cap {MAX_BEAM_STEPS} steps"
        )


def _check_grouping_steps(steps: int) -> None:
    """Raise InstanceTooLarge when the grouping steps summed so far, the next
    state's included, pass MAX_GROUPING_STEPS."""
    if steps > MAX_GROUPING_STEPS:
        raise InstanceTooLarge(
            f"cycle groupings summing to {steps} steps exceed the cap {MAX_GROUPING_STEPS} steps"
        )


def _check_exact_steps(steps: int) -> None:
    """Raise InstanceTooLarge when an exact conjugacy phase's steps pass MAX_EXACT_STEPS."""
    if steps > MAX_EXACT_STEPS:
        raise InstanceTooLarge(
            f"an exact conjugacy phase of {steps} steps exceeds the cap {MAX_EXACT_STEPS} steps"
        )


def _check_lp_entries(rows: int, columns: int) -> None:
    """Raise InstanceTooLarge when a linear program of rows x columns would
    pass MAX_LP_ENTRIES."""
    if rows * columns > MAX_LP_ENTRIES:
        raise InstanceTooLarge(
            f"a linear program of {rows} x {columns} entries exceeds the cap "
            f"{MAX_LP_ENTRIES} entries"
        )
