"""Every size cap of pmplab, with the checks that enforce them.

Refusals.  Each check is arithmetic only and runs before anything of the
refused size is built; past a cap the entry point raises InstanceTooLarge,
which the command line reports with exit 2.

- MAX_REFINED_ATOMS bounds the atoms of one refinement or product
  (_check_refined_size).  algebra._split checks it for refine_to_unit and
  match_partitions, and through them refine_action_to_unit,
  perturb_small, eppa_extend, extend_partial_step and the conjugacy
  search.  product_algebra and uniform_algebra check it for every
  extension by product_action: the search depths past 1, refine, tensor
  and embed_into_profinite_tensor.
  It also bounds the atoms summed over refinement depths 1..max_refine
  (_check_summed_refinement), checked only by action.extensions, which
  every search deepens through: search_C2_witness, axiom_residual,
  ec_in_extension_check and approx_conjugacy_search.
- MAX_GROUP_ORDER bounds the elements of a group the library enumerates:
  cyclic_group, permutation_marked_group and joint_quotient, and of a
  group read as generator columns (jsonio.group_from_json), checked as
  soon as its order is read.  All of them raise through _check_group_order.
- MAX_BEAM_STEPS bounds the work of approx_conjugacy_search's beam,
  beam_width * n^2 for n refined atoms, summed over the depths that run it
  (_check_beam_steps, before each beam).

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
- GREEDY_ROUNDS bounds the rounds of one greedy descent.
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
# of a group read as columns; joint-quotient writes the order^2 table.
MAX_GROUP_ORDER = 1024

# The largest beam in the benchmark takes 16 * 64^2 = 65536 steps.
MAX_BEAM_STEPS = 1 << 22

EXHAUSTIVE_TUPLE_CAP = 4096
GREEDY_ROUNDS = 64


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
