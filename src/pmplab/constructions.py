"""Constructive kernels: partition matching, extension of partial
automorphisms, ergodization, quotient actions of marked groups and
embeddings into them, and approximate conjugacy search.

Everything here returns explicit witnesses (permutations, refined algebras,
block correspondences) whose claimed properties can be re-verified exactly
with the metrics from the algebra and action modules.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from heapq import heappop, heappush
from itertools import product
from math import gcd, lcm, prod
from operator import itemgetter, mul, sub

from .algebra import (
    ZERO,
    AtomPartition,
    EventTuple,
    MeasuredAlgebra,
    _keys,
    _runs,
    _split,
    refine_to_unit,
    uniform_algebra,
    validate_algebra,
)
from .action import (
    FkAction,
    Perm,
    _cycle_distance,
    _cycles,
    extensions,
    invariant_components,
    perm_compose,
    perm_identity,
    perm_inverse,
    product_action,
    refine_action_to_unit,
    uniform_distance_tuples,
)
from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    InvalidGroupTable,
    NotBijective,
    NotGenerating,
    NotMassPreserving,
    NotTransitive,
    PartitionNotPreserved,
    PreconditionInvariantElement,
    TypeMismatch,
    UnequalAtoms,
    ValidationError,
)
from .limits import (
    MAX_GROUPING_STEPS,
    _check_beam_steps,
    _check_exact_steps,
    _check_generator_entries,
    _check_group_entries,
    _check_group_order,
)
from .record import Record

# ---------------------------------------------------------------------------
# block correspondences


class PartialIsomorphism(Record):
    """A partial mass-preserving correspondence given by block pairs.

    Source blocks are pairwise disjoint atom sets of the source algebra,
    target blocks likewise in the target algebra, and paired blocks have
    equal mass.  A total correspondence whose source blocks are singletons
    covering the source acts as an embedding.

    Construct through .of.  The library's builders (eppa_extend and
    embed_into_profinite_tensor) build instances directly, from blocks that
    are disjoint and of equal mass by construction.
    """

    source: MeasuredAlgebra
    target: MeasuredAlgebra
    pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]

    @staticmethod
    def of(
        source: MeasuredAlgebra,
        target: MeasuredAlgebra,
        pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
    ) -> PartialIsomorphism:
        # block masses compare as unit sums across the two denominators
        src_units, src_den, src_size = source.units, source.den, source.size
        tgt_units, tgt_den, tgt_size = target.units, target.den, target.size
        seen_src: set[int] = set()
        seen_tgt: set[int] = set()
        out = []
        for src, tgt in pairs:
            fs, ft = frozenset(src), frozenset(tgt)
            if fs and (min(fs) < 0 or max(fs) >= src_size):
                raise AlgebraMismatch("source block out of range")
            if ft and (min(ft) < 0 or max(ft) >= tgt_size):
                raise AlgebraMismatch("target block out of range")
            if fs & seen_src or ft & seen_tgt:
                raise NotMassPreserving("blocks of a partial isomorphism overlap")
            seen_src |= fs
            seen_tgt |= ft
            src_mass = sum([src_units[i] for i in fs])
            if src_mass * tgt_den != sum([tgt_units[i] for i in ft]) * src_den:
                raise NotMassPreserving(
                    f"block masses differ: {source.mass_of(fs)} vs {target.mass_of(ft)}"
                )
            out.append((fs, ft))
        return PartialIsomorphism(source, target, tuple(out))

    def atom_blocks(self) -> dict[int, frozenset[int]]:
        """Source-atom to target-block map; requires singleton source blocks."""
        out: dict[int, frozenset[int]] = {}
        for src, tgt in self.pairs:
            if len(src) != 1:
                raise NotMassPreserving("source blocks are not singletons")
            out[next(iter(src))] = tgt
        return out


class Isomorphism(Record):
    """A total atom-to-atom mass-preserving bijection between two algebras.

    Construct through .of.  approx_conjugacy_search builds instances
    directly, from bijections between two algebras of one unit.
    """

    source: MeasuredAlgebra
    target: MeasuredAlgebra
    mapping: tuple[int, ...]

    @staticmethod
    def of(
        source: MeasuredAlgebra, target: MeasuredAlgebra, mapping: Sequence[int]
    ) -> Isomorphism:
        if source.size != target.size or sorted(mapping) != list(range(source.size)):
            raise NotBijective("mapping is not a bijection between the atom sets")
        su, sd = source.units, source.den
        tu, td = target.units, target.den
        for x, y in enumerate(mapping):
            if su[x] * td != tu[y] * sd:
                raise NotMassPreserving(
                    f"atom {x} of mass {source.atoms[x]} maps to mass {target.atoms[y]}"
                )
        return Isomorphism(source, target, tuple(mapping))


# ---------------------------------------------------------------------------
# partition matching


class Matching(Record):
    """An automorphism realizing the partition-metric bound between two
    equidistributed tuples.

    perm acts on refined, maps the lifted a to the lifted b event by event
    (a lifts as lift_tuple(a, refined, projection)), moves only fragments
    of atoms where the two sign maps disagree, and satisfies
    uniform_distance(perm, id) <= dp = dist_partition(a, b).  These hold by
    construction and are not re-checked when a Matching is built."""

    refined: MeasuredAlgebra
    projection: tuple[int, ...]
    perm: Perm
    dp: Fraction


def match_partitions(a: EventTuple, b: EventTuple) -> Matching:
    """Build an automorphism g of a refinement with g(a) = b eventwise.

    Requires a and b equidistributed, else TypeMismatch.  An atom whose
    packed keys (see the algebra module) under a and b disagree moves: it
    leaves its cell under a and enters its cell under b.  The atoms that
    stay weigh the same in every cell under both tuples, so the check
    compares, per key and in integer units, only the units the moving atoms
    take out and bring in.  Each moving atom is split into equal-mass
    rational fragments of one global unit; within each key s the fragments
    leaving cell s are paired lexicographically with those entering it
    (equal units, so equal counts), and all other atoms stay fixed.  The
    pairing moves exactly the disagreement mass, so the uniform distance of
    g from the identity is at most dist_partition(a, b).  Raises
    InstanceTooLarge, before splitting anything, when the refinement would
    pass MAX_REFINED_ATOMS atoms."""
    if a.algebra.id != b.algebra.id:
        raise AlgebraMismatch("tuples live on different algebras")
    if a.arity != b.arity:
        raise ArityMismatch(f"tuples have arities {a.arity} and {b.arity}")
    alg = a.algebra
    sa = _keys(a)
    sb = _keys(b)
    units, den = alg.units, alg.den
    moving = [x for x in range(alg.size) if sa[x] != sb[x]]
    balance: dict[int, int] = {}  # units gained under b less units lost under a
    for x in moving:
        balance[sa[x]] = balance.get(sa[x], 0) - units[x]
        balance[sb[x]] = balance.get(sb[x], 0) + units[x]
    if any(balance.values()):
        raise TypeMismatch("tuples are not equidistributed: cell masses differ")
    dp = Fraction(sum([units[x] for x in moving]), den)

    # The fragments weigh 1/L, L the lcm of the moving masses' denominators,
    # so moving atom x splits into units[x] * L / D of them.  lcm() of
    # nothing is 1: when nothing moves, nothing is split.
    fragments_den = lcm(*[den // gcd(units[x], den) for x in moving])
    counts = [1] * alg.size
    for x in moving:
        counts[x] = units[x] * fragments_den // den
    refined, projection = _split(alg, counts)
    fragments = _runs(projection)

    leaving: dict[int, list[int]] = {}
    entering: dict[int, list[int]] = {}
    for x in moving:
        leaving.setdefault(sa[x], []).extend(fragments[x])
        entering.setdefault(sb[x], []).extend(fragments[x])
    perm = list(range(refined.size))
    for s, sources in leaving.items():
        for src, tgt in zip(sources, entering[s]):
            perm[src] = tgt
    return Matching(refined, projection, tuple(perm), dp)


# ---------------------------------------------------------------------------
# marked groups


class MarkedGroup(Record):
    """A finite group with k marked generators, kept as its right Cayley
    graph: right[i][x] is the index of x * g_i.  Elements are 0-based
    indices, and the marked generators generate the whole group."""

    order: int
    identity: int
    right: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(order: int, identity: int, right: Sequence[Sequence[int]]) -> MarkedGroup:
        """The group whose right Cayley graph the columns are, its 2 k^2
        order entries counted against MAX_GROUP_ENTRIES before any column is
        copied, then checked over its d distinct columns, in first-seen
        order, in O(k order + d^2 order) with no reader in front: each must
        be a permutation of the order elements and the identity one of
        them, else InvalidGroupTable.

        rows(gen_images) of the distinct columns then raises NotGenerating
        if its walk misses an element, and each left translation L_a, a
        marked, must commute with every column r_b; else InvalidGroupTable.
        This is enough.  Let G be the group the columns generate.  Commuting
        gives L_a L_b(e) = r_b r_a(e), so products of the L_a reach every
        element from e.  An element of G fixing e then fixes every c(e) with
        c commuting with G: G is regular.  So the columns are right
        multiplication in G carried to the elements (x * y = g(x) where
        g(e) = y), and rows gives its true table."""
        _check_group_entries(2 * len(right) ** 2 * order)
        group = MarkedGroup(order, identity, tuple(map(tuple, right)))
        distinct = MarkedGroup(order, identity, tuple(dict.fromkeys(group.right)))
        elements = list(range(order))
        if any(sorted(column) != elements for column in distinct.right):
            raise InvalidGroupTable(f"a column is not a permutation of the {order} elements")
        if not 0 <= identity < order:
            raise InvalidGroupTable(f"identity {identity} is not one of the {order} elements")
        lefts = distinct.rows(distinct.gen_images)
        if any(
            list(map(left.__getitem__, column)) != list(map(column.__getitem__, left))
            for column in distinct.right
            for left in lefts
        ):
            raise InvalidGroupTable("multiplication is not associative")
        return group

    @property
    def k(self) -> int:
        return len(self.right)

    @property
    def gen_images(self) -> tuple[int, ...]:
        return tuple(column[self.identity] for column in self.right)

    def rows(self, zs: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """The table rows z * x, x over the elements, for each z in zs: a walk
        from the identity, where z * identity = z (Holt, Eick & O'Brien,
        Handbook of Computational Group Theory, 2005).  Element y first
        reached as x * g_i has z * y = (z * x) * g_i, so column y is column
        x looked up in right[i], a list for speed.  Raises InstanceTooLarge
        past MAX_GROUP_ENTRIES entries, len(zs) * order, before the walk,
        and NotGenerating when the walk misses an element."""
        _check_group_entries(len(zs) * self.order)
        right = [list(column) for column in self.right]
        columns: list = [None] * self.order
        columns[self.identity] = list(zs)
        walk = [self.identity]
        for x in walk:  # walk grows while it is read: it is the queue
            for times_g in right:
                y = times_g[x]
                if columns[y] is None:
                    columns[y] = list(map(times_g.__getitem__, columns[x]))
                    walk.append(y)
        if len(walk) != self.order:
            raise NotGenerating(
                f"marked generators reach only {len(walk)} of {self.order} elements"
            )
        return tuple(zip(*columns))


def cyclic_group(n: int, images: Sequence[int]) -> MarkedGroup:
    """Z/n with marked generators given as residues; its n elements and
    k * n entries are checked first."""
    if n < 1:
        raise InvalidGroupTable(f"cyclic group order must be >= 1, got {n}")
    _check_group_order(n)
    _check_group_entries(len(images) * n)
    gens = tuple(i % n for i in images)
    reached = n // gcd(n, *gens)
    if reached != n:
        raise NotGenerating(f"marked generators reach only {reached} of {n} elements")
    row = tuple(range(n))
    return MarkedGroup(n, 0, tuple(row[g:] + row[:g] for g in gens))


def _generated_group(identity, gens, compose) -> tuple[MarkedGroup, tuple]:
    """The group generated by gens under compose, enumerated breadth-first
    from the identity by multiplying on the right by the generators in
    order; element i of the returned tuple is group element i.

    The walk records right[g][x], the index of x * gens[g], for every
    element: order * k compositions, the only ones made, and exactly the
    right Cayley graph the group keeps.  Raises InstanceTooLarge as soon as
    more than MAX_REFINED_ATOMS elements are found, or before an element's
    compositions, len(identity) entries each, would pass MAX_GROUP_ENTRIES."""
    elements = [identity]
    index = {identity: 0}
    right: list[list[int]] = [[] for _ in gens]
    step = len(gens) * len(identity)
    for walked, x in enumerate(elements, 1):  # elements grows: it is the queue
        _check_group_entries(walked * step)
        for g, column in zip(gens, right):
            y = compose(x, g)
            if y not in index:
                _check_group_order(len(elements) + 1)
                index[y] = len(elements)
                elements.append(y)
            column.append(index[y])
    return MarkedGroup(len(elements), 0, tuple(map(tuple, right))), tuple(elements)


def permutation_marked_group(
    perms: Sequence[Sequence[int]],
) -> tuple[MarkedGroup, tuple[Perm, ...]]:
    """The permutation group generated by the given permutations.

    Elements are enumerated breadth-first from the identity, multiplying on
    the right by the generators in order; the element list is returned
    alongside the abstract marked group, and indices follow discovery order
    with the identity first.  Raises InstanceTooLarge as _generated_group
    does."""
    if not perms:
        raise InvalidGroupTable("need at least one generator permutation")
    degree = len(perms[0])
    gens: list[Perm] = []
    for p in perms:
        q = tuple(p)
        if len(q) != degree or sorted(q) != list(range(degree)):
            raise NotBijective("generator is not a permutation")
        gens.append(q)
    return _generated_group(perm_identity(degree), gens, perm_compose)


# ---------------------------------------------------------------------------
# quotient actions


def quotient_action(group: MarkedGroup) -> FkAction:
    """The action on the group's uniform measure by left multiplication.

    Atom x is group element x with mass 1/order; generator i sends x to
    gen_images[i] * x, the table rows of the marked generators.  The action
    is transitive because the marked generators generate, and needs no
    check: the rows of a checked group are permutations."""
    return FkAction(uniform_algebra(group.order), group.rows(group.gen_images))


class JointQuotient(Record):
    """The subgroup of a direct product generated by paired generators,
    with the coordinate projections recorded per element."""

    group: MarkedGroup
    proj1: tuple[int, ...]
    proj2: tuple[int, ...]


def joint_quotient(g1: MarkedGroup, g2: MarkedGroup) -> JointQuotient:
    """Subgroup of g1 x g2 generated by (gen_i, gen_i) pairs.

    Elements are discovered breadth-first from the identity pair along both
    right Cayley graphs, two entries per composition (_generated_group);
    the resulting quotient action factors onto both quotient actions
    through the recorded projections."""
    if g1.k != g2.k:
        raise ArityMismatch(f"groups mark {g1.k} and {g2.k} generators")
    group, elements = _generated_group(
        (g1.identity, g2.identity),
        list(zip(g1.right, g2.right)),
        lambda x, c: (c[0][x[0]], c[1][x[1]]),
    )
    return JointQuotient(group, *zip(*elements))


# ---------------------------------------------------------------------------
# extension of partial automorphisms to an equal-atom overalgebra


class EppaExtension(Record):
    """An action on an equal-atom algebra extending the partial
    automorphisms, and the blockwise embedding of the original algebra
    into that algebra."""

    action: FkAction
    embedding: PartialIsomorphism


def eppa_extend(
    alg: MeasuredAlgebra, partials: Sequence[PartialIsomorphism]
) -> EppaExtension:
    """Extend partial automorphisms of alg to automorphisms of an equal-atom
    algebra.

    The overalgebra has N = lcm of the mass denominators atoms of mass 1/N:
    atom i, of u_i units of 1/N, embeds as a run of u_i consecutive unit
    atoms.  Each partial becomes a partial injection on units by refining
    paired blocks lexicographically, and is completed by matching the
    leftover units in increasing order, one generator per partial; the
    injection is an image list over the units, None where unassigned, with a
    used flag per target unit.  Raises InstanceTooLarge beyond
    MAX_REFINED_ATOMS units or MAX_GENERATOR_ENTRIES generator entries."""
    for p in partials:
        if p.source.id != alg.id or p.target.id != alg.id:
            raise AlgebraMismatch("partials must map the given algebra to itself")
    n_units = alg.den
    _check_generator_entries(len(partials) * n_units)
    big, projection = refine_to_unit(alg, Fraction(1, n_units))
    runs = _runs(projection)

    gens: list[Perm] = []
    for p in partials:
        image: list[int | None] = [None] * n_units
        used = [False] * n_units
        for src, tgt in p.pairs:
            src_units = [u for atom in sorted(src) for u in runs[atom]]
            tgt_units = [v for atom in sorted(tgt) for v in runs[atom]]
            for u, v in zip(src_units, tgt_units):
                image[u] = v
                used[v] = True
        free_sources = [u for u in range(n_units) if image[u] is None]
        free_targets = [v for v in range(n_units) if not used[v]]
        for u, v in zip(free_sources, free_targets):
            image[u] = v
        gens.append(tuple(image))

    action = FkAction(big, tuple(gens))
    # the runs are disjoint, and run i holds atom i's u_i units
    pairs = tuple((frozenset((i,)), frozenset(run)) for i, run in enumerate(runs))
    embedding = PartialIsomorphism(alg, big, pairs)
    return EppaExtension(action, embedding)


# ---------------------------------------------------------------------------
# ergodization


class Ergodization(Record):
    """A transitive action obtained by composing generators with atom swaps,
    together with the number of swaps applied: the orbit count of the input
    action minus one."""

    action: FkAction
    modifications: int


def _equal_atoms(alg: MeasuredAlgebra) -> bool:
    """Whether all atoms of alg have one mass: ergodization and both
    embeddings require it."""
    return len(set(alg.units)) == 1


def ergodize(act: FkAction, fixed: AtomPartition) -> Ergodization:
    """Make an equal-atom action transitive without disturbing a subalgebra.

    fixed is a partition whose blocks every generator must map onto blocks,
    with no nontrivial union of blocks invariant under all generators.  The
    orbits are computed once.  merged starts as the orbit of atom 0, and
    each swap merges one more orbit into it: x is the least atom of merged
    whose block B is not inside merged, and the first generator p swaps its
    image u = p[x] with v, the least atom of the block p(B) outside merged.
    Each swap happens inside one image block, so the induced maps on the
    blocks never change.  It joins the p-cycle through u, in merged, with
    the p-cycle through v, in the orbit D of v, so merged and D become one
    orbit and every other orbit is unchanged: D is an orbit of the input
    action, and exactly (number of orbits - 1) swaps are applied.

    One generator is enough.  Every generator q maps merged onto itself,
    so q(B) meets merged in q(B & merged), as many atoms as B does: q(B)
    leaves merged exactly when B does, whatever q is.  So the first
    generator finds a swap at the least x that any generator finds one at,
    and the others are never changed.  The atoms of merged wait in a heap,
    and an atom whose block is inside merged is dropped for good, since
    merged only grows; each block keeps its atoms outside merged, the least
    last, and drops merged ones as it is read.  p's inverse, taken once,
    finds v's preimage: a swap changes the preimages of u and v alone, and
    both are merged from then on, where no preimage is looked up.  So the
    swaps take O(n log n) steps on n atoms.

    The precondition is checked by the swap search alone.  With k = 0 no
    swap exists: U, the union of the blocks that meet merged, is block 0,
    named by PreconditionInvariantElement beside other blocks and refused
    with ValidationError when it is the whole algebra of two or more atoms.
    With k >= 1, if no swap is found, every block that meets merged lies
    in it, so merged = U is a union of blocks, invariant under every
    generator, and not everything, since an orbit is unmerged.  It is the
    union R of the blocks reached from block 0: U holds block 0, and merged
    starts in the invariant R, each swap adding an orbit that meets a block
    image of R.  So a swap is found exactly when the precondition holds."""
    alg = act.algebra
    if fixed.algebra.id != alg.id:
        raise AlgebraMismatch("fixed partition does not live on the action's algebra")
    if not _equal_atoms(alg):
        raise UnequalAtoms("ergodization requires all atoms of equal mass")
    block_index = fixed.block_index()
    for p in act.gens:
        for block in fixed.blocks:
            if frozenset(p[x] for x in block) != fixed.blocks[block_index[p[min(block)]]]:
                raise PartitionNotPreserved(
                    f"generator image of block {sorted(block)} is not a block"
                )

    orbits = invariant_components(act).blocks
    orbit_of = {x: orbit for orbit in orbits for x in orbit}
    merged = set(orbits[0])
    p = list(act.gens[0]) if act.gens else []
    inverse = perm_inverse(p)
    heap = sorted(merged)  # atoms of merged whose block may not be inside it
    unmerged = [sorted(block, reverse=True) for block in fixed.blocks]

    def outside(block: int) -> list[int]:  # its atoms outside merged, least last
        atoms = unmerged[block]
        while atoms and atoms[-1] in merged:
            atoms.pop()
        return atoms

    for _ in range(len(orbits) - 1):
        while heap and not outside(block_index[heap[0]]):
            heappop(heap)
        if not (act.gens and heap):
            blocks = {block_index[x] for x in merged}
            union = sorted(y for bi in blocks for y in fixed.blocks[bi])
            if len(union) == alg.size:
                raise ValidationError(
                    "ergodization needs at least one generator: with k = 0 each of the "
                    f"{alg.size} atoms is its own orbit"
                )
            raise PreconditionInvariantElement(
                "a nontrivial union of fixed blocks is invariant under all generators",
                tuple(union),
            )
        x = heap[0]
        v = outside(block_index[p[x]])[-1]
        p[x], p[inverse[v]] = v, p[x]
        for y in orbit_of[v]:
            merged.add(y)
            heappush(heap, y)
    gens = (tuple(p), *act.gens[1:]) if act.gens else ()
    return Ergodization(FkAction(alg, gens), len(orbits) - 1)


# ---------------------------------------------------------------------------
# embeddings into quotient systems


class QuotientEmbedding(Record):
    """An exact embedding of an action into a quotient (or quotient tensor
    trivial) action, with the generated permutation group and its elements."""

    group: MarkedGroup
    elements: tuple[Perm, ...]
    target: FkAction
    sigma: PartialIsomorphism
    base_factor: MeasuredAlgebra | None


def embed_transitive_into_quotient(act: FkAction) -> QuotientEmbedding:
    """Embed a transitive equal-atom action into the quotient action of the
    permutation group its generators generate.

    This is embed_into_profinite_tensor with one orbit: its trivial factor
    has one atom, so the product changes no atom, generator or sigma pair,
    and the factor is left out of the result."""
    if not _equal_atoms(act.algebra):
        raise UnequalAtoms("embedding requires all atoms of equal mass")
    orbits = invariant_components(act).blocks
    if len(orbits) != 1:
        raise NotTransitive("action is not transitive on atoms")
    emb = _embed_orbits(act, orbits)
    return QuotientEmbedding(emb.group, emb.elements, emb.target, emb.sigma, None)


def embed_into_profinite_tensor(act: FkAction) -> QuotientEmbedding:
    """Embed an equal-atom action into quotient action tensor trivial action.

    One trivial-factor atom per orbit, weighted by the orbit mass.  An atom
    c in orbit o maps to the set of pairs (gamma, o), target atoms gamma *
    len(orbits) + o, over group elements gamma sending the orbit's lowest
    atom to c; the mass of that set is exactly the atom mass, and left
    multiplication on the first coordinate intertwines the actions."""
    if not _equal_atoms(act.algebra):
        raise UnequalAtoms("embedding requires all atoms of equal mass")
    return _embed_orbits(act, invariant_components(act).blocks)


def _embed_orbits(act: FkAction, orbits: tuple[frozenset[int], ...]) -> QuotientEmbedding:
    """embed_into_profinite_tensor of an equal-atom action, given its
    orbits."""
    alg = act.algebra
    base_factor = validate_algebra([alg.mass_of(o) for o in orbits])
    group, elements = _generated_group(perm_identity(alg.size), act.gens, perm_compose)
    target = product_action(quotient_action(group), base_factor)[0]
    width = len(orbits)
    images: list[list[int]] = [[] for _ in range(alg.size)]
    for oi, orbit in enumerate(orbits):
        base_atom = min(orbit)
        for g, e in enumerate(elements):
            images[e[base_atom]].append(g * width + oi)
    # target atom gamma * width + o comes from gamma(base_o) alone
    pairs = tuple((frozenset((c,)), frozenset(gammas)) for c, gammas in enumerate(images))
    sigma = PartialIsomorphism(alg, target.algebra, pairs)
    return QuotientEmbedding(group, elements, target, sigma, base_factor)


# ---------------------------------------------------------------------------
# approximate conjugacy search


class ConjugacyCertificate(Record):
    """An explicit isomorphism between uniform refinements of two actions and
    its exact defect.

    eps equals max over generators of the uniform distance between the
    conjugated generator and its counterpart, recomputed from the mapping.
    exhausted is eps != 0.  The exact phase is complete, so a positive eps
    means no exact conjugacy exists at the refinement depths tried; for one
    generator, that the two cycle types differ.  eps
    itself is an upper bound on the least defect, not a refutation of
    closer conjugacies at finer refinements.  For one generator it is
    built from cycle types and matched the least defect of its depth
    wherever a brute force checked it, but its optimality is not claimed
    (approx_conjugacy_search)."""

    iso: Isomorphism
    eps: Fraction
    act1_refined: FkAction
    act2_refined: FkAction
    projection1: tuple[int, ...]
    projection2: tuple[int, ...]
    exhausted: bool


def verify_conjugacy(cert: ConjugacyCertificate) -> Fraction:
    """Recompute the certificate defect from scratch: max over generators
    of the uniform distance between h g1 h^-1 and g2, with every conjugate
    and every generator of act2_refined checked as a permutation."""
    h, r1, r2 = cert.iso.mapping, cert.act1_refined, cert.act2_refined
    hinv = perm_inverse(h)
    conjugates = [perm_compose(h, perm_compose(g1, hinv)) for g1 in r1.gens]
    return uniform_distance_tuples(r2.algebra, conjugates, r2.gens)


def _conjugacy_defect(h: Perm, r1: FkAction, r2: FkAction) -> Fraction:
    """The defect verify_conjugacy computes, for a bijection h and actions
    the search built itself, so nothing is checked: the distance of each
    g2^-1 h g1 h^-1 from the identity."""
    hinv = perm_inverse(h)
    distances = [
        _cycle_distance(r2.algebra, tuple([ig2[h[g1[y]]] for y in hinv]))
        for g1, ig2 in zip(r1.gens, map(perm_inverse, r2.gens))
    ]
    return max(distances, default=ZERO)


def approx_conjugacy_search(
    act1: FkAction, act2: FkAction, max_refine: int = 1, beam_width: int = 16
) -> ConjugacyCertificate:
    """Search for a near-conjugacy between two actions.

    Both actions are refined once to the common unit 1/L, L = lcm(D1, D2),
    an action whose atoms all weigh 1/L already standing for its own
    refinement with the identity projection, and depth m = 1..max_refine
    searches the m-fold equal splits of both (action.extensions, which
    checks max_refine and the summed atoms): the unit refinements to
    1/(L*m), whose projections are the base projection composed with the
    depth's.  One generator (k = 1) is conjugated at every depth from the
    cycle types (_cycle_type_assign), and never by the beam: two
    permutations of equal atoms are conjugate exactly when their cycle types
    agree, and then the mapping conjugates them exactly.  Past
    MAX_GROUPING_STEPS, summed over the depths, a depth's leftover cycles
    are grouped greedily, within as many steps again.  For k != 1, a
    complete search first looks at depth 1 for an exact conjugacy (zero
    broken generator edges), one orbit at a time.  It runs at depth 1 only:
    depth m is m disjoint copies of the depth-1 refinements, and a finite
    F_k-set splits uniquely into orbits, so m copies of X are isomorphic to
    m copies of Y exactly when X is to Y; a depth-1 failure is a failure at
    every depth.  Otherwise a beam search
    builds the atom bijection greedily: source atoms in increasing order,
    candidate targets scored by the number of generator edges they break
    among decided atoms, ties to the lexicographically smallest mapping.
    Over uniform atoms this is the one-block extension step with mass
    bookkeeping trivial.  The reported eps is recomputed exactly from the
    returned mapping, and the search stops early when it reaches zero.  A
    positive eps proves that no exact conjugacy exists at the depths tried;
    it is an upper bound on the least defect there.  Built from cycle types,
    it was the least defect over every bijection of the depth wherever a
    brute force checked it (every pair of cycle types on up to 6 atoms, and
    a sample on 7), but no lower bound is proved past those, and the beam's
    optimality is never claimed.  A beam over n atoms is counted as
    beam_width*n^2 steps, a bound on its work and not the work it does;
    before each beam the steps summed over the beams run so far, this one
    included, are checked against MAX_BEAM_STEPS."""
    if act1.k != act2.k:
        raise ArityMismatch(f"actions have {act1.k} and {act2.k} generators")
    if beam_width < 1:
        raise ValidationError(f"beam_width must be >= 1, got {beam_width}")
    den = lcm(act1.algebra.den, act2.algebra.den)
    base1, base_proj1 = _at_unit(act1, den)
    base2, base_proj2 = _at_unit(act2, den)
    depths = zip(extensions(base1, max_refine), extensions(base2, max_refine))
    beam_steps = 0
    grouping_steps = [0, 0]
    best: ConjugacyCertificate | None = None
    for depth, ((r1, proj1), (r2, proj2)) in enumerate(depths, 1):
        n = r1.algebra.size
        if r1.k == 1:
            mapping = _cycle_type_assign(r1.gens[0], r2.gens[0], grouping_steps)
        else:
            mapping = _exact_assign(r1, r2) if depth == 1 else None
        if mapping is None:
            beam_steps += beam_width * n * n
            _check_beam_steps(beam_steps)
            mapping = _beam_assign(r1, r2, beam_width)
        iso = Isomorphism(r1.algebra, r2.algebra, mapping)
        eps = _conjugacy_defect(iso.mapping, r1, r2)
        projections = perm_compose(base_proj1, proj1), perm_compose(base_proj2, proj2)
        cert = ConjugacyCertificate(iso, eps, r1, r2, *projections, eps != 0)
        if best is None or cert.eps < best.eps:
            best = cert
        if best.eps == 0:
            return best
    return best


def _cycle_type_assign(g: Perm, h: Perm, spent: list[int]) -> tuple[int, ...]:
    """A bijection on equal atoms conjugating g close to h, built from their
    cycle types (action._cycles); spent[0] holds the grouping steps summed
    so far.  When the cycle types agree it conjugates g onto h exactly, and
    groups nothing.

    Each g-cycle, in order of least atom, is mapped onto an unused h-cycle
    of its length, least atom onto least atom.  The lengths left over are
    split into groups by _grouping, each of a g-cycles and b h-cycles of
    equal total length.  In a group, sigma starts as h on its h-cycles and
    c is the least atom of the first; each other h-cycle is merged into
    c's by swapping sigma[c] and sigma[x], x its least atom, and each
    g-cycle but the last, of length d, is cut off by swapping sigma[c] and
    sigma[z], z = sigma^d(c), and mapped onto the cut cycle; the last is
    mapped onto c's.  The mapping conjugates g to sigma, and h^-1 sigma is
    the product of the a + b - 2 swaps, all through c.  A group of the
    exact search is minimal, so no cut point is a merge point and the
    product is one cycle on a + b - 1 atoms: the group costs a + b - 2
    atoms, plus 1 when a + b is odd, and the defect is the grouping's cost
    over the atoms.  The greedy groups past MAX_GROUPING_STEPS need not be
    minimal, and their defect is only recomputed."""
    mapping, sigma = [0] * len(g), list(h)
    free: dict[int, list[int]] = {}  # unused h-cycles' least atoms by length, least last
    for x, d in reversed(_cycles(h)):
        free.setdefault(d, []).append(x)
    left: dict[int, list[int]] = {}  # unpaired g-cycles' least atoms by length

    def place(x: int, d: int, t: int) -> None:  # g's d-cycle from x onto sigma's from t
        for _ in range(d):
            mapping[x], x, t = t, g[x], sigma[t]

    for x, d in _cycles(g):
        if free.get(d):
            place(x, d, free[d].pop())
        else:
            left.setdefault(d, []).append(x)
    lengths1 = sorted(left)
    lengths2 = sorted(length for length, cycles in free.items() if cycles)
    counts = tuple(len(left[d]) for d in lengths1) + tuple(len(free[d]) for d in lengths2)
    for group in _grouping(lengths1, lengths2, counts, spent):
        hs = [free[d].pop() for d, m in zip(lengths2, group[len(lengths1):]) for _ in range(m)]
        gs = [(left[d].pop(), d) for d, m in zip(lengths1, group) for _ in range(m)]
        c = hs[0]
        for x in hs[1:]:
            sigma[c], sigma[x] = sigma[x], sigma[c]
        for x, d in gs[:-1]:
            z = start = sigma[c]
            for _ in range(d - 1):
                z = sigma[z]
            sigma[c], sigma[z] = sigma[z], sigma[c]
            place(x, d, start)
        place(*gs[-1], c)
    return tuple(mapping)


class _PastTheCap(Exception):
    """Ends _grouping's exact search once its steps pass MAX_GROUPING_STEPS."""


def _grouping(
    lengths1: list[int], lengths2: list[int], counts: tuple[int, ...], spent: list[int]
) -> list[tuple[int, ...]]:
    """The best split of the leftover cycles into groups, each a count
    vector over lengths1 + lengths2, the distinct leftover lengths of g and
    of h, within counts, their multiplicities.

    A group takes a >= 1 g-parts and b >= 1 h-parts of equal sums and is
    worth 2, less 1 when a + b is odd; the split of most worth is the one of
    least cost, the parts less the worth.  It is searched exactly, memoised
    on the remaining counts.  A state's group holds its least g-length: the
    state matches its g-side sub-multisets holding that length, in
    lexicographic order of their counts, with its h-side ones by sum, and
    keeps the first of most worth.  That group is minimal: were it two
    groups, the one holding the least g-length would have fewer g-parts,
    come first, and be worth as much with the other left over.  Its steps
    are the sub-multisets it enumerates, added to spent[0] and checked
    against MAX_GROUPING_STEPS before it enumerates them, and the groups it
    matches, added and checked before each g-side's are searched.  Past the
    cap the search stops, and the split is _greedy_grouping's."""
    split = len(lengths1)
    memo: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}

    def worth(rest: tuple[int, ...]) -> int:
        if rest not in memo:
            top: tuple[int, tuple[int, ...]] = (0, ())
            if any(rest[:split]):
                pin = next(i for i, m in enumerate(rest) if m)
                sides = [range(i == pin, m + 1) for i, m in enumerate(rest[:split])]
                others = [range(m + 1) for m in rest[split:]]
                spent[0] += prod(map(len, sides)) + prod(map(len, others))
                if spent[0] > MAX_GROUPING_STEPS:
                    raise _PastTheCap
                by_sum: dict[int, list[tuple[int, ...]]] = {}
                for v in product(*others):
                    by_sum.setdefault(sum(map(mul, v, lengths2)), []).append(v)
                for u in product(*sides):
                    matched = by_sum.get(sum(map(mul, u, lengths1)), ())
                    if matched:
                        spent[0] += len(matched)
                        if spent[0] > MAX_GROUPING_STEPS:
                            raise _PastTheCap
                    for v in matched:
                        group = u + v
                        value = 2 - sum(group) % 2 + worth(tuple(map(sub, rest, group)))
                        if value > top[0]:
                            top = value, group
            memo[rest] = top
        return memo[rest][0]

    try:
        worth(counts)
    except _PastTheCap:
        return _greedy_grouping(lengths1, lengths2, counts, spent)
    groups = []
    while memo[counts][1]:
        groups.append(memo[counts][1])
        counts = tuple(map(sub, counts, groups[-1]))
    return groups


def _greedy_grouping(
    lengths1: list[int], lengths2: list[int], counts: tuple[int, ...], spent: list[int]
) -> list[tuple[int, ...]]:
    """A split of the leftover cycles found greedily, once _grouping's exact
    search has passed MAX_GROUPING_STEPS; spent[1] holds its steps summed
    so far, apart from the exact search's.

    Each round takes top, twice the longest leftover length (at most the
    leftover sum), and for each side, each sum s <= top and each parity the
    fewest of the side's leftover cycles summing to s (_fewest_cycles).
    Of the groups they pair, it takes the one of most worth per cycle, then
    of fewest cycles, then of least sum, as many times as the counts allow.
    A round's table entries are its steps, added to spent[1] and checked
    against MAX_GROUPING_STEPS before it builds them.  The rounds stop past
    the cap or when no group is found, and what is left is one group.
    These groups need not be minimal."""
    split = len(lengths1)
    rest, groups = counts, []
    while any(rest):
        top = min(2 * max(d for d, m in zip(lengths1 + lengths2, rest) if m),
                  sum(map(mul, lengths1, rest)))
        sides = (lengths1, rest[:split]), (lengths2, rest[split:])
        spent[1] += 2 * (top + 1) * sum(min(m, top // d) + 1 for lengths, ms in sides
                                        for d, m in zip(lengths, ms))
        if spent[1] > MAX_GROUPING_STEPS:
            break
        tables = [_fewest_cycles(lengths, ms, top) for lengths, ms in sides]
        fewest1, fewest2 = (table[-1] for table in tables)
        found = [(Fraction((a + b) % 2 - 2, a + b), a + b, s, a % 2, b % 2)
                 for s in range(1, top + 1)
                 for a in (fewest1[0][s], fewest1[1][s]) if a <= top
                 for b in (fewest2[0][s], fewest2[1][s]) if b <= top]
        if not found:
            break
        _, _, total, *parities = min(found)
        group: list[int] = []
        for (lengths, _), table, parity in zip(sides, tables, parities):
            s, side = total, []
            for d, less, more in reversed(list(zip(lengths, table, table[1:]))):
                j = next(j for j in range(s // d + 1)
                         if less[(parity + j) % 2][s - j * d] + j == more[parity][s])
                s, parity = s - j * d, (parity + j) % 2
                side.append(j)
            group += reversed(side)
        times = min(m // j for m, j in zip(rest, group) if j)
        groups += [tuple(group)] * times
        rest = tuple(m - j * times for m, j in zip(rest, group))
    if any(rest):
        groups.append(rest)
    return groups


def _fewest_cycles(lengths: list[int], ms: tuple[int, ...], top: int) -> list[list[list[int]]]:
    """A bounded knapsack: entry [i][p][s] is the fewest cycles of parity p
    summing to s <= top, of lengths[:i] with multiplicities ms[:i]; top + 1
    or more when there are none."""
    tables = [[[0] + [top + 1] * top, [top + 1] * (top + 1)]]
    for d, m in zip(lengths, ms):
        fewest = tables[-1]
        tables.append([[min(fewest[(p + j) % 2][s - j * d] + j for j in range(min(m, s // d) + 1))
                        for s in range(top + 1)] for p in (0, 1)])
    return tables


def _at_unit(act: FkAction, den: int) -> tuple[FkAction, tuple[int, ...]]:
    """act refined to atoms of mass 1/den, with its projection: act itself
    and the identity when its atoms already weigh 1/den, that is when it
    has den atoms and denominator den (its units are then all 1)."""
    alg = act.algebra
    if alg.size == alg.den == den:
        return act, tuple(range(den))
    return refine_action_to_unit(act, Fraction(1, den))


def _exact_assign(r1: FkAction, r2: FkAction) -> tuple[int, ...] | None:
    """Exact conjugacy of r1 onto r2, placed one orbit of r1 at a time, for
    k != 1 (one generator is conjugated from its cycle types).

    Orbits are taken by least atom and walked breadth-first along the
    generators, as invariant_components walks them.  A walk's root tries the
    unused targets in increasing order; every later atom is
    forced by the placed atom it is reached from, and every generator edge
    x -> g(x) is checked, fixed points included, which checks the inverse
    edges too.  An exact conjugacy maps each orbit onto an isomorphic orbit,
    and isomorphic orbits are interchangeable, so a placed orbit is never
    revisited: the search takes O(n + k n^2) steps, k n^2 checked against
    MAX_EXACT_STEPS before the first, is complete, and returns None only
    when no exact conjugacy exists.

    A root's scan starts at the cursor low, below which every target is
    used.  A placed orbit's targets are never freed, and a failed walk frees
    only the targets it took, all at or above low, so the scan tries the
    same targets in the same order as one from 0; low moves up after each
    placed orbit.  When every root's first free target fits, as with no
    generators, the search takes O(n (k + 1)) steps."""
    n = r1.algebra.size
    _check_exact_steps(r1.k * n * n)
    mapping = [-1] * n
    used = [False] * n
    perms = list(zip(r1.gens, r2.gens))

    def place(root: int, t: int) -> bool:
        mapping[root], used[t] = t, True
        walk = [root]
        for x in walk:  # walk grows while it is read: it is the queue
            for p1, p2 in perms:
                y, u = p1[x], p2[mapping[x]]
                if mapping[y] < 0 and not used[u]:
                    mapping[y], used[u] = u, True
                    walk.append(y)
                elif mapping[y] != u:
                    for z in walk:
                        used[mapping[z]] = False
                        mapping[z] = -1
                    return False
        return True

    low = 0  # every target below low is used
    for root in range(n):
        if mapping[root] < 0:
            if not any(place(root, t) for t in range(low, n) if not used[t]):
                return None
            while low < n and used[low]:
                low += 1
    return tuple(mapping)


def _beam_assign(r1: FkAction, r2: FkAction, beam_width: int) -> tuple[int, ...]:
    """Greedy beam assignment of source atoms to target atoms.

    Source atoms are placed in increasing order.  Placing x on t keeps the
    edge from x to a placed y = g1[x] only when g2[t] = mapping[y], and the
    edge from a placed z = g1^-1[x] to x only when t = g2[mapping[z]]; each
    placed neighbor spares exactly one target, so a free target of a state
    of score s scores s + len(spare) less the neighbors sparing it.

    A state is (score, rank, mapping, free): rank is its place in the
    lexicographic order of the beam's mappings, and free is a bitmask of
    the unused targets.  The states are kept sorted by (score, rank), that
    is by (score, mapping).  A candidate is (score, parent rank, t, parent
    index).  The parents' mappings have one length and are distinct, so
    (parent rank, t) orders the grown mappings as parent mapping + (t,)
    does, and no two candidates share their first three entries: the
    index is never compared.  The beam_width smallest candidates survive,
    and sorting the survivors by (parent rank, t) gives their new ranks.

    Only two kinds of candidate are ranked: each state's spared free
    targets, at most 2k, and the first beam_width free targets of the walk
    over the states in order, each state's free targets in increasing
    order, the lowest set bits of its mask.  None that could survive is
    missed: an unspared target of a state, keyed (s + len(spare), rank,
    t), has a larger key than every target before it in the walk, spared
    or not, and it survives only if fewer than beam_width come before it.
    Each survivor copies its parent's mapping, O(n), so a beam over n
    atoms does O(beam_width*n^2) work."""
    n = r1.algebra.size
    edges = list(zip(r1.gens, map(perm_inverse, r1.gens), r2.gens, map(perm_inverse, r2.gens)))
    states: list[tuple[int, int, tuple[int, ...], int]] = [(0, 0, (), (1 << n) - 1)]
    for x in range(n):
        # placed neighbors y of x, each with the map from y's target to the
        # one target of x that keeps the edge
        spare = [(ig2, g1[x]) for g1, _, _, ig2 in edges if g1[x] < x]
        spare += [(g2, ig1[x]) for _, ig1, g2, _ in edges if ig1[x] < x]
        grown: list[tuple[int, int, int, int]] = []
        unwalked = beam_width
        for i, (score, rank, mapping, free) in enumerate(states):
            worst = score + len(spare)
            spared: dict[int, int] = {}  # spared target -> its score
            for keep, y in spare:
                t = keep[mapping[y]]
                spared[t] = spared.get(t, worst) - 1
            for t, p in spared.items():
                if free >> t & 1:
                    grown.append((p, rank, t, i))
            while unwalked and free:  # past the walk, only spared targets
                low = free & -free
                free ^= low
                unwalked -= 1
                t = low.bit_length() - 1
                if t not in spared:
                    grown.append((worst, rank, t, i))
        grown.sort()
        del grown[beam_width:]
        grown.sort(key=itemgetter(1, 2))  # by (parent rank, t): the new ranks
        parents, states = states, []
        for rank, (score, _, t, i) in enumerate(grown):
            _, _, mapping, free = parents[i]
            states.append((score, rank, mapping + (t,), free ^ 1 << t))
        states.sort()  # (score, rank) is unique: mappings are never compared
    return states[0][2]
