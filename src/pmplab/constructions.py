"""Constructive kernels: partition matching, extension of partial
automorphisms, ergodization, quotient actions of marked groups and
embeddings into them, and approximate conjugacy search.

Everything here returns explicit witnesses (permutations, refined algebras,
block correspondences) whose claimed properties can be re-verified exactly
with the metrics from the algebra and action modules.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .algebra import (
    AtomPartition,
    Event,
    EventTuple,
    MeasuredAlgebra,
    Sign,
    _runs,
    _sign_map,
    _split,
    _unit_law,
    dist_partition,
    lift_event,
    lift_tuple,
    refine_to_unit,
    uniform_algebra,
    validate_algebra,
)
from .action import (
    FkAction,
    Perm,
    _breadth_first,
    apply_perm_event,
    extensions,
    invariant_components,
    perm_compose,
    perm_identity,
    perm_inverse,
    product_action,
    refine_action_to_unit,
    uniform_distance_tuples,
    validate_action,
)
from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    BoundViolated,
    InstanceTooLarge,
    InvalidGroupTable,
    LPInternal,
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
    MAX_GROUP_ORDER,
    _check_beam_steps,
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

    def source_events(self) -> EventTuple:
        return EventTuple(
            self.source,
            tuple(Event(self.source, tuple(sorted(s))) for s, _ in self.pairs),
        )

    def target_events(self) -> EventTuple:
        return EventTuple(
            self.target,
            tuple(Event(self.target, tuple(sorted(t))) for _, t in self.pairs),
        )

    def atom_blocks(self) -> dict[int, frozenset[int]]:
        """Source-atom to target-block map; requires singleton source blocks."""
        out: dict[int, frozenset[int]] = {}
        for src, tgt in self.pairs:
            if len(src) != 1:
                raise NotMassPreserving("source blocks are not singletons")
            out[next(iter(src))] = tgt
        return out

    def map_event(self, e: Event) -> Event:
        """Image of an event that is a union of source blocks."""
        members = set(e.members)
        image: set[int] = set()
        for src, tgt in self.pairs:
            if src <= members:
                image |= tgt
                members -= src
        if members:
            raise AlgebraMismatch("event is not a union of source blocks")
        return Event(self.target, tuple(sorted(image)))

    def map_tuple(self, t: EventTuple) -> EventTuple:
        return EventTuple(self.target, tuple(self.map_event(e) for e in t.events))


class Isomorphism(Record):
    """A total atom-to-atom mass-preserving bijection between two algebras."""

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

    perm acts on refined, maps the lifted a to the lifted b event by event,
    moves only atoms where the two sign maps disagree, and satisfies
    uniform_distance(perm, id) <= dp = dist_partition(a, b)."""

    refined: MeasuredAlgebra
    projection: tuple[int, ...]
    perm: Perm
    dp: Fraction
    a_lifted: EventTuple
    b_lifted: EventTuple


def match_partitions(a: EventTuple, b: EventTuple) -> Matching:
    """Build an automorphism g of a refinement with g(a) = b eventwise.

    Requires a and b equidistributed (equal cell-mass vectors).  Every atom
    on which the sign maps of a and b disagree is split into equal-mass
    rational fragments of one global unit; within each sign vector s the
    fragments leaving cell s under a are paired lexicographically with those
    entering cell s under b, and all other atoms stay fixed.  The pairing
    moves exactly the disagreement mass, so the uniform distance of g from
    the identity is at most dist_partition(a, b).  Raises InstanceTooLarge,
    before splitting anything, when the refinement would pass
    MAX_REFINED_ATOMS atoms."""
    if a.algebra.id != b.algebra.id:
        raise AlgebraMismatch("tuples live on different algebras")
    if a.arity != b.arity:
        raise ArityMismatch(f"tuples have arities {a.arity} and {b.arity}")
    alg = a.algebra
    sa = _sign_map(a)
    sb = _sign_map(b)
    # Only the cells that occur: every atom has positive mass, so an empty
    # cell has mass 0 under both tuples and never needs comparing.  Masses
    # are in the algebra's integer units.
    cells = _unit_law(a)
    if cells != _unit_law(b):
        raise TypeMismatch("tuples are not equidistributed: cell masses differ")

    units, den = alg.units, alg.den
    moving = [x for x in range(alg.size) if sa[x] != sb[x]]
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

    leaving: dict[Sign, list[int]] = {}
    entering: dict[Sign, list[int]] = {}
    for x in moving:
        leaving.setdefault(sa[x], []).extend(fragments[x])
        entering.setdefault(sb[x], []).extend(fragments[x])
    perm = list(range(refined.size))
    for (s,) in sorted(cells):
        sources = leaving.get(s, [])
        targets = entering.get(s, [])
        if len(sources) != len(targets):
            raise LPInternal("fragment counts disagree within a sign vector")
        for src, tgt in zip(sources, targets):
            perm[src] = tgt

    a_lifted = lift_tuple(a, refined, projection)
    b_lifted = lift_tuple(b, refined, projection)
    g = tuple(perm)
    for ea, eb in zip(a_lifted.events, b_lifted.events):
        if apply_perm_event(g, ea).members != eb.members:
            raise LPInternal("matching permutation does not carry a onto b")
    return Matching(refined, projection, g, dp, a_lifted, b_lifted)


class PartialExtension(Record):
    """Result of one extension step: the grown correspondence, the target
    refinement it lives on, and the (unchanged) partition-metric defect."""

    partial: PartialIsomorphism
    refined: MeasuredAlgebra
    projection: tuple[int, ...]
    defect: Fraction


def extend_partial_step(
    alg: MeasuredAlgebra,
    g: Perm,
    p: PartialIsomorphism,
    newsource: Event,
    bound: Fraction,
) -> PartialExtension:
    """Extend a partial correspondence by one source block.

    p maps source blocks b to target blocks c inside the one ambient algebra
    alg; g is an ambient automorphism with dist_partition(g(b), c) < bound.
    A matching automorphism h carrying g(b) onto c exactly is built on a
    refinement, and the new target is h(g(newsource)).  The extended
    correspondence has exactly equal cell masses and the same defect, so the
    strict bound is preserved."""
    if p.source.id != alg.id or p.target.id != alg.id:
        raise AlgebraMismatch("partial correspondence must live on the ambient algebra")
    if newsource.algebra.id != alg.id:
        raise AlgebraMismatch("new source block must live on the ambient algebra")
    b = p.source_events()
    c = p.target_events()
    gb = EventTuple(alg, tuple(apply_perm_event(g, e) for e in b.events))
    defect = dist_partition(gb, c)
    if defect >= bound:
        raise BoundViolated(f"current defect {defect} is not below the bound {bound}")
    matching = match_partitions(gb, c)
    g_new = apply_perm_event(g, newsource)
    g_new_lifted = lift_event(g_new, matching.refined, matching.projection)
    new_target = apply_perm_event(matching.perm, g_new_lifted)
    # the lifted c is the matching's b_lifted: block by block, in pair order
    pairs = [
        (tuple(src), lifted.members)
        for (src, _tgt), lifted in zip(p.pairs, matching.b_lifted.events)
    ]
    pairs.append((tuple(newsource.members), tuple(new_target.members)))
    extended = PartialIsomorphism.of(alg, matching.refined, pairs)
    return PartialExtension(extended, matching.refined, matching.projection, defect)


# ---------------------------------------------------------------------------
# marked groups


class MarkedGroup(Record):
    """A finite group with k marked generators, kept as its right Cayley
    graph: right[i][x] is the index of x * g_i.  Elements are 0-based
    indices, and the marked generators generate the whole group."""

    order: int
    identity: int
    right: tuple[tuple[int, ...], ...]

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
        x looked up in right[i], a list for speed."""
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
        return tuple(zip(*columns))


def validate_marked_group(
    mul: Sequence[Sequence[int]], gen_images: Sequence[int]
) -> MarkedGroup:
    """Full check of a table from outside: shape, identity, inverses,
    generation, associativity.

    Associativity is tested only against the marked generators, in
    O(k order^2): let S be the set of z with (xy)z = x(yz) for all x, y.
    The identity is in S.  If a and g are in S then so is ag, since
    (xy)(ag) = ((xy)a)g = (x(ya))g = x((ya)g) = x(y(ag)).  Once the
    generation check has passed, every element is a product
    (...(e g1) g2 ...) gn of marked generators, so every element is in S."""
    order = len(mul)
    if order == 0:
        raise InvalidGroupTable("empty multiplication table")
    table = tuple(tuple(row) for row in mul)
    for row in table:
        if len(row) != order or any(not 0 <= v < order for v in row):
            raise InvalidGroupTable("multiplication table is not square over the elements")
    identity = None
    for e in range(order):
        if all(table[e][x] == x and table[x][e] == x for x in range(order)):
            identity = e
            break
    if identity is None:
        raise InvalidGroupTable("no identity element")
    for x in range(order):
        if not any(
            table[x][y] == identity and table[y][x] == identity for y in range(order)
        ):
            raise InvalidGroupTable(f"element {x} has no inverse")
    gens = tuple(gen_images)
    for g in gens:
        if not 0 <= g < order:
            raise InvalidGroupTable(f"generator image {g} out of range")
    reached, _ = _breadth_first(identity, gens, lambda x, g: table[x][g])
    if len(reached) != order:
        raise NotGenerating(
            f"marked generators reach only {len(reached)} of {order} elements"
        )
    for x in range(order):
        for y in range(order):
            xy, row_y = table[table[x][y]], table[y]
            for g in gens:
                if xy[g] != table[x][row_y[g]]:
                    raise InvalidGroupTable("multiplication is not associative")
    return MarkedGroup(order, identity, tuple(tuple(row[g] for row in table) for g in gens))


def cyclic_group(n: int, images: Sequence[int]) -> MarkedGroup:
    """Z/n with marked generators given as residues, up to MAX_GROUP_ORDER."""
    if n < 1:
        raise InvalidGroupTable(f"cyclic group order must be >= 1, got {n}")
    if n > MAX_GROUP_ORDER:
        raise InstanceTooLarge(f"group has more than {MAX_GROUP_ORDER} elements")
    gens = tuple(i % n for i in images)
    reached = n // gcd(n, *gens)
    if reached != n:
        raise NotGenerating(f"marked generators reach only {reached} of {n} elements")
    row = tuple(range(n))
    return MarkedGroup(n, 0, tuple(row[g:] + row[:g] for g in gens))


def _generated_group(identity, gens, compose) -> tuple[MarkedGroup, list]:
    """The group generated by gens under compose, enumerated breadth-first
    from the identity by multiplying on the right by the generators in
    order; element i of the returned list is group element i.

    The walk records right[g][x], the index of x * gens[g], for every
    element: order * k compositions, the only ones made, and exactly the
    right Cayley graph the group keeps."""
    products = []

    def step(x, g):
        y = compose(x, g)
        products.append(y)
        return y

    elements, index = _breadth_first(identity, gens, step, MAX_GROUP_ORDER)
    order = len(elements)
    if order > MAX_GROUP_ORDER:
        raise InstanceTooLarge(f"group has more than {MAX_GROUP_ORDER} elements")
    k = len(gens)
    # right[g][x]: the walk composed element x with gens[g] at call x*k + g
    right = tuple(tuple([index[y] for y in products[g::k]]) for g in range(k))
    return MarkedGroup(order, 0, right), elements


def permutation_marked_group(
    perms: Sequence[Sequence[int]],
) -> tuple[MarkedGroup, tuple[Perm, ...]]:
    """The permutation group generated by the given permutations.

    Elements are enumerated breadth-first from the identity, multiplying on
    the right by the generators in order; the element list is returned
    alongside the abstract marked group, and indices follow discovery order
    with the identity first.  Raises InstanceTooLarge beyond MAX_GROUP_ORDER
    elements."""
    if not perms:
        raise InvalidGroupTable("need at least one generator permutation")
    degree = len(perms[0])
    gens: list[Perm] = []
    for p in perms:
        q = tuple(p)
        if len(q) != degree or sorted(q) != list(range(degree)):
            raise NotBijective("generator is not a permutation")
        gens.append(q)
    group, elements = _generated_group(perm_identity(degree), gens, perm_compose)
    return group, tuple(elements)


# ---------------------------------------------------------------------------
# quotient actions


def quotient_action(group: MarkedGroup) -> FkAction:
    """The action on the group's uniform measure by left multiplication.

    Atom x is group element x with mass 1/order; generator i sends x to
    gen_images[i] * x, the table rows of the marked generators.  The action
    is transitive because the marked generators generate."""
    alg = uniform_algebra(group.order)
    return validate_action(alg, group.rows(group.gen_images))


class JointQuotient(Record):
    """The subgroup of a direct product generated by paired generators,
    with the coordinate projections recorded per element."""

    group: MarkedGroup
    proj1: tuple[int, ...]
    proj2: tuple[int, ...]


def joint_quotient(g1: MarkedGroup, g2: MarkedGroup) -> JointQuotient:
    """Subgroup of g1 x g2 generated by (gen_i, gen_i) pairs.

    Elements are discovered breadth-first from the identity pair along both
    right Cayley graphs; the resulting quotient action factors onto both
    quotient actions through the recorded projections."""
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
    """An equal-atom algebra, an action extending the partial automorphisms,
    and the blockwise embedding of the original algebra."""

    algebra: MeasuredAlgebra
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
    MAX_REFINED_ATOMS units."""
    for p in partials:
        if p.source.id != alg.id or p.target.id != alg.id:
            raise AlgebraMismatch("partials must map the given algebra to itself")
    n_units = alg.denominator_lcm()
    big, projection = refine_to_unit(alg, Fraction(1, n_units))
    runs = _runs(projection)

    gens: list[Perm] = []
    for p in partials:
        image: list[Optional[int]] = [None] * n_units
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

    action = validate_action(big, gens)
    embedding = PartialIsomorphism.of(alg, big, [((i,), runs[i]) for i in range(alg.size)])
    return EppaExtension(big, action, embedding)


# ---------------------------------------------------------------------------
# ergodization


class Ergodization(Record):
    """A transitive action obtained by composing generators with atom swaps,
    together with the number of swaps applied."""

    action: FkAction
    modifications: int


def _equal_atoms(alg: MeasuredAlgebra) -> bool:
    """Whether all atoms of alg have one mass: ergodization and both
    embeddings require it."""
    return len(set(alg.units)) == 1


def ergodize(act: FkAction, fixed: AtomPartition) -> Ergodization:
    """Make an equal-atom action transitive without disturbing a subalgebra.

    fixed is a partition whose blocks every generator must map onto blocks,
    with no nontrivial union of blocks invariant under all generators.  While
    the action has several orbit components, the first component is merged
    into another by one involution: scan generators and component atoms in
    increasing order for an image block that leaves the component, and swap
    the image atom with the lowest-index atom outside.  Each swap happens
    inside one image block, so the induced maps on the blocks never change;
    at most (number of components - 1) swaps are applied."""
    alg = act.algebra
    if fixed.algebra.id != alg.id:
        raise AlgebraMismatch("fixed partition does not live on the action's algebra")
    if not _equal_atoms(alg):
        raise UnequalAtoms("ergodization requires all atoms of equal mass")
    block_index = fixed.block_index()
    block_perms: list[list[int]] = []
    for p in act.gens:
        bp = [-1] * len(fixed.blocks)
        for bi, block in enumerate(fixed.blocks):
            image = frozenset(p[x] for x in block)
            if image not in fixed.blocks:
                raise PartitionNotPreserved(
                    f"generator image of block {sorted(block)} is not a block"
                )
            bp[bi] = fixed.blocks.index(image)
        block_perms.append(bp)

    # The inverse of a block permutation is one of its powers, so the
    # forward maps alone reach every block connected to block 0.
    reached, _ = _breadth_first(0, block_perms, lambda b, bp: bp[b])
    if len(reached) != len(fixed.blocks):
        element = tuple(sorted(x for bi in reached for x in fixed.blocks[bi]))
        raise PreconditionInvariantElement(
            "a nontrivial union of fixed blocks is invariant under all generators",
            element,
        )

    gens = [list(p) for p in act.gens]
    modifications = 0
    while True:
        current = validate_action(alg, [tuple(p) for p in gens])
        comps = invariant_components(current).components
        if len(comps) == 1:
            return Ergodization(current, modifications)
        first = comps[0]
        swap = _find_merge_swap(gens, fixed, block_index, first)
        if swap is None:
            raise LPInternal("no merging swap found despite precondition")
        gi, u, v = swap
        p = gens[gi]
        pu = p.index(u)
        pv = p.index(v)
        p[pu], p[pv] = v, u
        modifications += 1


def _find_merge_swap(
    gens: list[list[int]],
    fixed: AtomPartition,
    block_index: dict[int, int],
    first: frozenset[int],
) -> Optional[tuple[int, int, int]]:
    """Find (generator, image atom, outside atom) merging the first component.

    The image atom is where the generator sends the scanned component atom;
    the outside atom is the lowest atom of the same image block not in the
    component.  Swapping the two inside the generator keeps the induced block
    maps intact."""
    for gi, p in enumerate(gens):
        for x in sorted(first):
            block = fixed.blocks[block_index[x]]
            image_block = frozenset(p[y] for y in block)
            outside = sorted(y for y in image_block if y not in first)
            if outside:
                return gi, p[x], outside[0]
    return None


# ---------------------------------------------------------------------------
# embeddings into quotient systems


class QuotientEmbedding(Record):
    """An exact embedding of an action into a quotient (or quotient tensor
    trivial) action, with the generated permutation group and its elements."""

    group: MarkedGroup
    elements: tuple[Perm, ...]
    target: FkAction
    sigma: PartialIsomorphism
    base_factor: Optional[MeasuredAlgebra] = None


def embed_transitive_into_quotient(act: FkAction) -> QuotientEmbedding:
    """Embed a transitive equal-atom action into the quotient action of the
    permutation group its generators generate.

    With base atom o the lowest atom, atom c maps to the set of group
    elements sending o to c; left multiplication by a generator permutes
    these sets exactly as the generator permutes atoms."""
    alg = act.algebra
    if not _equal_atoms(alg):
        raise UnequalAtoms("embedding requires all atoms of equal mass")
    if not invariant_components(act).ergodic:
        raise NotTransitive("action is not transitive on atoms")
    group, elements = permutation_marked_group(act.gens)
    target = quotient_action(group)
    sigma = _coset_sigma(act, target, elements, [frozenset(range(alg.size))])
    return QuotientEmbedding(group, elements, target, sigma)


def embed_into_profinite_tensor(act: FkAction) -> QuotientEmbedding:
    """Embed an equal-atom action into quotient action tensor trivial action.

    One trivial-factor atom per orbit component, weighted by the component
    mass.  An atom c in component o maps to the set of pairs (gamma, o) over
    group elements gamma sending the component's lowest atom to c; the mass
    of that set is exactly the atom mass, and left multiplication on the
    first coordinate intertwines the actions."""
    alg = act.algebra
    if not _equal_atoms(alg):
        raise UnequalAtoms("embedding requires all atoms of equal mass")
    comps = invariant_components(act).components
    base_factor = validate_algebra([alg.mass_of(c) for c in comps])
    group, elements = permutation_marked_group(act.gens)
    target = product_action(quotient_action(group), base_factor)[0]
    sigma = _coset_sigma(act, target, elements, comps)
    return QuotientEmbedding(group, elements, target, sigma, base_factor)


def _coset_sigma(
    act: FkAction, target: FkAction, elements: Sequence[Perm], comps: Sequence[frozenset[int]]
) -> PartialIsomorphism:
    """Atom c of orbit component o goes to the target atoms gamma * len(comps)
    + o over the group elements gamma sending o's lowest atom to c.  A
    transitive action is one component, and the target has no factor."""
    width = len(comps)
    images: list[list[int]] = [[] for _ in range(act.algebra.size)]
    for oi, comp in enumerate(comps):
        base_atom = min(comp)
        for g, e in enumerate(elements):
            images[e[base_atom]].append(g * width + oi)
    pairs = [((c,), tuple(gammas)) for c, gammas in enumerate(images)]
    return PartialIsomorphism.of(act.algebra, target.algebra, pairs)


# ---------------------------------------------------------------------------
# approximate conjugacy search


class ConjugacyCertificate(Record):
    """An explicit isomorphism between uniform refinements of two actions and
    its exact defect.

    eps equals max over generators of the uniform distance between the
    conjugated generator and its counterpart, recomputed from the mapping.
    exhausted is eps != 0.  The exact phase is complete, so a positive eps
    means no exact conjugacy exists at the refinement depths tried.  eps
    itself is an upper bound on the least defect, not a refutation of
    closer conjugacies at finer refinements."""

    iso: Isomorphism
    eps: Fraction
    act1_refined: FkAction
    act2_refined: FkAction
    projection1: tuple[int, ...]
    projection2: tuple[int, ...]
    exhausted: bool


def verify_conjugacy(cert: ConjugacyCertificate) -> Fraction:
    """Recompute the certificate defect from scratch."""
    return _conjugacy_defect(cert.iso.mapping, cert.act1_refined, cert.act2_refined)


def _conjugacy_defect(h: Perm, r1: FkAction, r2: FkAction) -> Fraction:
    """max over generators of the uniform distance between h g1 h^-1 and g2."""
    hinv = perm_inverse(h)
    conjugates = [perm_compose(h, perm_compose(g1, hinv)) for g1 in r1.gens]
    return uniform_distance_tuples(r2.algebra, conjugates, r2.gens)


def approx_conjugacy_search(
    act1: FkAction, act2: FkAction, max_refine: int = 1, beam_width: int = 16
) -> ConjugacyCertificate:
    """Search for a near-conjugacy between two actions.

    Both actions are refined once to the common unit 1/L, L = lcm(D1, D2),
    and depth m = 1..max_refine searches the m-fold equal splits of both
    (action.extensions, which checks max_refine and the summed atoms): the
    unit refinements to 1/(L*m), whose projections are the base projection
    composed with the depth's.  At depth 1 a complete search first looks
    for an exact conjugacy (zero broken generator edges), one orbit at a
    time.  It runs at depth 1 only: depth m is m disjoint copies of the
    depth-1 refinements, and a finite F_k-set splits uniquely into orbits,
    so m copies of X are isomorphic to m copies of Y exactly when X is to
    Y; a depth-1 failure is a failure at every depth.  At every depth with
    no exact conjugacy, a beam search builds the atom bijection greedily:
    source atoms in increasing order, candidate targets scored by the
    number of generator edges they break among decided atoms, ties to the
    lexicographically smallest mapping.  Over uniform atoms this is the
    one-block extension step with mass bookkeeping trivial.  The reported
    eps is recomputed exactly from the returned mapping, and the search
    stops early when it reaches zero.  A positive eps proves that no exact
    conjugacy exists at the depths tried; it is an upper bound on the least
    defect there, and the beam's optimality is never claimed.  A beam over
    n atoms is counted as beam_width*n^2 steps, a bound on its work and not
    the work it does; before each beam the steps summed over the beams run
    so far, this one included, are checked against MAX_BEAM_STEPS."""
    if act1.k != act2.k:
        raise ArityMismatch(f"actions have {act1.k} and {act2.k} generators")
    unit = Fraction(1, lcm(act1.algebra.den, act2.algebra.den))
    base1, base_proj1 = refine_action_to_unit(act1, unit)
    base2, base_proj2 = refine_action_to_unit(act2, unit)
    depths = zip(extensions(base1, max_refine), extensions(base2, max_refine))
    if beam_width < 1:
        raise ValidationError(f"beam_width must be >= 1, got {beam_width}")
    beam_steps = 0
    best: Optional[ConjugacyCertificate] = None
    for depth, ((r1, proj1), (r2, proj2)) in enumerate(depths, 1):
        n = r1.algebra.size
        mapping = _exact_assign(r1, r2) if depth == 1 else None
        if mapping is None:
            beam_steps += beam_width * n * n
            _check_beam_steps(beam_steps)
            mapping = _beam_assign(r1, r2, beam_width)
        iso = Isomorphism.of(r1.algebra, r2.algebra, mapping)
        eps = _conjugacy_defect(iso.mapping, r1, r2)
        projections = perm_compose(base_proj1, proj1), perm_compose(base_proj2, proj2)
        cert = ConjugacyCertificate(iso, eps, r1, r2, *projections, eps != 0)
        if best is None or cert.eps < best.eps:
            best = cert
        if best.eps == 0:
            return best
    return best


def _exact_assign(r1: FkAction, r2: FkAction) -> Optional[tuple[int, ...]]:
    """Exact conjugacy of r1 onto r2, placed one orbit of r1 at a time.

    Orbits are taken by least atom and walked as in _orbit_walks.  A walk's
    root tries the unused targets in increasing order; every later atom is
    forced by the placed neighbor it is reached from, and every generator
    edge is checked, fixed points included.  An exact conjugacy maps each
    orbit onto an isomorphic orbit, and isomorphic orbits are
    interchangeable, so a placed orbit is never revisited: the search takes
    O(n^2 k) steps, is complete, and returns None only when no exact
    conjugacy exists."""
    n = r1.algebra.size
    mapping = [-1] * n
    used = [False] * n
    perms = list(zip(r1.gens + r1.inv_gens, r2.gens + r2.inv_gens))

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

    for root in range(n):
        if mapping[root] < 0 and not any(
            place(root, t) for t in range(n) if not used[t]
        ):
            return None
    return tuple(mapping)


def _beam_assign(r1: FkAction, r2: FkAction, beam_width: int) -> tuple[int, ...]:
    """Greedy beam assignment of source atoms to target atoms.

    Source atoms are placed in increasing order.  Placing x on t keeps the
    edge from x to a placed y = g1[x] only when g2[t] = mapping[y], and the
    edge from a placed z = g1^-1[x] to x only when t = g2[mapping[z]]; each
    placed neighbor spares exactly one target, so a free target of a state
    of score s scores s + len(spare) less the neighbors sparing it.
    Candidates are kept as (score, parent mapping, t, parent's free
    targets): no two share their first three entries, so the fourth is
    never compared, and all parents have the same length, so this orders
    them as (score, parent mapping + (t,)) would.  The beam_width survivors
    are taken with heapq.nsmallest.

    Only two kinds of candidate are ranked: each state's spared free
    targets, at most 2k, and the first beam_width free targets of the walk
    over the states in order, each state's free targets in increasing
    order.  None that could survive is missed: the states are sorted and
    distinct, so an unspared target, keyed (s + len(spare), mapping, t),
    has a larger key than every target before it in the walk, spared or
    not, and it survives only if fewer than beam_width come before it.
    Each state keeps its free targets as a sorted tuple, copied only for
    the survivors."""
    n = r1.algebra.size
    edges = list(zip(r1.gens, r1.inv_gens, r2.gens, r2.inv_gens))
    states: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = [
        (0, (), tuple(range(n)))
    ]
    for x in range(n):
        # placed neighbors y of x, each with the map from y's target to the
        # one target of x that keeps the edge
        spare = [(ig2, g1[x]) for g1, _, _, ig2 in edges if g1[x] < x]
        spare += [(g2, ig1[x]) for _, ig1, g2, _ in edges if ig1[x] < x]
        grown: list[tuple[int, tuple[int, ...], int, tuple[int, ...]]] = []
        unwalked = beam_width
        for score, mapping, free in states:
            worst = score + len(spare)
            spared: dict[int, int] = {}  # spared target -> its score
            for keep, y in spare:
                t = keep[mapping[y]]
                spared[t] = spared.get(t, worst) - 1
            for t, p in spared.items():
                i = bisect_left(free, t)
                if i < len(free) and free[i] == t:
                    grown.append((p, mapping, t, free))
            if unwalked:  # past the walk, a state adds only its spared targets
                head = free[:unwalked]
                grown += [(worst, mapping, t, free) for t in head if t not in spared]
                unwalked -= len(head)
        states = []
        for score, mapping, t, free in heapq.nsmallest(beam_width, grown):
            i = bisect_left(free, t)
            states.append((score, mapping + (t,), free[:i] + free[i + 1 :]))
    return states[0][1]
