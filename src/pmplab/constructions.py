"""Constructive kernels: partition matching, extension of partial
automorphisms, ergodization, quotient actions of marked groups and
embeddings into them, and approximate conjugacy search.

Everything here returns explicit witnesses (permutations, refined algebras,
block correspondences) whose claimed properties can be re-verified exactly
with the metrics from the algebra and action modules.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Optional, Sequence

from .algebra import (
    ZERO,
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
    _cycle_distance,
    apply_perm_event,
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
    BoundViolated,
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
from .limits import MAX_GROUP_ORDER, _check_beam_steps, _check_group_order
from .record import Record

# ---------------------------------------------------------------------------
# block correspondences


class PartialIsomorphism(Record):
    """A partial mass-preserving correspondence given by block pairs.

    Source blocks are pairwise disjoint atom sets of the source algebra,
    target blocks likewise in the target algebra, and paired blocks have
    equal mass.  A total correspondence whose source blocks are singletons
    covering the source acts as an embedding.

    Construct through .of.  The library's builders (eppa_extend,
    embed_into_profinite_tensor, and extend_partial_step once its new source
    block is checked) build instances directly, from blocks that are
    disjoint and of equal mass by construction.
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
    strict bound is preserved.

    Only the new source block is checked: it must be disjoint from p's
    source blocks, else NotMassPreserving.  The rest holds by construction.
    The lifted old targets are the matching's b_lifted, h(lift(g(b))) block
    by block, so h(lift(g(newsource))) is disjoint from them when newsource
    is disjoint from every b, g and h being bijections.  Each block keeps
    its mass, since g and h preserve mass and lifting keeps it."""
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
    new = frozenset(newsource.members)
    if any(new & src for src, _tgt in p.pairs):
        raise NotMassPreserving("blocks of a partial isomorphism overlap")
    # the lifted c is the matching's b_lifted: block by block, in pair order
    pairs = tuple(
        (src, frozenset(lifted.members))
        for (src, _tgt), lifted in zip(p.pairs, matching.b_lifted.events)
    )
    extended = PartialIsomorphism(
        alg, matching.refined, pairs + ((new, frozenset(new_target.members)),)
    )
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

    @staticmethod
    def of(order: int, identity: int, right: Sequence[Sequence[int]]) -> MarkedGroup:
        """The group whose right Cayley graph the columns are, each a list of
        order elements (the readers check that shape), checked in O(k^2 order).

        rows(gen_images) raises NotGenerating if its walk misses an element.
        Then every column must be a permutation, and each left translation
        L_a, a marked, must commute with every column r_b; else
        InvalidGroupTable.  This is enough.  Let G be the group the columns
        generate.  Commuting gives L_a L_b(e) = r_b r_a(e), so products of
        the L_a reach every element from e.  An element of G fixing e then
        fixes every c(e) with c commuting with G: G is regular.  So the
        columns are right multiplication in G carried to the elements
        (x * y = g(x) where g(e) = y), and rows gives its true table."""
        group = MarkedGroup(order, identity, tuple(map(tuple, right)))
        if not 0 <= identity < order:
            raise InvalidGroupTable(f"identity {identity} is not one of the {order} elements")
        lefts = group.rows(group.gen_images)
        for column in group.right:
            if len(set(column)) != order or any(
                list(map(left.__getitem__, column)) != list(map(column.__getitem__, left))
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
        x looked up in right[i], a list for speed.  Raises NotGenerating
        when the walk misses an element."""
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


def validate_marked_group(
    mul: Sequence[Sequence[int]], gen_images: Sequence[int]
) -> MarkedGroup:
    """Full check of a table from outside: shape, identity, inverses and the
    generator range here, then generation and the group law on the
    generator columns (MarkedGroup.of), whose table must be this one."""
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
    group = MarkedGroup.of(order, identity, [[row[g] for row in table] for g in gens])
    if group.rows(range(order)) != table:
        raise InvalidGroupTable("multiplication is not associative")
    return group


def cyclic_group(n: int, images: Sequence[int]) -> MarkedGroup:
    """Z/n with marked generators given as residues, up to MAX_GROUP_ORDER."""
    if n < 1:
        raise InvalidGroupTable(f"cyclic group order must be >= 1, got {n}")
    _check_group_order(n)
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
    right Cayley graph the group keeps."""
    products = []

    def step(x, g):
        y = compose(x, g)
        products.append(y)
        return y

    elements, index = _breadth_first(identity, gens, step, MAX_GROUP_ORDER)
    order = len(elements)
    _check_group_order(order)
    k = len(gens)
    # right[g][x]: the walk composed element x with gens[g] at call x*k + g
    right = tuple(tuple([index[y] for y in products[g::k]]) for g in range(k))
    return MarkedGroup(order, 0, right), tuple(elements)


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
    n_units = alg.den
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

    action = FkAction(big, tuple(gens))
    # the runs are disjoint, and run i holds atom i's u_i units
    pairs = tuple((frozenset((i,)), frozenset(run)) for i, run in enumerate(runs))
    embedding = PartialIsomorphism(alg, big, pairs)
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

    if not act.gens and alg.size > 1:
        raise ValidationError(
            "ergodization needs at least one generator: with k = 0 each of the "
            f"{alg.size} atoms is its own orbit"
        )
    gens = [list(p) for p in act.gens]
    modifications = 0
    while True:
        current = FkAction(alg, tuple([tuple(p) for p in gens]))
        orbits = invariant_components(current).blocks
        if len(orbits) == 1:
            return Ergodization(current, modifications)
        first = orbits[0]
        swap = _find_merge_swap(gens, block_perms, fixed, block_index, first)
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
    block_perms: list[list[int]],
    fixed: AtomPartition,
    block_index: dict[int, int],
    first: frozenset[int],
) -> Optional[tuple[int, int, int]]:
    """Find (generator, image atom, outside atom) merging the first component.

    The image atom is where the generator sends the scanned component atom;
    the outside atom is the lowest atom of the same image block not in the
    component.  Swapping the two inside the generator keeps the induced block
    maps intact, so the image block of x's block is read from block_perms,
    the block maps ergodize built before any swap.

    With k >= 1 a swap always exists (ergodize refuses k = 0 on two or more
    atoms before it gets here).  If none is found, every generator
    maps the union U of the blocks that meet the first orbit C into C, and
    C lies in U.  A generator is a bijection, so it maps U onto C, and then
    C = U and U is an invariant union of blocks.  The swaps never change
    the block maps, so the precondition makes U the whole algebra, and C,
    the first orbit, is everything: the action was already transitive."""
    for gi, (p, bp) in enumerate(zip(gens, block_perms)):
        for x in sorted(first):
            image_block = fixed.blocks[bp[block_index[x]]]
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

    This is embed_into_profinite_tensor with one orbit: its trivial factor
    has one atom, so the product changes no atom, generator or sigma pair,
    and the factor is left out of the result."""
    if not _equal_atoms(act.algebra):
        raise UnequalAtoms("embedding requires all atoms of equal mass")
    if len(invariant_components(act).blocks) != 1:
        raise NotTransitive("action is not transitive on atoms")
    emb = embed_into_profinite_tensor(act)
    return QuotientEmbedding(emb.group, emb.elements, emb.target, emb.sigma)


def embed_into_profinite_tensor(act: FkAction) -> QuotientEmbedding:
    """Embed an equal-atom action into quotient action tensor trivial action.

    One trivial-factor atom per orbit, weighted by the orbit mass.  An atom
    c in orbit o maps to the set of pairs (gamma, o), target atoms gamma *
    len(orbits) + o, over group elements gamma sending the orbit's lowest
    atom to c; the mass of that set is exactly the atom mass, and left
    multiplication on the first coordinate intertwines the actions."""
    alg = act.algebra
    if not _equal_atoms(alg):
        raise UnequalAtoms("embedding requires all atoms of equal mass")
    orbits = invariant_components(act).blocks
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
    searches the m-fold equal splits of both
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
    den = lcm(act1.algebra.den, act2.algebra.den)
    base1, base_proj1 = _at_unit(act1, den)
    base2, base_proj2 = _at_unit(act2, den)
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
        iso = Isomorphism(r1.algebra, r2.algebra, mapping)
        eps = _conjugacy_defect(iso.mapping, r1, r2)
        projections = perm_compose(base_proj1, proj1), perm_compose(base_proj2, proj2)
        cert = ConjugacyCertificate(iso, eps, r1, r2, *projections, eps != 0)
        if best is None or cert.eps < best.eps:
            best = cert
        if best.eps == 0:
            return best
    return best


def _at_unit(act: FkAction, den: int) -> tuple[FkAction, tuple[int, ...]]:
    """act refined to atoms of mass 1/den, with its projection: act itself
    and the identity when its atoms already weigh 1/den, that is when it
    has den atoms and denominator den (its units are then all 1)."""
    alg = act.algebra
    if alg.size == alg.den == den:
        return act, tuple(range(den))
    return refine_action_to_unit(act, Fraction(1, den))


def _exact_assign(r1: FkAction, r2: FkAction) -> Optional[tuple[int, ...]]:
    """Exact conjugacy of r1 onto r2, placed one orbit of r1 at a time.

    Orbits are taken by least atom and walked as in _orbit_walks.  A walk's
    root tries the unused targets in increasing order; every later atom is
    forced by the placed atom it is reached from, and every generator edge
    x -> g(x) is checked, fixed points included, which checks the inverse
    edges too.  An exact conjugacy maps each orbit onto an isomorphic orbit,
    and isomorphic orbits are interchangeable, so a placed orbit is never
    revisited: the search takes O(n^2 k) steps, is complete, and returns
    None only when no exact conjugacy exists."""
    n = r1.algebra.size
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
