"""Closure-condition audits for finite actions.

The first condition compares each pushed parameter against its stated image
and measures conditional independence defects; the second searches for a
realizing tuple whose orbit under the generators reproduces a target family
within twice a tolerance.  The residual combines both into a certified upper
bound that is zero exactly when the search exhibits a witness good enough
for the implication between them.  A separate check measures, inside an
extension, how well tuples from the small system can imitate the triple
intersection pattern of tuples from the large one.

All searches are deterministic: exhaustive in lexicographic order when the
candidate space is small, otherwise steepest-descent toggling from a fixed
seed.  The best value seen is an upper bound.  The second condition also
has a floor that measure preservation alone gives: coarsening both joint
laws to one bit, whether an atom lies in g_i(c_j) or in b_ij, cannot raise
their distance, and g_i(c_j) weighs what c_j weighs.  Each depth's floor
ends its scan at the first candidate that reaches it, and a floor over
every extension ends the search over depths and can refute a witness.

One driver runs every search.  Each audit gives it a scorer that holds one
candidate tuple and changes it in place.  A toggle, one atom of one
coordinate, is one flat index coord * size + atom; walk applies toggles in
order and returns each new score, and peek returns the score of one toggle
and leaves the tuple as it was.  Scores are integers, in units of one
common denominator per depth.  The exhaustive scan walks blocks of
candidates in Gray-code order, one walk call per block and about one toggle
per candidate, and returns what a scan in lexicographic order would; the
descent peeks at every toggle and walks only the one it takes.  The
second-condition scorer updates only the k + 1 atoms a toggle moves, so a
toggle costs O(k) however large the refinement; the extension scorer
recomputes its small pattern with the kernel that gives its target.  Each
depth turns its best score into one Fraction, equal to what c2_distance
(or the triple pattern in masses) would give.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm
from operator import sub, xor
from typing import Sequence

from .algebra import (
    ZERO,
    EventTuple,
    _sign_map,
    joint_distribution,
    lift_tuple,
    uniform_algebra,
)
from .action import (
    FkAction,
    Word,
    _word_perm,
    apply_gen_tuple,
    product_action,
)
from .constructions import PartialIsomorphism
from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    EmbeddingNotEquivariant,
    NonpositiveEps,
    ValidationError,
    WrongTupleCount,
)
from .limits import EXHAUSTIVE_TUPLE_CAP, GREEDY_ROUNDS, _check_summed_refinement
from .modeltheory import (
    independence_deficiency,
    joint_tv_distance,
    type_distance,
)
from .record import Record

_GRAY_BITS = 6  # low index bits an exhaustive scan walks in Gray-code order
_DENSE_KEY_BITS = 16  # the C2 residuals are a list up to this many key bits


# ---------------------------------------------------------------------------
# first closure condition


class C1Report(Record):
    """Pushforward distances and independence defects for one instance.

    xi[i-1] measures how far the i-th parameter is from the pushed base
    parameter; psi[0] measures dependence of the base parameter on the full
    generator orbit of the anchor; psi[i] the analogous defect for the i-th
    parameter.  satisfied holds when every quantity is strictly below eps."""

    xi: tuple[Fraction, ...]
    psi: tuple[Fraction, ...]
    eps: Fraction

    @property
    def worst(self) -> Fraction:
        """The largest quantity; psi always holds psi_0."""
        return max(self.xi + self.psi)

    @property
    def satisfied(self) -> bool:
        return self.worst < self.eps


def _check_depth(act: FkAction, max_refine: int) -> None:
    """Every depth 1..max_refine may be searched in turn, so the refined atoms
    summed over them, size*M*(M+1)/2, are checked against MAX_REFINED_ATOMS
    before any search starts: only arithmetic, nothing is built."""
    if max_refine < 1:
        raise ValidationError(f"max_refine must be >= 1, got {max_refine}")
    _check_summed_refinement(act.algebra.size, max_refine)


def _check_instance(
    act: FkAction, a: EventTuple, bs: Sequence[EventTuple], eps: Fraction
) -> tuple[EventTuple, ...]:
    if eps <= 0:
        raise NonpositiveEps(f"tolerance must be positive, got {eps}")
    if len(bs) != act.k + 1:
        raise WrongTupleCount(
            f"need {act.k + 1} parameter tuples for {act.k} generators, got {len(bs)}"
        )
    if a.algebra.id != act.algebra.id:
        raise AlgebraMismatch("anchor tuple does not live on the action's algebra")
    tuples = tuple(bs)
    arity = tuples[0].arity
    for b in tuples:
        if b.algebra.id != act.algebra.id:
            raise AlgebraMismatch("parameter tuple does not live on the action's algebra")
        if b.arity != arity:
            raise ArityMismatch(
                f"parameter tuples have arities {arity} and {b.arity}"
            )
    return tuples


def check_C1(
    act: FkAction,
    a: EventTuple,
    bs: Sequence[EventTuple],
    eps: Fraction,
    metric: str = "tv",
) -> C1Report:
    """Evaluate the first closure condition.

    For each generator i, xi_i is the type distance, over the pushed anchor,
    between the i-th parameter and the pushed base parameter.  psi_0 is the
    independence defect of the base parameter from the tuple of all pushed
    anchors over the anchor itself; psi_i the defect of the i-th parameter
    from the anchor joined with the other pushes, over the i-th push.

    metric selects the type distance for the xi values: "tv" (closed form,
    the default) or "max" (linear-program cross-check); any other name raises
    ValidationError.  The psi defects are total variation in both modes."""
    distance = type_distance(metric)
    tuples = _check_instance(act, a, bs, eps)
    b0 = tuples[0]
    k = act.k
    pushed = [apply_gen_tuple(act, i, a) for i in range(1, k + 1)]
    xi = tuple(
        distance(pushed[i - 1], tuples[i], apply_gen_tuple(act, i, b0))
        for i in range(1, k + 1)
    )
    orbit = pushed[0].concat(*pushed[1:]) if pushed else a
    psi = [independence_deficiency(a, b0, orbit)]
    for i in range(1, k + 1):
        others = a.concat(*pushed[: i - 1], *pushed[i:])
        psi.append(independence_deficiency(pushed[i - 1], tuples[i], others))
    return C1Report(xi, tuple(psi), eps)


# ---------------------------------------------------------------------------
# second closure condition: witness search


class C2Witness(Record):
    """A candidate tuple on a refined action and its exact distance.

    distance is the total-variation gap between the joint law of the anchor
    with the parameters and the joint law of the lifted anchor with the
    candidate and its pushes, recomputed exactly from c."""

    c: EventTuple
    distance: Fraction
    refinement_depth: int


class C2SearchResult(Record):
    """Search outcome: found marks distance < 2*eps, and the best witness
    seen is always reported, an upper bound on the least distance.

    lower_bound is a floor on the distance of every candidate in every
    measure-preserving extension, not only in the refinements searched:
    half the largest spread max_i mu(b_ij) - min_i mu(b_ij) over the
    coordinates j.  refuted marks lower_bound >= 2*eps, a proof that no
    extension holds a witness."""

    found: bool
    witness: C2Witness
    lower_bound: Fraction
    refuted: bool


def _orbit_tuple(act: FkAction, c: EventTuple) -> EventTuple:
    return c.concat(*[apply_gen_tuple(act, i, c) for i in range(1, act.k + 1)])


def c2_distance(
    act_refined: FkAction,
    a_lifted: EventTuple,
    target_joint,
    c: EventTuple,
) -> Fraction:
    """Distance of one candidate: joint law of (lifted anchor, c and pushes)
    against the target joint law of (anchor, parameters)."""
    jc = joint_distribution(a_lifted, _orbit_tuple(act_refined, c))
    return joint_tv_distance(target_joint, jc)


@lru_cache(maxsize=None)
def _gray_plan(size: int, arity: int):
    """The fixed step lists of an exhaustive scan over size*arity candidate
    bits, built once per shape: (low, places, first, entered, prefixes,
    codes).

    Candidate bit b is toggle places[b] = (arity-1 - b//size)*size + b%size.
    first walks block 0 from candidate 0, step t flipping low bit ctz(t);
    entered walks block h > 0, bit `low` first, after prefixes[ctz(h)] has
    flipped bits low+1 .. low+ctz(h) unscored.  A block starts at low value
    0 when h is even and at 2**(low-1) when h is odd, and codes[h & 1][t] is
    the low value after step t of entered; block 0 uses codes[0][1:].
    Only shapes with 2**(size*arity) <= EXHAUSTIVE_TUPLE_CAP are scanned,
    so the cache stays small."""
    n = size * arity
    low = min(n, _GRAY_BITS)
    places = tuple((arity - 1 - b // size) * size + b % size for b in range(n))
    bits = [(t & -t).bit_length() - 1 for t in range(1, 1 << low)]
    first = tuple(places[b] for b in bits)
    entered = ((places[low],) if low < n else ()) + first
    prefixes = tuple(places[low + 1 : low + 1 + t] for t in range(n - low))
    even = tuple(accumulate((1 << b for b in bits), xor, initial=0))
    odd = tuple(c ^ 1 << low - 1 for c in even)
    return low, places, first, entered, prefixes, (even, odd)


def _search_best(size: int, arity: int, scorer, stop_below):
    """Best candidate tuple by exhaustion or greedy descent.

    scorer is (walk, peek, start, scale, seed, floor) from a prepare
    function.  Toggle b = coord*size + atom flips one atom of one coordinate
    of the scorer's current tuple; walk(indices) applies toggles in order and
    returns the list of new integer scores, and peek(b) returns the score
    toggle b would give and changes nothing.  start is the score of the
    all-empty tuple, a score s stands for s/scale, seed starts the greedy
    descent, and no score is below floor >= 0.  Returns the best value, the
    one Fraction built, and its member tuple.

    Exhaustion applies when the total number of candidate tuples is at most
    EXHAUSTIVE_TUPLE_CAP.  Candidate i is the concatenated masks, coordinate
    0 most significant and atom j at bit j of its coordinate.  A hit is a
    score strictly below stop_below, or zero; it is below every score that
    is not a hit.  The result is the hit of least index, or with no hit the
    least (score, index): what a scan in lexicographic order returns that
    stops at its first hit.  A score equal to the floor counts as a hit as
    well, which changes no result: with a floor at or above the stop and
    above zero there is no true hit, and the first candidate at the floor
    is the least (score, index); with a lower floor such a candidate is a
    true hit anyway.  The scan runs in blocks of 2**L candidates that
    share the bits above the low L = min(size*arity, _GRAY_BITS).  The blocks
    come in order, one binary-counter step on the high bits apart; inside a
    block, step t flips low bit ctz(t), the reflected Gray code, which visits
    all 2**L low values once from any start.  So every candidate costs one
    toggle, plus one per block on average.  Each block is one walk call
    (see _gray_plan); its hits and its best come from min over its scores
    zipped with their low values, which earlier blocks never tie, having
    lower indices.  The scan ends with the first block that holds a hit and
    walks the scorer back to its least-index hit.

    Otherwise steepest descent from the seed toggles one atom of one
    coordinate at a time, scanned lexicographically: it peeks at every
    toggle and walks the first strict best, for at most GREEDY_ROUNDS
    rounds, and a descent at the floor stops, since no toggle can improve
    on it.  Scores are compared as integers: v < stop_below = p/q is v*q <
    p*scale, that is v < ceil(p*scale/q), and a hit is v < cut =
    max(ceil(p*scale/q), floor + 1), so a zero score is always a hit."""
    walk, peek, value, scale, seed, floor = scorer
    p, q = stop_below.numerator, stop_below.denominator
    cut = max(-(-p * scale // q), floor + 1)
    n = size * arity
    if 1 << n <= EXHAUSTIVE_TUPLE_CAP:
        best, best_i = value, 0
        if value >= cut and n:
            low, places, first, entered, prefixes, codes = _gray_plan(size, arity)
            for h in range(1 << n - low):
                if h:
                    prefix = prefixes[(h & -h).bit_length() - 1]
                    if prefix:
                        walk(prefix)
                    scores, lows = walk(entered), codes[h & 1]
                else:
                    scores, lows = walk(first), codes[0][1:]
                least = min(scores)
                if least < cut:
                    c, best = min((c, s) for s, c in zip(scores, lows) if s < cut)
                    best_i = h << low | c
                    undo = lows[-1] ^ c
                    walk([places[b] for b in range(low) if undo >> b & 1])
                    break
                if least < best:
                    best, c = min(zip(scores, lows))
                    best_i = h << low | c
        members = tuple(
            tuple(
                x for x in range(size)
                if best_i >> ((arity - 1 - coord) * size + x) & 1
            )
            for coord in range(arity)
        )
        return Fraction(best, scale), members
    current = [set(e) for e in seed]
    toggles = [coord * size + x for coord, event in enumerate(seed) for x in event]
    if toggles:
        value = walk(toggles)[-1]
    for _ in range(GREEDY_ROUNDS):
        if value <= floor:
            break
        scores = list(map(peek, range(n)))
        best = min(scores)
        if best >= value:
            break
        move = scores.index(best)
        [value] = walk((move,))
        current[move // size] ^= {move % size}
    return Fraction(value, scale), tuple(tuple(sorted(e)) for e in current)


def _refine_search(act: FkAction, arity: int, max_refine: int, stop_below, prepare):
    """The refine-lift-search loop shared by the audits.

    For each depth m = 1..max_refine act is extended by the m-atom uniform
    fiber (product_action), which splits every atom into m equal parts
    that the generators carry part-for-part.  prepare(refined, projection)
    returns the scorer for that depth (see _search_best), and _search_best
    scans candidates of the given arity.  After each depth yields the best
    (value, tuple, depth) seen so far, earlier depths winning ties; callers
    stop when it is good enough."""
    best = None
    for depth in range(1, max_refine + 1):
        refined, projection = product_action(act, uniform_algebra(depth))
        val, members = _search_best(
            refined.algebra.size, arity, prepare(refined, projection), stop_below
        )
        if best is None or val < best[0]:
            best = (val, EventTuple.of_members(refined.algebra, members), depth)
        yield best


def _c2_prepare(
    a: EventTuple,
    tuples: Sequence[EventTuple],
    spans: Sequence[tuple[Fraction, Fraction]],
):
    """Set-up of the second-condition search: candidates are scored against
    the joint law of (anchor, parameters), starting from the lifted base
    parameter.  spans is _mass_spans(tuples).  Returns the per-depth
    prepare(refined, projection), which gives the scorer of _search_best.

    The scorer holds one candidate tuple c and changes it in place.  Every
    atom's joint sign is packed into one int key: anchor bits first, then
    the orbit tuple's bits in _orbit_tuple's coordinate order, so bit
    base_arity + i*arity + j of atom y is set iff y lies in g_i(c_j), g_0
    the identity.  The target law's keys and masses in units of 1/D0, D0
    the base algebra's denominator, and the base atoms' anchor keys are
    packed once per request; a depth scales the target units by D/D0 and
    reads each refined atom's anchor key through the projection.  Masses
    are integer units of 1/D, D the lcm of the refined atoms' denominators;
    the target masses are sums of whole refined atoms, so D0 divides D.
    The scorer keeps every atom's key, the residual diff[key] = target
    minus counted mass under key, and the total of their absolute values.
    The residuals are a list indexed by key when there are at most
    _DENSE_KEY_BITS key bits, and a defaultdict(int) above that, read and
    written by the same code.
    Toggling atom x of c_j moves each of the k + 1 atoms g_i(x), all of
    weight w = weight(x), from its key to the key with one bit flipped: the
    key it leaves gains w, which changes the total by w, -w or 2d + w as its
    residual d is >= 0, <= -w or in between, and the key it enters loses w,
    the mirror image.  So a toggle costs O(k).  Two generators may send x to
    the same y; the second move then starts from the key the first one
    left.  peek applies a toggle, keeps its score and undoes the moves in
    reverse order.  A score s is the value s/(2D) that c2_distance would
    return.

    The floor coarsens both laws to one key bit: its candidate side g_i(c_j)
    weighs mu(c_j)*D = m, a multiple of g = gcd of the atom weights in
    [0, D], and its target side weighs T_ij = D*mu(b_ij), so every score is
    at least 2*|T_ij - m| for each i.  The floor is 2*max_j min_m max_i
    |T_ij - m|; the inner max is convex in m, so only the two multiples of
    g nearest (min_i T_ij + max_i T_ij)/2 need checking."""
    base_arity = a.arity
    arity = tuples[0].arity
    key_bits = base_arity + len(tuples) * arity

    def pack(signs: Sequence[int]) -> int:
        return sum(bit << i for i, bit in enumerate(signs))

    base_den = a.algebra.den
    law = joint_distribution(a, tuples[0].concat(*tuples[1:]))
    cells = [
        (pack(r) | pack(s) << base_arity, m.numerator * (base_den // m.denominator))
        for (r, s), m in law.mass.items()
    ]
    anchor_keys = [pack(signs) for signs in _sign_map(a)]
    bits = [
        [1 << (base_arity + i * arity + j) for i in range(len(tuples))]
        for j in range(arity)
    ]

    def prepare(refined: FkAction, projection: Sequence[int]):
        alg = refined.algebra
        denom, weights, size = alg.den, alg.units, alg.size
        keys = [anchor_keys[p] for p in projection]
        diff = defaultdict(int)
        scale = denom // base_den
        for key, u in cells:
            diff[key] = u * scale
        for key, w in zip(keys, weights):
            diff[key] -= w
        total = sum(map(abs, diff.values()))
        if key_bits <= _DENSE_KEY_BITS:
            dense = [0] * (1 << key_bits)
            for key, d in diff.items():
                dense[key] = d
            diff = dense
        images = [range(size)] + list(refined.gens)
        # moves[b]: the weight of toggle b and the (atom, key bit) pairs it
        # flips; the generators preserve mass, so every such atom weighs w
        moves = [
            (weights[x], [(g[x], bit) for g, bit in zip(images, bits[j])])
            for j in range(arity)
            for x in range(size)
        ]

        def walk(indices) -> list[int]:
            nonlocal total
            t = total
            scores = []
            for b in indices:
                w, flips = moves[b]
                for y, bit in flips:
                    old = keys[y]
                    new = keys[y] = old ^ bit
                    d = diff[old]
                    diff[old] = d + w
                    e = diff[new]
                    diff[new] = e - w
                    t += (w if d >= 0 else -w if d <= -w else 2 * d + w) + (
                        w if e <= 0 else -w if e >= w else w - 2 * e
                    )
                scores.append(t)
            total = t
            return scores

        def peek(b: int) -> int:
            w, flips = moves[b]
            t = total
            for y, bit in flips:
                old = keys[y]
                new = keys[y] = old ^ bit
                d = diff[old]
                diff[old] = d + w
                e = diff[new]
                diff[new] = e - w
                t += (w if d >= 0 else -w if d <= -w else 2 * d + w) + (
                    w if e <= 0 else -w if e >= w else w - 2 * e
                )
            for y, bit in reversed(flips):
                new = keys[y]
                old = keys[y] = new ^ bit
                diff[old] -= w
                diff[new] += w
            return t

        g = gcd(*weights)
        floor = 0
        for lo, hi in spans:
            lo = lo.numerator * (denom // lo.denominator)
            hi = hi.numerator * (denom // hi.denominator)
            m = (lo + hi) // (2 * g) * g
            floor = max(floor, min(max(hi - x, x - lo) for x in (m, m + g)))
        b0_lift = lift_tuple(tuples[0], alg, projection)
        seed = tuple(e.members for e in b0_lift.events)
        return walk, peek, total, 2 * denom, seed, 2 * floor

    return prepare


def _mass_spans(tuples: Sequence[EventTuple]) -> list[tuple[Fraction, Fraction]]:
    """(min_i mu(b_ij), max_i mu(b_ij)) for each coordinate j."""
    return [
        (min(column), max(column))
        for column in zip(*([e.mass for e in b.events] for b in tuples))
    ]


def _extension_floor(spans: Sequence[tuple[Fraction, Fraction]]) -> Fraction:
    """A floor on the second-condition distance of every candidate in every
    measure-preserving extension, from spans = _mass_spans(tuples): coarsened
    to the bit of b_ij, the distance is |mu(b_ij) - mu(c_j)|, and the best
    single mu(c_j) leaves half the spread max_i mu(b_ij) - min_i mu(b_ij).
    No depth of the search scores below it, since each depth's floor is at
    least as high."""
    return max((hi - lo for lo, hi in spans), default=ZERO) / 2


def search_C2_witness(
    act: FkAction,
    a: EventTuple,
    bs: Sequence[EventTuple],
    eps: Fraction,
    max_refine: int = 1,
) -> C2SearchResult:
    """Search refinements for a tuple realizing the parameters jointly.

    For each refinement depth m = 1..max_refine the action is extended by
    the m-atom uniform fiber, splitting every atom into m equal parts that
    the generators carry part-for-part; the anchor is lifted, and candidate
    tuples c are scored by the total-variation gap between the law of
    (anchor, parameters) and the law of (lifted anchor, c with all its
    generator pushes).  A witness is
    any candidate with distance strictly below 2*eps; the best candidate is
    reported either way, with the floor over every extension (see
    C2SearchResult).  The search stops going deeper at a witness, or once
    its best value is at the floor: no deeper depth could beat it strictly,
    and earlier depths win ties."""
    _check_depth(act, max_refine)
    tuples = _check_instance(act, a, bs, eps)
    threshold = 2 * eps
    spans = _mass_spans(tuples)
    floor = _extension_floor(spans)
    prepare = _c2_prepare(a, tuples, spans)
    for value, c, depth in _refine_search(
        act, tuples[0].arity, max_refine, threshold, prepare
    ):
        if value < threshold or value <= floor:
            break
    return C2SearchResult(
        value < threshold, C2Witness(c, value, depth), floor, floor >= threshold
    )


def axiom_residual(
    act: FkAction, a: EventTuple, bs: Sequence[EventTuple], max_refine: int = 1
) -> Fraction:
    """Certified upper bound for one instance of the closure axiom.

    Computes the first-condition quantities, searches for a second-condition
    witness, and returns max(0, best distance - 2 * worst quantity).  The
    search distance upper-bounds the true infimum over all extensions, so a
    zero return certifies the axiom instance; a positive return is only a
    bound.  The second-condition floors never end this search sooner: each
    xi_i is at least |mu(b_ij) - mu(b_0j)|, and D*mu(b_0j) is a sum of
    refined atom weights, so every depth's floor is at most worst, below
    the stop 2 * worst."""
    _check_depth(act, max_refine)
    worst = check_C1(act, a, bs, Fraction(1)).worst
    prepare = _c2_prepare(a, bs, _mass_spans(bs))
    for best, _c, _depth in _refine_search(
        act, bs[0].arity, max_refine, 2 * worst, prepare
    ):
        if best <= 2 * worst:
            break
    residual = best - 2 * worst
    return residual if residual > 0 else ZERO


# ---------------------------------------------------------------------------
# existential closedness inside an extension


class EcWitness(Record):
    """A tuple in a refinement of the small system whose triple intersection
    pattern with the anchor imitates the target tuple in the extension."""

    cs: EventTuple
    discrepancy: Fraction
    refinement_depth: int


class EcSearchResult(Record):
    """Search outcome: found marks a discrepancy below eps, and the best
    witness seen is always reported."""

    found: bool
    witness: EcWitness


def _check_embedding(
    small: FkAction, big: FkAction, embed: PartialIsomorphism
) -> dict[int, frozenset[int]]:
    if small.k != big.k:
        raise ArityMismatch(f"actions have {small.k} and {big.k} generators")
    if embed.source.id != small.algebra.id or embed.target.id != big.algebra.id:
        raise AlgebraMismatch("embedding endpoints do not match the two actions")
    blocks = embed.atom_blocks()
    if len(blocks) != small.algebra.size:
        raise AlgebraMismatch("embedding must cover every atom of the small system")
    for gi, (gs, gb) in enumerate(zip(small.gens, big.gens), start=1):
        for x, block in blocks.items():
            image = frozenset(gb[y] for y in block)
            if image != blocks[gs[x]]:
                raise EmbeddingNotEquivariant(
                    f"generator {gi} does not intertwine at atom {x}"
                )
    return blocks


def _triple_units(
    weights: Sequence[int],
    a_sets: Sequence[set[int]],
    c_sets: Sequence[set[int]],
    moved: Sequence[Sequence[set[int]]],
) -> list[int]:
    """The weight of every a_i & c_j & w_l(c_k), in the units of the atom
    weights, in lexicographic order of (i, j, l, k).  a_sets and c_sets hold
    the members of the anchors and the fibers, and moved[l][k] those of
    w_l(c_k)."""
    pairs = [a & c for a in a_sets for c in c_sets]
    return [sum([weights[x] for x in ac & m]) for ac in pairs for row in moved for m in row]


def ec_in_extension_check(
    small: FkAction,
    big: FkAction,
    embed: PartialIsomorphism,
    anchors: EventTuple,
    bs: EventTuple,
    words: Sequence[Word],
    eps: Fraction,
    max_refine: int = 1,
) -> EcSearchResult:
    """Can the small system imitate a tuple living in the extension?

    The target pattern is every mass mu(embed(a_i) & b_j & w_l(b_k)) in the
    big system, in units of its 1/D.  Candidates cs on refinements of the
    small system are scored by the largest absolute deviation of their
    own pattern from the target; a witness needs every deviation strictly
    below eps.  The embedding must
    send atoms to blocks and intertwine the generators exactly."""
    if eps <= 0:
        raise NonpositiveEps(f"tolerance must be positive, got {eps}")
    _check_depth(small, max_refine)
    blocks = _check_embedding(small, big, embed)
    if anchors.algebra.id != small.algebra.id:
        raise AlgebraMismatch("anchor tuple must live in the small system")
    if bs.algebra.id != big.algebra.id:
        raise AlgebraMismatch("target tuple must live in the big system")
    ws = list(words)
    a_sets = [set(e.members) for e in embed.map_tuple(anchors).events]
    b_sets = [set(e.members) for e in bs.events]
    moved = [[{p[x] for x in b} for b in b_sets] for p in [_word_perm(big, w) for w in ws]]
    target = _triple_units(big.algebra.units, a_sets, b_sets, moved)
    prepare = _ec_prepare(anchors, bs, ws, target, big.algebra.den, blocks)
    for value, cs, depth in _refine_search(
        small, bs.arity, max_refine, eps, prepare
    ):
        if value < eps:
            break
    return EcSearchResult(value < eps, EcWitness(cs, value, depth))


def _ec_prepare(
    anchors: EventTuple,
    bs: EventTuple,
    words: Sequence[Word],
    target: Sequence[int],
    target_den: int,
    blocks: dict[int, frozenset[int]],
):
    """Per-depth set-up of the extension-imitation search: candidates cs are
    scored by the largest deviation of their triple intersection pattern
    from the target, starting from the pulled-back target tuple.  target
    is the pattern of ec_in_extension_check, in units of 1/target_den.

    The scorer keeps the member sets of cs and of every w_l(cs), and each
    toggle recomputes the whole pattern with _triple_units: walk toggles in
    turn, and peek toggles and toggles back.  Masses and target values are
    integer units of 1/D, D the lcm of the refined atoms' denominator and
    target_den, so a score s is the Fraction s/D.  The floor is 0."""

    def prepare(refined: FkAction, projection: Sequence[int]):
        alg = refined.algebra
        denom = lcm(alg.den, target_den)
        scale = denom // alg.den
        weights = [u * scale for u in alg.units]
        goal = [t * (denom // target_den) for t in target]
        a_sets = [set(e.members) for e in lift_tuple(anchors, alg, projection).events]
        perms = [_word_perm(refined, w) for w in words]
        members: list[set[int]] = [set() for _ in range(bs.arity)]
        moved = [[set() for _ in range(bs.arity)] for _ in perms]
        size = alg.size

        def score() -> int:
            pattern = _triple_units(weights, a_sets, members, moved)
            return max(map(abs, map(sub, pattern, goal)), default=0)

        def flip(b: int) -> int:
            coord, atom = divmod(b, size)
            members[coord] ^= {atom}
            for perm, row in zip(perms, moved):
                row[coord] ^= {perm[atom]}
            return score()

        def walk(indices) -> list[int]:
            return [flip(b) for b in indices]

        def peek(b: int) -> int:
            value = flip(b)
            flip(b)
            return value

        seed = _pullback_seed(bs, blocks, projection)
        return walk, peek, score(), denom, seed, 0

    return prepare


def _pullback_seed(
    bs: EventTuple,
    blocks: dict[int, frozenset[int]],
    projection: Sequence[int],
) -> tuple[tuple[int, ...], ...]:
    """Approximate preimage of the target tuple under the embedding: keep the
    refined atoms whose parent's image block lies inside the target event."""
    out = []
    for e in bs.events:
        members = set(e.members)
        inside = {x for x, block in blocks.items() if block <= members}
        out.append(
            tuple(
                u for u, parent in enumerate(projection) if parent in inside
            )
        )
    return tuple(out)
