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
their distance, and g_i(c_j) weighs what c_j weighs.  The first candidate
that reaches a depth's floor is that depth's result, a descent at the floor
stops, and a floor over every extension ends the search over depths and can
refute a witness.

One search routine serves every audit, over the depths of
action.extensions: the action itself, then its m-fold equal splits, each
built only when the search gets there.  Each audit gives it a scorer with
two entry points, and a search calls only the one it needs: scan(cut)
returns the scores of the candidates in index order, up to the first one
below cut or all of them, as a list or packed in one int, and descend
starts the descent at the seed: each read scores every toggle of the
current tuple and, last, the tuple itself, and a move toggles one.  A
toggle, one atom of one coordinate, is one flat index coord * size + atom.
Scores are integers, in units of one common denominator per depth.  The
second-condition scorer scores many candidates at once: both joint laws
have total mass D, so a candidate's distance is (D - sum of min(M, T)) / D,
the sum over the target law T's keys only, M the candidate's law; each
candidate is one fixed-width field of a Python int, whose minima come from
a few whole-int operations per key.  A scan returns all 2**n candidates
packed, and a few more whole-int operations find its first hit: the lowest
field whose top bit B stays clear once B - cut is added.  A descent read
packs the n toggles and the tuple, and a move re-adds only the k + 1 atoms
it moves.  Both read one per-atom table per depth, the key bits each toggle
flips on that atom.  The extension scorer holds one candidate tuple and
recomputes its small pattern with the kernel that gives its target: its
scan steps the tuple as a binary counter and scores each candidate once,
stopping at its first hit.  Each depth turns its best score into one
Fraction, equal to what c2_distance (or the triple pattern in masses) would
give.  The second-condition set-up reads its law by packed key from
algebra._unit_law.
"""
from __future__ import annotations

import sys
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count
from math import gcd, lcm
from operator import sub

from .algebra import (
    ZERO,
    Event,
    EventTuple,
    _keys,
    _unit_law,
    joint_distribution,
    lift_tuple,
)
from .action import (
    FkAction,
    Word,
    _word_perm,
    apply_gen_tuple,
    extensions,
)
from .constructions import PartialIsomorphism
from .errors import (
    AlgebraMismatch,
    ArityMismatch,
    EmbeddingNotEquivariant,
    NonpositiveEps,
    WrongTupleCount,
)
from .limits import EXHAUSTIVE_TUPLE_CAP, GREEDY_ROUNDS, _check_ec_read_entries
from .modeltheory import (
    independence_deficiency,
    joint_tv_distance,
    type_distance,
)
from .record import Record

# memoryview formats of the packed fields of 1, 2, 4 and 8 bytes
_FIELD_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


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


class C2SearchResult(Record):
    """Search outcome: found marks distance < 2*eps, and the best candidate
    seen is always reported, an upper bound on the least distance.

    c lives at its search depth (action.extensions): on the action itself
    at depth 1, on its m-fold equal split at depth m.  distance is the
    total-variation gap between the joint law of the anchor with the
    parameters and the joint law of the lifted anchor with c and its
    pushes, recomputed exactly from c.

    lower_bound is a floor on the distance of every candidate in every
    measure-preserving extension, not only in the refinements searched:
    half the largest spread max_i mu(b_ij) - min_i mu(b_ij) over the
    coordinates j.  refuted marks lower_bound >= 2*eps, a proof that no
    extension holds a witness."""

    found: bool
    c: EventTuple
    distance: Fraction
    refinement_depth: int
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


def _field_bytes(denom: int) -> int:
    """The least power of two fb with denom < 2**(8*fb - 1): the bytes of
    one packed field (see _c2_prepare)."""
    fb = 1
    while denom >> 8 * fb - 1:
        fb *= 2
    return fb


def _ones(fields: int, fb: int) -> int:
    """ONE: a 1 in each of `fields` packed fields of fb bytes, field 0 the
    least significant."""
    return int.from_bytes((b"\x01" + bytes(fb - 1)) * fields, "little")


@lru_cache(maxsize=32)
def _candidate_masks(n: int, fb: int) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """The constants of a packed scan over 2**n candidates, candidate i in
    field i of fb bytes: ONE, HIGH = ONE << 8*fb - 1 (the top bit of every
    field), and for each candidate bit p the pair of the fields of the
    candidates with bit p set and of those with it clear, filled with ones.
    Only n with 2**n <= EXHAUSTIVE_TUPLE_CAP are scanned, and fb grows with
    the bits of the denominator, so a few entries serve every request."""
    ones, zeros = b"\xff" * fb, bytes(fb)
    masks = []
    for p in range(n):
        run, repeat = 1 << p, 1 << n - 1 - p
        masks.append((
            int.from_bytes((zeros * run + ones * run) * repeat, "little"),
            int.from_bytes((ones * run + zeros * run) * repeat, "little"),
        ))
    one = _ones(1 << n, fb)
    return one, one << 8 * fb - 1, tuple(masks)


def _fields(packed: int, n: int, fb: int) -> list[int]:
    """The n fields of fb bytes of packed, field 0 first."""
    raw = packed.to_bytes(n * fb, sys.byteorder)
    if fb in _FIELD_FORMATS:
        return memoryview(raw).cast(_FIELD_FORMATS[fb]).tolist()
    return [int.from_bytes(raw[i : i + fb], sys.byteorder) for i in range(0, len(raw), fb)]


def _shared(law: dict, offsets: dict, high: int, shift: int) -> int:
    """The packed sum over the target's keys of min(M[key], T[key]), field
    by field: law holds the packed masses M, offsets[key] = high - T[key]*ONE,
    and high = B*ONE with B = 2**shift the top bit of a field.  Each field
    of v = M + offsets[key] lies in [B - D, B + D], inside [0, 2B) since D <
    B, so no field borrows or overflows; its top bit is set exactly when
    M >= T, and then the field less B is M - T, which the sum takes back
    off M.  Every field of the sum is at most D."""
    acc = 0
    for key, m in law.items():
        v = m + offsets[key]
        hi = v & high
        acc += m + hi - (v & (hi << 1) - (hi >> shift))
    return acc


def _candidate_bits(size: int, arity: int) -> list[int]:
    """The candidate bit of each toggle, which is also the toggle of that bit."""
    return [(arity - 1 - b // size) * size + b % size for b in range(size * arity)]


def _scan_best(scores: list[int] | int, n: int, scale: int, cut: int) -> tuple[int, int]:
    """(index, score) of the first score below cut >= 1, or else of the first
    least score, from a scan over 2**n candidates.  A packed scan (fields of
    fb = _field_bytes(scale) bytes, scores in [0, scale]) is read whole: with
    c = min(cut, scale + 1) <= B = 2**(8*fb - 1), each field of packed + (B
    - c)*ONE lies in [B - c, B - c + scale] inside [0, 2B), carrying into no
    other, and has its top bit clear iff its score is below c.  The lowest
    clear top bit is the first hit; only a scan with no hit is unpacked."""
    if type(scores) is int:
        fb = _field_bytes(scale)
        one, high, _masks = _candidate_masks(n, fb)
        hits = high & ~(scores + high - min(cut, scale + 1) * one)
        if hits:
            width = 8 * fb
            i = ((hits & -hits).bit_length() - 1) // width
            return i, scores >> i * width & (1 << width) - 1
        scores = _fields(scores, 1 << n, fb)
    least = min(scores)
    i = next(compress(count(), map(cut.__gt__, scores))) if least < cut else scores.index(least)
    return i, scores[i]


def _search_best(size: int, arity: int, scorer, stop_below):
    """Best candidate tuple by exhaustion or greedy descent.

    scorer is (scan, descend, scale, seed, floor) from a prepare function,
    whose scores are integers: a score s stands for s/scale, and no score
    is below floor >= 0.  Candidate i is the concatenated masks, coordinate
    0 most significant and atom x at bit x of its coordinate; toggle b =
    coord*size + atom flips one atom of one coordinate (_candidate_bits maps
    one to the other).  scan(cut) returns the scores of candidates 0, 1,
    ... in index order through the first one below cut, or every score when
    none is, as a list that may go on past that first one, or every score
    packed in one int (see _scan_best).  descend() starts the greedy
    descent at seed and returns (neighbours, move): neighbours() the size *
    arity scores of the toggles of the current tuple, then its own score,
    and move(b) applying toggle b.  Each search calls only what it needs.
    Returns the best value, the one Fraction built, and its member tuple.

    Exhaustion applies when the total number of candidate tuples is at most
    EXHAUSTIVE_TUPLE_CAP.  A hit is a score strictly below stop_below, or
    zero; it is below every score that is not a hit.  The result is the hit
    of least index, or with no hit the least (score, index): what one scan
    in index order returns that stops at its first hit.  A score equal
    to the floor counts as a hit as well, which changes no result: with a
    floor at or above the stop and above zero there is no true hit, and the
    first candidate at the floor is the least (score, index); with a lower
    floor such a candidate is a true hit anyway.

    Otherwise steepest descent from the seed toggles one atom of one
    coordinate at a time, scanned lexicographically: each round reads the
    neighbours once, the first read scoring the seed, and takes the first
    toggle of least score if it is strictly better, for at most
    GREEDY_ROUNDS rounds, and a descent at the floor stops, since no toggle
    can improve on it.  Scores are compared as integers: v < stop_below =
    p/q is v*q < p*scale, that is v < ceil(p*scale/q), and a hit is v < cut
    = max(ceil(p*scale/q), floor + 1), so a zero score is always a hit."""
    scan, descend, scale, seed, floor = scorer
    p, q = stop_below.numerator, stop_below.denominator
    cut = max(-(-p * scale // q), floor + 1)
    if 1 << size * arity <= EXHAUSTIVE_TUPLE_CAP:
        best_i, value = _scan_best(scan(cut), size * arity, scale, cut)
        chosen = [best_i >> p & 1 for p in _candidate_bits(size, arity)]
        members = tuple(
            tuple(compress(range(size), chosen[j * size : (j + 1) * size]))
            for j in range(arity)
        )
        return Fraction(value, scale), members
    current = [set(e) for e in seed]
    neighbours, move = descend()
    scores = neighbours()
    value = scores[-1]
    for left in reversed(range(GREEDY_ROUNDS)):
        best = min(scores)
        if best >= value:
            break
        b = scores.index(best)
        move(b)
        value = best
        current[b // size] ^= {b % size}
        if not left or value <= floor:
            break
        scores = neighbours()
    return Fraction(value, scale), tuple(tuple(sorted(e)) for e in current)


def _refine_search(depths, arity: int, stop_below, prepare, stop_at):
    """The search over depths shared by the audits.

    depths is action.extensions(act, max_refine): act itself at depth 1,
    then act with every atom split into m equal parts that the generators
    carry part-for-part.  prepare(refined, projection) returns the scorer
    for a depth (see _search_best), and _search_best scans candidates of
    the given arity.  Returns the best (value, tuple, depth), earlier
    depths winning ties.  The search stops going deeper once the best value
    is below stop_below or at most stop_at, so no deeper depth is built."""
    best = None
    for depth, (refined, projection) in enumerate(depths, 1):
        val, members = _search_best(
            refined.algebra.size, arity, prepare(refined, projection), stop_below
        )
        if best is None or val < best[0]:
            best = (val, EventTuple.of_members(refined.algebra, members), depth)
        if best[0] < stop_below or best[0] <= stop_at:
            break
    return best


def _c2_prepare(
    a: EventTuple,
    tuples: Sequence[EventTuple],
    spans: Sequence[tuple[int, int]],
):
    """Set-up of the second-condition search: candidates are scored against
    the joint law of (anchor, parameters), starting from the lifted base
    parameter.  spans is _mass_spans(tuples).  Returns the per-depth
    prepare(refined, projection), which gives the scorer of _search_best.
    Everything up to the depth's result is an integer.

    Every atom's cell is its packed key (see the algebra module) over the
    anchor, then the orbit tuple in _orbit_tuple's coordinate order, so bit
    base_arity + i*arity + j of atom y is set iff y lies in g_i(c_j), g_0
    the identity.  The target law _unit_law(a, *tuples), in units of 1/D0
    (D0 the base algebra's denominator), and the anchor keys _keys(a) are
    built once per request; a depth scales the target by D/D0 and reads
    each refined atom's anchor key through the projection.  Masses are
    integer units of 1/D, D the lcm of the refined atoms' denominators; the
    target masses are sums of whole refined atoms, so D0 divides D.
    Toggling atom x of c_j moves each atom g_i(x), all of weight w =
    weight(x), to the key with bit (i, j) flipped; when two generators send
    x to the same y, y's flips merge into one XOR.  Distinct toggles flip
    disjoint bits of one atom's key.  Each depth builds this once, from the
    generator images, as one per-atom table touch[y] = {toggle b: the bits
    it flips on y}, and the scan and the descent both read it.

    The target law T and a candidate's law M both have total mass D, so
    c2_distance is sum |T - M| / (2D) = (D - sum min(M, T)) / D, and only
    the target's keys enter the sum: a score s is s/D.  Many candidates are
    scored at once, one field of F = 8*fb bits of a Python int each (fb
    from _field_bytes, so D < B = 2**(F - 1)): M[key] is a packed int for
    each target key, and _shared takes every field's min with a few
    whole-int operations per key.

    scan scores all 2**n candidates, n = size*arity, one field each in
    index order, whatever its cut, and returns them packed in one int for
    _scan_best.  Atom y's key is its empty-tuple key XOR the flips of the
    toggles in touch[y], at most (k + 1)*arity of them, so y reaches a
    target key under exactly one setting of their candidate bits, or none:
    w*ONE masked by each bit's set or clear fields (_candidate_masks) adds
    at that key.

    The descent starts at the seed and scores n + 1 fields: field b < n the
    toggle b of the current tuple, and field n, which no toggle moves, the
    current tuple itself.  Atom y adds w*(ONE - L_y) at its key, L_y the
    fields of the toggles in touch[y], and w*E_b at key ^ flip_b for each
    such toggle b, E_b the one of field b, wherever these are target keys;
    these terms are computed when added, so a depth holds one int of n + 1
    fields per target key.  M is kept between rounds: a move re-adds only
    the atoms it moves, g(x) for each image g, and so carries field n.

    The floor coarsens both laws to one key bit: its candidate side g_i(c_j)
    weighs mu(c_j)*D = m, a multiple of g = gcd of the atom weights in
    [0, D], and its target side weighs T_ij = D*mu(b_ij), so every score is
    at least |T_ij - m| for each i.  The floor is max_j min_m max_i |T_ij -
    m|; the inner max is convex in m, so only the two multiples of g nearest
    (min_i T_ij + max_i T_ij)/2 need checking."""
    base_arity = a.arity
    arity = tuples[0].arity
    base_den = a.algebra.den
    anchor_keys, law = _keys(a), _unit_law(a, *tuples)
    bits = [
        [1 << (base_arity + i * arity + j) for i in range(len(tuples))]
        for j in range(arity)
    ]

    def prepare(refined: FkAction, projection: Sequence[int]):
        alg = refined.algebra
        denom, weights, size = alg.den, alg.units, alg.size
        n = size * arity
        scale = denom // base_den
        target = {key: u * scale for key, u in law.items()}
        images = [range(size)] + list(refined.gens)
        fb = _field_bytes(denom)
        width = 8 * fb
        shift = width - 1
        b0_lift = lift_tuple(tuples[0], alg, projection)
        seed = tuple(e.members for e in b0_lift.events)
        # touch[y]: toggle b = j*size + x -> the key bits it flips on atom y
        touch: list[dict[int, int]] = [{} for _ in range(size)]
        for j in range(arity):
            for g, bit in zip(images, bits[j]):
                for b, y in enumerate(g, j * size):
                    touch[y][b] = touch[y].get(b, 0) ^ bit

        def offsets(one: int) -> tuple[dict[int, int], int]:
            high = one << shift
            return {key: high - t * one for key, t in target.items()}, high

        def scan(_cut: int) -> int:
            one, _high, masks = _candidate_masks(n, fb)
            # the set and clear masks of each toggle's candidate bit
            toggle_masks = [masks[p] for p in _candidate_bits(size, arity)]
            packed = dict.fromkeys(target, 0)
            for p, w, moving in zip(projection, weights, touch):
                start = anchor_keys[p]
                fixed = ~sum(moving.values())
                weighted = w * one
                for key in packed:
                    rest = key ^ start
                    if rest & fixed:
                        continue
                    part = weighted
                    for b, flip in moving.items():
                        hit = rest & flip
                        if hit == flip:
                            part &= toggle_masks[b][0]
                        elif hit:
                            break
                        else:
                            part &= toggle_masks[b][1]
                    else:
                        packed[key] += part
            return denom * one - _shared(packed, *offsets(one), shift)

        def descend():
            keys = [anchor_keys[p] for p in projection]
            for j, event in enumerate(seed):
                for x in event:
                    for y in {g[x] for g in images}:
                        keys[y] ^= touch[y][j * size + x]
            one = _ones(n + 1, fb)
            packed = dict.fromkeys(target, 0)

            def place(y: int, old: int, new: int) -> None:
                # moves atom y's terms from key old to key new (-1 to only
                # add): w << b*width at key ^ flip, the rest of w*ONE at key
                w = weights[y]
                rest = w * one
                for b, flip in touch[y].items():
                    e = w << b * width
                    rest -= e
                    if old ^ flip in packed:
                        packed[old ^ flip] -= e
                    if new ^ flip in packed:
                        packed[new ^ flip] += e
                if old in packed:
                    packed[old] -= rest
                if new in packed:
                    packed[new] += rest

            for y, key in enumerate(keys):
                place(y, -1, key)
            table, high = offsets(one)
            full = denom * one

            def neighbours() -> list[int]:
                return _fields(full - _shared(packed, table, high, shift), n + 1, fb)

            def move(b: int) -> None:
                for y in {g[b % size] for g in images}:
                    place(y, keys[y], keys[y] ^ touch[y][b])
                    keys[y] ^= touch[y][b]

            return neighbours, move

        g = gcd(*weights)
        floor = 0
        for lo, hi in spans:
            lo, hi = lo * scale, hi * scale
            m = (lo + hi) // (2 * g) * g
            floor = max(floor, min(max(hi - x, x - lo) for x in (m, m + g)))
        return scan, descend, denom, seed, floor

    return prepare


def _mass_spans(tuples: Sequence[EventTuple]) -> list[tuple[int, int]]:
    """(min_i D0*mu(b_ij), max_i D0*mu(b_ij)) for each coordinate j, in units
    of 1/D0, D0 the algebra's denominator."""
    units = tuples[0].algebra.units
    masses = ([sum([units[x] for x in e.members]) for e in b.events] for b in tuples)
    return [(min(column), max(column)) for column in zip(*masses)]


def _extension_floor(spans: Sequence[tuple[int, int]], den: int) -> Fraction:
    """A floor on the second-condition distance of every candidate in every
    measure-preserving extension, from spans = _mass_spans(tuples) in units
    of 1/den: coarsened to the bit of b_ij, the distance is |mu(b_ij) -
    mu(c_j)|, and the best single mu(c_j) leaves half the spread max_i
    mu(b_ij) - min_i mu(b_ij).  No depth of the search scores below it,
    since each depth's floor is at least as high."""
    return Fraction(max((hi - lo for lo, hi in spans), default=0), 2 * den)


def search_C2_witness(
    act: FkAction,
    a: EventTuple,
    bs: Sequence[EventTuple],
    eps: Fraction,
    max_refine: int = 1,
) -> C2SearchResult:
    """Search refinements for a tuple realizing the parameters jointly.

    Depth 1 searches the action itself, and each depth m = 2..max_refine
    its extension by the m-atom uniform fiber, which splits every atom into
    m equal parts that the generators carry part-for-part.  The anchor is
    lifted, and candidate tuples c are scored by the total-variation gap
    between the law of (anchor, parameters) and the law of (lifted anchor,
    c with all its generator pushes).  A witness is
    any candidate with distance strictly below 2*eps; the best candidate is
    reported either way, with the floor over every extension (see
    C2SearchResult).  The search stops going deeper at a witness, or once
    its best value is at the floor: no deeper depth could beat it strictly,
    and earlier depths win ties."""
    depths = extensions(act, max_refine)
    tuples = _check_instance(act, a, bs, eps)
    threshold = 2 * eps
    spans = _mass_spans(tuples)
    floor = _extension_floor(spans, a.algebra.den)
    prepare = _c2_prepare(a, tuples, spans)
    value, c, depth = _refine_search(
        depths, tuples[0].arity, threshold, prepare, floor
    )
    return C2SearchResult(value < threshold, c, value, depth, floor, floor >= threshold)


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
    depths = extensions(act, max_refine)
    worst = check_C1(act, a, bs, Fraction(1)).worst
    prepare = _c2_prepare(a, bs, _mass_spans(bs))
    best = _refine_search(depths, bs[0].arity, 2 * worst, prepare, 2 * worst)[0]
    residual = best - 2 * worst
    return residual if residual > 0 else ZERO


# ---------------------------------------------------------------------------
# existential closedness inside an extension


class EcSearchResult(Record):
    """Search outcome: found marks a discrepancy below eps, and the best
    candidate seen is always reported.  cs lives in a refinement of the
    small system, and its triple intersection pattern with the anchor
    imitates the target tuple in the extension up to discrepancy."""

    found: bool
    cs: EventTuple
    discrepancy: Fraction
    refinement_depth: int


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
    depths = extensions(small, max_refine)
    blocks = _check_embedding(small, big, embed)
    if anchors.algebra.id != small.algebra.id:
        raise AlgebraMismatch("anchor tuple must live in the small system")
    if bs.algebra.id != big.algebra.id:
        raise AlgebraMismatch("target tuple must live in the big system")
    ws = list(words)
    # the anchors pushed forward: the union of their atoms' image blocks
    a_sets = [set().union(*[blocks[x] for x in e.members]) for e in anchors.events]
    b_sets = [set(e.members) for e in bs.events]
    moved = [[{p[x] for x in b} for b in b_sets] for p in [_word_perm(big, w) for w in ws]]
    target = _triple_units(big.algebra.units, a_sets, b_sets, moved)
    # the target pulled back: the atoms whose image block lies inside it
    pulled = EventTuple(small.algebra, tuple(
        Event(small.algebra, tuple(x for x in range(small.algebra.size) if blocks[x] <= b))
        for b in b_sets
    ))
    prepare = _ec_prepare(anchors, pulled, ws, target, big.algebra.den)
    value, cs, depth = _refine_search(depths, bs.arity, eps, prepare, ZERO)
    return EcSearchResult(value < eps, cs, value, depth)


def _ec_prepare(
    anchors: EventTuple,
    pulled: EventTuple,
    words: Sequence[Word],
    target: Sequence[int],
    target_den: int,
):
    """Per-depth set-up of the extension-imitation search: candidates cs are
    scored by the largest deviation of their triple intersection pattern
    from the target, starting from pulled, the target tuple pulled back to
    the small system, lifted to the depth.  target is the pattern of
    ec_in_extension_check, in units of 1/target_den.

    The scorer keeps the member sets of cs and of every w_l(cs), which
    toggle(b) updates without scoring, and score() recomputes the whole
    pattern with _triple_units.  scan steps the empty tuple through the
    candidates as a binary counter (candidate i follows i - 1 by toggling
    its candidate bits 0..ctz(i)), scores each once, and stops at its first
    hit.  descend toggles the seed in, and a read is a toggle, a score and
    the toggle back for each toggle, then a score of the tuple itself.
    Masses and target values are integer units of 1/D, D the lcm of the
    refined atoms' denominator and target_den, so a score s is the Fraction
    s/D.  The floor is 0.  One read's entries are checked against
    MAX_EC_READ_ENTRIES before a depth's member sets are built."""

    def prepare(refined: FkAction, projection: Sequence[int]):
        alg = refined.algebra
        size, arity = alg.size, pulled.arity
        n = size * arity
        _check_ec_read_entries(1 << n if 1 << n <= EXHAUSTIVE_TUPLE_CAP else n + 1, len(target))
        denom = lcm(alg.den, target_den)
        scale = denom // alg.den
        weights = [u * scale for u in alg.units]
        goal = [t * (denom // target_den) for t in target]
        a_sets = [set(e.members) for e in lift_tuple(anchors, alg, projection).events]
        perms = [_word_perm(refined, w) for w in words]
        members: list[set[int]] = [set() for _ in range(arity)]
        moved = [[set() for _ in range(arity)] for _ in perms]

        def toggle(b: int) -> None:
            coord, atom = divmod(b, size)
            members[coord] ^= {atom}
            for perm, row in zip(perms, moved):
                row[coord] ^= {perm[atom]}

        def score() -> int:
            pattern = _triple_units(weights, a_sets, members, moved)
            return max(map(abs, map(sub, pattern, goal)), default=0)

        def scan(cut: int) -> list[int]:
            # toggles[p]: the toggle of candidate bit p
            toggles = _candidate_bits(size, arity)
            scores = []
            for i in range(1 << n):
                for p in range((i & -i).bit_length()):
                    toggle(toggles[p])
                scores.append(score())
                if scores[-1] < cut:
                    break
            return scores

        def descend():
            for coord, event in enumerate(seed):
                for x in event:
                    toggle(coord * size + x)
            return neighbours, toggle

        def neighbours() -> list[int]:
            scores = []
            for b in range(n):
                toggle(b)
                scores.append(score())
                toggle(b)
            scores.append(score())
            return scores

        seed = tuple(e.members for e in lift_tuple(pulled, alg, projection).events)
        return scan, descend, denom, seed, 0

    return prepare

