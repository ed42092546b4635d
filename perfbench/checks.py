"""Output checks, run after the timed region.

Three kinds of check apply to the first output of every request:

* on the default seed, exact outputs must equal the reference recorded
  when the benchmark was defined (byte for byte, by SHA-256), and search
  results may fall below their reference value but never rise above it;
* on every seed, each witness is re-verified: the C2 distance and the
  extension discrepancy are recomputed from the returned tuple, the
  conjugacy defect by pmplab's own `verify_conjugacy`, embeddings are
  checked for equivariance on every generator, the `match` certificate is
  checked, and dist / typedist (tv) / indep / delta values are recomputed
  here from their definitions;
* a request repeated within a run must return identical bytes (checked by
  the caller).

The recomputations use plain Python over Fractions and share no code with
pmplab, except `verify_conjugacy`, which is the library's own re-verifier.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import lcm

# Outputs fixed by their specification: compared byte for byte.
EXACT_BYTES = frozenset({"dist", "typedist", "indep", "delta", "audit-c1",
                         "gen-quotient", "joint-quotient", "refine", "tensor",
                         "eppa", "ergodize"})
# Search results: the reported value may only improve on the reference.
SEARCH_VALUE = {"audit-c2": "distance", "audit-residual": "residual",
                "audit-ec": "discrepancy", "conjsearch": "eps"}


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rational(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def reference_entry(command: str, text: str) -> dict:
    """What the reference file keeps for one request's output."""
    doc = json.loads(text)
    if command in EXACT_BYTES:
        return {"sha256": sha256(text)}
    if command in SEARCH_VALUE:
        return {"value": doc[SEARCH_VALUE[command]]}
    if command == "match":
        return {"value": doc["dist_partition"]}
    return {"order": doc["group"]["order"]}


def compare_reference(command: str, text: str, ref: dict) -> None:
    doc = json.loads(text)
    if command in EXACT_BYTES:
        _require(sha256(text) == ref["sha256"], "output differs from the reference")
    elif command in SEARCH_VALUE:
        got = rational(doc[SEARCH_VALUE[command]])
        _require(got <= rational(ref["value"]),
                 f"search value {got} is above the reference {ref['value']}")
    elif command == "match":
        _require(doc["dist_partition"] == ref["value"],
                 "match distance differs from the reference")
    else:
        _require(doc["group"]["order"] == ref["order"],
                 "embedding group order differs from the reference")


# ---------------------------------------------------------------------------
# independent recomputation helpers


def _masses(alg: dict) -> list:
    return [rational(m) for m in alg["atoms"]]


def _events(obj) -> list:
    """Member sets of a tuple given as a list or {"events": [...]}."""
    events = obj["events"] if isinstance(obj, dict) else obj
    return [set(e["members"] if isinstance(e, dict) else e) for e in events]


def _signs(n: int, events: list) -> list:
    return [tuple(int(x in e) for e in events) for x in range(n)]


def _law(masses: list, *tuples) -> dict:
    n = len(masses)
    signs = [_signs(n, t) for t in tuples]
    out: dict = {}
    for x, m in enumerate(masses):
        key = tuple(s[x] for s in signs)
        out[key] = out.get(key, 0) + m
    return out


def _tv(p: dict, q: dict) -> Fraction:
    return sum((abs(p.get(k, 0) - q.get(k, 0)) for k in set(p) | set(q)),
               Fraction(0)) / 2


def _inverse(p: list) -> list:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return out


def _uniform_distance(masses: list, g: list, h: list) -> Fraction:
    """sup over events e of mass(g(e) xor h(e)), from the cycles of h^-1 g."""
    hinv = _inverse(h)
    p = [hinv[g[x]] for x in range(len(g))]
    seen = [False] * len(p)
    total = Fraction(0)
    for start in range(len(p)):
        if seen[start]:
            continue
        cycle, x = [], start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = p[x]
        if len(cycle) > 1:
            mass = sum((masses[y] for y in cycle), Fraction(0))
            total += mass if len(cycle) % 2 == 0 else mass - masses[cycle[0]]
    return total


def _refine(gens: list, masses: list, depth: int):
    """Split every atom into `depth` equal parts: atom x*depth+j."""
    n = len(masses)
    fine = [m / depth for m in masses for _ in range(depth)]
    fine_gens = [[p[x // depth] * depth + x % depth for x in range(n * depth)]
                 for p in gens]
    return fine, fine_gens


def _lift(events: list, depth: int) -> list:
    return [{x * depth + j for x in e for j in range(depth)} for e in events]


def _apply_word(gens: list, word: list, event: set) -> set:
    out = event
    for letter in reversed(word):
        p = gens[letter - 1] if letter > 0 else _inverse(gens[-letter - 1])
        out = {p[x] for x in out}
    return out


def _pattern(masses, gens, anchors, fibers, words) -> dict:
    out = {}
    for i, a in enumerate(anchors):
        for j, c in enumerate(fibers):
            base = a & c
            for l, w in enumerate(words):
                for k2, moved in enumerate(_apply_word(gens, w, e) for e in fibers):
                    out[(i, j, l, k2)] = sum((masses[x] for x in base & moved),
                                             Fraction(0))
    return out


# ---------------------------------------------------------------------------
# per-command checks


def _check_dist(req, doc):
    c = req.check
    masses = _masses(c["algebra"])
    a, b = _events(c["a"]), _events(c["b"])
    dmax = max((sum((masses[x] for x in ea ^ eb), Fraction(0))
                for ea, eb in zip(a, b)), default=Fraction(0))
    n = len(masses)
    sa, sb = _signs(n, a), _signs(n, b)
    dp = sum((masses[x] for x in range(n) if sa[x] != sb[x]), Fraction(0))
    _require(rational(doc["dist_max"]) == dmax, "dist_max recomputes differently")
    _require(rational(doc["dist_partition"]) == dp, "dist_partition recomputes differently")


def _check_typedist(req, doc):
    c = req.check
    if c["metric"] != "tv":
        return  # the max metric is an LP optimum: checked against the reference only
    masses = _masses(c["algebra"])
    base, b, cc = _events(c["base"]), _events(c["b"]), _events(c["c"])
    value = _tv(_law(masses, base, b), _law(masses, base, cc))
    _require(rational(doc["distance"]) == value, "typedist recomputes differently")


def _check_indep(req, doc):
    c = req.check
    masses = _masses(c["algebra"])
    base, b, cc = _events(c["base"]), _events(c["b"]), _events(c["c"])
    actual = _law(masses, base, cc, b)
    rb, rc, r = _law(masses, base, b), _law(masses, base, cc), _law(masses, base)
    joined = {}
    for (sr, ss), mb in rb.items():
        for (tr, st), mc in rc.items():
            if tr == sr:
                joined[(sr, st, ss)] = mb * mc / r[(sr,)]
    _require(rational(doc["deficiency"]) == _tv(actual, joined),
             "indep recomputes differently")


def _check_delta(req, doc):
    c = req.check
    masses = _masses(c["algebra"])
    value = max(_uniform_distance(masses, g, h) for g, h in zip(c["g"], c["h"]))
    _require(rational(doc["delta"]) == value, "delta recomputes differently")


def _check_match(req, doc):
    c = req.check
    masses = _masses(c["algebra"])
    n = len(masses)
    a, b = _events(c["a"]), _events(c["b"])
    fine = [rational(m) for m in doc["refined"]["atoms"]]
    proj, perm = doc["projection"], doc["perm"]
    _require(len(proj) == len(fine) and sorted(perm) == list(range(len(fine))),
             "match permutation is not a bijection of the refined atoms")
    parent_mass = [Fraction(0)] * n
    for u, x in enumerate(proj):
        parent_mass[x] += fine[u]
    _require(parent_mass == masses, "refined atoms do not partition the parents")
    _require(all(fine[u] == fine[perm[u]] for u in range(len(fine))),
             "match permutation does not preserve mass")
    for ea, eb in zip(a, b):
        lifted_a = {u for u, x in enumerate(proj) if x in ea}
        lifted_b = {u for u, x in enumerate(proj) if x in eb}
        _require({perm[u] for u in lifted_a} == lifted_b,
                 "match permutation does not carry a onto b")
    sa, sb = _signs(n, a), _signs(n, b)
    dp = sum((masses[x] for x in range(n) if sa[x] != sb[x]), Fraction(0))
    _require(rational(doc["dist_partition"]) == dp, "match distance recomputes differently")
    moved = sum((fine[u] for u in range(len(fine)) if perm[u] != u), Fraction(0))
    _require(moved <= dp, "match moves more mass than its certificate")


def _check_c2(req, doc):
    c = req.check
    act = c["action"]
    masses = _masses(act["algebra"])
    depth = doc["refinement_depth"]
    _require(1 <= depth <= c["max_refine"], "refinement depth out of range")
    a, bs = _events(c["a"]), [_events(b) for b in c["bs"]]
    target = _law(masses, a, [e for b in bs for e in b])
    fine, fine_gens = _refine(act["gens"], masses, depth)
    cand = _events(doc["c"])
    orbit = cand + [{p[x] for x in e} for p in fine_gens for e in cand]
    value = _tv(target, _law(fine, _lift(a, depth), orbit))
    _require(rational(doc["distance"]) == value, "C2 distance recomputes differently")
    _require(doc["found"] == (value < 2 * rational(c["eps"])), "found flag is wrong")


def _check_ec(req, doc):
    c = req.check
    small_masses = _masses(c["small"]["algebra"])
    big_masses = _masses(c["big"]["algebra"])
    blocks = {p["source"][0]: set(p["target"]) for p in c["embed"]["pairs"]}
    pushed = [set().union(*(blocks[x] for x in e)) for e in _events(c["a"])]
    target = _pattern(big_masses, c["big"]["gens"], pushed, _events(c["bs"]), c["words"])
    depth = doc["refinement_depth"]
    fine, fine_gens = _refine(c["small"]["gens"], small_masses, depth)
    got = _pattern(fine, fine_gens, _lift(_events(c["a"]), depth),
                   _events(doc["cs"]), c["words"])
    value = max((abs(got[k] - target[k]) for k in target), default=Fraction(0))
    _require(rational(doc["discrepancy"]) == value, "EC discrepancy recomputes differently")
    _require(doc["found"] == (value < rational(c["eps"])), "found flag is wrong")


def _check_conjsearch(req, doc, lib):
    c = req.check
    a1 = lib.jsonio.action_from_json(c["action1"])
    a2 = lib.jsonio.action_from_json(c["action2"])
    units = doc["refined_atoms"]
    base = lcm(a1.algebra.denominator_lcm(), a2.algebra.denominator_lcm())
    _require(units % base == 0 and units // base <= c["max_refine"],
             "refined atom count is not a searched depth")
    unit = Fraction(1, units)
    r1, p1 = lib.action.refine_action_to_unit(a1, unit)
    r2, p2 = lib.action.refine_action_to_unit(a2, unit)
    iso = lib.constructions.Isomorphism.of(r1.algebra, r2.algebra, doc["mapping"])
    eps = rational(doc["eps"])
    cert = lib.constructions.ConjugacyCertificate(iso, eps, r1, r2, p1, p2, eps != 0)
    _require(lib.constructions.verify_conjugacy(cert) == eps,
             "conjugacy defect does not re-verify")
    if c["kind"] == "conjugate":
        _require(eps == 0, "a conjugate pair was not found conjugate")


def _check_embed(req, doc):
    act = req.check["action"]
    masses = _masses(act["algebra"])
    target = doc["target"]
    tmasses = _masses(target["algebra"])
    blocks = {p["source"][0]: set(p["target"]) for p in doc["sigma"]["pairs"]}
    _require(sorted(blocks) == list(range(len(masses))), "embedding misses an atom")
    covered = [y for block in blocks.values() for y in block]
    _require(len(covered) == len(set(covered)), "embedding blocks overlap")
    for x, block in blocks.items():
        _require(sum((tmasses[y] for y in block), Fraction(0)) == masses[x],
                 f"embedding block of atom {x} has the wrong mass")
    for gi, (gs, gt) in enumerate(zip(act["gens"], target["gens"]), start=1):
        for x, block in blocks.items():
            _require({gt[y] for y in block} == blocks[gs[x]],
                     f"generator {gi} is not equivariant at atom {x}")


WITNESS_CHECKS = {
    "dist": _check_dist,
    "typedist": _check_typedist,
    "indep": _check_indep,
    "delta": _check_delta,
    "match": _check_match,
    "audit-c2": _check_c2,
    "audit-ec": _check_ec,
    "embed": _check_embed,
}


def check_output(req, text: str, ref: dict | None, lib) -> None:
    """Raise CheckFailed when the output of `req` is wrong."""
    doc = json.loads(text)
    _require("error" not in doc, f"error document: {doc.get('error')}")
    if req.command == "conjsearch":
        _check_conjsearch(req, doc, lib)
    elif req.command in WITNESS_CHECKS:
        WITNESS_CHECKS[req.command](req, doc)
    if req.command == "audit-residual":
        _require(rational(doc["residual"]) >= 0, "negative residual")
    if ref is not None:
        compare_reference(req.command, text, ref)
