"""Seeded request generators for the three benchmark workloads.

Each generator turns a workload seed into one *cycle*: a fixed list of CLI
requests that the benchmark replays, in order, as many times as the run
needs.  The seed chooses the data (events, permutations, relabellings,
masses); the shape of every slot (command, atom count, generator set,
arity, refinement depth, search branch) is fixed per slot, so two seeds give
cycles of comparable cost and a change in cost between commits is a change
in the program, not in the draw.

Inputs are built with plain Python only, never with pmplab, so set-up time
measures importing pmplab plus this generation and nothing the library does.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("audit-sweep", "conj-embed", "cli-queries")

# Instances left out on purpose, with the reason.  A size guard in the
# library could let a later benchmark change add them back.
EXCLUDED = (
    {"instance": "embed on an action generating S_6",
     "reason": "takes about 34.5 s: the cubic associativity check on a 720-element table"},
    {"instance": "embed or gen-quotient on anything generating S_7 or larger",
     "reason": "5040 elements: hours and about 25M table entries, no size guard yet"},
)


@dataclass
class Request:
    """One CLI request: its stable id, argv for cli_dispatch, and the parsed
    objects the output checks need."""

    rid: str
    command: str
    argv: list
    check: dict = field(default_factory=dict)
    toy: bool = False


def _js(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _fr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _uniform(n: int) -> list:
    return [_fr(Fraction(1, n))] * n


def _action(atoms: list, gens: list) -> dict:
    return {"algebra": {"atoms": atoms}, "k": len(gens), "gens": gens}


def _cyclic_action(n: int, shifts: tuple) -> dict:
    return _action(_uniform(n), [[(x + s) % n for x in range(n)] for s in shifts])


def _perm(rng: random.Random, n: int) -> list:
    p = list(range(n))
    rng.shuffle(p)
    return p


def _inverse(p: list) -> list:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return out


def _relabel(gens: list, pi: list) -> list:
    """Conjugate every generator by the atom relabelling pi."""
    inv = _inverse(pi)
    return [[pi[g[inv[y]]] for y in range(len(pi))] for g in gens]


def _event(rng: random.Random, n: int, size: int | None = None) -> list:
    if size is None:
        size = rng.randint(1, n - 1)
    return sorted(rng.sample(range(n), size))


def _tuple(rng: random.Random, n: int, arity: int) -> list:
    return [_event(rng, n) for _ in range(arity)]


# ---------------------------------------------------------------------------
# audit-sweep

TINY_EPS = "1/1000000"

# (command, n, shifts, arity, max_refine, data).  The many small exhaustive
# slots put requests of seed-independent cost around the median.  "skew"
# parameters give
# b_1..b_k a different mass from b_0, so no candidate reaches distance zero
# and an exhaustive scan always visits every candidate; "rand" parameters
# are unconstrained.  Candidate counts are (2^(n*depth))^arity per depth:
# at most 4096 takes the exhaustive branch, anything larger the greedy one.
AUDIT_SLOTS = (
    ("audit-c2", 12, (1,), 1, 1, "skew"),       # exhaustive, 4096
    ("audit-c2", 6, (1, 5), 2, 1, "skew"),      # exhaustive, 4096
    ("audit-c2", 6, (1,), 1, 2, "skew"),        # exhaustive, 64 then 4096
    ("audit-c2", 12, (1, 5), 1, 1, "skew"),     # exhaustive, 4096
    ("audit-c2", 6, (1, 2), 2, 1, "skew"),      # exhaustive, 4096
    ("audit-c2", 8, (1, 2), 1, 1, "skew"),      # exhaustive, 256
    ("audit-c2", 10, (1,), 1, 1, "skew"),       # exhaustive, 1024
    ("audit-c2", 4, (1,), 1, 2, "skew"),        # exhaustive, 16 then 256
    ("audit-c2", 8, (1,), 1, 1, "skew"),        # exhaustive, 256
    ("audit-c2", 9, (1, 2), 1, 1, "skew"),      # exhaustive, 512
    ("audit-c2", 5, (1,), 2, 1, "skew"),        # exhaustive, 1024
    ("audit-c2", 10, (1, 5), 1, 1, "skew"),     # exhaustive, 1024
    ("audit-c2", 4, (1, 2), 2, 1, "skew"),      # exhaustive, 256
    ("audit-c2", 5, (1,), 1, 2, "skew"),        # exhaustive, 32 then 1024
    ("audit-c2", 8, (1, 5), 1, 1, "skew"),      # exhaustive, 256
    ("audit-c2", 9, (1,), 1, 1, "skew"),        # exhaustive, 512
    ("audit-c2", 4, (1, 5), 2, 1, "skew"),      # exhaustive, 256
    ("audit-c2", 9, (1, 5), 1, 1, "skew"),      # exhaustive, 512
    ("audit-c2", 4, (1,), 2, 1, "skew"),        # exhaustive, 256
    ("audit-c2", 5, (1, 2), 1, 2, "skew"),      # exhaustive, 32 then 1024
    ("audit-c2", 10, (1, 2), 1, 1, "skew"),     # exhaustive, 1024
    ("audit-c2", 7, (1,), 1, 1, "skew"),        # exhaustive, 128
    ("audit-c2", 16, (1,), 1, 1, "rand"),       # greedy from here on
    ("audit-c2", 16, (1, 2), 2, 1, "rand"),
    ("audit-c2", 20, (1, 5), 1, 2, "rand"),
    ("audit-c2", 24, (1,), 2, 1, "rand"),
    ("audit-c2", 24, (1, 2), 1, 2, "rand"),
    ("audit-c2", 32, (1, 5), 1, 1, "rand"),
    ("audit-c2", 12, (1, 2), 2, 2, "rand"),
    ("audit-c2", 14, (1,), 1, 2, "rand"),
    ("audit-c2", 18, (1,), 1, 1, "rand"),
    ("audit-c2", 20, (1, 2), 2, 1, "rand"),
    ("audit-c2", 28, (1,), 1, 2, "rand"),
    ("audit-c2", 16, (1, 5), 1, 2, "rand"),
    ("audit-c2", 40, (1, 5), 1, 1, "rand"),
    ("audit-c2", 13, (1,), 2, 1, "rand"),
    ("audit-residual", 8, (1,), 1, 1, "rand"),  # exhaustive, 256
    ("audit-residual", 10, (1, 2), 1, 1, "rand"),
    ("audit-residual", 16, (1,), 1, 1, "rand"),  # greedy
    ("audit-residual", 20, (1, 2), 1, 1, "rand"),
    ("audit-residual", 24, (1, 5), 2, 1, "rand"),
    ("audit-residual", 12, (1,), 2, 1, "rand"),
    ("audit-residual", 32, (1,), 1, 1, "rand"),
    ("audit-residual", 18, (1, 5), 1, 1, "rand"),
    ("audit-residual", 6, (1,), 1, 2, "skew"),  # exhaustive, 64 then 4096
    ("audit-residual", 24, (1,), 1, 2, "skew"),
)

# Clusters of one shape each, whose cost the seed does not change ("skew"
# data make an exhaustive scan visit every candidate).  Request costs in
# this workload spread over three orders of magnitude, so without them the
# median and the tail percentile fall in gaps between requests of different
# shapes and jump from seed to seed.  The median falls inside the first
# cluster, the tail percentile inside the second together with a00-a04.
# (count, command, n, shifts, arity, max_refine, data)
AUDIT_CLUSTERS = (
    (24, "audit-c2", 8, (1,), 1, 1, "skew"),    # exhaustive, 256
    (6, "audit-c2", 12, (1,), 1, 1, "skew"),    # exhaustive, 4096
)

# The pinned slow case: Z/48 with generators {1, 5}, arity-2 parameters,
# two refinement depths, greedy at both.  Its data come from a fixed draw,
# not from the workload seed, because the greedy round count on this one
# instance swings its cost by a factor of two between draws.
PINNED_Z48_SEED = 7


def _audit_params(rng, n, shifts, arity, data):
    k = len(shifts)
    if data == "skew":
        half = n // 2
        return [[_event(rng, n, half + (1 if i else 0)) for _ in range(arity)]
                for i in range(k + 1)]
    return [_tuple(rng, n, arity) for _ in range(k + 1)]


def _audit_request(rid, rng, command, n, shifts, arity, depth, data, toy):
    act = _cyclic_action(n, shifts)
    a = [_event(rng, n, n // 2)]
    bs = _audit_params(rng, n, shifts, arity, data)
    argv = [command, _js(act), _js(a)]
    if command == "audit-c2":
        argv.append(TINY_EPS)
    argv += [_js(b) for b in bs]
    argv += ["--max-refine", str(depth)]
    check = {"action": act, "a": a, "bs": bs, "eps": TINY_EPS, "max_refine": depth}
    return Request(rid, command, argv, check, toy)


def _ec_request(rid, rng, n, depth, toy):
    """audit-ec on Z/n inside Z/n tensor a two-atom trivial factor."""
    small = _cyclic_action(n, (1,))
    big_n = 2 * n
    big = _action(_uniform(big_n), [[((x // 2 + 1) % n) * 2 + x % 2 for x in range(big_n)]])
    embed = {"pairs": [{"source": [i], "target": [2 * i, 2 * i + 1]} for i in range(n)]}
    anchors = [_event(rng, n, n // 2)]
    bs = [_event(rng, big_n, n)]
    words = [[], [1]]
    argv = ["audit-ec", _js(small), _js(big), _js(embed), _js(anchors), _js(bs),
            _js(words), "1/100", "--max-refine", str(depth)]
    check = {"small": small, "big": big, "embed": embed, "a": anchors, "bs": bs,
             "words": words, "eps": "1/100"}
    return Request(rid, "audit-ec", argv, check, toy)


def audit_sweep(seed: int, input_dir: Path) -> tuple[list, dict]:
    rng = random.Random(f"audit-sweep:{seed}")
    out = []
    for i, (command, n, shifts, arity, depth, data) in enumerate(AUDIT_SLOTS):
        toy = n * depth * arity <= 8
        out.append(_audit_request(f"a{i:02d}", rng, command, n, shifts, arity,
                                  depth, data, toy))
    for i, (n, depth) in enumerate(((3, 2), (4, 2), (5, 1), (6, 1))):
        out.append(_ec_request(f"e{i:02d}", rng, n, depth, toy=n == 3))
    cluster_rng = random.Random(f"audit-sweep-clusters:{seed}")
    for c, (count, command, n, shifts, arity, depth, data) in enumerate(AUDIT_CLUSTERS):
        for i in range(count):
            out.append(_audit_request(f"k{c}{i:02d}", cluster_rng, command, n, shifts,
                                      arity, depth, data, False))
    pinned = random.Random(f"audit-sweep-pinned:{PINNED_Z48_SEED}")
    out.append(_audit_request("z48", pinned, "audit-c2", 48, (1, 5), 2, 2,
                              "rand", False))
    return out, {}


# ---------------------------------------------------------------------------
# conj-embed

S5_GENS = ([1, 2, 3, 4, 0], [1, 0, 2, 3, 4])


def _points_action(gens: list) -> dict:
    return _action(_uniform(len(gens[0])), gens)


def _transitive_actions():
    """Transitive permutation actions and the groups they generate; the
    largest is S_5 on five points (order 120)."""
    dihedral6 = [[(x + 1) % 6 for x in range(6)], [(-x) % 6 for x in range(6)]]
    return (
        ("c12", [[(x + 1) % 12 for x in range(12)], [(x + 5) % 12 for x in range(12)]]),
        ("d6", dihedral6),
        ("a4", [[1, 2, 0, 3], [0, 2, 3, 1]]),
        ("s4", [[1, 2, 3, 0], [1, 0, 2, 3]]),
        ("s5", [list(g) for g in S5_GENS]),
    )


def _disjoint_union(g1: list, g2: list) -> list:
    n1 = len(g1[0])
    return [p + [n1 + y for y in q] for p, q in zip(g1, g2)]


def _cycle_mismatch(rng, n):
    """One 8-cycle on the last eight atoms plus 4-cycles, against 4-cycles
    only: not conjugate, and the exact phase spends its whole budget."""
    p = [0] * n
    for b in range(0, n - 8, 4):
        for j in range(4):
            p[b + j] = b + (j + 1) % 4
    for j in range(8):
        p[n - 8 + j] = n - 8 + (j + 1) % 8
    q = [0] * n
    for b in range(0, n, 4):
        for j in range(4):
            q[b + j] = b + (j + 1) % 4
    return [p], _relabel([q], _perm(rng, n))


# The joint-quotient offsets come from a fixed draw, not from the seed: with
# Z/6 the offset alone changes the cost sixfold.
PINNED_JOINT_DRAW = 1
# gen-quotient requests on Z/36 with seeded offsets, whose cost the offset
# does not change.  The median falls inside this cluster; without it, it
# falls among conjugacy searches whose cost the seed's relabelling moves.
CONJ_CLUSTER = 14


def conj_embed(seed: int, input_dir: Path) -> tuple[list, dict]:
    rng = random.Random(f"conj-embed:{seed}")
    out = []

    def conj(rid, g1, g2, kind, toy=False):
        a1, a2 = _points_action(g1), _points_action(g2)
        argv = ["conjsearch", _js(a1), _js(a2), "--max-refine", "1"]
        out.append(Request(rid, "conjsearch", argv,
                           {"action1": a1, "action2": a2, "kind": kind,
                            "max_refine": 1}, toy))

    for i, n in enumerate((16, 32, 48, 64, 64, 40)):
        g = [_perm(rng, n), _perm(rng, n)]
        conj(f"c{i:02d}", g, _relabel(g, _perm(rng, n)), "conjugate", toy=n == 16)
    for i, n in enumerate((20, 28, 36)):
        g1, g2 = _cycle_mismatch(rng, n)
        conj(f"m{i:02d}", g1, g2, "mismatch")
    for i, (n, k) in enumerate(((8, 2), (16, 2), (24, 2), (32, 1), (32, 2), (24, 1))):
        conj(f"r{i:02d}", [_perm(rng, n) for _ in range(k)],
             [_perm(rng, n) for _ in range(k)], "random", toy=n == 8)

    actions = _transitive_actions()
    for i, (name, gens) in enumerate(actions):
        pi = _perm(rng, len(gens[0]))
        act = _points_action(_relabel(gens, pi))
        for mode in ("transitive", "profinite"):
            rid = f"t{i:02d}{mode[0]}"
            out.append(Request(rid, "embed", ["embed", _js(act), "--mode", mode],
                               {"action": act}, toy=name == "a4"))
    for i, (left, right) in enumerate((("a4", "c12"), ("d6", "a4"))):
        g1, g2 = dict(actions)[left], dict(actions)[right]
        union = _disjoint_union(g1, g2)
        act = _points_action(_relabel(union, _perm(rng, len(union[0]))))
        out.append(Request(f"u{i:02d}", "embed",
                           ["embed", _js(act), "--mode", "profinite"],
                           {"action": act}))

    for i, (n, unit) in enumerate(((36, 1), (60, 7), (24, 5))):
        out.append(Request(f"q{i:02d}", "gen-quotient",
                           ["gen-quotient", f"cyclic:{n}:{unit},{rng.randrange(n)}"],
                           toy=i == 2))
    for i, (name, gens) in enumerate(actions[2:]):
        pi = _perm(rng, len(gens[0]))
        text = ";".join(",".join(map(str, g)) for g in _relabel(gens, pi))
        out.append(Request(f"s{i:02d}", "gen-quotient",
                           ["gen-quotient", f"sym:{len(pi)}:{text}"]))
    pinned = random.Random(f"conj-embed-pinned:{PINNED_JOINT_DRAW}")
    for i, (n, sym) in enumerate(((6, "sym:4:1,2,3,0;1,0,2,3"), (10, "sym:4:1,2,0,3;0,2,3,1"))):
        out.append(Request(f"j{i:02d}", "joint-quotient",
                           ["joint-quotient", f"cyclic:{n}:1,{pinned.randrange(n)}", sym]))
    cluster_rng = random.Random(f"conj-embed-cluster:{seed}")
    for i in range(CONJ_CLUSTER):
        out.append(Request(f"k{i:02d}", "gen-quotient",
                           ["gen-quotient", f"cyclic:36:1,{cluster_rng.randrange(36)}"]))
    return out, {}


# ---------------------------------------------------------------------------
# cli-queries

def _mixed_masses(rng, n):
    """Atom masses w_i / sum(w) with a few distinct weights, so equal-mass
    classes exist for permutations to move within, and reduced fractions
    have mixed denominators."""
    pool = rng.sample(range(1, 10), rng.randint(2, 4))
    ws = [rng.choice(pool) for _ in range(n)]
    total = sum(ws)
    return [Fraction(w, total) for w in ws]


def _mass_perm(rng, masses):
    """A random mass-preserving permutation: shuffle within equal-mass classes."""
    classes = {}
    for x, m in enumerate(masses):
        classes.setdefault(m, []).append(x)
    p = list(range(len(masses)))
    for members in classes.values():
        images = members[:]
        rng.shuffle(images)
        for x, y in zip(members, images):
            p[x] = y
    return p


def _apply(p, event):
    return sorted(p[x] for x in event)


CLI_COMMANDS = ("dist", "typedist", "indep", "delta", "match", "refine",
                "tensor", "eppa", "ergodize", "audit-c1")
CLI_ROUNDS = 24
MAX_METRIC_ATOMS = 32
TOY_ROUNDS = 1


class _Files:
    """Puts some object arguments in files, the rest stay inline JSON.  The
    files are only named here; `texts` maps each path to its contents."""

    def __init__(self, rng, input_dir: Path):
        self.rng = rng
        self.dir = input_dir
        self.texts: dict = {}

    def arg(self, obj) -> str:
        text = _js(obj)
        if self.rng.random() < 0.3:
            path = self.dir / f"obj{len(self.texts):04d}.json"
            self.texts[path] = text
            return str(path)
        return text


def _cli_request(rid, command, rng, files, use_max, toy):
    if use_max:
        # one shape for every simplex request, so the tail they form is one cluster
        n = 16 if toy else MAX_METRIC_ATOMS
    else:
        n = rng.randint(8, 16) if toy else rng.randint(8, 64)
    masses = _mixed_masses(rng, n)
    alg = {"atoms": [_fr(m) for m in masses]}
    metric = ["--metric", "max"] if use_max else []
    if command == "dist":
        arity = rng.randint(1, 3)
        a, b = _tuple(rng, n, arity), _tuple(rng, n, arity)
        return Request(rid, command, [command, files.arg(alg), files.arg(a), files.arg(b)],
                       {"algebra": alg, "a": a, "b": b}, toy)
    if command in ("typedist", "indep"):
        base = _tuple(rng, n, 1 if use_max else rng.randint(0 if command == "typedist" else 1, 2))
        arity = 2 if use_max else rng.randint(1, 2)
        b, c = _tuple(rng, n, arity), _tuple(rng, n, arity)
        argv = [command, files.arg(alg), files.arg(base), files.arg(b), files.arg(c)] + metric
        return Request(rid, command, argv,
                       {"algebra": alg, "base": base, "b": b, "c": c,
                        "metric": "max" if use_max else "tv"}, toy)
    if command == "delta":
        k = rng.randint(1, 2)
        gs = [_mass_perm(rng, masses) for _ in range(k)]
        hs = [_mass_perm(rng, masses) for _ in range(k)]
        g, h = (gs[0], hs[0]) if k == 1 else (gs, hs)
        return Request(rid, command, [command, files.arg(alg), files.arg(g), files.arg(h)],
                       {"algebra": alg, "g": gs, "h": hs}, toy)
    if command == "match":
        arity = rng.randint(1, 3)
        a = _tuple(rng, n, arity)
        p = _mass_perm(rng, masses)
        b = [_apply(p, e) for e in a]
        return Request(rid, command, [command, files.arg(alg), files.arg(a), files.arg(b)],
                       {"algebra": alg, "a": a, "b": b}, toy)
    if command == "eppa":
        partials = []
        for _ in range(rng.randint(1, 3)):
            p = _mass_perm(rng, masses)
            atoms = rng.sample(range(n), rng.randint(1, n // 2))
            pairs, i = [], 0
            while i < len(atoms):
                size = rng.randint(1, 3)
                block = sorted(atoms[i:i + size])
                pairs.append({"source": block, "target": _apply(p, block)})
                i += size
            partials.append({"pairs": pairs})
        argv = [command, files.arg(alg)] + [files.arg(p) for p in partials]
        return Request(rid, command, argv, {}, toy)
    if command == "ergodize":
        size = rng.choice((2, 3, 4))
        blocks_n = max(2, n // size)
        n = blocks_n * size
        order = _perm(rng, blocks_n)
        gens = []
        for gi in range(rng.randint(1, 2)):
            # generator 0 cycles the blocks, so no union of blocks is invariant
            bmap = ({order[j]: order[(j + 1) % blocks_n] for j in range(blocks_n)}
                    if gi == 0 else dict(enumerate(_perm(rng, blocks_n))))
            g = [0] * n
            for src, dst in bmap.items():
                inner = _perm(rng, size)
                for j in range(size):
                    g[src * size + j] = dst * size + inner[j]
            gens.append(g)
        act = _action(_uniform(n), gens)
        fixed = [list(range(b * size, (b + 1) * size)) for b in range(blocks_n)]
        return Request(rid, command, [command, files.arg(act), files.arg(fixed)], {}, toy)
    # refine, tensor and audit-c1 take an action on the mixed algebra
    k = rng.randint(1, 2)
    act = _action(alg["atoms"], [_mass_perm(rng, masses) for _ in range(k)])
    if command == "refine":
        return Request(rid, command, [command, files.arg(act), str(rng.randint(2, 3))], {}, toy)
    if command == "tensor":
        factor = {"atoms": [_fr(m) for m in _mixed_masses(rng, rng.randint(2, 4))]}
        return Request(rid, command, [command, files.arg(act), files.arg(factor)], {}, toy)
    a = _tuple(rng, n, 1)
    arity = 1 if use_max else rng.randint(1, 2)
    bs = [_tuple(rng, n, arity) for _ in range(k + 1)]
    argv = [command, files.arg(act), files.arg(a), "1/10"] + [files.arg(b) for b in bs] + metric
    return Request(rid, command, argv, {}, toy)


# The pinned simplex case: typedist --metric max with a base and two fiber
# events on 32 atoms, from a fixed draw whose program is larger than any
# seeded one.  Sent PINNED_LP_SENDS times per cycle, so that the cycle's
# costliest 1% of requests is this one instance and not whichever seeded
# program happens to need the most pivots.
PINNED_LP_DRAW = 3
PINNED_LP_SENDS = 3


def _pinned_lp() -> list:
    rng = random.Random(f"cli-queries-pinned:{PINNED_LP_DRAW}")
    n = 32
    alg = {"atoms": [_fr(m) for m in _mixed_masses(rng, n)]}
    base, b, c = (_tuple(rng, n, 2) for _ in range(3))
    return ["typedist", _js(alg), _js(base), _js(b), _js(c), "--metric", "max"]


def cli_queries(seed: int, input_dir: Path) -> tuple[list, dict]:
    """CLI_ROUNDS rounds of the ten commands, each request on its own fresh
    algebra; one typedist or audit-c1 request in two uses the simplex, about
    one request in ten overall.  The pinned simplex case opens every
    CLI_ROUNDS / PINNED_LP_SENDS rounds."""
    rng = random.Random(f"cli-queries:{seed}")
    files = _Files(rng, input_dir)
    out = []
    for r in range(CLI_ROUNDS):
        if r % (CLI_ROUNDS // PINNED_LP_SENDS) == 0:
            out.append(Request(f"pinned-lp-{r:02d}", "typedist", _pinned_lp(),
                               {"metric": "max"}))
        for command in CLI_COMMANDS:
            use_max = command in ("typedist", "audit-c1") and r % 2 == 1
            toy = r < TOY_ROUNDS
            out.append(_cli_request(f"{command}-{r:02d}", command, rng, files,
                                    use_max, toy))
    return out, files.texts


GENERATORS = {
    "audit-sweep": audit_sweep,
    "conj-embed": conj_embed,
    "cli-queries": cli_queries,
}


def generate(workload: str, seed: int, input_dir: Path) -> tuple[list, dict]:
    """The workload's cycle, and the input files its requests name (path ->
    text), not yet written: see write_inputs."""
    return GENERATORS[workload](seed, input_dir)


def write_inputs(texts: dict) -> None:
    """Write the input files.  Kept out of the set-up time: writing some 200
    small files takes from 0.04 to 0.15 s on the shared disk the benchmark
    was defined on, noise that says nothing about pmplab."""
    for path, text in texts.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
