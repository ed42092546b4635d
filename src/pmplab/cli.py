"""Command-line driver emitting deterministic JSON reports.

Every subcommand reads its objects as inline JSON, a path to a JSON file,
or (for groups) a builtin string, and writes exactly one JSON document to
stdout: sorted keys, two-space indent, rationals as "num/den" strings.
Identical inputs produce byte-identical output.  Exit codes: 0 success,
2 domain validation failure (with a machine-readable error object on
stdout), 64 usage error.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Any

from . import jsonio
from .action import (
    check_permutation,
    product_action,
    uniform_distance,
    uniform_distance_tuples,
)
from .algebra import dist_max, dist_partition, uniform_algebra
from .audit import (
    axiom_residual,
    check_C1,
    ec_in_extension_check,
    search_C2_witness,
)
from .constructions import (
    approx_conjugacy_search,
    embed_into_profinite_tensor,
    embed_transitive_into_quotient,
    eppa_extend,
    ergodize,
    joint_quotient,
    match_partitions,
    quotient_action,
)
from .errors import ArityMismatch, PmplabError, ValidationError
from .jsonio import _int_list
from .modeltheory import TYPE_METRICS, independence_deficiency, type_distance

USAGE_EXIT = 64
VALIDATION_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code fixed at 64."""

    def error(self, message: str):  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _load(arg: str) -> Any:
    """Interpret a CLI object argument.

    Inline JSON when it starts with a brace or bracket, a builtin group
    string when it starts with a known kind, otherwise a path to a JSON
    file."""
    s = arg.strip()
    if s.startswith("{") or s.startswith("["):
        try:
            return json.loads(s)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad inline JSON: {exc}") from exc
    if s.split(":", 1)[0] in ("cyclic", "sym"):
        return s
    if os.path.exists(s):
        with open(s, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad JSON in file {s}: {exc}") from exc
    raise ValidationError(
        f"cannot interpret {arg!r}: not inline JSON, a builtin group, or a readable file"
    )


def _fr(value: Fraction) -> str:
    return jsonio.format_rational(value)


def _dec(value: Fraction) -> str:
    return jsonio.decimal_rendering(value)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen_quotient(args) -> dict:
    group = jsonio.group_from_json(_load(args.group))
    return jsonio.action_to_json(quotient_action(group))


def _cmd_joint_quotient(args) -> dict:
    g1 = jsonio.group_from_json(_load(args.group1))
    g2 = jsonio.group_from_json(_load(args.group2))
    jq = joint_quotient(g1, g2)
    group = jq.group
    # The whole order^2 table, not group_to_json's columns: the benchmark
    # pins these bytes until its reference is re-recorded (ROADMAP item 6
    # step 2).
    return {
        "group": {
            "order": group.order,
            "mul": [list(row) for row in group.rows(range(group.order))],
            "gens": list(group.gen_images),
        },
        "proj1": list(jq.proj1),
        "proj2": list(jq.proj2),
    }


def _cmd_tensor(args) -> dict:
    act = jsonio.action_from_json(_load(args.action))
    factor = jsonio.algebra_from_json(_load(args.factor))
    return jsonio.action_to_json(product_action(act, factor)[0])


def _cmd_refine(args) -> dict:
    act = jsonio.action_from_json(_load(args.action))
    if args.parts < 1:
        raise ValidationError(f"parts must be >= 1, got {args.parts}")
    refined, projection = product_action(act, uniform_algebra(args.parts))
    return {
        "action": jsonio.action_to_json(refined),
        "projection": list(projection),
    }


def _cmd_dist(args) -> dict:
    alg = jsonio.algebra_from_json(_load(args.algebra))
    a = jsonio.tuple_from_json(alg, _load(args.a))
    b = jsonio.tuple_from_json(alg, _load(args.b))
    return {
        "dist_max": _fr(dist_max(a, b)),
        "dist_partition": _fr(dist_partition(a, b)),
    }


def _cmd_typedist(args) -> dict:
    alg = jsonio.algebra_from_json(_load(args.algebra))
    base = jsonio.tuple_from_json(alg, _load(args.base))
    b = jsonio.tuple_from_json(alg, _load(args.b))
    c = jsonio.tuple_from_json(alg, _load(args.c))
    value = type_distance(args.metric)(base, b, c)
    return {"metric": args.metric, "distance": _fr(value), "distance_decimal": _dec(value)}


def _cmd_indep(args) -> dict:
    alg = jsonio.algebra_from_json(_load(args.algebra))
    base = jsonio.tuple_from_json(alg, _load(args.base))
    b = jsonio.tuple_from_json(alg, _load(args.b))
    c = jsonio.tuple_from_json(alg, _load(args.c))
    value = independence_deficiency(base, b, c)
    return {"deficiency": _fr(value), "deficiency_decimal": _dec(value)}


def _parse_perm_arg(alg, obj) -> tuple:
    perm = tuple(_int_list(obj, "permutation argument"))
    check_permutation(alg, perm)
    return perm


def _is_perm_list(obj) -> bool:
    """A JSON array whose first entry is an array: a list of permutations."""
    return isinstance(obj, list) and bool(obj) and isinstance(obj[0], list)


def _cmd_delta(args) -> dict:
    alg = jsonio.algebra_from_json(_load(args.algebra))
    g = _load(args.g)
    h = _load(args.h)
    if _is_perm_list(g):
        if not _is_perm_list(h) or len(g) != len(h):
            raise ArityMismatch("both sides must be equal-length lists of permutations")
        gs = [_parse_perm_arg(alg, p) for p in g]
        hs = [_parse_perm_arg(alg, p) for p in h]
        value = uniform_distance_tuples(alg, gs, hs)
    else:
        value = uniform_distance(alg, _parse_perm_arg(alg, g), _parse_perm_arg(alg, h))
    return {"delta": _fr(value)}


def _cmd_match(args) -> dict:
    alg = jsonio.algebra_from_json(_load(args.algebra))
    a = jsonio.tuple_from_json(alg, _load(args.a))
    b = jsonio.tuple_from_json(alg, _load(args.b))
    m = match_partitions(a, b)
    return {
        "refined": jsonio.algebra_to_json(m.refined),
        "projection": list(m.projection),
        "perm": list(m.perm),
        "dist_partition": _fr(m.dp),
    }


def _cmd_eppa(args) -> dict:
    alg = jsonio.algebra_from_json(_load(args.algebra))
    partials = [
        jsonio.partial_from_json(alg, alg, _load(p)) for p in args.partials
    ]
    res = eppa_extend(alg, partials)
    return {
        "algebra": jsonio.algebra_to_json(res.algebra),
        "action": jsonio.action_to_json(res.action),
        "embedding": jsonio.partial_to_json(res.embedding),
    }


def _cmd_ergodize(args) -> dict:
    act = jsonio.action_from_json(_load(args.action))
    fixed = jsonio.partition_from_json(act.algebra, _load(args.fixed))
    res = ergodize(act, fixed)
    return {
        "action": jsonio.action_to_json(res.action),
        "modifications": res.modifications,
    }


def _cmd_embed(args) -> dict:
    act = jsonio.action_from_json(_load(args.action))
    if args.mode == "transitive":
        res = embed_transitive_into_quotient(act)
    else:
        res = embed_into_profinite_tensor(act)
    out = {
        "group": jsonio.group_to_json(res.group),
        "elements": [list(e) for e in res.elements],
        "target": jsonio.action_to_json(res.target),
        "sigma": jsonio.partial_to_json(res.sigma),
    }
    if res.base_factor is not None:
        out["base_factor"] = jsonio.algebra_to_json(res.base_factor)
    return out


def _cmd_conjsearch(args) -> dict:
    a1 = jsonio.action_from_json(_load(args.action1))
    a2 = jsonio.action_from_json(_load(args.action2))
    cert = approx_conjugacy_search(
        a1, a2, max_refine=args.max_refine, beam_width=args.beam
    )
    return {
        "eps": _fr(cert.eps),
        "eps_decimal": _dec(cert.eps),
        "mapping": list(cert.iso.mapping),
        "refined_atoms": cert.act1_refined.algebra.size,
        "exhausted": cert.exhausted,
    }


def _audit_inputs(args):
    act = jsonio.action_from_json(_load(args.action))
    a = jsonio.tuple_from_json(act.algebra, _load(args.a))
    bs = [jsonio.tuple_from_json(act.algebra, _load(b)) for b in args.bs]
    return act, a, bs


def _cmd_audit_c1(args) -> dict:
    act, a, bs = _audit_inputs(args)
    eps = jsonio.parse_rational(args.eps)
    report = check_C1(act, a, bs, eps, metric=args.metric)
    return {
        "xi": [_fr(x) for x in report.xi],
        "xi_decimal": [_dec(x) for x in report.xi],
        "psi": [_fr(p) for p in report.psi],
        "psi_decimal": [_dec(p) for p in report.psi],
        "eps": _fr(report.eps),
        "metric": args.metric,
        "satisfied": report.satisfied,
    }


def _cmd_audit_c2(args) -> dict:
    act, a, bs = _audit_inputs(args)
    eps = jsonio.parse_rational(args.eps)
    res = search_C2_witness(act, a, bs, eps, max_refine=args.max_refine)
    w = res.witness
    return {
        "found": res.found,
        "c": jsonio.tuple_to_json(w.c),
        "distance": _fr(w.distance),
        "distance_decimal": _dec(w.distance),
        "refinement_depth": w.refinement_depth,
    }


def _cmd_audit_residual(args) -> dict:
    act, a, bs = _audit_inputs(args)
    value = axiom_residual(act, a, bs, max_refine=args.max_refine)
    return {"residual": _fr(value), "residual_decimal": _dec(value)}


def _cmd_audit_ec(args) -> dict:
    small = jsonio.action_from_json(_load(args.small))
    big = jsonio.action_from_json(_load(args.big))
    embed = jsonio.partial_from_json(small.algebra, big.algebra, _load(args.embed))
    anchors = jsonio.tuple_from_json(small.algebra, _load(args.a))
    bs = jsonio.tuple_from_json(big.algebra, _load(args.bs))
    words_raw = _load(args.words)
    if not isinstance(words_raw, list):
        raise ValidationError("words must be a JSON array of words")
    words = [jsonio.word_from_json(w) for w in words_raw]
    eps = jsonio.parse_rational(args.eps)
    res = ec_in_extension_check(
        small, big, embed, anchors, bs, words, eps, max_refine=args.max_refine
    )
    w = res.witness
    return {
        "found": res.found,
        "cs": jsonio.tuple_to_json(w.cs),
        "discrepancy": _fr(w.discrepancy),
        "discrepancy_decimal": _dec(w.discrepancy),
        "refinement_depth": w.refinement_depth,
    }


# ---------------------------------------------------------------------------
# parser assembly and dispatch


def build_parser() -> _Parser:
    parser = _Parser(prog="pmplab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    bs = ("bs", {"nargs": "+"})
    depth = ("--max-refine", {"type": int, "default": 1, "dest": "max_refine"})
    metric = ("--metric", {"choices": TYPE_METRICS, "default": "tv"})

    def add(name, handler, *arguments, **kwargs):
        """A subcommand with its arguments, each a name or (name, options),
        and --out."""
        p = sub.add_parser(name, **kwargs)
        for arg in arguments:
            if isinstance(arg, tuple):
                p.add_argument(arg[0], **arg[1])
            else:
                p.add_argument(arg)
        p.add_argument("--out", default=None, help="also write the document here")
        p.set_defaults(handler=handler)

    add("gen-quotient", _cmd_gen_quotient, "group",
        help="quotient action of a marked group")
    add("joint-quotient", _cmd_joint_quotient, "group1", "group2",
        help="subgroup of a product generated by paired generators")
    add("tensor", _cmd_tensor, "action", "factor",
        help="tensor an action with a trivial factor")
    add("refine", _cmd_refine, "action",
        ("parts", {"type": int}),
        help="split every atom into equal parts")
    add("dist", _cmd_dist, "algebra", "a", "b",
        help="max and partition distances between tuples")
    add("typedist", _cmd_typedist, "algebra", "base", "b", "c", metric,
        help="type distance over a base tuple")
    add("indep", _cmd_indep, "algebra", "base", "b", "c",
        help="conditional independence deficiency")
    add("delta", _cmd_delta, "algebra", "g", "h",
        help="uniform distance between automorphisms")
    add("match", _cmd_match, "algebra", "a", "b",
        help="automorphism carrying one tuple onto an equidistributed one")
    add("eppa", _cmd_eppa, "algebra",
        ("partials", {"nargs": "+"}),
        help="extend partial automorphisms over an equal-atom algebra")
    add("ergodize", _cmd_ergodize, "action", "fixed",
        help="make an action transitive fixing a block partition")
    add("embed", _cmd_embed, "action",
        ("--mode", {"choices": ("transitive", "profinite"), "default": "profinite"}),
        help="embed into a quotient (or quotient tensor trivial) action")
    add("conjsearch", _cmd_conjsearch, "action1", "action2", depth,
        ("--beam", {"type": int, "default": 16}),
        help="search for a near-conjugacy with an exact certificate")
    add("audit-c1", _cmd_audit_c1, "action", "a", "eps", bs, metric,
        help="first closure condition quantities")
    add("audit-c2", _cmd_audit_c2, "action", "a", "eps", bs, depth,
        help="witness search for the second closure condition")
    add("audit-residual", _cmd_audit_residual, "action", "a", bs, depth,
        help="certified upper bound for the closure axiom residual")
    add("audit-ec", _cmd_audit_ec, "small", "big", "embed", "a", "bs",
        "words", "eps", depth,
        help="imitate an extension tuple inside the small system")
    return parser


# One parser per process: parsing reads it and never changes it.
_parser = functools.lru_cache(maxsize=1)(build_parser)


def cli_dispatch(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        payload = args.handler(args)
        document = jsonio.render_document(payload)
        if args.out:  # first, so a failed write prints only the error document
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(document)
        sys.stdout.write(document)
        return 0
    except PmplabError as exc:
        error: dict[str, Any] = {
            "type": type(exc).__name__,
            "message": str(exc),
        }
        element = getattr(exc, "element", None)
        if element is not None:
            error["element"] = list(element)
        sys.stdout.write(jsonio.render_document({"error": error}))
        return VALIDATION_EXIT
    except (ValueError, OSError) as exc:
        sys.stdout.write(
            jsonio.render_document(
                {"error": {"type": type(exc).__name__, "message": str(exc)}}
            )
        )
        return VALIDATION_EXIT


def entry() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    entry()
