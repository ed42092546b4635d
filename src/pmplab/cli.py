"""Command-line driver emitting deterministic JSON reports.

Every subcommand reads its objects as inline JSON, a path to a JSON file,
or (for groups) a builtin string, and writes exactly one JSON document to
stdout: sorted keys, two-space indent, rationals as "num/den" strings.
Identical inputs produce byte-identical output.  Exit codes: 0 success,
2 domain validation failure (with a machine-readable error object on
stdout), 64 usage error.

A known subcommand's argv is read from the command table itself: its
positionals first, then exact `--name value` pairs.  Any other form, and
every help or usage error, goes to argparse, which answers it; argparse is
imported only when a parser is built.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from types import SimpleNamespace

from . import jsonio
from .action import product_action, uniform_distance_tuples
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
from .jsonio import _BUILTIN_GROUP_KINDS, _int_list, decimal_rendering, format_rational
from .modeltheory import TYPE_METRICS, independence_deficiency, type_distance

USAGE_EXIT = 64
VALIDATION_EXIT = 2


def _load(arg: str) -> object:
    """Interpret a CLI object argument.

    Inline JSON when it starts with a brace or bracket, a builtin group
    string when it starts with a known kind, otherwise a path to a JSON
    file."""
    s = arg.strip()
    if s.startswith("{") or s.startswith("["):
        text, prefix = s, "bad inline JSON"
    elif s.split(":", 1)[0] in _BUILTIN_GROUP_KINDS:
        return s
    else:
        try:  # open first: a file that opens pays no separate stat
            fh = open(s, "r", encoding="utf-8")
        except (OSError, ValueError):  # ValueError: a NUL in the path
            if os.path.exists(s):
                raise  # a directory, or a file this process may not read
            raise ValidationError(
                f"cannot interpret {arg!r}: not inline JSON, a builtin group, or a readable file"
            ) from None
        with fh:
            text = fh.read()
        prefix = f"bad JSON in file {s}"
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"{prefix}: {exc}") from exc


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


def _tuple_inputs(args, *names) -> list:
    """The event tuples named, in order, each read over the algebra argument."""
    alg = jsonio.algebra_from_json(_load(args.algebra))
    return [jsonio.tuple_from_json(alg, _load(getattr(args, name))) for name in names]


def _cmd_dist(args) -> dict:
    a, b = _tuple_inputs(args, "a", "b")
    return {
        "dist_max": format_rational(dist_max(a, b)),
        "dist_partition": format_rational(dist_partition(a, b)),
    }


def _cmd_typedist(args) -> dict:
    base, b, c = _tuple_inputs(args, "base", "b", "c")
    value = type_distance(args.metric)(base, b, c)
    return {"metric": args.metric, "distance": format_rational(value),
            "distance_decimal": decimal_rendering(value)}


def _cmd_indep(args) -> dict:
    base, b, c = _tuple_inputs(args, "base", "b", "c")
    value = independence_deficiency(base, b, c)
    return {"deficiency": format_rational(value), "deficiency_decimal": decimal_rendering(value)}


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
    else:
        g, h = [g], [h]
    # integer lists; uniform_distance_tuples checks each as a permutation
    gs = [_int_list(p, "permutation argument") for p in g]
    hs = [_int_list(p, "permutation argument") for p in h]
    return {"delta": format_rational(uniform_distance_tuples(alg, gs, hs))}


def _cmd_match(args) -> dict:
    a, b = _tuple_inputs(args, "a", "b")
    m = match_partitions(a, b)
    return {
        "refined": jsonio.algebra_to_json(m.refined),
        "projection": list(m.projection),
        "perm": list(m.perm),
        "dist_partition": format_rational(m.dp),
    }


def _cmd_eppa(args) -> dict:
    alg = jsonio.algebra_from_json(_load(args.algebra))
    partials = [
        jsonio.partial_from_json(alg, alg, _load(p)) for p in args.partials
    ]
    res = eppa_extend(alg, partials)
    return {
        "algebra": jsonio.algebra_to_json(res.action.algebra),
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
    cert = approx_conjugacy_search(a1, a2, max_refine=args.max_refine)
    return {
        "eps": format_rational(cert.eps),
        "eps_decimal": decimal_rendering(cert.eps),
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
        "xi": [format_rational(x) for x in report.xi],
        "xi_decimal": [decimal_rendering(x) for x in report.xi],
        "psi": [format_rational(p) for p in report.psi],
        "psi_decimal": [decimal_rendering(p) for p in report.psi],
        "eps": format_rational(report.eps),
        "metric": args.metric,
        "satisfied": report.satisfied,
    }


def _cmd_audit_c2(args) -> dict:
    act, a, bs = _audit_inputs(args)
    eps = jsonio.parse_rational(args.eps)
    res = search_C2_witness(act, a, bs, eps, max_refine=args.max_refine)
    return {
        "found": res.found,
        "c": jsonio.tuple_to_json(res.c),
        "distance": format_rational(res.distance),
        "distance_decimal": decimal_rendering(res.distance),
        "refinement_depth": res.refinement_depth,
    }


def _cmd_audit_residual(args) -> dict:
    act, a, bs = _audit_inputs(args)
    value = axiom_residual(act, a, bs, max_refine=args.max_refine)
    return {"residual": format_rational(value), "residual_decimal": decimal_rendering(value)}


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
    return {
        "found": res.found,
        "cs": jsonio.tuple_to_json(res.cs),
        "discrepancy": format_rational(res.discrepancy),
        "discrepancy_decimal": decimal_rendering(res.discrepancy),
        "refinement_depth": res.refinement_depth,
    }


# ---------------------------------------------------------------------------
# parser assembly and dispatch


# Every subcommand: name -> (handler, arguments, help).  An argument is a
# name or (name, options); every subcommand also takes --out.
_BS = ("bs", {"nargs": "+"})
_DEPTH = ("--max-refine", {"type": int, "default": 1, "dest": "max_refine"})
_METRIC = ("--metric", {"choices": TYPE_METRICS, "default": "tv"})
_COMMANDS = {
    "gen-quotient": (_cmd_gen_quotient, ("group",),
                     "quotient action of a marked group"),
    "joint-quotient": (_cmd_joint_quotient, ("group1", "group2"),
                       "subgroup of a product generated by paired generators"),
    "tensor": (_cmd_tensor, ("action", "factor"),
               "tensor an action with a trivial factor"),
    "refine": (_cmd_refine, ("action", ("parts", {"type": int})),
               "split every atom into equal parts"),
    "dist": (_cmd_dist, ("algebra", "a", "b"),
             "max and partition distances between tuples"),
    "typedist": (_cmd_typedist, ("algebra", "base", "b", "c", _METRIC),
                 "type distance over a base tuple"),
    "indep": (_cmd_indep, ("algebra", "base", "b", "c"),
              "conditional independence deficiency"),
    "delta": (_cmd_delta, ("algebra", "g", "h"),
              "uniform distance between automorphisms"),
    "match": (_cmd_match, ("algebra", "a", "b"),
              "automorphism carrying one tuple onto an equidistributed one"),
    "eppa": (_cmd_eppa, ("algebra", ("partials", {"nargs": "+"})),
             "extend partial automorphisms over an equal-atom algebra"),
    "ergodize": (_cmd_ergodize, ("action", "fixed"),
                 "make an action transitive fixing a block partition"),
    "embed": (_cmd_embed, ("action", ("--mode", {"choices": ("transitive", "profinite"),
                                                 "default": "profinite"})),
              "embed into a quotient (or quotient tensor trivial) action"),
    "conjsearch": (_cmd_conjsearch, ("action1", "action2", _DEPTH),
                   "search for a near-conjugacy with an exact certificate"),
    "audit-c1": (_cmd_audit_c1, ("action", "a", "eps", _BS, _METRIC),
                 "first closure condition quantities"),
    "audit-c2": (_cmd_audit_c2, ("action", "a", "eps", _BS, _DEPTH),
                 "witness search for the second closure condition"),
    "audit-residual": (_cmd_audit_residual, ("action", "a", _BS, _DEPTH),
                       "certified upper bound for the closure axiom residual"),
    "audit-ec": (_cmd_audit_ec, ("small", "big", "embed", "a", "bs", "words", "eps", _DEPTH),
                 "imitate an extension tuple inside the small system"),
}


@functools.lru_cache(maxsize=None)
def _argument_table(name: str):
    """Subcommand name's arguments as _read_argv reads them: its positionals
    [(dest, options)], its flags {option string: (dest, options)}, --out
    among them, and the value of every dest argparse sets but argv does not,
    handler included.  The reader takes the forms _COMMANDS is written in,
    which the command-line tests check for every command: the options type,
    choices, default, dest and nargs, no flag with nargs, and nargs "+" on
    the last positional alone."""
    handler, arguments, _help = _COMMANDS[name]
    positionals, flags = [], {"--out": ("out", {})}
    defaults = {"out": None, "handler": handler}
    for arg in arguments:
        flag, options = arg if isinstance(arg, tuple) else (arg, {})
        if flag.startswith("-"):
            dest = options.get("dest", flag.lstrip("-").replace("-", "_"))
            flags[flag] = (dest, options)
            defaults[dest] = options.get("default")
        else:
            positionals.append((flag, options))
    return positionals, flags, defaults


def _convert(options: dict, token: str):
    """token read as argparse reads it for an argument with these options:
    through its type, then checked against its choices.  Raises ValueError
    or TypeError where argparse reports a usage error."""
    value = options["type"](token) if "type" in options else token
    if "choices" in options and value not in options["choices"]:
        raise ValueError(f"{value!r} is not a choice")
    return value


def _read_argv(name: str, argv: list):
    """The namespace argparse gives argv, the arguments of subcommand name,
    read from the command table; None where the reader declines argv and
    leaves it to argparse.

    It takes the positionals first, then exact `--name value` pairs, each
    value through its argument's type and choices; a last nargs="+"
    positional takes every positional left.  It declines any other form: a
    token starting with "-" where a positional or a value stands (-h, --
    and -1 among them), --opt=value, an abbreviated or unknown option, an
    option before a positional, a wrong count and a failed conversion."""
    positionals, flags, defaults = _argument_table(name)
    heads = next((i for i, token in enumerate(argv) if token.startswith("-")), len(argv))
    pairs = argv[heads:]
    if len(pairs) % 2:
        return None
    values = dict(defaults)
    *fixed, (last, options) = positionals
    try:
        for flag, token in zip(pairs[::2], pairs[1::2]):
            if flag not in flags or token.startswith("-"):
                return None
            dest, flag_options = flags[flag]
            values[dest] = _convert(flag_options, token)
        if options.get("nargs") == "+" and heads > len(fixed):
            values[last] = [_convert(options, token) for token in argv[len(fixed):heads]]
        elif heads == len(positionals):
            values[last] = _convert(options, argv[heads - 1])
        else:
            return None
        for (dest, fixed_options), token in zip(fixed, argv):
            values[dest] = _convert(fixed_options, token)
    except (TypeError, ValueError):
        return None
    return SimpleNamespace(**values)


@functools.lru_cache(maxsize=None)
def _parser_class() -> type:
    """argparse's parser with the usage-error exit code fixed at 64.
    argparse, and with it gettext, is imported here, when a process builds
    its first parser."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str):  # noqa: D401 - argparse hook
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(USAGE_EXIT)

    return _Parser


def _add_arguments(parser, name: str):
    """Give parser the arguments of subcommand name, --out and its handler."""
    handler, arguments, _help = _COMMANDS[name]
    for arg in arguments:
        if isinstance(arg, tuple):
            parser.add_argument(arg[0], **arg[1])
        else:
            parser.add_argument(arg)
    parser.add_argument("--out", default=None, help="also write the document here")
    parser.set_defaults(handler=handler)
    return parser


def build_parser():
    """The root parser, with every subcommand as a subparser.

    Dispatch builds it only to answer -h, an empty argv or an unknown
    command.  Its description is the first two paragraphs of this module's
    docstring."""
    parser_class = _parser_class()
    parser = parser_class(prog="pmplab", description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)
    for name, (_handler, _arguments, help_) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_), name)
    return parser


@functools.lru_cache(maxsize=None)
def _command_parser(name: str):
    """The parser of one subcommand, built on the first argv of that command
    the reader declines and kept: parsing reads it and never changes it.
    Its prog, arguments and help are those of the root's subparser of the
    same name."""
    return _add_arguments(_parser_class()(prog=f"pmplab {name}"), name)


def cli_dispatch(argv) -> int:
    """Answer one request: argv is a subcommand name and its arguments.

    A known subcommand's arguments are read from the command table
    (_read_argv), which builds no parser.  A form the reader declines goes
    to that command's own parser, which parses it or prints the command's
    help or usage error.  Anything else goes to the root parser, which
    prints the help or the usage error listing every subcommand."""
    argv = list(argv)
    known = bool(argv) and argv[0] in _COMMANDS
    args = _read_argv(argv[0], argv[1:]) if known else None
    if args is None:
        parser = _command_parser(argv[0]) if known else build_parser()
        try:
            args = parser.parse_args(argv[1:] if known else argv)
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
    except (PmplabError, ValueError, OSError) as exc:
        error: dict[str, object] = {"type": type(exc).__name__, "message": str(exc)}
        element = getattr(exc, "element", None)
        if element is not None:
            error["element"] = list(element)
        sys.stdout.write(jsonio.render_document({"error": error}))
        return VALIDATION_EXIT


def entry() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    entry()
