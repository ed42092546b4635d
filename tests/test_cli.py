"""Command-line driver: subcommands, exit codes, JSON documents,
determinism, and environment handling."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmplab import algebra, cli, constructions, jsonio, limits
from pmplab.cli import cli_dispatch
from pmplab.constructions import MarkedGroup, cyclic_group, quotient_action
from pmplab.jsonio import action_from_json
from pmplab.limits import MAX_REFINED_ATOMS

from test_modeltheory import wide_fibers
from test_replay import ROOT, load

F = Fraction
SRC = Path(__file__).resolve().parents[1] / "src"

Z2_ACTION = '{"algebra":{"atoms":["1/2","1/2"]},"gens":[[1,0]]}'
Z2_TWO_GENS = '{"algebra":{"atoms":["1/2","1/2"]},"gens":[[1,0],[1,0]]}'
QUARTERS = '{"atoms":["1/4","1/4","1/4","1/4"]}'


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_quotient_example(capsys):
    code, out = run(capsys, "gen-quotient", "cyclic:2:1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "algebra": {"atoms": ["1/2", "1/2"]},
        "gens": [[1, 0], [1, 0]],
        "k": 2,
    }
    back = action_from_json(doc)
    expected = quotient_action(cyclic_group(2, [1, 1]))
    assert back.gens == expected.gens
    assert back.algebra.atoms == expected.algebra.atoms


def test_delta_identity_example(capsys):
    code, out = run(capsys, "delta", '{"atoms":["1/2","1/2"]}', "[1,0]", "[1,0]")
    assert code == 0
    assert out == '{\n  "delta": "0/1"\n}\n'


def test_unknown_subcommand_is_usage_error(capsys):
    code, out = run(capsys, "frobnicate")
    assert code == 64
    assert out == ""
    assert cli_dispatch([]) == 64


def test_parser_is_reused_across_requests(capsys, monkeypatch):
    """A valid request is read from the command table and builds no parser.
    A usage error builds its own command's parser, once in a process, and
    an argv the reader declines reuses it.  Only -h, an empty argv and an
    unknown command build the root parser."""
    built = []

    class Counted(cli._parser_class()):
        def __init__(self, **kwargs):
            built.append(kwargs["prog"])
            super().__init__(**kwargs)

    monkeypatch.setattr(cli, "_parser_class", lambda: Counted)
    cli._command_parser.cache_clear()
    try:
        embed = ("embed", Z2_ACTION)
        first = run(capsys, *embed)
        assert first[0] == 0
        transitive = run(capsys, *embed, "--mode", "transitive")
        assert transitive[0] == 0 and "base_factor" not in json.loads(transitive[1])
        assert run(capsys, "delta", HALVES, "[1,0]", "[1,0]")[0] == 0
        assert built == []
        assert run(capsys, "embed", Z2_ACTION, "--mode", "sideways") == (64, "")
        assert built == ["pmplab embed"]
        assert run(capsys, "embed", "--mode=transitive", Z2_ACTION) == transitive
        assert run(capsys, "embed", Z2_ACTION, "--mode", "sideways") == (64, "")
        assert run(capsys, *embed) == first
        assert built == ["pmplab embed"]
        for argv, code in ((["-h"], 0), ([], 64), (["frobnicate"], 64)):
            built.clear()
            assert cli_dispatch(argv) == code
            assert built.count("pmplab") == 1
            assert "pmplab embed" in built  # the root's own subparser
        capsys.readouterr()
    finally:
        cli._command_parser.cache_clear()


def _stdio(capsys, fn):
    """fn's exit code (its return value or its SystemExit code), stdout and
    stderr."""
    try:
        code = fn()
    except SystemExit as exc:
        code = exc.code or 0
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, exit_code", [(["-h"], 0), ([], 64), (["frobnicate"], 64)])
def test_root_parser_lists_every_command(capsys, argv, exit_code):
    """-h, an empty argv and an unknown command reach the root parser, whose
    help or usage names all 17 commands."""
    code, out, err = _stdio(capsys, lambda: cli_dispatch(argv))
    assert code == exit_code
    listing = "{" + ",".join(cli._COMMANDS) + "}"
    assert len(cli._COMMANDS) == 17
    assert listing in (out if code == 0 else err)
    assert (out == "") == (code != 0)


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_command_help_is_the_root_subparsers(capsys, name):
    """A command's own parser prints the help, byte for byte, that the root
    parser's subparser of that name prints."""
    expected = _stdio(capsys, lambda: cli.build_parser().parse_args([name, "-h"]))
    assert expected[0] == 0 and expected[1].startswith(f"usage: pmplab {name} ")
    assert _stdio(capsys, lambda: cli_dispatch([name, "-h"])) == expected


def test_usage_error_in_a_command_prints_its_own_usage(capsys):
    """An unknown flag after a known command is a usage error of that
    command: exit 64, empty stdout, and the command's usage line, where the
    root parser printed its own."""
    code, out, err = _stdio(
        capsys, lambda: cli_dispatch(["dist", HALVES, "[[0]]", "[[1]]", "--seed", "3"])
    )
    assert (code, out) == (64, "")
    assert err == (
        "usage: pmplab dist [-h] [--out OUT] algebra a b\n"
        "pmplab dist: error: unrecognized arguments: --seed 3\n"
    )


# The reader of the command table against argparse, its oracle: whenever the
# reader takes an argv, its namespace is argparse's; whatever it declines is
# answered by argparse, as every request was before there was a reader.


def _answer(argv, reader=True):
    """cli_dispatch's exit code, stdout and stderr for argv, with the reader
    or with argparse alone."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        if not reader:
            stack.enter_context(mock.patch.object(cli, "_read_argv", lambda name, rest: None))
        code = cli_dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def _argparse_vars(argv):
    """vars() of the namespace argparse gives argv, or None for a usage error
    or help."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._command_parser(argv[0]).parse_args(argv[1:]))
        except SystemExit:
            return None


def _check_against_argparse(argv):
    """The reader's namespace is argparse's, and dispatch answers argv as
    argparse alone answers it.  Returns whether the reader took argv."""
    read = cli._read_argv(argv[0], argv[1:])
    if read is not None:
        assert vars(read) == _argparse_vars(argv)
    assert _answer(argv) == _answer(argv, reader=False)
    return read is not None


# Tokens no handler can load, so that every answer is quick and no --out file
# is written: none is JSON, a builtin group or a file.
_PLAIN = ["x", "0", "1", "2", "1/2", "max", "tv", "transitive", "profinite", "sideways",
          "", "a b", "x=1"]
_DASHED = ["-", "--", "-1", "-h", "--help", "--out", "--max", "--mode=transitive",
           "--max-refine=2", "--seed", "--beam", "--metric", "--mode", "--max-refine", "-x"]


@st.composite
def _command_argvs(draw):
    """A command, about its count of positionals, a few option pairs, and
    sometimes a stray token anywhere."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    positionals, flags, _defaults = cli._argument_table(name)
    n = len(positionals) + draw(st.sampled_from([0, 0, 0, -1, 1, 2]))
    argv = draw(st.lists(st.sampled_from(_PLAIN), min_size=n, max_size=n))
    pairs = draw(st.lists(st.tuples(st.sampled_from([*flags, *flags, "--max", "--seed"]),
                                    st.sampled_from(_PLAIN * 3 + _DASHED)), max_size=3))
    argv += [token for pair in pairs for token in pair]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_PLAIN + _DASHED)))
    return [name, *argv]


@settings(max_examples=400, deadline=None)
@given(argv=_command_argvs())
def test_reader_agrees_with_argparse(argv):
    _check_against_argparse(argv)


def table_form_errors(commands):
    """Where a command table leaves the forms the reader takes: an option
    outside type, choices, default, dest and nargs, a flag with nargs, or
    nargs on a positional other than a last "+"."""
    errors = []
    for name, (_handler, arguments, _help) in commands.items():
        forms = [arg if isinstance(arg, tuple) else (arg, {}) for arg in arguments]
        for flag, options in forms:
            if not options.keys() <= {"type", "choices", "default", "dest", "nargs"}:
                errors.append(f"{name} {flag}: options {sorted(options)}")
            if flag.startswith("-") and "nargs" in options:
                errors.append(f"{name} {flag}: a flag with nargs")
        positionals = [(flag, options) for flag, options in forms if not flag.startswith("-")]
        for i, (flag, options) in enumerate(positionals):
            allowed = (None, "+") if i == len(positionals) - 1 else (None,)
            if options.get("nargs") not in allowed:
                errors.append(f"{name} {flag}: nargs {options['nargs']!r}")
    return errors


def test_every_command_has_a_table_the_reader_takes():
    assert table_form_errors(cli._COMMANDS) == []


def test_detects_a_table_form_the_reader_does_not_take():
    handler = cli._COMMANDS["dist"][0]
    commands = {
        "flag": (handler, ("x", ("--all", {"action": "store_true"})), ""),
        "flag-nargs": (handler, ("x", ("--ids", {"nargs": "+"})), ""),
        "early": (handler, (("xs", {"nargs": "+"}), "y"), ""),
        "optional": (handler, ("x", ("y", {"nargs": "?"})), ""),
        "fine": (handler, ("x", ("ys", {"nargs": "+", "type": int}), ("--n", {"default": 1})), ""),
    }
    assert table_form_errors(commands) == [
        "flag --all: options ['action']",
        "flag-nargs --ids: a flag with nargs",
        "early xs: nargs '+'",
        "optional y: nargs '?'",
    ]
    with mock.patch.dict(cli._COMMANDS, {"flag": commands["flag"]}):
        assert table_form_errors(cli._COMMANDS) != []


@pytest.mark.parametrize("argv, read", [
    (["dist", "x", "y", "z"], True),
    (["dist", "x", "y", "z", "--out", ""], True),
    (["audit-c1", "x", "y", "1/2", "b1", "b2", "--metric", "max"], True),
    (["conjsearch", "x", "y", "--beam", "3", "--beam", "4"], True),  # repeated: the last wins
    (["eppa", "x", "p", "q", "r"], True),
    (["refine", "x", "3"], True),
    (["dist", "-h"], False),
    (["dist", "x", "y", "z", "--help"], False),
    (["embed", "x", "--mode=transitive"], False),
    (["conjsearch", "x", "y", "--max", "2"], False),  # an abbreviation
    (["conjsearch", "x", "y", "--max-refine", "-1"], False),
    (["embed", "--mode", "transitive", "x"], False),  # an option before a positional
    (["dist", "x", "--out", "f", "y", "z"], False),
    (["dist", "x", "y", "--", "z"], False),
    (["refine", "x", "-1"], False),
    (["refine", "x", "two"], False),  # a failed conversion
    (["dist", "x", "y", "z", "--out"], False),  # a missing value
    (["embed", "x", "--mode", "sideways"], False),  # a bad choice
    (["dist", "x", "y"], False),
    (["dist", "x", "y", "z", "w"], False),
    (["eppa", "x"], False),
    (["conjsearch", "x", "y", "--beam", "3", "--beam", "four"], False),
])
def test_reader_edge_forms(argv, read):
    assert _check_against_argparse(argv) == read


def test_every_benchmark_request_is_read_without_a_parser(monkeypatch, tmp_path):
    """Seeds 0-2 of every workload: the reader takes each request's argv,
    and its namespace is argparse's."""
    workloads = load(monkeypatch, "workloads", ROOT / "perfbench" / "workloads.py")
    for workload in workloads.WORKLOADS:
        for seed in range(3):
            requests, _texts = workloads.generate(workload, seed, tmp_path / workload)
            for req in requests:
                read = cli._read_argv(req.argv[0], req.argv[1:])
                assert read is not None, req.argv[:1]
                assert vars(read) == _argparse_vars(req.argv), req.rid


def test_group_past_the_order_cap_is_refused(capsys):
    """S_8, 40,320 elements, is answered and S_9, 362,880, refused, each
    within a second."""
    for n, code in ((8, 0), (9, 2)):
        cycle = ",".join(str((x + 1) % n) for x in range(n))
        swap = ",".join(map(str, [1, 0, *range(2, n)]))
        start = time.perf_counter()
        got, out = run(capsys, "gen-quotient", f"sym:{n}:{cycle};{swap}")
        assert time.perf_counter() - start < 1.0
        assert got == code
        if code:
            assert json.loads(out)["error"]["type"] == "InstanceTooLarge"
        else:
            assert len(json.loads(out)["gens"][0]) == 40320


@pytest.mark.parametrize(
    "text, kind",
    [
        ("cyclic:4:2", "NotGenerating"),
        ("sym:3:0,0,1", "NotBijective"),
        ("cyclic:3:x", "ValidationError"),
    ],
)
def test_builtin_group_error_keeps_its_type(capsys, text, kind):
    code, out = run(capsys, "gen-quotient", text)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == kind
    assert error["message"].startswith(f"bad builtin group {text!r}: ")


def test_validation_error_object(capsys):
    code, out = run(capsys, "dist", '{"atoms":["1/2","1/3"]}', "[[0]]", "[[1]]")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "MassNotOne"
    assert "message" in doc["error"]


def test_ergodize_reports_element_in_error(capsys):
    action = '{"algebra":%s,"gens":[[1,0,3,2],[0,1,2,3]]}' % QUARTERS
    code, out = run(capsys, "ergodize", action, "[[0,1],[2,3]]")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "PreconditionInvariantElement"
    assert doc["error"]["element"] == [0, 1]


@pytest.mark.parametrize("fixed, atom", [("[[0,1,5]]", 5), ("[[0,1],[-1]]", -1)])
def test_ergodize_names_out_of_range_block_atom(capsys, fixed, atom):
    # the blocks cover every atom, so "must cover all atoms" would mislead
    code, out = run(capsys, "ergodize", Z2_ACTION, fixed)
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "PartMassMismatch",
        "message": f"atom index {atom} out of range for algebra of size 2",
    }


def test_dist_and_typedist_metrics(capsys):
    code, out = run(capsys, "dist", '{"atoms":["1/2","1/2"]}', "[[0]]", "[[1]]")
    assert code == 0
    assert json.loads(out) == {"dist_max": "1/1", "dist_partition": "1/1"}

    args = ("typedist", QUARTERS, "[]", "[[0,1],[0,1]]", "[[0,1],[2,3]]")
    _, tv_out = run(capsys, *args)
    assert json.loads(tv_out)["distance"] == "1/1"
    _, max_out = run(capsys, *args, "--metric", "max")
    doc = json.loads(max_out)
    assert doc["distance"] == "1/2"
    assert doc["metric"] == "max"


def test_typedist_max_past_the_program_cap_is_refused(capsys):
    """Arity 6 of wide_fibers: a 54 x 607 program, refused at once."""
    base, b, c = wide_fibers(6)
    tuples = [json.dumps([list(e.members) for e in t.events]) for t in (base, b, c)]
    started = time.perf_counter()
    code, out = run(capsys, "typedist", json.dumps({"atoms": ["1/128"] * 128}), *tuples,
                    "--metric", "max")
    assert time.perf_counter() - started < 1
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InstanceTooLarge"


def test_match_example(capsys):
    code, out = run(capsys, "match", QUARTERS, "[[0,1]]", "[[0,2]]")
    assert code == 0
    doc = json.loads(out)
    assert doc["perm"] == [0, 2, 1, 3]
    assert doc["dist_partition"] == "1/2"


def test_indep_output(capsys):
    code, out = run(capsys, "indep", QUARTERS, "[]", "[[0,1]]", "[[0,1]]")
    assert code == 0
    assert json.loads(out)["deficiency"] == "1/2"


def test_refine_and_tensor_round_trip(capsys):
    code, out = run(capsys, "refine", Z2_ACTION, "2")
    assert code == 0
    refined = action_from_json(json.loads(out)["action"])
    assert refined.algebra.atoms == (F(1, 4),) * 4

    code, out = run(capsys, "tensor", Z2_ACTION, '{"atoms":["1/2","1/2"]}')
    assert code == 0
    tensored = action_from_json(json.loads(out))
    assert tensored.gens == ((2, 3, 0, 1),)


def test_eppa_positional_partials(capsys):
    code, out = run(
        capsys,
        "eppa",
        '{"atoms":["1/2","1/2"]}',
        '{"pairs":[{"source":[0],"target":[1]}]}',
        '{"pairs":[]}',
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["action"]["gens"] == [[1, 0], [0, 1]]


HALVES = '{"atoms":["1/2","1/2"]}'
Z4_ACTION = '{"algebra":%s,"gens":[[2,3,0,1]]}' % QUARTERS
Z2_IN_Z4 = '{"pairs":[{"source":[0],"target":[0,1]},{"source":[1],"target":[2,3]}]}'


@pytest.mark.parametrize(
    "argv",
    [
        ("eppa", HALVES, '{"pairs":[{"source":[0]}]}'),
        ("eppa", HALVES, '{"pairs":[{"target":[1]}]}'),
        ("eppa", HALVES, "[[[true],[0]]]"),
        ("eppa", HALVES, "[[[0],[false]]]"),
        ("dist", HALVES, "[[true]]", "[[0]]"),
        (
            "audit-ec", Z2_ACTION, Z4_ACTION, Z2_IN_Z4,
            "[[0]]", "[[0,2]]", "[[true]]", "1/4",
        ),
        ("dist", '{"atoms":5}', "[[0]]", "[[0]]"),
        ("dist", '{"atoms":[null]}', "[[0]]", "[[0]]"),
        ("gen-quotient", '{"mul":[[0]],"gens":[[0]]}'),
        ("gen-quotient", '{"mul":5,"gens":[0]}'),
        ("refine", '{"algebra":%s,"gens":[5]}' % HALVES, "2"),
        ("gen-quotient", '{"order":true,"mul":[[0]],"gens":[0]}'),
        ("refine", '{"algebra":%s,"gens":[[1,0]],"k":1.0}' % HALVES, "1"),
    ],
)
def test_malformed_json_is_a_validation_error(capsys, argv):
    # a pair without "source" or "target"; `true` or `false` where an atom
    # index or a word letter is meant; a number or null where a list or a
    # rational is meant; `true` or 1.0 as a declared count of 1
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValidationError"



@pytest.mark.parametrize(
    "argv",
    [
        ("delta", QUARTERS, "[1,0,null,3]", "[0,1,2,3]"),
        ("delta", QUARTERS, '["x",0,2,3]', "[0,1,2,3]"),
        ("delta", QUARTERS, '{"a":1}', "[0,1,2,3]"),
        ("delta", QUARTERS, "[0,1,2,3]", '{"a":1}'),
        ("delta", QUARTERS, "[0,true,2,3]", "[0,1,2,3]"),
        ("ergodize", Z4_ACTION, "[null]"),
        ("ergodize", Z4_ACTION, "[5]"),
        ("ergodize", Z4_ACTION, '[["0"]]'),
        ("ergodize", Z4_ACTION, "[[0,true],[2,3]]"),
        ("ergodize", Z4_ACTION, '{"blocks":null}'),
        ("eppa", HALVES, '{"pairs":5}'),
        ("eppa", HALVES, '{"pairs":null}'),
        ("audit-ec", Z2_ACTION, Z4_ACTION, '{"pairs":5}', "[[0]]", "[[0,2]]", "[[1]]", "1/4"),
        ("audit-ec", Z2_ACTION, Z4_ACTION, '{"pairs":null}', "[[0]]", "[[0,2]]", "[[1]]", "1/4"),
        ("dist", HALVES, '{"events":5}', "[[0]]"),
        ("dist", HALVES, '[{"members":null}]', "[[0]]"),
    ],
)
def test_malformed_permutations_partitions_and_pairs_are_validation_errors(capsys, argv):
    # a null, string or bool entry in a permutation; a non-list in place of
    # a permutation, a partition block, a pair list, an event list or an
    # event's members
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ValidationError"


Z4_TWO_GENS = '{"algebra":%s,"gens":[[2,3,0,1],[2,3,0,1]]}' % QUARTERS
Z2_HALF_IN_Z4 = '{"pairs":[{"source":[0],"target":[0,1]}]}'


def _audit_ec(big, embed, words):
    return ("audit-ec", Z2_ACTION, big, embed, "[[0]]", "[[0,2]]", words, "1/4")


@pytest.mark.parametrize(
    "argv, kind, message",
    [
        (("ergodize", Z2_ACTION, '{"blocks":[[0,1],[]]}'),
         "PartMassMismatch", "partition blocks must be nonempty"),
        (_audit_ec(Z4_TWO_GENS, Z2_IN_Z4, "[[1]]"),
         "ArityMismatch", "actions have 1 and 2 generators"),
        (_audit_ec(Z4_ACTION, Z2_HALF_IN_Z4, "[[1]]"),
         "AlgebraMismatch", "embedding must cover every atom of the small system"),
        (_audit_ec(Z4_ACTION, Z2_IN_Z4, '{"w":1}'),
         "ValidationError", "words must be a JSON array of words"),
        (_audit_ec(Z4_ACTION, Z2_IN_Z4, "[1]"),
         "ValidationError", "word JSON must be a list of signed integers"),
        (("gen-quotient", "cyclic:0:1"), "InvalidGroupTable",
         "bad builtin group 'cyclic:0:1': cyclic group order must be >= 1, got 0"),
        (("gen-quotient", "cyclic:4"), "ValidationError",
         "bad builtin group 'cyclic:4': cyclic builtin is \"cyclic:n:a1,...,ak\""),
        (("gen-quotient", "cyclic:4:"), "ValidationError",
         "bad builtin group 'cyclic:4:': cyclic builtin needs at least one generator"),
        (("gen-quotient", "sym:3"), "ValidationError",
         "bad builtin group 'sym:3': sym builtin is \"sym:n:p1;...;pk\""),
        (("gen-quotient", '{"order":2,"identity":0,"right":5}'),
         "ValidationError", "right must be a list of columns"),
        (("joint-quotient", "cyclic:4:1", "cyclic:4:1,3"),
         "ArityMismatch", "groups mark 1 and 2 generators"),
    ],
)
def test_refused_inputs_name_their_fault(capsys, argv, kind, message):
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"error": {"message": message, "type": kind}}


UNEQUAL_THIRDS = '{"atoms":["1/2","1/4","1/4"]}'
NOT_INTS = ("ValidationError", "permutation argument must be a list of integers")
NOT_A_PERMUTATION = ("NotBijective", "generator table is not a permutation")


@pytest.mark.parametrize(
    "g, h, expected",
    [
        ('["x",1,2]', "[0,1,2]", NOT_INTS),
        ("[0,1,2]", '["x",1,2]', NOT_INTS),
        ('{"a":1}', "[0,1,2]", NOT_INTS),
        ("[0,1]", "[0,1,2]", ("NotBijective", "permutation length 2 != atom count 3")),
        ("[0,1,2]", "[0,1,2,0]", ("NotBijective", "permutation length 4 != atom count 3")),
        ("[0,0,2]", "[0,1,2]", NOT_A_PERMUTATION),
        ("[0,1,2]", "[0,1,3]", NOT_A_PERMUTATION),
        ("[0,1,2]", "[0,-1,2]", NOT_A_PERMUTATION),
        ("[1,0,2]", "[0,1,2]",
         ("NotMeasurePreserving", "atom 0 (mass 1/2) maps to atom 1 (mass 1/4)")),
        ("[0,1,2]", "[2,1,0]",
         ("NotMeasurePreserving", "atom 0 (mass 1/2) maps to atom 2 (mass 1/4)")),
        ('[[0,1,2],[0,"x",2]]', "[[0,1,2],[0,1,2]]", NOT_INTS),
        ("[[0,1,2],[0,1,2]]", "[[0,1,2],[0,1,null]]", NOT_INTS),
        ("[[0,1,2],[0,1,2]]", "[[0,1,2],5]", NOT_INTS),
        ("[[0,1,2],[0,1]]", "[[0,1,2],[0,1,2]]",
         ("NotBijective", "permutation length 2 != atom count 3")),
        ("[[0,1,2],[0,1,2]]", "[[0,2,2],[0,1,2]]", NOT_A_PERMUTATION),
        ("[[0,1,2],[1,0,2]]", "[[0,1,2],[0,1,2]]",
         ("NotMeasurePreserving", "atom 0 (mass 1/2) maps to atom 1 (mass 1/4)")),
        ("[[0,1,2],[0,1,2]]", "[[0,1,2]]",
         ("ArityMismatch", "both sides must be equal-length lists of permutations")),
        ("[[0,1,2]]", "[0,1,2]",
         ("ArityMismatch", "both sides must be equal-length lists of permutations")),
    ],
)
def test_delta_reports_each_single_fault_with_its_type_and_message(capsys, g, h, expected):
    """delta parses its arguments as integer lists and leaves every
    permutation check to uniform_distance: an input with one fault reports
    it as the parse-and-check of each argument did."""
    code, out = run(capsys, "delta", UNEQUAL_THIRDS, g, h)
    assert code == 2
    error = json.loads(out)["error"]
    assert (error["type"], error["message"]) == expected


@pytest.mark.parametrize(
    "g, h, expected",
    [
        ("[0,0,2]", '["x",1,2]', NOT_INTS),
        ("[[0,0,2]]", '[["x",1,2]]', NOT_INTS),
        ("[[0,1,2],[0,0,2]]", "[[1,0,2],[0,1,2]]",
         ("NotMeasurePreserving", "atom 0 (mass 1/2) maps to atom 1 (mass 1/4)")),
    ],
)
def test_delta_with_two_faults_reports_the_parse_then_the_first_coordinate(
    capsys, g, h, expected
):
    """Every argument is parsed before any is checked, and the coordinates
    are checked in pairs: a non-integer entry is reported before a
    non-permutation, and h's first coordinate before g's second."""
    code, out = run(capsys, "delta", UNEQUAL_THIRDS, g, h)
    assert code == 2
    error = json.loads(out)["error"]
    assert (error["type"], error["message"]) == expected


def test_products_past_the_atom_cap_are_refused(capsys):
    """tensor builds size * factor atoms, 90000 here, and refine names the
    parts alone once they pass the cap."""
    rotation = json.dumps({
        "algebra": {"atoms": ["1/300"] * 300},
        "gens": [[(x + 1) % 300 for x in range(300)]],
    })
    code, out = run(capsys, "tensor", rotation, json.dumps({"atoms": ["1/300"] * 300}))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "InstanceTooLarge"
    assert "90000 atoms" in error["message"]
    code, out = run(capsys, "refine", Z2_ACTION, "100000000")
    assert code == 2
    assert "an algebra of 100000000 atoms" in json.loads(out)["error"]["message"]


def test_refinement_past_the_atom_cap_is_refused(capsys):
    code, out = run(capsys, "refine", Z2_ACTION, "100000000")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InstanceTooLarge"
    code, out = run(
        capsys, "audit-c2", Z2_TWO_GENS, "[[0]]", "1/10", "[[0]]", "[[1]]", "[[1]]",
        "--max-refine", "100000000",
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InstanceTooLarge"
    # the swap against the identity is never conjugate, so without the
    # up-front check every depth up to 10^8 would be searched
    identity = '{"algebra":{"atoms":["1/2","1/2"]},"gens":[[0,1]]}'
    code, out = run(capsys, "conjsearch", Z2_ACTION, identity, "--max-refine", "100000000")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InstanceTooLarge"


def test_audit_depths_past_the_summed_cap_are_refused(capsys):
    # depths 1..256 of two atoms sum to 65792 atoms; 1..30000 used to run
    # one search per depth for more than 10 s
    for depth in ("256", "30000"):
        code, out = run(
            capsys, "audit-c2", Z2_ACTION, "[[0]]", "1/1000000", "[[0]]", "[[0,1]]",
            "--max-refine", depth,
        )
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InstanceTooLarge"


def test_conjsearch_depths_past_the_summed_cap_are_refused(capsys):
    # the swap against the identity is never conjugate, so every depth runs;
    # 1..32768 (65536 atoms at the deepest) used to run for more than 10 s
    identity = '{"algebra":{"atoms":["1/2","1/2"]},"gens":[[0,1]]}'
    for depth in ("256", "32768"):
        code, out = run(capsys, "conjsearch", Z2_ACTION, identity, "--max-refine", depth)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InstanceTooLarge"


def test_conjsearch_refuses_a_unit_refinement_past_the_cap(capsys, monkeypatch):
    """Atoms 1/65537 and 65536/65537 need a unit refinement of 65537 atoms,
    one past the cap.  It is refused as it would be built, before the depth
    is checked, so a bad depth changes nothing; no algebra of more than two
    atoms is built."""
    sizes = []
    built = algebra.MeasuredAlgebra

    def recording(id, den, units):
        sizes.append(len(units))
        return built(id, den, units)

    monkeypatch.setattr(algebra, "MeasuredAlgebra", recording)
    act = '{"algebra":{"atoms":["1/65537","65536/65537"]},"gens":[[0,1]]}'
    for extra in ([], ["--max-refine", "0"]):
        code, out = run(capsys, "conjsearch", act, act, *extra)
        assert code == 2
        assert json.loads(out) == {"error": {
            "message": "an algebra of 65537 atoms exceeds the cap 65536 atoms",
            "type": "InstanceTooLarge",
        }}
    assert sizes and max(sizes) == 2


def test_conjsearch_beams_past_the_summed_steps_are_refused(capsys):
    """Depths 1..255 of two atoms fit the atom cap.  With two generators,
    the swap and the identity against the identity and the swap are never
    conjugate, and the beams that run at every depth pass the beam cap at
    depth 58.  One generator never runs the beam: the swap against the
    identity, whose beams at every depth used to run for more than 120 s,
    is grouped exactly up to depth 44 and greedily from depth 45, where
    the groupings sum past MAX_GROUPING_STEPS, each of its m swaps with two
    fixed points in 80 greedy steps per depth, and every atom is broken at
    every depth."""
    identity = '{"algebra":{"atoms":["1/2","1/2"]},"gens":[[0,1]]}'
    swap_first = '{"algebra":{"atoms":["1/2","1/2"]},"gens":[[1,0],[0,1]]}'
    swap_second = '{"algebra":{"atoms":["1/2","1/2"]},"gens":[[0,1],[1,0]]}'
    start = time.perf_counter()
    code, out = run(capsys, "conjsearch", swap_first, swap_second, "--max-refine", "255")
    assert time.perf_counter() - start < 10.0
    assert code == 2
    assert json.loads(out) == {"error": {
        "message": "beam searches summing to 4270656 steps exceed the cap 4194304 steps",
        "type": "InstanceTooLarge",
    }}
    start = time.perf_counter()
    code, out = run(capsys, "conjsearch", Z2_ACTION, identity, "--max-refine", "255")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["eps"] == "1/1"


def test_conjsearch_answers_distinct_cycle_lengths_on_the_largest_algebra(capsys):
    """65,536 atoms, one side in cycles of lengths 1, 3, 5, ... and the other
    in 2, 4, 6, ..., each taking what is left as one last cycle and
    relabelled at random: no length pairs, and the first grouping state
    alone counts past MAX_GROUPING_STEPS, as does the greedy grouping's
    first round, over sums up to 1022, so the 512 leftover cycles form one
    group.  Answered within 2 s; the beam it used to run was refused."""
    n = 1 << 16
    rng = random.Random(7)

    def relabelled_cycles(length: int) -> str:
        perm, x = [0] * n, 0
        while x < n:
            d = length if x + length <= n else n - x
            for i in range(d):
                perm[x + i] = x + (i + 1) % d
            x, length = x + d, length + 2
        label = list(range(n))
        rng.shuffle(label)
        gen = [0] * n
        for a in range(n):
            gen[label[a]] = label[perm[a]]
        return json.dumps({"algebra": {"atoms": [f"1/{n}"] * n}, "gens": [gen]})

    odd, even = relabelled_cycles(1), relabelled_cycles(2)
    start = time.perf_counter()
    code, out = run(capsys, "conjsearch", odd, even)
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert json.loads(out)["eps"] == "253/32768"


def test_conjsearch_of_one_generator_within_the_grouping_cap_is_unchanged(capsys, monkeypatch):
    """60 seeded pairs of random permutations on 2 to 40 atoms, to depth 1
    or 2, every grouping within MAX_GROUPING_STEPS: their answers hash to
    the digest recorded when past the cap the beam ran in place of one
    group."""
    grouping = constructions._grouping

    def within_the_cap(lengths1, lengths2, counts, spent):
        groups = grouping(lengths1, lengths2, counts, spent)
        assert spent[0] <= limits.MAX_GROUPING_STEPS
        return groups

    monkeypatch.setattr(constructions, "_grouping", within_the_cap)
    rng = random.Random(5601)
    digest = hashlib.sha256()
    for _ in range(60):
        n = rng.randint(2, 40)
        docs = []
        for _ in range(2):
            perm = list(range(n))
            rng.shuffle(perm)
            docs.append(json.dumps({"algebra": {"atoms": [f"1/{n}"] * n}, "gens": [perm]}))
        code, out = run(capsys, "conjsearch", *docs, "--max-refine", str(rng.randint(1, 2)))
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == "ce353282e5c12554428b5f24c331aaf768848d6f888b3eb53163efe009b1ebdf"


def test_quadratic_conjsearch_and_wide_group_walks_are_refused_within_a_second(capsys):
    """A 60,000-atom cycle against a cycle beside a fixed point is
    conjugated from its cycle types within a second.  With the identity as a
    second generator it would spend minutes in the quadratic exact phase,
    and a 32,000-atom cycle, a group within the element cap, would build
    32,000 permutations of 32,000 entries; both are refused first, by the
    steps or entries they count, in well under a second."""
    def cycle_beside(length: int, points: int, *extra: list[int]) -> str:
        gen = [(x + 1) % length for x in range(length)] + list(range(length, points))
        return json.dumps({"algebra": {"atoms": [f"1/{points}"] * points}, "gens": [gen, *extra]})

    start = time.perf_counter()
    code, out = run(capsys, "conjsearch", cycle_beside(60000, 60000), cycle_beside(59999, 60000))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["eps"] == "1/30000"
    identity = list(range(60000))
    for argv, message in (
        (["conjsearch", cycle_beside(60000, 60000, identity),
          cycle_beside(59999, 60000, identity)],
         "an exact conjugacy phase of 7200000000 steps exceeds the cap 4194304 steps"),
        (["embed", cycle_beside(32000, 32000), "--mode", "transitive"],
         "group enumeration builds more than 2097152 entries"),
        (["embed", cycle_beside(32000, 32000)],
         "group enumeration builds more than 2097152 entries"),
    ):
        start = time.perf_counter()
        code, out = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert json.loads(out) == {"error": {"message": message, "type": "InstanceTooLarge"}}


def test_conjsearch_without_a_beam_is_a_validation_error(capsys):
    code, out = run(capsys, "conjsearch", Z2_ACTION, Z2_ACTION, "--beam", "0")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ValidationError"
    assert "beam_width" in error["message"]


@pytest.mark.parametrize("flag, value, message", [
    ("--max-refine", "0", "max_refine must be >= 1, got 0"),
    ("--max-refine", "-1", "max_refine must be >= 1, got -1"),
    ("--beam", "0", "beam_width must be >= 1, got 0"),
    ("--beam", "-3", "beam_width must be >= 1, got -3"),
])
def test_conjsearch_names_the_bad_depth_or_beam(capsys, flag, value, message):
    code, out = run(capsys, "conjsearch", Z2_ACTION, Z2_ACTION, flag, value)
    assert code == 2
    assert json.loads(out) == {"error": {"message": message, "type": "ValidationError"}}


def test_embed_modes(capsys):
    code, out = run(capsys, "embed", Z2_ACTION, "--mode", "transitive")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"]["order"] == 2

    nontransitive = '{"algebra":%s,"gens":[[1,0,3,2]]}' % QUARTERS
    code, out = run(capsys, "embed", nontransitive, "--mode", "transitive")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "NotTransitive"

    code, out = run(capsys, "embed", nontransitive, "--mode", "profinite")
    assert code == 0


S6_ACTION = json.dumps(
    {"algebra": {"atoms": ["1/6"] * 6}, "gens": [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]]}
)


ONE_ATOM_NO_GENERATORS = '{"algebra":{"atoms":["1"]},"k":0,"gens":[]}'


@pytest.mark.parametrize(
    "action", [Z2_ACTION, S6_ACTION, ONE_ATOM_NO_GENERATORS], ids=["Z2", "S6", "trivial"]
)
def test_embed_group_columns_give_back_its_target(capsys, action):
    """An embed document writes its group as generator columns, and the
    quotient action of that group, read back, is the document's target."""
    code, out = run(capsys, "embed", action, "--mode", "transitive")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["group"]) == {"order", "identity", "right"}
    assert len(out) < 150_000
    code, quotient = run(capsys, "gen-quotient", json.dumps(doc["group"]))
    assert code == 0
    assert json.loads(quotient) == doc["target"]


def _cyclic_columns(order):
    return {"order": order, "identity": 0, "right": [[(x + 1) % order for x in range(order)]]}


@pytest.mark.parametrize(
    "group, kind",
    [
        ({"order": 3, "identity": 0, "right": [[1, 1, 0]]}, "InvalidGroupTable"),
        ({"order": 3, "identity": 0, "right": [[1, 2]]}, "InvalidGroupTable"),
        ({"order": 3, "identity": 3, "right": [[1, 2, 0]]}, "InvalidGroupTable"),
        ({"order": 3, "identity": -1, "right": [[1, 2, 0]]}, "InvalidGroupTable"),
        ({"order": 4, "identity": 0, "right": [[1, 0, 3, 2]]}, "NotGenerating"),
        # two 4-point permutations that generate S_4, not a group of order 4
        ({"order": 4, "identity": 0, "right": [[1, 2, 3, 0], [1, 0, 2, 3]]}, "InvalidGroupTable"),
        ({"order": 3, "identity": 0, "right": [[1, 0, 2], [2, 1, 0]]}, "InvalidGroupTable"),
        ({"order": 3, "identity": 0, "right": [[0, 2, 1], [1, 2, 0]]}, "InvalidGroupTable"),
        ({"order": 2, "identity": 0, "right": []}, "NotGenerating"),
        ({"order": True, "identity": 0, "right": [[0]]}, "ValidationError"),
        ({"order": 1, "identity": False, "right": [[0]]}, "ValidationError"),
        ({"order": 2, "identity": 0, "right": [[1, True]]}, "ValidationError"),
        # past the cap, the order is refused before the columns are read
        ({"order": MAX_REFINED_ATOMS + 1, "identity": 0, "right": [[1, 1, 0]]}, "InstanceTooLarge"),
        ({"order": MAX_REFINED_ATOMS + 1, "identity": "e", "right": "columns"}, "InstanceTooLarge"),
        # 4000 columns, or 4000 marked elements of a table, would check
        # 2 * 4000^2 entries
        ({"order": 1, "identity": 0, "right": [[0]] * 4000}, "InstanceTooLarge"),
        ({"mul": [[0]], "gens": [0] * 4000}, "InstanceTooLarge"),
    ],
)
def test_group_columns_are_refused_with_their_error_type(capsys, group, kind):
    code, out = run(capsys, "gen-quotient", json.dumps(group))
    assert code == 2
    assert json.loads(out)["error"]["type"] == kind


def test_group_columns_past_the_order_cap_are_refused_before_any_row(capsys, monkeypatch):
    built = []
    rows = MarkedGroup.rows

    def recording(group, zs):
        built.append(group.order)
        return rows(group, zs)

    monkeypatch.setattr(MarkedGroup, "rows", recording)
    code, out = run(capsys, "gen-quotient", json.dumps(_cyclic_columns(MAX_REFINED_ATOMS + 1)))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InstanceTooLarge"
    assert built == []
    code, out = run(capsys, "gen-quotient", json.dumps(_cyclic_columns(MAX_REFINED_ATOMS)))
    assert code == 0
    assert json.loads(out)["gens"] == _cyclic_columns(MAX_REFINED_ATOMS)["right"]
    assert built == [MAX_REFINED_ATOMS, MAX_REFINED_ATOMS]


def test_wide_groups_are_refused_within_half_a_second(capsys):
    """Each would spend seconds to minutes before its count refused it: 4000
    columns or marked elements, within a tenth of a second, in the k^2
    commute checks, a table past 1448^2 entries, and a pair walk past
    65,536 elements, the only one that walks up to its cap."""
    columns = json.dumps({"order": 1, "identity": 0, "right": [[0]] * 4000})
    entries = "group enumeration builds more than 2097152 entries"
    for argv, message, seconds in (
        (["gen-quotient", columns], entries, 0.1),
        (["gen-quotient", json.dumps({"mul": [[0]], "gens": [0] * 4000})], entries, 0.1),
        (["joint-quotient", columns, columns], entries, 0.1),
        (["joint-quotient", "cyclic:1449:1", "cyclic:1449:1"], entries, 0.1),
        (["gen-quotient", "cyclic:65537:1"],
         "bad builtin group 'cyclic:65537:1': group has more than 65536 elements", 0.1),
        (["joint-quotient", "cyclic:1024:1", "cyclic:1023:1"],
         "group has more than 65536 elements", 0.5),
    ):
        start = time.perf_counter()
        code, out = run(capsys, *argv)
        assert time.perf_counter() - start < seconds
        assert code == 2
        assert json.loads(out) == {"error": {"message": message, "type": "InstanceTooLarge"}}


def test_repeated_marked_columns_are_checked_once(capsys):
    """1000 marks of the one element, as columns or as a table's marked
    elements, are checked as one distinct column: each document is answered
    within a tenth of a second, where checking every repeat again took
    0.6-0.9 s.  A repeated column that is no permutation is still refused
    with the message of the first."""
    for group in ({"order": 1, "identity": 0, "right": [[0]] * 1000},
                  {"mul": [[0]], "gens": [0] * 1000}):
        start = time.perf_counter()
        code, out = run(capsys, "gen-quotient", json.dumps(group))
        assert time.perf_counter() - start < 0.1
        assert code == 0
        assert json.loads(out) == {"algebra": {"atoms": ["1/1"]}, "gens": [[0]] * 1000, "k": 1000}
    bad = {"order": 2, "identity": 0, "right": [[1, 0], *[[1, 1]] * 500]}
    code, out = run(capsys, "gen-quotient", json.dumps(bad))
    assert json.loads(out) == {"error": {
        "message": "a column is not a permutation of the 2 elements", "type": "InvalidGroupTable"}}


def test_joint_quotient_table_is_bounded_by_its_entries(capsys, monkeypatch):
    """joint-quotient writes the order^2 table that rows builds: with the cap
    lowered to 36 entries, Z/6 is written and Z/7 refused, though its pair
    walk builds only 14 entries."""
    monkeypatch.setattr(limits, "MAX_GROUP_ENTRIES", 36)
    code, out = run(capsys, "joint-quotient", "cyclic:6:1", "cyclic:6:1")
    assert code == 0
    assert json.loads(out)["group"]["mul"] == [[(x + y) % 6 for y in range(6)] for x in range(6)]
    code, out = run(capsys, "joint-quotient", "cyclic:7:1", "cyclic:7:1")
    assert code == 2
    assert json.loads(out)["error"]["message"] == "group enumeration builds more than 36 entries"


def test_s7_and_s8_embed_and_give_back_their_target(capsys):
    """The 7-cycle and a transposition generate S_7: embed --mode transitive
    writes its 5040-element group, whose gen-quotient is the target byte for
    byte.  S_8 embeds in either mode within a second."""
    for n, order in ((7, 5040), (8, 40320)):
        gens = [[(x + 1) % n for x in range(n)], [1, 0, *range(2, n)]]
        action = json.dumps({"algebra": {"atoms": [f"1/{n}"] * n}, "gens": gens})
        for mode in ("transitive", "profinite"):
            start = time.perf_counter()
            code, out = run(capsys, "embed", action, "--mode", mode)
            assert time.perf_counter() - start < 1.0
            assert code == 0
            doc = json.loads(out)
            assert doc["group"]["order"] == order
        if n == 7:
            code, quotient = run(capsys, "gen-quotient", json.dumps(doc["group"]))
            assert code == 0
            assert quotient == jsonio.render_document(doc["target"])


def test_embed_of_a_zero_generator_action_is_into_the_trivial_group(capsys):
    """With no generators the generated group is trivial, one element and
    no columns, and each atom embeds as itself; the one-atom transitive
    embed is read back with the other embeds above."""
    three = '{"algebra":{"atoms":["1/3","1/3","1/3"]},"k":0,"gens":[]}'
    code, out = run(capsys, "embed", three, "--mode", "profinite")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == {"order": 1, "identity": 0, "right": []}
    assert doc["elements"] == [[0, 1, 2]]
    assert doc["target"] == {"algebra": {"atoms": ["1/3"] * 3}, "gens": [], "k": 0}
    assert doc["sigma"]["pairs"] == [{"source": [c], "target": [c]} for c in range(3)]


def test_joint_quotient_writes_its_group_as_a_table(capsys):
    """joint-quotient still writes the whole table and the marked elements,
    however its inputs are given."""
    z3_columns = json.dumps({"order": 3, "identity": 0, "right": [[1, 2, 0]]})
    for z3 in ("cyclic:3:1", z3_columns):
        code, out = run(capsys, "joint-quotient", "cyclic:2:1", z3)
        assert code == 0
        assert json.loads(out) == {
            "group": {
                "order": 6,
                "mul": [[(x + y) % 6 for y in range(6)] for x in range(6)],
                "gens": [1],
            },
            "proj1": [0, 1, 0, 1, 0, 1],
            "proj2": [0, 1, 2, 0, 1, 2],
        }


def test_conjsearch_document(capsys):
    tensored = '{"algebra":%s,"gens":[[2,3,0,1]]}' % QUARTERS
    code, out = run(capsys, "conjsearch", Z2_ACTION, tensored)
    assert code == 0
    doc = json.loads(out)
    assert doc["eps"] == "0/1"
    assert doc["exhausted"] is False
    assert sorted(doc["mapping"]) == [0, 1, 2, 3]


def test_audit_subcommands(capsys):
    code, out = run(
        capsys, "audit-c1", Z2_TWO_GENS, "[[0]]", "1/2", "[[0]]", "[[1]]", "[[1]]"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["satisfied"] is True
    assert doc["xi"] == ["0/1", "0/1"]
    assert doc["psi"] == ["0/1", "0/1", "0/1"]

    code, out = run(
        capsys, "audit-c2", Z2_TWO_GENS, "[[0]]", "1/10", "[[0]]", "[[1]]", "[[1]]"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["distance"] == "0/1"

    code, out = run(
        capsys, "audit-residual", Z2_TWO_GENS, "[[0]]", "[[0]]", "[[1]]", "[[1]]"
    )
    assert code == 0
    assert json.loads(out)["residual"] == "0/1"


def test_audit_ec_subcommand(capsys):
    small = Z2_ACTION
    big = '{"algebra":%s,"gens":[[2,3,0,1]]}' % QUARTERS
    embed = '{"pairs":[{"source":[0],"target":[0,1]},{"source":[1],"target":[2,3]}]}'
    code, out = run(
        capsys,
        "audit-ec", small, big, embed, "[[0]]", "[[0,2]]", "[[],[1]]", "1/4",
        "--max-refine", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["discrepancy"] == "0/1"
    assert doc["refinement_depth"] == 2


def test_determinism_and_out_file(capsys, tmp_path):
    tensored = '{"algebra":%s,"gens":[[2,3,0,1]]}' % QUARTERS
    _, first = run(capsys, "conjsearch", Z2_ACTION, tensored)
    _, second = run(capsys, "conjsearch", Z2_ACTION, tensored)
    assert first == second

    target = tmp_path / "report.json"
    code, out = run(
        capsys, "conjsearch", Z2_ACTION, tensored, "--out", str(target)
    )
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


def test_failed_out_file_prints_only_the_error(capsys, tmp_path):
    code, out = run(
        capsys, "gen-quotient", "cyclic:2:1", "--out", str(tmp_path / "absent" / "x.json")
    )
    assert code == 2
    assert list(json.loads(out)) == ["error"]  # one document: the error alone


def test_input_from_file(capsys, tmp_path):
    path = tmp_path / "alg.json"
    path.write_text('{"atoms":["1/2","1/2"]}', encoding="utf-8")
    code, out = run(capsys, "dist", str(path), "[[0]]", "[[1]]")
    assert code == 0
    assert json.loads(out)["dist_max"] == "1/1"

    code, out = run(capsys, "dist", str(tmp_path / "absent.json"), "[[0]]", "[[1]]")
    assert code == 2


_CANNOT = "cannot interpret {!r}: not inline JSON, a builtin group, or a readable file"


@pytest.mark.parametrize("arg, kind, message", [
    ("absent.json", "ValidationError", _CANNOT.format("absent.json")),
    ("", "ValidationError", _CANNOT.format("")),
    ("a\x00b", "ValidationError", _CANNOT.format("a\x00b")),
    ("x" * 5000, "ValidationError", _CANNOT.format("x" * 5000)),
    ("plain.json/inner.json", "ValidationError", _CANNOT.format("plain.json/inner.json")),
    ("folder", "IsADirectoryError", "[Errno 21] Is a directory: 'folder'"),
    ("folder/", "IsADirectoryError", "[Errno 21] Is a directory: 'folder/'"),
    (" plain.json ", "ValidationError", 'algebra JSON must be {"atoms": [...]}'),
    ("bom.json", "ValidationError", "bad JSON in file bom.json: Unexpected UTF-8 BOM "
     "(decode using utf-8-sig): line 1 column 1 (char 0)"),
    ("latin.json", "UnicodeDecodeError",
     "'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"),
], ids=["absent", "empty", "nul", "long", "under-a-file", "directory", "directory-slash",
        "padded", "bom", "not-utf8"])
def test_file_arguments_that_cannot_be_read_keep_their_error_documents(
    capsys, tmp_path, monkeypatch, arg, kind, message
):
    """Each path that names no readable JSON file is answered with one error
    document, pinned here type and message: a UTF-8 file with a byte-order
    mark is bad JSON, and a directory is not a missing file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "folder").mkdir()
    (tmp_path / "plain.json").write_text("{}", encoding="utf-8")
    (tmp_path / "bom.json").write_bytes(b'\xef\xbb\xbf{"atoms":["1/2","1/2"]}')
    (tmp_path / "latin.json").write_bytes(b'{"atoms":["\xff"]}')
    code, out = run(capsys, "dist", arg, "[[0]]", "[[1]]")
    assert (code, json.loads(out)) == (2, {"error": {"type": kind, "message": message}})


@pytest.mark.parametrize("opener", ["[", '{"a":'])
def test_deeply_nested_json_is_a_validation_error(capsys, tmp_path, opener):
    """JSON nested past the decoder's recursion limit is refused as bad
    JSON, inline and from a file, not escaped as RecursionError."""
    text = opener * 100000
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    for arg, prefix in [(text, "bad inline JSON: "), (str(path), f"bad JSON in file {path}: ")]:
        code, out = run(capsys, "dist", arg, "[[0]]", "[[1]]")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValidationError"
        assert error["message"].startswith(prefix)


def test_flag_validation(capsys):
    # a flag exists only on the subcommands that read it
    for argv in (
        ("gen-quotient", "cyclic:2:1,1", "--k", "2"),
        ("dist", HALVES, "[[0]]", "[[1]]", "--metric", "max"),
        ("gen-quotient", "cyclic:2:1,1", "--max-refine", "1"),
    ):
        assert run(capsys, *argv) == (64, "")

    for argv in (
        ("audit-c2", Z2_TWO_GENS, "[[0]]", "1/10", "[[0]]", "[[1]]", "[[1]]"),
        ("conjsearch", Z2_ACTION, Z2_ACTION),
    ):
        code, out = run(capsys, *argv, "--max-refine", "0")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValidationError"
        assert "max_refine" in error["message"]

    code, _ = run(capsys, "gen-quotient", "cyclic:2:1,1", "--seed", "1")
    assert code == 64


def test_module_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pmplab.cli", "delta",
         '{"atoms":["1/2","1/2"]}', "[1,0]", "[1,0]"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{\n  "delta": "0/1"\n}\n'
    usage = subprocess.run(
        [sys.executable, "-m", "pmplab.cli", "nope"],
        capture_output=True, text=True, env=env,
    )
    assert usage.returncode == 64
    assert "usage" in usage.stderr


# ---------------------------------------------------------------------------
# fuzzing the dispatcher with mutated documents

_HALVES = {"atoms": ["1/2", "1/2"]}
_QUARTERS = {"atoms": ["1/4"] * 4}
_SWAP = {"algebra": _HALVES, "k": 1, "gens": [[1, 0]]}
_SWAP_TWICE = {"algebra": _HALVES, "k": 2, "gens": [[1, 0], [1, 0]]}
_HALF_TURN = {"algebra": _QUARTERS, "gens": [[2, 3, 0, 1]]}
_Z2_GROUP = {"order": 2, "mul": [[0, 1], [1, 0]], "gens": [1]}
_Z2_COLUMNS = {"order": 2, "identity": 0, "right": [[1, 0]]}
_Z2_IN_Z4 = {
    "pairs": [{"source": [0], "target": [0, 1]}, {"source": [1], "target": [2, 3]}]
}

# one small valid request per subcommand; JSON arguments are objects here,
# the other arguments strings
VALID_REQUESTS = [
    ("gen-quotient", _Z2_GROUP),
    ("joint-quotient", _Z2_GROUP, _Z2_COLUMNS),
    ("tensor", _SWAP, _HALVES),
    ("refine", _SWAP, "2"),
    ("dist", _HALVES, [[0]], {"events": [{"members": [1]}]}),
    ("typedist", _QUARTERS, [], [[0, 1]], [[0, 2]]),
    ("indep", _QUARTERS, [[0]], [[0, 1]], [[0, 2]]),
    ("delta", _QUARTERS, [1, 0, 3, 2], [0, 1, 2, 3]),
    ("delta", _QUARTERS, [[1, 0, 3, 2], [2, 3, 0, 1]], [[0, 1, 2, 3], [2, 3, 0, 1]]),
    ("match", _QUARTERS, [[0, 1]], [[0, 2]]),
    ("eppa", _HALVES, {"pairs": [{"source": [0], "target": [1]}]}, [[[0], [1]]]),
    ("ergodize", _HALF_TURN, {"blocks": [[0, 1], [2, 3]]}),
    ("embed", _SWAP),
    ("conjsearch", _SWAP, _HALF_TURN),
    ("audit-c1", _SWAP_TWICE, [[0]], "1/2", [[0]], [[1]], [[1]]),
    ("audit-c2", _SWAP_TWICE, [[0]], "1/10", [[0]], [[1]], [[1]]),
    ("audit-residual", _SWAP_TWICE, [[0]], [[0]], [[1]], [[1]]),
    ("audit-ec", _SWAP, _HALF_TURN, _Z2_IN_Z4, [[0]], [[0, 2]], [[], [1]], "1/4"),
]

_HOSTILE_VALUES = st.sampled_from(
    [None, True, False, 0, 1, -1, 0.5, 1e300, 10**30, -(10**30), "x", "1/0", "",
     [], {}, [None], [[]], [True], {"members": None}]
)
_HOSTILE_STRINGS = st.sampled_from(
    ["0", "-1", "x", "1/0", "0.5", "true", "null", "1" * 5000, str(10**30)]
)


def _argv(request):
    return [request[0]] + [
        arg if isinstance(arg, str) else json.dumps(arg) for arg in request[1:]
    ]


def _paths(obj, path=()):
    """Every position in a JSON value, the value itself first."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _paths(value, path + (i,))


def _mutate(data, obj):
    """Replace one position of obj by a hostile value, or delete it from its
    dict or list."""
    path = data.draw(st.sampled_from(list(_paths(obj))))
    if not path:
        return data.draw(_HOSTILE_VALUES)
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_HOSTILE_VALUES)
    return obj


class RecordingArgs:
    """A parsed namespace that notes the name of every attribute read."""

    def __init__(self, namespace):
        self._values = vars(namespace)
        self.read: set[str] = set()

    def __getattr__(self, name):
        self.read.add(name)
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(name) from None


def parse(argv):
    """The namespace that dispatch hands argv's handler."""
    return cli._command_parser(argv[0]).parse_args(argv[1:])


def test_recording_args_notes_reads():
    args = RecordingArgs(parse(["dist", "x", "y", "z"]))
    assert (args.algebra, args.b) == ("x", "z")
    assert args.read == {"algebra", "b"}
    with pytest.raises(AttributeError):
        args.k


@pytest.mark.parametrize("request_", VALID_REQUESTS, ids=lambda r: r[0])
def test_handler_reads_every_flag_its_subcommand_defines(request_):
    namespace = parse(_argv(request_))
    args = RecordingArgs(namespace)
    namespace.handler(args)
    defined = set(vars(namespace)) - {"out", "handler"}
    assert defined - args.read == set()


def test_valid_requests_cover_every_subcommand():
    handlers = {parse(_argv(r)).handler for r in VALID_REQUESTS}
    assert {h.__name__ for h in handlers} == {
        name for name in vars(cli) if name.startswith("_cmd_")
    }


_NO_GENS = {"algebra": _HALVES, "k": 0, "gens": []}

# every subcommand that takes an action, given one with no generators on two
# atoms: each orbit is one atom, and no generator can join them
NO_GENERATOR_REQUESTS = [
    ("ergodize", _NO_GENS, [[0, 1]]),
    ("embed", _NO_GENS, "--mode", "transitive"),
    ("embed", _NO_GENS, "--mode", "profinite"),
    ("conjsearch", _NO_GENS, _NO_GENS),
    ("refine", _NO_GENS, "2"),
    ("tensor", _NO_GENS, _HALVES),
    ("audit-c1", _NO_GENS, [[0]], "1/2", [[1]]),
    ("audit-c2", _NO_GENS, [[0]], "1/10", [[1]]),
    ("audit-residual", _NO_GENS, [[0]], [[1]]),
    ("audit-ec", _NO_GENS, _NO_GENS, {"pairs": [[[0], [0]], [[1], [1]]]},
     [[0]], [[1]], [[]], "1/4"),
]


@pytest.mark.parametrize(
    "request_", NO_GENERATOR_REQUESTS,
    ids=lambda r: f"{r[0]}-{r[-1]}" if r[0] == "embed" else r[0],
)
def test_actions_without_generators_are_answered_or_refused(capsys, request_):
    code, out = run(capsys, *_argv(request_), *_depth_flag(request_[0]))
    assert code in (0, 2)
    doc = json.loads(out)
    assert ("error" in doc) == (code == 2)
    if code == 2:
        assert doc["error"]["type"] != "LPInternal"


_SEARCHES = ("conjsearch", "audit-c2", "audit-residual", "audit-ec")


def _depth_flag(command):
    """The search depth, passed to the searches, which alone take it."""
    return ["--max-refine", "1"] if command in _SEARCHES else []


@pytest.mark.parametrize("request_", VALID_REQUESTS, ids=lambda r: r[0])
def test_fuzz_requests_are_valid(capsys, request_):
    assert run(capsys, *_argv(request_), *_depth_flag(request_[0]))[0] == 0


@pytest.mark.parametrize("request_", VALID_REQUESTS, ids=lambda r: r[0])
def test_flags_outside_their_subcommands_are_usage_errors(capsys, request_):
    command = request_[0]
    flags = [("--k", "1")]
    if command not in _SEARCHES:
        flags.append(("--max-refine", "1"))
    if command not in ("typedist", "audit-c1"):
        flags.append(("--metric", "tv"))
    for flag in flags:
        assert run(capsys, *_argv(request_), *flag) == (64, "")


@pytest.mark.parametrize("request_", VALID_REQUESTS, ids=lambda r: r[0])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_mutated_documents_exit_cleanly(request_, data):
    """Wrong types, missing keys, nulls, bools, floats and huge ints in any
    argument end in exit 0, 2 or 64, never in an exception."""
    args = list(request_[1:])
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(args) - 1))
        if isinstance(args[i], str):
            args[i] = data.draw(_HOSTILE_STRINGS)
        else:
            args[i] = _mutate(data, args[i])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_dispatch(_argv((request_[0], *args)) + _depth_flag(request_[0]))
    assert code in (0, 2, 64)
    if code == 64:
        assert out.getvalue() == ""
    else:
        doc = json.loads(out.getvalue())
        assert ("error" in doc) == (code == 2)
