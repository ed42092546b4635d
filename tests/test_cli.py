"""Command-line driver: subcommands, exit codes, JSON documents,
determinism, and environment handling."""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmplab import algebra, cli
from pmplab.cli import cli_dispatch
from pmplab.constructions import MarkedGroup, cyclic_group, quotient_action
from pmplab.jsonio import action_from_json
from pmplab.limits import MAX_GROUP_ORDER

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


def test_parser_is_reused_across_requests(capsys):
    embed = ("embed", Z2_ACTION)
    first = run(capsys, *embed)
    assert first[0] == 0
    assert run(capsys, "embed", Z2_ACTION, "--mode", "sideways") == (64, "")
    transitive = run(capsys, *embed, "--mode", "transitive")
    assert transitive[0] == 0 and "base_factor" not in json.loads(transitive[1])
    assert run(capsys, *embed) == first


def test_group_past_the_order_cap_is_refused(capsys):
    code, out = run(capsys, "gen-quotient", "sym:7:1,2,3,4,5,6,0;1,0,2,3,4,5,6")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InstanceTooLarge"


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
    # depths 1..255 of two atoms fit the atom cap, but the swap against the
    # identity runs a beam at every depth; those beams used to run for more
    # than 120 s, and depth 58 now passes the beam cap
    identity = '{"algebra":{"atoms":["1/2","1/2"]},"gens":[[0,1]]}'
    code, out = run(capsys, "conjsearch", Z2_ACTION, identity, "--max-refine", "255")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "InstanceTooLarge"
    assert "beam" in error["message"]


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


@pytest.mark.parametrize("action", [Z2_ACTION, S6_ACTION], ids=["Z2", "S6"])
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
        ({"order": 1, "identity": 0, "right": []}, "ValidationError"),
        ({"order": True, "identity": 0, "right": [[0]]}, "ValidationError"),
        ({"order": 1, "identity": False, "right": [[0]]}, "ValidationError"),
        ({"order": 2, "identity": 0, "right": [[1, True]]}, "ValidationError"),
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
    code, out = run(capsys, "gen-quotient", json.dumps(_cyclic_columns(MAX_GROUP_ORDER + 1)))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InstanceTooLarge"
    assert built == []
    code, out = run(capsys, "gen-quotient", json.dumps(_cyclic_columns(MAX_GROUP_ORDER)))
    assert code == 0
    assert json.loads(out)["gens"] == _cyclic_columns(MAX_GROUP_ORDER)["right"]
    assert built == [MAX_GROUP_ORDER, MAX_GROUP_ORDER]


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


def test_recording_args_notes_reads():
    args = RecordingArgs(cli._parser().parse_args(["dist", "x", "y", "z"]))
    assert (args.algebra, args.b) == ("x", "z")
    assert args.read == {"algebra", "b"}
    with pytest.raises(AttributeError):
        args.k


@pytest.mark.parametrize("request_", VALID_REQUESTS, ids=lambda r: r[0])
def test_handler_reads_every_flag_its_subcommand_defines(request_):
    namespace = cli._parser().parse_args(_argv(request_))
    args = RecordingArgs(namespace)
    namespace.handler(args)
    defined = set(vars(namespace)) - {"out", "handler", "command"}
    assert defined - args.read == set()


def test_valid_requests_cover_every_subcommand():
    handlers = {cli._parser().parse_args(_argv(r)).handler for r in VALID_REQUESTS}
    assert {h.__name__ for h in handlers} == {
        name for name in vars(cli) if name.startswith("_cmd_")
    }


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
