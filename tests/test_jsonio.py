"""JSON interchange: exact rationals, algebras, actions, groups,
partials, and the rendered document format."""
from __future__ import annotations

import itertools
import json
from fractions import Fraction

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmplab import jsonio
from pmplab.algebra import (
    AtomPartition,
    Event,
    EventTuple,
    product_algebra,
    refine_to_unit,
    uniform_algebra,
    validate_algebra,
)
from pmplab.action import validate_action
from pmplab.constructions import (
    MarkedGroup,
    PartialIsomorphism,
    cyclic_group,
    permutation_marked_group,
    validate_marked_group,
)
from pmplab.errors import InvalidGroupTable, NotGenerating, ValidationError
from pmplab.jsonio import (
    action_from_json,
    action_to_json,
    algebra_from_json,
    algebra_to_json,
    decimal_rendering,
    event_from_json,
    event_to_json,
    format_rational,
    group_from_json,
    group_to_json,
    parse_rational,
    partial_from_json,
    partial_to_json,
    partition_from_json,
    render_document,
    tuple_from_json,
    tuple_to_json,
    word_from_json,
)

from conftest import outcome

F = Fraction


def test_rational_round_trip():
    for v in [F(0), F(1), F(1, 3), F(-5, 7), F(22, 4)]:
        assert parse_rational(format_rational(v)) == v
    assert format_rational(F(0)) == "0/1"
    assert parse_rational("3") == 3
    assert parse_rational("6/4") == F(3, 2)
    with pytest.raises(ValidationError):
        parse_rational("1/0")
    with pytest.raises(ValidationError):
        parse_rational("a/b")


# What parse_rational accepts today, leniencies included: int() strips
# whitespace, reads underscores, signs and non-ASCII digits on either side of
# the slash, and Fraction reduces.
PARSED = [
    ("1/2", F(1, 2)),
    (" 1/2", F(1, 2)),
    ("1/2 ", F(1, 2)),
    ("1_0/30", F(1, 3)),
    ("+1/2", F(1, 2)),
    ("1/-2", F(-1, 2)),
    ("-1/-2", F(1, 2)),
    ("\u0661/\u0662", F(1, 2)),
    ("\uff13", F(3)),
    ("2/4", F(1, 2)),
    ("0/5", F(0)),
    ("3", F(3)),
    (" 7 ", F(7)),
    (3, F(3)),
    (-2, F(-2)),
]

REFUSED = ["1.5", "1e3", "1/0", "0/0", "", "/", "1/", "/2", "1/2/3", "a/b", "1 /2 3",
           "1__0/3", "0x10", True, False, None, 1.5, F(1, 2), [1, 2], ["1/2"], {"n": 1}]


@pytest.mark.parametrize("text, value", PARSED, ids=repr)
def test_parse_rational_accepts(text, value):
    got = parse_rational(text)
    assert (type(got), got) == (Fraction, value)


@pytest.mark.parametrize("text", REFUSED, ids=repr)
def test_parse_rational_refuses(text):
    with pytest.raises(ValidationError) as err:
        parse_rational(text)
    assert str(err.value) == f"not a rational: {text!r}"


def oracle_algebra_from_json(obj):
    """algebra_from_json as it was: one parse_rational per entry."""
    return validate_algebra([parse_rational(m) for m in obj["atoms"]]).atoms


@st.composite
def atom_entries(draw):
    """Atom lists of an algebra, each mass spelled in one of several ways, so
    that equal strings and equal masses under other spellings recur; some
    with hostile entries put in anywhere: unparseable or zero-denominator
    strings, bools, None, floats, nested lists, bare ints and masses that
    break the total or are not positive."""
    den = draw(st.integers(1, 12))
    units = draw(st.lists(st.integers(1, 4), min_size=1, max_size=24))
    total = sum(units)
    entries = []
    for u in units:
        m = F(u, total)
        entries.append(draw(st.sampled_from([
            f"{m.numerator}/{m.denominator}",
            f"{m.numerator * den}/{m.denominator * den}",
            f" {m.numerator}/{m.denominator}",
            f"+{m.numerator}/{m.denominator}",
        ])))
    hostile = st.sampled_from(["x", "1/0", "1.5", "", "-1/2", "0/1", "2/1", True, False, None,
                               0.5, ["1/2"], 1, 0, -1, "1_0/30", "\u0661/\u0662"])
    for _ in range(draw(st.integers(0, 3))):
        entries.insert(draw(st.integers(0, len(entries))), draw(hostile))
    return entries


@given(atom_entries())
@settings(max_examples=300, deadline=None)
def test_algebra_from_json_matches_the_per_entry_parse(entries):
    doc = {"atoms": entries}
    got = outcome(algebra_from_json, doc)
    expected = outcome(oracle_algebra_from_json, doc)
    assert (got[0], got[1].atoms if got[0] == "value" else got[1]) == expected


def test_algebra_from_json_reports_the_first_bad_entry():
    # a repeated good string is parsed once; the first bad entry still wins
    for atoms, message in [
        (["1/4", "1/4", "x", "1/0", "1/4"], "not a rational: 'x'"),
        (["1/4", "1/0", "x", "1/0"], "not a rational: '1/0'"),
        (["1/4", True, "x"], "not a rational: True"),
        (["1/4", "x", True], "not a rational: 'x'"),
        (["1/2", "1/2", "0/1"], "atom 2 has nonpositive mass 0"),
    ]:
        with pytest.raises(ValidationError) as err:
            algebra_from_json({"atoms": atoms})
        assert str(err.value) == message
    alg = algebra_from_json({"atoms": ["1/4", "2/8", " 1/4", "1/4"]})
    assert alg.atoms == (F(1, 4),) * 4


@given(st.lists(st.integers(1, 6), min_size=1, max_size=24), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_algebra_to_json_writes_each_atom(units, m):
    alg = validate_algebra([F(u, sum(units)) for u in units])
    other = validate_algebra([F(1, 3), F(1, 6), F(1, 2)])
    for each in [alg, product_algebra(alg, uniform_algebra(m)),
                 refine_to_unit(alg, F(1, alg.den))[0],
                 product_algebra(alg, other), product_algebra(other, alg)]:
        assert algebra_to_json(each) == {"atoms": [format_rational(x) for x in each.atoms]}


def test_decimal_rendering_is_advisory():
    assert decimal_rendering(F(1, 2)) == "0.5"
    third = decimal_rendering(F(1, 3))
    assert third.startswith("0.3333333333")
    assert len(third.replace("0.", "")) <= 21


def test_algebra_round_trip():
    alg = validate_algebra([F(1, 2), F(1, 3), F(1, 6)])
    doc = algebra_to_json(alg)
    assert doc == {"atoms": ["1/2", "1/3", "1/6"]}
    back = algebra_from_json(doc)
    assert back.atoms == alg.atoms
    with pytest.raises(ValidationError):
        algebra_from_json({"atoms": ["1/2", "1/3"]})


def test_event_and_tuple_forms():
    alg = validate_algebra([F(1, 2), F(1, 2)])
    e = Event.of(alg, [1])
    assert event_to_json(e) == {"members": [1]}
    assert event_from_json(alg, {"members": [1]}) == e
    assert event_from_json(alg, [1]) == e
    t = EventTuple.of_members(alg, [[0], [0, 1]])
    doc = tuple_to_json(t)
    assert doc == {"events": [{"members": [0]}, {"members": [0, 1]}]}
    assert tuple_from_json(alg, doc) == t
    assert tuple_from_json(alg, [[0], [0, 1]]) == t
    with pytest.raises(ValidationError):
        event_from_json(alg, [5])


def test_partition_round_trip():
    alg = validate_algebra([F(1, 4)] * 4)
    part = AtomPartition.of(alg, [[0, 2], [1, 3]])
    doc = {"blocks": [sorted(b) for b in part.blocks]}
    assert partition_from_json(alg, doc).blocks == part.blocks
    assert partition_from_json(alg, [[0, 2], [1, 3]]).blocks == part.blocks
    with pytest.raises(ValidationError):
        partition_from_json(alg, [[0], [1]])


def test_action_round_trip_and_declared_k():
    alg = validate_algebra([F(1, 2), F(1, 2)])
    act = validate_action(alg, [(1, 0), (0, 1)])
    doc = action_to_json(act)
    assert doc["k"] == 2
    back = action_from_json(doc)
    assert back.gens == act.gens
    assert back.algebra.atoms == act.algebra.atoms
    no_k = {"algebra": doc["algebra"], "gens": doc["gens"]}
    assert action_from_json(no_k).gens == act.gens
    with pytest.raises(ValidationError):
        action_from_json({"algebra": doc["algebra"], "k": 1, "gens": doc["gens"]})


def test_group_round_trip_and_builtins():
    g = cyclic_group(6, [1, 5])
    doc = group_to_json(g)
    assert doc == {
        "order": 6,
        "identity": 0,
        "right": [[(x + 1) % 6 for x in range(6)], [(x + 5) % 6 for x in range(6)]],
    }
    assert group_from_json(doc) == g
    assert group_from_json(oracle_group_to_json(g)) == g

    z3 = group_from_json("cyclic:3:1,2")
    assert z3.order == 3
    assert z3.gen_images == (1, 2)

    s3 = group_from_json("sym:3:1,0,2;0,2,1")
    assert s3.order == 6
    assert s3.k == 2
    assert group_from_json(group_to_json(s3)) == s3

    assert group_from_json("cyclic:3:7").gen_images == (1,)
    with pytest.raises(ValidationError):
        group_from_json("cyclic:3:x")
    with pytest.raises(ValidationError):
        group_from_json("sym:3:1,0")
    with pytest.raises(ValidationError):
        group_from_json("spin:3:1")
    bad_order = dict(doc)
    bad_order["order"] = 7
    with pytest.raises(ValidationError):
        group_from_json(bad_order)


# ------------------------------------------------- groups as generator columns


def oracle_group_to_json(group: MarkedGroup) -> dict:
    """The group document as written before the columns: the whole
    order^2 table and the marked elements."""
    return {
        "order": group.order,
        "mul": [list(row) for row in group.rows(range(group.order))],
        "gens": list(group.gen_images),
    }


def relabeled_group(group: MarkedGroup, pi) -> MarkedGroup:
    """The same group with element x renamed pi[x], read from its table."""
    table = group.rows(range(group.order))
    mul = [[0] * group.order for _ in range(group.order)]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            mul[pi[a]][pi[b]] = pi[ab]
    return validate_marked_group(mul, [pi[g] for g in group.gen_images])


def assert_columns_round_trip(group: MarkedGroup) -> None:
    """The column document reads back as the same group, and its table is
    the one the table document held."""
    doc = group_to_json(group)
    assert set(doc) == {"order", "identity", "right"}
    back = group_from_json(json.loads(render_document(doc)))
    assert back == group
    assert [list(row) for row in back.rows(range(back.order))] == oracle_group_to_json(group)["mul"]


@st.composite
def permutation_groups(draw):
    """A group generated by 1-3 permutations of degree at most 5, with its
    elements renamed by a permutation that may move the identity off 0."""
    degree = draw(st.integers(1, 5))
    perms = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    group, _ = permutation_marked_group(perms)
    return group, draw(st.permutations(range(group.order)))


@given(permutation_groups())
@settings(max_examples=120, deadline=None)
def test_group_columns_round_trip(case):
    group, pi = case
    assert_columns_round_trip(group)
    relabeled = relabeled_group(group, pi)
    assert relabeled.identity == pi[group.identity]
    assert_columns_round_trip(relabeled)


def test_symmetric_group_columns_round_trip():
    for degree in (5, 6):
        cycle = tuple(range(1, degree)) + (0,)
        swap = (1, 0) + tuple(range(2, degree))
        group, _ = permutation_marked_group([cycle, swap])
        assert group.order == {5: 120, 6: 720}[degree]
        assert_columns_round_trip(group)
    s5, _ = permutation_marked_group([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    moved = relabeled_group(s5, [(x + 7) % 120 for x in range(120)])
    assert moved.identity == 7
    assert_columns_round_trip(moved)


def test_columns_are_read_exactly_when_they_generate_a_regular_group():
    """Columns are a group's right Cayley graph exactly when they reach every
    element from the identity and generate a permutation group of the
    group's order, which then acts regularly: checked on every pair of
    permutations of up to 4 points, and every single one."""
    for order in range(1, 5):
        perms = [list(p) for p in itertools.permutations(range(order))]
        for right in [[p] for p in perms] + [[p, q] for p in perms for q in perms]:
            doc = {"order": order, "identity": 0, "right": right}
            regular = permutation_marked_group(right)[0].order == order
            reached = {0}
            for _ in range(order):
                reached |= {column[x] for column in right for x in reached}
            try:
                group = group_from_json(doc)
            except NotGenerating:
                assert len(reached) < order
            except InvalidGroupTable:
                assert len(reached) == order and not regular
            else:
                assert regular and group_to_json(group) == doc


def test_word_forms():
    w = word_from_json([1, -2, 1])
    assert w.letters == (1, -2, 1)
    with pytest.raises(ValidationError):
        word_from_json(["x"])


def test_partial_round_trip():
    alg = validate_algebra([F(1, 4)] * 4)
    p = PartialIsomorphism.of(alg, alg, [([0], [1]), ([2, 3], [0, 2])])
    doc = partial_to_json(p)
    back = partial_from_json(alg, alg, doc)
    assert back.pairs == p.pairs
    listform = partial_from_json(alg, alg, {"pairs": [[[0], [1]]]})
    assert listform.pairs == ((frozenset({0}), frozenset({1})),)


def test_render_document_is_stable():
    doc = {"b": F(1, 2), "a": [1, 2]}
    text = render_document({"b": "1/2", "a": [1, 2]})
    assert text.endswith("\n")
    assert json.loads(text) == {"b": "1/2", "a": [1, 2]}
    assert text.index('"a"') < text.index('"b"')


class _Text(str):
    """A str subclass: its lists take the general path of the walk."""


class _Int(int):
    """An int subclass whose repr is not its value: json.dumps writes it
    with int.__repr__, and its lists take the general path of the walk."""

    def __repr__(self) -> str:
        return "_Int"


def oracle_render(obj) -> str:
    """The encoder render_document replaced."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# Quotes, backslashes, control characters and non-ASCII text, besides
# whatever hypothesis draws.
_tricky = st.text(alphabet='"\\/\n\t\r\b\f\x00\x1f\x7f a\u00e9\u20ac\U0001f600')
_strings = st.one_of(st.text(), _tricky)
_leaves = st.one_of(st.none(), st.booleans(), st.integers(), _strings)
# Plain ints alone may be written inline by the dict or list that holds them.
_int_lists = st.one_of(
    st.lists(st.integers(), max_size=6),
    st.lists(st.booleans(), max_size=6),
    st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
    st.lists(st.integers().map(_Int), max_size=6),
    st.lists(st.one_of(st.integers(), st.integers().map(_Int)), max_size=6),
)
_documents = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_strings, inner, max_size=5),
        st.dictionaries(_strings, st.one_of(_int_lists, inner), max_size=5),
        st.lists(st.one_of(_int_lists, inner), max_size=5),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
        st.lists(st.integers(), max_size=6).map(tuple),
        st.lists(_strings, max_size=6),
        st.lists(_tricky, max_size=6).map(tuple),
        st.lists(st.one_of(_strings, st.integers(), st.none()), max_size=6),
    ),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(_documents)
def test_render_document_matches_json_dumps(obj):
    assert render_document(obj) == oracle_render(obj)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_only_plain_int_and_str_lists_are_joined(obj):
    with mock.patch.object(jsonio, "_joined", wraps=jsonio._joined) as joined:
        assert render_document(obj) == oracle_render(obj)
    for values, write, _newline in (call.args for call in joined.call_args_list):
        assert type(values) in (list, tuple) and values
        kinds = {type(v) for v in values}
        assert (kinds, write) in [({int}, int.__repr__), ({str}, jsonio._quote)]


def test_blocks_and_rows_are_written_inline():
    doc = {"b": [True], "gens": [[1, 0], [0, 1]], "i": [_Int(1)],
           "pairs": [{"source": [0], "target": [3, 1, 2]}]}
    with mock.patch.object(jsonio, "_joined", wraps=jsonio._joined) as joined:
        assert render_document(doc) == oracle_render(doc)
    assert [call.args[0] for call in joined.call_args_list] == [[1, 0], [0, 1], [0], [3, 1, 2]]


def test_render_document_edge_cases_match_json_dumps():
    for obj in [
        {"source": [0], "target": [3, 1, 2]}, {"a": [], "b": [True], "c": [1, False]},
        {"a": [_Int(1), 2], "b": [_Int(-3)], "c": (1, 2), "d": [[1], [], [2, True]]},
        [[1, 2], [_Int(3)], [True], [], [[4]], {"a": [5]}], {"pairs": [{"s": [1]}]},
        {}, [], (), "", 0, -1, True, False, None, 10**40,
        {"a": {}, "b": [], "c": [[]], "d": [{}], "e": ()},
        [1, True, 2], [True, False], [0, None], [[1, 2], [3]], (1, (2, 3)),
        {"\u00e9": "\x00\"\\", "": [""], "z": {"y": {"x": [1]}}},
        ["1/2", "0/1"], ("\"", "\\", "\x00\x1f", "\u00e9\U0001f600", ""),
        ["1/2", 1], [1, "1/2"], ["a", None], [None, "a"], ["a", True],
        ["a", ["b"]], [_Text("a"), "b"], [_Text("\n")],
    ]:
        assert render_document(obj) == oracle_render(obj)


def test_render_document_refuses_other_types():
    for obj in [1.5, F(1, 2), {1, 2}, b"x", {1: "a"}, [object()], {"a": [0.5]}]:
        with pytest.raises(TypeError):
            render_document(obj)
