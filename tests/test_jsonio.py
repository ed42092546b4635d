"""JSON interchange: exact rationals, algebras, actions, groups,
partials, and the rendered document format."""
from __future__ import annotations

import contextlib
import io
import itertools
import json
from fractions import Fraction

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmplab import cli, jsonio, limits
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
)
from pmplab.errors import InstanceTooLarge, InvalidGroupTable, NotGenerating, ValidationError
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

from conftest import group_from_table, oracle_validate_marked_group, outcome
from test_replay import ROOT, load

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


def cyclic_table(order):
    return [[(x + y) % order for y in range(order)] for x in range(order)]


def test_a_table_past_the_order_cap_is_refused_before_any_row_is_read():
    """The rows are counted before any is read: past MAX_GROUP_ORDER rows,
    rows that are not even lists are refused for their number alone."""
    with pytest.raises(InstanceTooLarge):
        group_from_json({"mul": [None] * (limits.MAX_GROUP_ORDER + 1), "gens": [1]})


def test_a_table_is_read_up_to_the_order_cap(monkeypatch):
    """With the cap lowered to n, the table of Z/n is read and the table of
    Z/(n + 1) refused, by the reader and the oracle alike."""
    n = 6
    monkeypatch.setattr(limits, "MAX_GROUP_ORDER", n)
    assert group_from_table(cyclic_table(n), [1]) == cyclic_group(n, [1])
    assert oracle_validate_marked_group(cyclic_table(n), [1])[1:] == (0, (1,))
    refused = (InstanceTooLarge, f"group has more than {n} elements")
    assert outcome(group_from_table, cyclic_table(n + 1), [1]) == refused
    assert outcome(oracle_validate_marked_group, cyclic_table(n + 1), [1]) == refused


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
    return group_from_table(mul, [pi[g] for g in group.gen_images])


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


def oracle_group_from_columns(order, identity, right):
    """The column reader as it was: the shape, generation along the columns,
    then the table the columns determine, rebuilt in full, must have them as
    its generator columns and pass every check of a table, associativity on
    all triples included."""
    for column in right:
        if len(column) != order or sorted(column) != list(range(order)):
            raise InvalidGroupTable(f"a column is not a permutation of the {order} elements")
    if not 0 <= identity < order:
        raise InvalidGroupTable(f"identity {identity} is not one of the {order} elements")
    walk = [identity]
    for x in walk:
        for column in right:
            if column[x] not in walk:
                walk.append(column[x])
    if len(walk) != order:
        raise NotGenerating(f"marked generators reach only {len(walk)} of {order} elements")
    # z * y for y first reached as x * g_i is (z * x) * g_i, and z * e = z
    table = [[None] * order for _ in range(order)]
    for z in range(order):
        table[z][identity] = z
        for x in walk:
            for column in right:
                if table[z][column[x]] is None:
                    table[z][column[x]] = column[table[z][x]]
    gens = [column[identity] for column in right]
    if [[row[g] for row in table] for g in gens] != [list(column) for column in right]:
        raise InvalidGroupTable("the columns are not the right Cayley graph of their table")
    table, identity, gens = oracle_validate_marked_group(table, gens)
    return MarkedGroup(order, identity, tuple(tuple(row[g] for row in table) for g in gens))


def read_outcome(read, *args):
    """The group read, or the type of the refusal."""
    try:
        return read(*args)
    except (ValidationError, InvalidGroupTable, NotGenerating) as exc:
        return type(exc)


def assert_read_as_the_oracle_reads(order, identity, right):
    doc = {"order": order, "identity": identity, "right": right}
    assert read_outcome(group_from_json, doc) == read_outcome(
        oracle_group_from_columns, order, identity, right
    )


def test_columns_are_read_as_the_oracle_reads_every_small_set():
    """Every set of at most two permutations of at most 4 points, with every
    identity."""
    for order in range(1, 5):
        perms = [list(p) for p in itertools.permutations(range(order))]
        for right in [[]] + [[p] for p in perms] + [[p, q] for p in perms for q in perms]:
            for identity in range(order):
                assert_read_as_the_oracle_reads(order, identity, right)


@st.composite
def near_group_columns(draw):
    """The columns of a group generated by 1-2 permutations of at most 4
    points, relabelled by a permutation of its elements, with up to two
    pairs of entries of a column swapped, and the relabelled identity or
    any element as the identity."""
    degree = draw(st.integers(1, 4))
    perms = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=2))
    group, _ = permutation_marked_group(perms)
    order = group.order
    pi = draw(st.permutations(range(order)))
    right = [[0] * order for _ in group.right]
    for column, relabeled in zip(group.right, right):
        for x, y in enumerate(column):
            relabeled[pi[x]] = pi[y]
    entry = st.integers(0, order - 1)
    swaps = st.tuples(st.integers(0, len(right) - 1), entry, entry)
    for i, a, b in draw(st.lists(swaps, max_size=2)):
        right[i][a], right[i][b] = right[i][b], right[i][a]
    identity = draw(st.one_of(st.just(pi[group.identity]), entry))
    return order, identity, right


@settings(max_examples=300, deadline=None)
@given(near_group_columns())
def test_columns_are_read_as_the_oracle_reads(case):
    assert_read_as_the_oracle_reads(*case)


def test_reading_columns_asks_rows_for_the_marked_generators_only(monkeypatch):
    """Reading the S_6 columns builds k rows, not the order^2 table: a guard
    on the read cost without timing."""
    s6, _ = permutation_marked_group([(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)])
    doc = json.loads(render_document(group_to_json(s6)))
    calls = []
    rows = MarkedGroup.rows

    def counted(group, zs):
        calls.append(tuple(zs))
        return rows(group, zs)

    monkeypatch.setattr(MarkedGroup, "rows", counted)
    assert group_from_json(doc) == s6
    assert calls == [s6.gen_images]


def test_word_forms():
    assert word_from_json([1, -2, 1]) == (1, -2, 1)
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


class _Dict(dict):
    """A dict subclass, written as a dict."""


class _List(list):
    """A list subclass, written as a list."""


class _Tuple(tuple):
    """A tuple subclass, written as a list."""


def oracle_render(obj) -> str:
    """The encoder render_document replaced."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# Quotes, backslashes, control characters and non-ASCII text, besides
# whatever hypothesis draws.
_tricky = st.text(alphabet='"\\/\n\t\r\b\f\x00\x1f\x7f a\u00e9\u20ac\U0001f600')
_strings = st.one_of(st.text(), _tricky)
_leaves = st.one_of(st.none(), st.booleans(), st.integers(), _strings,
                    st.integers().map(_Int), _strings.map(_Text))
# Plain ints alone may be written inline by the dict or list that holds them.
_int_lists = st.one_of(
    st.lists(st.integers(), max_size=6),
    st.lists(st.booleans(), max_size=6),
    st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
    st.lists(st.integers().map(_Int), max_size=6),
    st.lists(st.one_of(st.integers(), st.integers().map(_Int)), max_size=6),
    st.lists(st.integers(0, 3), max_size=6).map(_List),
    st.lists(st.integers(-2, 2), max_size=6).map(_Tuple),
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
        st.lists(inner, max_size=5).map(_List),
        st.lists(inner, max_size=5).map(_Tuple),
        st.dictionaries(_strings, inner, max_size=5).map(_Dict),
        st.dictionaries(_strings, _strings, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(_documents)
def test_render_document_matches_json_dumps(obj):
    assert render_document(obj) == oracle_render(obj)


class _Lookups(jsonio._IntText):
    """An empty int-text cache that records every int looked up in it."""

    def __init__(self):
        super().__init__()
        self.keys = []

    def __getitem__(self, value):
        self.keys.append(value)
        return super().__getitem__(value)


def plain_int_items(obj):
    """The items of every list or tuple in obj, subclasses included, whose
    items are all plain ints, in the order render_document writes them."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from plain_int_items(obj[key])
    elif isinstance(obj, (list, tuple)):
        if {type(item) for item in obj} == {int}:
            yield from obj
        else:
            for item in obj:
                yield from plain_int_items(item)


def strs_rendered_alone(obj) -> int:
    """The strs of obj that are not joined or written inline: the document
    itself, a str subclass held by a dict, and every item of a list or
    tuple that is not all plain strs."""
    if isinstance(obj, str):
        return 1
    if isinstance(obj, dict):
        return sum(strs_rendered_alone(v) for v in obj.values() if type(v) is not str)
    if isinstance(obj, (list, tuple)) and {type(item) for item in obj} != {str}:
        return sum(map(strs_rendered_alone, obj))
    return 0


def render_spied(obj):
    """obj rendered from a cold int-text cache, with the ints read from the
    cache and the nodes handed to _render, in order."""
    lookups = _Lookups()
    with mock.patch.object(jsonio, "_INT_TEXT", lookups), \
            mock.patch.object(jsonio, "_render", wraps=jsonio._render) as render:
        text = render_document(obj)
    return text, lookups.keys, [call.args[0] for call in render.call_args_list]


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_only_plain_int_and_str_lists_are_joined(obj):
    """Each plain-int list is joined from the int-text cache, and no other
    int is read from it; the items of a plain-str list never reach _render,
    and each str item of any other list does."""
    text, keys, rendered = render_spied(obj)
    assert text == oracle_render(obj)
    assert keys == list(plain_int_items(obj))
    assert {type(key) for key in keys} <= {int}
    assert sum(isinstance(node, str) for node in rendered) == strs_rendered_alone(obj)


def test_blocks_and_rows_are_written_inline():
    doc = {"b": [True], "gens": [[1, 0], [0, 1]], "i": [_Int(1)],
           "pairs": [{"source": [0], "target": [3, 1, 2]}]}
    text, keys, rendered = render_spied(doc)
    assert text == oracle_render(doc)
    assert keys == [1, 0, 0, 1, 0, 3, 1, 2]
    expected = [doc, doc["b"], True, doc["gens"], doc["i"], doc["i"][0], doc["pairs"],
                doc["pairs"][0]]
    assert list(map(id, rendered)) == list(map(id, expected))


def test_a_list_renders_the_same_from_a_warm_cache(monkeypatch):
    monkeypatch.setattr(jsonio, "_INT_TEXT", jsonio._IntText())
    for obj in [[3, 1, 2], {"a": [[5, 0], [0, 5]]}, [[7], [7, 8]], (9, 3)]:
        cold = render_document(obj)
        assert render_document(obj) == cold == oracle_render(obj)


def test_the_int_text_cache_keeps_exact_ints_in_range(monkeypatch):
    """True, an int subclass, a negative int, a big int and MAX_REFINED_ATOMS
    are written as json.dumps writes them, cold or warm, and never kept."""
    cache = jsonio._IntText()
    monkeypatch.setattr(jsonio, "_INT_TEXT", cache)
    top = limits.MAX_REFINED_ATOMS
    odd = [True, _Int(1), -1, 10**40, top]
    for obj in [[1, 0], [True], [_Int(1)], [-1], [10**40], [top], [1, True, _Int(1)], odd,
                [0, -1, 10**40, top, top - 1], {"a": [-1, top]}, [[True], [top, 1]]]:
        for _ in range(2):
            assert render_document(obj) == oracle_render(obj)
    assert {type(key) for key in cache} == {int}
    assert all(0 <= key < top for key in cache)
    assert sorted(cache) == [0, 1, top - 1]
    assert all(cache[key] == str(key) for key in cache)


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
        ["a", ["b"]], [_Text("a"), "b"], [_Text("\n")], {"a": _Text("\t"), "b": "c"},
        _Text("x"), _Int(7), _Dict(), _List(), _Tuple(), _Dict(b=_List([1, 2]), a=_Tuple()),
        _List([1, 2]), _Tuple((3, _Int(4))), [_List([5]), _Tuple((6,)), _Dict(z=[7])],
        {"a": _List([[1], _List([2])]), "b": _Dict(c=_Text("d"))}, _List([_Text("e")]),
    ]:
        assert render_document(obj) == oracle_render(obj)


def test_render_document_refuses_other_types():
    for obj in [1.5, F(1, 2), {1, 2}, b"x", {1: "a"}, [object()], {"a": [0.5]}]:
        with pytest.raises(TypeError):
            render_document(obj)


@pytest.mark.parametrize("seed", [0, 1])
def test_every_benchmark_document_renders_as_json_dumps(monkeypatch, tmp_path, seed):
    """The documents the benchmark's requests produce, the 14,400-entry
    joint-quotient tables, the eppa pair lists and the embed element lists
    among them: sizes the strategy above never draws."""
    workloads = load(monkeypatch, "workloads", ROOT / "perfbench" / "workloads.py")
    payloads = []

    def captured(obj):
        payloads.append(obj)
        return render_document(obj)

    monkeypatch.setattr(jsonio, "render_document", captured)
    for workload in workloads.WORKLOADS:
        requests, texts = workloads.generate(workload, seed, tmp_path / workload)
        workloads.write_inputs(texts)
        for req in requests:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.cli_dispatch(req.argv)
    assert len(payloads) > 100
    for obj in payloads:
        assert render_document(obj) == oracle_render(obj)
