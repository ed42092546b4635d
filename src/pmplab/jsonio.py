"""JSON interchange for algebras, events, actions, groups, and reports.

All rational values travel as exact "num/den" strings, zero included
("0/1").  Decimal renderings, where emitted, are advisory 20-significant-
digit strings; the rational strings are normative.  Parsers validate through
the same constructors the library uses, so a parsed object is a checked
object.

An algebra's atoms are written from its integer units (atom x weighs
units[x] / D): one Fraction and one string per distinct unit count, not
per atom.  Its atoms are read back with one parse per distinct string, so
an equal-atom algebra costs one parse however many atoms it has."""
from __future__ import annotations

import decimal
import json
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from typing import Any

from .algebra import (
    AtomPartition,
    Event,
    EventTuple,
    MeasuredAlgebra,
    validate_algebra,
)
from .action import FkAction, Word, _breadth_first, validate_action
from .constructions import (
    MarkedGroup,
    PartialIsomorphism,
    cyclic_group,
    permutation_marked_group,
    validate_marked_group,
)
from .errors import (
    InstanceTooLarge,
    InvalidGroupTable,
    NotGenerating,
    PmplabError,
    ValidationError,
)
from .limits import MAX_GROUP_ORDER

DECIMAL_DIGITS = 20


# ---------------------------------------------------------------------------
# rationals


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    if not (isinstance(text, str) or _is_int(text)):
        raise ValidationError(f"not a rational: {text!r}")
    try:
        if isinstance(text, str) and "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational: {text!r}") from exc


def decimal_rendering(value: Fraction) -> str:
    """Advisory decimal string with 20 significant digits."""
    ctx = decimal.Context(prec=DECIMAL_DIGITS)
    return str(
        ctx.divide(decimal.Decimal(value.numerator), decimal.Decimal(value.denominator))
    )


# ---------------------------------------------------------------------------
# algebras, events, tuples, partitions


def algebra_to_json(alg: MeasuredAlgebra) -> dict:
    """One string per distinct unit count: atom x is units[x] / D."""
    units, den = alg.units, alg.den
    text = {u: format_rational(Fraction(u, den)) for u in set(units)}
    return {"atoms": [text[u] for u in units]}


def algebra_from_json(obj: Any) -> MeasuredAlgebra:
    """A list of strs is parsed once per distinct string, in order of first
    appearance, so the first bad entry raises; other lists entry by entry."""
    if not isinstance(obj, Mapping) or not _is_list(obj.get("atoms")):
        raise ValidationError('algebra JSON must be {"atoms": [...]}')
    raw = obj["atoms"]
    if all(type(m) is str for m in raw):
        parsed = {m: parse_rational(m) for m in dict.fromkeys(raw)}
        return validate_algebra([parsed[m] for m in raw])
    return validate_algebra([parse_rational(m) for m in raw])


def event_to_json(e: Event) -> dict:
    return {"members": list(e.members)}


def event_from_json(alg: MeasuredAlgebra, obj: Any) -> Event:
    members = obj.get("members") if isinstance(obj, Mapping) else obj
    if not _is_list(members):
        raise ValidationError('event JSON must be {"members": [...]} or a plain list')
    if not _all_ints(members):
        raise ValidationError("event members must be integers")
    return Event.of(alg, members)


def _is_int(value: Any) -> bool:
    """An int and not a bool: JSON `true` must not pass for 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _all_ints(values: Sequence) -> bool:
    """Whether every value is an int and none a bool: one pass over the
    types for the plain-int lists a parsed document holds."""
    return set(map(type, values)) == {int} or all(_is_int(v) for v in values)


def _is_list(value: Any) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def _int_list(value: Any, what: str) -> Sequence[int]:
    if not _is_list(value) or not _all_ints(value):
        raise ValidationError(f"{what} must be a list of integers")
    return value


def tuple_to_json(t: EventTuple) -> dict:
    return {"events": [event_to_json(e) for e in t.events]}


def tuple_from_json(alg: MeasuredAlgebra, obj: Any) -> EventTuple:
    events = obj.get("events") if isinstance(obj, Mapping) else obj
    if not _is_list(events):
        raise ValidationError('tuple JSON must be {"events": [...]} or a plain list')
    return EventTuple.of(alg, [event_from_json(alg, e) for e in events])


def partition_from_json(alg: MeasuredAlgebra, obj: Any) -> AtomPartition:
    blocks = obj.get("blocks") if isinstance(obj, Mapping) else obj
    if not _is_list(blocks):
        raise ValidationError('partition JSON must be {"blocks": [...]} or a plain list')
    return AtomPartition.of(alg, [_int_list(b, "a partition block") for b in blocks])


# ---------------------------------------------------------------------------
# actions and words


def action_to_json(act: FkAction) -> dict:
    return {
        "algebra": algebra_to_json(act.algebra),
        "k": act.k,
        "gens": [list(p) for p in act.gens],
    }


def action_from_json(obj: Any) -> FkAction:
    if not isinstance(obj, Mapping) or not {"algebra", "gens"} <= set(obj):
        raise ValidationError(
            'action JSON must be {"algebra": ..., "k": ..., "gens": [...]}'
        )
    alg = algebra_from_json(obj["algebra"])
    gens = obj["gens"]
    if not _is_list(gens):
        raise ValidationError("gens must be a list of permutations")
    act = validate_action(alg, [tuple(_int_list(p, "a permutation")) for p in gens])
    declared = obj.get("k", act.k)
    if not (_is_int(declared) and declared == act.k):
        raise ValidationError(f"declared k={declared} but {act.k} generators given")
    return act


def word_from_json(obj: Any) -> Word:
    if not _is_list(obj):
        raise ValidationError("word JSON must be a list of signed integers")
    if not _all_ints(obj):
        raise ValidationError("word letters must be integers")
    return Word.of(obj)


# ---------------------------------------------------------------------------
# marked groups


def group_to_json(group: MarkedGroup) -> dict:
    """The group's own fields: its order, its identity and its right
    Cayley graph, right[i][x] = x * g_i, k * order entries.  No table is
    built; group_from_json rebuilds it to check the group."""
    return {
        "order": group.order,
        "identity": group.identity,
        "right": [list(column) for column in group.right],
    }


def _parse_builtin_group(text: str) -> MarkedGroup:
    parts = text.split(":")
    kind = parts[0]
    if kind == "cyclic":
        if len(parts) != 3:
            raise ValidationError('cyclic builtin is "cyclic:n:a1,...,ak"')
        n = int(parts[1])
        images = [int(v) for v in parts[2].split(",") if v != ""]
        if not images:
            raise ValidationError("cyclic builtin needs at least one generator")
        return cyclic_group(n, images)
    if kind == "sym":
        if len(parts) != 3:
            raise ValidationError('sym builtin is "sym:n:p1;...;pk"')
        n = int(parts[1])
        perms = []
        for chunk in parts[2].split(";"):
            perm = tuple(int(v) for v in chunk.split(","))
            if len(perm) != n:
                raise ValidationError(
                    f"permutation {chunk!r} does not have {n} entries"
                )
            perms.append(perm)
        group, _elements = permutation_marked_group(perms)
        return group
    raise ValidationError(f"unknown builtin group kind {kind!r}")


def group_from_json(obj: Any) -> MarkedGroup:
    """Parse a group from a builtin string, a table object
    {"mul": [[...]], "gens": [...]} or a column object, group_to_json's
    {"order": n, "identity": e, "right": [[...], ...]}."""
    if isinstance(obj, str):
        try:
            return _parse_builtin_group(obj)
        except ValueError as exc:
            kind = type(exc) if isinstance(exc, PmplabError) else ValidationError
            raise kind(f"bad builtin group {obj!r}: {exc}") from exc
    if isinstance(obj, Mapping) and {"mul", "gens"} <= set(obj):
        if not _is_list(obj["mul"]):
            raise ValidationError("mul must be a list of rows")
        mul = [_int_list(row, "a table row") for row in obj["mul"]]
        group = validate_marked_group(mul, _int_list(obj["gens"], "gens"))
        declared = obj.get("order", group.order)
        if not (_is_int(declared) and declared == group.order):
            raise ValidationError(
                f"declared order {declared} but table has {group.order} elements"
            )
        return group
    if isinstance(obj, Mapping) and {"order", "identity", "right"} <= set(obj):
        return _group_from_columns(obj["order"], obj["identity"], obj["right"])
    raise ValidationError(
        'group JSON must be {"order": ..., "identity": ..., "right": [...]}, '
        '{"mul": [...], "gens": [...]} or a builtin string'
    )


def _group_from_columns(order: Any, identity: Any, raw: Any) -> MarkedGroup:
    """The group whose right Cayley graph the columns are, checked as fully
    as a table is: the shape first, then the size cap before anything is
    built, then generation along the columns.  Then the table the columns
    determine (MarkedGroup.rows) must have them as its own generator
    columns, x * g_i = right[i][x], so that its generation check walks the
    same graph, and it goes through validate_marked_group, which finds the
    same identity, the only one a table can have."""
    if not _is_int(order):
        raise ValidationError("order must be an integer")
    if not _is_list(raw) or not raw:
        raise ValidationError("right must be a non-empty list of columns")
    right = tuple(tuple(_int_list(column, "a column")) for column in raw)
    for column in right:
        if len(column) != order or sorted(column) != list(range(order)):
            raise InvalidGroupTable(f"a column is not a permutation of the {order} elements")
    if not _is_int(identity):
        raise ValidationError("identity must be an integer")
    if not 0 <= identity < order:
        raise InvalidGroupTable(f"identity {identity} is not one of the {order} elements")
    if order > MAX_GROUP_ORDER:
        raise InstanceTooLarge(f"group has more than {MAX_GROUP_ORDER} elements")
    reached, _ = _breadth_first(identity, right, lambda x, column: column[x])
    if len(reached) != order:
        raise NotGenerating(
            f"marked generators reach only {len(reached)} of {order} elements"
        )
    gen_images = [column[identity] for column in right]
    table = MarkedGroup(order, identity, right).rows(range(order))
    if tuple(tuple(row[g] for row in table) for g in gen_images) != right:
        raise InvalidGroupTable("the columns are not the right Cayley graph of their table")
    return validate_marked_group(table, gen_images)


# ---------------------------------------------------------------------------
# partial isomorphisms


def partial_to_json(p: PartialIsomorphism) -> dict:
    return {
        "pairs": [
            {"source": sorted(s), "target": sorted(t)} for s, t in p.pairs
        ]
    }


def partial_from_json(
    source: MeasuredAlgebra, target: MeasuredAlgebra, obj: Any
) -> PartialIsomorphism:
    raw = obj.get("pairs") if isinstance(obj, Mapping) else obj
    if not _is_list(raw):
        raise ValidationError('partial JSON must be {"pairs": [...]} or a plain list')
    pairs = []
    for entry in raw:
        if isinstance(entry, Mapping) and {"source", "target"} <= set(entry):
            pair = (entry["source"], entry["target"])
        elif isinstance(entry, Sequence) and len(entry) == 2:
            pair = (entry[0], entry[1])
        else:
            raise ValidationError(
                'each pair must be {"source": [...], "target": [...]} or [src, tgt]'
            )
        for block in pair:
            if not _is_list(block) or not _all_ints(block):
                raise ValidationError("pair blocks must be lists of integers")
        pairs.append(pair)
    return PartialIsomorphism.of(source, target, pairs)


# ---------------------------------------------------------------------------
# document rendering


_quote = json.encoder.encode_basestring_ascii


def render_document(obj: Any) -> str:
    """The one canonical JSON serialization: sorted keys, two-space indent,
    trailing newline.  Byte-identical output for equal objects.

    The bytes are those of json.dumps(obj, indent=2, sort_keys=True) + "\\n",
    written by a direct walk of the payload: dicts with str keys, lists and
    tuples, str, int, bool and None; any other type raises TypeError.  A
    list of plain ints, or of plain strs, is written with one join, and
    strings are escaped by the json module's C escaper.  A dict value or a
    list item that is a non-empty list of plain ints (a block of atoms, a
    permutation, a table row) is written inline by the dict's or the list's
    own loop, with no call for the inner list."""
    out: list[str] = []
    _render(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _render(obj: Any, newline: str, out: list[str]) -> None:
    """Append obj to out; newline is a line break and the current indent."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        opener = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            value = obj[key]
            if type(value) is list and value and set(map(type, value)) == {int}:
                out.append(opener + _quote(key) + ": " + _joined(value, int.__repr__, inner))
            else:
                out.append(opener + _quote(key) + ": ")
                _render(value, inner, out)
            opener = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, obj))
        if kinds == {int} or kinds == {str}:  # plain ints (no bool) or strs
            out.append(_joined(obj, int.__repr__ if kinds == {int} else _quote, newline))
            return
        opener = "[" + inner
        for item in obj:
            if type(item) is list and item and set(map(type, item)) == {int}:
                out.append(opener + _joined(item, int.__repr__, inner))
            else:
                out.append(opener)
                _render(item, inner, out)
            opener = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _joined(values: Sequence, write: Callable[[Any], str], newline: str) -> str:
    """A non-empty list of plain ints or strs, one item per line, in one
    join.  The loop that holds a plain-int list (a block, a permutation, a
    table row) calls this directly, so such a list costs no _render call."""
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(write, values)) + newline + "]"
