"""JSON interchange for algebras, events, actions, groups, and reports.

All rational values travel as exact "num/den" strings, zero included
("0/1").  Decimal renderings, where emitted, are advisory 20-significant-
digit strings; the rational strings are normative.  Parsers validate through
the same constructors the library uses, so a parsed object is a checked
object.

An algebra's atoms are written from its integer units (atom x weighs
units[x] / D): one Fraction and one string per distinct unit count, not
per atom.  Its atoms are read back with one parse and one conversion to
units per distinct string, so an equal-atom algebra costs one of each
however many atoms it has."""
from __future__ import annotations

import decimal
import json
from collections.abc import Mapping, Sequence
from fractions import Fraction

from .algebra import (
    AtomPartition,
    Event,
    EventTuple,
    MeasuredAlgebra,
    validate_algebra,
    validate_keyed_algebra,
)
from .action import FkAction, Word, validate_action
from .constructions import (
    MarkedGroup,
    PartialIsomorphism,
    cyclic_group,
    permutation_marked_group,
)
from .errors import (
    InvalidGroupTable,
    PmplabError,
    ValidationError,
)
from .limits import MAX_REFINED_ATOMS, _check_group_order

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


def algebra_from_json(obj: object) -> MeasuredAlgebra:
    """A list of strs is parsed and brought to units once per distinct
    string, parsed in order of first appearance, so the first bad entry
    raises; other lists are parsed entry by entry."""
    if not isinstance(obj, Mapping) or not _is_list(obj.get("atoms")):
        raise ValidationError('algebra JSON must be {"atoms": [...]}')
    raw = obj["atoms"]
    if set(map(type, raw)) == {str}:
        return validate_keyed_algebra({m: parse_rational(m) for m in dict.fromkeys(raw)}, raw)
    return validate_algebra([parse_rational(m) for m in raw])


def event_to_json(e: Event) -> dict:
    return {"members": list(e.members)}


def event_from_json(alg: MeasuredAlgebra, obj: object) -> Event:
    members = _unwrap_list(obj, "members", "event")
    if not _all_ints(members):
        raise ValidationError("event members must be integers")
    return Event.of(alg, members)


def _is_int(value: object) -> bool:
    """An int and not a bool: JSON `true` must not pass for 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _all_ints(values: Sequence) -> bool:
    """Whether every value is an int and none a bool: one pass over the
    types for the plain-int lists a parsed document holds."""
    return set(map(type, values)) == {int} or all(_is_int(v) for v in values)


def _is_list(value: object) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def _unwrap_list(obj: object, key: str, what: str) -> Sequence:
    """obj[key] when obj is a mapping, else obj itself; either way a list."""
    value = obj.get(key) if isinstance(obj, Mapping) else obj
    if not _is_list(value):
        raise ValidationError(f'{what} JSON must be {{"{key}": [...]}} or a plain list')
    return value


def _int_list(value: object, what: str) -> Sequence[int]:
    if not _is_list(value) or not _all_ints(value):
        raise ValidationError(f"{what} must be a list of integers")
    return value


def tuple_to_json(t: EventTuple) -> dict:
    return {"events": [event_to_json(e) for e in t.events]}


def tuple_from_json(alg: MeasuredAlgebra, obj: object) -> EventTuple:
    events = _unwrap_list(obj, "events", "tuple")
    return EventTuple.of(alg, [event_from_json(alg, e) for e in events])


def partition_from_json(alg: MeasuredAlgebra, obj: object) -> AtomPartition:
    blocks = _unwrap_list(obj, "blocks", "partition")
    return AtomPartition.of(alg, [_int_list(b, "a partition block") for b in blocks])


# ---------------------------------------------------------------------------
# actions and words


def action_to_json(act: FkAction) -> dict:
    return {
        "algebra": algebra_to_json(act.algebra),
        "k": act.k,
        "gens": [list(p) for p in act.gens],
    }


def action_from_json(obj: object) -> FkAction:
    if not isinstance(obj, Mapping) or not {"algebra", "gens"} <= set(obj):
        raise ValidationError(
            'action JSON must be {"algebra": ..., "k": ..., "gens": [...]}'
        )
    alg = algebra_from_json(obj["algebra"])
    gens = obj["gens"]
    if not _is_list(gens):
        raise ValidationError("gens must be a list of permutations")
    act = validate_action(alg, [_int_list(p, "a permutation") for p in gens])
    declared = obj.get("k", act.k)
    if not (_is_int(declared) and declared == act.k):
        raise ValidationError(f"declared k={declared} but {act.k} generators given")
    return act


def word_from_json(obj: object) -> Word:
    if not _is_list(obj):
        raise ValidationError("word JSON must be a list of signed integers")
    if not _all_ints(obj):
        raise ValidationError("word letters must be integers")
    return tuple(obj)


# ---------------------------------------------------------------------------
# marked groups


def group_to_json(group: MarkedGroup) -> dict:
    """The group's own fields: its order, its identity and its right
    Cayley graph, right[i][x] = x * g_i, k * order entries.  No table is
    built, here or when group_from_json checks it (MarkedGroup.of)."""
    return {
        "order": group.order,
        "identity": group.identity,
        "right": [list(column) for column in group.right],
    }


# The kinds of builtin group string, "kind:n:generators".
_BUILTIN_GROUP_KINDS = ("cyclic", "sym")


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


def group_from_json(obj: object) -> MarkedGroup:
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
        group = _group_from_table(obj["mul"], _int_list(obj["gens"], "gens"))
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


def _group_from_table(mul: object, gens: Sequence[int]) -> MarkedGroup:
    """The group whose table mul is, read through its generator columns: the
    size cap as soon as the rows are counted, before any row is read, then
    the shape, the identity as the row that is the elements in order, the
    marked elements, MarkedGroup.of on their columns, and the table that
    group's rows rebuild, which must be mul.  of proves that the columns are
    a group's right Cayley graph and rows gives that group's table, so
    equality makes mul a group table, two-sided identity and inverses
    included."""
    if not _is_list(mul):
        raise ValidationError("mul must be a list of rows")
    order = len(mul)
    if order == 0:
        raise InvalidGroupTable("empty multiplication table")
    _check_group_order(order)
    table = tuple(tuple(_int_list(row, "a table row")) for row in mul)
    for row in table:
        if len(row) != order or min(row) < 0 or max(row) >= order:
            raise InvalidGroupTable("multiplication table is not square over the elements")
    elements = tuple(range(order))
    if elements not in table:
        raise InvalidGroupTable("no identity element")
    for g in gens:
        if not 0 <= g < order:
            raise InvalidGroupTable(f"generator image {g} out of range")
    group = MarkedGroup.of(order, table.index(elements), [[row[g] for row in table] for g in gens])
    if group.rows(elements) != table:
        raise InvalidGroupTable("multiplication is not associative")
    return group


def _group_from_columns(order: object, identity: object, raw: object) -> MarkedGroup:
    """The group whose right Cayley graph the columns are: the size cap as
    soon as the order is an integer, before any column is copied, then the
    JSON types, and then MarkedGroup.of, which checks the columns."""
    if not _is_int(order):
        raise ValidationError("order must be an integer")
    _check_group_order(order)
    if not _is_list(raw):
        raise ValidationError("right must be a list of columns")
    right = [_int_list(column, "a column") for column in raw]
    if not _is_int(identity):
        raise ValidationError("identity must be an integer")
    return MarkedGroup.of(order, identity, right)


# ---------------------------------------------------------------------------
# partial isomorphisms


def partial_to_json(p: PartialIsomorphism) -> dict:
    return {
        "pairs": [
            {"source": sorted(s), "target": sorted(t)} for s, t in p.pairs
        ]
    }


def partial_from_json(
    source: MeasuredAlgebra, target: MeasuredAlgebra, obj: object
) -> PartialIsomorphism:
    raw = _unwrap_list(obj, "pairs", "partial")
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


class _IntText(dict):
    """The text of each int that a joined list has held, kept for the ints
    in range(MAX_REFINED_ATOMS) only: atom indices and group elements."""

    def __missing__(self, value: int) -> str:
        text = int.__repr__(value)
        if 0 <= value < MAX_REFINED_ATOMS:
            self[value] = text
        return text


_INT_TEXT = _IntText()


def render_document(obj: object) -> str:
    """The one canonical JSON serialization: sorted keys, two-space indent,
    trailing newline.  Byte-identical output for equal objects.

    The bytes are those of json.dumps(obj, indent=2, sort_keys=True) + "\\n",
    written by a walk of the payload that dispatches on each node's exact
    type: dicts with str keys, lists and tuples, str, int, bool and None,
    and their subclasses; any other type raises TypeError.  A list of plain
    ints, or of plain strs, is one join, of texts from _INT_TEXT or from the
    json module's C escaper.  A dict value that is a plain str, and a dict
    value or a list item that is a non-empty list of plain ints (a block, a
    permutation, a table row), is written by the dict's or list's own loop."""
    out: list[str] = []
    _render(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _render(obj: object, newline: str, out: list[str]) -> None:
    """Append obj to out; newline is a line break and the current indent."""
    t = type(obj)
    if t is dict:
        inner = newline + "  "
        opener, comma, deeper = "{" + inner, "," + inner, inner + "  "
        for key in sorted(obj):
            if type(key) is not str and not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            value = obj[key]
            if type(value) is str:
                out.append(f"{opener}{_quote(key)}: {_quote(value)}")
            elif type(value) is list and {*map(type, value)} == {int}:
                texts = ("," + deeper).join(map(_INT_TEXT.__getitem__, value))
                out.append(f"{opener}{_quote(key)}: [{deeper}{texts}{inner}]")
            else:
                out.append(f"{opener}{_quote(key)}: ")
                _render(value, inner, out)
            opener = comma
        out.append(newline + "}" if obj else "{}")
    elif t is list or t is tuple:
        inner = newline + "  "
        kinds = {*map(type, obj)}
        if kinds == {int} or kinds == {str}:  # plain ints (no bool) or strs
            texts = map(_INT_TEXT.__getitem__ if kinds == {int} else _quote, obj)
            out.append(f"[{inner}{(',' + inner).join(texts)}{newline}]")
            return
        opener, comma, deeper = "[" + inner, "," + inner, inner + "  "
        for item in obj:
            if type(item) is list and {*map(type, item)} == {int}:
                texts = ("," + deeper).join(map(_INT_TEXT.__getitem__, item))
                out.append(f"{opener}[{deeper}{texts}{inner}]")
            else:
                out.append(opener)
                _render(item, inner, out)
            opener = comma
        out.append(newline + "]" if obj else "[]")
    elif t is str or isinstance(obj, str):
        out.append(_quote(obj))
    elif t is int:
        out.append(int.__repr__(obj))
    elif obj is None:
        out.append("null")
    elif t is bool:
        out.append("true" if obj else "false")
    elif isinstance(obj, int):  # a subclass of int, dict, list or tuple: as its base
        out.append(int.__repr__(obj))
    elif isinstance(obj, (dict, list, tuple)):
        _render(dict(obj) if isinstance(obj, dict) else list(obj), newline, out)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
