"""The census of transitive F_k-sets of small degree (conftest), checked
against two exact counts: M. Hall Jr., "Subgroups of finite index in free
groups" (Canad. J. Math. 1, 1949), for its tables, and orbit-stabilizer
for its classes."""
from __future__ import annotations

from math import factorial

import pytest

from conftest import standard_table, transitive_census, transitive_tables

DEGREES = range(1, 6)


def hall_count(k: int, n: int) -> int:
    """The number of subgroups of index n in F_k:
    a_n = n (n!)^(k-1) - sum over j < n of ((n - j)!)^(k-1) a_j."""
    return n * factorial(n) ** (k - 1) - sum(
        factorial(n - j) ** (k - 1) * hall_count(k, j) for j in range(1, n)
    )


def test_hall_counts_the_standard_tables():
    assert [hall_count(2, n) for n in DEGREES] == [1, 3, 13, 71, 461]
    for k in (1, 2):
        assert [len(transitive_tables(k, n)) for n in DEGREES] == [
            hall_count(k, n) for n in DEGREES
        ]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", DEGREES)
def test_every_table_is_standard_transitive_and_listed_once(k, n):
    tables = transitive_tables(k, n)
    assert len(set(tables)) == len(tables)
    for table in tables:
        assert len(table) == k
        assert all(sorted(g) == list(range(n)) for g in table)
        # standard from 0 is the table itself, so the walk from 0 meets
        # every point: the set is transitive
        assert standard_table(table, 0) == table


def test_class_counts_and_orbit_stabilizer():
    """Each class holds n / |Aut| standard tables, so the sum over the
    classes of n! / |Aut| is (n - 1)! a_n."""
    assert [len(transitive_census(2, n)) for n in DEGREES] == [1, 3, 7, 26, 97]
    assert [len(transitive_census(1, n)) for n in DEGREES] == [1] * 5
    for k in (1, 2):
        for n in DEGREES:
            classes = transitive_census(k, n)
            assert sum(factorial(n) // c.automorphisms for c in classes) == (
                factorial(n - 1) * hall_count(k, n)
            )
            assert all(len(c.tables) * c.automorphisms == n for c in classes)
            assert sorted(t for c in classes for t in c.tables) == sorted(
                transitive_tables(k, n)
            )


def test_a_class_is_every_relabelling_of_its_code():
    for n in DEGREES:
        for c in transitive_census(2, n):
            relabelled = {standard_table(t, root) for t in c.tables for root in range(n)}
            assert relabelled == set(c.tables)
            assert c.code == min(c.tables)
