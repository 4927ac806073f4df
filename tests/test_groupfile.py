"""Group file parsing/emission, the named-constructor grammar, the catalog
and the lattice cache."""

from __future__ import annotations

import hashlib

import pytest

from groupforms import catalog
from groupforms import lattice as lat
from groupforms.groupfile import (
    CacheMismatchError,
    GroupFileError,
    cache_load,
    cache_save,
    emit_group_text,
    group_checksum,
    parse_group_text,
    write_group_file,
    parse_group_file,
)
from groupforms.permgroup import GroupError


def test_build_named_keeps_name_arguments_whole():
    g = catalog.build_named("direct(S4,elem_abelian:2,2)")
    assert g.order == 96
    assert catalog.build_named("direct(elem_abelian:2, 2,C3)").order == 12


# (order, name) of every group the constructor grammar names, recorded
# before the grammar was read off one name -> constructor table
BUILD_NAMED = {
    "C1": (1, "C1"), "C12": (12, "C12"), "S1": (1, "S1"), "S3": (6, "S3"),
    "S4": (24, "S4"), "A3": (3, "A3"), "A4": (12, "A4"), "A5": (60, "A5"),
    "D3": (6, "D3"), "D6": (12, "D6"), "Q8": (8, "Q8"), "Q12": (12, "Dic3"),
    "cyclic:7": (7, "C7"), "dihedral:5": (10, "D5"), "dicyclic:3": (12, "Dic3"),
    "symmetric:4": (24, "S4"), "alternating:5": (60, "A5"),
    "elem_abelian:2,3": (8, "E2^3"), "sl23": (24, "SL(2,3)"),
    "example864": (864, "example864"), "direct(S3,C2)": (12, None),
    "semidirect(C7,C2,inversion)": (14, None),
}


@pytest.mark.parametrize("spec", sorted(BUILD_NAMED))
def test_build_named_table(spec):
    g = catalog.build_named(spec)
    assert (g.order, g.name) == BUILD_NAMED[spec]


@pytest.mark.parametrize(
    "spec", ["Q6", "Q4", "C0", "X9", "cyclic:1,2", "elem_abelian:4,2", "semidirect(C3,C2,twist)"]
)
def test_build_named_rejects(spec):
    with pytest.raises(GroupError):
        catalog.build_named(spec)


@pytest.mark.parametrize("spec", ["cyclic:x", "elem_abelian:2,y", "dihedral:--4"])
def test_build_named_rejects_non_numeric_arguments(spec):
    with pytest.raises(GroupError, match="unrecognized group spec"):
        catalog.build_named(spec)
    with pytest.raises(GroupError, match="dihedral needs n >= 3"):
        catalog.build_named("dihedral:-4")


def test_catalog_table_rows_state_their_orders():
    for order, build in catalog._CATALOG_TABLE:
        assert build().order == order


# sha256 over the group text of the catalog at its default bound, recorded
# while its entries were still appended by a ladder of order checks
CATALOG120_SHA256 = "4b2fa54e942c99f240fb3923972627c7c379e028518e04813c6bd6e9e3eff24a"


def test_catalog120_text_unchanged(catalog120):
    text = "".join(emit_group_text(g) for g in catalog120)
    assert len(catalog120) == 344
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG120_SHA256


def test_parse_simple():
    text = "pgrp v1\ndegree 3\n(1 2 3)\n(1 2)\n"
    g = parse_group_text(text)
    assert g.order == 6


def test_parse_with_metadata_and_comments():
    text = (
        "# a comment\n"
        "pgrp v1\n"
        "degree 4   # inline comment\n"
        "order 12\n"
        "name alt4\n"
        "(1 2 3)\n"
        "(1 2)(3 4)\n"
    )
    g = parse_group_text(text)
    assert g.order == 12 and g.name == "alt4"


def test_parse_empty_generators_is_trivial():
    g = parse_group_text("pgrp v1\ndegree 1\n")
    assert g.order == 1


def test_order_mismatch_gate():
    with pytest.raises(GroupFileError):
        parse_group_text("pgrp v1\ndegree 3\norder 24\n(1 2 3)\n(1 2)\n")


def test_syntax_error_reports_line():
    with pytest.raises(GroupFileError) as err:
        parse_group_text("pgrp v1\ndegree 3\n(1 2 5)\n")
    assert err.value.line == 3


def test_point_outside_a_cycle_reports_line():
    # "(1 2)3(4 5)" used to parse as (1 2)(34 5) at degree 40
    with pytest.raises(GroupFileError) as err:
        parse_group_text("pgrp v1\ndegree 40\n(1 2 3)\n(1 2)3(4 5)\n")
    assert err.value.line == 4


def test_one_point_cycle_out_of_range_reports_line():
    # "(1 2)(9)" at degree 4 used to parse as (1 2)
    with pytest.raises(GroupFileError) as err:
        parse_group_text("pgrp v1\ndegree 4\n(1 2 3)\n(1 2)(9)\n")
    assert err.value.line == 4


def test_degree_violation():
    with pytest.raises(GroupFileError):
        parse_group_text("pgrp v1\ndegree 0\n")
    with pytest.raises(GroupFileError):
        parse_group_text("pgrp v2\ndegree 3\n")
    # "²" is a digit to str.isdigit() but not to int()
    with pytest.raises(GroupFileError, match="expected 'degree N'") as err:
        parse_group_text("pgrp v1\ndegree \u00b2\n(1 2)\n")
    assert err.value.line == 2


def test_budget_guard():
    from groupforms.permgroup import Budgets, GroupBudgetError

    text = "pgrp v1\ndegree 7\n(1 2 3 4 5 6 7)\n(1 2)\n"
    with Budgets(max_order=100).in_force(), pytest.raises(GroupBudgetError):
        parse_group_text(text)


@pytest.mark.parametrize("spec", ["direct(S4,C5)", "semidirect(C30,C2,inversion)", "S5"])
def test_build_named_honours_max_order(spec):
    from groupforms.permgroup import Budgets, GroupBudgetError

    with Budgets(max_order=50).in_force(), pytest.raises(GroupBudgetError, match="max-order"):
        catalog.build_named(spec)


def test_emit_parse_roundtrip_idempotent():
    text = "pgrp v1\ndegree 4\n(1 2 3 4)\n(1 2)\n"
    once = emit_group_text(parse_group_text(text))
    twice = emit_group_text(parse_group_text(once))
    assert once == twice
    assert once.startswith("pgrp v1\ndegree 4\norder 24\n")


def test_write_read_file(tmp_path):
    g = catalog.dihedral(5)
    path = tmp_path / "d5.pgrp"
    write_group_file(g, path)
    back = parse_group_file(path)
    assert back.order == 10 and back.name == "D5"
    assert catalog.fingerprint(back) == catalog.fingerprint(g)


def test_cache_roundtrip(tmp_path):
    g = catalog.symmetric(3)
    lattice = lat.all_subgroups(g)
    path = tmp_path / "s3.lattice.json"
    cache_save(lattice, path)
    g2 = catalog.symmetric(3)
    loaded = cache_load(path, g2)
    assert {r.members for r in loaded.nodes} == {r.members for r in lattice.nodes}
    assert set(loaded.edges) == set(lattice.edges)
    assert loaded.conjugacy_classes == lattice.conjugacy_classes


def test_cache_checksum_rejects_other_group(tmp_path):
    g = catalog.symmetric(3)
    path = tmp_path / "s3.lattice.json"
    cache_save(lat.all_subgroups(g), path)
    other = catalog.cyclic(6)
    with pytest.raises(CacheMismatchError):
        cache_load(path, other)


def test_cache_version_gate(tmp_path):
    import json

    g = catalog.symmetric(3)
    path = tmp_path / "s3.lattice.json"
    cache_save(lat.all_subgroups(g), path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(CacheMismatchError):
        cache_load(path, g)


def test_checksum_is_representation_sensitive():
    assert group_checksum(catalog.symmetric(3)) != group_checksum(catalog.cyclic(6))


def test_cache_checksum_tells_high_degree_groups_apart(tmp_path):
    # every point of V4 and C4 below is 0 mod 256: hashing points mod 256
    # gave both the same checksum, and C4 got V4's 5-node lattice
    from helpers import generate

    from groupforms.permgroup import perm_from_cycle_text

    def group(*cycles):
        return generate([perm_from_cycle_text(c, 1024) for c in cycles], 1024)

    v4 = group("(1 257)", "(513 769)")
    c4 = group("(1 257 513 769)")
    assert group_checksum(v4) != group_checksum(c4)
    path = tmp_path / "v4.lattice.json"
    cache_save(lat.all_subgroups(v4), path)
    with pytest.raises(CacheMismatchError):
        cache_load(path, c4)
    assert len(lat.all_subgroups(c4).nodes) == 3


@pytest.mark.parametrize(
    "field, value",
    [
        ("nodes", [[0], [0, 6]]),
        ("edges", [[0, 2]]),
        ("edges", [[-1, 0]]),
        ("conjugacy_classes", [[0], [1, 2]]),
    ],
)
def test_cache_rejects_out_of_range_payload(tmp_path, field, value):
    import json

    g = catalog.symmetric(3)
    path = tmp_path / "s3.lattice.json"
    cache_save(lat.all_subgroups(g), path)
    payload = json.loads(path.read_text())
    payload["nodes"] = payload["nodes"][:2]
    payload["edges"] = [[0, 1]]
    payload["conjugacy_classes"] = [[0], [1]]
    payload[field] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(CacheMismatchError):
        cache_load(path, catalog.symmetric(3))
