"""Catalog data: exponents, series, expected presentations, bounds."""

import json
from collections import Counter
from pathlib import Path

import pytest

from loopalg import catalog
from loopalg.catalog import (
    DEFAULT_CHECKED_RANKS,
    catalog_entry,
    default_max_degree,
    expected_integral_presentation,
    expected_rational_presentation,
    exponents,
    integral_presentation_degrees,
    splitting_series,
    weyl_order,
)
from loopalg.enveloping import graded_dimensions, pbw_series, relation_string, series_equal
from loopalg.families import FIXED_RANK, LieFamily
from loopalg.pipeline import rational_pipeline


def loop_degrees(family, rank):
    return sorted(2 * k - 2 for k in exponents(family, rank))


def test_loop_generator_degrees():
    assert loop_degrees(LieFamily.SU, 2) == [2, 4]
    assert loop_degrees(LieFamily.SP, 3) == [2, 6, 10]
    assert loop_degrees(LieFamily.SO_EVEN, 3) == [2, 4, 6]
    assert loop_degrees(LieFamily.G2, 2) == [2, 10]
    assert loop_degrees(LieFamily.E6, 6) == [2, 8, 10, 14, 16, 22]


def test_so_even_duplicate_exponent():
    # two degree-6 loop classes for rank 4
    assert sorted(exponents(LieFamily.SO_EVEN, 4)) == [2, 4, 4, 6]


def test_splitting_series_values():
    assert list(splitting_series(LieFamily.SU, 2, 5)) == [1, 2, 2, 2, 3, 4]
    assert list(splitting_series(LieFamily.G2, 2, 4)) == [1, 2, 2, 2, 2]
    assert list(splitting_series(LieFamily.F4, 4, 0)) == [1]


def test_weyl_orders():
    assert weyl_order(LieFamily.SU, 3) == 24
    assert weyl_order(LieFamily.SP, 2) == 8
    assert weyl_order(LieFamily.SO_ODD, 3) == 48
    assert weyl_order(LieFamily.SO_EVEN, 3) == 24
    assert weyl_order(LieFamily.G2, 2) == 12
    assert weyl_order(LieFamily.F4, 4) == 1152
    assert weyl_order(LieFamily.E6, 6) == 51840


def test_rank_bounds():
    with pytest.raises(ValueError):
        catalog_entry(LieFamily.SO_EVEN, 2)
    with pytest.raises(ValueError):
        catalog_entry(LieFamily.SU, 0)
    with pytest.raises(ValueError):
        catalog_entry(LieFamily.G2, 3)


def test_g2_default_truncation_reaches_top_generator():
    assert default_max_degree(LieFamily.G2) == 12
    assert default_max_degree(LieFamily.SU) == 10


def test_expected_rational_shapes():
    g2 = expected_rational_presentation(LieFamily.G2, 2)
    rendered = {relation_string(r) for r in g2.relations}
    assert "1*a1.a1 - 1*a2.a2" in rendered
    assert "1*a1.a1 - 1*a1.a2 - 1*a2.a1" in rendered
    e6 = expected_rational_presentation(LieFamily.E6, 6)
    rendered = {relation_string(r) for r in e6.relations}
    assert "1*a.a1 + 1*a1.a" in rendered  # the sixth class anticommutes
    sp = expected_rational_presentation(LieFamily.SP, 3)
    assert ("b2", 6) in sp.generators and ("b3", 10) in sp.generators


def test_expected_integral_shapes():
    su = expected_integral_presentation(LieFamily.SU, 3)
    rendered = {relation_string(r) for r in su.relations}
    assert "1*x1.x1 - 2*y1" in rendered
    assert "1*x1.x2 + 1*x2.x1 - 2*y1" in rendered
    g2 = expected_integral_presentation(LieFamily.G2, 2)
    rendered = {relation_string(r) for r in g2.relations}
    assert "1*x1.x1.x1.x1 - 2*y2" in rendered
    f4 = expected_integral_presentation(LieFamily.F4, 4)
    rendered = {relation_string(r) for r in f4.relations}
    assert "1*x1.x1 - 3*y1" in rendered
    assert "1*x1.x2 + 1*x2.x1" in rendered
    e6 = expected_integral_presentation(LieFamily.E6, 6)
    rendered = {relation_string(r) for r in e6.relations}
    assert "1*x1.x1 - 12*y1" in rendered


def test_integral_presentation_degrees_match_the_built_presentation():
    """The integral degrees the budget reads before any build are the presentation's own.

    Every checked configuration and every classical rank up to 12: the
    generator degrees in order, and the relations counted per degree up to
    each cut, the last past every relation.
    """
    configs = [(f, r) for f, ranks in DEFAULT_CHECKED_RANKS.items() for r in ranks]
    for family in LieFamily:
        if family not in FIXED_RANK:
            configs += [(family, r) for r in range(3 if family is LieFamily.SO_EVEN else 1, 13)]
    for family, rank in configs:
        p = expected_integral_presentation(family, rank)
        for cut in (0, 1, 2, 3, 4, 7, 10, 16, 100):
            rels = Counter(d for d in p.relation_degrees if d <= cut)
            built = [d for _, d in p.generators], rels
            assert integral_presentation_degrees(family, rank, cut) == built, (family, rank, cut)


def test_so_odd_uniform_relations():
    p = expected_integral_presentation(LieFamily.SO_ODD, 3)
    rendered = {relation_string(r) for r in p.relations}
    assert "1*y1.y1 - 2*y2" in rendered
    # y2^2 - y1 y3 + y4 = 0, canonicalized with positive leading word
    assert "1*y1.y3 - 1*y2.y2 - 1*y4" in rendered


def test_so_even_doubled_generators():
    p = expected_integral_presentation(LieFamily.SO_EVEN, 3)
    degrees = dict(p.generators)
    assert degrees["wp"] == 4 and degrees["wm"] == 4
    assert degrees["Y3"] == 6 and degrees["Y4"] == 8
    rendered = {relation_string(r) for r in p.relations}
    # y1^2 = wp + wm and wp wm - y1 Y3 + Y4 = 0, canonicalized
    assert "1*wm + 1*wp - 1*y1.y1" in rendered
    assert "1*Y4 + 1*wp.wm - 1*y1.Y3" in rendered


def test_pbw_equals_splitting_for_all_default_entries():
    for family, ranks in DEFAULT_CHECKED_RANKS.items():
        for rank in ranks:
            n = default_max_degree(family)
            result = rational_pipeline(catalog_entry(family, rank))
            assert series_equal(
                pbw_series(result.lie_algebra, n),
                splitting_series(family, rank, n),
                n,
            ), (family, rank)


def test_every_presentation_has_rank_generators_and_no_relation_in_degree_one():
    """Degree 1 of every presentation is free on the rank's degree-1 classes."""
    for family, ranks in DEFAULT_CHECKED_RANKS.items():
        for rank in ranks:
            entry = catalog_entry(family, rank)
            presentations = [
                rational_pipeline(entry).presentation,
                entry.expected_rational,
                expected_integral_presentation(family, rank),
            ]
            for p in presentations:
                assert [d for _, d in p.generators].count(1) == rank, (family, rank, p.domain)
                assert all(r.degree() > 1 for r in p.relations), (family, rank, p.domain)


def test_expected_rational_matches_pipeline_dimensions():
    for family, rank in [(LieFamily.SU, 2), (LieFamily.SO_EVEN, 3), (LieFamily.G2, 2)]:
        n = default_max_degree(family)
        entry = catalog_entry(family, rank)
        result = rational_pipeline(catalog_entry(family, rank))
        assert series_equal(
            graded_dimensions(result.presentation, n),
            graded_dimensions(entry.expected_rational, n),
            n,
        )


def test_a_catalog_entry_builds_no_invariant_form(monkeypatch):
    """Forms are built when a request reads them, never by the entry itself."""
    original = catalog.invariant_polynomials
    calls = []

    def spy(*args):
        calls.append(args[:3])
        return original(*args)

    monkeypatch.setattr(catalog, "invariant_polynomials", spy)
    configs = [(f, r) for f, ranks in DEFAULT_CHECKED_RANKS.items() for r in ranks]
    entries = [catalog_entry(f, r) for f, r in configs + [(LieFamily.SU, 12)]]
    assert calls == []
    # the degree-4 form is the first read, and kept
    su12 = entries[-1].cohomology
    assert su12.relation(0) is su12.relation(0)
    assert calls == [(LieFamily.SU, 12, 1)]


BD_RELATIONS = Path(__file__).resolve().parent / "golden" / "integral-relations-bd.json"


def test_type_bd_integral_relations_match_the_fixture():
    """The y relations of types B and D, one builder for both, keep their strings.

    The fixture holds ``relation_strings()`` of so-odd 1-10 and so-even 3-10,
    written with ``json.dumps(..., indent=1)`` by the two builders it replaced.
    """
    got = {
        f"{family.slug}/{rank}": list(expected_integral_presentation(family, rank).relation_strings())
        for family, ranks in ((LieFamily.SO_ODD, range(1, 11)), (LieFamily.SO_EVEN, range(3, 11)))
        for rank in ranks
    }
    assert got == json.loads(BD_RELATIONS.read_text())
