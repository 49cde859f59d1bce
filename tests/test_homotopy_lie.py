"""Dual bases, the pairing, and bracket extraction from the quadratic part."""

from fractions import Fraction

import pytest

from loopalg.catalog import catalog_entry
from loopalg.families import LieFamily
from loopalg.gca import GradedAlgebra
from loopalg.homotopy_lie import (
    HomotopyLieAlgebra,
    LieBasisElement,
    brackets_from_d1,
    dual_basis,
    graded_lie_axioms_check,
    pairing,
)
from loopalg.minimal_model import build_minimal_model
from loopalg.pipeline import rational_pipeline


def model_for(family, rank):
    entry = catalog_entry(family, rank)
    return build_minimal_model(
        entry.cohomology, odd_names=list(entry.odd_names), check_regular=False
    ), entry


def test_dual_basis_su3():
    model, entry = model_for(LieFamily.SU, 2)
    basis = dual_basis(model, entry.dual_names)
    assert [(b.name, b.degree) for b in basis] == [
        ("a1", 1),
        ("a2", 1),
        ("b1", 2),
        ("b2", 4),
    ]


def test_dual_basis_sp2():
    model, entry = model_for(LieFamily.SP, 2)
    basis = dual_basis(model, entry.dual_names)
    degrees = {b.name: b.degree for b in basis}
    assert degrees["b1"] == 2 and degrees["b2"] == 6


def test_dual_basis_e6():
    model, entry = model_for(LieFamily.E6, 6)
    basis = dual_basis(model, entry.dual_names)
    degrees = {b.name: b.degree for b in basis}
    assert degrees["a"] == 1
    assert [degrees[f"a{i}"] for i in range(1, 6)] == [1] * 5
    assert [degrees[f"b{j}"] for j in (1, 4, 5, 7, 8, 11)] == [2, 8, 10, 14, 16, 22]


def test_pairing_pins():
    alg = GradedAlgebra([("u1", 2), ("u2", 2)])
    sa1 = LieBasisElement("a1", 1, dual_to="u1")
    sa2 = LieBasisElement("a2", 1, dual_to="u2")
    u1, u2 = alg.gen("u1"), alg.gen("u2")
    assert pairing(u1 * u1, [sa1, sa1]) == 2
    assert pairing(u1 * u2, [sa1, sa2]) == 1
    assert pairing(u1, [sa2]) == 0
    assert pairing(u1, [sa1]) == 1


def test_pairing_length_mismatch():
    alg = GradedAlgebra([("u1", 2)])
    sa1 = LieBasisElement("a1", 1, dual_to="u1")
    with pytest.raises(ValueError):
        pairing(alg.gen("u1") ** 2, [sa1])


def bracket_table(family, rank):
    result = rational_pipeline(catalog_entry(family, rank))
    return {k: dict(v) for k, v in result.lie_algebra.brackets.items()}


def test_su_brackets():
    table = bracket_table(LieFamily.SU, 3)
    for k in (1, 2, 3):
        assert table[(f"a{k}", f"a{k}")] == {"b1": 4}
    assert table[("a1", "a2")] == {"b1": 2}
    assert table[("a3", "a1")] == {"b1": 2}
    assert ("a1", "b1") not in table and ("b1", "b2") not in table


def test_sp_so_brackets():
    for family in (LieFamily.SP, LieFamily.SO_ODD):
        table = bracket_table(family, 2)
        assert table == {
            ("a1", "a1"): {"b1": 2},
            ("a2", "a2"): {"b1": 2},
        }


def test_exceptional_brackets():
    g2 = bracket_table(LieFamily.G2, 2)
    assert g2[("a1", "a1")] == {"b1": 4} and g2[("a1", "a2")] == {"b1": 2}
    f4 = bracket_table(LieFamily.F4, 4)
    assert f4 == {(f"a{i}", f"a{i}"): {"b1": 6} for i in range(1, 5)}
    e6 = bracket_table(LieFamily.E6, 6)
    assert e6[("a", "a")] == {"b1": 24}
    assert e6[("a2", "a2")] == {"b1": 24}
    assert e6[("a1", "a5")] == {"b1": 12}
    assert ("a", "a1") not in e6


def test_axioms_hold_for_catalog_algebras():
    for family, rank in [
        (LieFamily.SU, 2),
        (LieFamily.SO_EVEN, 3),
        (LieFamily.F4, 4),
        (LieFamily.E6, 6),
    ]:
        assert graded_lie_axioms_check(rational_pipeline(catalog_entry(family, rank)).lie_algebra)


def test_abelian_algebra_passes_axioms():
    basis = [LieBasisElement("x", 1, "gx"), LieBasisElement("y", 2, "gy")]
    assert graded_lie_axioms_check(HomotopyLieAlgebra(basis, {}))


def test_even_symmetric_bracket_fails_axioms():
    basis = [
        LieBasisElement("x", 2, "gx"),
        LieBasisElement("y", 2, "gy"),
        LieBasisElement("z", 4, "gz"),
    ]
    bad = HomotopyLieAlgebra(
        basis,
        {("x", "y"): {"z": Fraction(1)}, ("y", "x"): {"z": Fraction(1)}},
    )
    assert not graded_lie_axioms_check(bad)


def test_degree_mismatch_fails_axioms():
    basis = [LieBasisElement("x", 1, "gx"), LieBasisElement("z", 5, "gz")]
    bad = HomotopyLieAlgebra(basis, {("x", "x"): {"z": Fraction(1)}})
    assert not graded_lie_axioms_check(bad)


def test_brackets_ignore_higher_order_differential_terms():
    """Adding a cubic term to the differential leaves all brackets alone."""
    entry = catalog_entry(LieFamily.SU, 2)
    model = build_minimal_model(entry.cohomology, odd_names=["v1", "v2"])
    alg = model.algebra
    u1, u2 = alg.gen("u1"), alg.gen("u2")
    perturbed_images = model.differential.images()
    perturbed_images["v2"] = perturbed_images["v2"] + u1 * u1 * u2
    from loopalg.gca import Derivation
    from loopalg.minimal_model import MinimalModel

    perturbed = MinimalModel(
        algebra=alg,
        even_names=model.even_names,
        odd_names=model.odd_names,
        differential=Derivation(alg, perturbed_images),
        presentation=model.presentation,
    )
    base = brackets_from_d1(model, entry.dual_names)
    twisted = brackets_from_d1(perturbed, entry.dual_names)
    assert base.brackets == twisted.brackets


def test_default_dual_names():
    from loopalg.minimal_model import CohomologyPresentation

    u_alg = GradedAlgebra([("u1", 2)])
    coh = CohomologyPresentation(u_alg, [u_alg.gen("u1") ** 2])
    model = build_minimal_model(coh)
    basis = dual_basis(model)
    assert [(b.name, b.degree, b.dual_to) for b in basis] == [
        ("a1", 1, "u1"),
        ("b1", 2, "v1"),
    ]
