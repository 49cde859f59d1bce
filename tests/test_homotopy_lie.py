"""Dual bases, the pairing, and bracket extraction from the quadratic part."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loopalg import normal_words
from loopalg.catalog import DEFAULT_CHECKED_RANKS, catalog_entry
from loopalg.enveloping import FreeGradedAlgebra, RingPresentation, uea_presentation
from loopalg.families import LieFamily
from loopalg.gca import GradedAlgebra
from loopalg.homotopy_lie import (
    HomotopyLieAlgebra,
    LieBasisElement,
    brackets_from_d1,
    dual_basis,
    graded_lie_axioms_check,
)
from loopalg.minimal_model import MinimalModel, build_minimal_model
from loopalg.pipeline import rational_pipeline
from oracles import differential, lie_axioms_full_loop, pairing, pairing_brackets, quadratic_part


def model_for(family, rank):
    entry = catalog_entry(family, rank)
    return build_minimal_model(entry.cohomology, entry.odd_names), entry


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
    from loopalg.minimal_model import CohomologyPresentation

    entry = catalog_entry(LieFamily.SU, 2)
    model = build_minimal_model(entry.cohomology, ["v1", "v2"])
    alg = entry.cohomology.algebra
    u1, u2 = alg.gen("u1"), alg.gen("u2")
    p1, p2 = entry.cohomology.relations
    twisted = CohomologyPresentation(alg, [p1, p2 + u1 * u1 * u2])
    perturbed = build_minimal_model(twisted, ["v1", "v2"])
    # d(v2) differs by the cubic term, d1 does not
    assert differential(perturbed)["v2"] != differential(model)["v2"]
    assert perturbed.d1 == model.d1
    base = brackets_from_d1(model, entry.dual_names)
    twisted = brackets_from_d1(perturbed, entry.dual_names)
    assert base.brackets == twisted.brackets


def _ordered(L):
    """The bracket table with its insertion order: pairs, then values."""
    return [(pair, list(combo.items())) for pair, combo in L.brackets.items()]


def test_sparse_brackets_equal_the_pairing_on_every_catalog_model():
    configs = [(f, r) for f, ranks in DEFAULT_CHECKED_RANKS.items() for r in ranks]
    for family, rank in configs + [(LieFamily.SU, 6), (LieFamily.SU, 7)]:
        model, entry = model_for(family, rank)
        got = brackets_from_d1(model, entry.dual_names)
        want = pairing_brackets(model, differential(model), entry.dual_names)
        assert _ordered(got) == _ordered(want)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_brackets_equal_the_pairing_on_random_quadratic_differentials(data):
    """Even and odd letters, squares, u.v and v.v terms.

    The model carries the quadratic part of a differential with cubic terms;
    the oracle reads the whole differential and drops them itself.
    """
    degrees = data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=5))
    alg = GradedAlgebra([(f"g{i}", d) for i, d in enumerate(degrees)])
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    images = {}
    for name, degree in alg.generators:
        image = alg.zero()
        for mono in alg.monomials_of_degree(degree + 1):
            if sum(mono) in (2, 3) and data.draw(st.booleans()):
                image = image + alg.element({mono: data.draw(coeffs)})
        images[name] = image
    model = MinimalModel(
        algebra=alg,
        odd_names=tuple(n for n, d in alg.generators if d % 2),
        d1={n: e for n, e in quadratic_part(images).items() if e},
        presentation=None,
    )
    names = {n: f"{n}*" for n in alg.names}
    got = brackets_from_d1(model, names)
    assert _ordered(got) == _ordered(pairing_brackets(model, images, names))


def _random_lie_table(data):
    """A graded antisymmetric, degree-respecting table, sometimes with a planted fault.

    Basis element ``i`` has degree ``degrees[i]``; ``[i, j]`` for ``i <= j``
    is a random combination of the elements of degree ``degrees[i] +
    degrees[j]`` and ``[j, i]`` follows by antisymmetry, so the table may or
    may not satisfy Jacobi.  The fault breaks antisymmetry or the degree.
    """
    degrees = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    basis = [LieBasisElement(f"e{i}", d, f"g{i}") for i, d in enumerate(degrees)]
    coeffs = st.integers(-2, 2)
    table = {}
    for i, x in enumerate(basis):
        for y in basis[i:]:
            if y is x and x.degree % 2 == 0:
                continue  # [x, x] = -[x, x] for even x
            targets = [z.name for z in basis if z.degree == x.degree + y.degree]
            combo = {z: Fraction(data.draw(coeffs)) for z in targets}
            sign = 1 if x.degree * y.degree % 2 else -1
            table[(x.name, y.name)] = combo
            if y is not x:
                table[(y.name, x.name)] = {z: sign * c for z, c in combo.items()}
    fault = data.draw(st.sampled_from(["none", "antisymmetry", "degree"]))
    if fault != "none":
        x, y = data.draw(st.sampled_from(basis)), data.draw(st.sampled_from(basis))
        z = data.draw(st.sampled_from(basis))
        if fault == "degree" and z.degree != x.degree + y.degree:
            table[(x.name, y.name)] = {**table.get((x.name, y.name), {}), z.name: Fraction(1)}
        if fault == "antisymmetry" and x is not y:
            table[(x.name, y.name)] = {z.name: Fraction(1) + table.get((x.name, y.name), {}).get(z.name, 0)}
    return HomotopyLieAlgebra(basis, table)


def _refused(L: HomotopyLieAlgebra) -> bool:
    """Whether :func:`uea_presentation` refuses ``L`` as no graded Lie algebra."""
    try:
        uea_presentation(L)
    except ValueError as error:
        assert str(error) == "graded Lie axiom check failed"
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_axiom_check_agrees_with_the_full_loop(data):
    L = _random_lie_table(data)
    assert _refused(L) == (not lie_axioms_full_loop(L))


def test_the_axiom_check_agrees_with_the_full_loop_on_planted_jacobi_faults():
    """A 2-step nilpotent algebra holds; one bracket into the centre's partner breaks Jacobi."""
    basis = [
        LieBasisElement("x", 1, "gx"),
        LieBasisElement("y", 1, "gy"),
        LieBasisElement("z", 2, "gz"),
        LieBasisElement("w", 3, "gw"),
    ]
    table = {("x", "x"): {"z": 2}, ("x", "y"): {"z": 1}, ("y", "x"): {"z": 1}}
    nilpotent = HomotopyLieAlgebra(basis, table)
    assert not _refused(nilpotent) and lie_axioms_full_loop(nilpotent)
    # [x, z] = w, [z, x] = -w: antisymmetric and degree-correct, but
    # [y, [x, x]] = 2 [y, z] = 0 while Jacobi asks for 2 [[y, x], x] = 2 [z, x]
    broken = HomotopyLieAlgebra(basis, {**table, ("x", "z"): {"w": 1}, ("z", "x"): {"w": -1}})
    assert graded_lie_axioms_check(broken)  # the certificate refuses it, not the table check
    assert _refused(broken)
    assert not lie_axioms_full_loop(broken)


def test_a_jacobi_fault_is_refused_though_a_bracket_could_define_a_generator():
    """[x, x] = z and [x, z] = w break Jacobi: [x, [x, x]] = [x, z] = w, not 0.

    The relation ``2 x.x - z`` must not define ``z`` over Q, which would
    rewrite ``z`` away and leave a certificate that holds.
    """
    basis = [LieBasisElement(name, d, "g" + name) for name, d in (("x", 1), ("z", 2), ("w", 3))]
    table = {("x", "x"): {"z": 1}, ("x", "z"): {"w": 1}, ("z", "x"): {"w": -1}}
    L = HomotopyLieAlgebra(basis, table)
    assert graded_lie_axioms_check(L) and not lie_axioms_full_loop(L)
    assert _refused(L)
    alg = FreeGradedAlgebra([("x", 1), ("z", 2)])
    p = RingPresentation(alg, [alg.element({(0, 0): 2, (1,): -1})], domain="rational")
    assert normal_words.certificate(p).defined == ()
