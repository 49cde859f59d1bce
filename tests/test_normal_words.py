"""The certified normal-word route against the oracles and the engine.

Where the diamond-lemma certificate holds, the normal-word counts must be
the graded dimensions over Q and the free ranks over Z with no torsion, and
``normal_words.report`` must answer and print exactly as the engine does,
and a request refuse alike on both routes.  Where it fails, the answer is
the engine's.
"""

import hashlib
import importlib
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from loopalg import cli, normal_words
from loopalg.catalog import (
    DEFAULT_CHECKED_RANKS,
    catalog_entry,
    default_max_degree,
    expected_integral_presentation,
)
from loopalg.enveloping import FreeGradedAlgebra, RingPresentation
from loopalg.families import LieFamily
from loopalg.pipeline import rational_pipeline

from oracles import (
    brute_graded_dimension,
    brute_smith,
    element_of_names,
    force_the_engine,
    naive_interreduce,
    naive_normal_form,
    naive_resolve,
    split_report,
    with_torsion,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the configurations of the benchmark's ring-deep workload: (family, rank, max degree)
RING_DEEP = ((LieFamily.SU, 7, 10), (LieFamily.SU, 6, 12), (LieFamily.E6, 6, 16))

# integral presentations that fall back: f4's degree-4 relations leave
# 2 y2 = 9 y1.y1, where no word has a unit coefficient whatever the weights
UNCERTIFIED_INTEGRAL = {LieFamily.F4}


def _random_presentation(rng, domain):
    """Two or three generators of degrees 1, 1, 2 and one to three relations.

    Coefficients are mostly ±1, so many integral presentations keep unit
    leading coefficients; the rest lead with ±2 or ±3.
    """
    gens = [("x", 1), ("y", 1), ("z", 2)][: rng.randint(2, 3)]
    alg = FreeGradedAlgebra(gens)
    relations = []
    for _ in range(rng.randint(1, 3)):
        degree = rng.randint(2, 3)
        words = []

        def extend(prefix, remaining):
            if remaining == 0:
                words.append(prefix)
                return
            for name, d in gens:
                if d <= remaining:
                    extend(prefix + (name,), remaining - d)

        extend((), degree)
        terms = {
            w: Fraction(rng.choice([-1, 1, -1, 1, 2, -3]))
            for w in rng.sample(words, k=min(len(words), rng.randint(1, 3)))
        }
        relations.append(element_of_names(alg, terms))
    return RingPresentation(alg, relations, domain=domain)


@pytest.mark.parametrize("domain, seed", [("rational", 7201), ("integer", 7202)])
def test_certified_counts_match_the_oracles_on_random_presentations(domain, seed):
    rng = random.Random(seed)
    certified = 0
    for _ in range(60):
        p = _random_presentation(rng, domain)
        holds = normal_words.certificate(p).failure is None
        certified += holds
        got = normal_words.report(p, 5)
        for d in range(6):
            if domain == "rational":
                want = (brute_graded_dimension(p, d), [])
            else:
                want = brute_smith(p, d)
            assert (got.entries[d].rank, list(got.entries[d].torsion)) == want
        if holds:
            assert got.torsion_free()
    assert certified >= 15


def _catalog_presentations():
    """Every presentation ``compute`` answers at a checked rank or on ring-deep."""
    checked = [(f, r, default_max_degree(f)) for f, rs in DEFAULT_CHECKED_RANKS.items() for r in rs]
    for family, rank, n in checked + list(RING_DEEP):
        yield family, rational_pipeline(catalog_entry(family, rank)).presentation, n
        yield family, expected_integral_presentation(family, rank), n


def test_certified_counts_equal_the_split_route_on_every_catalog_configuration():
    """Only integral f4 falls back; g2 and e6 certify by defining their saturated classes."""
    defined = {}
    for family, p, n in _catalog_presentations():
        label = (family.slug, len(p.generators), p.domain)
        cert = normal_words.certificate(p)
        if p.domain == "integer" and family in UNCERTIFIED_INTEGRAL:
            assert cert.failure == "leading coefficient -9 on y1.y1", label
        else:
            assert cert.failure is None and cert.overlaps > 0, label
        if p.domain == "integer":
            defined[family] = cert.defined
        assert normal_words.report(p, n) == split_report(p, n), label
    assert defined[LieFamily.G2] == ("y2",)
    assert defined[LieFamily.E6] == ("y2", "y3")


def test_the_certificate_is_memoized_on_the_presentation():
    p = expected_integral_presentation(LieFamily.SU, 3)
    assert normal_words.certificate(p) is normal_words.certificate(p)
    assert normal_words.certificate(p) == normal_words._certify(p)


def test_doubled_relation_does_not_certify_and_still_shows_its_torsion():
    p = with_torsion(expected_integral_presentation(LieFamily.SU, 2))
    assert normal_words.certificate(p).failure == "leading coefficient 2 on x1.x1"
    got = normal_words.report(p, 10)
    assert not got.torsion_free()
    assert got == p.engine().report(10)


@pytest.mark.parametrize("domain", ["rational", "integer"])
def test_a_non_confluent_presentation_falls_back(domain):
    """``y x y = x y y`` overlaps itself in ``y x y x y``, and the two rewrites differ.

    Its normal words overcount degree 5, so only the fallback gives the
    right sizes.
    """
    alg = FreeGradedAlgebra([("x", 1), ("y", 1)])
    x, y = alg.gen("x"), alg.gen("y")
    p = RingPresentation(alg, [y * x * y - x * y * y], domain=domain)
    cert = normal_words.certificate(p)
    assert cert.failure == "overlap y.x.y.x.y does not resolve"
    assert normal_words.Certificate(cert.leading, 0, degrees=(1, 1)).counts(5)[5] == 21
    got = normal_words.report(p, 5)
    assert got == p.engine().report(5)
    assert got.entries[5].rank == brute_graded_dimension(p, 5) == 20


def test_normal_word_counts_of_free_and_polynomial_algebras():
    def counts(leading, max_degree):
        return normal_words.Certificate(leading, 0, degrees=(1, 2)).counts(max_degree)

    # the free algebra on x (1) and z (2): Fibonacci numbers
    assert counts((), 7) == [1, 1, 2, 3, 5, 8, 13, 21]
    # z x -> x z leaves the words x^i z^j
    assert counts(((1, 0),), 6) == [1, 1, 2, 2, 3, 3, 4]


@pytest.mark.parametrize("coeffs", ["rational", "integer"])
def test_traced_certified_compute_eliminates_nothing(monkeypatch, tmp_path, coeffs):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    argv = ["compute", "--family", "su", "--rank", "3", "--coeffs", coeffs]
    argv += ["--cache-dir", str(tmp_path), "--out", str(tmp_path / "out")]
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(entries_built=0)
    assert metrics["linalg.rref_rows"] == metrics["enveloping.rational_rows"] == 0
    assert metrics["linalg.coker_rows"] == metrics["enveloping.integer_rows"] == 0


BUDGETS = [1, 2, 3, 5, 8, 13, 20, 30, 40, 60, 90, 130, 200, 300, 450, 1000]


@pytest.mark.parametrize(
    "config",
    [
        ("--family", "su", "--rank", "3", "--coeffs", "rational"),
        ("--family", "su", "--rank", "3", "--coeffs", "integer"),
        ("--family", "so-even", "--rank", "4", "--coeffs", "integer"),
        ("--family", "g2", "--coeffs", "rational"),
    ],
)
def test_a_budget_sweep_answers_and_refuses_alike_on_both_routes(
    monkeypatch, tmp_path, capsys, config
):
    def sweep(cache):
        out = []
        for budget in BUDGETS:
            argv = ["compute", *config, "--format", "json", "--budget", str(budget)]
            code = cli.main([*argv, "--cache-dir", str(tmp_path / cache)])
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    certified = sweep("certified")
    force_the_engine(monkeypatch)
    assert sweep("engine") == certified
    assert {code for code, _, _ in certified} == {0, 3}


def test_verbose_names_the_route(tmp_path, capsys):
    def stderr(*args):
        argv = ["compute", *args, "--max-degree", "6", "--cache-dir", str(tmp_path), "--verbose"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().err.splitlines()
        return [line for line in lines if not line.startswith("timing ")]

    assert stderr("--family", "su", "--rank", "3", "--coeffs", "integer") == [
        "memo integral: miss",
        "route integer: normal words, 18 rules, 38 overlaps resolved, 22 swapped,"
        " 37 words rewritten"
    ]
    assert stderr("--family", "g2", "--coeffs", "integer") == [
        "memo integral: miss",
        "route integer: normal words, 9 rules, 12 overlaps resolved, 5 swapped,"
        " 32 words rewritten, defined: y2"
    ]
    lines = stderr("--family", "f4", "--coeffs", "integer")
    assert lines[:2] == [
        "memo integral: miss",
        "route integer: engine (leading coefficient -9 on y1.y1)",
    ]
    assert [line.split(":")[0] for line in lines[2:]] == [
        f"engine integer degree {d}" for d in range(1, 7)
    ]


def _word(draw, degrees, degree):
    """A word of the given degree, one generator at a time; generator 0 has degree 1."""
    word = []
    while degree:
        g = draw(st.sampled_from([g for g, d in enumerate(degrees) if d <= degree]))
        word.append(g)
        degree -= degrees[g]
    return tuple(word)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_weighted_order_is_compatible_with_concatenation(data):
    """``u < v`` exactly when ``w u < w v`` and exactly when ``u w < v w``."""
    degrees = [1, *data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))]
    weights = data.draw(st.lists(st.integers(1, 6), min_size=len(degrees), max_size=len(degrees)))
    order = normal_words._Rules(weights).order
    degree = data.draw(st.integers(1, 6))
    u, v = _word(data.draw, degrees, degree), _word(data.draw, degrees, degree)
    w = _word(data.draw, degrees, data.draw(st.integers(0, 4)))
    less = order(u) < order(v)
    assert (order(w + u) < order(w + v)) == less
    assert (order(u + w) < order(v + w)) == less
    assert (order(u) == order(v)) == (u == v)


def _defining_presentation(rng, domain):
    """``±z + (words in x, y)`` first, then up to two random relations.

    The other coefficients of the first relation are mostly non-units, so
    that over Z a length order would often lead with one of them; about one
    in six first relations is ``±z`` alone, where ``z`` weighs 1.
    """
    alg = FreeGradedAlgebra([("x", 1), ("y", 1), ("z", 2)])
    words = [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]
    others = rng.sample(words, k=rng.choice([0, 1, 1, 2, 2, 3]))
    terms = {w: Fraction(rng.choice([2, -2, -3, 4, 1])) for w in others}
    terms[("z",)] = Fraction(rng.choice([-1, 1]))
    relations = [element_of_names(alg, terms)]
    extra = _random_presentation(rng, domain).relations[: rng.randint(0, 2)]
    relations += [alg.element(r.terms) for r in extra]
    return RingPresentation(alg, relations, domain=domain)


@pytest.mark.parametrize("domain, seed", [("rational", 7301), ("integer", 7302)])
def test_a_defined_generator_certifies_and_matches_the_oracles(domain, seed):
    """Over Z, ``z`` is defined exactly when no other word of its relation has a unit
    coefficient; over Q, where every coefficient is a unit, nothing is defined."""
    rng = random.Random(seed)
    certified = defined = alone = 0
    for _ in range(60):
        p = _defining_presentation(rng, domain)
        first = p.relations[0].terms
        cert = normal_words.certificate(p)
        units = [c for w, c in first.items() if w != (p.algebra.index("z"),) and abs(c) == 1]
        if domain == "rational":
            assert cert.defined == ()
        else:
            assert ("z" in cert.defined) == (not units)
        defined += not units
        alone += len(first) == 1
        certified += cert.failure is None and not units
        got = normal_words.report(p, 5)
        for d in range(6):
            if domain == "rational":
                want = (brute_graded_dimension(p, d), [])
            else:
                want = brute_smith(p, d)
            assert (got.entries[d].rank, list(got.entries[d].torsion)) == want
    assert alone > 0
    if domain == "integer":
        assert certified >= 20


# the certificate of every presentation ``compute`` reads at a checked rank:
# (rules, digest of the leading words in order, overlaps resolved, failure,
# generators defined); "pipeline" is the rational presentation and
# "integer" the integral one
CERTIFICATES = {
    ("su", 1, "pipeline"): (2, "2f03c9baf927c652", 2, None, ()),
    ("su", 1, "integer"): (2, "2f03c9baf927c652", 2, None, ()),
    ("su", 2, "pipeline"): (8, "7267c58d63b634da", 12, None, ()),
    ("su", 2, "integer"): (8, "7267c58d63b634da", 12, None, ()),
    ("su", 3, "pipeline"): (18, "1af96598ce959047", 38, None, ()),
    ("su", 3, "integer"): (18, "1af96598ce959047", 38, None, ()),
    ("su", 4, "pipeline"): (32, "a7d4797b36129d58", 88, None, ()),
    ("su", 4, "integer"): (32, "a7d4797b36129d58", 88, None, ()),
    ("sp", 2, "pipeline"): (8, "7267c58d63b634da", 12, None, ()),
    ("sp", 2, "integer"): (4, "feb9bf779494de8a", 4, None, ()),
    ("sp", 3, "pipeline"): (18, "1af96598ce959047", 38, None, ()),
    ("sp", 3, "integer"): (12, "e6b941e3bc54dd0f", 20, None, ()),
    ("so-odd", 2, "pipeline"): (8, "7267c58d63b634da", 12, None, ()),
    ("so-odd", 2, "integer"): (13, "3134f9d08b228be1", 25, None, ()),
    ("so-odd", 3, "pipeline"): (18, "1af96598ce959047", 38, None, ()),
    ("so-odd", 3, "integer"): (33, "322fbc5d8debac42", 96, None, ()),
    ("so-even", 3, "pipeline"): (18, "79c82b0e14b09411", 38, None, ()),
    ("so-even", 3, "integer"): (33, "15520d7a8a739ca8", 96, None, ()),
    ("so-even", 4, "pipeline"): (32, "a757284672918e75", 88, None, ()),
    ("so-even", 4, "integer"): (62, "215b155e9c44bcfa", 242, None, ()),
    ("g2", 2, "pipeline"): (8, "7267c58d63b634da", 12, None, ()),
    ("g2", 2, "integer"): (9, "9174dc5f0f4c711b", 12, None, ('y2',)),
    ("f4", 4, "pipeline"): (32, "a7d4797b36129d58", 88, None, ()),
    ("f4", 4, "integer"): (14, "ca319de200629c80", 0, 'leading coefficient -9 on y1.y1', ()),
    ("e6", 6, "pipeline"): (72, "c128846613e9d044", 292, None, ()),
    ("e6", 6, "integer"): (74, "c49309a516504fd9", 292, None, ('y2', 'y3')),
}


def test_the_certificates_of_the_checked_ranks_are_pinned():
    got = {}
    for family, ranks in DEFAULT_CHECKED_RANKS.items():
        for rank in ranks:
            shown = [
                ("pipeline", rational_pipeline(catalog_entry(family, rank)).presentation),
                ("integer", expected_integral_presentation(family, rank)),
            ]
            for label, p in shown:
                cert = normal_words._certify(p)
                digest = hashlib.sha256(repr(cert.leading).encode()).hexdigest()[:16]
                got[(family.slug, rank, label)] = (
                    len(cert.leading),
                    digest,
                    cert.overlaps,
                    cert.failure,
                    cert.defined,
                )
    assert got == CERTIFICATES


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_memoized_normal_form_equals_a_max_first_scan(data):
    """Random rules ``lead -> smaller words`` and random polynomials, both ways.

    A polynomial is normalized before each ``add`` and after the last, so a
    form kept from before an ``add`` would differ from the scan; each result
    is then emptied, which would show if it shared a dict with the memo.
    """
    weights = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    words = st.lists(st.integers(0, len(weights) - 1), min_size=1, max_size=4).map(tuple)
    coeffs = st.integers(-3, 3).filter(bool)
    polys = st.dictionaries(words, coeffs, max_size=6)
    rules = normal_words._Rules(weights)

    def check(poly):
        want = naive_normal_form(rules.tails, weights, poly)
        got = rules.normal_form(poly)
        assert got == want
        got.clear()
        assert rules.normal_form(poly) == want

    for lead in data.draw(st.lists(words, max_size=4, unique=True)):
        check(data.draw(polys))
        tail = data.draw(st.lists(words, max_size=3))
        smaller = [w for w in tail if rules.order(w) < rules.order(lead)]
        rules.add(lead, {w: data.draw(coeffs) for w in smaller})
    check(data.draw(polys))


def test_an_80_letter_word_normalizes_without_deep_recursion():
    """``y x -> x y`` sorts ``y^40 x^40`` through 1,600 rewrites, each waiting on the next."""
    alg = FreeGradedAlgebra([("x", 1), ("y", 1)])
    x, y = alg.gen("x"), alg.gen("y")
    p = RingPresentation(alg, [y * x - x * y], domain="integer")
    weights, _ = normal_words._weights(p)
    rules = normal_words._Rules(weights)
    assert normal_words._interreduce(p, rules) is None
    assert rules.tails == {(1, 0): {(0, 1): 1}}
    word = {(1,) * 40 + (0,) * 40: 1}
    want = {(0,) * 40 + (1,) * 40: 1}
    assert rules.normal_form(word) == naive_normal_form(rules.tails, weights, word) == want
    assert rules.rewrites == 1600


def _assert_the_rules_are_the_naive_ones(p):
    """The naive rules and the lemma-free outcome of :func:`naive_resolve`; the certificate.

    The leading words in order, the tails and the failure are those of
    :func:`naive_interreduce`.  The certificate holds exactly when every
    overlap rewrites to zero, and then both resolved every overlap; a
    failing certificate may name another overlap than the oracle's.
    """
    weights, _ = normal_words._weights(p)
    relations = zip(p.relation_degrees, (r.terms for r in p.relations))
    tails, failure = naive_interreduce(p, relations, weights)
    rules = normal_words._Rules(weights)
    assert normal_words._interreduce(p, rules) == failure
    assert list(rules.tails) == list(tails) and rules.tails == tails
    cert = normal_words._certify(p)
    assert cert.leading == tuple(tails)
    if failure is not None:
        assert cert.failure == failure
        return cert
    unresolved, overlaps = naive_resolve(tails, weights)
    if unresolved is None:
        assert (cert.failure, cert.overlaps) == (None, overlaps)
    else:
        assert cert.failure.startswith("overlap ")
    assert 0 <= cert.swapped <= cert.overlaps
    return cert


@pytest.mark.parametrize("domain, seed", [("rational", 7401), ("integer", 7402)])
def test_the_row_reduced_interreduction_equals_the_naive_one_on_random_presentations(domain, seed):
    rng = random.Random(seed)
    failures = set()
    for _ in range(60):
        for p in (_random_presentation(rng, domain), _defining_presentation(rng, domain)):
            _assert_the_rules_are_the_naive_ones(p)
            failures.add(normal_words._certify(p).failure is None)
    assert failures == {True, False}


def test_the_row_reduced_interreduction_equals_the_naive_one_on_every_catalog_configuration():
    for _, p, _ in _catalog_presentations():
        _assert_the_rules_are_the_naive_ones(p)


# words rewritten by each certificate of the ring-deep workload:
# (family, rank, domain) -> Certificate.rewrites
RING_DEEP_REWRITES = {
    ("su", 7, "rational"): 329,
    ("su", 7, "integer"): 329,
    ("su", 6, "rational"): 218,
    ("su", 6, "integer"): 218,
    ("e6", 6, "rational"): 188,
    ("e6", 6, "integer"): 330,
}

# overlaps of those certificates that resolve by swap rules alone:
# (family, rank, domain) -> Certificate.swapped
RING_DEEP_SWAPPED = {
    ("su", 7, "rational"): 350,
    ("su", 7, "integer"): 350,
    ("su", 6, "rational"): 215,
    ("su", 6, "integer"): 215,
    ("e6", 6, "rational"): 225,
    ("e6", 6, "integer"): 215,
}


def test_the_ring_deep_certificates_rewrite_pinned_word_counts():
    """The words each ring-deep certificate rewrites, and the overlaps it swaps."""
    rewrites, swapped = {}, {}
    for family, rank, _ in RING_DEEP:
        shown = (
            rational_pipeline(catalog_entry(family, rank)).presentation,
            expected_integral_presentation(family, rank),
        )
        for p in shown:
            cert = normal_words._certify(p)
            rewrites[(family.slug, rank, p.domain)] = cert.rewrites
            swapped[(family.slug, rank, p.domain)] = cert.swapped
    assert (rewrites, swapped) == (RING_DEEP_REWRITES, RING_DEEP_SWAPPED)


def _pbw_like_presentation(rng, domain):
    """PBW-type rules ``g h -> ±h g + [g, h]`` on three odd letters and two central even ones.

    ``a``, ``b``, ``c`` have degree 1 and ``z``, ``w`` degree 2.  Each pair
    gets its rule; most signs are the graded ones and the rest are flipped.  Half the brackets of two odd letters are
    combinations of ``z`` and ``w``, every other bracket is zero, and an odd
    letter sometimes squares to a multiple of ``z``.
    """
    gens = [("a", 1), ("b", 1), ("c", 1), ("z", 2), ("w", 2)]
    alg = FreeGradedAlgebra(gens)
    relations = []
    for i, (x, dx) in enumerate(gens):
        for y, dy in gens[i + 1 :]:
            sign = -1 if dx * dy % 2 else 1
            if rng.random() < 0.06:
                sign = -sign
            terms = {(y, x): Fraction(1), (x, y): Fraction(-sign)}
            if dx + dy == 2 and rng.random() < 0.5:
                for central in rng.sample(["z", "w"], k=rng.randint(1, 2)):
                    terms[(central,)] = Fraction(rng.choice([-2, -1, 1, 2]))
            relations.append(element_of_names(alg, terms))
        if dx == 1 and rng.random() < 0.2:
            square = {(x, x): Fraction(1), ("z",): Fraction(rng.choice([-1, 1]))}
            relations.append(element_of_names(alg, square))
    return RingPresentation(alg, relations, domain=domain)


@pytest.mark.parametrize("domain, seed", [("rational", 7501), ("integer", 7502)])
def test_the_certificate_agrees_with_the_lemma_free_oracle_on_pbw_like_presentations(domain, seed):
    """Swap rules, central letters and sign mismatches, with and without the lemma.

    Every outcome is met: certificates that hold with some overlaps swapped
    and some rewritten, and certificates that fail after some swaps.
    """
    rng = random.Random(seed)
    held = failed = 0
    for _ in range(80):
        cert = _assert_the_rules_are_the_naive_ones(_pbw_like_presentation(rng, domain))
        if cert.failure is None:
            held += 0 < cert.swapped < cert.overlaps
        else:
            failed += cert.swapped > 0
    assert held >= 20 and failed >= 5, (held, failed)


@pytest.mark.parametrize("domain", ["rational", "integer"])
def test_a_planted_sign_mismatch_is_rewritten_and_does_not_resolve(domain):
    """``a b -> b a + z`` with ``z c -> -c z``: c passes ``b a`` with sign 1 and ``z`` with -1.

    So the overlap ``a b c`` is no swap, and rewriting it leaves ``-2 c z``.
    With ``z c -> c z`` every sign agrees and the overlap is swapped.
    """
    alg = FreeGradedAlgebra([("c", 1), ("b", 1), ("a", 1), ("z", 2)])
    a, b, c, z = (alg.gen(name) for name in "abcz")
    # (sign of z c -> c z, failure, overlaps resolved, overlaps swapped)
    for sign, *want in ((-1, "overlap a.b.c does not resolve", 0, 0), (1, None, 1, 1)):
        relations = [a * b - b * a - z, b * c - c * b, a * c - c * a, z * c - sign * (c * z)]
        cert = _assert_the_rules_are_the_naive_ones(RingPresentation(alg, relations, domain=domain))
        assert [cert.failure, cert.overlaps, cert.swapped] == want
