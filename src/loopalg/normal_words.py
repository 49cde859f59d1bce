"""Certified normal words: the graded sizes of a presentation in every degree at once.

Bergman's diamond lemma (G. M. Bergman, "The diamond lemma for ring
theory", Adv. Math. 29 (1978)) turns a presentation into a basis.  Order
words by total weight, then lexicographically by generator index; every
relation is homogeneous and every generator has positive degree, so each
degree holds finitely many words and the order is a well-founded semigroup
order.  Solve each relation for its largest word, its *leading word*, to get
a rewriting rule ``lead -> tail``.  When the rules are interreduced (no
leading word contains another) and every overlap ambiguity ``A B C``, with
``A B`` and ``B C`` leading words, rewrites to one normal form both ways,
the words that contain no leading word form a basis of the quotient.

That holds over any coefficient ring, so it also holds over Z as long as
every rule is solved exactly: an integral relation is used only when its
leading coefficient is ±1, and a relation is never divided by its content,
which would change the ideal.  A certified integral presentation is then a
free Z-module in every degree, torsion free with the normal-word counts as
ranks, and a certified rational one has those counts as dimensions.

The weights do a Tietze move where a length order would lead with a
non-unit.  A generator ``g`` is *defined* by the first relation
``±g + (words without g)`` whose other coefficients are all non-units; it
weighs one more than the heaviest of those words, so that relation rewrites
``g`` away, as the saturation relation ``y2 - 72 y1.y1`` does for e6 over
Z.  Every other generator weighs 1.  A relation with another unit
coefficient defines nothing: a length order already solves it, and moving
``g`` up would only push non-units to the front elsewhere (so-odd5's
``x1.x1 - y1`` would turn ``2 y1.y3`` into a leading ``2 x1.x1.y3``).  Any
positive weights give an admissible order (a proper prefix weighs less, so
two words of equal weight first differ inside both), and every check above
stays, so a weight can only cost a fallback, never a wrong answer.

:func:`certificate` interreduces and resolves the overlaps, memoized on the
presentation.  A normal form rewrites the largest reducible word first,
popped from a heap of the pending words.  :func:`report` answers from the
certificate: it counts the normal words degree by degree with an automaton
of the leading words, whose states are at most their total length, and
checks every degree against the budget with :func:`enveloping.degree_size`
before answering, as the engine does.  Where the certificate fails (a
non-unit leading coefficient over Z, or an overlap that does not resolve)
it answers by :func:`enveloping.engine_report` instead, which eliminates.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from dataclasses import dataclass
from fractions import Fraction

from .enveloping import (
    DEFAULT_WORD_BUDGET,
    GradedSmithReport,
    RingPresentation,
    SmithEntry,
    check_budget,
    degree_size,
    engine_report,
)
from .gca import Scalar

Word = tuple[int, ...]  # generator indices
Poly = dict[Word, Scalar]


@dataclass(frozen=True)
class Certificate:
    """The outcome of the diamond-lemma check on one presentation.

    ``leading`` holds the leading words of the interreduced rules and
    ``overlaps`` counts the overlap ambiguities that resolved.  ``failure``
    says why the normal words are not certified, None when they are.
    ``defined`` names the generators that outweigh the rest of their
    defining relation.
    """

    leading: tuple[Word, ...]
    overlaps: int
    failure: str | None = None
    defined: tuple[str, ...] = ()


def _weights(p: RingPresentation, relations: list[Poly]) -> tuple[list[int], tuple[str, ...]]:
    """The generator weights of the word order and the names of the generators defined.

    ``g`` is defined by the first relation holding it only as the word
    ``g``, with coefficient ±1, and no other coefficient ±1.  Generators are
    taken by increasing degree, ties in declaration order, so a defining
    relation's longer words only hold generators already weighed.
    """
    degrees = [d for _, d in p.generators]
    weights = [1] * len(degrees)
    defined = []
    for g in sorted(range(len(degrees)), key=degrees.__getitem__):
        for poly in relations:
            if poly.get((g,)) not in (1, -1):
                continue
            others = [w for w in poly if w != (g,)]
            if not any(g in w or poly[w] in (1, -1) for w in others):
                weights[g] = 1 + max((sum(weights[x] for x in w) for w in others), default=0)
                defined.append(p.algebra.names[g])
                break
    return weights, tuple(defined)


class _Rules:
    """Rewriting rules ``lead -> tail`` and the normal form they give."""

    def __init__(self, weights: list[int]):
        self.tails: dict[Word, Poly] = {}
        self._weights = weights
        self._lengths: list[int] = []
        self._keys: dict[Word, tuple[int, Word, Word]] = {}

    def order(self, word: Word) -> tuple[int, Word]:
        """The sort key of a word: its total weight, then the word itself."""
        return -self._key(word)[0], word

    def _key(self, word: Word) -> tuple[int, Word, Word]:
        """The heap key of a word, memoized: the words of one presentation recur."""
        key = self._keys.get(word)
        if key is None:
            weight = sum(self._weights[g] for g in word)
            key = self._keys[word] = (-weight, tuple(-g for g in word), word)
        return key

    def add(self, lead: Word, tail: Poly) -> None:
        self.tails[lead] = tail
        if len(lead) not in self._lengths:
            self._lengths = sorted({*self._lengths, len(lead)})

    def _occurrence(self, word: Word) -> tuple[int, Word] | None:
        for i in range(len(word)):
            for length in self._lengths:
                if i + length > len(word):
                    break
                if word[i : i + length] in self.tails:
                    return i, word[i : i + length]
        return None

    def normal_form(self, poly: Poly) -> Poly:
        """Rewrite the largest reducible word first until no word is reducible.

        Every rewrite yields smaller words, so a word left in the result
        never receives another term, and the map is linear.  The words wait
        in a heap keyed by (-weight, -letters): two words of equal weight
        first differ inside both, so negating the letters reverses their
        order.  A word whose terms cancelled stays in the heap and is
        skipped when it comes up.
        """
        todo = {w: c for w, c in poly.items() if c}
        heap = [self._key(w) for w in todo]
        heapify(heap)
        out: Poly = {}
        while heap:
            word = heappop(heap)[2]
            coeff = todo.pop(word, 0)
            if not coeff:
                continue
            hit = self._occurrence(word)
            if hit is None:
                out[word] = coeff
                continue
            i, lead = hit
            head, rest = word[:i], word[i + len(lead) :]
            for t, c in self.tails[lead].items():
                w = head + t + rest
                old = todo.get(w)
                v = (old or 0) + coeff * c
                if v:
                    if old is None:
                        heappush(heap, self._key(w))
                    todo[w] = v
                elif old is not None:
                    del todo[w]
        return out


def _name(p: RingPresentation, word: Word) -> str:
    return ".".join(p.algebra.names[g] for g in word)


def _certify(p: RingPresentation) -> Certificate:
    integer = p.domain == "integer"
    index = {name: i for i, name in enumerate(p.algebra.names)}
    polys: list[Poly] = []
    by_degree: dict[int, list[Poly]] = {}
    for degree, r in zip(p.relation_degrees, p.relations):
        poly = {
            tuple(index[n] for n in w): c.numerator if c.denominator == 1 else c
            for w, c in r.terms.items()
        }
        polys.append(poly)
        by_degree.setdefault(degree, []).append(poly)
    weights, defined = _weights(p, polys)
    rules = _Rules(weights)
    # interreduce one degree at a time: a proper subword has a smaller
    # degree, so once the lower rules have reduced a degree's relations only
    # equal leading words are left to eliminate, largest first; each new rule
    # clears its word from the other relations at the next normal form
    for degree in sorted(by_degree):
        pending = by_degree[degree]
        while pending := [q for q in map(rules.normal_form, pending) if q]:
            lead = max((w for q in pending for w in q), key=rules.order)
            group = [q for q in pending if lead in q]
            pivot = next((q for q in group if q[lead] in (1, -1)), None)
            if pivot is None and integer:
                return Certificate(
                    tuple(rules.tails),
                    0,
                    f"leading coefficient {group[0][lead]} on {_name(p, lead)}",
                    defined,
                )
            pivot = pivot or group[0]
            # a unit is its own inverse, so an integral rule stays integral
            inv = pivot[lead] if pivot[lead] in (1, -1) else Fraction(1) / pivot[lead]
            rules.add(lead, {w: -c * inv for w, c in pivot.items() if w != lead})
            pending = [q for q in pending if q is not pivot]
    leading = tuple(rules.tails)
    # every overlap A B C of leading words A B and B C, with A, B, C nonempty
    starting: dict[Word, list[Word]] = {}
    for v in leading:
        for k in range(1, len(v)):
            starting.setdefault(v[:k], []).append(v)
    resolved = 0
    for u in leading:
        for k in range(1, len(u)):
            for v in starting.get(u[-k:], ()):
                head, rest = u[:-k], v[k:]
                diff: Poly = {}
                for t, c in rules.tails[u].items():
                    diff[t + rest] = diff.get(t + rest, 0) + c
                for t, c in rules.tails[v].items():
                    diff[head + t] = diff.get(head + t, 0) - c
                if rules.normal_form(diff):
                    word = _name(p, u + rest)
                    return Certificate(
                        leading, resolved, f"overlap {word} does not resolve", defined
                    )
                resolved += 1
    return Certificate(leading, resolved, None, defined)


def certificate(p: RingPresentation) -> Certificate:
    """The diamond-lemma certificate of ``p``, memoized on the presentation."""
    if p._certificate is None:
        p._certificate = _certify(p)
    return p._certificate


def normal_word_counts(leading: tuple[Word, ...], degrees: list[int], max_degree: int) -> list[int]:
    """How many words of each degree 0 .. ``max_degree`` contain no leading word.

    ``degrees[g]`` is the degree of generator ``g``.  The words are read
    through the Aho-Corasick automaton of the leading words: its states are
    the prefixes of leading words, and a state is dead once the word read so
    far ends in a leading word.
    """
    children: list[dict[int, int]] = [{}]
    dead = [False]
    for word in leading:
        node = 0
        for g in word:
            if g not in children[node]:
                children[node][g] = len(children)
                children.append({})
                dead.append(False)
            node = children[node][g]
        dead[node] = True
    gens = range(len(degrees))
    step = [[0] * len(degrees) for _ in children]
    fail = [0] * len(children)
    queue = deque()
    for g in gens:
        child = children[0].get(g)
        if child is not None:
            step[0][g] = child
            queue.append(child)
    while queue:
        node = queue.popleft()
        dead[node] = dead[node] or dead[fail[node]]
        for g in gens:
            child = children[node].get(g)
            if child is None:
                step[node][g] = step[fail[node]][g]
            else:
                fail[child] = step[fail[node]][g]
                step[node][g] = child
                queue.append(child)
    layers: list[dict[int, int]] = [{} for _ in range(max_degree + 1)]
    layers[0][0] = 1
    counts = []
    for d, layer in enumerate(layers):
        counts.append(sum(layer.values()))
        for state, count in layer.items():
            for g in gens:
                e = d + degrees[g]
                target = step[state][g]
                if e <= max_degree and not dead[target]:
                    layers[e][target] = layers[e].get(target, 0) + count
        layers[d] = {}
    return counts


def report(
    p: RingPresentation, max_degree: int, budget: int | None = DEFAULT_WORD_BUDGET
) -> GradedSmithReport:
    """Degrees 0 .. ``max_degree`` of ``p``: normal-word counts, or elimination.

    With the certificate, every rank is a normal-word count and every
    torsion list is empty; each degree is first checked against ``budget``
    by :func:`enveloping.degree_size` on those ranks, so a refusal names the
    degree, size and budget the engine would.  Without it the answer is
    :func:`enveloping.engine_report`.
    """
    cert = certificate(p)
    if cert.failure is not None:
        return engine_report(p, max_degree, budget)
    gens = [d for _, d in p.generators]
    counts = normal_word_counts(cert.leading, gens, max_degree)
    no_torsion = [0] * (max_degree + 1)
    for d in range(1, max_degree + 1):
        check_budget(d, budget, *degree_size(d, gens, p.relation_degrees, counts, no_torsion))
    return GradedSmithReport(tuple(SmithEntry(d, c, ()) for d, c in enumerate(counts)))
