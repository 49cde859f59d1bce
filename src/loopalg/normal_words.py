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

Over Z the weights do a Tietze move where a length order would lead with
a non-unit.  A generator ``g`` is *defined* by the first relation
``±g + (words without g)`` whose other coefficients are all non-units; it
weighs one more than the heaviest of those words, so that relation rewrites
``g`` away, as the saturation relation ``y2 - 72 y1.y1`` does for e6 over
Z.  Every other generator weighs 1.  A relation with another unit
coefficient defines nothing: a length order already solves it, and moving
``g`` up would only push non-units to the front elsewhere (so-odd5's
``x1.x1 - y1`` would turn ``2 y1.y3`` into a leading ``2 x1.x1.y3``).  Any
positive weights give an admissible order (a proper prefix weighs less, so
two words of equal weight first differ inside both), and every check above
stays, so a weight can only cost a fallback, never a wrong answer.  Over
Q every coefficient is a unit, so every generator weighs 1 (see below).

Most rules of a PBW presentation are graded commutators, and their
overlaps resolve by a fixed chain of swaps, which :func:`certificate` takes
instead of rewriting both sides to normal form.  A *swap rule* is a rule
``l r -> s r l`` with ``s = ±1`` and nothing else in its tail.  Let ``a b``
and ``b c`` be leading words, ``a``, ``b``, ``c`` letters:

* *right swap*: when ``a c`` and ``b c`` are swap rules and every letter
  ``l`` of every word of tail(``a b``) has a swap rule ``l c``, whose signs
  multiply along each word to ``s_ac s_bc``,
  ``(a b) c -> tail(ab) c -> s_ac s_bc c tail(ab)`` by moving ``c`` left,
  and ``a (b c) -> s_bc a c b -> s_bc s_ac c a b -> s_ac s_bc c tail(ab)``;
* *left swap*, the mirror: when ``a b`` and ``a c`` are swap rules and
  every letter ``l`` of tail(``b c``) has a swap rule ``a l``, whose signs
  multiply along each word to ``s_ab s_ac``,
  ``a (b c) -> a tail(bc) -> s_ab s_ac tail(bc) a`` by moving ``a`` right,
  and ``(a b) c -> s_ab b a c -> s_ab s_ac b c a -> s_ab s_ac tail(bc) a``.

Each arrow is a chain of rewrites, so the overlap is resolvable, which is
all the lemma asks of it.  Every other overlap is rewritten as before, and
when all of those resolve every ambiguity is resolvable and the rules are
confluent; so the outcome is the one rewriting every overlap gives, though
a failure may name a later overlap.

Over Q the interreduced rules of an enveloping algebra are exactly
``x y -> ±y x + [x, y]``, and resolving ``x y z`` is the graded Jacobi
identity of that triple (Bergman, §3), so the certificate holds exactly
when Jacobi does; it is :func:`~loopalg.enveloping.uea_presentation`'s
Jacobi check.  A Tietze move would break that: defining ``z`` by
``2 x.x - z`` passes ``[x, x] = z``, ``[x, z] = w``.  A swapped triple still satisfies Jacobi:
``[a, c] = [b, c] = 0`` and ``c`` commutes, with the graded sign, with
every term of ``[a, b]`` (or the mirror), so each of the three double
brackets vanishes and the identity holds term by term.

:func:`certificate` interreduces and resolves the overlaps, memoized on the
presentation.  It reads each relation's terms as the presentation holds
them, on words of generator indices, which the engine reads too, and never
changes them; it adds polynomials by :func:`linalg.add_multiple` into dicts
of its own.  Each relation is reduced once by the rules of
lower degree; a degree's relations are then row-reduced on each new leading
word, the only word of their degree a new rule rewrites.  A word's normal form
depends on the word alone (its leftmost rewrite gives smaller words), so a
polynomial's normal form is the sum of its words' forms, each kept in a
memo that lives until the next rule is added.  :func:`report` answers from the
certificate: it counts the normal words degree by degree with the automaton
of the leading words, whose states are at most their total length.  The
certificate builds that automaton on its first count and keeps it with the
longest count list it has made, so a presentation read again, as the
catalog entry's are, counts only past the degrees it has counted.  The
caller refuses over the budget beforehand.  Where the certificate fails (a
non-unit leading coefficient over Z, or an overlap that does not resolve)
it answers by :func:`enveloping.engine_report` instead, which eliminates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .enveloping import (
    DEFAULT_WORD_BUDGET,
    GradedSmithReport,
    RingPresentation,
    Word,
    engine_report,
)
from .linalg import Scalar, add_multiple

Poly = dict[Word, Scalar]


@dataclass(frozen=True)
class Certificate:
    """The outcome of the diamond-lemma check on one presentation.

    ``leading`` holds the leading words of the interreduced rules and
    ``overlaps`` counts the overlap ambiguities that resolved.  ``failure``
    says why the normal words are not certified, None when they are.
    ``defined`` names the generators that outweigh the rest of their
    defining relation.  ``rewrites`` counts the words whose normal form
    needed a rewrite, a measure of the certificate's work.  ``swapped``
    counts the overlaps among ``overlaps`` that resolved by swap rules
    alone, with no rewrite.  ``degrees`` holds the generator degrees of the
    presentation, which :meth:`counts` reads.
    """

    leading: tuple[Word, ...]
    overlaps: int
    failure: str | None = None
    defined: tuple[str, ...] = ()
    rewrites: int = 0
    swapped: int = 0
    degrees: tuple[int, ...] = ()
    # the longest count list made so far, which every shorter one is a prefix of
    _counted: list[int] = field(default_factory=list, init=False, repr=False, compare=False)

    @cached_property
    def automaton(self) -> tuple[list[list[int]], list[bool]]:
        """The automaton of the leading words, built on first read and kept."""
        return _automaton(self.leading, len(self.degrees))

    def counts(self, max_degree: int) -> list[int]:
        """How many words of each degree 0 .. ``max_degree`` contain no leading word.

        The words are read through the kept automaton of the leading words.
        A degree's count does not depend on how far the count runs, so the
        longest list counted is kept and a request to the same or a lower
        degree is a slice of it.
        """
        if len(self._counted) <= max_degree:
            self._counted[:] = _count(*self.automaton, self.degrees, max_degree)
        return self._counted[: max_degree + 1]


def _weights(p: RingPresentation) -> tuple[list[int], tuple[str, ...]]:
    """The generator weights of the word order and the names of the generators defined.

    Over Z, ``g`` is defined by the first relation holding it only as the
    word ``g``, with coefficient ±1, and no other coefficient ±1; over Q
    none is.  Generators are taken by increasing degree, ties in
    declaration order, so a defining relation's longer words only hold
    generators already weighed.
    """
    degrees = [d for _, d in p.generators]
    weights = [1] * len(degrees)
    if p.domain == "rational":
        return weights, ()
    defined = []
    for g in sorted(range(len(degrees)), key=degrees.__getitem__):
        for poly in (r.terms for r in p.relations):
            if poly.get((g,)) not in (1, -1):
                continue
            others = [w for w in poly if w != (g,)]
            if not any(g in w or poly[w] in (1, -1) for w in others):
                weights[g] = 1 + max((sum(weights[x] for x in w) for w in others), default=0)
                defined.append(p.algebra.names[g])
                break
    return weights, tuple(defined)


class _Rules:
    """Rewriting rules ``lead -> tail`` and the normal form they give.

    ``rewrites`` counts the words whose normal form took a rewrite, summed
    over every memo the rules have held.
    """

    def __init__(self, weights: list[int]):
        self.tails: dict[Word, Poly] = {}
        self.rewrites = 0
        self._weights = weights
        self._lengths: list[int] = []
        self._forms: dict[Word, Poly] = {}

    def order(self, word: Word) -> tuple[int, Word]:
        """The sort key of a word: its total weight, then the word itself."""
        return sum(self._weights[g] for g in word), word

    def add(self, lead: Word, tail: Poly) -> None:
        self.tails[lead] = tail
        self._forms = {}
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

    def _form(self, word: Word) -> Poly:
        """The memoized normal form of one word, evaluated without recursion.

        A word waits on the stack with the words its rewrite yields until
        each of those has a form; rewrites yield smaller words, so the wait
        ends.  The stack, not the call depth, grows with a long word.  A
        rewrite to one word with coefficient 1 shares that word's form: no
        form in the memo is changed once made.
        """
        forms = self._forms
        stack: list[tuple[Word, list[tuple[Word, Scalar]] | None]] = [(word, None)]
        while stack:
            w, images = stack.pop()
            if w in forms:
                continue
            if images is None:
                hit = self._occurrence(w)
                if hit is None:
                    forms[w] = {w: 1}
                    continue
                i, lead = hit
                head, rest = w[:i], w[i + len(lead) :]
                images = [(head + t + rest, c) for t, c in self.tails[lead].items()]
                stack.append((w, images))
                for u, _ in images:
                    if u not in forms:
                        stack.append((u, None))
                continue
            if len(images) == 1 and images[0][1] == 1:
                form = forms[images[0][0]]
            else:
                form = {}
                for u, c in images:
                    add_multiple(form, c, forms[u])
            forms[w] = form
            self.rewrites += 1
        return forms[word]

    def normal_form(self, poly: Poly) -> Poly:
        """The sum of ``c`` times the normal form of ``w`` over the terms ``c w``.

        A word is rewritten at its leftmost occurrence of a leading word,
        the shortest first at each position, into smaller words, so its
        normal form depends on the word alone and the map is linear.  That
        is the map a rewrite of the largest pending word first computes,
        even for rules that are not confluent, so each word's form is kept
        until :meth:`add` changes the rules.  The result is a new dict.
        """
        out: Poly = {}
        for w, c in poly.items():
            if c:
                add_multiple(out, c, self._form(w))
        return out


def _name(p: RingPresentation, word: Word) -> str:
    return ".".join(p.algebra.names[g] for g in word)


def _interreduce(p: RingPresentation, rules: _Rules) -> str | None:
    """Add the interreduced rules of ``p``'s relations to ``rules``; the failure, or None.

    One degree at a time: a proper subword has a smaller degree, so each
    relation is reduced once by the lower rules, and then only equal
    leading words are left to eliminate, largest first.  A degree-d word
    holds no other degree-d word, so a new rule rewrites only its own word
    ``lead`` in the pending relations: one row operation each, whose tail
    words are already normal.
    """
    integer = p.domain == "integer"
    by_degree: dict[int, list[Poly]] = {}
    for degree, r in zip(p.relation_degrees, p.relations):
        by_degree.setdefault(degree, []).append(r.terms)
    for degree in sorted(by_degree):
        pending = [q for q in map(rules.normal_form, by_degree[degree]) if q]
        # a row operation brings in only words of its pivot, smaller than its
        # lead, so the largest word left is the next of these still present
        for lead in sorted({w for q in pending for w in q}, key=rules.order, reverse=True):
            group = [q for q in pending if lead in q]
            if not group:
                continue
            pivot = next((q for q in group if q[lead] in (1, -1)), None)
            if pivot is None and integer:
                return f"leading coefficient {group[0][lead]} on {_name(p, lead)}"
            pivot = pivot or group[0]
            # a unit is its own inverse, so an integral rule stays integral
            inv = pivot[lead] if pivot[lead] in (1, -1) else Fraction(1) / pivot[lead]
            tail = {w: -c * inv for w, c in pivot.items() if w != lead}
            rules.add(lead, tail)
            for q in group:
                if q is not pivot:
                    add_multiple(q, q.pop(lead), tail)
            pending = [q for q in pending if q and q is not pivot]
    return None


def _swaps(tails: dict[Word, Poly]) -> dict[Word, int]:
    """The sign ``s`` of every swap rule ``l r -> s r l``, by its leading word."""
    return {
        lead: c
        for lead, tail in tails.items()
        if len(lead) == 2 and len(tail) == 1
        for word, c in tail.items()
        if word == lead[::-1] and c in (1, -1)
    }


def _commutes(swaps: dict[Word, int], tail: Poly, letter: int, right: bool, sign: int) -> bool:
    """Whether ``letter`` passes every word of ``tail`` by swap rules of sign product ``sign``.

    With ``right`` it moves from the right end of each word to the left, by
    the rules ``l letter``; otherwise from the left end to the right, by the
    rules ``letter l``.
    """
    for word in tail:
        product = 1
        for g in word:
            s = swaps.get((g, letter) if right else (letter, g))
            if s is None:
                return False
            product *= s
        if product != sign:
            return False
    return True


def _swapped(tails: dict[Word, Poly], swaps: dict[Word, int], u: Word, v: Word) -> bool:
    """Whether the overlap ``a b c`` of ``u = a b`` and ``v = b c`` resolves by swaps alone.

    The module docstring gives the two reduction chains: ``c`` moves left
    through tail(``a b``), or ``a`` right through tail(``b c``).
    """
    if len(u) != 2 or len(v) != 2:
        return False
    (a, b), c = u, v[1]
    s_ac = swaps.get((a, c))
    if s_ac is None:
        return False
    if v in swaps and _commutes(swaps, tails[u], c, True, s_ac * swaps[v]):
        return True
    return u in swaps and _commutes(swaps, tails[v], a, False, swaps[u] * s_ac)


def _certify(p: RingPresentation) -> Certificate:
    weights, defined = _weights(p)
    degrees = tuple(d for _, d in p.generators)
    rules = _Rules(weights)
    failure = _interreduce(p, rules)
    leading = tuple(rules.tails)
    if failure is not None:
        return Certificate(leading, 0, failure, defined, rules.rewrites, degrees=degrees)
    # every overlap A B C of leading words A B and B C, with A, B, C nonempty
    starting: dict[Word, list[Word]] = {}
    for v in leading:
        for k in range(1, len(v)):
            starting.setdefault(v[:k], []).append(v)
    swaps = _swaps(rules.tails)
    resolved = swapped = 0
    for u in leading:
        for k in range(1, len(u)):
            for v in starting.get(u[-k:], ()):
                if _swapped(rules.tails, swaps, u, v):
                    swapped += 1
                else:
                    head, rest = u[:-k], v[k:]
                    diff = {t + rest: c for t, c in rules.tails[u].items()}
                    add_multiple(diff, -1, {head + t: c for t, c in rules.tails[v].items()})
                    if rules.normal_form(diff):
                        failure = f"overlap {_name(p, u + rest)} does not resolve"
                        return Certificate(
                            leading, resolved, failure, defined, rules.rewrites, swapped, degrees
                        )
                resolved += 1
    return Certificate(leading, resolved, None, defined, rules.rewrites, swapped, degrees)


def certificate(p: RingPresentation) -> Certificate:
    """The diamond-lemma certificate of ``p``, memoized on the presentation."""
    if p._certificate is None:
        p._certificate = _certify(p)
    return p._certificate


def _automaton(leading: tuple[Word, ...], generators: int) -> tuple[list[list[int]], list[bool]]:
    """The Aho-Corasick automaton of the leading words on ``generators`` letters.

    Its states are the prefixes of leading words; ``step[state][g]`` is the
    state after reading ``g``, and a state is ``dead`` once the word read so
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
    gens = range(generators)
    step = [[0] * generators for _ in children]
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
    return step, dead


def _count(
    step: list[list[int]], dead: list[bool], degrees: Sequence[int], max_degree: int
) -> list[int]:
    """How many words of each degree 0 .. ``max_degree`` the automaton reads to no dead state."""
    gens = range(len(degrees))
    layers: list[dict[int, int]] = [{} for _ in range(max_degree + 1)]
    layers[0][0] = 1
    counts = []
    for d, layer in enumerate(layers):
        counts.append(sum(layer.values()))
        for state, count in layer.items():
            row = step[state]
            for g in gens:
                e = d + degrees[g]
                target = row[g]
                if e <= max_degree and not dead[target]:
                    layers[e][target] = layers[e].get(target, 0) + count
        layers[d] = {}
    return counts


def report(
    p: RingPresentation, max_degree: int, budget: int = DEFAULT_WORD_BUDGET
) -> GradedSmithReport:
    """Degrees 0 .. ``max_degree`` of ``p``: normal-word counts, or elimination.

    With the certificate, every rank is a normal-word count and every
    torsion list is empty.  Without it the answer is
    :func:`enveloping.engine_report`, which refuses over ``budget``.
    """
    cert = certificate(p)
    if cert.failure is not None:
        return engine_report(p, max_degree, budget)
    return GradedSmithReport.free(cert.counts(max_degree))
