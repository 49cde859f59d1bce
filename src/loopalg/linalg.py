"""Exact sparse linear algebra over Q, Z and F_p.

Every scalar is an ``int`` while it is integral and a ``fractions.Fraction``
only where a non-unit pivot or a non-integral input forces one; no float
ever appears; :func:`exact` is that rule, here and in :mod:`loopalg.gca`.

Three workhorses live here:

* :class:`FractionRREF` -- an incremental reduced row echelon form over
  exact rationals; :func:`rref_normalize` uses it to describe a quotient of
  Q^n by its non-pivot columns, expressing dependent basis symbols in terms
  of independent ones.  Its cost follows the rows, not the stored pivots:
  reducing a row costs in proportion to the row and its fill, and a new
  pivot is substituted back only into the rows that hold its column, found
  through a column index.

* :func:`coker_normalize` -- given integer relation rows inside Z^n, compute
  the cokernel Z^n / rowspan as an explicit abelian group: free and torsion
  generators (Smith invariant factors) plus the expansion of every original
  basis vector over the new generators.  Elimination prefers unit pivots and
  falls back to a dense Smith normal form on the small residual block, so
  entries stay small on the structured matrices this package produces.

* :class:`FractionFreeEliminator` -- the rank of integer rows over F_p:
  entries are residues mod p, every pivot row leads with 1, and a row is
  reduced at its largest column first.  The top-degree certificate of
  :mod:`loopalg.minimal_model` is one such rank: a rank mod p never exceeds
  the rank over Q.  Where that certificate fails, the commutative quotient
  is ranked degree by degree over Q by :class:`FractionRREF`.

So each ring has one elimination: Q :class:`FractionRREF`, F_p
:class:`FractionFreeEliminator`, Z :func:`coker_normalize`.  One sparse
``out += c * terms``, :func:`add_multiple`, serves their reductions, the
quotient engine and the normal-word certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Row = dict[int, int]
Scalar = int | Fraction
QRow = dict[int, Scalar]


def add_multiple(out: dict, c: Scalar, terms: Mapping) -> None:
    """Add ``c`` times ``terms`` into ``out``, dropping the keys that cancel."""
    for k, v in terms.items():
        x = out.get(k, 0) + c * v
        if x:
            out[k] = x
        else:
            out.pop(k, None)


def exact(value: Scalar) -> Scalar:
    """An integral Fraction as an int, any other value unchanged: the rule for stored terms."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


class FractionRREF:
    """Incremental sparse RREF over Q, deterministic pivot choice.

    Entries stay ``int`` while they are integral: a pivot of 1 or -1 scales
    its row by itself, any other pivot by an exact ``Fraction``, and every
    integral ``Fraction`` turns back into an int.

    The cost follows the rows handled, not the number of stored pivots.
    :meth:`reduce` visits only the pivots among the row's own columns and
    then its fill.  A private column index lists, for every non-pivot
    column, the stored rows nonzero there, so back-substitution of a new
    pivot touches only the rows that hold its column.
    """

    def __init__(self):
        self._pivot_rows: dict[int, QRow] = {}
        # non-pivot column -> pivots of the stored rows nonzero in it
        self._holders: dict[int, set[int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivot_rows)

    @property
    def pivot_columns(self) -> set[int]:
        return set(self._pivot_rows)

    def reduce(self, row: Mapping[int, Scalar]) -> QRow:
        """Reduce a vector against the current pivots (returns a new dict)."""
        out: QRow = {c: v for c, v in row.items() if v}
        # a pivot row is zero at every other pivot, so the row keeps its
        # entries there and no fill adds a pivot column
        for col in sorted(out.keys() & self._pivot_rows.keys()):
            add_multiple(out, -out[col], self._pivot_rows[col])
        return out

    def add_row(self, row: Mapping[int, Scalar]) -> bool:
        """Insert a row; returns True when it increased the rank."""
        reduced = self.reduce(row)
        if not reduced:
            return False
        pivot = min(reduced)
        lead = reduced[pivot]
        # a unit pivot is its own inverse, so its row stays integral
        inv = lead if lead in (1, -1) else Fraction(1) / lead
        self._insert(pivot, {c: exact(v * inv) for c, v in reduced.items()})
        return True

    def _insert(self, pivot: int, row: QRow) -> None:
        """Store a reduced row that is 1 at ``pivot``; clear that column elsewhere."""
        holders = self._holders
        touched = holders.pop(pivot, ())
        for c in row:
            if c != pivot:
                holders.setdefault(c, set()).add(pivot)
        for p in touched:
            other = self._pivot_rows[p]
            coeff = other.pop(pivot)
            for c, v in row.items():
                if c == pivot:
                    continue
                nv = other.get(c, 0) - coeff * v
                if nv:
                    if c not in other:
                        holders[c].add(p)
                    other[c] = exact(nv)
                else:
                    # coeff and v are nonzero, so c was in other
                    del other[c]
                    holders[c].discard(p)
        self._pivot_rows[pivot] = row

    def expansion(self, column: int) -> QRow:
        """Expansion of a basis vector over the non-pivot columns."""
        row = self._pivot_rows.get(column)
        if row is None:
            return {column: 1}
        return {c: -v for c, v in row.items() if c != column}


class FractionFreeEliminator:
    """Row-echelon rank of integer rows over F_p, pivoting on the largest column.

    Entries are residues mod ``prime`` and every pivot row is scaled to lead
    with 1.
    """

    def __init__(self, prime: int):
        self._pivots: dict[int, Row] = {}
        self._prime = prime

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add_row(self, row: Mapping[int, int]) -> bool:
        """Insert a row; returns True when it increased the rank."""
        p = self._prime
        r = {c: v % p for c, v in row.items() if v % p}
        while r:
            col = max(r)
            pivot = self._pivots.get(col)
            if pivot is None:
                inv = pow(r[col], -1, p)
                self._pivots[col] = {c: v * inv % p for c, v in r.items()}
                return True
            f = r[col]
            for c, v in pivot.items():
                # f * v is a unit mod p, so a zero means c was in r
                nv = (r.get(c, 0) - f * v) % p
                if nv:
                    r[c] = nv
                else:
                    del r[c]
        return False


@dataclass
class CokerResult:
    """Normal form of Z^ncols / rowspan(rows), or of Q^ncols / rowspan(rows).

    ``invariants[k]`` describes new generator ``k``: 0 for a free summand,
    ``s >= 2`` for a Z/s summand (never over Q).  ``expansions[c]`` writes
    the image of the original basis vector ``e_c`` over the new generators.
    ``matrix_rank`` is the rank of the input matrix over Q.
    """

    invariants: list[int]
    expansions: list[dict[int, int | Fraction]]
    matrix_rank: int


def rref_normalize(rows: Iterable[Mapping[int, Scalar]], ncols: int) -> CokerResult:
    """Describe Q^ncols modulo the span of the given rows.

    The new generators are the non-pivot columns of the reduced echelon
    form, in column order; each basis vector expands over them.
    """
    rref = FractionRREF()
    for row in rows:
        rref.add_row(row)
    pivots = rref.pivot_columns
    basis = {c: k for k, c in enumerate(c for c in range(ncols) if c not in pivots)}
    expansions = [
        {basis[c]: v for c, v in rref.expansion(col).items()} for col in range(ncols)
    ]
    return CokerResult(invariants=[0] * len(basis), expansions=expansions, matrix_rank=rref.rank)


# ---------------------------------------------------------------------------
# integer side
# ---------------------------------------------------------------------------


def _smith_with_column_ops(matrix: list[list[int]], ncols: int):
    """Dense Smith normal form tracking column operations.

    Returns ``(diag, V)`` where ``diag`` lists the diagonal entries (including
    possible zeros) and ``V`` is unimodular with ``row_span(M V) = row_span(D)``;
    coordinates transform by ``x -> x V``.
    """
    mat = [list(r) for r in matrix]
    nrows = len(mat)
    V = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_cols(a: int, b: int) -> None:
        if a == b:
            return
        for r in mat:
            r[a], r[b] = r[b], r[a]
        for r in V:
            r[a], r[b] = r[b], r[a]

    def add_col(src: int, dst: int, q: int) -> None:
        # column_dst += q * column_src
        if q == 0:
            return
        for r in mat:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # locate the smallest nonzero entry in the trailing block
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = mat[i][j]
                if v and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
        if best is None:
            break
        i, j, _ = best
        mat[t], mat[i] = mat[i], mat[t]
        swap_cols(t, j)
        # clear row and column t
        dirty = True
        while dirty:
            dirty = False
            pivot = mat[t][t]
            for i in range(t + 1, nrows):
                if mat[i][t]:
                    q = mat[i][t] // pivot
                    for j in range(t, ncols):
                        mat[i][j] -= q * mat[t][j]
                    if mat[i][t]:
                        mat[t], mat[i] = mat[i], mat[t]
                        dirty = True
                        break
            if dirty:
                continue
            pivot = mat[t][t]
            for j in range(t + 1, ncols):
                if mat[t][j]:
                    q = mat[t][j] // pivot
                    add_col(t, j, -q)
                    if mat[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        break
        pivot = mat[t][t]
        if pivot < 0:
            for j in range(t, ncols):
                mat[t][j] = -mat[t][j]
            pivot = -pivot
        if pivot == 0:
            break
        # enforce divisibility of the trailing block
        fixed = False
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if mat[i][j] % pivot:
                    for k in range(t, ncols):
                        mat[t][k] += mat[i][k]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        t += 1
    diag = [mat[k][k] for k in range(t)]
    return diag, V


def coker_normalize(rows: Sequence[Mapping[int, int]], ncols: int) -> CokerResult:
    """Describe Z^ncols modulo the integer span of the given rows."""
    # unit pivots; integer rows reduced by them stay integral
    units = FractionRREF()
    pending = [r for r in ({c: int(v) for c, v in row.items() if v} for row in rows) if r]
    changed = True
    while changed:
        changed = False
        leftovers: list[Row] = []
        for raw in pending:
            # a row that meets no pivot column is already reduced: rows come
            # in without zeros, and a leftover was reduced against every
            # pivot it could meet, so only a newer pivot can touch it
            row = raw if units._pivot_rows.keys().isdisjoint(raw) else units.reduce(raw)
            if not row:
                continue
            unit_cols = [c for c, v in row.items() if v in (1, -1)]
            if unit_cols:
                col = min(unit_cols)
                if row[col] == -1:
                    row = {c: -v for c, v in row.items()}
                units._insert(col, row)
                changed = True
            else:
                leftovers.append(row)
        pending = leftovers
    # the last pass inserted no pivot, so every leftover is already reduced
    residual = pending
    pivot_cols = units.pivot_columns

    res_cols = sorted({c for row in residual for c in row})
    res_pos = {c: k for k, c in enumerate(res_cols)}
    dense = [[row.get(c, 0) for c in res_cols] for row in residual]
    diag, V = _smith_with_column_ops(dense, len(res_cols))

    # assemble new generators: free columns first, then the residual block
    invariants: list[int] = []
    gen_of_free_col: dict[int, int] = {}
    for c in range(ncols):
        if c not in pivot_cols and c not in res_pos:
            gen_of_free_col[c] = len(invariants)
            invariants.append(0)
    res_gen_ids: list[int | None] = []
    for k in range(len(res_cols)):
        d = diag[k] if k < len(diag) else 0
        if d == 1:
            res_gen_ids.append(None)
        else:
            res_gen_ids.append(len(invariants))
            invariants.append(d if d > 1 else 0)

    def normalize(vec: Row) -> Row:
        reduced = {g: v % invariants[g] if invariants[g] > 1 else v for g, v in vec.items()}
        return {g: v for g, v in reduced.items() if v}

    expansions: list[Row] = [dict() for _ in range(ncols)]
    for c, g in gen_of_free_col.items():
        expansions[c] = {g: 1}
    for c, k in res_pos.items():
        # each residual generator id is one column of V
        expansions[c] = normalize({g: V[k][j] for j, g in enumerate(res_gen_ids) if g is not None})
    for c in pivot_cols:
        vec: Row = {}
        for other, coeff in units.expansion(c).items():
            add_multiple(vec, coeff, expansions[other])
        expansions[c] = normalize(vec)

    matrix_rank = units.rank + sum(1 for d in diag if d != 0)
    return CokerResult(invariants=invariants, expansions=expansions, matrix_rank=matrix_rank)
