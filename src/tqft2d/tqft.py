"""Classification data for surface invariants: a rank-1 tensor ``d`` (the
disk) and a fully symmetric rank-3 tensor ``p`` (the pair-of-pants).

A (d, p) pair defines a consistent surface invariant exactly when four
relations hold (all sums over repeated indices run 0..n-1):

* exchange:             p[i,j,k] p[k,l,m] == p[i,l,k] p[k,j,m]
* symmetry:             p invariant under all six slot permutations
* disk_absorption:      d[k] p[k,i,j] d[j] == d[i]
* cylinder_absorption:  d[k] p[k,i,j] p[j,l,m] == p[i,l,m]

``check_relations`` evaluates all four over every free-index tuple: each
side of exchange and of the absorption relations is a contraction by the
tensor engine, compared entrywise by ``scalars_equal``.  The verdict is a
property of the datum, so it is computed once per datum and stored on the
immutable ``TqftData``.  When the relations hold, the annulus tensor
c[i,j] = d[k] p[k,i,j] is an idempotent matrix fixing d, and the datum is a
commutative Frobenius algebra (Abrams 1996; Kock 2003) whose multiplication
by the basis element a is the slice L_a[i,j] = p[a,i,j].  ``functor``
evaluates bounded surfaces with two matrices stored on the datum, each built
once: ``annulus_matrix`` (c, which the relation check builds first) and
``handle_matrix`` (M).

Data file format (1-based indices, omitted entries are zero; the loader
rejects p entries that are not symmetric as supplied)::

    tqft dim=2 backend=rational
    d 1 = 1
    p 1 1 1 = 1

Each ``d``/``p`` line is a tensor-literal entry line (see ``tqft2d.tensor``)
after its prefix, read by ``EntryReader`` and written by ``entry_lines``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ParseError, RelationError
from .orientation import MINUS, PLUS
from .tensor import (
    RATIONAL,
    EntryReader,
    LabeledTensor,
    Scalar,
    SignedIndex,
    coerce_scalar,
    contract_between,
    contract_within,
    dense_size,
    detect_backend,
    entry_lines,
    header_dimension,
    numbered_lines,
    scalar_zero,
    scalars_equal,
)

RELATION_NAMES = ("exchange", "symmetry", "disk_absorption", "cylinder_absorption")


class TqftData:
    """Dimension n plus the tensors d (rank 1) and p (rank 3, symmetric).

    Immutable: assigning an attribute after construction raises
    AttributeError, so what `_reports` stores, each built once, never goes
    stale:

    * ``"symmetry"``: p's worst slot-swap gap, measured when the constructor
      checks that p is symmetric;
    * ``"relations"``: the RelationReport of check_relations, on first use;
    * ``"annulus"``: the matrix c of annulus_matrix, built by the relation
      check (or on first use);
    * ``"handle"``: the matrix M of handle_matrix, on first use.
    """

    __slots__ = ("dimension", "d", "p", "backend", "_reports")

    def __init__(self, d_entries: Sequence, p_entries: Sequence,
                 backend: str | None = None):
        d_entries = tuple(d_entries)
        p_entries = tuple(p_entries)
        n = len(d_entries)
        # LabeledTensor raises DimensionError for n < 1 and a p of wrong length.
        if backend is None:
            backend = detect_backend(d_entries + p_entries)
        d = LabeledTensor(
            (SignedIndex("i", PLUS, n),), d_entries, backend)
        p = LabeledTensor(
            (SignedIndex("i", PLUS, n), SignedIndex("j", PLUS, n),
             SignedIndex("k", PLUS, n)),
            p_entries, backend)
        e = p.entries
        worst = abs(scalar_zero(backend))  # the symmetry relation's max_violation
        for (i, j, k), base in zip(p.assignments(), e):
            # p[j,i,k] and p[i,k,j]: the two slot transpositions generate all six
            swaps = (e[(j * n + i) * n + k], e[(i * n + k) * n + j])
            for gap in (abs(x - base) for x in swaps if x != base):  # else 0
                if not scalars_equal(gap, 0, backend):
                    raise RelationError(
                        f"p is not symmetric at slot indices ({i + 1},{j + 1},{k + 1})")
                worst = max(worst, gap)
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "_reports", {"symmetry": worst})

    def __setattr__(self, name, value):
        raise AttributeError("TqftData is immutable")

    def d_entry(self, i: int) -> Scalar:
        return self.d.entries[i]

    def p_entry(self, i: int, j: int, k: int) -> Scalar:
        n = self.dimension
        return self.p.entries[(i * n + j) * n + k]

    def __repr__(self) -> str:
        return f"TqftData(dim={self.dimension}, backend={self.backend})"


@dataclass(frozen=True)
class RelationResult:
    name: str
    passed: bool
    max_violation: Scalar


@dataclass(frozen=True)
class RelationReport:
    results: tuple[RelationResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def __getitem__(self, name: str) -> RelationResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def tokens(self) -> str:
        return " ".join("PASS" if r.passed else "FAIL" for r in self.results)


def check_relations(data: TqftData) -> RelationReport:
    """Evaluate all four relations over every free-index tuple.

    A relation holds when each LHS entry equals its RHS entry by
    `scalars_equal`: exactly for rational data, within DEFAULT_TOLERANCE for
    complex data.  Its max_violation is the largest |LHS - RHS|, NaN when any
    is NaN (which fails the relation).

    The report depends only on the datum, so it is computed once, on the
    first call, and stored on the immutable datum; later calls return that
    same frozen report.
    """
    return _stored(data, "relations", _relation_report)


def _stored(data: TqftData, name: str, build):
    """``data._reports[name]``, set to ``build(data)`` on first use."""
    value = data._reports.get(name)
    if value is None:
        # Threads racing on a cold datum build equal values; setdefault
        # keeps the first stored, so every caller gets the same one.
        value = data._reports.setdefault(name, build(data))
    return value


def _p_low(data: TqftData) -> LabeledTensor:
    """p as p[h,l,m] with its first slot lowered, so that a + index of
    another tensor can be summed against it."""
    n = data.dimension
    return LabeledTensor._of(
        (SignedIndex("h", MINUS, n), SignedIndex("l", PLUS, n), SignedIndex("m", PLUS, n)),
        data.p.entries, data.backend)


def _relation_report(data: TqftData) -> RelationReport:
    p, d = data.p, data.d
    p_low = _p_low(data)
    # q[i,j,l,m] = p[i,j,k] p[k,l,m]; the exchange relation says q is
    # symmetric in its middle two slots.
    q = contract_between(p, p_low, [("k", "h")])
    # Both absorption relations factor through the annulus c.
    c = annulus_matrix(data)
    sides = {
        "exchange": (q, q.permute_indices((0, 2, 1, 3))),
        "disk_absorption": (contract_between(c, d.flip_signs(), [("m", "i")]), d),
        "cylinder_absorption": (
            contract_between(c, p.flip_signs(["i"]), [("m", "i")]), p),
    }
    gaps = {name: [abs(x - y) for x, y in zip(lhs.entries, rhs.entries)]
            for name, (lhs, rhs) in sides.items()}
    gaps["symmetry"] = [data._reports["symmetry"]]  # measured at construction
    results = []
    for name in RELATION_NAMES:
        # |x - y| equals 0 by the rule exactly when x equals y by it.
        passed = all(scalars_equal(gap, 0, data.backend) for gap in gaps[name])
        worst = max(gaps[name])
        if not passed and any(gap != gap for gap in gaps[name]):
            worst = math.nan  # max() returns a NaN only when it comes first
        results.append(RelationResult(name, passed, worst))
    return RelationReport(tuple(results))


def annulus_matrix(data: TqftData) -> LabeledTensor:
    """c[l,m] = d[h] p[h,l,m], the entries of annulus_tensor, indices (+l, +m);
    one engine call, stored on the datum.  When the relations hold, c L_a =
    L_a and c d = d for p's slices L_a[i,j] = p[a,i,j]."""
    def annulus(data):
        return contract_between(data.d, _p_low(data), [("i", "h")])
    return _stored(data, "annulus", annulus)


def handle_matrix(data: TqftData) -> LabeledTensor:
    """M[l,m] = tau[h] p[h,l,m] with tau[a] = p[a,h,h] (the one-holed torus):
    gluing one more handle, indices (+l, +m).  Two engine calls, stored on
    the datum."""
    def handle(data):
        tau = contract_within(data.p.flip_signs(["k"]), [("j", "k")])
        return contract_between(tau, _p_low(data), [("i", "h")])
    return _stored(data, "handle", handle)


def hermitian_check(data: TqftData) -> bool:
    """True iff every entry of d and p has an imaginary part equal to 0 by
    `scalars_equal` (always true for rationals).

    Real tensors are exactly the ones whose invariant conjugates under
    orientation reversal of the surface.
    """
    return all(scalars_equal(v.imag, 0, data.backend)
               for v in data.d.entries + data.p.entries)


def diagonal_family(t: Sequence) -> TqftData:
    """Direct sum of one-dimensional solutions: d[i] = t[i], p[i,i,i] = 1/t[i].

    Every member passes check_relations.
    """
    values = tuple(t)
    if not values:
        raise ValueError("need at least one diagonal value")
    backend = detect_backend(values)
    values = tuple(coerce_scalar(v, backend) for v in values)
    if any(v == 0 for v in values):
        raise ValueError("diagonal values must be nonzero")
    n = len(values)
    p_entries = [scalar_zero(backend)] * dense_size(n, 3)
    for i, v in enumerate(values):
        p_entries[(i * n + i) * n + i] = 1 / v
    return TqftData(values, p_entries, backend)


def grid_search_dim1(height: int) -> list[TqftData]:
    """Exhaustive dimension-1 search over rational pairs (d, p) with
    |numerator| <= height and denominator <= height (in lowest terms).

    Returns exactly the pairs passing check_relations: the zero solution
    (0, 0) plus every (t, 1/t) representable on the grid.
    """
    if not 1 <= height <= 6:
        raise ValueError(f"height must be in 1..6, got {height}")
    values = sorted({Fraction(num, den)
                     for num in range(-height, height + 1)
                     for den in range(1, height + 1)})
    found = []
    for d1 in values:
        for p111 in values:
            data = TqftData((d1,), (p111,), RATIONAL)
            if check_relations(data).passed:
                found.append(data)
    found.sort(key=lambda data: (data.d_entry(0), data.p_entry(0, 0, 0)))
    return found


# -- data file format ---------------------------------------------------------

_TQFT_HEADER_RE = re.compile(
    r"^tqft\s+dim=(?P<dim>\d+)\s+backend=(?P<backend>rational|complex)\s*$")
_BODY_RE = re.compile(r"\s*(?P<name>[dp])\s+(?P<entry>.*)")
_DATA_LINE = "expected 'd <i> = <scalar>' or 'p <i> <j> <k> = <scalar>'"


def parse_tqft(text: str) -> TqftData:
    """Parse the data file format and build validated TqftData."""
    lines = numbered_lines(text)
    if not lines:
        raise ParseError("empty data file")
    lineno, header = lines[0]
    m = _TQFT_HEADER_RE.match(header.strip())
    if not m:
        raise ParseError("expected 'tqft dim=<n> backend=<rational|complex>'",
                         line=lineno, column=1)
    n = header_dimension(m.group("dim"), 3, lineno)
    backend = m.group("backend")
    bodies = {name: EntryReader(name, rank, n, backend, _DATA_LINE)
              for name, rank in (("d", 1), ("p", 3))}
    for lineno, line in lines[1:]:
        m = _BODY_RE.fullmatch(line)
        if not m:
            raise ParseError(_DATA_LINE, line=lineno, column=1)
        bodies[m.group("name")].read(m.group("entry"), lineno)
    try:
        return TqftData(bodies["d"].entries, bodies["p"].entries, backend)
    except RelationError as exc:
        raise ParseError(str(exc)) from exc


def format_tqft(data: TqftData) -> str:
    """Inverse of :func:`parse_tqft`; zero entries are omitted."""
    return "\n".join([f"tqft dim={data.dimension} backend={data.backend}"]
                     + entry_lines(data.d, "d ") + entry_lines(data.p, "p "))
