"""Dense multi-index tensors with labelled, sign-carrying indices.

Indices pair a label with an orientation sign; contraction is the Kronecker
pairing between one + and one - index (sum over the diagonal).  One fused
engine, :func:`contract_within` and :func:`contract_between`, does all
entry arithmetic; :meth:`LabeledTensor.contract` (one pair) and
:meth:`LabeledTensor.tensor_product` (no pairs) are entry points into it.
Entries live in one of two scalar backends:

* ``rational`` - exact ``fractions.Fraction`` arithmetic (the default for
  every correctness check; equality is exact),
* ``complex`` - double-precision complex floats, compared with the absolute
  tolerance ``DEFAULT_TOLERANCE`` (1e-9).

Mixing backends in one expression raises :class:`BackendError`.  All indices
of one tensor share a single dimension; storage is a flat row-major tuple of
``dimension ** rank`` entries.

A tensor is validated once, where it enters: ``LabeledTensor(...)`` checks
labels, dimension and entry count and coerces each entry to the backend's
exact type.  Tensors derived from valid ones (engine outputs, permutations,
sign flips, conjugates) are valid by construction and go through the
unchecked store ``LabeledTensor._of``; ``relabel`` validates, since its
mapping may merge labels.

Literal format for fixtures and CLI output (1-based entry indices, omitted
entries are zero)::

    tensor dim=2 indices=[+i,-j]
    1 1 = 1
    2 2 = 1/2

The entry-line grammar (:class:`EntryReader`, :func:`entry_lines`) is shared
with the ``tqft`` data format, whose ``d``/``p`` lines are entry lines after
a prefix; so are the ``+a,-b`` list reader (:func:`signed_labels`, also used
for surface boundaries) and the bounded decimal reader (:func:`read_decimal`)
that every numeric field goes through before ``int()``.
"""

from __future__ import annotations

import cmath
import itertools
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import BackendError, DimensionError, LabelError, OrientationError, ParseError
from .orientation import Orientation

RATIONAL = "rational"
COMPLEX = "complex"
DEFAULT_TOLERANCE = 1e-9
# Largest dense tensor the library allocates, in entries.  It bounds entries,
# not work or bytes.  A rational entry with small numerator and denominator
# takes about 124 B (measured with tracemalloc on dense4 outputs of 2**16 and
# 2**18 entries), so a tensor at the cap holds about 0.5 GB, extrapolated;
# larger numbers take more.
MAX_ENTRIES = 1 << 22
# Largest genus the library decomposes.  A pants network of genus g has
# 2g-2+n nodes and is built before any tensor, so the entry budget cannot
# bound its time and memory.
MAX_GENUS = 10_000

Scalar = Fraction | complex


# -- scalar backend helpers --------------------------------------------------

def detect_backend(values: Iterable) -> str:
    for v in values:
        if isinstance(v, (complex, float)):
            return COMPLEX
    return RATIONAL


def coerce_scalar(value, backend: str) -> Scalar:
    """`value` as the backend's exact scalar type; a value that already has
    that type is returned unchanged."""
    if backend == RATIONAL:
        if type(value) is Fraction:
            return value
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise BackendError(f"rational backend cannot hold {value!r}")
    if backend == COMPLEX:
        if type(value) is complex:
            return value
        if isinstance(value, (int, float, complex, Fraction)):
            return complex(value)
        raise BackendError(f"complex backend cannot hold {value!r}")
    raise BackendError(f"unknown backend {backend!r}")


def dense_size(dimension: int, rank: int) -> int:
    """Entry count of a dense tensor with `rank` indices of `dimension`;
    raises DimensionError, before anything is allocated, past MAX_ENTRIES."""
    size = 1
    for _ in range(rank):
        size *= dimension
        if size > MAX_ENTRIES:
            raise _over_budget(dimension, rank)
    return size


def header_dimension(digits: str, rank: int, lineno: int) -> int:
    """The decimal dimension `digits` of the text header on line `lineno`
    for `rank` indices.

    A dimension of 0 is a ParseError.  One with more digits than MAX_ENTRIES
    is over the budget at any positive rank, so it gets dense_size's
    DimensionError, which states its digit count.  A rank-0 tensor has one
    entry whatever its dimension and reads as dimension 1, the one
    format_tensor writes for it.
    """
    if not rank:
        return 1
    dim = read_decimal(digits, MAX_ENTRIES, lambda significant: _over_budget(
        f"of {len(significant)} digits", rank))
    if dim < 1:
        raise ParseError("dimension must be positive", line=lineno)
    return dim


def read_decimal(digits: str, bound: int, too_long) -> int:
    """The value of the decimal digit string `digits`.  One with more
    significant digits than `bound` raises ``too_long(significant)`` (its
    digits without leading zeros) before int() sees it, since int() refuses
    strings past 4300 digits with a ValueError."""
    significant = digits.lstrip("0")
    if len(significant) > len(str(bound)):
        raise too_long(significant)
    return int(significant or "0")


def _over_budget(dimension, rank: int) -> DimensionError:
    return DimensionError(
        f"a tensor with {rank} indices of dimension {dimension} "
        f"exceeds the budget of {MAX_ENTRIES} entries")


def genus_over_budget(genus) -> DimensionError:
    """The error for a genus past MAX_GENUS (`genus` may describe it)."""
    return DimensionError(f"genus {genus} exceeds the budget of {MAX_GENUS}")


def scalar_zero(backend: str) -> Scalar:
    return Fraction(0) if backend == RATIONAL else complex(0)


def scalars_equal(a: Scalar, b: Scalar, backend: str) -> bool:
    """The library's one comparison rule: rationals compare exactly, complex
    values within DEFAULT_TOLERANCE (so a NaN equals nothing)."""
    if backend == RATIONAL:
        return a == b
    return abs(a - b) <= DEFAULT_TOLERANCE


def format_scalar(value: Scalar, backend: str) -> str:
    """`value` as text.  An exact value whose numerator or denominator has
    more decimal digits than the interpreter prints (sys.get_int_max_str_digits,
    4300 by default) raises DimensionError; the limit is not lifted."""
    if backend == RATIONAL:
        try:
            return str(value)
        except ValueError:
            bits = value.numerator.bit_length() + value.denominator.bit_length()
            raise DimensionError(
                f"an exact result of {bits} bits exceeds the limit of "
                f"{sys.get_int_max_str_digits()} digits for printing an integer") from None
    return f"{value.real:.12g}{value.imag:+.12g}i"


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")
# Longest outside text (a scalar, label, ...) an error message quotes whole.
SCALAR_SHOWN = 100


def quoted(text: str) -> str:
    """`text` quoted for an error message: whole up to SCALAR_SHOWN
    characters, else its first SCALAR_SHOWN characters and its length."""
    if len(text) <= SCALAR_SHOWN:
        return repr(text)
    return f"{text[:SCALAR_SHOWN]!r}... of {len(text)} characters"


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ParseError(f"bad rational scalar {quoted(text)}; expected p or p/q")
    try:
        return Fraction(text)
    except ValueError:  # an integer past the interpreter's digit limit
        raise ParseError(f"rational scalar of {len(text)} characters exceeds the limit "
                         f"of {sys.get_int_max_str_digits()} digits per integer") from None


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` / ``a`` / ``bi`` with ordinary float syntax for a, b;
    whitespace is ignored.

    Non-finite values (nan, inf, or a literal that overflows) are rejected.
    """
    s = "".join(text.split())
    if not s:
        raise ParseError("empty complex scalar")
    try:
        value = complex(s[:-1] + "j") if s.endswith("i") else complex(float(s), 0.0)
    except ValueError:
        raise ParseError(f"bad complex scalar {quoted(text)}; expected a+bi") from None
    if not cmath.isfinite(value):
        raise ParseError(f"non-finite complex scalar {quoted(text)}")
    return value


def parse_scalar(text: str, backend: str) -> Scalar:
    return parse_rational(text) if backend == RATIONAL else parse_complex(text)


# -- tensors -----------------------------------------------------------------

@dataclass(frozen=True)
class SignedIndex:
    label: str
    sign: Orientation
    dimension: int

    def reversed(self) -> "SignedIndex":
        return SignedIndex(self.label, self.sign.reverse(), self.dimension)

    def __str__(self) -> str:
        return f"{self.sign}{self.label}"


class LabeledTensor:
    """Immutable dense tensor; all operations return new values."""

    __slots__ = ("indices", "entries", "backend")

    def __init__(self, indices: Sequence[SignedIndex], entries: Sequence,
                 backend: str | None = None):
        indices = tuple(indices)
        entries = tuple(entries)
        labels = [ix.label for ix in indices]
        if len(set(labels)) != len(labels):
            raise LabelError(f"repeated labels within one tensor: {labels}")
        dims = {ix.dimension for ix in indices}
        if len(dims) > 1:
            raise DimensionError(f"indices of mixed dimension: {sorted(dims)}")
        if indices and indices[0].dimension < 1:
            raise DimensionError("index dimension must be positive")
        if backend is None:
            backend = detect_backend(entries)
        expected = dense_size(indices[0].dimension if indices else 1, len(indices))
        entries = tuple(coerce_scalar(v, backend) for v in entries)
        if len(entries) != expected:
            raise DimensionError(
                f"need {expected} entries for indices {labels}, got {len(entries)}")
        self._store(indices, entries, backend)

    @classmethod
    def _of(cls, indices, entries, backend: str) -> "LabeledTensor":
        """The trusted constructor, which checks nothing.  Precondition: a tuple
        of indices with distinct labels and one positive dimension, and a
        tuple of ``dimension ** rank`` entries of the backend's exact type."""
        return object.__new__(cls)._store(indices, entries, backend)

    def _store(self, indices, entries, backend) -> "LabeledTensor":
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "backend", backend)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LabeledTensor is immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def scalar(value, backend: str | None = None) -> "LabeledTensor":
        return LabeledTensor((), (value,), backend)

    # -- basic queries ---------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.indices)

    @property
    def dimension(self) -> int | None:
        return self.indices[0].dimension if self.indices else None

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(ix.label for ix in self.indices)

    def position(self, label: str) -> int:
        for k, ix in enumerate(self.indices):
            if ix.label == label:
                return k
        raise LabelError(f"no index labelled {label}")

    def _strides(self) -> tuple[int, ...]:
        dim = self.dimension or 1
        rank = len(self.indices)
        return tuple(dim ** (rank - 1 - k) for k in range(rank))

    def assignments(self):
        dim = self.dimension or 1
        return itertools.product(range(dim), repeat=self.rank)

    # -- operations --------------------------------------------------------

    def tensor_product(self, other: "LabeledTensor") -> "LabeledTensor":
        """Outer product; index sequences concatenate."""
        return contract_between(self, other, ())

    __matmul__ = tensor_product

    def contract(self, a: str, b: str) -> "LabeledTensor":
        """Kronecker-pair the indices labelled `a` and `b` (sum the diagonal).

        The two indices must carry opposite signs; both disappear and the
        remaining index order is preserved.  Which member of the pair comes
        first does not matter.
        """
        return contract_within(self, [(a, b)])

    def permute_indices(self, perm: Sequence[int]) -> "LabeledTensor":
        """Reorder indices: output index k is input index perm[k] (axes
        convention, as in numpy.transpose)."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.rank)):
            raise ValueError(f"{perm} is not a permutation of 0..{self.rank - 1}")
        if perm == tuple(range(self.rank)):
            return self
        strides = self._strides()
        offsets = _offsets(self.dimension, [strides[p] for p in perm])
        return LabeledTensor._of(tuple(self.indices[p] for p in perm),
                                 tuple(self.entries[k] for k in offsets), self.backend)

    def flip_signs(self, labels: Iterable[str] | None = None) -> "LabeledTensor":
        """Negate index signs (all of them, or just `labels`); entries unchanged."""
        if labels is None:
            chosen = set(self.labels)
        else:
            chosen = set(labels)
            unknown = chosen - set(self.labels)
            if unknown:
                raise LabelError(f"no index labelled {sorted(unknown)}")
        indices = tuple(ix.reversed() if ix.label in chosen else ix
                        for ix in self.indices)
        return LabeledTensor._of(indices, self.entries, self.backend)

    def conjugate_entries(self) -> "LabeledTensor":
        """Complex-conjugate every entry (identity on the rational backend)."""
        if self.backend == RATIONAL:
            return self
        entries = tuple(v.conjugate() for v in self.entries)
        return LabeledTensor._of(self.indices, entries, self.backend)

    def relabel(self, mapping: Mapping[str, str]) -> "LabeledTensor":
        indices = tuple(
            SignedIndex(mapping.get(ix.label, ix.label), ix.sign, ix.dimension)
            for ix in self.indices)
        return LabeledTensor(indices, self.entries, self.backend)

    def canonical(self) -> "LabeledTensor":
        """Indices sorted by label; the normal form used to compare tensors
        whose index orders differ."""
        order = sorted(range(self.rank), key=lambda k: self.indices[k].label)
        return self.permute_indices(order)

    def equals(self, other: "LabeledTensor") -> bool:
        """True iff the index signatures match exactly and the entries agree
        by `scalars_equal`."""
        if not isinstance(other, LabeledTensor):
            return False
        if self.backend != other.backend or self.indices != other.indices:
            return False
        return all(scalars_equal(x, y, self.backend)
                   for x, y in zip(self.entries, other.entries))

    def __eq__(self, other):
        return self.equals(other)

    __hash__ = None

    def __repr__(self) -> str:
        sig = ",".join(str(ix) for ix in self.indices)
        return f"LabeledTensor([{sig}] dim={self.dimension} {self.backend})"

    def __str__(self) -> str:
        return format_tensor(self)


# -- the contraction engine ----------------------------------------------------
#
# The only code that multiplies or sums tensor entries; `contract` and
# `tensor_product` are entry points into it.  Several pairs are contracted in
# one pass, the full outer product is never materialised and zero factors are
# skipped, which keeps intermediate tensors small and exact-rational
# arithmetic cheap.

def _offsets(dim: int, strides: Sequence[int]) -> list[int]:
    """Flat offsets of every assignment of indices with these strides, in
    row-major order of the assignments."""
    offsets = [0]
    for stride in strides:
        offsets = [base + stride * v for base in offsets for v in range(dim)]
    return offsets


def _check_pairing(ia: SignedIndex, ib: SignedIndex) -> None:
    if ia.sign is ib.sign:
        raise OrientationError(
            f"cannot contract {ia} with {ib}: need opposite signs")


def contract_within(tensor: LabeledTensor,
                    pairs: Sequence[tuple[str, str]]) -> LabeledTensor:
    """Contract several +/- label pairs of one tensor at once; kept indices
    stay in order.  Same result as contracting the pairs one by one."""
    if not pairs:
        return tensor
    pa = [tensor.position(a) for a, _ in pairs]
    pb = [tensor.position(b) for _, b in pairs]
    used = set(pa + pb)
    if len(used) != 2 * len(pairs):
        raise LabelError(f"labels repeated across contraction pairs: {pairs}")
    for ka, kb in zip(pa, pb):
        _check_pairing(tensor.indices[ka], tensor.indices[kb])
    keep = [k for k in range(tensor.rank) if k not in used]
    dim = tensor.dimension
    strides = tensor._strides()
    kept_offsets = _offsets(dim, [strides[k] for k in keep])
    diag_offsets = _offsets(dim, [strides[ka] + strides[kb]
                                  for ka, kb in zip(pa, pb)])
    entries = tensor.entries
    zero = scalar_zero(tensor.backend)
    out = []
    for base in kept_offsets:
        acc = zero
        for off in diag_offsets:
            acc = acc + entries[base + off]
        out.append(acc)
    return LabeledTensor._of(tuple(tensor.indices[k] for k in keep), tuple(out),
                             tensor.backend)


def contract_between(left: LabeledTensor, right: LabeledTensor,
                     pairs: Sequence[tuple[str, str]]) -> LabeledTensor:
    """Contract label pairs (one label from `left`, one from `right`).

    Kept indices of `left` come first, then kept indices of `right`; with no
    pairs this is the outer product.
    """
    if left.backend != right.backend:
        raise BackendError(f"cannot mix {left.backend} and {right.backend} tensors")
    right_labels = right.labels
    overlap = set(left.labels).intersection(right_labels)
    if overlap:
        raise LabelError(f"label collision between tensors: {sorted(overlap)}")
    if left.indices and right.indices and left.dimension != right.dimension:
        raise DimensionError(
            f"dimension mismatch: {left.dimension} vs {right.dimension}")
    pa, pb = [], []
    for a, b in pairs:
        if a in right_labels:
            a, b = b, a
        pa.append(left.position(a))
        pb.append(right.position(b))
        _check_pairing(left.indices[pa[-1]], right.indices[pb[-1]])
    paired_left, paired_right = set(pa), set(pb)
    if len(paired_left) != len(pa) or len(paired_right) != len(pb):
        raise LabelError(f"labels repeated across contraction pairs: {pairs}")
    keep_left = [k for k in range(left.rank) if k not in paired_left]
    keep_right = [k for k in range(right.rank) if k not in paired_right]
    dim = left.dimension or right.dimension or 1
    dense_size(dim, len(keep_left) + len(keep_right))
    strides_left = left._strides()
    strides_right = right._strides()
    row_offsets = _offsets(dim, [strides_left[k] for k in keep_left])
    col_offsets = _offsets(dim, [strides_right[k] for k in keep_right])
    sum_left = _offsets(dim, [strides_left[k] for k in pa])
    sum_right = _offsets(dim, [strides_right[k] for k in pb])
    e1, e2 = left.entries, right.entries
    zero = scalar_zero(left.backend)
    cols = len(col_offsets)
    out = [zero] * (len(row_offsets) * cols)
    for o1, o2 in zip(sum_left, sum_right):
        for xi, ox in enumerate(row_offsets):
            a = e1[ox + o1]
            if a:
                base = xi * cols
                for yi, oy in enumerate(col_offsets):
                    b = e2[oy + o2]
                    if b:
                        out[base + yi] = out[base + yi] + a * b
    indices = tuple(left.indices[k] for k in keep_left) + tuple(
        right.indices[k] for k in keep_right)
    return LabeledTensor._of(indices, tuple(out), left.backend)


# -- literal format ----------------------------------------------------------

_TENSOR_HEADER_RE = re.compile(
    r"^tensor\s+dim=(?P<dim>\d+)\s+indices=\[(?P<indices>[^\]]*)\]\s*$")
LABEL_RE = re.compile(r"[A-Za-z0-9_]+")


def numbered_lines(text: str) -> list[tuple[int, str]]:
    """The non-blank lines of `text` with their 1-based numbers, unstripped,
    so that columns count from the start of the line."""
    return [(n, line) for n, line in enumerate(text.splitlines(), start=1)
            if line.strip()]


def signed_labels(text: str, bad) -> list[tuple[str, Orientation]]:
    """The comma-separated ``+a,-b`` list `text` as (label, sign) pairs; a
    blank `text` is the empty list.  A malformed item raises
    ``bad(item, column)``: the item stripped and its 0-based column in
    `text`."""
    if not text.strip():
        return []
    found = []
    start = 0
    for raw in text.split(","):
        item = raw.strip()
        if len(item) < 2 or item[0] not in "+-" or not LABEL_RE.fullmatch(item[1:]):
            raise bad(item, start + len(raw) - len(raw.lstrip()))
        found.append((item[1:], Orientation(item[0])))
        start += len(raw) + 1
    return found


class EntryReader:
    """Reads the ``<i> <j> ... = <scalar>`` lines of one tensor body with
    `rank` indices of dimension `dim` into dense row-major `entries`.

    Each index is a decimal digit string in 1..dim, refused from its digits
    when it has more of them than `dim`, and no entry may be given twice.
    `name` names the body in errors; `expected` is the error for a line that
    is not an entry line.
    """

    def __init__(self, name: str, rank: int, dim: int, backend: str, expected: str):
        self.name, self.rank, self.dim = name, rank, dim
        self.backend, self.expected = backend, expected
        self.entries = [scalar_zero(backend)] * dense_size(dim, rank)
        self.filled: set[int] = set()

    def read(self, text: str, lineno: int) -> None:
        left, eq, right = text.partition("=")
        fields = left.split()
        if not eq or not all(field.isdecimal() for field in fields):
            raise ParseError(self.expected, line=lineno, column=1)
        if len(fields) != self.rank:
            raise ParseError(f"expected {self.rank} indices, got {len(fields)}",
                             line=lineno, column=1)
        name, dim, flat = self.name, self.dim, 0
        for field in fields:
            value = read_decimal(field, dim, lambda _: ParseError(
                f"{name} index of {len(field)} digits out of range 1..{dim}", line=lineno))
            if not 1 <= value <= dim:
                raise ParseError(f"{name} index {value} out of range 1..{dim}", line=lineno)
            flat = flat * dim + value - 1
        if flat in self.filled:
            key = " ".join(field.lstrip("0") for field in fields)
            raise ParseError(f"duplicate {name} entry {key}".rstrip(), line=lineno)
        self.filled.add(flat)
        try:
            self.entries[flat] = parse_scalar(right.strip(), self.backend)
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from None


def entry_lines(tensor: LabeledTensor, prefix: str = "") -> list[str]:
    """The entry lines of the nonzero entries of `tensor`, in row-major
    order, each after `prefix`; the inverse of :class:`EntryReader`."""
    backend = tensor.backend
    names = [str(v) for v in range(1, (tensor.dimension or 1) + 1)]
    return [f"{prefix}{' '.join(assign)} = {format_scalar(value, backend)}".lstrip()
            for assign, value in zip(itertools.product(names, repeat=tensor.rank),
                                     tensor.entries)
            if value]


def parse_tensor(text: str, backend: str | None = None) -> LabeledTensor:
    """Parse the literal format. Backend is auto-detected from the scalar
    syntax unless given explicitly: a literal with no `i` or `.` in its
    scalars reads as rational, so a complex tensor whose entries are all
    zero, which format_tensor writes with no entry lines, reads back as
    rational unless `backend` is given."""
    lines = numbered_lines(text)
    if not lines:
        raise ParseError("empty tensor literal")
    lineno, header = lines[0]
    m = _TENSOR_HEADER_RE.match(header.strip())
    if not m:
        raise ParseError("expected 'tensor dim=<n> indices=[...]'", line=lineno, column=1)
    signs = signed_labels(m.group("indices"),
                          lambda item, _: ParseError(f"bad index {quoted(item)}", line=lineno))
    rank = len(signs)
    dim = header_dimension(m.group("dim"), rank, lineno)
    if len({label for label, _ in signs}) != rank:
        raise ParseError("repeated index label", line=lineno)
    indices = tuple(SignedIndex(label, sign, dim) for label, sign in signs)
    if backend is None:
        scalars = [s.rsplit("=", 1)[1] for _, s in lines[1:] if "=" in s]
        backend = COMPLEX if any(("i" in s or "." in s) for s in scalars) else RATIONAL
    body = EntryReader("tensor", rank, dim, backend, "expected '<i> <j> ... = <scalar>'")
    for lineno, line in lines[1:]:
        body.read(line, lineno)
    return LabeledTensor(indices, body.entries, backend)


def format_tensor(tensor: LabeledTensor) -> str:
    """Inverse of :func:`parse_tensor`; zero entries are omitted."""
    body = ",".join(str(ix) for ix in tensor.indices)
    return "\n".join([f"tensor dim={tensor.dimension or 1} indices=[{body}]"]
                     + entry_lines(tensor))
