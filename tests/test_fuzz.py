"""Fuzzing of every input format and of the CLI.

Each parser, given a mutated valid text, either returns a value that
round-trips through its formatter or raises ParseError (or the documented
budget DimensionError).  Every subcommand of ``cli.main`` maps any data and
surface file contents to an exit code 0-3 with no traceback, a stderr of
bounded size and, on an error, nothing on stdout.  A refusal at a budget
edge allocates nothing of the refused size.

Headers are drawn from a list of variants instead of being mutated: a
mutated dimension anywhere up to the entry budget is valid input that takes
seconds to read, which would only slow the search.
"""

import cmath
import contextlib
import io
import itertools
import os
import random
import tempfile
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tqft2d import (
    COMPLEX,
    RATIONAL,
    BoundaryCircle,
    DimensionError,
    LabeledTensor,
    Pants,
    PantsDecomposition,
    ParseError,
    SignedIndex,
    Surface,
    TqftData,
    TqftError,
    circle,
    closed_invariant,
    diagonal_family,
    format_scalar,
    format_surface,
    format_tensor,
    format_tqft,
    invariant,
    pants_decomposition,
    parse_scalar,
    parse_surface,
    parse_tensor,
    parse_tqft,
    random_surface,
)
from tqft2d.cli import MESSAGE_SHOWN, _parse_pairs, main
from tqft2d.orientation import MINUS, PLUS
from tqft2d.tensor import MAX_ENTRIES, MAX_GENUS, SCALAR_SHOWN, contract_between

# -- mutations -----------------------------------------------------------------

EDITS = ("insert", "delete", "replace", "duplicate line", "swap lines")


def mutations(alphabet):
    return st.lists(st.tuples(st.sampled_from(EDITS), st.integers(0, 10 ** 6),
                              st.sampled_from(alphabet)), max_size=4)


def mutate(text, edits):
    """`text` after each (edit, position, piece) in turn."""
    for edit, position, piece in edits:
        if edit in ("duplicate line", "swap lines"):
            lines = text.split("\n")
            k = position % len(lines)
            if edit == "duplicate line":
                lines.insert(k, lines[k])
            else:
                lines[k], lines[k - 1] = lines[k - 1], lines[k]
            text = "\n".join(lines)
            continue
        k = position % (len(text) + 1)
        if edit == "insert":
            text = text[:k] + piece + text[k:]
        elif text:
            k = min(k, len(text) - 1)
            text = text[:k] + (piece if edit == "replace" else "") + text[k + 1:]
    return text


SCALAR_PIECES = list("0123456789+-/.ie ") + ["nan", "inf", "1/2", "-3", "\t", "_", "j"]
BODY_PIECES = SCALAR_PIECES + ["=", "\n", "d ", "p ", " 1", " = ", "x", "0" * 30]
SURFACE_PIECES = list("+-,[] =_ab12\n") + [
    "component ", "orient=+ ", "genus=1 ", "boundary=[", "+c", "\t", "x"]


def split_header(text):
    header, _, body = text.partition("\n")
    return header, body


# -- valid texts ---------------------------------------------------------------

def random_scalar(rng, backend):
    if rng.random() < 0.4:
        return 0
    if backend == RATIONAL:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return complex(rng.choice([0.0, -0.0, rng.uniform(-9, 9)]), rng.uniform(-9, 9))


def random_data(rng):
    backend = rng.choice([RATIONAL, COMPLEX])
    n = rng.randint(1, 3)
    p = [0] * n ** 3
    for _ in range(rng.randint(0, 4)):
        value = random_scalar(rng, backend)
        for i, j, k in itertools.permutations([rng.randrange(n) for _ in range(3)]):
            p[(i * n + j) * n + k] = value
    return TqftData([random_scalar(rng, backend) for _ in range(n)], p, backend)


def random_tensor(rng):
    backend = rng.choice([RATIONAL, COMPLEX])
    dim, rank = rng.randint(1, 3), rng.randint(0, 3)
    indices = [SignedIndex(f"l{k}", rng.choice([PLUS, MINUS]), dim) for k in range(rank)]
    return LabeledTensor(indices, [random_scalar(rng, backend) for _ in range(dim ** rank)],
                         backend)


@st.composite
def data_texts(draw):
    header, body = split_header(format_tqft(random_data(random.Random(draw(st.integers())))))
    header = draw(st.sampled_from([header] * 6 + [
        header.replace("dim=", "dim=0"), "  " + header + "\t", "tqft dim=0 backend=rational",
        "tqft dim=162 backend=complex", f"tqft dim={'9' * 5000} backend=rational",
        header.replace("rational", "complex"), header.rsplit(" ", 1)[0], "", "d 1 = 1"]))
    return header + "\n" + mutate(body, draw(mutations(BODY_PIECES)))


@st.composite
def tensor_texts(draw):
    header, body = split_header(format_tensor(random_tensor(random.Random(draw(st.integers())))))
    header = draw(st.sampled_from([header] * 6 + [
        header.replace("dim=", "dim=0"), header.replace("[", "[ ").replace(",", " , "),
        header.replace("]", ",+l0]"), header.replace("]", ",*z]"),
        header.replace("dim=", "dim=20"), f"tensor dim=2 indices=[{','.join(['+a'] * 23)}]",
        f"tensor dim={'9' * 5000} indices=[+a]", header.split(" ")[0], ""]))
    return header + "\n" + mutate(body, draw(mutations(BODY_PIECES + ["l0"])))


@st.composite
def surface_texts(draw):
    rng = random.Random(draw(st.integers()))
    text = format_surface(random_surface(rng, prefix=rng.choice("ab"), max_genus=2))
    return mutate(text, draw(mutations(SURFACE_PIECES)))


# -- parsers: round-trip or a documented refusal ---------------------------------

def parsed_or_refused(parse, text):
    """parse(text), or None when it is refused with a documented error."""
    try:
        return parse(text)
    except ParseError:
        return None
    except DimensionError as exc:
        assert "budget" in str(exc)
        return None


def same_scalars(a, b, backend):
    if backend == RATIONAL:
        return a == b
    return all(cmath.isclose(x, y, rel_tol=1e-11) for x, y in zip(a, b))


@given(data_texts())
@settings(max_examples=300, deadline=None)
def test_parse_tqft_round_trips_or_refuses(text):
    data = parsed_or_refused(parse_tqft, text)
    if data is None:
        return
    written = format_tqft(data)
    again = parse_tqft(written)
    assert format_tqft(again) == written
    assert again.backend == data.backend
    assert same_scalars(again.d.entries + again.p.entries,
                        data.d.entries + data.p.entries, data.backend)


@given(tensor_texts())
@settings(max_examples=300, deadline=None)
def test_parse_tensor_round_trips_or_refuses(text):
    tensor = parsed_or_refused(parse_tensor, text)
    if tensor is None:
        return
    written = format_tensor(tensor)
    again = parse_tensor(written, tensor.backend)
    assert format_tensor(again) == written
    assert again.indices == tensor.indices
    assert same_scalars(again.entries, tensor.entries, tensor.backend)


@given(surface_texts())
@settings(max_examples=300, deadline=None)
def test_parse_surface_round_trips_or_refuses(text):
    surface = parsed_or_refused(parse_surface, text)
    if surface is None:
        return
    written = format_surface(surface)
    assert parse_surface(written) == surface
    assert format_surface(parse_surface(written)) == written


@given(st.lists(st.sampled_from(SCALAR_PIECES), max_size=8).map("".join),
       st.sampled_from([RATIONAL, COMPLEX]))
@settings(max_examples=500)
def test_parse_scalar_round_trips_or_refuses(text, backend):
    value = parsed_or_refused(lambda t: parse_scalar(t, backend), text)
    if value is None:
        return
    written = format_scalar(value, backend)
    again = parse_scalar(written, backend)
    assert format_scalar(again, backend) == written
    assert same_scalars((again,), (value,), backend)


# -- the CLI: an exit code, never a traceback -------------------------------------

# The last pair names a valid label too long to be echoed whole.
PAIRS = ["a0:a1", "b0:b1,a0:a1", "a0:b0", "", "a0", ":", "zz:a0", "x" * 20_000 + ":a0"]

# Files that parse, so that the CLI gets past its parsers: random data, which
# mostly fail the relations, diagonal data, which pass them, and small surfaces.
VALID_DATA = st.one_of(
    st.integers().map(lambda seed: random_data(random.Random(seed))),
    st.lists(st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3)]),
             min_size=1, max_size=3).map(diagonal_family),
).map(format_tqft)
VALID_SURFACES = st.integers().map(lambda seed: format_surface(random_surface(
    random.Random(seed), prefix="a", max_total_boundary=4)))


# `number` is the genus, trial count or height, kept small for speed.
@given(st.one_of(data_texts(), VALID_DATA), st.one_of(surface_texts(), VALID_SURFACES),
       st.integers(0, 6), st.sampled_from(PAIRS), st.integers(-1, 3))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_cli_maps_any_file_to_an_exit_code(data_text, surface_text, choice, pairs, number):
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.tqft")
        surface = os.path.join(tmp, "surface.srf")
        with open(data, "w", encoding="utf-8") as handle:
            handle.write(data_text)
        with open(surface, "w", encoding="utf-8") as handle:
            handle.write(surface_text)
        argv = [["check", data], ["invariant", data, surface],
                ["closed", data, "--genus", str(number)], ["glue", surface, "--pairs", pairs],
                ["glue", surface, "--pairs", pairs, "--emit-tensor", data],
                ["verify", data, "--trials", str(number)],
                ["search", "--dim", "1", "--height", str(number)]][choice]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert (code in (2, 3)) == err.getvalue().startswith(("parse error: ", "error: "))
    # an error message is cut to MESSAGE_SHOWN characters plus its length
    assert len(err.getvalue()) <= MESSAGE_SHOWN + 100
    if code in (2, 3):
        assert out.getvalue() == ""


# -- budget edges allocate nothing -------------------------------------------------

T2 = TqftData([Fraction(2)], [Fraction(1, 2)])
WIDE = LabeledTensor([SignedIndex(f"a{k}", PLUS, 2) for k in range(12)], [Fraction(1)] * 4096)
WIDE_TOO = WIDE.relabel({f"a{k}": f"b{k}" for k in range(12)})


@pytest.mark.parametrize("refused", [
    lambda: parse_tqft("tqft dim=162 backend=rational\n"),
    lambda: parse_tqft(f"tqft dim={'9' * 5000} backend=rational\n"),
    lambda: parse_tensor(f"tensor dim=2 indices=[{','.join(f'+a{k}' for k in range(23))}]\n"),
    lambda: parse_tensor(f"tensor dim={MAX_ENTRIES + 1} indices=[+a]\n"),
    lambda: parse_surface(f"component orient=+ genus={MAX_GENUS + 1} boundary=[]\n"),
    lambda: parse_surface(f"component orient=+ genus={'9' * 5000} boundary=[]\n"),
    lambda: closed_invariant(T2, MAX_GENUS + 1),
    lambda: invariant(T2, Surface.connected(MAX_GENUS + 1, "+a,-b")),
    lambda: invariant(diagonal_family([1, 2]),
                      Surface.connected(0, ",".join(f"+a{k}" for k in range(23)))),
    lambda: LabeledTensor([SignedIndex(f"a{k}", PLUS, 2) for k in range(23)], []),
    lambda: contract_between(WIDE, WIDE_TOO, ()),
], ids=["data header", "data header digits", "literal rank", "literal dimension",
        "genus", "genus digits", "closed genus", "surface genus", "surface width",
        "construction", "contraction"])
def test_budget_edges_allocate_nothing(refused):
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError):
            refused()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each refused size above would take tens of megabytes or more
    assert peak < 1 << 20


def raised(call):
    with pytest.raises(TqftError) as err:
        call()
    return str(err.value)


# Each entry point that quotes an item of outside text, as a function of a
# bad item to the message that quotes it.
QUOTING = {
    "glue pairs": lambda item: raised(lambda: _parse_pairs(f"a:b,{item}")),
    "circle": lambda item: raised(lambda: circle(item)),
    "surface boundary": lambda item: raised(lambda: parse_surface(
        f"component orient=+ genus=0 boundary=[+a,{item}]")),
    "surface label": lambda item: Surface.connected(
        0, [BoundaryCircle(item, PLUS)]).validate()[0],
    "pants label": lambda item: PantsDecomposition(
        (Pants(("a", "b", item)),), frozenset({"a", "b", item}), frozenset()).validate()[0],
    "decomposition label": lambda item: raised(
        lambda: pants_decomposition(0, 3, labels=["a", "b", item])),
    "tensor index": lambda item: raised(
        lambda: parse_tensor(f"tensor dim=2 indices=[+a,{item}]")),
}


@pytest.mark.parametrize("entry", sorted(QUOTING))
def test_bad_items_are_quoted_in_bounded_size(entry):
    short = "?" * SCALAR_SHOWN
    assert repr(short) in QUOTING[entry](short)
    message = QUOTING[entry]("?" * 100_000)
    assert len(message) < 300
    assert message.endswith(("... of 100000 characters",
                             "... of 100000 characters; expected 'a:b'",
                             "... of 100000 characters; expected e.g. '+a'"))
