import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqft2d import (
    COMPLEX,
    DEFAULT_TOLERANCE,
    MINUS,
    PLUS,
    BackendError,
    DimensionError,
    LabelError,
    LabeledTensor,
    OrientationError,
    ParseError,
    RATIONAL,
    SignedIndex,
    format_scalar,
    format_tensor,
    parse_scalar,
    parse_tensor,
)
import tqft2d.tensor as tensor_module
from tqft2d.tensor import (
    MAX_ENTRIES,
    SCALAR_SHOWN,
    contract_between,
    contract_within,
    dense_size,
    header_dimension,
    parse_complex,
    parse_rational,
)


def idx(spec: str, dim: int) -> tuple[SignedIndex, ...]:
    """'+a -b' shorthand for an index tuple."""
    out = []
    for part in spec.split():
        out.append(SignedIndex(part[1:], PLUS if part[0] == "+" else MINUS, dim))
    return tuple(out)


def rational(spec, dim, entries):
    return LabeledTensor(idx(spec, dim), [Fraction(v) for v in entries])


class TestTensorProduct:
    def test_scalar_one_is_a_unit(self):
        t = rational("+a -b", 2, [1, 2, 3, 4])
        assert LabeledTensor.scalar(1).tensor_product(t) == t
        assert t.tensor_product(LabeledTensor.scalar(1)) == t

    def test_outer_product_by_hand(self):
        d = rational("+a", 2, [2, 3])
        dd = d.tensor_product(rational("+b", 2, [2, 3]))
        # ((4, 6), (6, 9)) in row-major order
        assert dd.entries == (4, 6, 6, 9)
        assert dd.labels == ("a", "b")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            rational("+a", 2, [1, 2]).tensor_product(rational("+b", 3, [1, 2, 3]))

    def test_label_collision(self):
        with pytest.raises(LabelError):
            rational("+a", 2, [1, 2]).tensor_product(rational("-a", 2, [1, 2]))

    def test_backend_mixing_rejected(self):
        t = rational("+a", 2, [1, 2])
        c = LabeledTensor(idx("-b", 2), [1.0, 2.0])
        with pytest.raises(BackendError):
            t.tensor_product(c)


class TestContract:
    def test_trace(self):
        c = rational("-i +j", 2, [1, 2, 3, 4])
        assert c.contract("i", "j").entries == (5,)

    def test_identity_trace_is_dimension(self):
        n = 3
        delta = LabeledTensor(
            idx("-i +j", n),
            [Fraction(1 if a == b else 0)
             for a, b in itertools.product(range(n), repeat=2)])
        assert delta.contract("i", "j").entries == (n,)

    def test_same_sign_rejected(self):
        t = rational("+a +b", 2, [1, 2, 3, 4])
        with pytest.raises(OrientationError):
            t.contract("a", "b")

    def test_missing_label(self):
        with pytest.raises(LabelError):
            rational("+a -b", 2, [1, 2, 3, 4]).contract("a", "zz")

    def test_label_in_two_pairs_rejected(self):
        with pytest.raises(LabelError, match="repeated across contraction pairs"):
            contract_within(rational("+a -b +c", 2, range(8)), [("a", "b"), ("b", "c")])
        with pytest.raises(LabelError, match="repeated across contraction pairs"):
            contract_between(rational("+a +b", 2, range(4)), rational("-x", 2, range(2)),
                             [("a", "x"), ("b", "x")])

    def test_pair_order_is_immaterial(self):
        t = rational("+a -b +c", 2, range(8))
        assert t.contract("a", "b") == t.contract("b", "a")

    def test_remaining_order_preserved(self):
        t = rational("+a -b +c", 2, range(8))
        assert t.contract("a", "b").labels == ("c",)


class TestPermute:
    def test_identity(self):
        t = rational("+a -b", 2, [1, 2, 3, 4])
        assert t.permute_indices([0, 1]) == t

    def test_transpose_by_hand(self):
        t = rational("+a -b", 2, [1, 2, 3, 4])
        got = t.permute_indices([1, 0])
        assert got.entries == (1, 3, 2, 4)
        assert got.labels == ("b", "a")

    def test_three_cycle_has_order_three(self):
        t = rational("+a +b +c", 2, range(8))
        cycled = t
        for _ in range(3):
            cycled = cycled.permute_indices([1, 2, 0])
        assert cycled == t

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            rational("+a -b", 2, [1, 2, 3, 4]).permute_indices([0, 0])


class TestFlipAndConjugate:
    def test_flip_rank0(self):
        s = LabeledTensor.scalar(Fraction(3, 4))
        assert s.flip_signs() == s

    def test_flip_is_an_involution(self):
        t = rational("+a -b", 2, [1, 2, 3, 4])
        assert t.flip_signs().flip_signs() == t

    def test_flip_keeps_entries(self):
        d = rational("+a", 2, [2, 3])
        flipped = d.flip_signs()
        assert flipped.entries == d.entries
        assert flipped.indices[0].sign is MINUS

    def test_flip_selected_labels_only(self):
        t = rational("+a -b", 2, [1, 2, 3, 4])
        got = t.flip_signs(["b"])
        assert [ix.sign for ix in got.indices] == [PLUS, PLUS]

    def test_flip_of_an_unknown_label_rejected(self):
        with pytest.raises(LabelError, match="no index labelled"):
            rational("+a -b", 2, [1, 2, 3, 4]).flip_signs(["zz"])

    def test_conjugate_is_identity_on_rationals(self):
        t = rational("+a", 2, [1, 2])
        assert t.conjugate_entries() == t

    def test_conjugate_by_hand(self):
        t = LabeledTensor(idx("+a", 1), [1 + 2j])
        assert t.conjugate_entries().entries == (1 - 2j,)

    def test_conjugate_involution(self):
        t = LabeledTensor(idx("+a -b", 2), [1 + 2j, -1j, 0.5, 2])
        assert t.conjugate_entries().conjugate_entries() == t

    def test_flip_and_conjugate_commute(self):
        t = LabeledTensor(idx("+a -b", 2), [1 + 2j, -1j, 0.5, 2])
        assert t.flip_signs().conjugate_entries() == t.conjugate_entries().flip_signs()


class TestEquality:
    def test_self_equality(self):
        t = rational("+a -b", 2, [1, 2, 3, 4])
        assert t.equals(t)

    def test_within_tolerance(self):
        a = LabeledTensor(idx("+a -b", 2), [1.0, 0.0, 0.0, 1.0])
        b = LabeledTensor(idx("+a -b", 2), [1.0, 1e-12, 0.0, 1.0])
        c = LabeledTensor(idx("+a -b", 2), [1.0, 1e-6, 0.0, 1.0])
        assert a.equals(b)  # 1e-12 apart, within DEFAULT_TOLERANCE
        assert not a.equals(c)  # 1e-6 apart

    def test_index_order_matters(self):
        a = rational("+a -b", 2, [1, 2, 2, 1])
        b = rational("-b +a", 2, [1, 2, 2, 1])
        assert not a.equals(b)
        assert a.canonical().equals(b.canonical())

    def test_rational_is_exact(self):
        a = rational("+a", 1, [Fraction(1, 3)])
        b = rational("+a", 1, [Fraction(333333, 1000000)])
        assert not a.equals(b)


class TestBackends:
    def test_rational_rejects_floats(self):
        with pytest.raises(BackendError):
            LabeledTensor(idx("+a", 2), [0.5, 1], backend=RATIONAL)

    def test_detection(self):
        assert LabeledTensor(idx("+a", 2), [1, 2]).backend == RATIONAL
        assert LabeledTensor(idx("+a", 2), [1.0, 2]).backend == COMPLEX

    def test_entries_may_be_a_generator(self):
        # detecting the backend must not use up entries that can be read once
        for values, backend in [([1, 2], RATIONAL), ([1.0, 2], COMPLEX)]:
            tensor = LabeledTensor(idx("+a", 2), (v for v in values))
            assert tensor.backend == backend and tensor.entries == (1, 2)

    def test_entry_count_checked(self):
        with pytest.raises(DimensionError):
            LabeledTensor(idx("+a", 2), [1, 2, 3])

    def test_repeated_labels_rejected(self):
        with pytest.raises(LabelError):
            LabeledTensor(idx("+a -a", 2), [1, 2, 3, 4])


class TestValidatingConstructor:
    """The public constructor checks everything (TestBackends covers repeated
    labels, the entry count and floats in a rational tensor); the trusted
    store is private."""

    @pytest.mark.parametrize("indices,entries,backend,error", [
        (idx("+a", 2) + idx("-b", 3), [0] * 6, None, DimensionError),
        (idx("+a", 0), [], None, DimensionError),
        (idx("+a", 2), ["1", 2], COMPLEX, BackendError),
        (idx("+a", 2), [1, 2], "quaternion", BackendError),
    ], ids=["mixed dimensions", "dimension 0", "string in complex", "unknown backend"])
    def test_bad_input_raises(self, indices, entries, backend, error):
        with pytest.raises(error):
            LabeledTensor(indices, entries, backend)

    def test_trusted_store_is_not_public(self):
        import tqft2d
        assert "_of" not in tqft2d.__all__
        stored = LabeledTensor._of(idx("+a", 2), (Fraction(1), Fraction(2)), RATIONAL)
        assert stored == rational("+a", 2, [1, 2])
        with pytest.raises(AttributeError):
            stored.entries = ()


class TestScalarFormat:
    def test_rational_round_trip(self):
        for text in ["0", "7", "-3", "1/4", "-22/7"]:
            assert str(parse_rational(text)) == text

    def test_rational_rejects_floats(self):
        with pytest.raises(ParseError):
            parse_rational("1.5")

    def test_complex_round_trip(self):
        for value in [1 + 2j, -0.5 - 0.25j, 3 + 0j, 1e-11 + 2e3j]:
            text = format_scalar(value, COMPLEX)
            assert parse_complex(text) == pytest.approx(value)

    def test_complex_shorthand(self):
        assert parse_complex("2i") == 2j
        assert parse_complex("-i") == -1j
        assert parse_complex("1.5") == 1.5
        assert parse_complex("1-2i") == 1 - 2j

    @pytest.mark.parametrize("text", [
        "nan", "NaN", "-nan", "+nan", "inf", "-inf", "+inf", "Inf", "infinity",
        "-Infinity", "INFINITY", "1e400", "nani", "-infi", "1+infi", "infinityi",
        "nan+1i", "1-1e999i"])
    def test_complex_rejects_non_finite(self, text):
        with pytest.raises(ParseError):
            parse_complex(text)

    def test_parse_scalar_respects_backend(self):
        assert parse_scalar("1/2", RATIONAL) == Fraction(1, 2)
        assert parse_scalar("1+0i", COMPLEX) == 1 + 0j

    @pytest.mark.parametrize("backend,expected", [(RATIONAL, "p or p/q"),
                                                  (COMPLEX, "a+bi")])
    def test_bad_scalar_is_quoted_whole_up_to_the_bound(self, backend, expected):
        for text in ["x", "y" * SCALAR_SHOWN]:
            with pytest.raises(ParseError) as err:
                parse_scalar(text, backend)
            assert str(err.value) == f"bad {backend} scalar {text!r}; expected {expected}"

    @pytest.mark.parametrize("backend,expected", [(RATIONAL, "p or p/q"),
                                                  (COMPLEX, "a+bi")])
    def test_long_bad_scalar_quotes_a_prefix_and_its_length(self, backend, expected):
        for length in [SCALAR_SHOWN + 1, 3000, 100_000]:
            with pytest.raises(ParseError) as err:
                parse_scalar("x" * length, backend)
            assert str(err.value) == (f"bad {backend} scalar {'x' * SCALAR_SHOWN!r}... "
                                      f"of {length} characters; expected {expected}")

    def test_long_non_finite_scalar_quotes_a_prefix_and_its_length(self):
        text = "0" * 3000 + "1e400"
        with pytest.raises(ParseError) as err:
            parse_complex(text)
        assert str(err.value) == (f"non-finite complex scalar {'0' * SCALAR_SHOWN!r}... "
                                  "of 3005 characters")


class TestLiteralFormat:
    def test_round_trip_rational(self):
        t = rational("+i -j", 2, [1, 0, Fraction(1, 2), 4])
        assert parse_tensor(format_tensor(t)) == t

    def test_round_trip_rank0(self):
        t = LabeledTensor.scalar(Fraction(-5, 3))
        assert parse_tensor(format_tensor(t)) == t

    def test_round_trip_complex(self):
        t = LabeledTensor(idx("+i", 2), [1 + 2j, -0.5j])
        assert parse_tensor(format_tensor(t)).equals(t)

    def test_omitted_entries_are_zero(self):
        t = parse_tensor("tensor dim=2 indices=[+i,-j]\n1 1 = 5")
        assert t.entries == (5, 0, 0, 0)

    def test_header_errors(self):
        with pytest.raises(ParseError):
            parse_tensor("bogus")
        with pytest.raises(ParseError):
            parse_tensor("tensor dim=2 indices=[+i]\n1 2 3 = 4")

    def test_out_of_range_entry(self):
        with pytest.raises(ParseError):
            parse_tensor("tensor dim=2 indices=[+i]\n3 = 1")

    def test_duplicate_entry(self):
        with pytest.raises(ParseError):
            parse_tensor("tensor dim=2 indices=[+i]\n1 = 1\n1 = 2")

    def test_index_too_long_for_int_is_refused_from_its_digits(self):
        with pytest.raises(ParseError) as err:
            parse_tensor(f"tensor dim=2 indices=[+a]\n{'9' * 5000} = 1\n")
        assert err.value.line == 2
        assert str(err.value) == "line 2: tensor index of 5000 digits out of range 1..2"
        assert len(str(err.value)) < 200

    @pytest.mark.parametrize("field", ["+1", "0_2", "-1", "1.0", "0x1"])
    def test_index_is_a_digit_string(self, field):
        with pytest.raises(ParseError, match="^line 3, col 1: expected '<i> <j>"):
            parse_tensor(f"tensor dim=2 indices=[+a,-b]\n1 1 = 1\n1 {field} = 2\n")

    @pytest.mark.parametrize("line,message", [
        ("0 1 = 1", "tensor index 0 out of range 1..2"),
        ("1 3 = 1", "tensor index 3 out of range 1..2"),
        ("1 = 1", "expected 2 indices, got 1"),
        ("1 2 = 1\n2 1 = 1\n0001 02 = 1", "duplicate tensor entry 1 2")])
    def test_entry_errors_name_the_first_bad_line(self, line, message):
        with pytest.raises(ParseError, match=f"^line {line.count(chr(10)) + 2}(, col 1)?: "
                                             f"{message}$"):
            parse_tensor(f"tensor dim=2 indices=[+a,-b]\n{line}\n")

    def test_writer_omits_zeros_in_row_major_order(self):
        t = rational("+a -b", 2, [0, Fraction(1, 2), 3, 0])
        assert format_tensor(t) == "tensor dim=2 indices=[+a,-b]\n1 2 = 1/2\n2 1 = 3"
        assert format_tensor(LabeledTensor.scalar(Fraction(-5, 3))) == (
            "tensor dim=1 indices=[]\n= -5/3")
        z = LabeledTensor(idx("+a", 3), [0j, -0.0 + 0j, 1.5 - 2j])
        assert format_tensor(z) == "tensor dim=3 indices=[+a]\n3 = 1.5-2i"

    def test_bad_scalar_names_its_line(self):
        with pytest.raises(ParseError) as err:
            parse_tensor("tensor dim=2 indices=[+a]\n1 = 1\n2 = 1.5x\n", RATIONAL)
        assert str(err.value) == "line 3: bad rational scalar '1.5x'; expected p or p/q"

    def test_long_bad_scalar_names_its_line_in_bounded_size(self):
        with pytest.raises(ParseError) as err:
            parse_tensor("tensor dim=2 indices=[+a]\n1 = 1\n2 = " + "y" * 3000)
        assert err.value.line == 3
        assert str(err.value) == (f"line 3: bad rational scalar {'y' * SCALAR_SHOWN!r}... "
                                  "of 3000 characters; expected p or p/q")
        assert len(str(err.value)) < 200

    def test_index_leading_zeros_are_not_digits_of_size(self):
        t = parse_tensor(f"tensor dim=2 indices=[+a]\n{'0' * 5000}2 = 1\n")
        assert t.entries == (0, 1)
        with pytest.raises(ParseError, match="^line 2: tensor index 3 out of range 1..2$"):
            parse_tensor("tensor dim=2 indices=[+a]\n003 = 1\n")

    def test_header_errors_come_before_entry_errors(self):
        for header, message in [("tensor dim=0 indices=[+a]", "dimension must be positive"),
                                ("tensor dim=2 indices=[+a,-a]", "repeated index label")]:
            with pytest.raises(ParseError, match=f"^line 1: {message}$"):
                parse_tensor(f"{header}\nnot an entry\n")

    def test_rational_past_the_digit_limit_is_a_parse_error(self):
        with pytest.raises(ParseError, match="rational scalar of 5002 characters exceeds"):
            parse_rational("1/" + "7" * 5000)

    def test_print_limit(self):
        value = 1 + Fraction(2) ** -19998
        with pytest.raises(DimensionError) as err:
            format_scalar(value, RATIONAL)
        assert str(err.value) == ("an exact result of 39998 bits exceeds the limit of "
                                  "4300 digits for printing an integer")
        assert format_scalar(Fraction(1, 10 ** 4299), RATIONAL) == f"1/1{'0' * 4299}"


# -- the complex scalar parser against the one it replaced -------------------

def reference_parse_complex(text: str) -> complex:
    """The hand-written a+bi splitter that parse_complex replaced."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty complex scalar")
    try:
        if not s.endswith("i"):
            value = complex(float(s), 0.0)
        else:
            body = s[:-1]
            # split at the last +/- that is neither leading nor an exponent sign
            split = -1
            for k in range(len(body) - 1, 0, -1):
                if body[k] in "+-" and body[k - 1] not in "eE":
                    split = k
                    break
            if split == -1:
                real_part, imag_part = "0", body
            else:
                real_part, imag_part = body[:split], body[split:]
            if imag_part in ("", "+"):
                imag = 1.0
            elif imag_part == "-":
                imag = -1.0
            else:
                imag = float(imag_part)
            value = complex(float(real_part), imag)
    except ValueError:
        raise ParseError(f"bad complex scalar {text!r}; expected a+bi") from None
    if not cmath.isfinite(value):
        raise ParseError(f"non-finite complex scalar {text!r}")
    return value


def complex_outcome(parse, text):
    """The value's bits (the sign of each part, zeros included) or the error."""
    try:
        value = parse(text)
    except ParseError as exc:
        return "error", str(exc)
    return ("value", math.copysign(1.0, value.real), abs(value.real),
            math.copysign(1.0, value.imag), abs(value.imag))


COMPLEX_PIECES = list("0123456789.eE+-ij()_ ") + [
    "nan", "inf", "infinity", "Infinity", "1e308", "1e400", "\u0661", "\t", "\xa0"]


def assert_matches_reference(text):
    got = complex_outcome(parse_complex, text)
    expected = complex_outcome(reference_parse_complex, text)
    if not any(c.isspace() for c in text.strip().replace(" ", "")):
        assert got == expected
        return
    # Whitespace other than spaces inside the text: the reference split
    # around it and float() stripped it from each part, so it accepted some
    # such texts; parse_complex ignores all whitespace.  Whatever the
    # reference accepts keeps its bits.
    if expected[0] == "value":
        assert got == expected
    assert got[0] == complex_outcome(reference_parse_complex, "".join(text.split()))[0]


@given(st.lists(st.sampled_from(COMPLEX_PIECES), max_size=10).map("".join))
@settings(max_examples=1500)
def test_parse_complex_matches_the_reference(text):
    assert_matches_reference(text)


@pytest.mark.parametrize("text", [
    "i", "-i", "+i", "-0i", "-0", "0-0i", "-0-0i", "1-i", "1e5+2e-3i", "1e+5i", "1E-5-i",
    "1_0i", "(1+2i)", "1+2j", "1ji", "--1i", "1+-2i", "e+1i", "1e+i", " 1 + 2 i ",
    "\u0661+\u0662i", "1\t+2i", "2\ti", "1\t.5", "infi", "1+nani", ""])
def test_parse_complex_edges_match_the_reference(text):
    assert_matches_reference(text)


# -- brute-force oracle --------------------------------------------------------
#
# An independent dictionary-of-assignments implementation of contraction:
# plain nested loops over every joint assignment, no strides, no zero skips.

def to_dict(tensor):
    return dict(zip(tensor.assignments(), tensor.entries))


def oracle_pairing(tensors, pairs):
    """Contract the outer product of `tensors` (one or two) along `pairs`.

    Returns the kept labels in order and {kept assignment: value}: the sum,
    over every joint assignment on which both labels of each pair agree, of
    the product of the tensors' entries.  No pairs gives the outer product.
    """
    labels = [label for t in tensors for label in t.labels]
    dim = next((t.dimension for t in tensors if t.dimension), 1)
    tables = [to_dict(t) for t in tensors]
    paired = [(labels.index(a), labels.index(b)) for a, b in pairs]
    used = {k for pair in paired for k in pair}
    keep = [k for k in range(len(labels)) if k not in used]
    out = {}
    for assign in itertools.product(range(dim), repeat=len(labels)):
        key = tuple(assign[k] for k in keep)
        out.setdefault(key, 0)
        if all(assign[x] == assign[y] for x, y in paired):
            value, offset = 1, 0
            for t, table in zip(tensors, tables):
                value = value * table[assign[offset:offset + t.rank]]
                offset += t.rank
            out[key] = out[key] + value
    return tuple(labels[k] for k in keep), out


def assert_matches_oracle(got, tensors, pairs):
    labels, expected = oracle_pairing(tensors, pairs)
    assert got.labels == labels
    values = to_dict(got)
    assert values.keys() == expected.keys()
    for assign, value in expected.items():
        if got.backend == RATIONAL:
            assert values[assign] == value
        else:
            assert abs(values[assign] - value) <= DEFAULT_TOLERANCE


def random_rational_tensor(rng, spec, dim):
    return LabeledTensor(idx(spec, dim),
                         [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(dim ** len(spec.split()))])


@pytest.mark.parametrize("rank1,rank2", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_contract_of_product_matches_bruteforce_oracle(rank1, rank2, dim):
    rng = random.Random(f"{rank1}:{rank2}:{dim}")
    names1 = "abc"[:rank1]
    names2 = "xyz"[:rank2]
    spec1 = " ".join(f"+{n}" for n in names1)
    spec2 = " ".join(f"-{n}" for n in names2)
    for _ in range(3):
        t1 = random_rational_tensor(rng, spec1, dim)
        t2 = random_rational_tensor(rng, spec2, dim)
        got = t1.tensor_product(t2).contract("a", "x")
        assert_matches_oracle(got, [t1, t2], [("a", "x")])


def test_fused_contractions_match_iterated(apply_pairs=(("a", "x"), ("c", "z"))):
    """Fused multi-pair contraction against the oracle, which contracts the
    pairs of the full outer product by brute force."""
    rng = random.Random(99)
    t1 = random_rational_tensor(rng, "+a +b -c", 3)
    t2 = random_rational_tensor(rng, "-x -y +z", 3)
    assert_matches_oracle(contract_between(t1, t2, list(apply_pairs)),
                          [t1, t2], apply_pairs)

    w = random_rational_tensor(rng, "+p -q +r -s", 2)
    pairs = [("p", "q"), ("r", "s")]
    assert_matches_oracle(contract_within(w, pairs), [w], pairs)


# Zero-heavy entries exercise the engine's zero-skipping paths.
RATIONAL_ENTRIES = st.sampled_from(
    [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])
COMPLEX_ENTRIES = st.sampled_from([0, 0, 0, 1, -1j, 0.5 + 2j, -1.25, 1e-3 - 1j])


@st.composite
def tensors_of(draw, prefix, dim, backend):
    rank = draw(st.integers(0, 3))
    indices = tuple(SignedIndex(f"{prefix}{k}", draw(st.sampled_from([PLUS, MINUS])), dim)
                    for k in range(rank))
    values = RATIONAL_ENTRIES if backend == RATIONAL else COMPLEX_ENTRIES
    entries = draw(st.lists(values, min_size=dim ** rank, max_size=dim ** rank))
    return LabeledTensor(indices, entries, backend)


def draw_pairs(draw, left, right, within):
    """Random +/- label pairs, each label used at most once; `within` pairs
    the indices of `left` among themselves."""
    pairs, taken = [], set()
    for k, ix in enumerate(left):
        options = [iy for iy in (left[k + 1:] if within else right)
                   if iy.sign is not ix.sign and iy.label not in taken]
        if ix.label in taken or not options or not draw(st.booleans()):
            continue
        iy = draw(st.sampled_from(options))
        taken |= {ix.label, iy.label}
        pairs.append((ix.label, iy.label) if draw(st.booleans()) else (iy.label, ix.label))
    return pairs


@st.composite
def contraction_cases(draw):
    backend = draw(st.sampled_from([RATIONAL, COMPLEX]))
    dim = draw(st.integers(1, 3))
    left = draw(tensors_of("a", dim, backend))
    right = draw(tensors_of("b", dim, backend))
    between = draw_pairs(draw, left.indices, right.indices, within=False)
    within = draw_pairs(draw, left.indices, (), within=True)
    return left, right, between, within


@given(contraction_cases())
@settings(max_examples=150, deadline=None)
def test_engine_entry_points_match_oracle(case):
    left, right, between, within = case
    assert_matches_oracle(left.tensor_product(right), [left, right], [])
    assert_matches_oracle(left @ right, [left, right], [])
    assert_matches_oracle(contract_between(left, right, between), [left, right], between)
    assert_matches_oracle(contract_within(left, within), [left], within)
    for a, b in within:
        assert_matches_oracle(left.contract(a, b), [left], [(a, b)])


def derived_tensors(left, right, between, within, perm, flips):
    """Every way of deriving a tensor from valid ones without the checks of
    the public constructor."""
    yield contract_between(left, right, between)
    yield contract_between(left, right, ())
    yield contract_within(left, within)
    yield left @ right
    for a, b in within:
        yield left.contract(a, b)
    yield left.permute_indices(perm)
    yield left.flip_signs()
    yield left.flip_signs(flips)
    yield left.conjugate_entries()


@given(contraction_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_unchecked_outputs_equal_validated_rebuilds(case, data):
    left, right, between, within = case
    perm = data.draw(st.permutations(range(left.rank)))
    flips = data.draw(st.lists(st.sampled_from(left.labels), unique=True)
                      if left.rank else st.just([]))
    for tensor in derived_tensors(left, right, between, within, perm, flips):
        rebuilt = LabeledTensor(tensor.indices, tensor.entries, tensor.backend)
        assert type(tensor.indices) is tuple and type(tensor.entries) is tuple
        assert rebuilt.indices == tensor.indices
        assert rebuilt.backend == tensor.backend
        assert rebuilt.entries == tensor.entries
        assert [type(v) for v in rebuilt.entries] == [type(v) for v in tensor.entries]


# -- hypothesis properties -----------------------------------------------------

@given(st.permutations(range(3)), st.permutations(range(3)), st.integers(0, 10 ** 6))
@settings(max_examples=60)
def test_permutation_group_action(p1, p2, seed):
    rng = random.Random(seed)
    t = random_rational_tensor(rng, "+a -b +c", 2)
    stepwise = t.permute_indices(p1).permute_indices(p2)
    composite = [p1[p2[k]] for k in range(3)]
    assert stepwise == t.permute_indices(composite)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40)
def test_flip_conjugate_commute_and_involute(seed):
    rng = random.Random(seed)
    entries = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
    t = LabeledTensor(idx("+a -b", 2), entries)
    assert t.flip_signs().flip_signs() == t
    assert t.conjugate_entries().conjugate_entries() == t
    assert t.flip_signs().conjugate_entries() == t.conjugate_entries().flip_signs()


class TestEntryBudget:
    """Sizes past MAX_ENTRIES are refused before anything that large exists."""

    def test_edges(self):
        assert MAX_ENTRIES == 2 ** 22
        assert dense_size(2, 22) == MAX_ENTRIES
        assert dense_size(MAX_ENTRIES, 1) == MAX_ENTRIES
        assert dense_size(7, 0) == 1
        for dim, rank in [(2, 23), (MAX_ENTRIES + 1, 1), (10 ** 40, 3)]:
            with pytest.raises(DimensionError, match="budget"):
                dense_size(dim, rank)

    def test_literal_header(self):
        labels = ",".join(f"+a{k}" for k in range(23))
        with pytest.raises(DimensionError, match="budget"):
            parse_tensor(f"tensor dim=2 indices=[{labels}]\n")
        with pytest.raises(DimensionError, match="budget"):
            parse_tensor("tensor dim=10000000000 indices=[+a]\n")

    @pytest.mark.parametrize("indices", ["+a", "+a,-b,+c"])
    def test_literal_header_too_long_for_int(self, indices):
        digits = "9" * 5000
        with pytest.raises(DimensionError) as err:
            parse_tensor(f"tensor dim={digits} indices=[{indices}]\n")
        rank = indices.count(",") + 1
        assert str(err.value) == (f"a tensor with {rank} indices of dimension of 5000 digits "
                                  f"exceeds the budget of {MAX_ENTRIES} entries")

    def test_header_dimension_edges(self):
        assert header_dimension(str(MAX_ENTRIES), 1, 1) == MAX_ENTRIES
        assert header_dimension("0" * 5000 + "7", 2, 1) == 7
        with pytest.raises(ParseError, match="^line 4: dimension must be positive$"):
            header_dimension("000", 3, 4)
        with pytest.raises(DimensionError, match="dimension of 8 digits exceeds"):
            header_dimension("000" + str(MAX_ENTRIES * 10), 1, 1)
        # a scalar has one entry whatever its header says
        assert header_dimension("9" * 5000, 0, 1) == 1
        assert header_dimension("0", 0, 1) == 1
        scalar = parse_tensor(f"tensor dim={'9' * 5000} indices=[]\n = 3\n")
        assert scalar.rank == 0 and scalar.entries == (3,)

    def test_construction(self):
        spec = " ".join(f"+a{k}" for k in range(23))
        with pytest.raises(DimensionError, match="budget"):
            LabeledTensor(idx(spec, 2), [])

    def test_contraction_output(self, monkeypatch):
        spec = " ".join(f"+a{k}" for k in range(12))
        left = LabeledTensor(idx(spec, 2), [Fraction(1)] * 2 ** 12)
        right = left.relabel({f"a{k}": f"b{k}" for k in range(12)})

        def refuse(*args):
            raise AssertionError("offsets built for an output over the budget")

        monkeypatch.setattr(tensor_module, "_offsets", refuse)
        with pytest.raises(DimensionError, match="budget"):
            contract_between(left, right, ())
