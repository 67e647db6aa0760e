"""Acceptance criteria, one test per criterion.

Each test prints a single `criterion N: PASS/FAIL` line (run with `pytest -s`
to see them all) and asserts the criterion at its tolerance: exact equality
on the rational backend, 1e-9 absolute on the complex backend.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from tqft2d import (
    COMPLEX,
    Surface,
    TqftData,
    apply_gluing,
    base_invariants,
    check_relations,
    diagonal_family,
    grid_search_dim1,
    hermitian_check,
    invariant,
    closed_invariant,
    verify_decomposition_invariance,
    verify_functoriality,
    verify_monoidal,
)
from tqft2d.functor import random_glue_spec, random_surface

from good_data import good_data


def report(number: int, passed: bool, description: str) -> None:
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} - {description}")


def test_criterion_1_grid_search_matches_bruteforce():
    """grid_search_dim1(3) = zero solution + all grid-representable (t, 1/t),
    matching an independent enumerator, in under a second."""
    started = time.perf_counter()
    found = {(s.d_entry(0), s.p_entry(0, 0, 0)) for s in grid_search_dim1(3)}
    elapsed = time.perf_counter() - started

    values = {Fraction(num, den)
              for num in range(-3, 4) for den in range(1, 4)}
    brute = set()
    for d in values:
        for p in values:
            # the four relations at dimension one, written out as scalars
            if (p * p == p * p and d * p * d == d and d * p * p == p):
                brute.add((d, p))
    closed_form = {(Fraction(0), Fraction(0))} | {
        (t, 1 / t) for t in values if t != 0 and 1 / t in values}

    ok = found == brute == closed_form and elapsed < 1.0
    report(1, ok, f"dimension-1 grid search ({len(found)} solutions, {elapsed:.3f}s)")
    assert found == brute
    assert found == closed_form
    assert elapsed < 1.0


def test_criterion_2_table_reproduction():
    """base_invariants matches an index-loop oracle on 50 seeded good data
    of dimension <= 4, degenerate and dense ones included, exactly."""
    rng = random.Random("criterion-2")
    checked = 0
    for _ in range(50):
        data = good_data(rng, 4)
        n = data.dimension
        table = base_invariants(data)
        zero = Fraction(0)
        sphere = sum((data.d_entry(i) * data.d_entry(i) for i in range(n)), zero)
        disk = tuple(data.d_entry(i) for i in range(n))
        annulus = tuple(
            sum((data.d_entry(k) * data.p_entry(k, i, j) for k in range(n)), zero)
            for i in range(n) for j in range(n))
        torus = sum((data.d_entry(k) * data.p_entry(k, i, i)
                     for k in range(n) for i in range(n)), zero)
        assert table["empty"].entries == (1,)
        assert table["sphere"].entries == (sphere,)
        assert table["disk"].entries == disk
        assert table["annulus"].entries == annulus
        assert table["torus"].entries == (torus,)
        checked += 1
    report(2, True, f"closed-form table vs index-loop oracle ({checked} data)")


def test_criterion_3_decomposition_independence():
    """Chain vs alternate vs 25 random regroupings agree for every
    (g, n) with g <= 3, n <= 4, 2g-2+n >= 2, on dim-2 rational data,
    in under 30 seconds."""
    started = time.perf_counter()
    data = diagonal_family([Fraction(2), Fraction(1, 3)])
    result = verify_decomposition_invariance(data, g_max=3, n_max=4,
                                             trials=25, seed=2024)
    elapsed = time.perf_counter() - started
    shapes = {c.label.split(" chain")[0] for c in result.checks}
    expected_shapes = {f"(g={g}, n={n})"
                       for g in range(4) for n in range(5)
                       if 2 * g - 2 + n >= 2}
    ok = result.passed and shapes == expected_shapes and elapsed < 30.0
    report(3, ok, f"decomposition independence ({len(result.checks)} checks, "
                  f"{elapsed:.2f}s)")
    assert shapes == expected_shapes
    assert result.failures == []
    assert elapsed < 30.0


def test_criterion_4_functoriality_and_monoidality():
    """200 seeded trials each for two-stage gluing composition and for
    disjoint-union multiplicativity, at dimension 3."""
    data = diagonal_family([Fraction(1), Fraction(2), Fraction(3)])
    functor = verify_functoriality(data, trials=200, seed=41)
    monoidal = verify_monoidal(data, trials=200, seed=43)
    ok = functor.passed and monoidal.passed
    report(4, ok, "functoriality and monoidality, 200 trials each")
    assert functor.failures == []
    assert monoidal.failures == []


def test_criterion_5_gluing_equals_evaluation():
    """invariant(glue(s, spec)) == apply_gluing(invariant(s), spec) for 100
    seeded random surface/spec pairs, exactly."""
    data = diagonal_family([Fraction(1), Fraction(2)])
    rng = random.Random("criterion-5")
    for t in range(100):
        surface = random_surface(rng, prefix=f"c5_{t}_")
        spec = random_glue_spec(rng, surface)
        via_surface = invariant(data, surface.glue(spec),
                                require_relations=False)
        via_tensor = apply_gluing(
            data, invariant(data, surface, require_relations=False), spec)
        assert via_surface.canonical() == via_tensor.canonical(), (surface, spec)
    report(5, True, "gluing = evaluation on 100 random surface/spec pairs")


def test_criterion_6_dimension1_closed_form():
    """closed_invariant(g) == t^(2-2g) for g in 0..6 and
    t in {1, 2, 1/3, -2}, exactly."""
    for t in (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(-2)):
        data = diagonal_family([t])
        for g in range(7):
            expected = t ** (2 - 2 * g)
            assert closed_invariant(data, g) == expected, (t, g)
    report(6, True, "closed surfaces follow the t^(2-2g) closed form")


def test_criterion_7_hermitian_condition():
    """Real tensors: conjugation fixes every invariant (50 random surfaces);
    an imaginary d fails hermitian_check and the disk witnesses the failure
    of the reversal-conjugation identity."""
    real_data = diagonal_family([1.5, 2.0])
    assert hermitian_check(real_data)
    rng = random.Random("criterion-7")
    for k in range(50):
        surface = random_surface(rng, prefix=f"c7_{k}_", max_total_boundary=4)
        tensor = invariant(real_data, surface, require_relations=False)
        assert tensor.conjugate_entries().equals(tensor)

    imaginary = TqftData([1j], [-1j], COMPLEX)
    assert check_relations(imaginary).passed
    assert not hermitian_check(imaginary)
    disk = Surface.disk("+a")
    plain = invariant(imaginary, disk)
    mirrored = invariant(imaginary, disk.reverse_orientation())
    witness_violated = not mirrored.flip_signs().equals(plain.conjugate_entries())
    assert witness_violated
    assert not plain.conjugate_entries().equals(plain)
    report(7, True, "hermitian condition: real data passes, imaginary disk fails")


def test_criterion_8_euler_characteristic_conserved():
    """500 seeded random glue operations preserve the Euler characteristic."""
    rng = random.Random("criterion-8")
    for t in range(500):
        surface = random_surface(rng, prefix=f"c8_{t}_", max_components=3,
                                 max_genus=3, max_total_boundary=12)
        spec = random_glue_spec(rng, surface)
        assert surface.glue(spec).euler_characteristic() == \
            surface.euler_characteristic()
    report(8, True, "Euler characteristic preserved across 500 random gluings")


def test_criterion_9_relations_are_necessary():
    """A symmetric dim-2 p violating the exchange relation produces a
    four-holed-sphere decomposition mismatch."""
    n = 2
    p = [Fraction(0)] * 8
    for i, j, k in set(itertools.permutations((0, 0, 1))):
        p[(i * n + j) * n + k] = Fraction(1)
    bad = TqftData([Fraction(1), Fraction(1)], p)
    assert not check_relations(bad)["exchange"].passed
    assert check_relations(bad)["symmetry"].passed

    result = verify_decomposition_invariance(bad, g_max=0, n_max=4, trials=3,
                                             seed=9, require_relations=False)
    found = any("(g=0, n=4)" in c.label for c in result.failures)
    report(9, found, "exchange-relation violation exposed by a (0,4) mismatch")
    assert found
