"""Seeded inputs, operations and oracles of the four benchmark workloads.

Inputs are generated here from the workload seed alone, without importing
tqft2d, so the same seed gives the same inputs on every commit; the library
receives only the generated inputs.  A run draws a fixed set of ops from
the seed and executes it in rounds, each round in a new seeded order, so
every op is timed several times, seconds apart.

The oracles never call the code under test.  Every datum used here is an
orthogonal rational matrix Q = H / s rotating the diagonal datum t:

    d[i] = sum_a Q[i][a] t_a,    p[i,j,k] = sum_a Q[i][a] Q[j][a] Q[k][a] / t_a

(Q = identity gives the diagonal family).  A connected genus-g surface with
n boundary circles then has the tensor

    entry(i_1 .. i_n) = sum_a  prod_k Q[i_k][a]  *  t_a ** (2 - 2g - n),

independent of orientations, and disjoint components multiply.  Outputs are
compared with the oracle in the documented text formats, byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import random
from fractions import Fraction


# -- data families -------------------------------------------------------------

class Family:
    """The datum Q = h / s applied to the diagonal datum t."""

    def __init__(self, name: str, t, h=None, s: int = 1):
        self.name = name
        self.t = tuple(Fraction(x) for x in t)
        n = len(self.t)
        self.h = h if h is not None else [[int(i == j) for j in range(n)] for i in range(n)]
        self.s = s
        for i in range(n):  # Q must be orthogonal for the oracle to hold
            for j in range(n):
                dot = sum(self.h[i][a] * self.h[j][a] for a in range(n))
                if dot != (s * s if i == j else 0):
                    raise ValueError(f"{name}: h / s is not orthogonal")

    @property
    def dim(self) -> int:
        return len(self.t)

    def q(self, i: int, a: int) -> Fraction:
        return Fraction(self.h[i][a], self.s)

    def d_entries(self) -> list[Fraction]:
        r = range(self.dim)
        return [sum((self.q(i, a) * self.t[a] for a in r), Fraction(0)) for i in r]

    def p_entries(self) -> list[Fraction]:
        r = range(self.dim)
        return [sum((self.q(i, a) * self.q(j, a) * self.q(k, a) / self.t[a] for a in r),
                    Fraction(0))
                for i, j, k in itertools.product(r, repeat=3)]

    def text(self) -> str:
        """The datum in the data file format (zero entries omitted)."""
        lines = [f"tqft dim={self.dim} backend=rational"]
        lines += [f"d {i + 1} = {v}" for i, v in enumerate(self.d_entries()) if v]
        for (i, j, k), v in zip(itertools.product(range(self.dim), repeat=3),
                                self.p_entries()):
            if v:
                lines.append(f"p {i + 1} {j + 1} {k + 1} = {v}")
        return "\n".join(lines) + "\n"

    def closed(self, genus: int) -> Fraction:
        """Invariant of the closed genus-g surface: sum_a t_a ** (2 - 2g)."""
        return sum((t ** (2 - 2 * genus) for t in self.t), Fraction(0))

    def component(self, genus: int, count: int) -> tuple[list[int], int]:
        """Entries of a connected (genus, count) surface as integer
        numerators over one common denominator, flat and row-major."""
        weights = [t ** (2 - 2 * genus - count) for t in self.t]
        common = math.lcm(*(w.denominator for w in weights))
        scaled = [w.numerator * (common // w.denominator) for w in weights]
        numerators = [0] * self.dim ** count
        for a, w in enumerate(scaled):
            column = [self.h[i][a] for i in range(self.dim)]
            power = [w]
            for _ in range(count):
                power = [x * y for x in power for y in column]
            numerators = [x + y for x, y in zip(numerators, power)]
        return numerators, common * self.s ** count


def householder(n: int) -> list[list[int]]:
    """s * (I - 2 v v^T / v.v) for v = (1, ..., 1), with s = n."""
    return [[n * (i == j) - 2 for j in range(n)] for i in range(n)]


DIAG2 = Family("diag2", (1, 2))
ROT2 = Family("rot2", (1, 2), [[3, -4], [4, 3]], 5)  # rotation by (3/5, 4/5)
DIAG3 = Family("diag3", (1, 2, 3))
DIAG4 = Family("diag4", (1, 2, 3, 4))
DENSE4 = Family("dense4", (1, 2, 3, 4), householder(4), 4)
DENSE5 = Family("dense5", (1, 2, 3, 4, 5), householder(5), 5)
FAMILIES = {f.name: f for f in (DIAG2, ROT2, DIAG3, DIAG4, DENSE4, DENSE5)}

# Input files of the CLI ops, committed beside this module; test_bench.py
# checks that they hold the texts generated here.
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# Symmetric dim-2 p violating the exchange relation (d irrelevant).
BAD_TEXT = ("tqft dim=2 backend=rational\nd 1 = 1\nd 2 = 1\n"
            "p 1 1 2 = 1\np 1 2 1 = 1\np 2 1 1 = 1\n")


# -- tensor oracle ---------------------------------------------------------------

def tensor_text(family: Family, circles, components) -> str:
    """The expected ``format_tensor`` output.

    `circles` lists the surviving (label, sign) pairs in index order;
    `components` lists (genus, positions) for every connected component,
    positions indexing `circles`.
    """
    dim = family.dim
    parts = [(family.component(genus, len(positions)), positions)
             for genus, positions in components]
    denominator = math.prod(den for (_, den), _ in parts)
    body = ",".join(f"{sign}{label}" for label, sign in circles)
    lines = [f"tensor dim={dim if circles else 1} indices=[{body}]"]
    for assign in itertools.product(range(dim), repeat=len(circles)):
        numerator = 1
        for (numerators, _), positions in parts:
            offset = 0
            for p in positions:
                offset = offset * dim + assign[p]
            numerator *= numerators[offset]
            if not numerator:
                break
        if numerator:
            left = " ".join(str(v + 1) for v in assign)
            lines.append(f"{left} = {Fraction(numerator, denominator)}".lstrip())
    return "\n".join(lines)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def glued_components(components, pairs):
    """Surviving circles and (genus, positions) components after gluing.

    `components` lists (genus, orientation, ((label, sign), ...)); gluing
    two circles of one component adds a handle, gluing two components
    merges them and adds their genera.
    """
    owner = {}
    for c, (_, _, boundary) in enumerate(components):
        for label, _ in boundary:
            owner[label] = c
    parent = list(range(len(components)))
    genus = [g for g, _, _ in components]

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    glued = set()
    for a, b in pairs:
        ra, rb = find(owner[a]), find(owner[b])
        if ra == rb:
            genus[ra] += 1
        else:
            parent[rb] = ra
            genus[ra] += genus[rb]
        glued.update((a, b))
    circles = [(label, sign) for _, _, boundary in components
               for label, sign in boundary if label not in glued]
    roots = sorted({find(c) for c in range(len(components))})
    result = []
    for r in roots:
        positions = [k for k, (label, _) in enumerate(circles)
                     if find(owner[label]) == r]
        result.append((genus[r], positions))
    return circles, result


# -- seeded generators (the same distributions as tqft2d.random_surface and
# -- tqft2d.random_glue_spec, rebuilt so that inputs never depend on the code
# -- under test) ------------------------------------------------------------------

def random_components(rng: random.Random, prefix: str, *, max_components=2,
                      max_genus=2, max_boundary=4, max_total_boundary=4):
    counter = itertools.count()
    components = []
    budget = max_total_boundary
    for _ in range(rng.randint(1, max_components)):
        genus = rng.randint(0, max_genus)
        count = rng.randint(0, min(max_boundary, budget))
        budget -= count
        boundary = tuple((f"{prefix}{next(counter)}", "+" if rng.random() < 0.5 else "-")
                         for _ in range(count))
        orientation = "+" if rng.random() < 0.5 else "-"
        components.append((genus, orientation, boundary))
    return tuple(components)


def random_pairs(rng: random.Random, components):
    circles = [c for _, _, boundary in components for c in boundary]
    plus = [label for label, sign in circles if sign == "+"]
    minus = [label for label, sign in circles if sign == "-"]
    rng.shuffle(plus)
    rng.shuffle(minus)
    count = rng.randint(0, min(len(plus), len(minus)))
    return tuple((a, b) if rng.random() < 0.5 else (b, a)
                 for a, b in zip(minus[:count], plus[:count]))


def surface_text(components) -> str:
    return "\n".join(
        f"component orient={orientation} genus={genus} boundary=["
        + ",".join(f"{sign}{label}" for label, sign in boundary) + "]"
        for genus, orientation, boundary in components)


# -- workloads ---------------------------------------------------------------------

class Workload:
    """One workload: a seeded op set, set-up, one timed op, and its oracle."""

    name = ""

    def rounds(self, seed: int):
        """Endless rounds over the run's op set, each in a new seeded order,
        as (index in the op set, op) pairs; a pure function of the seed."""
        rng = random.Random(f"{self.name}:{seed}")
        ops = list(enumerate(self.op_set(rng)))
        while True:
            rng.shuffle(ops)
            yield list(ops)

    def op_set(self, rng: random.Random) -> list:
        raise NotImplementedError

    def setup(self, lib) -> None:
        """Build the library-side inputs (part of the set-up time)."""

    def prepare(self, lib, op):
        """Library objects for one op, built outside the timed region."""
        return op

    def execute(self, lib, prepared):
        raise NotImplementedError

    def check(self, op, output) -> bool:
        raise NotImplementedError


class ClosedGenus(Workload):
    name = "closed-genus"
    families = (DIAG2, ROT2, DIAG3)
    size = 24

    def op_set(self, rng):
        # Genus log-uniform on 2..48: `size` equally spaced points of log g,
        # so every seed does the same work and only the order is seeded.
        return [(self.families[k % 3].name, round(2 * 24 ** (k / (self.size - 1))))
                for k in range(self.size)]

    def setup(self, lib):
        self.data = {f.name: lib.TqftData(f.d_entries(), f.p_entries())
                     for f in self.families}

    def prepare(self, lib, op):
        name, genus = op
        return self.data[name], genus

    def execute(self, lib, prepared):
        data, genus = prepared
        value = lib.closed_invariant(data, genus)
        return value, lib.format_scalar(value, data.backend)

    def check(self, op, output):
        name, genus = op
        expected = FAMILIES[name].closed(genus)
        return output[0] == expected and output[1] == str(expected)


class WideBoundary(Workload):
    name = "wide-boundary"
    families = (DIAG4, DENSE4)

    def __init__(self):
        self.expected: dict[tuple, str] = {}

    def op_set(self, rng):
        # Every (datum, n, g) once, half the ops sparse and half dense.
        return [(family.name, g, "".join(rng.choice("+-") for _ in range(n)))
                for family in self.families for n in range(5, 8) for g in range(3)]

    def setup(self, lib):
        self.data = {f.name: lib.TqftData(f.d_entries(), f.p_entries())
                     for f in self.families}

    @staticmethod
    def circles(signs):
        return [(f"b{k + 1}", sign) for k, sign in enumerate(signs)]

    def prepare(self, lib, op):
        name, genus, signs = op
        spec = ",".join(f"{sign}{label}" for label, sign in self.circles(signs))
        return self.data[name], lib.Surface.connected(genus, spec)

    def execute(self, lib, prepared):
        data, surface = prepared
        return lib.format_tensor(lib.invariant(data, surface))

    def check(self, op, output):
        name, genus, signs = op
        key = (name, genus, len(signs))
        if key not in self.expected:
            # Entries do not depend on the signs, so the body is cached per
            # shape; the header carries the signs and is compared below.
            text = tensor_text(FAMILIES[name], self.circles("+" * len(signs)),
                               [(genus, list(range(len(signs))))])
            self.expected[key] = digest(text.partition("\n")[2])
        header, _, body = output.partition("\n")
        indices = ",".join(f"{sign}{label}" for label, sign in self.circles(signs))
        return (header == f"tensor dim={FAMILIES[name].dim} indices=[{indices}]"
                and digest(body) == self.expected[key])


class QueryStream(Workload):
    name = "query-stream"
    family = DENSE5
    size = 24

    def op_set(self, rng):
        # The surfaces and gluings come from a fixed stream, so that every
        # seed does the same work and only the order is seeded: drawn from
        # the seed, the op mix moved throughput by up to 14% between seeds.
        fixed = random.Random(self.name)
        ops = []
        for _ in range(self.size):
            components = random_components(fixed, "s")
            ops.append((components, random_pairs(fixed, components)))
        return ops

    def setup(self, lib):
        self.data = {self.family.name: lib.parse_tqft(self.family.text())}

    def prepare(self, lib, op):
        components, pairs = op
        return surface_text(components), lib.GlueSpec(pairs)

    def execute(self, lib, prepared):
        text, spec = prepared
        data = self.data[self.family.name]
        tensor = lib.invariant(data, lib.parse_surface(text))
        return lib.format_tensor(lib.apply_gluing(data, tensor, spec))

    def check(self, op, output):
        circles, components = glued_components(*op)
        return output == tensor_text(self.family, circles, components)


# Decomposition shapes of the `moves` suite: genus <= 2, boundary <= 3 and
# 2g - 2 + n >= 2; each is checked against `alternate` and every rewrite.
MOVES_SHAPES = sum(1 for g in range(3) for n in range(4) if 2 * g - 2 + n >= 2)


class VerifySuites(Workload):
    name = "verify-suites"
    families = (DIAG3, ROT2)
    suites = ("moves", "functor", "monoidal")

    def op_set(self, rng):
        # The suites draw their surfaces from --seed, and their cost swings
        # with those draws; fixed suite seeds give every run the same work,
        # in an order set by the workload seed.
        ops = [("verify", f.name, suite, trials, seed) for seed, (f, suite, trials) in
               enumerate(itertools.product(self.families, self.suites, (2, 4, 6)))]
        # One op in ten runs on the known-bad datum: `check` must FAIL and
        # `verify` must refuse the data.
        ops.append(("check", "bad"))
        ops.append(("verify", "bad", rng.choice(self.suites), 2, 0))
        return ops

    def setup(self, lib):
        self.files = {name: os.path.join(DATA_DIR, f"{name}.tqft")
                      for name in [f.name for f in self.families] + ["bad"]}

    def prepare(self, lib, op):
        if op[0] == "check":
            return ["check", self.files[op[1]]]
        _, name, suite, trials, seed = op
        return ["verify", self.files[name], "--suite", suite, "--trials", str(trials),
                "--seed", str(seed)]

    def execute(self, lib, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
        return code, out.getvalue()

    def check(self, op, output):
        code, stdout = output
        if op[0] == "check":
            return code == 1 and stdout == "FAIL PASS FAIL FAIL\n"
        _, name, suite, trials, _ = op
        if name == "bad":
            return code == 3 and stdout == ""
        lines = stdout.splitlines()
        count = MOVES_SHAPES * (trials + 1) if suite == "moves" else trials
        return (code == 0 and lines[:1] == [f"suite {suite}"]
                and len(lines) == count + 1
                and all(line.startswith("PASS ") for line in lines[1:]))


WORKLOADS = {w.name: w for w in (ClosedGenus, WideBoundary, QueryStream, VerifySuites)}
