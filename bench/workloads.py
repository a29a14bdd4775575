"""The benchmark's three workloads: seeded inputs, one timed call, independent checks.

Generators build plain data (ints, lists, strings) from the seed and import
nothing from ``foliation_af``, so they run before the program is imported.
A workload's ``call`` reaches the program only through public names looked
up on the package modules at call time, so the tracer's wrappers see every
call.  ``check`` compares one call's outputs with the oracles of
``tests/helpers.py`` or with plain integer and Fraction arithmetic written
here; it raises :class:`CheckError` on a wrong output and returns the number
of operations of the call that failed.
"""

from __future__ import annotations

import io
import json
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from fractions import Fraction
from pathlib import Path

# x^6 - x - 1 with its root near 1.1347 in (1, 2): the genus-2 period field.
F6_POLY = (-1, -1, 0, 0, 0, 0, 1)
F6_EMBED = (1, 2)
# Deepest horizon at which a seeded genus-2 vector is expanded.  At depth 30
# about one vector in 24 fails the 1e-10 Cauchy test and functor_map refuses
# it; at 36 none of several hundred seeded vectors did (see README.md).
FUNCTOR_DEPTH = 36
FUNCTOR_TOL = Fraction(1, 10 ** 10)
# Precision of the independent interval expansion of theta; each step widens
# the enclosure by about 1/pivot**2, far less than 2**-900 over 36 steps.
ROOT_BITS = 1100
JP_BITS = 1024

RANK6_LEVELS = 72
RANK2_LEVELS = 288

CF_QUADRATIC_DEPTH = 30
CF_CUBIC_DEPTH = 20
FUNCTOR_G1_DEPTH = 30
# The one request that fails today, identical in every batch file and for
# every seed: cf_tail_equivalent demands 43 digits even of finite expansions.
FAILING_COMPARE = ["af", "compare", "7/3", "5/3"]


class CheckError(AssertionError):
    """A program output disagrees with its independent oracle."""


def _require(cond, message):
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# plain arithmetic shared by generators and checks (no library code)


def _horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@lru_cache(maxsize=None)
def _root_box(coeffs, lo, hi, steps):
    """Bisection enclosure of the root of coeffs in (lo, hi), for generators."""
    lo, hi = Fraction(lo), Fraction(hi)
    positive_lo = _horner(coeffs, lo) > 0
    for _ in range(steps):
        mid = (lo + hi) / 2
        if (_horner(coeffs, mid) > 0) == positive_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _value_box(coords, lo, hi):
    """Interval Horner enclosure of sum coords[i] * r**i for r in [lo, hi]."""
    acc_lo = acc_hi = Fraction(coords[-1])
    for c in reversed(coords[:-1]):
        prods = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(prods) + c, max(prods) + c
    return acc_lo, acc_hi


def _sign_at_root(coords, poly, embed):
    """Sign of a nonzero field element, refining the root box until decided."""
    steps = 64
    while steps <= 4096:
        vlo, vhi = _value_box(coords, *_root_box(poly, *embed, steps))
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        steps *= 2
    raise ValueError(f"sign of {coords} did not resolve")


def _rank(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _det(a):
    """Bareiss fraction-free determinant."""
    m = [list(row) for row in a]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _digit_matrix(d):
    """(0 1; I b) for the digit b = d, built here rather than by jp_digit_matrix."""
    n = len(d) + 1
    rows = [[0] * (n - 1) + [1]]
    for i, b in enumerate(d):
        rows.append([1 if j == i else 0 for j in range(n - 1)] + [b])
    return tuple(map(tuple, rows))


def _nonneg_unimodular(rng, n, ops=8, max_entry=5):
    """Product of elementary row additions, entries bounded by rejection."""
    while True:
        mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(ops):
            i, j = rng.sample(range(n), 2)
            if rng.randint(0, 1):
                mat[i] = [x + y for x, y in zip(mat[i], mat[j])]
        if max(max(row) for row in mat) <= max_entry:
            return [list(row) for row in mat]


def _euclid_digits(p, q):
    digits = []
    while q:
        a, r = divmod(p, q)
        digits.append(a)
        p, q = q, r
    return digits


def _common_prefix(a, b):
    k = 0
    while k < min(len(a), len(b)) and a[k] == b[k]:
        k += 1
    return a[:k]


def _cf_digits(x: Fraction, limit):
    digits = []
    while len(digits) < limit:
        a = math.floor(x)
        digits.append(a)
        if x == a:
            break
        x = 1 / (x - a)
    return digits


def _jp_digits(boxes, depth, bits=JP_BITS):
    """Jacobi-Perron digits of an enclosed positive vector by outward-rounded intervals."""
    scale = 1 << bits
    digits = []
    for _ in range(depth):
        digit = [math.floor(lo) for lo, _ in boxes]
        _require(all(math.floor(hi) == b for (_, hi), b in zip(boxes, digit)),
                 "theta enclosure too coarse for the requested depth")
        digits.append(digit)
        p_lo, p_hi = boxes[0][0] - digit[0], boxes[0][1] - digit[0]
        _require(p_lo > 0, "theta enclosure too coarse for the requested depth")
        boxes = [(Fraction(math.floor((lo - b) / p_hi * scale), scale),
                  Fraction(math.ceil((hi - b) / p_lo * scale), scale))
                 for (lo, hi), b in zip(boxes[1:], digit[1:])]
        boxes.append((Fraction(math.floor(scale / p_hi), scale),
                      Fraction(math.ceil(scale / p_lo), scale)))
    return digits


def _trace_box(mats):
    """Center and diameter of the level-k simplex image, from mat_product_oracle."""
    from helpers import mat_product_oracle

    product = mat_product_oracle(list(reversed(mats)))
    vertices = [[Fraction(v, sum(row)) for v in row] for row in product]
    n = len(product)
    los = [min(v[i] for v in vertices) for i in range(n)]
    his = [max(v[i] for v in vertices) for i in range(n)]
    return [(lo + hi) / 2 for lo, hi in zip(los, his)], max(h - l for l, h in zip(los, his))


def _admissible_digits(rng, n, levels, top):
    digits = []
    for _ in range(levels):
        last = rng.randint(1, top)
        digits.append([rng.randint(0, last) for _ in range(n - 2)] + [last])
    return digits


def _non_square(rng, lo, hi):
    while True:
        d = rng.randint(lo, hi)
        if math.isqrt(d) ** 2 != d:
            return d


def _surd(rng):
    """(p + sqrt(d)) / q with q | d - p^2, as plain integers."""
    while True:
        p, q = rng.randint(0, 9), rng.randint(1, 9)
        d = p * p + q * rng.randint(1, 20)
        if math.isqrt(d) ** 2 != d:
            return p, q, d


class Workload:
    """generate -> prepare (after the import) -> stage, call (timed), check, per call."""

    ops_per_call = 1

    def prepare(self, fa):
        self.fa = fa

    def stage(self, inp):
        """The argument of call for one input; runs outside the timed region."""
        return inp


# ---------------------------------------------------------------------------
# functor: genus-2 period vectors over x^6 - x - 1


class Functor(Workload):
    """basis_change, module_equal on the image and an index-2 control, functor_map."""

    def generate(self, seed, count):
        rng = random.Random(f"functor-{seed}")
        inputs = []
        while len(inputs) < count:
            rows = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(6)]
            if _rank(rows) != 6:
                continue
            rows = [row if _sign_at_root(row, F6_POLY, F6_EMBED) > 0 else [-v for v in row]
                    for row in rows]
            inputs.append({"rows": rows, "phi": _nonneg_unimodular(rng, 6),
                           "phi2": _nonneg_unimodular(rng, 6)})
        return inputs

    def prepare(self, fa):
        super().prepare(fa)
        self.field = fa.numeric.NumberField(F6_POLY, F6_EMBED)
        self.root = None

    def call(self, inp):
        lattice = self.fa.lattice
        pl = lattice.PseudoLattice(tuple(self.field.element(row) for row in inp["rows"]))
        image = lattice.basis_change(pl, lattice.MappingClassElement(inp["phi"]))
        control = lattice.PseudoLattice((image.periods[0] * 2,) + image.periods[1:])
        same = lattice.module_equal(pl, image)
        other = lattice.module_equal(pl, control)
        bundle = lattice.functor_map(image, 2, depth=FUNCTOR_DEPTH, tol=FUNCTOR_TOL)
        return {"pl": pl, "image": image, "same": same, "control": other, "bundle": bundle}

    def check(self, inp, out):
        from helpers import bisection_root, sympy_lattice_form

        rows, phi = inp["rows"], inp["phi"]
        image_rows = [[sum(phi[i][j] * rows[i][c] for i in range(6)) for c in range(6)]
                      for j in range(6)]
        got_rows = [[int(c) for c in lam.coords] for lam in out["image"].periods]
        _require(got_rows == image_rows, "basis_change image differs from A^T rows")
        base = sympy_lattice_form(rows)
        _require(out["same"] is (base == sympy_lattice_form(image_rows)) is True,
                 "module_equal disagrees with sympy on the unimodular image")
        control_rows = [[2 * v for v in image_rows[0]]] + image_rows[1:]
        _require(out["control"] is (base == sympy_lattice_form(control_rows)) is False,
                 "module_equal disagrees with sympy on the index-2 control")

        bundle = out["bundle"]
        digits = [list(d) for d in bundle.expansion.digits]
        if self.root is None:
            self.root = bisection_root(F6_POLY, *F6_EMBED, iterations=ROOT_BITS)
        boxes = [_value_box(row, *self.root) for row in image_rows]
        (den_lo, den_hi), nums = boxes[0], boxes[1:]
        thetas = [(lo / den_hi, hi / den_lo) for lo, hi in nums]
        _require(digits == _jp_digits(thetas, FUNCTOR_DEPTH),
                 "JP digits differ from the interval expansion of theta")
        for k, d in enumerate(digits[1:], start=2):
            _require(d[-1] >= 1 and all(0 <= b <= d[-1] for b in d),
                     f"digit {k} {d} is not admissible")
        ratios = bundle.convergence.ratios
        _require(ratios is not None and len(ratios) == 5, "no deepest convergent")
        for i, (r, (theta_lo, theta_hi)) in enumerate(zip(ratios, thetas), start=1):
            _require(max(abs(r - theta_lo), abs(r - theta_hi)) < FUNCTOR_TOL,
                     f"convergent ratio {i} is not within tol of theta")
        lattice = self.fa.lattice
        _require(lattice.functor_covariance_check(
            out["pl"], lattice.MappingClassElement(phi),
            lattice.MappingClassElement(inp["phi2"])), "functor covariance fails")
        return 0


# ---------------------------------------------------------------------------
# diagrams: integer-only partial products


class Diagrams(Workload):
    """A rank-6 toric and a rank-2 Effros-Shen diagram: traces, telescope, DOT."""

    def generate(self, seed, count):
        rng = random.Random(f"diagrams-{seed}")
        return [{"rank6": _admissible_digits(rng, 6, RANK6_LEVELS, 3),
                 "rank2": [rng.randint(0, 3)] + [rng.randint(1, 5)
                                                 for _ in range(RANK2_LEVELS - 1)]}
                for _ in range(count)]

    def call(self, inp):
        fa = self.fa
        rank6 = fa.bratteli.diagram_from_digits(inp["rank6"], n=6)
        rank2 = fa.bratteli.effros_shen_diagram(
            fa.contfrac.CFExpansion(tuple(inp["rank2"]), finite=False))
        out = {}
        for key, d in (("rank6", rank6), ("rank2", rank2)):
            out[key] = {
                "traces": [fa.bratteli.unique_trace_estimate(d, k)
                           for k in range(1, d.levels + 1)],
                "telescope": fa.bratteli.telescope(d, d.levels),
                "dims": fa.bratteli.dimension_vectors(d, d.levels),
                "dot": fa.bratteli.export_dot(d),
            }
        expansion = fa.jacobi_perron.JPExpansion(
            n=6, digits=tuple(map(tuple, inp["rank6"])), terminated=False)
        out["convergents"] = fa.jacobi_perron.jp_convergents(expansion, RANK6_LEVELS)
        return out

    def check(self, inp, out):
        from helpers import convergents_oracle, mat_product_oracle

        for key, digits in (("rank6", inp["rank6"]), ("rank2", [[a] for a in inp["rank2"]])):
            mats = [_digit_matrix(d) for d in digits]
            res = out[key]
            n = len(mats[0])
            cones = res["telescope"].cone_generators_at_level
            _require(len(cones) == len(mats) + 1, f"{key}: wrong telescope length")
            product = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            for k, cone in enumerate(cones):
                if k:
                    product = mat_product_oracle([mats[k - 1], product])
                _require(cone == product, f"{key}: cone product {k} differs from oracle")
                _require(abs(_det(cone)) == 1, f"{key}: cone product {k} is not unimodular")
                _require(tuple(res["dims"][k]) == tuple(sum(row) for row in product),
                         f"{key}: dimension vector {k} differs from cone . root")
            diameters = [t.diameter for t in res["traces"]]
            _require(all(b <= a for a, b in zip(diameters, diameters[1:])),
                     f"{key}: trace diameter increases with the level")
            center, diameter = _trace_box(mats)
            _require(list(res["traces"][-1].center) == center
                     and diameters[-1] == diameter, f"{key}: deepest trace box differs")
            _require(_dot_edges(res["dot"]) == _expected_edges(mats, n),
                     f"{key}: DOT edges differ from the digit matrices")

        ps, qs = convergents_oracle(inp["rank2"])
        sums = [1, 1] + [p + q for p, q in zip(ps, qs)]
        for k, dims in enumerate(out["rank2"]["dims"]):
            _require(tuple(dims) == (sums[k], sums[k + 1]),
                     f"rank2: continuant identity fails at level {k}")

        mats = [_digit_matrix(d) for d in inp["rank6"]]
        states = out["convergents"]
        _require(len(states) == RANK6_LEVELS + 1, "wrong number of JP convergent states")
        product = mat_product_oracle([mats[0]])
        for nu, state in enumerate(states[1:], start=1):
            if nu > 1:
                product = mat_product_oracle([product, mats[nu - 1]])
            _require(state.columns == tuple(zip(*product)),
                     f"jp_convergents state {nu} differs from the oracle product")
        return 0


_EDGE_RE = re.compile(r'^\s*(root|v(\d+)_(\d+)) -> v(\d+)_(\d+) \[label="(\d+)"\];$')


def _dot_edges(text):
    edges = set()
    for line in text.splitlines():
        m = _EDGE_RE.match(line)
        if m:
            src = "root" if m.group(1) == "root" else (int(m.group(2)), int(m.group(3)))
            edges.add((src, int(m.group(4)), int(m.group(5)), int(m.group(6))))
    return edges


def _expected_edges(mats, n):
    edges = {("root", 1, i, 1) for i in range(n)}
    for k, m in enumerate(mats, start=1):
        for i in range(n):
            for j in range(n):
                if m[i][j]:
                    edges.add(((k, j), k + 1, i, m[i][j]))
    return edges


# ---------------------------------------------------------------------------
# batch: NDJSON files through main(["batch", path])


def _field_token(poly, coords, embed):
    return json.dumps({"min_poly": list(poly), "coords": [str(c) for c in coords],
                       "embedding": [str(v) for v in embed]})


# Rounds of the eight seeded request kinds per file; with the one fixed
# failing request a file holds 65 requests and takes about 0.5 s, so a
# 30-second run makes about 55 calls and its tail is near the 80th percentile.
BATCH_ROUNDS = 8


class Batch(Workload):
    """One NDJSON file per call: BATCH_ROUNDS rounds of eight kinds, one failing request."""

    ops_per_call = 8 * BATCH_ROUNDS + 1

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def generate(self, seed, count):
        rng = random.Random(f"batch-{seed}")
        return [self._file(rng) for _ in range(count)]

    @staticmethod
    def _file(rng):
        reqs = [req for _ in range(BATCH_ROUNDS) for req in Batch._round(rng)]
        reqs.append({"kind": "af_compare_rationals", "argv": list(FAILING_COMPARE)})
        return reqs

    @staticmethod
    def _round(rng):
        reqs = []
        p, q = rng.randint(1, 10 ** 12), rng.randint(2, 10 ** 9)
        reqs.append({"kind": "cf_rational", "p": p, "q": q, "argv": ["cf", f"{p}/{q}"]})

        p, q, d = _surd(rng)
        s = math.isqrt(d)
        token = _field_token((-d, 0, 1), (Fraction(p, q), Fraction(1, q)), (s, s + 1))
        reqs.append({"kind": "cf_quadratic", "p": p, "q": q, "d": d,
                     "argv": ["cf", token, "--depth", str(CF_QUADRATIC_DEPTH)]})

        while True:
            m = rng.randint(2, 60)
            c = max(k for k in range(5) if k ** 3 <= m)
            if c ** 3 != m:
                break
        coords = [0, 0, 0]
        while coords[1] == coords[2] == 0:
            coords = [rng.randint(-3, 3) for _ in range(3)]
        if _sign_at_root(coords, (-m, 0, 0, 1), (c, c + 1)) < 0:
            coords = [-v for v in coords]
        reqs.append({"kind": "cf_cubic", "m": m, "embed": [c, c + 1], "coords": coords,
                     "argv": ["cf", _field_token((-m, 0, 0, 1), coords, (c, c + 1)),
                              "--depth", str(CF_CUBIC_DEPTH)]})

        theta = [f"{rng.randint(1, 999)}/{rng.randint(1, 999)}" for _ in range(2)]
        reqs.append({"kind": "jp_rational", "theta": theta,
                     "argv": ["jp", *theta, "--depth", "1000"]})

        digits = _admissible_digits(rng, 3, 12, 3)
        reqs.append({"kind": "af_trace", "digits": digits,
                     "argv": ["af", "trace", "--digits", json.dumps(digits),
                              "--level", str(len(digits))]})

        p, q, d = _surd(rng)
        s = math.isqrt(d)
        reqs.append({"kind": "af_functor", "p": p, "q": q, "d": d,
                     "argv": ["af", "functor", "--genus", "1", "--field", f"x^2-{d}",
                              "--embed", f"{s},{s + 1}", "--lambda", "1",
                              "--lambda", f"{p}/{q},1/{q}",
                              "--depth", str(FUNCTOR_G1_DEPTH)]})

        d = _non_square(rng, 2, 99)
        s = math.isqrt(d)
        gens = ((1, 1, 0, 1), (1, 0, 1, 1), (1, -1, 0, 1), (1, 0, -1, 1), (0, 1, 1, 0))
        while True:
            a, b, c_, e = 1, 0, 0, 1
            for _ in range(rng.randint(1, 8)):
                ga, gb, gc, gd = rng.choice(gens)
                a, b, c_, e = a * ga + b * gc, a * gb + b * gd, c_ * ga + e * gc, c_ * gb + e * gd
            if max(abs(a), abs(b), abs(c_), abs(e)) <= 10:
                break
        reqs.append({"kind": "af_compare_mobius",
                     "argv": ["af", "compare", "--poly", f"x^2-{d}", "--embed",
                              f"{s},{s + 1}", f"--mobius={a},{b},{c_},{e}"]})

        digits = _admissible_digits(rng, 3, 8, 3)
        reqs.append({"kind": "af_build_dot", "digits": digits,
                     "argv": ["af", "build", "--digits", json.dumps(digits), "--dot"]})

        return reqs

    def prepare(self, fa):
        super().prepare(fa)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cubic_roots = {}

    def stage(self, inp):
        """Write the call's NDJSON file."""
        path = self.workdir / "requests.ndjson"
        path.write_text("".join(json.dumps({"argv": r["argv"]}) + "\n" for r in inp),
                        encoding="utf-8")
        return str(path)

    def call(self, path):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.fa.cli.main(["batch", path])
        return {"exit": code, "stdout": out.getvalue()}

    def check(self, inp, out):
        from helpers import bisection_root, mat_product_oracle, surd_cf_oracle

        records = [json.loads(line) for line in out["stdout"].splitlines()]
        _require(len(records) == len(inp), f"{len(records)} records for {len(inp)} requests")
        failed = 0
        for req, rec in zip(inp, records):
            kind, doc = req["kind"], rec["output"]
            if rec["exit"] != 0:
                _require(kind == "af_compare_rationals",
                         f"{kind} request {req['argv']} failed with exit {rec['exit']}")
                failed += 1
                continue
            if kind == "cf_rational":
                digits = _euclid_digits(req["p"], req["q"])
                _require(doc["expansion"]["digits"] == digits and doc["expansion"]["finite"],
                         "rational cf digits differ from Euclid")
                _check_convergents(doc, digits, 50)
            elif kind == "cf_quadratic":
                digits = surd_cf_oracle(req["p"], req["q"], req["d"], CF_QUADRATIC_DEPTH)
                _require(doc["expansion"]["digits"] == digits and doc["periodic"],
                         "quadratic cf digits differ from the surd oracle")
                _check_convergents(doc, digits, CF_QUADRATIC_DEPTH)
            elif kind == "cf_cubic":
                m = req["m"]
                if m not in self.cubic_roots:
                    self.cubic_roots[m] = bisection_root((-m, 0, 0, 1), *req["embed"],
                                                         iterations=300)
                vlo, vhi = _value_box(req["coords"], *self.cubic_roots[m])
                enclosed = _common_prefix(_cf_digits(vlo, 60), _cf_digits(vhi, 60))
                _require(len(enclosed) >= CF_CUBIC_DEPTH, "cubic enclosure too coarse")
                _require(doc["expansion"]["digits"] == enclosed[:CF_CUBIC_DEPTH],
                         "cubic cf digits disagree with the bisection enclosure")
            elif kind == "jp_rational":
                theta = [Fraction(t) for t in req["theta"]]
                digits = doc["expansion"]["digits"]
                product = mat_product_oracle([_digit_matrix(d) for d in digits])
                last = [row[-1] for row in product]
                oracle = [Fraction(v, last[0]) for v in last[1:]]
                got = [Fraction(r) for r in doc["limit"]["ratios"]]
                _require(doc["expansion"]["terminated"] and got == oracle == theta,
                         "jp rational ratios differ from the oracle product")
            elif kind == "af_trace":
                center, diameter = _trace_box([_digit_matrix(d) for d in req["digits"]])
                trace = doc["trace"]
                _require([Fraction(c) for c in trace["center"]] == center
                         and Fraction(trace["diameter"]) == diameter,
                         "af trace box differs from the oracle product")
            elif kind == "af_functor":
                digits = surd_cf_oracle(req["p"], req["q"], req["d"], FUNCTOR_G1_DEPTH)
                _require(doc["digits"] == [[a] for a in digits]
                         and doc["certificate"] == "periodic",
                         "genus-1 functor digits differ from the surd oracle")
            elif kind == "af_build_dot":
                mats = [_digit_matrix(d) for d in req["digits"]]
                _require(_dot_edges(doc) == _expected_edges(mats, 3),
                         "af build DOT edges differ from the digit matrices")
            else:
                # Moebius images (Serret) and any two rationals are GL2(Z)-equivalent.
                report = doc["report"]
                _require(report["equivalent"] is True and report["proven"] is True,
                         f"{kind}: expected a proven equivalence, got {report}")
        return failed


def _check_convergents(doc, digits, depth):
    from helpers import convergents_oracle

    ps, qs = convergents_oracle(digits)
    want = [Fraction(p, q) for p, q in zip(ps, qs)][:depth]
    _require([Fraction(c) for c in doc["convergents"]] == want,
             "cf convergents differ from the textbook recurrence")
