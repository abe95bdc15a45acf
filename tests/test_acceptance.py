"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import cmath
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from fuglede.continuum import build_omega2, verify_spectrum_truncation
from fuglede.groups import GroupSpec
from fuglede.hadamard import descend, paper_h6, paper_h12, spectrum_from_butson, verify_butson
from fuglede.lattice import (
    build_lambda1,
    build_omega1,
    cell_count_check,
    density_check,
    pair_verdicts_direct,
    verify_ortho_lattice,
)
from fuglede.spectra import find_spectrum, fuglede_scan, is_spectrum
from fuglede.tiling import find_tiling
from oracles import pair_verdicts_factored, window_count


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def z3_5_pair():
    g6, T6, L6 = spectrum_from_butson(paper_h6())
    g5, T5, L5 = descend(g6, T6, L6)
    return g5, T5, L5


def test_criterion_1_matrices():
    start = time.perf_counter()
    ok12 = verify_butson(paper_h12()).ok
    ok6 = verify_butson(paper_h6()).ok
    elapsed = time.perf_counter() - start
    report(1, ok12 and ok6 and elapsed < 1.0,
           f"h12={ok12} h6={ok6} in {elapsed:.3f}s")


def test_criterion_2_z2_12_pipeline():
    start = time.perf_counter()
    g, T, L = spectrum_from_butson(paper_h12())
    spectral = is_spectrum(g, T, L).valid
    result = find_tiling(g, T)
    obs = result.obstruction
    elapsed = time.perf_counter() - start
    ok = (
        spectral
        and not result.tiles
        and obs is not None
        and (obs.set_size, obs.group_order) == (12, 4096)
        and elapsed < 1.0
    )
    report(2, ok, f"spectral={spectral} obstruction={obs} in {elapsed:.3f}s")


def test_criterion_3_descents():
    start = time.perf_counter()
    g6, T6, L6 = spectrum_from_butson(paper_h6())
    g5, T5, L5 = descend(g6, T6, L6)
    obs5 = find_tiling(g5, T5).obstruction
    ok3 = (
        len(T5) == 6
        and is_spectrum(g5, T5, L5).valid
        and obs5 is not None
        and (obs5.set_size, obs5.group_order) == (6, 243)
    )
    g12, T12, L12 = spectrum_from_butson(paper_h12())
    g11, T11, L11 = descend(g12, T12, L12)
    obs11 = find_tiling(g11, T11).obstruction
    ok11 = (
        len(T11) == 12
        and is_spectrum(g11, T11, L11).valid
        and obs11 is not None
        and (obs11.set_size, obs11.group_order) == (12, 2048)
    )
    elapsed = time.perf_counter() - start
    report(3, ok3 and ok11 and elapsed < 1.0,
           f"z3-5={obs5} z2-11={obs11} in {elapsed:.3f}s")


def test_criterion_4_lattice_lift(z3_5_pair):
    g5, T5, L5 = z3_5_pair
    start = time.perf_counter()
    o1 = build_omega1(T5, 2)
    l1 = build_lambda1(L5, 2)
    direct = pair_verdicts_direct(o1, l1)
    factored = pair_verdicts_factored(o1, l1)
    agree = bool(np.array_equal(direct, factored))
    valid = verify_ortho_lattice(o1, l1).valid
    elapsed = time.perf_counter() - start
    m1 = verify_ortho_lattice(build_omega1(T5, 1), build_lambda1(L5, 1)).valid
    finite = is_spectrum(g5, T5, L5).valid
    ok = (
        len(o1.points) == 192
        and len(l1.numerators) == 192
        and len(direct) == 18336
        and valid
        and agree
        and m1 == finite
        and elapsed < 60.0
    )
    report(4, ok,
           f"192 points, 18336 pairs, valid={valid}, paths agree={agree}, "
           f"M=1 matches finite check={m1 == finite}, in {elapsed:.1f}s")


def test_criterion_5_cell_counts(z3_5_pair):
    _, T5, _ = z3_5_pair
    results = {m: cell_count_check(build_omega1(T5, m)) for m in (1, 2, 3)}
    ok = all(results.values())
    report(5, ok, f"cell counts for M in (1,2,3): {results}")


def test_criterion_6_density(z3_5_pair):
    _, T5, _ = z3_5_pair
    start = time.perf_counter()
    o16 = build_omega1(T5, 16)
    rep = density_check(o16, 8, stride=4)
    target = Fraction(6, 243)
    # Strict tolerance from the criterion text (1.5e-1); the generic module
    # tolerance 12/L is looser at L = 8.
    strict = Fraction(15, 100)
    within = (
        abs(rep.min_density - target) <= strict
        and abs(rep.max_density - target) <= strict
        and rep.ok
    )
    # Extremes frozen from the pre-build brute-force oracle run.
    extremes = (
        rep.min_density == Fraction(17, 2048)
        and rep.max_density == Fraction(729, 16384)
    )
    # Independent oracle: direct point counting over the full lifted set for
    # a sample of the same stride-4 windows.
    pts = np.asarray(o16.points, dtype=np.int64)
    rng = random.Random(6)
    oracle_ok = True
    for _ in range(8):
        x0 = tuple(rng.randrange(0, 11) * 4 for _ in range(5))
        direct = int(
            np.all((pts >= np.array(x0)) & (pts < np.array(x0) + 8), axis=1).sum()
        )
        if direct != window_count(o16, (0,) * 5, x0, 8):
            oracle_ok = False
    # 3-grid-aligned windows of side 9: density exactly 6/243.
    aligned_ok = all(
        Fraction(window_count(o16, (0,) * 5, x0, 9), 9**5) == target
        for x0 in [(0,) * 5, (3, 6, 0, 9, 12), (39,) * 5]
    )
    elapsed = time.perf_counter() - start
    ok = within and extremes and oracle_ok and aligned_ok and elapsed < 300
    report(6, ok,
           f"densities in [{rep.min_density}, {rep.max_density}] around {target}, "
           f"strict bound={within}, frozen extremes={extremes}, oracle={oracle_ok}, "
           f"aligned exact={aligned_ok}, in {elapsed:.1f}s")


def test_criterion_7_continuum(z3_5_pair):
    _, T5, L5 = z3_5_pair
    start = time.perf_counter()
    o1 = build_omega1(T5, 2)
    l1 = build_lambda1(L5, 2)
    measure = build_omega2(o1).measure
    r0 = verify_spectrum_truncation(o1, l1, 0)
    r1 = verify_spectrum_truncation(o1, l1, 1, pair_budget=1_000_000)
    elapsed = time.perf_counter() - start
    ok = (
        measure == 192
        and r0.valid
        and not r0.sampled
        and r0.pairs_checked == 18336
        and r1.valid
        and r1.sampled
        and r1.pairs_checked == 1_000_000
        and elapsed < 300
    )
    report(7, ok,
           f"measure={measure}, k=0 full pass valid={r0.valid}, "
           f"k=1 sampled 1e6 pairs valid={r1.valid}, in {elapsed:.1f}s")


def test_criterion_8_small_group_scans():
    start = time.perf_counter()
    bad = []
    for n in range(2, 13):
        _, summary = fuglede_scan(GroupSpec.cyclic(n))
        if summary.spectral_non_tiles or summary.tiles_non_spectral:
            bad.append(f"Z_{n}")
    for k in range(1, 5):
        _, summary = fuglede_scan(GroupSpec.power(2, k))
        if summary.spectral_non_tiles or summary.tiles_non_spectral:
            bad.append(f"Z_2^{k}")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 600
    report(8, ok, f"zero counterexamples in Z_n (n<=12) and Z_2^k (k<=4), "
                  f"in {elapsed:.1f}s" + (f"; failures: {bad}" if bad else ""))


# -- criterion 9: naive oracles, independent of the search code -------------


def _char_table(g):
    elems = [g.unrank(r) for r in range(g.order)]
    table = {}
    for xi in elems:
        for x in elems:
            angle = sum(a * b / n for a, b, n in zip(xi, x, g.moduli))
            table[(xi, x)] = cmath.exp(2j * cmath.pi * angle)
    return elems, table


def oracle_spectral(g, T):
    """Enumerate candidate spectra containing 0 and test orthogonality in
    floating point; spectra are translation-invariant so this is complete."""
    s = len(T)
    if s == 1:
        return True
    elems, table = _char_table(g)
    zero = g.identity()
    pts = sorted(T)

    def orthogonal(xi, eta):
        total = sum(table[(xi, x)] * table[(eta, x)].conjugate() for x in pts)
        return abs(total) < 1e-9

    others = [e for e in elems if e != zero]
    for cand in itertools.combinations(others, s - 1):
        L = (zero,) + cand
        if all(
            orthogonal(L[i], L[j])
            for i in range(s)
            for j in range(i + 1, s)
        ):
            return True
    return False


def oracle_tiles(g, T):
    """Enumerate complements containing 0 and check exact coverage."""
    s = len(T)
    if g.order % s:
        return False
    k = g.order // s
    elems = [g.unrank(r) for r in range(g.order)]
    zero = g.identity()
    if k == 1:
        return frozenset(T) == frozenset(elems)
    for rest in itertools.combinations([e for e in elems if e != zero], k - 1):
        covered = set()
        ok = True
        for t in (zero,) + rest:
            for x in T:
                y = g.add(x, t)
                if y in covered:
                    ok = False
                    break
                covered.add(y)
            if not ok:
                break
        if ok and len(covered) == g.order:
            return True
    return False


def test_criterion_9_oracle_agreement():
    rng = random.Random(2026)
    moduli_pool = [2, 2, 2, 3, 3, 4, 5, 6, 7, 8]
    cases = 0
    start = time.perf_counter()
    while cases < 200:
        ndim = rng.randrange(1, 4)
        moduli = tuple(rng.choice(moduli_pool) for _ in range(ndim))
        g = GroupSpec(moduli)
        if g.order > 64:
            continue
        s = rng.randrange(1, min(7, g.order + 1))
        # keep both naive enumerations affordable
        if math.comb(g.order - 1, s - 1) > 1500:
            continue
        if g.order % s == 0 and math.comb(g.order - 1, g.order // s - 1) > 1500:
            continue
        elems = [g.unrank(r) for r in range(g.order)]
        T = frozenset(rng.sample(elems, s))
        assert find_spectrum(g, T).spectral == oracle_spectral(g, T), (moduli, sorted(T))
        assert find_tiling(g, T).tiles == oracle_tiles(g, T), (moduli, sorted(T))
        cases += 1
    elapsed = time.perf_counter() - start
    report(9, cases == 200, f"{cases} random subsets agree with both naive "
                            f"oracles, in {elapsed:.1f}s")
