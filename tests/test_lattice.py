import inspect
import itertools
import time
import typing
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fuglede import cyclotomic, lattice
from fuglede.continuum import CubeUnion, verify_spectrum_truncation
from fuglede.cyclotomic import CyclotomicInt, vanishing
from fuglede.groups import GroupSpec
from fuglede.hadamard import descend, paper_h6, spectrum_from_butson
from fuglede.lattice import (
    FrequencySet,
    OrthoResult,
    build_lambda1,
    build_omega1,
    cell_count_check,
    character_sum_lattice,
    density_check,
    pair_verdicts_direct,
    torus_non_tiling,
    verify_ortho_lattice,
)
from fuglede.spectra import fourier_zero_set, is_spectrum
from oracles import (
    _window_counts,
    counted_cells,
    pair_verdicts_factored,
    table_pair_verdicts,
    vanishing_table,
    window_count,
)


def as_tuples(points):
    return set(map(tuple, points.tolist()))


def count_points(points, lo, window):
    """#points in lo + [0,window)^n, counted point by point."""
    lo = np.asarray(lo)
    return int(np.all((points >= lo) & (points < lo + window), axis=1).sum())


def scalar_sum(omega1, delta, denom):
    """The character sum over omega1 at one delta, its exponents summed in
    int64 point by point: the per-pair oracle for `character_sum_lattice`,
    which stays independent of its chunks and their row offsets by taking one
    delta at a time."""
    exps = omega1.points @ np.asarray(delta, dtype=np.int64) % denom
    return CyclotomicInt(denom, tuple(np.bincount(exps, minlength=denom).tolist()))


@pytest.fixture(scope="module")
def z3_5_pair():
    g6, T6, L6 = spectrum_from_butson(paper_h6())
    _, T5, L5 = descend(g6, T6, L6)
    return T5, L5


def test_annotations_resolve():
    for _, function in inspect.getmembers(lattice, inspect.isfunction):
        if function.__module__ == lattice.__name__:
            typing.get_type_hints(function)


def test_build_omega1_m1_is_base(z3_5_pair):
    T5, _ = z3_5_pair
    o1 = build_omega1(T5, 1)
    assert as_tuples(o1.points) == set(T5)


def test_build_omega1_m2_size_and_bounds(z3_5_pair):
    T5, _ = z3_5_pair
    o1 = build_omega1(T5, 2)
    assert len(o1.points) == 192
    assert all(0 <= c < 6 for p in o1.points for c in p)


def test_build_omega1_singleton_base():
    o1 = build_omega1({(0, 0)}, 3)
    assert as_tuples(o1.points) == {
        (3 * a, 3 * b) for a in range(3) for b in range(3)
    }


@pytest.mark.parametrize(
    "make",
    [
        lambda rows: build_omega1(rows, 1),
        lambda rows: build_lambda1(rows, 1),
        lambda rows: FrequencySet(3, rows),
        CubeUnion,
    ],
    ids=["build_omega1", "build_lambda1", "FrequencySet", "CubeUnion"],
)
@pytest.mark.parametrize(
    "rows",
    [
        [(0.5, 1), (1, 2)],  # a float is refused, not cut to 0
        [(True, False)],
        np.array([[True, False], [False, True]]),
        [(0, 0), (1,)],
    ],
    ids=["float", "bool", "bool-array", "ragged"],
)
def test_rows_of_points_must_be_integers(make, rows):
    with pytest.raises(ValueError, match="must be rows of integers"):
        make(rows)


def test_base_points_keep_their_range_and_emptiness_messages():
    for build in (build_omega1, build_lambda1):
        with pytest.raises(ValueError, match=r"coordinates must lie in \{0,1,2\}"):
            build([(0, 3)], 1)
        with pytest.raises(ValueError, match="must be nonempty"):
            build([], 1)
    assert build_omega1([(2, 1), (0, 0), (2, 1)], 1).base == ((0, 0), (2, 1))


def test_build_lambda1_sizes(z3_5_pair):
    _, L5 = z3_5_pair
    l1 = build_lambda1(L5, 1)
    assert l1.denominator == 3 and len(l1.numerators) == 6
    l2 = build_lambda1(L5, 2)
    assert l2.denominator == 6 and len(l2.numerators) == 192
    grid = build_lambda1({(0, 0, 0)}, 2)
    assert set(map(tuple, grid.numerators.tolist())) == {
        (a, b, c) for a in range(2) for b in range(2) for c in range(2)
    }


def test_ortho_m1_equivalent_to_finite_group(z3_5_pair):
    T5, L5 = z3_5_pair
    o1 = build_omega1(T5, 1)
    l1 = build_lambda1(L5, 1)
    assert verify_ortho_lattice(o1, l1).valid == is_spectrum(
        GroupSpec.power(3, 5), frozenset(T5), frozenset(L5)
    ).valid


@pytest.mark.parametrize("m", [1, 2])
def test_ortho_valid_and_paths_agree(z3_5_pair, m):
    T5, L5 = z3_5_pair
    o1 = build_omega1(T5, m)
    l1 = build_lambda1(L5, m)
    direct = pair_verdicts_direct(o1, l1)
    factored = pair_verdicts_factored(o1, l1)
    assert direct.all()
    assert np.array_equal(direct, factored)
    assert verify_ortho_lattice(o1, l1).valid


def _bad_frequency_sets(l1):
    """Invalid variants of the M=2 frequencies: one frequency repeated, and
    one coordinate bumped by 1/(3M) at the first row from 0, 97 and 190
    where the bump collides with no frequency."""
    nums = list(map(tuple, l1.numerators.tolist()))
    # a repeated frequency: the first bad pair (97, 98) opens its row
    bad_sets = [nums[:98] + nums[97:98] + nums[99:]]
    for start in (0, 97, 190):
        perturbed = list(nums)
        for i in range(start, len(nums)):
            cand = nums[i][:4] + ((nums[i][4] + 1) % 6,)
            if cand not in nums:
                perturbed[i] = cand
                break
        bad_sets.append(tuple(perturbed))
    return bad_sets


def test_perturbed_spectrum_invalid_with_witness(z3_5_pair):
    T5, L5 = z3_5_pair
    o1 = build_omega1(T5, 2)
    for bad_nums in _bad_frequency_sets(build_lambda1(L5, 2)):
        bad = FrequencySet(6, bad_nums)
        verdicts = pair_verdicts_direct(o1, bad)
        assert np.array_equal(verdicts, pair_verdicts_factored(o1, bad))
        # the witness is the first failing pair in pair order, on both routes
        first = int(np.argmin(verdicts))
        expected = list(itertools.combinations(bad_nums, 2))[first]
        result = verify_ortho_lattice(o1, bad)
        assert not result.valid and result.witness == expected
        # the witness really fails by direct summation
        delta = tuple((a - b) % 6 for a, b in zip(expected[1], expected[0]))
        assert not scalar_sum(o1, delta, 6).is_zero()


def test_verify_walks_rows_without_the_per_pair_array(z3_5_pair, monkeypatch):
    """verify_ortho_lattice decides from the verdict rows alone: with
    pair_verdicts_direct unusable its results are unchanged, each witness
    being the first failing pair in pair order on the factored route.  The
    pinned index pairs place witnesses at the start, middle and end of a
    row, and on rows before the perturbed one."""
    T5, L5 = z3_5_pair
    o1 = build_omega1(T5, 2)
    l1 = build_lambda1(L5, 2)
    bad_sets = _bad_frequency_sets(l1)
    expected = []
    for bad_nums in bad_sets:
        first = int(np.argmin(pair_verdicts_factored(o1, FrequencySet(6, bad_nums))))
        witness = list(itertools.combinations(bad_nums, 2))[first]
        expected.append(OrthoResult(False, witness, 18336))

    def unusable(*args, **kwargs):
        raise AssertionError("the per-pair verdict array was built")

    monkeypatch.setattr(lattice, "pair_verdicts_direct", unusable)
    assert verify_ortho_lattice(o1, l1) == OrthoResult(True, pairs=18336)
    results = [verify_ortho_lattice(o1, FrequencySet(6, b)) for b in bad_sets]
    assert results == expected
    index_pairs = []
    for bad_nums, result in zip(bad_sets, results):
        i = bad_nums.index(result.witness[0])
        index_pairs.append((i, bad_nums.index(result.witness[1], i + 1)))
    assert index_pairs == [(97, 98), (0, 1), (32, 97), (46, 191)]


def test_direct_rejects_order_above_max_before_allocating(z3_5_pair):
    T5, _ = z3_5_pair
    o1 = build_omega1(T5, 1)
    # Only the lift's denominator 3M is accepted; 65 is refused first.
    bad = FrequencySet(65, ((0,) * 5, (64, 1, 2, 3, 4)))
    with pytest.raises(ValueError, match="denominator 65 is not the lift's 3M = 3"):
        pair_verdicts_direct(o1, bad)
    assert "points" not in vars(o1)


def test_denominators_other_than_3m_are_refused_before_anything_is_built(z3_5_pair):
    """The lattice routes and the continuum share one refusal: the M = 1
    frequencies over 7 instead of 3 raise before a table or point is built."""
    T5, L5 = z3_5_pair
    o1 = build_omega1(T5, 1)
    seven = FrequencySet(7, build_lambda1(L5, 1).numerators)
    routes = [
        verify_ortho_lattice,
        pair_verdicts_direct,
        lambda o, l: verify_spectrum_truncation(o, l, 1),
    ]
    for route in routes:
        with pytest.raises(ValueError, match="denominator 7 is not the lift's 3M = 3"):
            route(o1, seven)
    assert "points" not in vars(o1)


def test_candidates_past_the_budget_are_refused_before_allocating():
    # The table over Z_3^n lists every element of the group, which
    # GroupSpec.coords refuses past 2^20 elements: from n = 13 (3^13).
    o1 = build_omega1([(0,) * 13, (1,) * 13], 1)
    two = FrequencySet(3, ((0,) * 13, (1,) * 13))
    for route in (verify_ortho_lattice, pair_verdicts_direct):
        with pytest.raises(ValueError, match="order 1594323 too large to enumerate"):
            route(o1, two)
    assert "points" not in vars(o1)


@pytest.mark.parametrize("width", [3, 6])
@pytest.mark.parametrize(
    "route", [verify_ortho_lattice, pair_verdicts_direct, pair_verdicts_factored]
)
def test_frequency_rows_must_match_the_dimension(z3_5_pair, width, route):
    # Rows narrower or wider than the lifted set raise; zip must not cut them.
    T5, _ = z3_5_pair
    rows = [(0,) * width, (1,) + (0,) * (width - 1), (0, 1) + (0,) * (width - 2)]
    with pytest.raises(ValueError, match="must have 5 coordinates"):
        route(build_omega1(T5, 1), FrequencySet(3, rows))


def test_direct_zero_tests_every_code_once(z3_5_pair, monkeypatch):
    """Each lattice route makes one `vanishing` call, on the 3^5 = 243 codes
    of Z_3^5; at M = 2 the 213 where the base sum does not vanish, 0 among
    them, are the nonvanishing codes of Z_6^5 once each digit is doubled."""
    T5, L5 = z3_5_pair
    o1 = build_omega1(T5, 2)
    l1 = build_lambda1(L5, 2)
    rows = []

    def counting_vanishing(counts):
        rows.append(len(counts))
        return vanishing(counts)

    monkeypatch.setattr(cyclotomic, "vanishing", counting_vanishing)
    assert not hasattr(lattice, "vanishing")
    verdicts = pair_verdicts_direct(o1, l1)
    assert len(verdicts) == 18336 and verdicts.all() and rows == [243]
    assert verify_ortho_lattice(o1, l1).valid and rows == [243, 243]
    table = lattice._nonvanishing_table(o1)
    assert table.shape == (243,) and table.sum() == 213 and table[0]
    codes = lattice._codes(2 * GroupSpec.power(3, 5).coords[table], 6)
    assert np.array_equal(codes, np.flatnonzero(~vanishing_table(o1, 6)))


def test_table_guard_counts_phi_terms_per_point(monkeypatch):
    """An axis product sums up to phi(m) terms per point, each in {-1, 0, 1}:
    the table refuses a set once phi(m) * #points reaches float32's exact
    range, and builds the same table just below it."""
    o1 = build_omega1([(0, 0), (1, 2), (2, 1)], 2)  # 12 points
    phi = cyclotomic.reduction_matrix(15).shape[1]
    assert phi == 8
    expected = vanishing_table(o1, 15)
    monkeypatch.setattr(oracles, "_EXACT", phi * 12)
    with pytest.raises(ValueError, match="beyond float32's exact integers"):
        vanishing_table(o1, 15)
    monkeypatch.setattr(oracles, "_EXACT", phi * 12 + 1)
    assert vanishing_table(o1, 15).tolist() == expected.tolist()


@pytest.mark.parametrize("m", [1, 3])
def test_nonvanishing_codes_are_213_at_every_scale(z3_5_pair, m):
    T5, _ = z3_5_pair
    table = vanishing_table(build_omega1(T5, m), 3 * m)
    assert table.shape == ((3 * m) ** 5,) and (~table).sum() == 213


def test_factorization_gives_213_codes_at_every_scale_the_command_admits(z3_5_pair):
    # C(M e) over the base does not depend on M, so neither does |B|: of the
    # differences over 3M, B holds 213 of the multiples of M and no other.
    T5, _ = z3_5_pair
    every = GroupSpec.power(3, 5).coords
    for m in range(1, 14):
        table = lattice._nonvanishing_table(build_omega1(T5, m))
        assert lattice._in_b(m * every, m, table).sum() == 213
        assert lattice._in_b(m * every - 3 * m, m, table).sum() == 213
        assert m == 1 or not lattice._in_b(m * every + 1, m, table).any()


def test_table_is_the_complement_of_the_fourier_zero_set(z3_5_pair):
    """The table is the complement of the base's Fourier zero set in Z_3^5,
    213 codes with 0 among them; scaled by M they are the nonvanishing codes
    of the dense oracle over Z_3M^5."""
    T5, _ = z3_5_pair
    g = GroupSpec.power(3, 5)
    zeros = g.ranks(sorted(fourier_zero_set(g, T5)))
    table = lattice._nonvanishing_table(build_omega1(T5, 1))
    assert np.array_equal(np.flatnonzero(~table), zeros)
    assert table.sum() == 213 and table[0]
    for m in (1, 2, 3):
        codes = lattice._codes(m * g.coords[table], 3 * m)
        dense = vanishing_table(build_omega1(T5, m), 3 * m)
        assert np.array_equal(codes, np.flatnonzero(~dense))


def test_witness_from_the_code_lookups_at_m3(z3_5_pair):
    """At M=3 (1,458 frequencies, 213 nonvanishing codes) the witness from
    the class walk is the first failing pair of the gathered verdicts, for a
    repeat and for bumps at the start, middle and end of the rows."""
    T5, L5 = z3_5_pair
    o1 = build_omega1(T5, 3)
    nums = build_lambda1(L5, 3).numerators.tolist()
    count = len(nums)
    bad_sets = [nums[:701] + nums[700:701] + nums[702:]]
    for start in (0, 700, 1450):
        bumped = [list(v) for v in nums]
        bumped[start][4] = (bumped[start][4] + 1) % 9
        bad_sets.append(bumped)
    for bad_nums in bad_sets:
        bad = FrequencySet(9, bad_nums)
        result = verify_ortho_lattice(o1, bad)
        first = int(np.argmin(pair_verdicts_direct(o1, bad)))
        i, j = (int(k[first]) for k in np.triu_indices(count, 1))
        assert not result.valid and result.pairs == count * (count - 1) // 2
        assert result.witness == (tuple(bad_nums[i]), tuple(bad_nums[j]))


def test_many_copies_of_one_row_stay_linear(z3_5_pair):
    """20,000 copies of one row after the M=2 frequencies: each distinct row
    is walked once, so the certificate returns the first failing pair, the
    row and its first copy, well within a second."""
    T5, L5 = z3_5_pair
    nums = build_lambda1(L5, 2).numerators
    many = FrequencySet(6, np.concatenate([nums, np.repeat(nums[97:98], 20000, 0)]))
    start = time.perf_counter()
    result = verify_ortho_lattice(build_omega1(T5, 2), many)
    assert time.perf_counter() - start < 1
    row = tuple(nums[97].tolist())
    assert result == OrthoResult(False, (row, row), 20192 * 20191 // 2)


@st.composite
def perturbed_frequency_sets(draw):
    """A lifted set and a frequency set from build_lambda1, with some
    numerators shifted, one frequency repeated, or truncated to 0-2.  Half
    the bases are products of per-axis sets, whose character sums vanish
    often (every nonzero frequency on an axis holding all of {0,1,2})."""
    n = draw(st.integers(1, 3))
    cube = list(itertools.product(range(3), repeat=n))
    axis = st.lists(st.sampled_from(range(3)), min_size=1, unique=True)
    base = draw(
        st.one_of(
            st.lists(st.sampled_from(cube), min_size=1, unique=True),
            st.tuples(*[axis] * n).map(lambda f: list(itertools.product(*f))),
        )
    )
    spec = draw(st.lists(st.sampled_from(cube), min_size=1, max_size=4, unique=True))
    m = draw(st.integers(1, 2))
    l1 = build_lambda1(spec, m)
    denom, nums = l1.denominator, list(map(tuple, l1.numerators.tolist()))
    kind = draw(st.sampled_from(["shifted", "repeated", "truncated"]))
    if kind == "shifted":
        shift = [draw(st.integers(0, denom - 1)) for _ in range(n)]
        for i in draw(st.lists(st.integers(0, len(nums) - 1), unique=True)):
            nums[i] = tuple((a + s) % denom for a, s in zip(nums[i], shift))
    elif kind == "repeated":
        copy = nums[draw(st.integers(0, len(nums) - 1))]
        nums.insert(draw(st.integers(0, len(nums))), copy)
    else:
        nums = nums[: draw(st.integers(0, 2))]
    return build_omega1(base, m), FrequencySet(denom, tuple(nums))


@settings(deadline=None)
@given(perturbed_frequency_sets())
def test_direct_matches_per_pair_sums_and_factored(sets):
    o1, l1 = sets
    nums = list(map(tuple, l1.numerators.tolist()))
    reference = np.array(
        [
            scalar_sum(o1, tuple(np.subtract(nj, ni)), l1.denominator).is_zero()
            for ni, nj in itertools.combinations(nums, 2)
        ],
        dtype=bool,
    )
    direct = pair_verdicts_direct(o1, l1)
    assert direct.dtype == bool
    assert np.array_equal(direct, reference)
    assert np.array_equal(direct, pair_verdicts_factored(o1, l1))
    result = verify_ortho_lattice(o1, l1)
    assert result.valid == bool(reference.all())
    assert result.pairs == len(reference)
    if not result.valid:
        pairs = list(itertools.combinations(nums, 2))
        assert result.witness == pairs[int(np.argmin(reference))]


@st.composite
def lifted_sets_over_3m(draw):
    """A lifted set with n <= 3 and M <= 4 and frequencies from build_lambda1
    over 3M, as built, with rows shifted, with a row repeated, or cut to 0
    or 1 rows."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cube = list(itertools.product(range(3), repeat=n))
    axis = st.lists(st.sampled_from(range(3)), min_size=1, unique=True)
    base = draw(
        st.one_of(
            st.lists(st.sampled_from(cube), min_size=1, unique=True),
            st.tuples(*[axis] * n).map(lambda f: list(itertools.product(*f))),
        )
    )
    spec = draw(st.lists(st.sampled_from(cube), min_size=1, max_size=4, unique=True))
    denom, nums = 3 * m, build_lambda1(spec, m).numerators.tolist()
    kind = draw(st.sampled_from(["built", "shifted", "repeated", "cut"]))
    if kind == "shifted":
        shift = [draw(st.integers(0, denom - 1)) for _ in range(n)]
        for i in draw(st.lists(st.integers(0, len(nums) - 1), unique=True)):
            nums[i] = [(a + s) % denom for a, s in zip(nums[i], shift)]
    elif kind == "repeated":
        copy = nums[draw(st.integers(0, len(nums) - 1))]
        nums.insert(draw(st.integers(0, len(nums))), copy)
    elif kind == "cut":
        nums = nums[: draw(st.integers(0, 1))]
    return build_omega1(base, m), FrequencySet(denom, nums)


@settings(deadline=None)
@given(lifted_sets_over_3m())
def test_factorized_routes_match_the_dense_table(sets):
    """Both routes that read B from the factorization agree with the oracle
    table over every point: the pair verdicts, and the certificate's verdict,
    pair count and witness (the first failing pair in combinations order)."""
    o1, l1 = sets
    reference = table_pair_verdicts(o1, l1)
    assert np.array_equal(pair_verdicts_direct(o1, l1), reference)
    result = verify_ortho_lattice(o1, l1)
    assert result.valid == bool(reference.all()) and result.pairs == len(reference)
    if not result.valid:
        i, j = (int(k[np.argmin(reference)]) for k in np.triu_indices(len(l1.numerators), 1))
        nums = list(map(tuple, l1.numerators.tolist()))
        assert result.witness == (nums[i], nums[j])


def _axis_sets(denom):
    """Integer sets on one axis, among them progressions of step denom/p
    for the primes p | denom, whose sums vanish at many frequencies."""
    steps = [denom // p for p in (2, 3, 5, 7) if denom % p == 0]
    progression = st.builds(
        lambda start, step: {start + k * step for k in range(denom // step)},
        st.integers(-denom, denom),
        st.sampled_from(steps),
    )
    noise = st.sets(st.integers(-denom, 2 * denom), min_size=1, max_size=3)
    return st.lists(st.one_of(progression, noise), min_size=1, max_size=2).map(
        lambda parts: sorted(set().union(*parts))
    )


@st.composite
def corrupted_lattice_sets(draw):
    """A FrequencySet with a denominator rich in units and a lifted set whose
    cached points are overwritten: arbitrary small int64 points, or a
    product of per-axis sets with a few points removed or added."""
    denom = draw(st.sampled_from([7, 9, 12, 15, 16, 21]))
    n = draw(st.integers(1, 3))
    frequency = st.tuples(*[st.integers(0, denom - 1)] * n)
    nums = draw(st.lists(frequency, max_size=10))
    coord = st.integers(-2 * denom, 2 * denom)
    loose = st.lists(st.tuples(*[coord] * n), max_size=12)
    if draw(st.booleans()):
        points = draw(loose)
    else:
        product = itertools.product(*[draw(_axis_sets(denom)) for _ in range(n)])
        points = list(product)[draw(st.integers(0, 2)) :] + draw(loose)[:2]
    o1 = build_omega1([(0,) * n], 1)
    vars(o1)["points"] = np.array(points, dtype=np.int64).reshape(-1, n)
    return o1, FrequencySet(denom, tuple(nums))


@settings(deadline=None)
@given(corrupted_lattice_sets())
def test_direct_matches_per_pair_sums_on_corrupted_points(sets):
    """The oracle table that the direct routes are checked against holds for
    any integer point set, not only lifts, where the factored route cannot
    serve as the check."""
    o1, l1 = sets
    reference = [
        scalar_sum(o1, tuple(np.subtract(nj, ni)), l1.denominator).is_zero()
        for ni, nj in itertools.combinations(l1.numerators, 2)
    ]
    assert table_pair_verdicts(o1, l1).tolist() == reference


@st.composite
def counted_point_sets(draw):
    """Integer points in n = 1..3 dimensions and a modulus m = 1..24, every
    order 3M the lattice command admits: signed, outside [0, m), some
    repeated mod m, and half the time a product of per-axis sets whose sums
    vanish at many d."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 24))
    coord = st.integers(-2 * m, 3 * m)
    points = draw(st.lists(st.tuples(*[coord] * n), max_size=8))
    if any(m % p == 0 for p in (2, 3, 5, 7)) and draw(st.booleans()):
        points += itertools.product(*[draw(_axis_sets(m)) for _ in range(n)])
    if points:
        copies = draw(st.lists(st.sampled_from(points), max_size=4))
        wrap = st.integers(-2, 2)
        points += [tuple(c + m * draw(wrap) for c in p) for p in copies]
    o1 = build_omega1([(0,) * n], 1)
    vars(o1)["points"] = np.array(points, dtype=np.int64).reshape(-1, n)
    return o1, m


@settings(deadline=None)
@given(counted_point_sets())
def test_table_matches_vanishing_sums_at_every_difference(case):
    """The transform against the independent kernel, at every d in Z_m^n in
    code order."""
    o1, m = case
    every = np.indices((m,) * o1.dimension).reshape(o1.dimension, -1).T
    table = vanishing_table(o1, m)
    assert table.dtype == bool
    assert table.tolist() == cyclotomic.vanishing_sums(o1.points, every, m).tolist()


@settings(deadline=None)
@given(counted_point_sets(), st.data())
def test_batched_sums_match_the_scalar_oracle(case, data):
    """Row r of a batch is the root-count vector of the int64 sum at
    deltas[r]: signed and out-of-range deltas, repeated rows, batches of 0
    and 1 rows, and chunks small enough that one batch spans several."""
    o1, m = case
    n = o1.dimension
    entry = st.one_of(st.integers(-3 * m, 3 * m), st.integers(-(2**40), 2**40))
    deltas = data.draw(st.lists(st.tuples(*[entry] * n), max_size=24))
    if deltas:
        deltas += data.draw(st.lists(st.sampled_from(deltas), max_size=3))
    small = st.integers(0, 12).flatmap(lambda e: st.integers(1, 1 << e))  # log-spread
    batch = data.draw(st.one_of(small, st.just(cyclotomic._BATCH)))
    with mock.patch.object(cyclotomic, "_BATCH", batch):
        rows = np.array(deltas, dtype=np.int64).reshape(-1, n)
        got = character_sum_lattice(o1, rows, m)
    assert got.dtype == np.int64 and got.shape == (len(deltas), m)
    assert got.tolist() == [list(scalar_sum(o1, d, m).coeffs) for d in deltas]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_cell_counts(z3_5_pair, m):
    T5, _ = z3_5_pair
    assert cell_count_check(build_omega1(T5, m))


def _moved_out(points):
    moved = points.copy()
    moved[0, 0] = 6  # one past the support box [0, 6)^5 at M=2
    return moved


@pytest.mark.parametrize(
    "corrupt", [lambda p: p[1:], _moved_out], ids=["deleted", "moved-out"]
)
def test_cell_count_detects_deletion(z3_5_pair, corrupt):
    T5, _ = z3_5_pair
    o1 = build_omega1(T5, 2)
    assert cell_count_check(o1) and counted_cells(o1)
    with pytest.raises(ValueError):
        o1.points[0, 0] = 1
    # The oracle counts the points, not (base, M): corrupt the cached points.
    vars(o1)["points"] = corrupt(o1.points)
    assert not counted_cells(o1)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize(
    "base",
    [[(0, 0), (1, 2)], [(0, 0), (3, 1)], [(0, 0), (-1, 2)], [(0, 1), (2, 2), (0, 1)]],
    ids=["inside", "past-2", "negative", "repeated"],
)
def test_cell_count_from_the_base_of_a_direct_lattice_set(base, m):
    # LatticeSet skips build_omega1's checks: a base point outside {0,1,2}^n
    # leaves the box or lands in another cell, and a repeat is one point.
    o1 = lattice.LatticeSet(tuple(base), m)
    distinct = len(set(base)) == len(base)
    assert cell_count_check(o1) == (base == [(0, 0), (1, 2)])
    assert cell_count_check(o1) == (counted_cells(o1) and distinct)


def test_window_counts(z3_5_pair):
    T5, _ = z3_5_pair
    o1 = build_omega1(T5, 2)
    zero = (0,) * 5
    assert window_count(o1, zero, (100,) * 5, 3) == 0
    assert window_count(o1, zero, zero, 6) == 192
    assert window_count(o1, zero, zero, 3) == 6
    # translation consistency
    t = (1, 2, 0, 4, 3)
    x0 = (2, 2, 2, 2, 2)
    assert window_count(o1, t, x0, 4) == window_count(
        o1, zero, tuple(a - b for a, b in zip(x0, t)), 4
    )


def test_window_count_structured_matches_brute_force(z3_5_pair):
    T5, _ = z3_5_pair
    o1 = build_omega1(T5, 2)
    for x0 in [(0,) * 5, (1, 0, 2, 3, 1), (-2, 0, 0, 5, 4)]:
        for window in (3, 4, 6):
            assert window_count(o1, (0,) * 5, x0, window) == count_points(
                o1.points, x0, window
            )


@st.composite
def small_lattice_sets(draw):
    n = draw(st.integers(1, 3))
    cube = list(itertools.product(range(3), repeat=n))
    base = draw(st.lists(st.sampled_from(cube), min_size=1, unique=True))
    return build_omega1(base, draw(st.integers(1, 4)))


@settings(deadline=None)
@given(small_lattice_sets(), st.data())
def test_window_count_matches_point_count(o1, data):
    n = o1.dimension
    span = 3 * o1.m
    t = tuple(data.draw(st.integers(-span, span)) for _ in range(n))
    # corners may lie outside the support box [0, 3M)^n
    x0 = tuple(data.draw(st.integers(-4, span + 4)) for _ in range(n))
    window = data.draw(st.integers(-1, span + 2))  # empty windows count 0
    lo = tuple(a - b for a, b in zip(x0, t))
    assert window_count(o1, t, x0, window) == count_points(o1.points, lo, window)


@settings(deadline=None)
@given(small_lattice_sets(), st.data())
def test_density_check_matches_brute_force(o1, data):
    n = o1.dimension
    span = 3 * o1.m
    window = data.draw(st.integers(3, span))
    stride = data.draw(st.integers(1, 3))
    positions = range(0, span - window + 1, stride)
    counts = [
        count_points(o1.points, x0, window)
        for x0 in itertools.product(positions, repeat=n)
    ]
    densities = [Fraction(f, window**n) for f in counts if f]
    report = density_check(o1, window, stride)
    target = Fraction(len(o1.base), 3**n)
    tolerance = Fraction(12, window)
    assert report.windows == len(counts)
    assert report.nonzero_windows == len(densities)
    assert report.min_density == min(densities)
    assert report.max_density == max(densities)
    assert report.ok == all(abs(d - target) <= tolerance for d in densities)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_density_check_matches_window_scan_in_dimension_5(z3_5_pair, m):
    """n = 5, which the brute-force test above does not draw: every window
    side and strides 1..4, against the exact count of every window on the
    stride grid."""
    T5, _ = z3_5_pair
    o1 = build_omega1(T5, m)
    for window in range(3, 3 * m + 1):
        for stride in range(1, 5):
            positions = range(0, 3 * m - window + 1, stride)
            counts = _window_counts(o1, [positions] * 5, window)
            hit = counts[counts > 0]
            report = density_check(o1, window, stride)
            assert report.windows == counts.size
            assert report.nonzero_windows == hit.size
            assert report.min_density == Fraction(int(hit.min()), window**5)
            assert report.max_density == Fraction(int(hit.max()), window**5)


def test_density_check_never_expands_points(z3_5_pair):
    T5, _ = z3_5_pair
    o1 = build_omega1(T5, 16)
    assert density_check(o1, 8, stride=4).ok
    assert "points" not in vars(o1)


def test_aligned_windows_exact_density(z3_5_pair):
    T5, _ = z3_5_pair
    o1 = build_omega1(T5, 4)
    for x0 in [(0,) * 5, (3, 0, 6, 3, 0)]:
        f = window_count(o1, (0,) * 5, x0, 6)
        assert f == 6 * 2**5


def test_density_solid_box():
    base = [
        (a, b) for a in range(3) for b in range(3)
    ]
    o1 = build_omega1(base, 4)
    report = density_check(o1, 4)
    assert report.min_density == report.max_density == 1


def test_torus_obstruction(z3_5_pair):
    T5, _ = z3_5_pair
    for m in (1, 2, 3):
        obs = torus_non_tiling(build_omega1(T5, m))
        assert obs is not None
        assert obs.set_size == 6 * m**5
        assert obs.group_order == (3 * m) ** 5


def test_torus_no_obstruction_for_solid_box():
    base = [(a, b) for a in range(3) for b in range(3)]
    assert torus_non_tiling(build_omega1(base, 2)) is None


def test_torus_toy_1d():
    o1 = build_omega1({(0,), (1,)}, 2)
    obs = torus_non_tiling(o1)
    assert obs is not None and (obs.set_size, obs.group_order) == (4, 6)


def test_density_report_tolerance_and_target(z3_5_pair):
    T5, _ = z3_5_pair
    o1 = build_omega1(T5, 4)
    report = density_check(o1, 6, stride=3)
    assert report.target == Fraction(6, 243)
    assert report.tolerance == Fraction(12, 6)
    assert report.ok
