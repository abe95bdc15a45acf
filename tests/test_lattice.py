import inspect
import itertools
import typing
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuglede import cyclotomic, lattice
from fuglede.cyclotomic import vanishing
from fuglede.hadamard import descend, paper_h6, spectrum_from_butson
from fuglede.lattice import (
    FrequencySet,
    build_lambda1,
    build_omega1,
    cell_count_check,
    character_sum_lattice,
    density_check,
    pair_verdicts_direct,
    pair_verdicts_factored,
    torus_non_tiling,
    verify_ortho_lattice,
    window_count,
)
from fuglede.spectra import is_spectrum


def as_tuples(points):
    return set(map(tuple, points.tolist()))


def count_points(points, lo, window):
    """#points in lo + [0,window)^n, counted point by point."""
    lo = np.asarray(lo)
    return int(np.all((points >= lo) & (points < lo + window), axis=1).sum())


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
    from fuglede.groups import GroupSpec

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


def test_perturbed_spectrum_invalid_with_witness(z3_5_pair):
    T5, L5 = z3_5_pair
    o1 = build_omega1(T5, 2)
    l1 = build_lambda1(L5, 2)
    nums = list(map(tuple, l1.numerators.tolist()))
    # a repeated frequency: the first bad pair (97, 98) opens its row
    bad_sets = [nums[:98] + nums[97:98] + nums[99:]]
    for start in (0, 97, 190):
        perturbed = list(nums)
        # bump one coordinate by 1/(3M), picking a non-colliding perturbation
        for i in range(start, len(nums)):
            cand = nums[i][:4] + ((nums[i][4] + 1) % 6,)
            if cand not in nums:
                perturbed[i] = cand
                break
        bad_sets.append(tuple(perturbed))
    for bad_nums in bad_sets:
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
        assert not character_sum_lattice(o1, delta, 6).is_zero()


def test_direct_rejects_order_above_max_before_allocating(z3_5_pair):
    T5, _ = z3_5_pair
    o1 = build_omega1(T5, 1)
    # 65^5 booleans would be about 1.16 GB; the order is refused first.
    bad = FrequencySet(65, ((0,) * 5, (64, 1, 2, 3, 4)))
    with pytest.raises(ValueError, match="unsupported root order 65"):
        pair_verdicts_direct(o1, bad)
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


def test_direct_sums_once_per_galois_orbit(z3_5_pair, monkeypatch):
    T5, L5 = z3_5_pair
    o1 = build_omega1(T5, 2)
    l1 = build_lambda1(L5, 2)
    rows = []

    def counting_vanishing(counts):
        rows.append(len(counts))
        return vanishing(counts)

    monkeypatch.setattr(cyclotomic, "vanishing", counting_vanishing)
    verdicts = pair_verdicts_direct(o1, l1)
    distinct = {
        tuple((b - a) % 6 for a, b in zip(ni, nj))
        for ni, nj in itertools.combinations(l1.numerators, 2)
    }
    # u*d for the units u of Z_6 (1 and 5): one kernel row per orbit.
    orbits = {min(tuple(u * c % 6 for c in d) for u in (1, 5)) for d in distinct}
    assert len(verdicts) == 18336 and verdicts.all()
    assert (len(distinct), len(orbits)) == (2765, 2231)
    assert sum(rows) == len(orbits)


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
            character_sum_lattice(
                o1, tuple(np.subtract(nj, ni)), l1.denominator
            ).is_zero()
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
    """The orbit reduction holds for any integer point set, not only lifts,
    where the factored route cannot serve as the check."""
    o1, l1 = sets
    reference = [
        character_sum_lattice(o1, tuple(np.subtract(nj, ni)), l1.denominator).is_zero()
        for ni, nj in itertools.combinations(l1.numerators, 2)
    ]
    assert pair_verdicts_direct(o1, l1).tolist() == reference


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
    assert cell_count_check(o1)
    with pytest.raises(ValueError):
        o1.points[0, 0] = 1
    # The check counts the points, not (base, M): corrupt the cached points.
    vars(o1)["points"] = corrupt(o1.points)
    assert not cell_count_check(o1)


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
