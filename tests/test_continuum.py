import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuglede.continuum import (
    CubeUnion,
    ExtendedFrequency,
    TruncationResult,
    build_omega2,
    export_geometry,
    inner_product_is_zero,
    load_geometry,
    verify_spectrum_truncation,
)
from fuglede.hadamard import descend, paper_h6, spectrum_from_butson
from fuglede.lattice import (
    FrequencySet,
    build_lambda1,
    build_omega1,
    pair_verdicts_direct,
    verify_ortho_lattice,
)


def lifted_pair(m):
    g6, T6, L6 = spectrum_from_butson(paper_h6())
    _, T5, L5 = descend(g6, T6, L6)
    return build_omega1(T5, m), build_lambda1(L5, m)


@pytest.fixture(scope="module")
def lifted():
    return lifted_pair(2)


def test_measure_equals_point_count(lifted):
    o1, _ = lifted
    o2 = build_omega2(o1)
    assert o2.measure == 192
    assert o2.dimension == 5
    assert CubeUnion(((0, 0),)).measure == 1


def test_equal_base_nonzero_shift_is_orthogonal(lifted):
    o1, _ = lifted
    assert inner_product_is_zero(o1, (0,) * 5, 6, (1, 0, 0, 0, 0))
    assert inner_product_is_zero(o1, (0,) * 5, 6, (0, 0, -3, 0, 2))


def test_distinct_bases_zero_shift_uses_lattice_orthogonality(lifted):
    o1, l1 = lifted
    a, b = l1.numerators[0], l1.numerators[5]
    delta = tuple((x - y) % 6 for x, y in zip(b, a))
    assert inner_product_is_zero(o1, delta, 6, (0,) * 5)


def test_nonvanishing_difference_detected(lifted):
    # delta (0,0,0,0,2)/6 has a nonvanishing sum over the lifted set
    # (located by brute-force scan over all denominator-6 differences).
    o1, _ = lifted
    assert not inner_product_is_zero(o1, (0, 0, 0, 0, 2), 6, (0,) * 5)


def test_eta_zero_rejected(lifted):
    o1, _ = lifted
    with pytest.raises(ValueError):
        inner_product_is_zero(o1, (0,) * 5, 6, (0,) * 5)


def test_conjugate_symmetry(lifted):
    o1, _ = lifted
    cases = [
        ((0, 0, 0, 0, 2), (0, 0, 0, 0, 0)),
        ((1, 2, 0, 0, 3), (0, 1, 0, 0, 0)),
        ((0, 0, 0, 0, 0), (2, 0, 0, 0, 0)),
    ]
    for delta, shift in cases:
        neg_delta = tuple((-d) % 6 for d in delta)
        carry = tuple(-1 if d else 0 for d in delta)
        neg_shift = tuple(-s + c for s, c in zip(shift, carry))
        assert inner_product_is_zero(o1, delta, 6, shift) == inner_product_is_zero(
            o1, neg_delta, 6, neg_shift
        )


def test_truncation_k0_matches_lattice_verdict(lifted):
    o1, l1 = lifted
    result = verify_spectrum_truncation(o1, l1, 0)
    lattice_result = verify_ortho_lattice(o1, l1)
    assert result.valid == lattice_result.valid
    assert result.pairs_checked == lattice_result.pairs == 18336
    assert not result.sampled


def test_truncation_k1_sampled(lifted):
    o1, l1 = lifted
    result = verify_spectrum_truncation(o1, l1, 1, pair_budget=20_000)
    assert result.valid and result.sampled
    assert result.pairs_checked == 20_000


def test_truncation_detects_corruption(lifted):
    o1, l1 = lifted
    nums = list(map(tuple, l1.numerators.tolist()))
    for i in range(len(nums)):
        cand = nums[i][:4] + ((nums[i][4] + 1) % 6,)
        if cand not in nums:
            nums[i] = cand
            break
    bad = FrequencySet(6, tuple(nums))
    result = verify_spectrum_truncation(o1, bad, 0)
    assert not result.valid and result.witness is not None


def test_truncation_rejects_frequencies_of_another_dimension(lifted):
    o1, _ = lifted
    with pytest.raises(ValueError, match="must have 5 coordinates"):
        verify_spectrum_truncation(o1, FrequencySet(6, ((0, 0, 0), (1, 0, 0))), 0)


def truncation_reference(o1, l1, k_radius, pair_budget, seed=0):
    """Per-pair loop over the truncated spectrum: the same pair order and
    rng draws as verify_spectrum_truncation, one inner_product_is_zero call
    per pair; eta = 0 (a repeated frequency) fails, its product being the
    measure."""
    denom = l1.denominator
    radius = range(-k_radius, k_radius + 1)
    shifts = list(itertools.product(radius, repeat=o1.dimension))
    nums = list(map(tuple, l1.numerators.tolist()))
    freqs = [ExtendedFrequency(b, denom, k) for b in nums for k in shifts]
    count = len(freqs)

    def orthogonal(a, b):
        raw = [x - y for x, y in zip(a.base, b.base)]
        delta = [r % denom for r in raw]
        carry = [(r - d) // denom for r, d in zip(raw, delta)]
        shift = [p - q + c for p, q, c in zip(a.shift, b.shift, carry)]
        if not any(delta) and not any(shift):
            return False
        return inner_product_is_zero(o1, delta, denom, shift)

    sampled = count * (count - 1) // 2 > pair_budget
    if sampled:
        rng = random.Random(seed)
        draws = (
            (rng.randrange(count), rng.randrange(count - 1)) for _ in range(pair_budget)
        )
        pairs = ((i, j + (j >= i)) for i, j in draws)
    else:
        pairs = itertools.combinations(range(count), 2)
    checked = 0
    for i, j in pairs:
        checked += 1
        if not orthogonal(freqs[min(i, j)], freqs[max(i, j)]):
            return TruncationResult(False, (freqs[i], freqs[j]), checked, sampled)
    return TruncationResult(True, None, checked, sampled)


def test_repeated_frequency_fails_like_the_lattice_route(lifted):
    # At K = 0 the full pass visits the lattice pairs in the same order, so
    # a repeated numerator fails at the first failing pair of the lattice
    # route instead of raising on eta = 0.
    o1, l1 = lifted
    nums = list(map(tuple, l1.numerators.tolist()))
    bad = FrequencySet(6, nums[:98] + nums[97:98] + nums[99:])
    result = verify_spectrum_truncation(o1, bad, 0)
    ortho = verify_ortho_lattice(o1, bad)
    assert result.valid == ortho.valid is False
    assert tuple(f.base for f in result.witness) == ortho.witness
    assert result.pairs_checked == int(np.argmin(pair_verdicts_direct(o1, bad))) + 1
    assert not result.sampled


def test_repeated_frequency_fails_at_k1_full_pass():
    o1, l1 = lifted_pair(1)
    nums = list(map(tuple, l1.numerators.tolist()))
    bad = FrequencySet(3, nums[:4] + nums[3:4] + nums[4:])
    per, count = 3**5, 7 * 3**5
    result = verify_spectrum_truncation(o1, bad, 1, pair_budget=count * count)
    # The first failing pair: numerator 3 and its copy, both at shift -1.
    low = ExtendedFrequency(nums[3], 3, (-1,) * 5)
    i, j = 3 * per, 4 * per
    assert result == TruncationResult(
        False, (low, low), i * (2 * count - i - 1) // 2 + (j - i), False
    )


@pytest.mark.parametrize(
    "m, k_radius, budget", [(1, 0, 60), (2, 0, 10_000), (1, 1, 100_000)]
)
def test_repeated_frequency_fails_in_the_sample(m, k_radius, budget):
    # Every numerator twice, so the sample draws some eta = 0 pair.
    o1, l1 = lifted_pair(m)
    bad = FrequencySet(l1.denominator, list(map(tuple, l1.numerators.tolist())) * 2)
    result = verify_spectrum_truncation(o1, bad, k_radius, pair_budget=budget)
    assert result.sampled and not result.valid
    assert result.witness[0] == result.witness[1]
    assert result == truncation_reference(o1, bad, k_radius, budget)


@st.composite
def truncation_cases(draw):
    """A small lifted set, Lambda_1 as built, perturbed or truncated, a
    radius, and a pair budget on either side of the pair count.  The full
    cube {0,1,2}^n as base and spectrum makes an orthogonal set, so that
    long valid runs are drawn too."""
    n = draw(st.integers(1, 3))
    cube = list(itertools.product(range(3), repeat=n))
    axis = st.lists(st.sampled_from(range(3)), min_size=1, unique=True)
    base = draw(
        st.one_of(
            st.just(cube),
            st.lists(st.sampled_from(cube), min_size=1, unique=True),
            st.tuples(*[axis] * n).map(lambda f: list(itertools.product(*f))),
        )
    )
    spec = draw(st.one_of(st.just(cube), st.lists(st.sampled_from(cube), min_size=1)))
    m, k_radius = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    l1 = build_lambda1(spec, m)
    denom, nums = l1.denominator, list(map(tuple, l1.numerators.tolist()))
    kind = draw(st.sampled_from(["as built", "shifted", "repeated", "truncated"]))
    if kind == "shifted":
        i = draw(st.integers(0, len(nums) - 1))
        nums[i] = tuple((v + draw(st.integers(0, denom - 1))) % denom for v in nums[i])
    elif kind == "repeated":
        nums.insert(draw(st.integers(0, len(nums))), draw(st.sampled_from(nums)))
    elif kind == "truncated":
        nums = nums[: draw(st.integers(0, 2))]
    per = (2 * k_radius + 1) ** n
    nums = nums[: max(1, 60 // per)]  # at most 60 frequencies, 1,770 pairs
    total = len(nums) * per * (len(nums) * per - 1) // 2
    budget = draw(st.integers(total // 2, total + 5))
    return build_omega1(base, m), FrequencySet(denom, tuple(nums)), k_radius, budget


@settings(deadline=None)
@given(truncation_cases(), st.integers(0, 3))
def test_truncation_matches_per_pair_reference(case, seed):
    o1, l1, k_radius, budget = case
    result = verify_spectrum_truncation(o1, l1, k_radius, budget, seed)
    assert result == truncation_reference(o1, l1, k_radius, budget, seed)


def test_export_roundtrip(tmp_path, lifted):
    o1, l1 = lifted
    o2 = build_omega2(o1)
    path = tmp_path / "geometry.json"
    export_geometry(o2, l1, path)
    payload = json.loads(path.read_text())
    assert payload["dimension"] == 5
    assert payload["measure"] == 192
    assert len(payload["cube_corners"]) == 192
    o2b, l1b = load_geometry(path)
    assert np.array_equal(o2b.corners, o2.corners)
    assert l1b.denominator == l1.denominator
    assert np.array_equal(l1b.numerators, l1.numerators)
    # byte stability
    export_geometry(o2b, l1b, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_point_sets_are_read_only_int64_arrays(lifted):
    o1, l1 = lifted
    o2 = build_omega2(o1)
    for rows in (l1.numerators, o2.corners):
        assert rows.dtype == np.int64 and rows.ndim == 2 and rows.shape[1] == 5
        assert not rows.flags.writeable
    # Corners: distinct rows in lexicographic order, whatever the input order.
    union = CubeUnion([(1, 0), (0, 5), (1, 0), (0, 2)])
    assert union.corners.tolist() == [[0, 2], [0, 5], [1, 0]] and union.measure == 3
    assert FrequencySet(3, ()).numerators.shape == (0, 0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: FrequencySet(3, ((0,) * 5, (1, 0))),  # ragged
        lambda: FrequencySet(3, np.array([[0.7, 0.0]])),  # a float is not truncated
        lambda: FrequencySet(3.0, ((0, 1),)),
        lambda: CubeUnion(((0, 1.9), (0.5, 1))),
    ],
    ids=["ragged", "float-numerator", "float-denominator", "float-corner"],
)
def test_point_sets_reject_non_integer_rows(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize(
    "key, value",
    [
        ("cube_corners", [[0, 1.9], [0.5, 1]]),
        ("cube_corners", [[0, 1], [1]]),
        ("numerators", [[0, 0, 0, 0, 0.7]]),
        ("numerators", "00000"),
        ("denominator", 6.5),
    ],
    ids=["float-corner", "ragged-corners", "float-numerator", "string", "float-denom"],
)
def test_load_geometry_rejects_non_integer_entries(tmp_path, lifted, key, value):
    o1, l1 = lifted
    path = tmp_path / "geometry.json"
    export_geometry(build_omega2(o1), l1, path)
    payload = json.loads(path.read_text())
    (payload if key == "cube_corners" else payload["spectrum"])[key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_geometry(path)


def test_export_m1_matches_base(tmp_path):
    g6, T6, L6 = spectrum_from_butson(paper_h6())
    _, T5, L5 = descend(g6, T6, L6)
    o1 = build_omega1(T5, 1)
    path = tmp_path / "m1.json"
    export_geometry(build_omega2(o1), build_lambda1(L5, 1), path)
    payload = json.loads(path.read_text())
    assert sorted(tuple(c) for c in payload["cube_corners"]) == sorted(T5)
