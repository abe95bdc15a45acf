import itertools
import json
import random
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuglede import continuum
from fuglede.continuum import (
    CubeUnion,
    ExtendedFrequency,
    TruncationResult,
    _sampled_pairs,
    build_omega2,
    export_geometry,
    inner_product_is_zero,
    load_geometry,
    verify_spectrum_truncation,
)
from fuglede.cyclotomic import CyclotomicInt
from fuglede.hadamard import descend, paper_h6, spectrum_from_butson
from fuglede.lattice import (
    FrequencySet,
    build_lambda1,
    build_omega1,
    character_sum_lattice,
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


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_cube_count_equals_lifted_point_count(m):
    """The lifted points are distinct, so the CLI may report the measure of
    Omega_2 as #base * M^5 without building Omega_2 or the points."""
    o1, _ = lifted_pair(m)
    assert build_omega2(o1).measure == len(o1.points) == len(o1.base) * m**5 == 6 * m**5


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


def randrange_pairs(count, budget, seed):
    """The first `budget` pairs of random.Random(seed), one at a time in
    Python ints: i from one 64-bit word, j from the next, j != i."""
    rng, pairs = random.Random(seed), []
    for _ in range(budget):
        i = rng.getrandbits(64) % count
        pairs.append((i, (i + 1 + rng.getrandbits(64) % (count - 1)) % count))
    return pairs


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
        pairs = randrange_pairs(count, pair_budget, seed)
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
    # One coordinate of numerator t bumped instead: the first failing pair is
    # the lattice witness (nu_i, nu_j), both at shift -1, so its position is
    # the pairs in the rows above i * per plus the offset to j * per.
    count = 6 * per
    pairs = list(itertools.combinations(range(6), 2))
    for t in range(6):
        row = list(nums[t])
        row[t % 5] = (row[t % 5] + 1) % 3
        bad = FrequencySet(3, nums[:t] + [tuple(row)] + nums[t + 1 :])
        result = verify_spectrum_truncation(o1, bad, 1, pair_budget=count * count)
        ortho = verify_ortho_lattice(o1, bad)
        first = pairs[int(np.argmin(pair_verdicts_direct(o1, bad)))]
        i, j = (per * k for k in first)
        low = tuple(ExtendedFrequency(b, 3, (-1,) * 5) for b in ortho.witness)
        position = i * (2 * count - i - 1) // 2 + (j - i)
        assert result == TruncationResult(False, low, position, False), t


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


@pytest.mark.parametrize(
    "count",
    [2, 3, 4, 5, 8, 1024, 5184, 2**31, 2**32 - 1]
    + [2**32, 2**40 + 3, 2**62 + 1, 2**63 - 1],
)
def test_sampled_pairs_are_the_randrange_draws(count):
    # The numpy decoding of the generator's words against a per-pair loop in
    # Python ints; near 2^63 the uint64 sum i + 1 + w1 mod (count - 1) would
    # overflow int64, and the budgets straddle a block.
    for seed in range(3):
        for budget in (0, 1, 4095, 4096, 4097, 9000):
            blocks = list(_sampled_pairs(count, budget, seed))
            assert [len(i) for i, _ in blocks] == [
                min(4096, budget - lo) for lo in range(0, budget, 4096)
            ]
            assert all(i.dtype == j.dtype == np.int64 for i, j in blocks)
            pairs = [p for i, j in blocks for p in zip(i.tolist(), j.tolist())]
            assert pairs == randrange_pairs(count, budget, seed)
            assert all(i != j for i, j in pairs)


def test_sampled_pairs_are_uniform_over_unequal_pairs():
    # 60,000 pairs among 3 frequencies: each of the 6 ordered pairs i != j
    # within 2% of 10,000 times; among 2, j is the other one.
    i, j = (np.concatenate(a) for a in zip(*_sampled_pairs(3, 60_000, 0)))
    counts = np.bincount(3 * i + j, minlength=9).reshape(3, 3)
    assert not counts.diagonal().any()
    assert all(9_800 <= c <= 10_200 for c in counts[~np.eye(3, dtype=bool)])
    for i, j in _sampled_pairs(2, 9000, 0):
        assert (j == 1 - i).all()


def test_sampled_pairs_fetch_once_per_block(monkeypatch):
    # A block fetches two 64-bit words per pair at once: one getrandbits
    # call for each of the 25 blocks of 100,000 pairs among 46,656
    # frequencies.
    fetches = []

    class Counting(random.Random):
        def getrandbits(self, k):
            fetches.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(continuum, "random", SimpleNamespace(Random=Counting))
    assert len(list(_sampled_pairs(46_656, 100_000, 0))) == 25
    assert len(fetches) == 25


def test_sampled_pairs_reject_counts_of_33_bits():
    # Past 2^63 - 1 frequencies the indices leave int64.
    with pytest.raises(ValueError, match="at most 2\\^63 - 1"):
        next(_sampled_pairs(2**63, 1, 0))


def test_truncation_memory_is_flat_in_the_radius():
    # Shifts are decoded from the frequency index and the verdicts need only
    # the numerators' keys mod M and cell sums over Z_3, so K = 8 (6 * 17^5
    # frequencies) and K = 2168 (6 * 4337^5, the largest radius whose count
    # is below 2^63) need no shift array.
    o1, l1 = lifted_pair(1)
    for k_radius in (8, 2168):
        tracemalloc.start()
        try:
            result = verify_spectrum_truncation(o1, l1, k_radius, pair_budget=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.valid and result.sampled and result.pairs_checked == 1000
        assert peak < 5 * 2**20, k_radius


def test_pairs_are_decided_from_the_factors_without_points(monkeypatch):
    """Axes settle most pairs; the rest of a block take one batched sum over
    the base cell (M = 1) in Z_3, in at most one call for each of the 25
    blocks of 4,096 pairs, with no scalar zero test and no point set of the
    lift."""
    o1, l1 = lifted_pair(2)
    cells, denoms = [], []

    def recording(omega1, deltas, denom):
        cells.append(omega1.m)
        denoms.append(denom)
        return character_sum_lattice(omega1, deltas, denom)

    def scalar(self):
        raise AssertionError("scalar zero test on the batched route")

    monkeypatch.setattr(continuum, "character_sum_lattice", recording)
    monkeypatch.setattr(CyclotomicInt, "is_zero", scalar)
    result = verify_spectrum_truncation(o1, l1, 1, pair_budget=100_000)
    assert result.valid and result.pairs_checked == 100_000
    assert continuum._BLOCK == 4096 and 0 < len(cells) <= 25
    assert set(cells) == {1} and set(denoms) == {3}
    assert "points" not in vars(o1)


@pytest.mark.parametrize(
    "denom, m, step",
    [(6, 2, 2), (7, 1, 1), (2, 2, 1), (1, 1, 1)],
    ids=["s=M", "s=1", "s=D=2", "s=D=1"],
)
@pytest.mark.parametrize("kind", ["as built", "repeated", "shifted"])
@pytest.mark.parametrize(
    "k_radius, budget", [(0, 10**6), (1, 3000)], ids=["full", "sampled"]
)
def test_key_filter_matches_per_pair_reference(denom, m, step, kind, k_radius, budget):
    """The key is the code of a numerator mod M.  The rows are those of
    Lambda_1 reduced mod D; a shifted row moves by `step` on one axis, at
    D = 3M by M, so that its key stays.  Every other denominator, where the
    geometric zeros are not the residues that differ mod M, is refused
    before the radius, the budget or the rows come into play."""
    o1, l1 = lifted_pair(m)
    nums = [tuple(v % denom for v in row) for row in l1.numerators.tolist()]
    if kind == "repeated":
        nums.insert(3, nums[1])
    elif kind == "shifted":
        nums[2] = ((nums[2][0] + step) % denom,) + nums[2][1:]
    l1 = FrequencySet(denom, nums)
    if denom != 3 * m:
        with pytest.raises(ValueError, match=f"denominator {denom} is not the lift's"):
            verify_spectrum_truncation(o1, l1, k_radius, budget)
        return
    result = verify_spectrum_truncation(o1, l1, k_radius, budget)
    assert result.sampled == (k_radius == 1)
    assert result == truncation_reference(o1, l1, k_radius, budget)


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
    m, k_radius = draw(st.integers(1, 3)), draw(st.integers(0, 1))
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
    # The check always samples with seed 0; other seeds give other samples.
    o1, l1, k_radius, budget = case
    def reseeded(count, budget, _):
        return _sampled_pairs(count, budget, seed)

    with mock.patch.object(continuum, "_sampled_pairs", reseeded):
        result = verify_spectrum_truncation(o1, l1, k_radius, budget)
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


@pytest.mark.parametrize("numerators", [0, 1, 7])
@pytest.mark.parametrize("corners", [1, 3, 4])
def test_export_blocks_give_the_bytes_of_one_dump(
    tmp_path, monkeypatch, corners, numerators
):
    monkeypatch.setattr(continuum, "_BLOCK", 3)
    omega2 = CubeUnion([(k, -k, 2 * k) for k in range(corners)])
    lambda1 = FrequencySet(7, [(k, 6 - k, 0) for k in range(numerators)])
    export_geometry(omega2, lambda1, path := tmp_path / "geometry.json")
    payload = {
        "dimension": 3,
        "cube_corners": omega2.corners.tolist(),
        "spectrum": {"denominator": 7, "numerators": lambda1.numerators.tolist()},
        "measure": corners,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert path.read_bytes() == text.encode()


def test_export_memory_is_one_block_of_rows(tmp_path):
    o1, l1 = lifted_pair(6)  # 46,656 cubes and as many frequencies
    omega2 = build_omega2(o1)
    tracemalloc.start()
    try:
        export_geometry(omega2, l1, tmp_path / "geometry.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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
        lambda: FrequencySet(3, [[True, 2]]),  # numpy would read it as [[1, 2]]
        lambda: CubeUnion([[0, 1], [np.True_, 0]]),
    ],
    ids=[
        "ragged", "float-numerator", "float-denominator", "float-corner",
        "bool-among-int-numerators", "bool-among-int-corners",
    ],
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
