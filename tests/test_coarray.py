import random
import threading
import time
import tracemalloc
from collections import Counter

import pytest

from fractalarrays.coarray import (coarrays_equal, difference_coarray,
                                   lag_set, summarize)
from fractalarrays.geometry import (InvalidParameterError, SensorArray,
                                    gen_cantor, gen_nested, gen_super_nested,
                                    gen_ula, make_sfa)


# Reference: every ordered pair's difference, counted directly, in place of
# the library's per-lag pair counts.
def ref_weights(positions):
    return Counter(a - b for a in positions for b in positions)


@pytest.fixture(scope="module")
def nfa():
    return make_sfa("nested", {"n": 6}, 1)


@pytest.fixture(scope="module")
def cfa():
    return make_sfa("coprime", {"m": 2, "n": 3}, 1)


def test_two_sensor_case():
    c = difference_coarray(SensorArray((0, 1)))
    assert c.lags == (-1, 0, 1)
    assert c.weights == {-1: 1, 0: 2, 1: 1}


def test_nfa_lags_are_full_interval(nfa):
    c = difference_coarray(nfa)
    assert c.lags == tuple(range(-24, 25))


def test_cfa_holes(cfa):
    s = summarize(difference_coarray(cfa))
    assert s.holes == (21,)
    assert not s.hole_free
    assert s.ula_segment == (-20, 20)
    assert s.max_sources == 20


def test_nfa_summary(nfa):
    s = summarize(difference_coarray(nfa))
    assert s.ula_segment == (-24, 24)
    assert s.hole_free
    assert s.max_sources == 24
    assert 2 * 24 + 1 == 49  # |D_U|


def test_cantor3_summary():
    s = summarize(difference_coarray(gen_cantor(3)))
    assert s.hole_free
    assert s.aperture == 13


def test_singleton_summary():
    s = summarize(difference_coarray(SensorArray((0,))))
    assert s.ula_segment == (0, 0)
    assert s.max_sources == 0
    assert s.hole_free


def test_coarrays_equal_reflexive(nfa):
    assert coarrays_equal(nfa, nfa)


def test_coarrays_equal_super_nested():
    assert coarrays_equal(gen_nested(6), gen_super_nested(3, 3))


def test_coarrays_equal_detects_removal(nfa):
    assert not coarrays_equal(nfa, nfa.remove([25]))


@pytest.mark.parametrize("r", range(1, 9))
def test_cantor_coarray_hole_free(r):
    c = difference_coarray(gen_cantor(r))
    span = (3 ** r - 1) // 2
    assert summarize(c).hole_free
    assert c.lags[0] == -span and c.lags[-1] == span
    assert len(c.lags) == 3 ** r


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_ula_weights(n):
    c = difference_coarray(gen_ula(n))
    assert c.lags == tuple(range(-(n - 1), n))
    for k in c.lags:
        assert c.weight(k) == n - abs(k)


def _random_array(rng, max_size=16, max_pos=60):
    size = rng.randint(1, max_size)
    return SensorArray(tuple(sorted(rng.sample(range(max_pos), size))))


def test_weight_invariants_random_arrays():
    rng = random.Random(20240819)
    for _ in range(120):
        arr = _random_array(rng)
        c = difference_coarray(arr)
        n = len(arr)
        assert c.weight(0) == n
        assert sum(c.weights.values()) == n * n
        for k in c.lags:
            assert -k in c.weights
            assert c.weight(k) == c.weight(-k)


def test_monotonicity_under_removal():
    rng = random.Random(77)
    for _ in range(60):
        arr = _random_array(rng)
        if len(arr) < 2:
            continue
        full = lag_set(arr)
        drop = rng.choice(arr.positions)
        assert lag_set(arr.remove([drop])) <= full


def test_report_dict(cfa):
    d = difference_coarray(cfa).to_dict()
    assert d["hole_free"] is False
    assert d["holes"] == [21]
    assert d["ula_segment"] == [-20, 20]
    assert d["weights"]["0"] == 12
    assert set(d) == {"lags", "weights", "ula_segment", "holes", "hole_free"}


def _reference_inputs():
    """Random SensorArrays, each also as an unsorted list and as an
    unsorted list shifted to negative positions."""
    rng = random.Random(20261018)
    inputs = [make_sfa("nested", {"n": 6}, 1), make_sfa("nested", {"n": 6}, 2)]
    for _ in range(40):
        arr = _random_array(rng)
        shuffled = list(arr.positions)
        rng.shuffle(shuffled)
        shift = rng.randint(1, 80)
        inputs += [arr, shuffled, [p - shift for p in shuffled]]
    return inputs


def test_coarray_views_match_counter_reference():
    for positions in _reference_inputs():
        c = difference_coarray(positions)
        ref = ref_weights(getattr(positions, "positions", positions))
        assert c.weights == ref
        assert c.lags == tuple(sorted(ref))
        assert c.weight(0) == len(positions)
        assert lag_set(positions) == frozenset(ref)


def test_coarray_views_take_memory_in_the_lags_not_the_pairs():
    # ULA(400) has 79 800 sensor pairs on only 399 positive lags.  Keeping
    # each pair as a bitmask edge until the end peaked at 5.7 MB; counting
    # them peaks at about 0.1 MB.
    arr = gen_ula(400)
    tracemalloc.start()
    try:
        summary = summarize(difference_coarray(arr))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.max_sources == 399
    assert peak < 1_000_000


@pytest.mark.parametrize("positions", [[0, 0, 1], [3, 1, 3], (-2, 5, -2)])
def test_duplicate_positions_are_refused(positions):
    # No array has them: [0, 0, 1] once gave w(0) = 5 and w(1) = 2.
    for view in (difference_coarray, lag_set):
        with pytest.raises(InvalidParameterError, match="distinct"):
            view(positions)


def test_summarize_refuses_a_huge_hole_count_promptly():
    # Aperture 2**62 with three positive lags: listing the holes would not
    # fit in memory, so the hole count is checked before the walk.
    out = []

    def attempt():
        try:
            summarize(difference_coarray(SensorArray((0, 1, 2 ** 62))))
        except InvalidParameterError as exc:
            out.append(exc)

    worker = threading.Thread(target=attempt, daemon=True)
    start = time.perf_counter()
    worker.start()
    worker.join(timeout=5.0)
    assert not worker.is_alive(), "summarize did not return"
    assert time.perf_counter() - start < 1.0
    assert len(out) == 1 and "%d holes" % (2 ** 62 - 3) in str(out[0])


def test_summarize_lists_up_to_a_million_holes():
    # Positive lags 1, a - 1 and a leave a - 3 holes.
    s = summarize(difference_coarray(SensorArray((0, 1, 10 ** 6 + 3))))
    assert len(s.holes) == 10 ** 6 and s.max_sources == 1
    with pytest.raises(InvalidParameterError, match="1000001 holes"):
        summarize(difference_coarray(SensorArray((0, 1, 10 ** 6 + 4))))
