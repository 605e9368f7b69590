import random
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalarrays import coarray, robustness
from fractalarrays.coarray import (CoarraySummary, coarrays_equal,
                                   difference_coarray, lag_set, summarize)
from fractalarrays.experiments import PAPER_CASES
from fractalarrays.geometry import (InvalidParameterError, SensorArray,
                                    gen_cantor, gen_coprime, gen_nested,
                                    gen_super_nested, gen_ula, make_sfa)
from fractalarrays.robustness import (essential_sensors, fragility_profile,
                                      k_fragility)


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


# The Table-1 arrays, the other arrays of the fragility gallery, and every
# SFA family at fractal scales 1 to 3.
_GALLERY = [case["build"]() for case in PAPER_CASES.values()] + [
    gen_ula(12), gen_nested(12), gen_super_nested(5, 7), gen_coprime(3, 7),
    gen_super_nested(2, 4), gen_super_nested(4, 4)]
_SFAS = [make_sfa(kind, params, r)
         for kind, params in [("ula", {"n": 4}), ("nested", {"n": 6}),
                              ("coprime", {"m": 2, "n": 3}),
                              ("ana1", {"n": 6}), ("ana2", {"n": 6}),
                              ("super_nested", {"n1": 3, "n2": 3})]
         for r in (1, 2, 3)]


def _assert_views_match_brute_force(positions):
    # Every b - a, and a Counter of the ordered differences, from the given
    # positions as they are: no sorting, no kernel and no cache.
    pos = getattr(positions, "positions", positions)
    lags = lag_set(positions)
    assert type(lags) is frozenset
    assert lags == {b - a for a in pos for b in pos}
    c = difference_coarray(positions)
    want = ref_weights(pos)
    assert c.weights == want
    assert c.lags == tuple(sorted(want))


def test_lag_set_equals_the_coarray_lag_set():
    # lag_set and difference_coarray read the same kernel, so each is
    # checked against a brute force of its own, not against the other, and
    # twice, so that a first call changes nothing a second one reads.
    rng = random.Random(20261020)
    inputs = (_GALLERY + _SFAS + _reference_inputs()
              + [[0], [-7], (12,), SensorArray((5,))])
    for _ in range(200):
        inputs.append(rng.sample(range(-40, 40), rng.randint(1, 14)))
    for positions in inputs:
        _assert_views_match_brute_force(positions)
        _assert_views_match_brute_force(positions)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-60, 60), min_size=1, max_size=16, unique=True))
def test_random_views_match_brute_force(positions):
    _assert_views_match_brute_force(positions)
    _assert_views_match_brute_force(positions)
    assert coarrays_equal(positions, list(reversed(positions)))


def _count_kernel_runs(monkeypatch):
    """The positions of every run of the lag kernel, by the coarray views
    and by the pair graphs, with the pair-graph cache emptied first."""
    runs = []
    lag_rows = coarray._lag_rows

    def counted(positions):
        runs.append(positions)
        return lag_rows(positions)

    for module in (coarray, robustness):
        monkeypatch.setattr(module, "_lag_rows", counted)
    robustness._pair_graphs.cache_clear()
    return runs


# The five Table-1 arrays and the nested SFA at r = 2 and 3.
@pytest.mark.parametrize("arr", _GALLERY[:5] + _SFAS[4:6],
                         ids=lambda a: a.label)
def test_coarray_views_run_the_kernel_once_per_call(monkeypatch, arr):
    # A translated copy is a fresh key for the pair-graph cache.
    moved = SensorArray(tuple(p + 31 for p in arr.positions))
    want = ref_weights(moved.positions)
    runs = _count_kernel_runs(monkeypatch)
    c = difference_coarray(moved)
    assert runs == [moved.positions]
    s = summarize(c)
    assert runs == [moved.positions]
    lags = lag_set(moved)
    assert runs == [moved.positions] * 2
    assert c.weights == want and lags == frozenset(want)
    again = difference_coarray(moved)
    assert (again, summarize(again), lag_set(moved)) == (c, s, lags)
    assert runs == [moved.positions] * 4
    # The pair graphs group the pairs by sensor, and the essential sensors
    # and the profile of one array share one build of them.
    essential_sensors(moved)
    fragility_profile(moved, 3)
    assert runs == [moved.positions] * 5


def test_writing_into_returned_weights_changes_no_later_call(nfa):
    c = difference_coarray(nfa)
    want = dict(c.weights)
    c.weights[1] = 99
    c.weights[1000] = 1
    del c.weights[-1]
    again = difference_coarray(nfa)
    assert again.weights == want == ref_weights(nfa.positions)
    assert again.lags == tuple(sorted(want))
    assert lag_set(nfa) == frozenset(want)


def _brute_summary(positions):
    # A scan of 1..aperture, whether or not the coarray has a hole.
    lags = {b - a for a in positions for b in positions}
    aperture = max(lags)
    holes = tuple(k for k in range(1, aperture + 1) if k not in lags)
    u = holes[0] - 1 if holes else aperture
    return CoarraySummary(ula_segment=(-u, u), hole_free=not holes,
                          aperture=aperture, max_sources=u, holes=holes)


def test_summarize_equals_a_brute_force_scan():
    rng = random.Random(20261021)
    inputs = _GALLERY + _SFAS + [[5], [0, 2], [0, 1], [-3, 4], gen_ula(7)]
    inputs += [rng.sample(range(-30, 30), rng.randint(1, 10))
               for _ in range(200)]
    free = holed = 0
    for positions in inputs:
        pos = getattr(positions, "positions", positions)
        s = summarize(difference_coarray(positions))
        assert s == _brute_summary(pos)
        free += s.hole_free
        holed += not s.hole_free
    assert free > 20 and holed > 20
    assert summarize(difference_coarray([5])) == CoarraySummary(
        (0, 0), True, 0, 0, ())
    assert summarize(difference_coarray([0, 2])) == CoarraySummary(
        (0, 0), False, 2, 0, (1,))


# Random arrays, mostly with holes, and ULAs with a random extra sensor,
# hole-free while it lies next to one end.
_HOLED = st.lists(st.integers(-60, 60), min_size=1, max_size=16, unique=True)
_EXTENDED_ULAS = st.tuples(st.integers(1, 30), st.integers(-40, 70)).map(
    lambda nx: sorted(set(range(nx[0])) | {nx[1]}))


@settings(max_examples=120, deadline=None)
@given(st.one_of(_HOLED, _EXTENDED_ULAS))
def test_segment_bound_is_the_summary_capacity(positions):
    # The one rule for u, on the sorted lags, which summarize and the MUSIC
    # plan both call: the brute-force scan's least hole less 1.
    c = difference_coarray(positions)
    want = _brute_summary(positions).max_sources
    assert coarray._segment_bound(c.lags) == want
    assert summarize(c).max_sources == want


def test_segment_bound_with_and_without_holes():
    # Hole-free, holed, and 2**62 - 3 holes, which are never listed.
    assert coarray._segment_bound(difference_coarray(gen_ula(9)).lags) == 8
    assert coarray._segment_bound(difference_coarray([0, 1, 5]).lags) == 1
    assert coarray._segment_bound(difference_coarray([-3, 0, 1, 2]).lags) == 5
    huge = difference_coarray(SensorArray((0, 1, 2 ** 62))).lags
    assert coarray._segment_bound(huge) == 1


def test_summarize_scans_only_a_coarray_with_holes(monkeypatch):
    # The hole count, aperture less positive lags, is checked before any
    # scan, and a hole-free coarray is not scanned at all.
    scans = []
    monkeypatch.setattr(coarray.Coarray, "lag_set",
                        lambda c: scans.append(c.lags) or frozenset(c.lags))
    monkeypatch.setattr(coarray, "_HOLE_LIMIT", 2)
    # Positive lags 1, 5 and 6 leave the holes 2, 3 and 4.
    with pytest.raises(InvalidParameterError,
                       match="3 holes, more than the 2"):
        summarize(difference_coarray([0, 1, 6]))
    assert scans == []
    assert summarize(difference_coarray(gen_ula(9))).hole_free
    assert scans == []
    assert summarize(difference_coarray([0, 1, 5])).holes == (2, 3)
    assert len(scans) == 1


@dataclass(frozen=True)
class _Positions:
    """An object with positions and a length, which is not a SensorArray."""

    positions: tuple

    def __len__(self):
        return len(self.positions)


@pytest.mark.parametrize("positions", [[0, 0, 1], [3, 1, 3], (-2, 5, -2)])
def test_duplicate_positions_are_refused(positions, monkeypatch):
    # No array has them: [0, 0, 1] once gave w(0) = 5 and w(1) = 2.  They
    # are refused where the positions are read, before the lag kernel runs,
    # in a sequence or in an object that is not a SensorArray alike.
    runs = []
    lag_rows = coarray._lag_rows

    def kernel(pos):
        runs.append(pos)
        return lag_rows(pos)

    for module in (coarray, robustness):
        monkeypatch.setattr(module, "_lag_rows", kernel)
    calls = (difference_coarray, lag_set, essential_sensors,
             lambda s: k_fragility(s, 1), lambda s: fragility_profile(s, 2))
    for arg in (positions, _Positions(tuple(positions))):
        for call in calls:
            with pytest.raises(InvalidParameterError, match="distinct"):
                call(arg)
    assert runs == []


@pytest.mark.parametrize("positions", [(1.5, 2), (2.0, 3), (True, 3),
                                       (0, False), (), [], ("1", 2)],
                         ids=repr)
def test_non_integer_or_empty_positions_are_refused(positions):
    # (1.5, 2) once gave the lags (-0.5, 0, 0.5), (True, 3) was read as
    # (1, 3), and () made summarize fail on an empty max().
    for view in (difference_coarray, lag_set):
        with pytest.raises(InvalidParameterError, match="integer"):
            view(positions)


def test_bare_positions_must_fit_in_int64():
    # The bounds are inclusive below and exclusive above, as for int64; a
    # SensorArray, whose positions are non-negative, had the upper one alone.
    assert lag_set([-2 ** 63, 2 ** 63 - 1]) == {0, 2 ** 64 - 1, 1 - 2 ** 64}
    for positions in ([0, 2 ** 63], [-2 ** 63 - 1, 0]):
        for view in (lag_set, difference_coarray):
            with pytest.raises(InvalidParameterError, match="int64"):
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
