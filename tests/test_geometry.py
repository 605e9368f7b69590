import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalarrays.geometry import (_MAX_SENSORS, InvalidParameterError,
                                    SensorArray, _check_size, cross_sum,
                                    gen_ana1, gen_ana2, gen_cantor,
                                    gen_coprime, gen_nested,
                                    gen_super_nested, gen_ula, make_sfa)
from fractalarrays.coarray import coarrays_equal, difference_coarray, \
    lag_set, summarize


def test_sensor_array_rejects_unsorted():
    with pytest.raises(InvalidParameterError):
        SensorArray((3, 1, 2))


def test_sensor_array_rejects_duplicates():
    with pytest.raises(InvalidParameterError):
        SensorArray((1, 1, 2))


def test_sensor_array_rejects_negative():
    with pytest.raises(InvalidParameterError):
        SensorArray((-1, 0, 2))


@pytest.mark.parametrize("args, message", [
    (((0, 1.5),), "integers"),
    (((-1, 5, 3), "ULA", 7), "kind and label"),
    (((5, -1),), "non-negative"),
    (((3, 2 ** 63, 1),), "int64"),
    (((3, 1, 2),), "strictly increasing"),
    (((1, 1, 2),), "strictly increasing"),
], ids=repr)
def test_sensor_array_checks_in_a_fixed_order(args, message):
    # Integers in int64 first, then kind and label, sign, and order, so a
    # value that breaks two rules gets the first one's message.
    with pytest.raises(InvalidParameterError, match=message):
        SensorArray(*args)


def test_sensor_array_positions_fit_in_int64():
    assert SensorArray((0, 2 ** 63 - 1)).positions == (0, 2 ** 63 - 1)
    with pytest.raises(InvalidParameterError, match="int64"):
        SensorArray((0, 1, 2 ** 63))


def test_sensor_array_rejects_empty():
    with pytest.raises(InvalidParameterError):
        SensorArray(())


@pytest.mark.parametrize("positions", [(0, 1.7, 3), (0, 1, 2.5),
                                       (0, float("nan")), (0, float("inf")),
                                       (0, "1"), (True, 2), (0, False),
                                       (np.True_, 2), (0, 1.0, 3),
                                       (0, np.float64(2))])
def test_sensor_array_rejects_non_integers(positions):
    # 1.0 was coerced to 1, where every other integer input refused it.
    with pytest.raises(InvalidParameterError, match="integers"):
        SensorArray(positions)


def test_sensor_array_accepts_numpy_integers():
    # Of the int-like types only bool is refused (True == 1 would pass).
    arr = SensorArray(tuple(np.array([0, 3, 5], dtype=np.int64)))
    assert arr.positions == (0, 3, 5)
    assert all(type(p) is int for p in arr.positions)


def test_sensor_array_iterates_over_its_positions():
    arr = gen_nested(6)
    assert list(arr) == list(arr.positions)


def test_sensor_array_aperture_is_last_minus_first():
    # A translated array keeps its aperture: it is not the last position.
    assert SensorArray((5, 6, 9)).aperture == 4
    assert gen_ula(1).aperture == 0


def test_sensor_array_json_round_trip():
    arr = gen_nested(6)
    again = SensorArray.from_dict(arr.to_dict())
    assert again == arr
    assert set(arr.to_dict()) == {"label", "kind", "positions"}


@pytest.mark.parametrize("payload", [[1, 2, 3], "x", {"positions": 5},
                                     {"positions": None},
                                     {"positions": [0, 1, 3], "label": 5},
                                     {"positions": [0, 1, 3], "kind": None}])
def test_sensor_array_from_dict_rejects_malformed_payload(payload):
    # A label of 5 was taken, and remove() then raised a bare TypeError.
    with pytest.raises(InvalidParameterError):
        SensorArray.from_dict(payload)


def test_ula():
    assert gen_ula(1).positions == (0,)
    assert gen_ula(4).positions == (0, 1, 2, 3)
    assert gen_ula(12).positions == tuple(range(12))
    with pytest.raises(InvalidParameterError):
        gen_ula(0)


def test_nested():
    assert gen_nested(6).positions == (1, 2, 3, 4, 8, 12)
    assert gen_nested(2).positions == (1, 2)
    assert gen_nested(5).positions == (1, 2, 3, 6, 9)
    assert summarize(difference_coarray(gen_nested(5))).hole_free
    with pytest.raises(InvalidParameterError, match="integer >= 2, got 1"):
        gen_nested(1)


def test_coprime():
    assert gen_coprime(2, 3).positions == (0, 2, 3, 4, 6, 9)
    assert gen_coprime(1, 2).positions == (0, 1, 2)
    arr = gen_coprime(3, 4)
    assert arr.positions == (0, 3, 4, 6, 8, 9, 12, 16, 20)
    assert len(arr) == 2 * 3 + 4 - 1
    with pytest.raises(InvalidParameterError):
        gen_coprime(2, 4)
    with pytest.raises(InvalidParameterError):
        gen_coprime(3, 2)


def test_ana1():
    assert gen_ana1(6).positions == (1, 4, 8, 12, 13, 14)
    assert summarize(difference_coarray(gen_ana1(8))).hole_free
    with pytest.raises(InvalidParameterError, match="integer >= 6, got 5"):
        gen_ana1(5)


def test_ana2():
    assert gen_ana2(6).positions == (1, 2, 4, 8, 12, 13)
    assert len(gen_ana2(6)) == 6
    assert summarize(difference_coarray(gen_ana2(8))).hole_free
    with pytest.raises(InvalidParameterError):
        gen_ana2(4)


def test_super_nested_fixture():
    assert gen_super_nested(3, 3).positions == (1, 3, 6, 8, 11, 12)


def parent_nested(n1, n2):
    return SensorArray(tuple(sorted(
        set(range(1, n1 + 1)) | {m * (n1 + 1) for m in range(1, n2 + 1)})))


# Every array gen_super_nested returned before its even-n1 search was replaced
# by the closed form: odd n1 = 3..13 with n2 = 2..10, and the even-n1 cases
# that search found.
PINNED_SUPER_NESTED = {
    (2, 3): (1, 2, 3, 6, 9),
    (2, 4): (1, 2, 3, 6, 9, 12),
    (3, 2): (1, 3, 6, 7, 8),
    (3, 3): (1, 3, 6, 8, 11, 12),
    (3, 4): (1, 3, 6, 8, 12, 15, 16),
    (3, 5): (1, 3, 6, 8, 12, 16, 19, 20),
    (3, 6): (1, 3, 6, 8, 12, 16, 20, 23, 24),
    (3, 7): (1, 3, 6, 8, 12, 16, 20, 24, 27, 28),
    (3, 8): (1, 3, 6, 8, 12, 16, 20, 24, 28, 31, 32),
    (3, 9): (1, 3, 6, 8, 12, 16, 20, 24, 28, 32, 35, 36),
    (3, 10): (1, 3, 6, 8, 12, 16, 20, 24, 28, 32, 36, 39, 40),
    (4, 4): (1, 3, 4, 7, 10, 15, 19, 20),
    (4, 5): (1, 3, 4, 7, 10, 15, 20, 24, 25),
    (4, 6): (1, 3, 4, 7, 10, 15, 20, 25, 29, 30),
    (5, 2): (1, 3, 5, 8, 10, 11, 12),
    (5, 3): (1, 3, 5, 8, 10, 12, 17, 18),
    (5, 4): (1, 3, 5, 8, 10, 12, 18, 23, 24),
    (5, 5): (1, 3, 5, 8, 10, 12, 18, 24, 29, 30),
    (5, 6): (1, 3, 5, 8, 10, 12, 18, 24, 30, 35, 36),
    (5, 7): (1, 3, 5, 8, 10, 12, 18, 24, 30, 36, 41, 42),
    (5, 8): (1, 3, 5, 8, 10, 12, 18, 24, 30, 36, 42, 47, 48),
    (5, 9): (1, 3, 5, 8, 10, 12, 18, 24, 30, 36, 42, 48, 53, 54),
    (5, 10): (1, 3, 5, 8, 10, 12, 18, 24, 30, 36, 42, 48, 54, 59, 60),
    (7, 2): (1, 3, 5, 7, 10, 12, 14, 15, 16),
    (7, 3): (1, 3, 5, 7, 10, 12, 14, 16, 23, 24),
    (7, 4): (1, 3, 5, 7, 10, 12, 14, 16, 24, 31, 32),
    (7, 5): (1, 3, 5, 7, 10, 12, 14, 16, 24, 32, 39, 40),
    (7, 6): (1, 3, 5, 7, 10, 12, 14, 16, 24, 32, 40, 47, 48),
    (7, 7): (1, 3, 5, 7, 10, 12, 14, 16, 24, 32, 40, 48, 55, 56),
    (7, 8): (1, 3, 5, 7, 10, 12, 14, 16, 24, 32, 40, 48, 56, 63, 64),
    (7, 9): (1, 3, 5, 7, 10, 12, 14, 16, 24, 32, 40, 48, 56, 64, 71, 72),
    (7, 10): (1, 3, 5, 7, 10, 12, 14, 16, 24, 32, 40, 48, 56, 64, 72, 79, 80),
    (9, 2): (1, 3, 5, 7, 9, 12, 14, 16, 18, 19, 20),
    (9, 3): (1, 3, 5, 7, 9, 12, 14, 16, 18, 20, 29, 30),
    (9, 4): (1, 3, 5, 7, 9, 12, 14, 16, 18, 20, 30, 39, 40),
    (9, 5): (1, 3, 5, 7, 9, 12, 14, 16, 18, 20, 30, 40, 49, 50),
    (9, 6): (1, 3, 5, 7, 9, 12, 14, 16, 18, 20, 30, 40, 50, 59, 60),
    (9, 7): (1, 3, 5, 7, 9, 12, 14, 16, 18, 20, 30, 40, 50, 60, 69, 70),
    (9, 8): (1, 3, 5, 7, 9, 12, 14, 16, 18, 20, 30, 40, 50, 60, 70, 79, 80),
    (9, 9): (1, 3, 5, 7, 9, 12, 14, 16, 18, 20, 30, 40, 50, 60, 70, 80, 89,
             90),
    (9, 10): (1, 3, 5, 7, 9, 12, 14, 16, 18, 20, 30, 40, 50, 60, 70, 80, 90,
              99, 100),
    (11, 2): (1, 3, 5, 7, 9, 11, 14, 16, 18, 20, 22, 23, 24),
    (11, 3): (1, 3, 5, 7, 9, 11, 14, 16, 18, 20, 22, 24, 35, 36),
    (11, 4): (1, 3, 5, 7, 9, 11, 14, 16, 18, 20, 22, 24, 36, 47, 48),
    (11, 5): (1, 3, 5, 7, 9, 11, 14, 16, 18, 20, 22, 24, 36, 48, 59, 60),
    (11, 6): (1, 3, 5, 7, 9, 11, 14, 16, 18, 20, 22, 24, 36, 48, 60, 71, 72),
    (11, 7): (1, 3, 5, 7, 9, 11, 14, 16, 18, 20, 22, 24, 36, 48, 60, 72, 83,
              84),
    (11, 8): (1, 3, 5, 7, 9, 11, 14, 16, 18, 20, 22, 24, 36, 48, 60, 72, 84,
              95, 96),
    (11, 9): (1, 3, 5, 7, 9, 11, 14, 16, 18, 20, 22, 24, 36, 48, 60, 72, 84,
              96, 107, 108),
    (11, 10): (1, 3, 5, 7, 9, 11, 14, 16, 18, 20, 22, 24, 36, 48, 60, 72, 84,
               96, 108, 119, 120),
    (13, 2): (1, 3, 5, 7, 9, 11, 13, 16, 18, 20, 22, 24, 26, 27, 28),
    (13, 3): (1, 3, 5, 7, 9, 11, 13, 16, 18, 20, 22, 24, 26, 28, 41, 42),
    (13, 4): (1, 3, 5, 7, 9, 11, 13, 16, 18, 20, 22, 24, 26, 28, 42, 55, 56),
    (13, 5): (1, 3, 5, 7, 9, 11, 13, 16, 18, 20, 22, 24, 26, 28, 42, 56, 69,
              70),
    (13, 6): (1, 3, 5, 7, 9, 11, 13, 16, 18, 20, 22, 24, 26, 28, 42, 56, 70,
              83, 84),
    (13, 7): (1, 3, 5, 7, 9, 11, 13, 16, 18, 20, 22, 24, 26, 28, 42, 56, 70,
              84, 97, 98),
    (13, 8): (1, 3, 5, 7, 9, 11, 13, 16, 18, 20, 22, 24, 26, 28, 42, 56, 70,
              84, 98, 111, 112),
    (13, 9): (1, 3, 5, 7, 9, 11, 13, 16, 18, 20, 22, 24, 26, 28, 42, 56, 70,
              84, 98, 112, 125, 126),
    (13, 10): (1, 3, 5, 7, 9, 11, 13, 16, 18, 20, 22, 24, 26, 28, 42, 56, 70,
               84, 98, 112, 126, 139, 140),
}


@pytest.mark.parametrize("n1,n2", sorted(PINNED_SUPER_NESTED))
def test_super_nested_pinned(n1, n2):
    assert gen_super_nested(n1, n2).positions == PINNED_SUPER_NESTED[n1, n2]


def test_super_nested_coarray_matches_nested():
    assert coarrays_equal(gen_super_nested(3, 3), gen_nested(6))
    assert coarrays_equal(gen_super_nested(4, 4), gen_nested(8))


@pytest.mark.parametrize("n1,n2", [(3, 3), (5, 5), (7, 7), (3, 4), (5, 6),
                                   (9, 9), (11, 12), (13, 13)])
def test_super_nested_matches_nested_split(n1, n2):
    # n2 in {n1, n1+1} makes gen_nested(n1+n2) use the same (N1, N2) split
    sn = gen_super_nested(n1, n2)
    assert len(sn) == n1 + n2
    assert coarrays_equal(sn, gen_nested(n1 + n2))


@pytest.mark.parametrize("n1,n2", [(3, 5), (5, 3), (9, 4), (13, 5)])
def test_super_nested_matches_parent_nested(n1, n2):
    assert coarrays_equal(gen_super_nested(n1, n2), parent_nested(n1, n2))


def weight(arr, k):
    pos = set(arr.positions)
    return sum(1 for p in pos if p + k in pos)


def test_super_nested_reduces_unit_pairs():
    # the point of the rearrangement: fewer unit-spacing sensor pairs
    assert weight(gen_super_nested(5, 5), 1) < weight(gen_nested(10), 1)


def test_super_nested_even_guard():
    sn = gen_super_nested(8, 8)
    assert sn.positions == (1, 3, 5, 6, 8, 11, 13, 16, 18, 27, 36, 45, 54,
                            63, 71, 72)
    assert lag_set(sn) == lag_set(parent_nested(8, 8))
    with pytest.raises(InvalidParameterError, match="integer >= 2, got 1"):
        gen_super_nested(1, 3)
    with pytest.raises(InvalidParameterError, match="integer >= 2, got 1"):
        gen_super_nested(3, 1)


def test_super_nested_changed_outputs():
    # n1 = 2 has nothing to rearrange: the parent nested array, also at
    # (2, 2), where the old search returned (1, 2, 4, 6)
    assert gen_super_nested(2, 2).positions == (1, 2, 3, 6)
    # the old search refused (4, 3); the closed form keeps two unit pairs
    assert gen_super_nested(4, 3).positions == (1, 3, 4, 7, 10, 14, 15)


@pytest.mark.parametrize("n1", range(2, 21))
def test_super_nested_keeps_parent_coarray(n1):
    for n2 in range(2, 13):
        sn = gen_super_nested(n1, n2)
        assert len(sn) == n1 + n2, (n1, n2)
        assert lag_set(sn) == lag_set(parent_nested(n1, n2)), (n1, n2)


def test_super_nested_runs_are_disjoint():
    # The closed form's six runs never share a position (see its
    # docstring), so no pair of sizes loses a sensor.
    for n1 in range(2, 41):
        for n2 in range(2, 41):
            assert len(gen_super_nested(n1, n2)) == n1 + n2, (n1, n2)


@pytest.mark.parametrize("n1", range(4, 21))
def test_super_nested_small_lag_weights(n1):
    # Liu & Vaidyanathan 2016, Part I: the weight function of a second-order
    # super-nested array at lags 1, 2 and 3, for n1 >= 4 and n2 >= 3
    if n1 % 2:
        want = (1, n1 - 1, 1)
    else:
        want = (2, n1 - 3, 3 if n1 in (4, 6) else 4)
    for n2 in range(3, 13):
        sn = gen_super_nested(n1, n2)
        assert tuple(weight(sn, k) for k in (1, 2, 3)) == want, (n1, n2)


@pytest.mark.parametrize("n1,n2", [(4, 2), (4, 3), (6, 3), (6, 4), (2, 5),
                                   (2, 6), (8, 8)])
def test_super_nested_returns_promptly(n1, n2):
    out = []
    worker = threading.Thread(
        target=lambda: out.append(gen_super_nested(n1, n2)), daemon=True)
    worker.start()
    worker.join(timeout=1.0)
    assert not worker.is_alive(), "gen_super_nested did not return"
    assert len(out) == 1 and len(out[0]) == n1 + n2


@pytest.mark.parametrize("r,expected", [
    (1, (0, 1)),
    (2, (0, 1, 3, 4)),
    (3, (0, 1, 3, 4, 9, 10, 12, 13)),
])
def test_cantor_small(r, expected):
    assert gen_cantor(r).positions == expected


@pytest.mark.parametrize("r", range(1, 9))
def test_cantor_cardinality_and_span(r):
    arr = gen_cantor(r)
    assert len(arr) == 2 ** r
    assert arr.positions[-1] == (3 ** r - 1) // 2
    with pytest.raises(InvalidParameterError):
        gen_cantor(0)


def test_cross_sum_paper_examples():
    nested = gen_nested(6)
    shifted = SensorArray((0, 13))
    assert cross_sum(nested, shifted).positions == \
        (1, 2, 3, 4, 8, 12, 14, 15, 16, 17, 21, 25)
    ana1 = gen_ana1(6)
    out = cross_sum(ana1, shifted)
    assert out.positions == (1, 4, 8, 12, 13, 14, 17, 21, 25, 26, 27)
    assert len(out) == 11
    assert "1 collision" in out.label


def test_cross_sum_identity():
    arr = gen_coprime(2, 3)
    assert cross_sum(arr, SensorArray((0,))).positions == arr.positions


@given(st.sets(st.integers(0, 40), min_size=1, max_size=8),
       st.sets(st.integers(0, 40), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_cross_sum_commutative_and_bounded(a, b):
    sa = SensorArray(tuple(sorted(a)))
    sb = SensorArray(tuple(sorted(b)))
    ab = cross_sum(sa, sb)
    ba = cross_sum(sb, sa)
    assert ab.positions == ba.positions
    assert len(ab) <= len(sa) * len(sb)


@given(st.sets(st.integers(0, 20), min_size=1, max_size=5),
       st.sets(st.integers(0, 20), min_size=1, max_size=5),
       st.sets(st.integers(0, 20), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_cross_sum_associative(a, b, c):
    sa, sb, sc = (SensorArray(tuple(sorted(x))) for x in (a, b, c))
    left = cross_sum(cross_sum(sa, sb), sc)
    right = cross_sum(sa, cross_sum(sb, sc))
    assert left.positions == right.positions


def test_make_sfa_nfa():
    nfa = make_sfa("nested", {"n": 6}, 1)
    assert nfa.positions == (1, 2, 3, 4, 8, 12, 14, 15, 16, 17, 21, 25)
    assert nfa.kind == "SFA"


def test_make_sfa_cfa():
    cfa = make_sfa("coprime", {"m": 2, "n": 3}, 1)
    assert cfa.positions == (0, 2, 3, 4, 6, 9, 13, 15, 16, 17, 19, 22)


def test_make_sfa_scale_two():
    sfa = make_sfa("nested", {"n": 6}, 2)
    expected = sorted({x + y for x in (1, 2, 3, 4, 8, 12)
                       for y in (0, 13, 39, 52)})
    assert list(sfa.positions) == expected


def test_make_sfa_d2_uses_subarray_cardinality():
    # d2 = 2M + 1 with M = |subarray 1|: nested(6) gives d2 = 13
    sfa = make_sfa("nested", {"n": 6}, 1)
    assert 1 + 13 in sfa.positions and 12 + 13 in sfa.positions


SFA_CASES = [("ula", {"n": 4}), ("nested", {"n": 6}), ("nested", {"n": 7}),
             ("coprime", {"m": 2, "n": 3}), ("coprime", {"m": 3, "n": 5}),
             ("ana1", {"n": 6}), ("ana2", {"n": 7}),
             ("super_nested", {"n1": 3, "n2": 3}),
             ("super_nested", {"n1": 4, "n2": 4})]
SFA_GENERATORS = {"ula": gen_ula, "nested": gen_nested,
                  "coprime": gen_coprime, "ana1": gen_ana1, "ana2": gen_ana2,
                  "super_nested": gen_super_nested}


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("kind, params", SFA_CASES,
                         ids=["%s%s" % c for c in SFA_CASES])
def test_make_sfa_is_the_cross_sum_relabelled(kind, params, r):
    # make_sfa sums the positions without building the scaled Cantor array
    # or the cross sum as arrays: the same positions, kind and label.
    sub1 = SFA_GENERATORS[kind](*params.values())
    d2 = 2 * len(sub1) + 1
    sub2 = SensorArray(tuple(p * d2 for p in gen_cantor(r).positions))
    crossed = cross_sum(sub1, sub2)
    collisions = len(sub1) * len(sub2) - len(crossed)
    label = "SFA[%s, r=%d]" % (sub1.label, r)
    if collisions:
        label += " [%d collisions]" % collisions
    sfa = make_sfa(kind, params, r)
    assert (sfa.positions, sfa.kind, sfa.label) \
        == (crossed.positions, "SFA", label)


@pytest.mark.parametrize("build", [
    lambda: gen_cantor(21), lambda: gen_cantor(2 ** 100),
    lambda: make_sfa("nested", {"n": 6}, 40),
    lambda: make_sfa("nested", {"n": 6}, 18)],
    ids=["cantor 21", "cantor 2**100", "sfa 40", "sfa 18"])
def test_fractal_scale_past_the_sensor_limit_is_refused_at_once(build):
    # gen_cantor(40) doubled a list to 2**40 entries until it was killed.
    # A 6-sensor subarray at scale 18 asks for 6 x 2**18 > 2**20 sensors.
    # The size is checked before any list is built.
    start = time.perf_counter()
    with pytest.raises(InvalidParameterError, match="more than the 1048576"):
        build()
    assert time.perf_counter() - start < 1.0


def test_fractal_arrays_up_to_the_sensor_limit_build():
    # SFA scales up to 6 build, with 6 x 2**r sensors (the Cantor arrays up
    # to 8 are built above).  The limit's edge, 2**20 sensors, is checked
    # without building there, which would take seconds: m x 2**r sensors
    # pass up to it and are refused past it.
    for r in range(1, 7):
        assert len(make_sfa("nested", {"n": 6}, r)) == 6 * 2 ** r
    assert _MAX_SENSORS == 2 ** 20
    for m, r in ((1, 20), (4, 18), (8, 17), (2 ** 20, 0)):
        _check_size(m, r, "scale")
    for m, r in ((1, 21), (5, 18), (9, 17), (2 ** 20 + 1, 0)):
        with pytest.raises(InvalidParameterError, match="scale %d" % r):
            _check_size(m, r, "scale")


def test_make_sfa_errors_propagate():
    with pytest.raises(InvalidParameterError):
        make_sfa("nested", {"n": 1}, 1)
    with pytest.raises(InvalidParameterError):
        make_sfa("nested", {"n": 6}, 0)
    with pytest.raises(InvalidParameterError):
        make_sfa("moebius", {"n": 6}, 1)
    with pytest.raises(InvalidParameterError, match="cantor"):
        make_sfa("cantor", {"r": 2}, 1)


# Each generator with one size argument replaced by a bad value.
SIZED_BUILDS = {
    "gen_ula": lambda v: gen_ula(v),
    "gen_nested": lambda v: gen_nested(v),
    "gen_coprime m": lambda v: gen_coprime(v, 9),
    "gen_coprime n": lambda v: gen_coprime(2, v),
    "gen_ana1": lambda v: gen_ana1(v),
    "gen_ana2": lambda v: gen_ana2(v),
    "gen_super_nested n1": lambda v: gen_super_nested(v, 3),
    "gen_super_nested n2": lambda v: gen_super_nested(3, v),
    "gen_cantor": lambda v: gen_cantor(v),
    "make_sfa params": lambda v: make_sfa("nested", {"n": v}, 1),
    "make_sfa fractal_scale": lambda v: make_sfa("nested", {"n": 6}, v),
}


@pytest.mark.parametrize("value", [True, False, 2.5, 6.0, np.float64(6),
                                   "6", None, 0, -3], ids=repr)
@pytest.mark.parametrize("build", SIZED_BUILDS.values(),
                         ids=SIZED_BUILDS.keys())
def test_generators_refuse_a_size_that_is_not_a_positive_integer(build,
                                                                 value):
    # True was read as 1 (a one-sensor ULA, a scale-1 SFA), and 6.0 raised
    # a bare TypeError from range().
    with pytest.raises(InvalidParameterError, match="positive integer"):
        build(value)


@pytest.mark.parametrize("build", SIZED_BUILDS.values(),
                         ids=SIZED_BUILDS.keys())
def test_generators_take_a_numpy_integer_size(build):
    assert build(np.int64(7)) == build(7)


@pytest.mark.parametrize("kind, params", [
    ("nested", {}),
    ("coprime", {"m": 2}),
    ("nested", {"n": 6, "r": 2}),
    ("super_nested", {"n1": 3, "n2": 3, "n": 6}),
])
def test_make_sfa_params_must_name_exactly_the_family_parameters(kind,
                                                                 params):
    with pytest.raises(InvalidParameterError) as err:
        make_sfa(kind, params, 1)
    required = {"nested": "['n']", "coprime": "['m', 'n']",
                "super_nested": "['n1', 'n2']"}[kind]
    assert required in str(err.value)


@pytest.mark.parametrize("build", [
    lambda: gen_ula(7),
    lambda: gen_nested(9),
    lambda: gen_coprime(3, 5),
    lambda: gen_ana1(6),
    lambda: gen_ana2(7),
    lambda: gen_super_nested(5, 4),
    lambda: gen_cantor(4),
    lambda: make_sfa("super_nested", {"n1": 3, "n2": 3}, 2),
])
def test_generators_satisfy_invariants(build):
    arr = build()
    pos = arr.positions
    assert len(pos) >= 1
    assert all(p >= 0 for p in pos)
    assert all(b > a for a, b in zip(pos, pos[1:]))


def test_remove_sensor():
    arr = gen_nested(6)
    assert arr.remove([8]).positions == (1, 2, 3, 4, 12)
    with pytest.raises(InvalidParameterError):
        arr.remove([99])


@pytest.mark.parametrize("sensors", [[0, 1, 2], [2, 0, 1, 0]])
def test_remove_refuses_to_remove_every_sensor(sensors):
    # This read "sensor positions must be one or more integers, got ()".
    with pytest.raises(InvalidParameterError, match="every sensor"):
        gen_ula(3).remove(sensors)


def test_remove_reads_integer_positions():
    # A numpy integer is a position and is labelled as a Python int; it was
    # labelled [np.int64(8)].
    arr = gen_nested(6)
    fewer = arr.remove([np.int64(8), 12])
    assert fewer.positions == (1, 2, 3, 4)
    assert fewer.label == "Nested(6) minus [8, 12]"
    assert all(type(p) is int for p in fewer.positions)


@pytest.mark.parametrize("sensors", [[True], [np.bool_(True)], [8.0],
                                     [np.float64(8)], ["8"], 8, None, []])
def test_remove_refuses_what_is_not_a_list_of_positions(sensors):
    # [True] dropped sensor 1 and [8.0] sensor 8; 8 raised a bare
    # TypeError.
    with pytest.raises(InvalidParameterError, match="sensors to remove"):
        gen_nested(6).remove(sensors)
