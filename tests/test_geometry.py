import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalarrays.geometry import (InvalidParameterError, SensorArray,
                                    UnsupportedParameterError, cross_sum,
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


def test_sensor_array_rejects_empty():
    with pytest.raises(InvalidParameterError):
        SensorArray(())


@pytest.mark.parametrize("positions", [(0, 1.7, 3), (0, 1, 2.5),
                                       (0, float("nan")), (0, float("inf")),
                                       (0, "1")])
def test_sensor_array_rejects_non_integers(positions):
    with pytest.raises(InvalidParameterError):
        SensorArray(positions)


def test_sensor_array_accepts_integral_values():
    assert SensorArray((0, 1.0, 3)).positions == (0, 1, 3)
    assert all(type(p) is int for p in SensorArray((0, 1.0, 3)).positions)


def test_sensor_array_json_round_trip():
    arr = gen_nested(6)
    again = SensorArray.from_dict(arr.to_dict())
    assert again == arr
    assert set(arr.to_dict()) == {"label", "kind", "positions"}


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
    with pytest.raises(InvalidParameterError):
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
    with pytest.raises(InvalidParameterError):
        gen_ana1(5)


def test_ana2():
    assert gen_ana2(6).positions == (1, 2, 4, 8, 12, 13)
    assert len(gen_ana2(6)) == 6
    assert summarize(difference_coarray(gen_ana2(8))).hole_free
    with pytest.raises(InvalidParameterError):
        gen_ana2(4)


def test_super_nested_fixture():
    assert gen_super_nested(3, 3).positions == (1, 3, 6, 8, 11, 12)


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
    parent = SensorArray(tuple(sorted(
        set(range(1, n1 + 1)) | {m * (n1 + 1) for m in range(1, n2 + 1)})))
    assert coarrays_equal(gen_super_nested(n1, n2), parent)


def test_super_nested_reduces_unit_pairs():
    # the point of the rearrangement: fewer unit-spacing sensor pairs
    def unit_pairs(arr):
        pos = set(arr.positions)
        return sum(1 for p in pos if p + 1 in pos)
    assert unit_pairs(gen_super_nested(5, 5)) < unit_pairs(gen_nested(10))


def test_super_nested_even_guard():
    with pytest.raises(UnsupportedParameterError):
        gen_super_nested(8, 8)
    with pytest.raises(InvalidParameterError):
        gen_super_nested(1, 3)


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


def test_make_sfa_errors_propagate():
    with pytest.raises(InvalidParameterError):
        make_sfa("nested", {"n": 1}, 1)
    with pytest.raises(InvalidParameterError):
        make_sfa("nested", {"n": 6}, 0)
    with pytest.raises(InvalidParameterError):
        make_sfa("moebius", {"n": 6}, 1)
    with pytest.raises(InvalidParameterError, match="cantor"):
        make_sfa("cantor", {"r": 2}, 1)


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
