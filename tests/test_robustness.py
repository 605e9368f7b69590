import itertools
import random
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb
from operator import or_

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalarrays import robustness
from fractalarrays.coarray import lag_set
from fractalarrays.experiments import PAPER_CASES
from fractalarrays.geometry import (InvalidParameterError, SensorArray,
                                    gen_coprime, gen_nested,
                                    gen_super_nested, gen_ula, make_sfa)
from fractalarrays.robustness import (essential_sensors, fragility_profile,
                                      k_fragility, robustness_report,
                                      write_fragility_csv)


# Reference implementations: the exhaustive enumeration the vertex-cover
# kernel must reproduce exactly.  Each removal rebuilds the lag set by its
# own pairwise differences, not by the library's pair-graph kernel that the
# counts under test are built on.

def ref_lag_set(positions):
    return frozenset(a - b for a in positions for b in positions)


def ref_essential(positions):
    full = ref_lag_set(positions)
    essential = tuple(
        x for x in positions
        if ref_lag_set([p for p in positions if p != x]) != full)
    inessential = tuple(x for x in positions if x not in essential)
    return essential, inessential


def ref_k_fragility(positions, k):
    full = ref_lag_set(positions)
    count = 0
    for removed in itertools.combinations(positions, k):
        drop = set(removed)
        if ref_lag_set([p for p in positions if p not in drop]) != full:
            count += 1
    return count, comb(len(positions), k)


@dataclass(frozen=True)
class Positions:
    """Distinct positions that may be negative or out of order, which
    SensorArray rejects; the robustness functions read only the positions
    and length."""

    positions: tuple

    def __len__(self):
        return len(self.positions)


@pytest.mark.parametrize("positions", [(0, 1.5, 3, 7), (0, 1.0, 3, 7),
                                       (0, True, 3, 7), (0, np.True_, 3, 7),
                                       (0, "1", 3, 7)], ids=repr)
@pytest.mark.parametrize("call", [essential_sensors,
                                  lambda s: k_fragility(s, 1),
                                  lambda s: fragility_profile(s, 2)],
                         ids=["essential_sensors", "k_fragility",
                              "fragility_profile"])
def test_positions_that_are_not_integers_are_refused(call, positions):
    # The positions were read unchecked: 1.5 and True gave a silent answer.
    with pytest.raises(InvalidParameterError, match="integers"):
        call(Positions(positions))


def assert_matches_reference(arr, k_max):
    ess = essential_sensors(arr)
    assert (ess.essential, ess.inessential) \
        == ref_essential(sorted(arr.positions))
    profile = fragility_profile(arr, k_max)
    assert [r.k for r in profile] == list(range(1, k_max + 1))
    for r in profile:
        count, total = ref_k_fragility(arr.positions, r.k)
        assert (r.essential_subset_count, r.total_subsets) == (count, total)
        assert r.fragility == Fraction(count, total)
        assert k_fragility(arr, r.k) == r


# The Table-1 arrays and the other arrays of the fragility gallery.
GALLERY = [case["build"]() for case in PAPER_CASES.values()] + [
    gen_ula(12), gen_nested(12), gen_super_nested(5, 7), gen_coprime(3, 7),
    gen_super_nested(2, 4), gen_super_nested(4, 4)]


@pytest.mark.parametrize("arr", GALLERY, ids=lambda a: a.label)
def test_gallery_matches_reference(arr):
    assert_matches_reference(arr, min(3, len(arr) - 1))


def test_nfa_r2_matches_reference_to_k4():
    assert_matches_reference(make_sfa("nested", {"n": 6}, 2), 4)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=2, max_size=12, unique=True))
def test_random_arrays_match_reference_at_every_k(positions):
    # In the order drawn: the essential and inessential sensors are reported
    # in ascending position order whatever order the positions come in.
    assert_matches_reference(Positions(tuple(positions)), len(positions) - 1)


def test_unsorted_positions_are_read_as_the_sorted_array():
    # Read in the given order, lag 1's pairs would split over +1 and -1 and
    # every sensor would look essential.
    arr = Positions((5, 0, 1, 2, 3, 4))
    ess = essential_sensors(arr)
    assert (ess.essential, ess.inessential) == ((0, 5), (1, 2, 3, 4))
    assert [r.essential_subset_count for r in fragility_profile(arr, 2)] \
        == [2, 11]
    assert ref_k_fragility(arr.positions, 2) == (11, 15)


def test_nfa24_profile_to_k6():
    # k = 6 branches three deletions deep, with kept sensors piling up on
    # every level.  Each count equals the exhaustive enumeration, which
    # takes seconds at k = 6 (134596 subsets), too slow for this suite.
    arr = make_sfa("nested", {"n": 6}, 2)
    counts = [r.essential_subset_count for r in fragility_profile(arr, 6)]
    assert counts == [7, 142, 1440, 9192, 40626, 133443]


def test_nfa48_counts():
    # The first four equal the exhaustive enumeration; k = 4 (194580
    # subsets, about 30 s) is too slow to enumerate in this suite.  k = 5,
    # two deletions deep, is the count of a counter without the drop of
    # graphs with more paths than deletions left, so it checks that drop
    # below the top of the tree.
    arr = make_sfa("nested", {"n": 6}, 3)
    counts = [r.essential_subset_count for r in fragility_profile(arr, 5)]
    assert counts == [7, 310, 6955, 103240, 1122282]


@pytest.mark.parametrize("arr, want", [
    (make_sfa("coprime", {"m": 2, "n": 3}, 3), [18, 705, 13598]),
    (make_sfa("super_nested", {"n1": 3, "n2": 3}, 3), [21, 777, 14403]),
], ids=["CFA48", "SNFA48"])
def test_48_sensor_sfa_counts_to_k3(arr, want):
    # The counts of an exhaustive enumeration over every k-subset.  The
    # coprime SFA leaves 12 covering pairs at the three-deletion leaf, where
    # the 48-sensor NFA leaves 2 and the super-nested SFA none.
    assert [r.essential_subset_count for r in fragility_profile(arr, 3)] \
        == want


@pytest.mark.parametrize("arr, r, top, reads", [
    (gen_ula(40), 10, 427780383, 18243),
    (make_sfa("coprime", {"m": 2, "n": 3}, 3), 7, 775190, 212248),
], ids=["ULA40-r10", "CFA48-r7"])
def test_deep_trees_keep_the_earlier_counts(arr, r, top, reads):
    # Seven and four deletions deep, beyond any exhaustive reference: the
    # r-subsets that cover no pair graph, as a counter without the drop of
    # graphs with more paths than deletions left counts them, and the edges
    # the tree reads to count them.
    n = len(arr)
    graphs = robustness._pair_graphs(arr.positions)
    counts, spent = robustness._uncovering_counts(graphs, (1 << n) - 1, r)
    assert (counts[-1], spent) == (top, reads)


def test_kept_sensors_spanning_every_lag_exactly():
    # Four kept sensors have six pairs, as many as ULA(7) has positive lags,
    # so only a perfect Golomb ruler keeps the coarray: {0, 1, 4, 6} and its
    # mirror {0, 2, 5, 6}.  Every other 3-subset is essential.
    r = k_fragility(gen_ula(7), 3)
    assert (r.essential_subset_count, r.total_subsets) == (33, 35)
    assert ref_k_fragility(gen_ula(7).positions, 3) == (33, 35)


@pytest.mark.parametrize("arr", [make_sfa("nested", {"n": 6}, 1),
                                 gen_ula(7), SensorArray((0, 1)),
                                 SensorArray((3, 10, 11))],
                         ids=lambda a: a.label or str(a.positions))
def test_all_but_one_removed_is_fully_fragile(arr):
    n = len(arr)
    r = k_fragility(arr, n - 1)
    assert (r.essential_subset_count, r.total_subsets) == (n, n)
    assert r.fragility == 1


@pytest.mark.parametrize("arr", GALLERY[:5], ids=lambda a: a.label)
@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("shift", [-50, 0, 7])
def test_counts_invariant_under_translation_and_mirroring(arr, flip, shift):
    sign = -1 if flip else 1
    moved = Positions(tuple(sorted(sign * p + shift for p in arr.positions)))
    counts = [(r.essential_subset_count, r.total_subsets)
              for r in fragility_profile(arr, 3)]
    assert [(r.essential_subset_count, r.total_subsets)
            for r in fragility_profile(moved, 3)] == counts
    ess = {sign * p + shift for p in essential_sensors(arr).essential}
    assert set(essential_sensors(moved).essential) == ess


@pytest.fixture(scope="module")
def nfa():
    return make_sfa("nested", {"n": 6}, 1)


@pytest.fixture(scope="module")
def cfa():
    return make_sfa("coprime", {"m": 2, "n": 3}, 1)


@pytest.fixture(scope="module")
def auggen1():
    return make_sfa("ana1", {"n": 6}, 1)


def test_cfa_essential_partition(cfa):
    report = essential_sensors(cfa)
    assert report.essential == (0, 2, 4, 9, 17, 22)
    assert report.inessential == (3, 6, 13, 15, 16, 19)


def test_nfa_essential_set(nfa):
    assert essential_sensors(nfa).essential == (1, 2, 3, 4, 17, 21, 25)


def test_partition_covers_array(cfa):
    report = essential_sensors(cfa)
    merged = sorted(report.essential + report.inessential)
    assert tuple(merged) == cfa.positions
    assert not set(report.essential) & set(report.inessential)


@pytest.mark.parametrize("n", [4, 7, 12])
def test_ula_essential_is_endpoints(n):
    report = essential_sensors(gen_ula(n))
    assert report.essential == (0, n - 1)


def test_two_sensor_array_all_essential():
    assert essential_sensors(SensorArray((0, 1))).essential == (0, 1)


def test_essential_needs_two_sensors():
    with pytest.raises(InvalidParameterError):
        essential_sensors(SensorArray((5,)))


def test_cfa_fragility_k1(cfa):
    r = k_fragility(cfa, 1)
    assert (r.essential_subset_count, r.total_subsets) == (6, 12)
    assert r.fragility == Fraction(1, 2)


def test_nfa_fragility_counts(nfa):
    r2 = k_fragility(nfa, 2)
    r3 = k_fragility(nfa, 3)
    assert (r2.essential_subset_count, r2.total_subsets) == (58, 66)
    assert (r3.essential_subset_count, r3.total_subsets) == (218, 220)


def test_auggen1_fragility(auggen1):
    r = k_fragility(auggen1, 2)
    assert (r.essential_subset_count, r.total_subsets) == (55, 55)
    assert r.fragility == 1


def test_profile_matches_pointwise(nfa):
    profile = fragility_profile(nfa, 3)
    assert [r.rounded() for r in profile] == [0.5833, 0.8788, 0.9909]


def test_nested12_fully_fragile():
    assert k_fragility(gen_nested(12), 1).fragility == 1


def test_ula12_k1():
    r = k_fragility(gen_ula(12), 1)
    assert r.fragility == Fraction(2, 12)


def test_k1_matches_essential_count(cfa, nfa, auggen1):
    for arr in (cfa, nfa, auggen1):
        r = k_fragility(arr, 1)
        assert r.essential_subset_count == \
            len(essential_sensors(arr).essential)


def test_fragility_monotone_in_k(nfa, cfa, auggen1):
    for arr in (nfa, cfa, auggen1):
        profile = fragility_profile(arr, 3)
        for a, b in zip(profile, profile[1:]):
            assert b.fragility >= a.fragility


def test_essential_subsets_shrink_strictly(cfa):
    full = lag_set(cfa)
    for removed in itertools.combinations(cfa.positions, 2):
        kept = lag_set(cfa.remove(removed))
        assert kept <= full
        if kept != full:
            assert kept < full


def test_endpoints_always_essential():
    import random
    rng = random.Random(5)
    for _ in range(40):
        size = rng.randint(2, 10)
        arr = SensorArray(tuple(sorted(rng.sample(range(50), size))))
        ess = set(essential_sensors(arr).essential)
        assert arr.positions[0] in ess and arr.positions[-1] in ess


def test_parameter_validation(cfa):
    with pytest.raises(InvalidParameterError):
        k_fragility(cfa, 0)
    with pytest.raises(InvalidParameterError):
        k_fragility(cfa, len(cfa))
    with pytest.raises(InvalidParameterError):
        fragility_profile(cfa, len(cfa))


def test_deep_profile_of_a_long_ula():
    # C(40, 10) is about 8.5e8 subsets, but the tree reads 18 243 edges.
    r = fragility_profile(gen_ula(40), 10)[-1]
    assert r.essential_subset_count == 419880145 == comb(40, 10) - 427780383


def test_report_json(cfa):
    d = robustness_report(cfa, 2)
    assert d["essential"] == [0, 2, 4, 9, 17, 22]
    assert d["fragility"][0] == {"k": 1, "count": 6, "total": 12,
                                 "value": 0.5}
    assert set(d) == {"label", "essential", "inessential", "fragility"}


@pytest.mark.parametrize("s", [[0, 1, 3], (3, 0, 1), Positions((3, 0, 1))],
                         ids=["list", "unsorted-tuple", "duck-typed"])
def test_report_takes_a_position_sequence_without_a_label(s):
    # essential_sensors and fragility_profile take these; the report read
    # s.label and raised AttributeError.
    d = robustness_report(s, 1)
    assert d["label"] is None
    labelled = robustness_report(SensorArray((0, 1, 3)), 1)
    assert {**d, "label": labelled["label"]} == labelled
    assert d["essential"] == list(ref_essential((0, 1, 3))[0])


@dataclass(frozen=True)
class PositionsOnly:
    """An object with a positions sequence and no length."""

    positions: tuple


def test_positions_without_a_length_are_read():
    # The length was taken from the object, not from its positions, so each
    # call raised a bare TypeError here.
    arr = make_sfa("nested", {"n": 6})
    s = PositionsOnly(tuple(reversed(arr.positions)))
    assert essential_sensors(s) == essential_sensors(arr)
    assert k_fragility(s, 2) == k_fragility(arr, 2)
    assert fragility_profile(s, 3) == fragility_profile(arr, 3)
    assert robustness_report(s, 3) == {**robustness_report(arr, 3),
                                       "label": None}


def test_fragility_csv(tmp_path, cfa):
    path = tmp_path / "frag.csv"
    write_fragility_csv(path, [("CFA", fragility_profile(cfa, 2))])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "label,k,F_k"
    assert lines[1] == "CFA,1,0.5000"
    assert lines[2] == "CFA,2,0.8182"


def _returns_within(seconds, call, *args):
    """What call(*args) returns or raises, run in a daemon thread so that a
    call that hangs fails the test instead of stalling the suite."""
    out = []

    def attempt():
        try:
            out.append(call(*args))
        except InvalidParameterError as exc:
            out.append(exc)

    worker = threading.Thread(target=attempt, daemon=True)
    start = time.perf_counter()
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), "%s did not return" % call.__name__
    assert time.perf_counter() - start < seconds
    return out[0]


def test_work_budget_is_an_exact_count_of_edge_reads(monkeypatch):
    # The 48-sensor NFA's profile to k = 5 reads 85 057 edges.
    nfa48 = make_sfa("nested", {"n": 6}, 3)
    monkeypatch.setattr(robustness, "_WORK_BUDGET", 85056)
    with pytest.raises(InvalidParameterError,
                       match="work budget of 85056 edge reads"):
        fragility_profile(nfa48, 5)
    monkeypatch.setattr(robustness, "_WORK_BUDGET", 85057)
    assert [r.essential_subset_count for r in fragility_profile(nfa48, 5)] \
        == [7, 310, 6955, 103240, 1122282]


def test_work_budget_refuses_promptly(monkeypatch):
    # At k = 8 the tree reads about 13.5 million edges; the refusal comes
    # once it has read the budget, not after the whole tree.
    monkeypatch.setattr(robustness, "_WORK_BUDGET", 10 ** 5)
    out = _returns_within(1.0, fragility_profile,
                          make_sfa("nested", {"n": 6}, 3), 8)
    assert isinstance(out, InvalidParameterError)
    assert "work budget of 100000 edge reads" in str(out)


def test_k_past_the_kept_pair_rule_runs_no_tree(monkeypatch):
    # 4 kept sensors span at most C(4, 2) = 6 of the 48-sensor NFA's positive
    # lags, so every 44-subset is essential: no tree runs, neither the tree
    # of the deepest k that the rule leaves open nor an r = 0 leaf.
    calls = _count_trees(monkeypatch)
    r = _returns_within(1.0, k_fragility, make_sfa("nested", {"n": 6}, 3), 44)
    assert (r.essential_subset_count, r.total_subsets) == (194580, 194580)
    assert r.fragility == 1
    assert calls == []


def test_k_past_the_kept_pair_rule_reads_no_edges(monkeypatch):
    # The r = 0 leaf that once ran here charged all C(50, 2) = 1225 edges
    # against the budget, and refused an answer that needs no tree.
    monkeypatch.setattr(robustness, "_WORK_BUDGET", 1000)
    r = k_fragility(gen_ula(50), 48)
    assert (r.essential_subset_count, r.total_subsets) == (1225, 1225)


def test_nfa_r2_matches_reference_at_k5():
    # Three deletions end the branch tree, so k = 5 reaches the closed form
    # two deletions down.
    arr = make_sfa("nested", {"n": 6}, 2)
    r = k_fragility(arr, 5)
    count, total = ref_k_fragility(arr.positions, 5)
    assert (r.essential_subset_count, r.total_subsets) == (count, total)


def _dense_random_array(size, seed):
    """size sensors in a span of about 1.5 size: redundant enough that many
    4- and 5-subsets keep the coarray."""
    rng = random.Random(seed)
    return SensorArray(tuple(sorted(rng.sample(range(size + size // 2 + 1),
                                               size))))


# The profile's one tree against k_fragility and the reference at every k;
# on the smaller arrays the C(N - k, 2) shortcut settles the top k's.
@pytest.mark.parametrize("arr", [gen_ula(16)] + [
    _dense_random_array(size, seed)
    for size, seed in [(14, 1), (15, 2), (16, 3), (8, 11), (10, 12),
                       (12, 13)]],
    ids=lambda a: a.label or str(len(a)))
def test_larger_arrays_match_reference_to_k5(arr):
    assert_matches_reference(arr, 5)


def _random_path_graphs(rng, n):
    """One to six pair graphs over n sensors, each a union of disjoint paths
    with one to eight edges, as a tuple of two-bit edge masks."""
    graphs = []
    for _ in range(rng.randint(1, 6)):
        order = rng.sample(range(n), rng.randint(2, n))
        cuts = sorted(rng.sample(range(1, len(order)),
                                 rng.randint(0, min(2, len(order) - 1))))
        edges = []
        for a, b in zip([0] + cuts, cuts + [len(order)]):
            edges += [1 << i | 1 << j
                      for i, j in zip(order[a:b], order[a + 1:b])]
        if edges:
            graphs.append(tuple(edges[:rng.randint(1, 8)]))
    return graphs


def _covering(graphs, sensors, size):
    """The size-subsets of ``sensors`` (indices) that cover some graph, as
    bitmasks."""
    masks = (sum(1 << i for i in c)
             for c in itertools.combinations(sensors, size))
    return {m for m in masks if any(all(e & m for e in g) for g in graphs)}


def _disjoint_edges(rng, n, m):
    """m disjoint edges over n >= 2m sensors: a graph of m paths."""
    ends = rng.sample(range(n), 2 * m)
    return tuple(1 << a | 1 << b for a, b in zip(ends[::2], ends[1::2]))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_coverable_drops_no_graph_that_r_pool_sensors_cover(r):
    rng = random.Random(23)
    by_paths = 0
    for _ in range(400):
        n = rng.randint(3, 10)
        graphs = _random_path_graphs(rng, n)
        if n >= 4:
            graphs += [_disjoint_edges(rng, n, rng.randint(2, n // 2))
                       for _ in range(rng.randint(0, 2))]
        pool = sum(1 << i for i in rng.sample(range(n), rng.randint(1, n)))
        live, _ = robustness._coverable(graphs, pool, r)
        sensors = [i for i in range(n) if pool >> i & 1]
        for g in graphs:
            if g in live:
                continue
            assert not any(_covering([g], sensors, s)
                           for s in range(1, r + 1))
            # Dropped for its paths alone: few edges, each with an end in
            # the pool.
            by_paths += len(g) <= 2 * r and all(e & pool for e in g)
    assert by_paths > 20


def test_nfa48_leaf_reads_only_graphs_of_at_most_three_paths():
    # Of the 122 graphs of at most six edges left at the 48-sensor NFA's
    # r = 3 leaf, 71 have four to six paths and no cover of three.
    arr = make_sfa("nested", {"n": 6}, 3)
    pool = (1 << len(arr)) - 1
    live, single = robustness._coverable(
        robustness._pair_graphs(arr.positions), pool, 3)
    while single:
        pool &= ~single
        live, single = robustness._coverable(live, pool, 3)
    paths = [reduce(or_, g).bit_count() - len(g) for g in live]
    assert len(live) == 51 and max(paths) == 3


def test_three_deletion_leaf_matches_brute_force():
    # The covering 3-subsets are counted as one set: the covering triples
    # found graph by graph, and each covering pair with a third pool sensor.
    rng = random.Random(29)
    with_pairs = 0
    for _ in range(400):
        n = rng.randint(3, 10)
        graphs = _random_path_graphs(rng, n)
        if n >= 6 and rng.random() < 0.5:
            graphs.append(_disjoint_edges(rng, n, 3))
        # Sensors outside the pool are sure to stay, so some edges keep one
        # or neither endpoint in it.
        pool = sum(1 << i for i in rng.sample(range(n), rng.randint(1, n)))
        sensors = [i for i in range(n) if pool >> i & 1]
        want = [comb(len(sensors), s) - len(_covering(graphs, sensors, s))
                for s in range(4)]
        counts, _ = robustness._uncovering_counts(graphs, pool, 3)
        assert counts == want
        with_pairs += bool(_covering(graphs, sensors, 2))
    assert with_pairs > 100


def _check_small_covers(graphs, pool, r, n):
    """Run the graphs through _coverable until no single is left, then check
    _small_covers on what is live against the brute-force covers.  True when
    some graph was live."""
    live, single = robustness._coverable(graphs, pool, r)
    while single:
        pool &= ~single
        live, single = robustness._coverable(live, pool, r)
    assert all(e & pool for g in live for e in g)
    pairs, triples = robustness._small_covers(live, pool, r)
    sensors = [i for i in range(n) if pool >> i & 1]
    want_pairs = _covering(graphs, sensors, 2)
    assert pairs == want_pairs
    if r == 2:
        assert triples == set()
    else:
        want_triples = _covering(graphs, sensors, 3)
        assert triples <= want_triples
        holds_a_pair = {t for t in want_triples
                        if any(p & t == p for p in want_pairs)}
        assert triples - holds_a_pair == want_triples - holds_a_pair
    return bool(live)


@pytest.mark.parametrize("r", [2, 3])
def test_small_covers_match_brute_force(r):
    rng = random.Random(11)
    checked = 0
    for _ in range(400):
        n = rng.randint(3, 10)
        graphs = _random_path_graphs(rng, n)
        # Sensors outside the pool are sure to stay, so some edges keep one
        # or neither endpoint in it.
        pool = sum(1 << i for i in rng.sample(range(n), rng.randint(2, n)))
        checked += _check_small_covers(graphs, pool, r, n)
    assert checked > 100


@pytest.mark.parametrize("r", [2, 3])
def test_small_covers_of_three_disjoint_edges_match_brute_force(r):
    # At r = 3 these take their own path through _small_covers.
    rng = random.Random(13)
    checked = 0
    for _ in range(400):
        n = rng.randint(6, 10)
        graphs = [_disjoint_edges(rng, n, 3)
                  for _ in range(rng.randint(1, 3))]
        graphs += _random_path_graphs(rng, n)[:rng.randint(0, 2)]
        pool = sum(1 << i for i in rng.sample(range(n), rng.randint(2, n)))
        checked += _check_small_covers(graphs, pool, r, n)
    # At r = 2 the three disjoint edges are dropped, so fewer lists are live.
    assert checked > 50


def _count_trees(monkeypatch):
    """The r of every call of the branch-tree counter, recursive ones too."""
    calls = []
    uncovering_counts = robustness._uncovering_counts

    def counted(graphs, pool, r, reads=0):
        calls.append(r)
        return uncovering_counts(graphs, pool, r, reads)

    monkeypatch.setattr(robustness, "_uncovering_counts", counted)
    return calls


def test_three_deletions_end_the_branch_tree(monkeypatch):
    calls = _count_trees(monkeypatch)
    nfa48 = make_sfa("nested", {"n": 6}, 3)
    r = k_fragility(nfa48, 3)
    assert r.essential_subset_count == 6955
    assert calls == [3]
    # One tree, for the top k, counts the whole profile.
    calls.clear()
    profile = fragility_profile(nfa48, 3)
    assert [p.essential_subset_count for p in profile] == [7, 310, 6955]
    assert calls == [3]


def _count_kernel_runs(monkeypatch):
    """The positions of every run of the lag kernel behind the pair graphs,
    with the graph cache emptied first."""
    runs = []
    lag_rows = robustness._lag_rows

    def counted(positions):
        runs.append(positions)
        return lag_rows(positions)

    monkeypatch.setattr(robustness, "_lag_rows", counted)
    robustness._pair_graphs.cache_clear()
    return runs


def test_robustness_report_builds_the_pair_graphs_once(monkeypatch, cfa):
    want = {"essential": list(essential_sensors(cfa).essential),
            "fragility": [r.essential_subset_count
                          for r in fragility_profile(cfa, 3)]}
    runs = _count_kernel_runs(monkeypatch)
    d = robustness_report(cfa, 3)
    assert runs == [cfa.positions]
    assert d["essential"] == want["essential"]
    assert [f["count"] for f in d["fragility"]] == want["fragility"]


def test_pair_graphs_are_cached_per_positions_exactly(monkeypatch, nfa):
    runs = _count_kernel_runs(monkeypatch)
    ess = essential_sensors(nfa)
    profile = fragility_profile(nfa, 3)
    k2 = k_fragility(nfa, 2)
    assert runs == [nfa.positions]
    # A translated copy has the same counts but is a new key: the cache is
    # not keyed by the coarray.
    moved = SensorArray(tuple(p + 5 for p in nfa.positions))
    assert [r.essential_subset_count for r in fragility_profile(moved, 3)] \
        == [r.essential_subset_count for r in profile]
    assert runs == [nfa.positions, moved.positions]
    assert {p + 5 for p in ess.essential} \
        == set(essential_sensors(moved).essential)
    assert k_fragility(moved, 2) == k2
    assert len(runs) == 2


def test_pair_graphs_are_keyed_by_the_sorted_positions(monkeypatch, nfa):
    runs = _count_kernel_runs(monkeypatch)
    shuffled = Positions(tuple(reversed(nfa.positions)))
    assert essential_sensors(shuffled) == essential_sensors(nfa)
    assert fragility_profile(shuffled, 3) == fragility_profile(nfa, 3)
    assert runs == [nfa.positions]


def test_pair_graph_cache_is_bounded_and_read_only():
    info = robustness._pair_graphs.cache_info()
    assert info.maxsize == 4
    robustness._pair_graphs.cache_clear()
    for shift in range(10):
        graphs = robustness._pair_graphs(
            tuple(p + shift for p in gen_nested(12).positions))
    assert robustness._pair_graphs.cache_info().currsize == 4
    assert type(graphs) is tuple
    assert all(type(g) is tuple and g for g in graphs)
    assert all(type(e) is int and e.bit_count() == 2 for g in graphs
               for e in g)


def test_lag_count_shortcut_for_the_top_k_only(monkeypatch):
    # ULA(7) has 6 positive lags.  Four kept sensors have C(4, 2) = 6 pairs
    # and can still span them, three have 3 and cannot: so k = 4 needs no
    # tree and k <= 3 share the one for k = 3.
    calls = _count_trees(monkeypatch)
    arr = gen_ula(7)
    profile = fragility_profile(arr, 4)
    assert calls == [3]
    want = [ref_k_fragility(arr.positions, k) for k in range(1, 5)]
    assert [(r.essential_subset_count, r.total_subsets)
            for r in profile] == want
    assert want[3] == (35, 35)


@pytest.mark.parametrize("call", [k_fragility, fragility_profile,
                                  robustness_report],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("k", [True, False, 2.0, 1.5, "2", None],
                         ids=repr)
def test_k_must_be_an_integer(call, k, cfa):
    with pytest.raises(InvalidParameterError, match="integer"):
        call(cfa, k)


def test_numpy_integer_k_is_reported_as_an_int(cfa):
    r = k_fragility(cfa, np.int64(2))
    assert type(r.k) is int and r == k_fragility(cfa, 2)
    profile = fragility_profile(cfa, np.int64(2))
    assert [type(p.k) for p in profile] == [int, int]
