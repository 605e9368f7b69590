"""Sensor-failure robustness: essential sensors and k-fragility.

A sensor (or sensor subset) is essential when deleting it changes the
difference-coarray lag set.  Fragility F_k is the fraction of size-k
subsets that are essential; 0 is most robust, 1 least robust.  Counts are
exact: fragilities are rationals, never sampled estimates.

The counts come from vertex covers (Liu and Vaidyanathan, "Robustness of
Difference Coarrays of Sparse Arrays to Sensor Failures", Parts I-II, IEEE
TSP 2019).  The pair graph of a lag l has the sensors as vertices and the
sensor pairs at separation l as edges, and deleting a subset D removes l
from the coarray exactly when D is a vertex cover of that graph.  Every
sensor has at most one partner at +l and one at -l, so each pair graph is
a union of disjoint paths: k sensors cover at most 2k of its edges, and a
lag with more than 2k pairs survives every k-failure.  Each path needs a
sensor of its own, and a forest with |V| sensors on its |E| edges has
|V| - |E| paths, so a lag whose graph has more than k paths survives too.
So

    count = C(N, k) - #{k-subsets that cover no pair graph},

and the second term is counted without visiting the subsets, for every
size up to k at once, by branching on one sensor x of an edge of the
smallest graph left: first the subsets that delete x (its edges leave
every graph, and a graph left without edges is covered, which ends the
branch; their counts move one size up), then those that keep it (x leaves
the pool of undecided sensors that every edge is read through, and a graph
with an edge left with no endpoint in the pool is never covered).  With r
deletions still to make, closed forms end the branching and fill in every
size s <= r:

* a sensor on every edge of a graph covers it alone, so it must stay, in
  subsets of every size;
* with no coverable graph left, any C(n, s) of the n undecided sensors do;
* the s-subsets, s <= 2, that cover some graph are its covers of that
  size: none for one sensor (those were kept above), and for two, C(n, 2)
  minus the distinct covering pairs;
* with r = 3, a 3-subset covers some graph when it holds a covering pair
  or is itself a cover.  The pass over each graph that finds the covering
  pairs p finds a set T of covering triples, among them every one that
  holds no covering pair, so the covering 3-subsets are the one set
  T | {p | z : z an undecided sensor not in p}, and C(n, 3) less its size
  cover no graph;
* k deletions leave N - k sensors, whose C(N - k, 2) pairs cannot span
  more lags than that, so every k-subset is essential when the full array
  has more positive lags.  Only the largest k of a profile that this does
  not settle needs the tree.

Positions are read by ``coarray._positions``: a SensorArray's as they are,
anything else parsed and sorted, so 1.5, 1.0, True or a repeated position
is refused before the kernel runs.
Sensor subsets are Python-int bitmasks over sensor indices and counts are
Python ints, so nothing is rounded.  The graphs are grouped from the
rows of ``coarray``'s kernel, the one every coarray view is read from,
each pair's lag taken in the grouping loop, with edge masks from a table
kept for the last four sensor counts.  They
are kept for the last four arrays asked about, as immutable tuples keyed
by the sorted positions, so the essential sensors and the profile of one
array share one build; a translated copy is a new key.

Cost: N(N-1)/2 lags to build the graphs, once per array, then one branch
tree at most k - 3 deep in deletions, each node passing a few times over
the graphs that are still coverable.  The tree for the top k counts every
smaller k too, so a profile costs about its top k alone.  Its time
follows the edges it reads, about 0.15-0.9 us each (2-vCPU x86_64), not
C(N, k): the 40-sensor ULA at k = 10 (C(N, k) = 8.5e8) reads 18 243 in
0.013 s, the 48-sensor NFA at k = 5 (1.7e6) 85 057 in 0.04 s.  A tree
that would read more than _WORK_BUDGET = 2^22 is refused once it has read
that many, a few seconds in: the same NFA at k = 8 needs 13.5 million.
Lists of covers would be quicker still at small k, but they grow like 2^k
per lag: the 29-sensor ULA has 2.6 million covers of at most 21 sensors.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb
from operator import or_

from .coarray import _lag_rows, _positions
from .geometry import InvalidParameterError, _check_count

# Edge reads one count may make before it is refused; see Cost above.
_WORK_BUDGET = 2 ** 22


@dataclass(frozen=True)
class EssentialnessReport:
    essential: tuple
    inessential: tuple


@dataclass(frozen=True)
class FragilityReport:
    """Exact k-essential subset count over C(|S|, k)."""

    k: int
    essential_subset_count: int
    total_subsets: int
    fragility: Fraction

    def rounded(self):
        return round(float(self.fragility), 4)


@lru_cache(maxsize=4)
def _edge_masks(n):
    """For each sensor j of n, the edges 1 << i | 1 << j over i < j, in the
    order of ``_lag_rows``.  They depend on n alone, so arrays of one size
    share them."""
    return tuple(tuple(1 << i | 1 << j for i in range(j)) for j in range(n))


@lru_cache(maxsize=4)
def _pair_graphs(positions):
    """The pair graph of each lag l > 0 of the sorted ``positions``, in the
    order its first pair is met by ``_lag_rows``: a tuple of its edges as
    bitmasks 1 << i | 1 << j over sensor indices.

    Cached by the sorted positions every public function passes, so the
    essential sensors and the profile of one array share one build; the
    graphs are tuples, so no caller can change what the next one reads.
    """
    graphs = {}
    get = graphs.get
    for (b, below), masks in zip(_lag_rows(positions),
                                 _edge_masks(len(positions))):
        for a, e in zip(below, masks):
            lag = b - a
            g = get(lag)
            if g is None:
                graphs[lag] = [e]
            else:
                g.append(e)
    return tuple(map(tuple, graphs.values()))


def _coverable(graphs, pool, r):
    """The graphs that r of the sensors in ``pool`` can cover, and the
    sensors that cover one of them alone.

    A graph with an edge that has no endpoint in ``pool`` is never covered.
    Nor is one with more than r paths: a forest has |V| - |E| components,
    with |V| the sensors on its edges, and each needs a sensor of its own.
    """
    live = []
    single = 0
    for g in graphs:
        m = len(g)
        # A graph of at most r edges has at most r paths.
        if m > 2 * r or m > r and reduce(or_, g).bit_count() - m > r:
            continue
        common = pool
        for e in g:
            if not e & pool:
                break
            common &= e
        else:
            single |= common
            live.append(g)
    return live, single


def _small_covers(graphs, pool, r):
    """The pairs and, at r = 3, triples of sensors in ``pool`` that cover one
    of the graphs, which no one sensor covers: every covering pair, and
    every covering triple that holds none, among some that hold one.

    A cover has a sensor x on the first edge, y on the first edge x misses
    and one on every edge both miss.  A sensor lies on at most two edges,
    so an x that misses more than 2r - 2 is in no cover of r.  Three
    disjoint edges, the most common graph at r = 3, have no covering pair
    and their covering triples are one pool end of each edge.
    """
    pairs = set()
    triples = set()
    for g in graphs:
        if r == 3 and len(g) == 3:
            a, b, c = g
            if (a | b | c).bit_count() == 6:
                a &= pool
                b &= pool
                c &= pool
                # The low and high pool end of each edge; an edge with one
                # end in the pool offers it twice.
                a0 = a & -a
                a1 = a ^ a0 or a0
                b0 = b & -b
                b1 = b ^ b0 or b0
                c0 = c & -c
                c1 = c ^ c0 or c0
                u, v, w, x = a0 | b0, a0 | b1, a1 | b0, a1 | b1
                triples.update((u | c0, v | c0, w | c0, x | c0,
                                u | c1, v | c1, w | c1, x | c1))
                continue
        first = g[0] & pool
        while first:
            x = first & -first
            first ^= x
            missed = [e for e in g if not e & x]
            if len(missed) > 2 * r - 2:
                continue
            second = missed[0] & pool
            while second:
                y = second & -second
                second ^= y
                common = pool
                rest = False
                for e in missed:
                    if not e & y:
                        common &= e
                        rest = True
                if not rest:
                    pairs.add(x | y)
                elif r == 3:
                    while common:
                        z = common & -common
                        common ^= z
                        triples.add(x | y | z)
    return pairs, triples


def _uncovering_counts(graphs, pool, r, reads=0):
    """Number of s-subsets of the bitmask ``pool`` that cover no graph, for
    every s = 0 .. r, as a list indexed by s, and ``reads`` plus the edges
    the tree read.

    Edges are read through ``pool``: an endpoint outside it is sure to stay.
    A sensor that covers a graph alone is in no such subset of any size, and
    a graph with more than 2r edges or r paths is covered by none, so one
    tree counts every size up to r.  Past _WORK_BUDGET edge reads, counted
    before each pass over the graphs, it raises InvalidParameterError.
    """
    counts = [0] * (r + 1)
    while True:
        reads += sum(map(len, graphs))
        if reads > _WORK_BUDGET:
            raise InvalidParameterError(
                "the exact count needs more than its work budget of %d "
                "edge reads" % _WORK_BUDGET)
        graphs, single = _coverable(graphs, pool, r)
        if single:
            pool &= ~single
            continue
        if graphs and r > 3:
            # The subsets that delete sensor x, one size up, then go on with
            # those that keep it.  x covers no graph alone, so deleting it
            # leaves every graph an edge.
            x = min(graphs, key=len)[0] & pool
            x &= -x
            pool &= ~x
            deleted = [[e for e in g if not e & x] for g in graphs]
            below, reads = _uncovering_counts(deleted, pool, r - 1, reads)
            for s, c in enumerate(below, 1):
                counts[s] += c
            continue
        n = pool.bit_count()
        leaf = [comb(n, s) for s in range(r + 1)]
        if graphs and r >= 2:
            # No one sensor covers a graph: a subset covers one when it holds
            # a covering pair, or is a covering triple that holds none.  At
            # r = 3 the 3-subsets of both kinds are counted as one set.
            pairs, triples = _small_covers(graphs, pool, r)
            leaf[2] -= len(pairs)
            if r == 3:
                sensors = [1 << i for i in range(pool.bit_length())
                           if pool >> i & 1]
                triples.update(p | z for p in pairs for z in sensors
                               if not p & z)
                leaf[3] -= len(triples)
        return [c + v for c, v in zip(counts, leaf)], reads


def _profile(positions, ks):
    """FragilityReports for each k of the range ``ks`` from one branch tree,
    for the sorted positions that _positions returns."""
    n = len(positions)
    graphs = _pair_graphs(positions)
    # n - k kept sensors span at most C(n - k, 2) positive lags, so every
    # k-subset is essential past the largest k where they can span them all,
    # and no tree runs when that settles every k.
    top = max((k for k in ks if comb(n - k, 2) >= len(graphs)), default=0)
    uncovering = (_uncovering_counts(graphs, (1 << n) - 1, top)[0] if top
                  else ())
    reports = []
    for k in ks:
        total = comb(n, k)
        count = total - uncovering[k] if k <= top else total
        reports.append(FragilityReport(k=k, essential_subset_count=count,
                                       total_subsets=total,
                                       fragility=Fraction(count, total)))
    return reports


def essential_sensors(s):
    """Partition sensors by whether their removal alters the lag set, each
    part in ascending position order."""
    positions = _positions(s)
    n = len(positions)
    if n < 2:
        raise InvalidParameterError(
            "essentialness needs at least two sensors")
    _, single = _coverable(_pair_graphs(positions), (1 << n) - 1, 1)
    essential = []
    inessential = []
    for i, x in enumerate(positions):
        (essential if single >> i & 1 else inessential).append(x)
    return EssentialnessReport(essential=tuple(essential),
                               inessential=tuple(inessential))


def k_fragility(s, k):
    """Exactly count size-k subsets whose removal changes the coarray."""
    positions = _positions(s)
    _check_count(k, "k", high=len(positions) - 1)
    return _profile(positions, range(k, k + 1))[0]


def fragility_profile(s, k_max):
    """FragilityReports for k = 1 .. k_max.

    One branch tree, for the largest k that needs one, counts them all.  A
    tree that reads more than _WORK_BUDGET edges raises InvalidParameterError.
    """
    positions = _positions(s)
    _check_count(k_max, "k_max", high=len(positions) - 1)
    return _profile(positions, range(1, k_max + 1))


def robustness_report(s, k_max):
    """JSON-ready combined essentialness and fragility report.  s may be
    any position sequence the other functions take; its label is None when
    it has none, as a list has none."""
    ess = essential_sensors(s)
    profile = fragility_profile(s, k_max)
    return {
        "label": getattr(s, "label", None),
        "essential": list(ess.essential),
        "inessential": list(ess.inessential),
        "fragility": [
            {"k": r.k, "count": r.essential_subset_count,
             "total": r.total_subsets, "value": r.rounded()}
            for r in profile
        ],
    }


def write_fragility_csv(path, entries):
    """CSV of (label, k, F_k) rows for fragility-versus-k plots.

    ``entries`` is an iterable of (label, fragility profile) pairs.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "k", "F_k"])
        for label, profile in entries:
            for report in profile:
                writer.writerow([label, report.k, "%.4f" % report.fragility])
