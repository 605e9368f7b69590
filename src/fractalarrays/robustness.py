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
lag with more than 2k pairs survives every k-failure.  So

    count = C(N, k) - #{k-subsets that cover no pair graph},

and the second term is counted without visiting the subsets, by branching
on one sensor x of an edge of the smallest graph left: first the subsets
that delete x (its edges leave every graph, and a graph left without edges
is covered, which ends the branch), then those that keep it (x leaves
every edge, and an edge left with no endpoint satisfies its graph for
good).  Closed forms end the branching:

* a sensor on every edge of a graph covers it alone, so it must stay;
* with no coverable graph left, any C(n, r) of the n undecided sensors do;
* with r = 1 or 2 sensors still to delete, the r-subsets that cover some
  graph are its covers of that size: none for one sensor (those were kept
  above), and for two, C(n, 2) minus the distinct covering pairs;
* k deletions leave N - k sensors, whose C(N - k, 2) pairs cannot span
  more lags than that, so every k-subset is essential when the full array
  has more positive lags.

Sensor subsets are Python-int bitmasks over sensor indices and counts are
Python ints, so nothing is rounded, and nothing is cached across calls.
The graphs are grouped from the sensor pairs of ``coarray``'s lag kernel,
the one every coarray view is read from.

Cost: N(N-1)/2 pairs to build the graphs, then a branch tree at most k - 2
deep in deletions, each node passing once over the graphs that are still
coverable.  For the 48-sensor NFA at k = 3 that is a few milliseconds,
where rebuilding the lag set for each of the C(N, k) subsets took seconds.
Lists of covers would be quicker still at small k, but they grow like 2^k
per lag: the 29-sensor ULA has 2.6 million covers of at most 21 sensors.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .coarray import _lag_pairs
from .geometry import InvalidParameterError

# C(|S|, k) above this is refused.  The count does not visit the subsets,
# but its branch tree can still grow with C(|S|, k).
ENUMERATION_LIMIT = 10_000_000


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


def _pair_graphs(positions):
    """The pair graph of each lag l > 0, in the order its first pair is met
    by ``_lag_pairs``: its edges as bitmasks 1 << i | 1 << j over sensor
    indices."""
    graphs = {}
    for lag, i, j in _lag_pairs(positions):
        graphs.setdefault(lag, []).append(1 << i | 1 << j)
    return graphs.values()


def _coverable(graphs, pool, r):
    """The graphs that r of the sensors in ``pool`` can cover, and the
    sensors that cover one of them alone."""
    live = []
    single = 0
    for g in graphs:
        if len(g) <= 2 * r:
            common = pool
            for e in g:
                common &= e
            single |= common
            live.append(g)
    return live, single


def _keep(graphs, kept):
    """The graphs once the sensors ``kept`` are sure to stay: they leave every
    edge, and a graph with an edge left empty can no longer be covered."""
    out = []
    for g in graphs:
        g = tuple(e & ~kept for e in g)
        if 0 not in g:
            out.append(g)
    return out


def _pair_covers(g):
    """The two-sensor covers of a graph that no one sensor covers: a sensor
    x of the first edge, with a sensor on every edge that x misses."""
    covers = []
    first = g[0]
    while first:
        x = first & -first
        first ^= x
        common = -1
        for e in g:
            if not e & x:
                common &= e
        while common > 0:
            y = common & -common
            common ^= y
            covers.append(x | y)
    return covers


def _count_uncovering(graphs, pool, r):
    """Number of r-subsets of the bitmask ``pool`` that cover no graph.

    An edge holds only its endpoints in ``pool``: the others are sure to
    stay.
    """
    count = 0
    while True:
        graphs, single = _coverable(graphs, pool, r)
        if single:
            pool &= ~single
            graphs = _keep(graphs, single)
            continue
        if not graphs:
            return count + comb(pool.bit_count(), r)
        if r <= 2:
            pairs = set()
            if r == 2:
                for g in graphs:
                    pairs.update(_pair_covers(g))
            return count + comb(pool.bit_count(), r) - len(pairs)
        # The subsets that delete sensor x, then go on with those that keep it.
        g = min(graphs, key=len)
        x = g[0] & -g[0]
        pool &= ~x
        deleted = [tuple(e for e in g if not e & x) for g in graphs]
        if all(deleted):
            count += _count_uncovering(deleted, pool, r - 1)
        graphs = _keep(graphs, x)


def _check_limit(n, k):
    total = comb(n, k)
    if total > ENUMERATION_LIMIT:
        raise InvalidParameterError(
            "C(%d, %d) = %d subsets exceeds the enumeration limit of %d"
            % (n, k, total, ENUMERATION_LIMIT))


def _report(graphs, n, k):
    """FragilityReport for k from the pair graphs of an n-sensor array."""
    total = comb(n, k)
    count = total
    # n - k kept sensors span at most C(n - k, 2) positive lags.
    if comb(n - k, 2) >= len(graphs):
        count -= _count_uncovering(graphs, (1 << n) - 1, k)
    return FragilityReport(k=k, essential_subset_count=count,
                           total_subsets=total,
                           fragility=Fraction(count, total))


def essential_sensors(s):
    """Partition sensors by whether their removal alters the lag set."""
    if len(s) < 2:
        raise InvalidParameterError(
            "essentialness needs at least two sensors")
    _, single = _coverable(_pair_graphs(s.positions),
                           (1 << len(s)) - 1, 1)
    essential = []
    inessential = []
    for i, x in enumerate(s.positions):
        (essential if single >> i & 1 else inessential).append(x)
    return EssentialnessReport(essential=tuple(essential),
                               inessential=tuple(inessential))


def k_fragility(s, k):
    """Exactly count size-k subsets whose removal changes the coarray."""
    if not 1 <= k < len(s):
        raise InvalidParameterError(
            "need 1 <= k < sensor count, got k=%d for %d sensors"
            % (k, len(s)))
    _check_limit(len(s), k)
    return _report(_pair_graphs(s.positions), len(s), k)


def fragility_profile(s, k_max):
    """FragilityReports for k = 1 .. k_max.

    Every k is checked against ENUMERATION_LIMIT before any is computed,
    and the pair graphs are built once.
    """
    if not 1 <= k_max < len(s):
        raise InvalidParameterError(
            "need 1 <= k_max < sensor count, got k_max=%d for %d sensors"
            % (k_max, len(s)))
    for k in range(1, k_max + 1):
        _check_limit(len(s), k)
    graphs = _pair_graphs(s.positions)
    return [_report(graphs, len(s), k) for k in range(1, k_max + 1)]


def robustness_report(s, k_max):
    """JSON-ready combined essentialness and fragility report."""
    ess = essential_sensors(s)
    profile = fragility_profile(s, k_max)
    return {
        "label": s.label,
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
