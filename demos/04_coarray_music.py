"""Coarray MUSIC on the nested fractal array: 24 sources, 12 sensors.

Runs the snapshot model at SNR 0 dB with 500 snapshots, augments the
coarray autocorrelation into a 25x25 Hermitian Toeplitz matrix, and scores
RMSE over Monte-Carlo trials, on each grid peak refined off the grid from
its neighbours.  Two last noiseless passes run coarray MUSIC on the exact
model covariance instead of sampled snapshots: with sources on the grid,
whose grid peaks are exact, and with sources between grid points, whose
refined estimates are.  Exits 1 if a check fails.
"""

import sys

import numpy as np

from fractalarrays import (SourceScene, difference_coarray, estimate_doas,
                           expected_covariance, make_sfa, run_trial_batch,
                           summarize)
from fractalarrays.doasim import DEFAULT_GRID_SIZE

nfa = make_sfa("nested", {"n": 6}, 1)
summary = summarize(difference_coarray(nfa))
print("NFA:", list(nfa.positions))
print("central segment %s -> up to %d sources from %d sensors"
      % (summary.ula_segment, summary.max_sources, len(nfa)))

# 24 well-separated sources: a jittered uniform spread over [-0.48, 0.48]
rng = np.random.default_rng(1)
doas = np.sort(np.linspace(-0.48, 0.48, 24)
               + rng.uniform(-0.008, 0.008, 24))
scene = SourceScene(tuple(doas), (1.0,) * 24, 1.0)   # SNR 0 dB

result = run_trial_batch(nfa, scene, t=500, trials=20, seed=123)
print()
print("trials: %d   resolved: %d   aggregate RMSE: %.4g"
      % (result.trials, result.resolved_trials, result.rmse))
print("per-trial RMSE range: %.4g .. %.4g"
      % (min(result.per_trial_rmse), max(result.per_trial_rmse)))
checks = {"criterion 9 (>= 90% resolved, RMSE < 5e-3)":
          result.resolved_fraction >= 0.9 and result.rmse < 5e-3}

grid = np.linspace(-0.5, 0.5, DEFAULT_GRID_SIZE, endpoint=False)
step = 1.0 / DEFAULT_GRID_SIZE
print()
print("A noiseless pass on the exact model covariance with on-grid sources")
print("recovers every direction exactly at the grid peaks:")
truth = tuple(grid[[250, 750, 1250, 1750]])
scene0 = SourceScene(truth, (1.0,) * 4, 0.0)
exact = estimate_doas(nfa, expected_covariance(nfa, scene0), 4)
for t, e in zip(truth, exact.estimates):
    print("  truth %+.8f   estimate %+.8f" % (t, e))
checks["on-grid peaks exact"] = exact.estimates == truth

print()
print("Sources 0.37 grid steps off the grid: the grid peaks miss by that")
print("much, the peaks refined from their neighbours do not:")
truth = tuple(grid[[250, 750, 1250, 1750]] + 0.37 * step)
scene1 = SourceScene(truth, (1.0,) * 4, 0.0)
off = estimate_doas(nfa, expected_covariance(nfa, scene1), 4)
for t, e, f in zip(truth, off.estimates, off.refined):
    print("  truth %+.8f   grid peak %+.8f   refined %+.8f" % (t, e, f))
worst = float(np.max(np.abs(np.subtract(off.refined, truth))))
print("largest refined error: %.2g grid steps" % (worst / step))
checks["off-grid refined within 1e-6"] = worst < 1e-6

print()
for name, ok in checks.items():
    print("%-45s %s" % (name, "ok" if ok else "FAILED"))
sys.exit(0 if all(checks.values()) else 1)
