"""Coarray MUSIC on the nested fractal array: 24 sources, 12 sensors.

Runs the snapshot model at SNR 0 dB with 500 snapshots, augments the
coarray autocorrelation into a 25x25 Hermitian Toeplitz matrix, and scores
RMSE over Monte-Carlo trials.  A last noiseless pass runs coarray MUSIC on
the exact model covariance instead of sampled snapshots.
"""

import numpy as np

from fractalarrays import (SourceScene, difference_coarray, estimate_doas,
                           expected_covariance, make_sfa, run_trial_batch,
                           summarize)

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
print()
print("A noiseless pass on the exact model covariance with on-grid sources")
print("recovers every direction exactly:")
grid = np.linspace(-0.5, 0.5, 8192, endpoint=False)
truth = tuple(grid[[1000, 3000, 5000, 7000]])
scene0 = SourceScene(truth, (1.0,) * 4, 0.0)
exact = estimate_doas(nfa, expected_covariance(nfa, scene0), 4)
for t, e in zip(truth, exact.estimates):
    print("  truth %+.8f   estimate %+.8f" % (t, e))
print("all exact:", exact.estimates == truth)
