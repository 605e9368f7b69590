"""Sparse fractal sensor arrays, their coarrays, robustness, and DOA sims."""

from .geometry import (InvalidParameterError, SensorArray, cross_sum,
                       gen_ana1, gen_ana2, gen_cantor, gen_coprime,
                       gen_nested, gen_super_nested, gen_ula, make_sfa)
from .coarray import (Coarray, CoarraySummary, coarrays_equal,
                      difference_coarray, lag_set, summarize)
from .robustness import (EssentialnessReport, FragilityReport,
                         essential_sensors, fragility_profile, k_fragility,
                         robustness_report)
from .doasim import (CapacityError, CoarrayHoleError, MusicResult,
                     SourceScene, TrialBatchResult,
                     coarray_autocorrelation, estimate_doas,
                     expected_covariance, music_spectrum, pick_peaks,
                     random_scene, run_trial_batch, sample_covariance,
                     simulate, steering_vector, toeplitz_augment)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
