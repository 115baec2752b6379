"""Statistics substrate for the ABae reproduction.

This package provides the low-level statistical machinery that the core
algorithm and the experiment harness are built on:

* :mod:`repro.stats.rng` — deterministic random-number management so that
  every experiment in the paper reproduction can be replayed bit-for-bit.
* :mod:`repro.stats.sampling` — sampling without replacement within a
  stratum and budget splitting/rounding, the sampling primitives
  Algorithm 1 needs.
* :mod:`repro.stats.descriptive` — numerically careful means / variances of
  possibly-empty samples (the empty case matters: a stratum may yield zero
  positive records).
* :mod:`repro.stats.metrics` — the evaluation metrics reported in the paper
  (RMSE, normalized Q-error, relative error, CI width, CI coverage).
* :mod:`repro.stats.concentration` — Bernoulli/Binomial tail bounds used in
  the paper's analysis (Section 4.4), exposed so tests can check that the
  estimators concentrate at the advertised rates.
"""

from repro.stats.rng import RandomState, spawn_children
from repro.stats.sampling import sample_without_replacement, split_budget
from repro.stats.descriptive import (
    safe_mean,
    safe_std,
    safe_var,
    weighted_mean,
)
from repro.stats.metrics import (
    rmse,
    mean_absolute_error,
    relative_error,
    q_error,
    normalized_q_error,
    ci_width,
    ci_covers,
    coverage_rate,
)
from repro.stats.concentration import (
    bernoulli_upper_tail,
    bernoulli_lower_tail,
    binomial_tail_bound,
    hoeffding_bound,
    sub_gaussian_mean_bound,
)

__all__ = [
    "RandomState",
    "spawn_children",
    "sample_without_replacement",
    "split_budget",
    "safe_mean",
    "safe_std",
    "safe_var",
    "weighted_mean",
    "rmse",
    "mean_absolute_error",
    "relative_error",
    "q_error",
    "normalized_q_error",
    "ci_width",
    "ci_covers",
    "coverage_rate",
    "bernoulli_upper_tail",
    "bernoulli_lower_tail",
    "binomial_tail_bound",
    "hoeffding_bound",
    "sub_gaussian_mean_bound",
]
