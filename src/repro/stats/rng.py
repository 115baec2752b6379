"""Deterministic random-number management.

Every stochastic component of the reproduction (sampling, synthetic data
generation, bootstrap resampling, proxy noise) draws from a
:class:`RandomState` created here.  The paper runs each experimental
condition for 1,000 trials; to make those trials reproducible and
independent we derive child generators with ``numpy``'s ``SeedSequence``
spawning machinery rather than reusing a single global generator.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

__all__ = ["RandomState", "spawn_children", "spawn_shard_streams", "derive_seed"]

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator, None]


class RandomState:
    """A thin, explicit wrapper around :class:`numpy.random.Generator`.

    The wrapper exists for three reasons:

    * it gives the rest of the codebase a single type to accept, so the
      "is this an int seed, a Generator, or None?" normalization happens in
      exactly one place;
    * it supports :meth:`spawn`, producing statistically independent child
      states for per-trial / per-stratum randomness;
    * it records the seed sequence used so experiment reports can log it.
    """

    def __init__(self, seed: SeedLike = None):
        if isinstance(seed, RandomState):
            self._seed_seq = seed._seed_seq
            self._generator = seed._generator
            return
        if isinstance(seed, np.random.Generator):
            self._seed_seq = None
            self._generator = seed
            return
        if isinstance(seed, np.random.SeedSequence):
            self._seed_seq = seed
        else:
            self._seed_seq = np.random.SeedSequence(seed)
        self._generator = np.random.default_rng(self._seed_seq)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator."""
        return self._generator

    @property
    def seed_sequence(self) -> Optional[np.random.SeedSequence]:
        """The seed sequence, if the state was created from one (else None)."""
        return self._seed_seq

    def spawn(self, n: int) -> List["RandomState"]:
        """Create ``n`` independent child states.

        When the state was constructed from a raw Generator (no seed
        sequence available) we fall back to drawing child seeds from the
        generator itself, which still yields distinct, reproducible
        children given the parent's state.
        """
        if n < 0:
            raise ValueError(f"cannot spawn a negative number of children: {n}")
        if self._seed_seq is not None:
            return [RandomState(seq) for seq in self._seed_seq.spawn(n)]
        seeds = self._generator.integers(0, 2**63 - 1, size=n)
        return [RandomState(int(s)) for s in seeds]

    # -- Convenience passthroughs -------------------------------------------------
    def integers(self, low, high=None, size=None):
        return self._generator.integers(low, high=high, size=size)

    def random(self, size=None):
        return self._generator.random(size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._generator.normal(loc, scale, size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._generator.uniform(low, high, size)

    def beta(self, a, b, size=None):
        return self._generator.beta(a, b, size)

    def binomial(self, n, p, size=None):
        return self._generator.binomial(n, p, size)

    def multinomial(self, n, pvals, size=None):
        return self._generator.multinomial(n, pvals, size)

    def poisson(self, lam, size=None):
        return self._generator.poisson(lam, size)

    def exponential(self, scale=1.0, size=None):
        return self._generator.exponential(scale, size)

    def gamma(self, shape, scale=1.0, size=None):
        return self._generator.gamma(shape, scale, size)

    def choice(self, a, size=None, replace=True, p=None):
        return self._generator.choice(a, size=size, replace=replace, p=p)

    def permutation(self, x):
        return self._generator.permutation(x)

    def shuffle(self, x):
        return self._generator.shuffle(x)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._seed_seq is not None:
            return f"RandomState(entropy={self._seed_seq.entropy})"
        return "RandomState(<generator>)"


def spawn_children(seed: SeedLike, n: int) -> List[RandomState]:
    """Spawn ``n`` independent :class:`RandomState` objects from a seed."""
    return RandomState(seed).spawn(n)


def spawn_shard_streams(seed: SeedLike, num_shards: int) -> List[RandomState]:
    """Independent per-shard random streams for parallel execution.

    The determinism contract of :mod:`repro.core.parallel` requires that
    randomness be keyed by *shard position*, never by worker identity or
    completion order: shard ``i`` always receives the ``i``-th child of the
    base seed (via ``numpy.random.SeedSequence.spawn``), so results are
    bit-identical whether the shards run on 1 worker or 16, in any order.

    Use this instead of handing one shared generator to concurrent tasks —
    a shared generator's consumption order depends on scheduling, which
    silently breaks reproducibility.  Mechanically this is
    :func:`spawn_children` under a name that states the parallel-execution
    contract; keep calling it from sharded code paths so the intent reads
    at the call site.
    """
    if num_shards < 0:
        raise ValueError(f"num_shards must be non-negative, got {num_shards}")
    return spawn_children(seed, num_shards)


def derive_seed(seed: SeedLike, *labels: Sequence) -> int:
    """Derive a deterministic integer seed from a base seed and string labels.

    Used by the experiment harness so that (dataset, method, budget, trial)
    tuples map to stable seeds regardless of execution order.
    """
    base = np.random.SeedSequence(seed if isinstance(seed, int) else None)
    entropy = base.entropy if base.entropy is not None else 0
    acc = int(entropy) & 0xFFFFFFFF
    for label in labels:
        for char in str(label):
            acc = (acc * 1000003 + ord(char)) & 0xFFFFFFFF
    return acc
