"""Binary-input AWGN channel in the log-likelihood-ratio domain."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

_ERFC = np.frompyfunc(math.erfc, 1, 1)


def qfunc(x):
    """Gaussian tail probability Q(x) = P{N(0,1) > x} = erfc(x/sqrt(2))/2.

    Accepts scalars or arrays and returns float64 of the same shape (a
    numpy scalar for a scalar).  It applies libm's erfc elementwise,
    which keeps its relative accuracy far into the tail: values below
    ~1e-308 come out as subnormals rather than 0.
    """
    z = np.asarray(x, dtype=float) / math.sqrt(2.0)
    return 0.5 * np.asarray(_ERFC(z), dtype=float)


def ndtr(x):
    """Standard normal CDF P{N(0,1) <= x} = Q(-x)."""
    return qfunc(-np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ChannelConfig:
    """One SNR point of a rate-R BPSK/AWGN link.

    The all-zero codeword is transmitted as all +1 symbols, so the LLR of
    every bit is Gaussian with mean `mean_llr` and variance 2*`mean_llr`.
    """

    ebn0_db: float
    rate: float

    def __post_init__(self):
        if not math.isfinite(self.ebn0_db):
            raise ValueError("ebn0_db must be finite")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate {self.rate:g} outside (0, 1]")

    @property
    def ebn0(self) -> float:
        return 10.0 ** (self.ebn0_db / 10.0)

    @property
    def sigma2(self) -> float:
        # unit-energy BPSK: 1/sigma^2 = 2 R Eb/N0
        return 1.0 / (2.0 * self.rate * self.ebn0)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def llr_scale(self) -> float:
        return 2.0 / self.sigma2

    @property
    def mean_llr(self) -> float:
        return 4.0 * self.rate * self.ebn0


def frame_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for a (seed, stream) pair.

    Streams are independent and reproducible regardless of how many
    worker processes consume them.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, stream))))


def sample_llrs(cfg: ChannelConfig, rng: np.random.Generator, shape) -> np.ndarray:
    """Channel LLRs of the all-zero word: (2/sigma^2) * (1 + n) with n
    i.i.d. N(0, sigma^2).  One (F, n) draw equals F row draws in order."""
    return cfg.llr_scale * (1.0 + rng.normal(0.0, cfg.sigma, size=shape))


def ordered_map(fn, tasks, workers: int = 1):
    """Yield fn(task) for each task of a sequence, in task order.

    With one worker or at most one task, fn runs in this process, and the
    process-pool machinery is not even imported.  Otherwise a process
    pool keeps at most 4 * workers tasks in flight;
    the tasks still pending are cancelled when the caller stops
    iterating (closes the generator).  With `frame_rng` streams keyed by
    the task, results do not depend on the worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers == 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        window = 4 * workers
        pending = deque(pool.submit(fn, t) for t in tasks[:window])
        try:
            for t in tasks[window:]:
                out = pending.popleft().result()
                pending.append(pool.submit(fn, t))
                yield out
            while pending:
                yield pending.popleft().result()
        finally:
            for fut in pending:
                fut.cancel()
