"""Shared account-popularity skew model (Zipf base + hot-spot overlay).

Every workload generator in the repository — ERC20/ERC721/asset-transfer
traffic in :mod:`repro.workloads.generators` and the cluster-geometry-aware
builders in :mod:`repro.cluster.workloads` — draws indices through the same
two knobs, so contention sweeps are comparable across contract types and
deployment shapes:

* ``zipf_s`` — a Zipf base distribution (``1/rank^s``), the heavy-tailed
  account popularity measured on real ERC20 traffic (Victor & Lüders [27],
  cited by the paper);
* ``hotspot_fraction`` / ``hotspot_count`` — an overlay routing that
  fraction of all draws uniformly into the first ``hotspot_count`` indices,
  the exchange-wallet pattern.

All draws are made through a caller-supplied seeded ``random.Random``, so
every workload stays deterministic per seed.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import Callable

from repro.errors import InvalidArgumentError


def validate_skew(
    hotspot_fraction: float, hotspot_count: int, count: int
) -> None:
    """Shared validation of the hot-spot skew knobs."""
    if not 0.0 <= hotspot_fraction <= 1.0:
        raise InvalidArgumentError("hotspot_fraction must be in [0, 1]")
    if not 1 <= hotspot_count <= count:
        raise InvalidArgumentError(
            f"hot-spot size must be in [1, {count}], got {hotspot_count}"
        )


def zipf_weights(count: int, s: float) -> list[float]:
    """Normalized Zipf rank weights (``1/rank^s``) over ``count`` items."""
    weights = [1.0 / ((rank + 1) ** s) for rank in range(count)]
    total = sum(weights)
    return [weight / total for weight in weights]


def skew_drawer(
    rng: random.Random,
    count: int,
    zipf_s: float = 0.0,
    hotspot_fraction: float = 0.0,
    hotspot_count: int = 1,
) -> Callable[[], int]:
    """The shared skew model over ``range(count)`` as one draw: a hot-spot
    overlay over either a uniform or a Zipf base distribution.

    Built once per generator: the knobs are validated, the Zipf weights
    accumulated and ``rng``'s methods bound here, so a draw is one call.
    It makes the calls and the arithmetic of ``randrange`` and of
    ``Random.choices(range(count), cum_weights=...)[0]`` (a ``bisect`` of
    ``random() * total`` below the last index), so the indices — and
    ``rng``'s state after them — are those draws'.
    """
    validate_skew(hotspot_fraction, hotspot_count, count)
    random, randrange = rng.random, rng.randrange
    cum_weights, total, last = None, 0.0, count - 1
    if zipf_s > 0:
        cum_weights = list(accumulate(zipf_weights(count, zipf_s)))
        total = cum_weights[-1] + 0.0

    def draw() -> int:
        if hotspot_fraction > 0 and random() < hotspot_fraction:
            return randrange(hotspot_count)
        if cum_weights is None:
            return randrange(count)
        return bisect(cum_weights, random() * total, 0, last)

    return draw
