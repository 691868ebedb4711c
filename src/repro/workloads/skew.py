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


def skewed_index(
    rng: random.Random,
    count: int,
    cum_weights: list[float] | None,
    hotspot_fraction: float,
    hotspot_count: int,
) -> int:
    """One index draw under the shared skew model: a hot-spot overlay over
    either a uniform or Zipf base distribution.

    ``cum_weights`` is the running sum of the Zipf weights
    (``list(accumulate(zipf_weights(count, s)))``), accumulated once by the
    caller: ``random.choices`` would otherwise re-accumulate all ``count``
    weights on every draw.  It bisects the same floats either way, so the
    draws — and the RNG state after them — are those of ``weights=``.
    """
    if hotspot_fraction > 0 and rng.random() < hotspot_fraction:
        return rng.randrange(hotspot_count)
    if cum_weights is None:
        return rng.randrange(count)
    return rng.choices(range(count), cum_weights=cum_weights)[0]
