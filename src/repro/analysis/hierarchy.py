"""The consensus hierarchy (paper §3.1, Definition 2 and Theorem 1).

``CN(O)`` is the largest ``n`` such that consensus among ``n`` processes is
wait-free implementable from objects of type ``O`` plus atomic registers
(Definition 2).  Theorem 1 (Herlihy): an object with a strictly larger
consensus number cannot be wait-free implemented from a weaker one.

This module is a *bookkeeping registry*: for the object types built in this
library it records the known consensus numbers with pointers to the
witnesses implemented here (lower bounds = protocols, upper bounds =
theorems/simulations), and offers the comparison helpers used by experiments
and documentation:

======================  ================  =====================================
object                  consensus number  witness in this library
======================  ================  =====================================
atomic register         1                 FLP demo (`protocols.register_consensus`)
asset transfer (1-AT)   1                 [16]; `hierarchy` records the citation
k-shared AT             k                 `protocols.kat_consensus` (lower);
                                          [16] (upper)
ERC20 token at q ∈ S_k  k                 Algorithm 1 (lower, Thm 2);
                                          Thm 3 (upper) — *state-dependent!*
ERC20 token, restricted k                 Algorithm 2 / Thm 4 (upper via k-AT)
  to Q_k
consensus object        ∞                 universal (Herlihy)
======================  ================  =====================================
"""

from __future__ import annotations

import math

from repro._records import record
from repro.analysis.partition import classify
from repro.objects.erc20 import TokenState


@record(frozen=True, slots=True)
class ConsensusNumberEntry:
    """Known consensus number of an object family."""

    object_family: str
    consensus_number: float  # math.inf for unbounded
    lower_bound_witness: str
    upper_bound_witness: str


#: Static entries for the object families the paper discusses.
KNOWN_HIERARCHY: tuple[ConsensusNumberEntry, ...] = (
    ConsensusNumberEntry(
        "atomic register",
        1,
        "trivial (solo run)",
        "FLP / Herlihy; demo: repro.protocols.register_consensus",
    ),
    ConsensusNumberEntry(
        "asset transfer (single-owner)",
        1,
        "trivial (solo run)",
        "Guerraoui et al. [16], Theorem 2 there",
    ),
    ConsensusNumberEntry(
        "k-shared asset transfer",
        float("nan"),  # parametric: CN(k-AT) = k [16]
        "repro.protocols.kat_consensus (race on shared account)",
        "Guerraoui et al. [16]",
    ),
    ConsensusNumberEntry(
        "consensus object",
        math.inf,
        "direct",
        "universal construction (Herlihy)",
    ),
)


def token_consensus_number(state: TokenState) -> int:
    """The *dynamic* consensus number of the ERC20 token object at ``q``.

    By Eq. 17, ``CN(T_{S_k}) = k``; by Theorem 3, ``CN(T_{Q_k}) ≤ k``.  For a
    concrete state the exact value this library certifies is:

    * ``k(q)`` when ``q ∈ S_{k(q)}`` (strengthened predicate — both bounds
      are then witnessed by running code), else
    * the largest ``k' ≤ k(q)`` with ``q ∈ S_{k'}``, as a certified lower
      bound, with ``k(q)`` the Theorem 3 upper bound.

    Returns the certified lower bound (which equals the exact value whenever
    a synchronization witness exists; in particular at the deployed initial
    state it returns 1, matching the paper's conclusion that a fresh ERC20
    contract needs no synchronization at all).
    """
    classification = classify(state)
    return max(1, classification.sync_level_strict)


def token_consensus_number_bounds(state: TokenState) -> tuple[int, int]:
    """``(lower, upper)`` bounds certified for ``CN(T_q)``:
    lower from Theorem 2 (largest strict ``S_k`` membership, at least 1),
    upper from Theorem 3 (``k(q)``)."""
    classification = classify(state)
    return max(1, classification.sync_level_strict), classification.level
