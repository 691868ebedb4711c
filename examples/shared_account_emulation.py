#!/usr/bin/env python3
"""Algorithm 2 in action: a restricted ERC20 token built from k-AT.

Demonstrates the paper's Theorem 4 construction:

1. build the emulated token ``T|_{Q_k}`` from a k-shared asset-transfer
   object plus allowance registers;
2. replay the paper's Example 1 through the emulation and compare against
   the sequential Definition 3 specification, operation by operation;
3. show the Q_k confinement: approving a spender beyond ``k`` is rejected;
4. exhibit the literal algorithm's quirks the reproduction uncovered
   (allowance leak on failed transfers; the over-strict approve guard).

Run:  python examples/shared_account_emulation.py
"""

from __future__ import annotations

from repro.objects.erc20 import ERC20TokenType, TokenState
from repro.objects.restricted import restrict_to_potential_qk
from repro.protocols.token_from_kat import EmulatedToken, run_sequential
from repro.spec.operation import Operation

NAMES = {0: "Alice", 1: "Bob", 2: "Charlie", 3: "Dora"}


def main() -> None:
    print("=" * 72)
    print("Algorithm 2: the token T|Q_k emulated from k-AT + registers")
    print("=" * 72)

    n, k = 4, 2
    initial = TokenState.deploy(n, 10)
    spec = restrict_to_potential_qk(ERC20TokenType(n), k)
    spec_state = initial
    emulated = EmulatedToken(initial, k=k, variant="corrected")

    script = [
        (0, "transfer", "transfer", (1, 3)),
        (1, "approve", "approve", (2, 5)),
        (2, "transferFrom", "transfer_from", (1, 2, 5)),
        (2, "transferFrom", "transfer_from", (1, 0, 1)),
        (1, "approve", "approve", (3, 2)),  # beyond k=2 -> rejected
        (0, "balanceOf", "balance_of", (1,)),
        (0, "allowance", "allowance", (1, 2)),
        (0, "totalSupply", "total_supply", ()),
    ]
    print(f"\nDifferential replay (n={n} accounts, k={k}):")
    print(f"{'caller':<8} {'operation':<28} {'spec':>6} {'emulated':>9}")
    for pid, spec_name, method, args in script:
        spec_state, expected = spec.apply(
            spec_state, pid, Operation(spec_name, args)
        )
        actual = run_sequential(emulated, pid, method, *args)
        rendered = f"{spec_name}{args}"
        print(
            f"{NAMES[pid]:<8} {rendered:<28} {str(expected):>6} {str(actual):>9}"
        )
        assert actual == expected, "the emulation must track the spec"

    print("\nNote the 5th row: Bob already has one approved spender, so the")
    print(f"emulation (confined to Q_{k}) rejects approving a second one —")
    print("the k-AT substrate simply cannot synchronize more processes.")

    print("\n--- the literal algorithm's quirks (reproduction note 2) ---")
    leaky_state = TokenState.create([0, 3, 0, 0], {(1, 2): 5})
    literal = EmulatedToken(leaky_state, k=2, variant="literal")
    response = run_sequential(literal, 2, "transfer_from", 1, 2, 5)
    leaked = run_sequential(literal, 2, "allowance", 1, 2)
    print(f"literal transferFrom with balance 3 < allowance 5 -> {response}")
    print(f"allowance afterwards: {leaked}  (leaked! the paper's line 10")
    print("decrements before the balance check and never restores)")

    corrected = EmulatedToken(leaky_state, k=2, variant="corrected")
    run_sequential(corrected, 2, "transfer_from", 1, 2, 5)
    restored = run_sequential(corrected, 2, "allowance", 1, 2)
    print(f"corrected variant restores the allowance: {restored}")


if __name__ == "__main__":
    main()
