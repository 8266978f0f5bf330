#!/usr/bin/env python3
"""Global transaction ordering — "come up with a unique ordering of
messages, transactions, or jobs" (Section I).

Every process submits transactions concurrently; the anchor's virtual
counter (Section V) gives each a unique rank in the global order ≺.
Replaying the transactions in that order at every replica produces the
same state everywhere — the essence of state-machine replication.

Run:  python examples/transaction_ordering.py
"""

import random

from repro import SkueueCluster
from repro.core.requests import INSERT
from repro.verify import order_key


def main() -> None:
    n = 12
    cluster = SkueueCluster(n_processes=n, seed=33)
    rng = random.Random(33)

    # every process submits bank-style transactions concurrently
    for step in range(40):
        pid = rng.randrange(n)
        amount = rng.randrange(1, 100)
        kind = rng.choice(["deposit", "withdraw"])
        cluster.submit(pid, INSERT, (kind, amount))
        cluster.step(rng.randrange(3))
    cluster.run_until_done(60_000)

    # the witness order assigns every transaction a unique global rank
    keys = order_key(cluster.records)
    ordered = sorted(cluster.records, key=lambda r: keys[r.req_id])

    # replay at two independent "replicas": identical final state
    def replay():
        balance = 0
        for rec in ordered:
            kind, amount = rec.item
            balance += amount if kind == "deposit" else -amount
        return balance

    balance_a, balance_b = replay(), replay()
    assert balance_a == balance_b
    print(f"{len(ordered)} transactions from {n} processes")
    print("first five in the global order ≺:")
    for rec in ordered[:5]:
        print(f"  rank {keys[rec.req_id][0]:4d}: process {rec.pid} -> {rec.item}")
    print(f"replicas agree on final balance: {balance_a}")

    # local consistency: each process's transactions appear in ≺ in the
    # order it issued them (Definition 1, property 4)
    for pid in range(n):
        mine = [r for r in ordered if r.pid == pid]
        assert [r.idx for r in mine] == sorted(r.idx for r in mine)
    print("per-process program order respected in ≺ ✓")


if __name__ == "__main__":
    main()
