#!/usr/bin/env python
"""Chaos-testing ARiA: composed network faults vs the reliability layer.

A grid is run through a hostile network — i.i.d. loss, Gilbert–Elliott
loss bursts, message duplication, delay spikes and a healing partition —
twice: once with the bare paper protocol, once with the at-least-once
reliability layer plus the §III-D fail-safe extension.  Post-run protocol
invariants (job conservation, no double execution, tracking quiescence)
show the difference.  Run with ``python examples/fault_injection.py``.
"""

from repro.experiments import (
    FaultPlan,
    RunOptions,
    ScenarioScale,
    run,
    validate_run,
)


def main() -> None:
    scale = ScenarioScale.tiny()
    plan = FaultPlan.chaos(scale.duration)
    print(
        f"{scale.nodes}-node grid, {scale.jobs} jobs; "
        f"{plan.loss:.0%} base loss, {plan.duplicate:.0%} duplication, "
        f"loss bursts, delay spikes, and a "
        f"{plan.partitions[0][1] - plan.partitions[0][0]:.0f}s partition\n"
    )
    print(f"{'mode':<28} {'completed':>9} {'violations':>10}")
    results = {}
    for reliable in (False, True):
        result = run(
            plan,
            scale,
            seed=0,
            options=RunOptions(reliability=reliable, failsafe=reliable),
        )
        results[reliable] = result
        label = (
            "faults + reliability" if reliable else "faults (paper protocol)"
        )
        print(
            f"{label:<28} {result.metrics.completed_jobs:>9} "
            f"{len(validate_run(result)):>10}"
        )

    unreliable = results[False]
    if validate_run(unreliable):
        print("\nwhat broke without the reliability layer:")
        for violation in validate_run(unreliable):
            print(f"  - {violation}")

    reliable = results[True]
    net = reliable.network
    print(
        f"\nreliable run repair work: {net['reliable_retransmissions']} "
        f"retransmissions, {net['reliable_duplicates_suppressed']} "
        f"duplicates suppressed, {net['lost']} datagrams lost in transit"
    )
    print(
        "\nA dropped ASSIGN silently strands a job; a duplicated one can"
        "\nexecute it twice. Per-message acks, bounded retransmission and"
        "\nreceiver-side dedup make the control plane idempotent, and the"
        "\ninvariant oracle proves the workload survives the chaos."
    )


if __name__ == "__main__":
    main()
