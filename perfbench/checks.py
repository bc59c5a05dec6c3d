"""Correctness checks on simulation results.

Each check returns a list of error strings (empty when it passes), so a
run can report every broken invariant at once.  The checks read only
what ``run_experiment`` returns plus whether the event loop ended with
no live event (``Stamps.quiescent``); they never pin a digest value, so
a protocol change that alters behaviour does not fail them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import ExperimentResult


@dataclass(frozen=True)
class Outcome:
    """What the conservation check needs from one simulation."""

    label: str
    mode: str
    warmup: bool
    submitted: int
    completed: int
    aborted: int
    give_ups: int
    #: packets the fabric destroyed (injected loss, dead links/switches)
    drops: int
    faults_applied: int
    quiescent: bool
    records: int
    min_slowdown: float

    @property
    def undelivered(self) -> int:
        return self.submitted - self.completed

    @property
    def clean(self) -> bool:
        return self.drops == 0 and self.faults_applied == 0


def outcome_of(label: str, result: ExperimentResult,
               quiescent: bool) -> Outcome:
    slowdowns = result.tracker.slowdowns
    return Outcome(
        label=label, mode=result.cfg.mode,
        warmup=result.cfg.warmup_ms > 0,
        submitted=result.submitted, completed=result.completed,
        aborted=result.aborted, give_ups=result.control.give_ups,
        drops=result.fabric.total_drops,
        faults_applied=result.fabric.faults_applied,
        quiescent=quiescent, records=result.tracker.count,
        min_slowdown=min(slowdowns) if slowdowns else float("nan"))


def conservation_errors(o: Outcome) -> list[str]:
    """submitted = completed + undelivered, with every undelivered
    message accounted for.

    On a clean fabric a run that ended with no live event must have
    completed everything it submitted, with no give-up or abort.  On a
    lossy fabric each undelivered message needs at least one destroyed
    packet, and every give-up or abort is an undelivered message.  Every
    completion after warmup is recorded once, and no message may beat
    the idle-network bound (slowdown < 1).
    """
    errors = []
    where = f"{o.label}: "
    if o.submitted < 1:
        errors.append(where + "nothing was submitted")
    if not 0 <= o.completed <= o.submitted:
        errors.append(where + f"completed {o.completed} outside "
                      f"[0, submitted {o.submitted}]")
    if o.records < 1 or o.records > o.completed:
        errors.append(where + f"{o.records} slowdown records for "
                      f"{o.completed} completions")
    if not o.warmup and o.records != o.completed:
        errors.append(where + f"{o.records} slowdown records but "
                      f"{o.completed} completions with no warmup")
    if not o.min_slowdown >= 1.0 - 1e-9:
        errors.append(where + f"minimum slowdown {o.min_slowdown} beats "
                      "the idle-network bound")
    if o.clean:
        if o.give_ups or o.aborted:
            errors.append(where + f"{o.give_ups} give-ups and {o.aborted} "
                          "aborts on a clean fabric")
        if o.quiescent and o.undelivered:
            errors.append(where + f"{o.undelivered} messages vanished on a "
                          "clean fabric that ran dry")
    else:
        if o.undelivered > o.drops:
            errors.append(where + f"{o.undelivered} undelivered messages but "
                          f"only {o.drops} destroyed packets")
        lost = o.aborted if o.mode == "rpc_echo" else o.give_ups
        if lost > o.undelivered:
            errors.append(where + f"{lost} give-ups/aborts exceed "
                          f"{o.undelivered} undelivered messages")
    return errors


def same_digest_errors(label: str, expected: str, actual: str) -> list[str]:
    """Determinism: two runs of one seed must agree byte for byte."""
    if expected == actual:
        return []
    return [f"{label}: slowdown digest {actual[:16]} != {expected[:16]}"]
