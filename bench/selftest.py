"""Self-test of the benchmark's output checks.

Run from the root of a checkout:

    python3 bench/selftest.py

For each workload it runs the operation set once in process and requires
every real report to pass its check.  Then it hands the same accounting
deliberately wrong reports, made by editing real ones, and requires each
to be counted as failed.  Exits 1 if any real report fails or any wrong
report passes.
"""

from __future__ import annotations

import json
import sys

import checks
import workloads
from run import Accounting, InProcess


def _set(path, value):
    """Edit that replaces the entry at ``path`` (keys and indices) by ``value``."""
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value
        return doc
    return edit


def _repeat_generator(doc):
    doc["generators"][2] = doc["generators"][0]
    return doc


def _move_support_point(doc):
    """Moves one unpinned point of a canonical triplet in both of its sets."""
    sets = doc["invariant"]["triplet"]
    old = next(p for s in sets for p in s if tuple(p) not in checks.PINNED)
    doc["invariant"]["triplet"] = [[[1000, 3] if p == old else p for p in s] for s in sets]
    return doc


def _identity_swap(doc):
    doc["swap"] = checks.identity(len(doc["swap"]))
    return doc


def _reflect_invariant(doc):
    """t -> 1 - t keeps 0, 1, oo and every j-invariant, but not the form."""
    pts = [checks.point(p) for p in doc["invariant"]["delta"]]
    image = sorted((b - a, b) if b else (1, 0) for a, b in pts)
    doc["invariant"]["delta"] = [list(checks.point(p)) for p in image]
    return doc


def _shift_delta(doc):
    """t -> t + 1: still a Moebius image of the input, but 0 is not pinned."""
    doc["delta"] = [[a + b, b] for a, b in doc["delta"]]
    return doc


#: workload -> (operation, what is wrong, edit of the parsed report)
WRONG = {
    "klein-four-sweep": [
        ("classify z22 (2, 3, 4)", "a verdict with the wrong family",
         _set(["family"], 10)),
        ("classify z22 (2, 3, 4)", "a canonical triplet that is not a Moebius image",
         _move_support_point),
        ("classify z22 (2, 2, 2)", "an uncertified (2, 2, 2) called maximal",
         lambda doc: {"outcome": "maximal", "family": 11, "invariant": None}),
        ("classify z22 (1, 1, 1)", "a chain that ends in family 7",
         _set(["chain", -1, "detail"], "family 7")),
        ("golden family-11", "a golden verdict with another invariant",
         _set(["invariant", "triplet", 0, 0], [7, 1])),
        ("golden family-05", "a golden verdict with another family", _set(["family"], 4)),
    ],
    "branch-delta": [
        ("canonical delta 16", "a canonical form that is not a Moebius image",
         _set(["delta", 3], [1000, 3])),
        ("canonical delta 16", "a Moebius image that does not pin 0", _shift_delta),
        ("construct exceptional 8", "a swap matrix that does not exchange the sections",
         _identity_swap),
        ("construct exceptional 4 symmetric", "a stabilizer order of 4 for {0, oo, 1, -1}",
         _set(["aut", "stabilizer_order"], 4)),
        ("classify exceptional 10 moved", "two images of a set with different invariants",
         _reflect_invariant),
    ],
    "model-build": [
        ("minus-one-count 8", "an r = 8 count of 239", _set(["count"], 239)),
        ("minus-one-count 5", "a listed class that is not a (-1)-class",
         _set(["classes", 0, 0], 5)),
        ("construct four-lines 0", "involutions with sigma_1 sigma_2 != sigma_3",
         _repeat_generator),
        ("construct three-lines-conic 1", "a wrong stated intersection matrix",
         _set(["certificate", "matrix", 0, 1], 0)),
        ("genus 0", "a genus one too large", _set(["genus"], lambda g: g + 1)),
        ("invariant-rank weyl 0", "a fixed rank one too large", _set(["rank"], lambda r: r + 1)),
        ("golden family-08 --links", "a link report with the wrong K^2",
         _set(["links", "k_squared"], 4)),
    ],
    "cli-cold": [
        ("cold classify hirzebruch 4", "F_4 in the wrong family", _set(["family"], 5)),
        ("cold construct four-lines | classify", "four lines outside family 11",
         _set(["family"], 10)),
        ("cold minus-one-count 8", "an r = 8 count of 239", _set(["count"], 239)),
    ],
}


def main() -> int:
    runner = InProcess()
    problems = 0
    for workload in workloads.WORKLOADS:
        ops = {op.name: op for op in workloads.build_ops(workload, 0)}
        acct = Accounting()
        reports = {name: runner.run(op) for name, op in ops.items()}
        for name, (rc, out) in reports.items():
            acct.record(ops[name], rc, out)
        if acct.failed:
            print(f"{workload}: {acct.failed} real reports fail their checks")
            problems += 1
        for name, what, edit in WRONG[workload]:
            rc, out = reports[name]
            before = acct.failed
            acct.record(ops[name], rc, checks.dumps(edit(json.loads(out))))
            caught = acct.failed == before + 1
            problems += not caught
            print(f"{workload}: {what}: {'counted as failed' if caught else 'NOT CAUGHT'}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
