"""Criterion 09 over both modes and several seeds: a report, not a gate.

The acceptance suite's criterion 09 compares PEDPC with the baselines on IID
at seed 1 only. This script runs the same comparison, `harness.compare_policies`
on the criterion's config at its target, for IID and NONIID at seeds 1-5, each
writing into a temporary directory, and prints one line per pair: the accepted
V, PEDPC's average selected count and energy overflow, the clause's limit (half
of Random's overflow) and the clauses that fail. It exits 0 whatever fails. It
is not a test, so pytest does not collect it:

    python tests/criterion_09_report.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from flsched import harness
from flsched.simenv import IID, NONIID

from test_acceptance import CRITERION_09_TARGET, criterion_09_checks, table1_doc

SEEDS = range(1, 6)


def report_line(mode: str, seed: int, directory: Path) -> str:
    """One comparison at the criterion's target, summarized on one line."""
    config = directory / "config.json"
    config.write_text(json.dumps(table1_doc(mode, directory / "out")))
    pairs = harness.compare_policies(config, seed=seed, target_avg=CRITERION_09_TARGET)
    knobs = {s.policy: knob for knob, s in pairs}
    rows = {s.policy: s for _, s in pairs}
    failed = [name for name, ok in criterion_09_checks(rows).items() if not ok]
    return (f"{mode:<6} seed {seed}: V={knobs['PEDPC']:.4g} "
            f"selected={rows['PEDPC'].avg_selected:.2f} "
            f"overflow={rows['PEDPC'].energy_overflow_j:.2f} J "
            f"limit={rows['Random'].energy_overflow_j / 2:.2f} J "
            f"fails: {', '.join(failed) or 'none'}")


def main() -> int:
    for mode in (IID, NONIID):
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as name:
                print(report_line(mode, seed, Path(name)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
