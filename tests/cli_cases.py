"""Every command-line case of `flsched`, listed once, and the named configs they share.

A case runs in a fresh directory of its own. Its config, when it has one, is
written there as `config.json`, and its argv names that file and every output
path relative to the directory, so outputs and messages do not depend on where
the directory is. Tier-1 runs each case in process through `cli.main`
(`run_in_process`, from `tests/test_cli.py`); CI runs each through the installed
console script:

    python tests/cli_cases.py

A case checks its exit code and its stderr: the exact text where it pins one,
otherwise nothing on success and one line with its exit code's prefix on
failure. A case that pins its stdout checks that text too. A case that writes
nothing also checks that stdout is empty and that no file besides its config
appears.

A case that needs only a config, an argv and the outputs is a row here. A case
that patches the program (a fault injection, a spy, a run that must not start)
or compares the outputs of several runs stays a test in `tests/test_harness.py`.

The script also prints one digest line per case: its id, its exit code and the
sha256 of its stdout, of its stderr and of each file it writes, by relative
path. Two trees' runs, each with a `flsched` on PATH that imports that tree's
`src/`, then compare by `diff`.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

CONFIG = "config.json"
_PREFIXES = {2: ("config error: ",), 3: ("infeasible: ", "solver did not converge: ")}

# CI's smoke system, with every policy's knob set
SMOKE = {"system": {"num_clients": 8, "num_rounds": 12, "min_ratio": 0.05},
         "policy": {"penalty": 0.5, "random_fraction": 0.5, "latency_cap": 20}}
_SMOKE_SYSTEM = SMOKE["system"]
# the smoke system on a budget small enough that backlogs build, so V changes decisions
TIGHT_BUDGET = {"system": _SMOKE_SYSTEM, "scenario": {"energy_budget": 0.05}}
# the built-in setting: 100 clients, 300 rounds, IID
FULL = {}
# the benchmark's floored NONIID setting: a 5% floor admits 20 of the 100 clients
PEDPC_FLOOR = {"system": {"min_ratio": 0.05}, "scenario": {"mode": "NONIID"}}
# 1/0.3333333334 lies just below 3, yet 3 * 0.3333333334 > 1 + 1e-12: at most two
# clients fit
EDGE = {"system": {"num_clients": 10, "num_rounds": 12, "min_ratio": 0.3333333334}}
# the smallest horizon, for configs at the edges of the float range
FLOAT_EDGE_SYSTEM = {"num_clients": 3, "num_rounds": 2}
# 20 clients over 4 rounds, for penalty weights at the float edges
PENALTY_EDGE_SYSTEM = {"num_clients": 20, "num_rounds": 4}
# at seed 1, round 5's tx_power * backlog * model_size passes the float range before
# its division by the rate, though every true price coefficient is at most 2.24
PRICE_OVERFLOW = {"system": {"bandwidth": 1e307, "num_rounds": 6, "num_clients": 10,
                             "accuracy_coeff": 1e-5},
                  "scenario": {"model_size": 1e307, "energy_budget": 0.01, "tx_power": [1, 2]},
                  "policy": {"penalty": 1e3}}
# SelectAll at seed 299: every backlog and both sides of the deficit bound reach
# about 2.3e7 J, where the two sides differ by one ulp (3.7e-9 J)
DEFICIT_ROUNDING_CASE = {
    "system": {"num_clients": 20, "num_rounds": 6, "min_ratio": 6.6367538581906305e-06,
               "bandwidth": 10272.682576386149},
    "scenario": {"energy_budget": 377.3808000658412,
                 "gain_sq": [2.2442540853163686e-16, 4.485951770817831e-15],
                 "model_size": 22309469.946381085},
    "policy": {"kind": "SelectAll"},
}
# every scenario key set, on the smoke horizon at the default 1% floor
_SCENARIO = {"system": {**_SMOKE_SYSTEM, "min_ratio": 0.01},
             "scenario": {"mode": "NONIID", "cpu_freq": [1e7, 1e9], "cycles_per_bit": [1, 10],
                          "tx_power": [0.01, 0.1], "capacitance": 1e-28, "local_iters": 5,
                          "model_size": 2.4e5, "energy_budget": 1.5, "data_size": 3.6e6,
                          "data_size_choices": [1.2e6, 2.4e6, 3.6e6, 4.8e6, 6.0e6],
                          "gain_sq": [1e-11, 1e-9]}}
# a floor of 1e-309 admits any population; a tiny upload keeps the drift finite
_TINY_FLOOR = {"system": {**FLOAT_EDGE_SYSTEM, "min_ratio": 1e-309},
               "scenario": {"model_size": 1e-300}}
# configs no run can start: a drift constant, a worst-case round energy and a
# full-band rate past the float range
_HUGE_DATA = {"scenario": {"data_size": 1e308}, "system": FLOAT_EDGE_SYSTEM}
_TINY_GAIN = {"scenario": {"gain_sq": [1e-300, 1e-9]}}
_HUGE_BANDWIDTH = {"system": {**FLOAT_EDGE_SYSTEM, "bandwidth": 1e308}}
_VERIFY_V1 = ("V=1 lhs=-0.0243063 lookahead=-0.0243063 rhs=0.397569 cost_bound=True"
              " energy_bound=True [ok]\n")
# Population's per-client fields, each with whether its key is a [low, high] range;
# written out, not read from flsched, so that a renamed field fails its rows
_PER_CLIENT = (("cpu_freq", True), ("cycles_per_bit", True), ("capacitance", False),
               ("tx_power", True), ("model_size", False), ("data_size", False),
               ("energy_budget", False), ("local_iters", False))


@dataclass(frozen=True)
class Case:
    """One command line: its config (a JSON document, raw bytes, or None for no file),
    its argv, its exit code and, where pinned, its exact stderr without the newline
    and its exact stdout."""

    id: str
    config: dict | bytes | None
    command: str
    code: int = 0
    stderr: str | None = None
    writes_nothing: bool = False
    stdout: str | None = None

    @property
    def argv(self) -> list[str]:
        return self.command.split()


def _bad_per_client_cases():
    """Zero, negative and NaN for every per-client field: NaN fails the JSON number
    check first, and a range's bounds are checked before any draw."""
    for name, is_range in _PER_CLIENT:
        for value in (0, -1, math.nan):
            message = f"{name} must be finite, got nan" if math.isnan(value) else \
                f"{name} range must be positive and ordered" if is_range else \
                f"{name} must be strictly positive"
            yield Case(f"run-{name}-{value}",
                       {"scenario": {name: [value] * 2 if is_range else value}},
                       f"run --config {CONFIG} --seed 1", 2, f"config error: {message}",
                       writes_nothing=True)


CASES = [
    Case("verify-bounds", None, "verify-bounds --v-grid 1", stdout=_VERIFY_V1),
    *(Case(f"verify-bounds-grid-{step}", None, f"verify-bounds --v-grid 1 --grid-step {step}",
           stdout=_VERIFY_V1) for step in ("0.5", "0.7")),
    Case("verify-bounds-seed-2-fine-grid", None, "verify-bounds --seed 2 --grid-step 0.02",
         stdout="V=0.1 lhs=0 lookahead=0 rhs=4.21875 cost_bound=True energy_bound=True [ok]\n"
                "V=1 lhs=0 lookahead=0 rhs=0.421875 cost_bound=True energy_bound=True [ok]\n"
                "V=10 lhs=0 lookahead=0 rhs=0.0421875 cost_bound=True energy_bound=True [ok]\n"),
    Case("run-smoke", SMOKE, f"run --config {CONFIG} --seed 1 --out smoke.csv"),
    *(Case(f"run-smoke-{kind}", SMOKE, f"run --config {CONFIG} --seed 1 --policy {kind}")
      for kind in ("Greedy", "SelectAll", "Random", "FedCS")),
    Case("sweep-v-smoke", SMOKE, f"sweep-v --config {CONFIG} --v-grid 0.5,1"),
    Case("sweep-v-tight-budget", TIGHT_BUDGET,
         f"sweep-v --config {CONFIG} --seed 1 --v-grid 0.001,0.5,1,1000",
         stdout="V=0.001 avg_selected=4.33 total_latency_s=2.2945 energy_overflow_j=0.00606424\n"
                "V=0.5 avg_selected=6.00 total_latency_s=2.99439 energy_overflow_j=0.100197\n"
                "V=1 avg_selected=6.00 total_latency_s=2.99411 energy_overflow_j=0.100238\n"
                "V=1000 avg_selected=6.00 total_latency_s=2.99384 energy_overflow_j=0.100281\n"),
    *(Case(f"sweep-v-smoke-grid-{name}", SMOKE, f"sweep-v --config {CONFIG} --v-grid {grid}", 2,
           f"config error: {message}", writes_nothing=True)
      for name, grid, message in (("letters", "a,b", "bad --v-grid value: 'a,b'"),
                                  ("empty", ",", "--v-grid must list at least one value"))),
    Case("calibrate-smoke-PEDPC-20", SMOKE,
         f"calibrate --config {CONFIG} --policy PEDPC --target-avg 20", 3,
         "infeasible: target outside the achievable bracket: 3.25 selected at penalty 1e-06,"
         " 3.25 at 10000", writes_nothing=True),
    Case("calibrate-smoke-PEDPC", SMOKE,
         f"calibrate --config {CONFIG} --policy PEDPC --target-avg 5"),
    Case("compare-smoke", SMOKE, f"compare --config {CONFIG} --seed 1 --target-avg 4"),
    Case("run-smoke-negative-seed", SMOKE, f"run --config {CONFIG} --seed -1", 2,
         "config error: seed must be a non-negative integer, got -1"),
    Case("run-missing-config", None, f"run --config {CONFIG}", 2,
         f"config error: cannot read {CONFIG}: No such file or directory"),
    Case("run-smoke-out-is-a-directory", SMOKE, f"run --config {CONFIG} --out .", 2,
         "config error: cannot write .: Is a directory"),
    Case("run-smoke-output-dir-under-a-file", {**SMOKE, "output": {"dir": f"{CONFIG}/out"}},
         f"run --config {CONFIG}", 2,
         f"config error: cannot write {CONFIG}/out/PEDPC_0_0.5.csv: Not a directory",
         writes_nothing=True),
    # é in latin-1: a lone 0xe9 byte, which is not UTF-8
    Case("run-latin-1-config", b'{"system": {}} \xe9', f"run --config {CONFIG}",
         2, f"config error: invalid JSON in {CONFIG}: 'utf-8' codec can't decode byte 0xe9 in"
            " position 15: unexpected end of data", writes_nothing=True),
    Case("run-smoke-nan-bandwidth", {**SMOKE, "system": {**_SMOKE_SYSTEM, "bandwidth": math.nan}},
         f"run --config {CONFIG}", 2, "config error: bandwidth must be finite, got nan",
         writes_nothing=True),
    *_bad_per_client_cases(),
    Case("run-data_size_choices-0", {"scenario": {"mode": "NONIID",
                                                  "data_size_choices": [2.4e6, 0.0]}},
         f"run --config {CONFIG} --seed 1", 2,
         "config error: data_size_choices entries must be positive", writes_nothing=True),
    Case("run-local_iters-2.5", {"scenario": {"local_iters": 2.5}},
         f"run --config {CONFIG} --seed 1", 2,
         "config error: local_iters must be an integer, got 2.5", writes_nothing=True),
    # a bound that only some draws would hit fails before any draw, on every seed
    *(Case(f"run-drawn-{name}-seed-{seed}", doc, f"run --config {CONFIG} --seed {seed}", 2,
           f"config error: {message}", writes_nothing=True)
      for name, doc, message in (
          ("cpu_freq", {"scenario": {"cpu_freq": [0, 1e9]}},
           "cpu_freq range must be positive and ordered"),
          ("data_size_choices", {"system": {"num_clients": 1, "num_rounds": 2},
                                 "scenario": {"mode": "NONIID", "data_size_choices": [-1, 3.6e6]}},
           "data_size_choices entries must be positive"))
      for seed in range(1, 6)),
    # at most two clients fit: a third would fail the allocator or the share check
    *(Case(f"run-edge{suffix}", EDGE, f"run --config {CONFIG} --seed {seed}")
      for suffix, seed in (("", 1), ("-seed-2", 2))),
    Case("run-scenario", _SCENARIO, f"run --config {CONFIG} --seed 1"),
    Case("run-full", FULL, f"run --config {CONFIG} --seed 1"),
    Case("calibrate-full-FedCS", FULL,
         f"calibrate --config {CONFIG} --policy FedCS --target-avg 40 --seed 1"),
    Case("compare-full", FULL, f"compare --config {CONFIG} --seed 1"),
    Case("compare-full-200", FULL, f"compare --config {CONFIG} --seed 1 --target-avg 200", 3,
         "infeasible: target outside [1, K]", writes_nothing=True),
    # SelectAll's split, which runs nothing, fails before any calibration at any target
    *(Case(f"compare-floor-{target}", PEDPC_FLOOR,
           f"compare --config {CONFIG} --seed 1 --target-avg {target}", 3,
           "infeasible: equal split over all clients falls below the floor", writes_nothing=True)
      for target in (10, 20, 40)),
    Case("run-floor", PEDPC_FLOOR, f"run --config {CONFIG} --seed 1"),
    Case("run-floor-Greedy", PEDPC_FLOOR, f"run --config {CONFIG} --seed 1 --policy Greedy"),
    Case("run-floor-SelectAll", PEDPC_FLOOR,
         f"run --config {CONFIG} --seed 1 --policy SelectAll", 3,
         "infeasible: equal split over all clients falls below the floor"),
    Case("calibrate-floor-Random", PEDPC_FLOOR,
         f"calibrate --config {CONFIG} --policy Random --target-avg 40 --seed 1", 3,
         "infeasible: equal split over the sample falls below the floor"),
    # PEDPC's count on a binding floor does not move with V across its bracket
    Case("calibrate-floor-PEDPC-10", PEDPC_FLOOR,
         f"calibrate --config {CONFIG} --policy PEDPC --target-avg 10 --seed 1", 3,
         "infeasible: target outside the achievable bracket: 19.99 selected at penalty 1e-06,"
         " 20 at 10000", writes_nothing=True),
    Case("run-floor-Random-0.4", {**PEDPC_FLOOR, "policy": {"random_fraction": 0.4}},
         f"run --config {CONFIG} --seed 1 --policy Random", 3,
         "infeasible: equal split over the sample falls below the floor"),
    Case("run-smoke-Random-nobody", {"system": _SMOKE_SYSTEM, "policy": {"random_fraction": 0.01}},
         f"run --config {CONFIG} --seed 1 --policy Random", 3,
         "infeasible: fraction selects nobody"),
    Case("run-smoke-FedCS-no-cap", {"system": _SMOKE_SYSTEM, "policy": {"latency_cap": 0}},
         f"run --config {CONFIG} --seed 1 --policy FedCS", 2,
         "config error: FedCS requires a positive latency_cap"),
    Case("run-deficit-rounding", DEFICIT_ROUNDING_CASE, f"run --config {CONFIG} --seed 299"),
    Case("run-negative-capacitance", {"scenario": {"capacitance": -1}}, f"run --config {CONFIG}",
         2, "config error: capacitance must be strictly positive"),
    Case("run-zero-cpu-range", {"scenario": {"cpu_freq": [0, 1e9]}}, f"run --config {CONFIG}",
         2, "config error: cpu_freq range must be positive and ordered"),
    Case("run-huge-budget", {"scenario": {"energy_budget": 1e160}, "system": FLOAT_EDGE_SYSTEM},
         f"run --config {CONFIG}", 3, "infeasible: drift constant overflows the float range"),
    Case("run-subnormal-floor", {"system": {"min_ratio": 1e-310}}, f"run --config {CONFIG}", 3,
         "infeasible: worst-case round energy is unbounded"),
    *(Case(f"run-tiny-floor{suffix}", _TINY_FLOOR, f"run --config {CONFIG}{args}")
      for suffix, args in (("", ""), ("-Greedy", " --policy Greedy"),
                           ("-SelectAll", " --policy SelectAll"))),
    Case("run-tiny-noise", {"system": {**FLOAT_EDGE_SYSTEM, "noise_power": 5e-324}},
         f"run --config {CONFIG}", 3, "infeasible: rate coefficient overflows the float range"),
    Case("run-huge-data", _HUGE_DATA,
         f"run --config {CONFIG}", 3, "infeasible: drift constant overflows the float range"),
    Case("run-huge-bandwidth", _HUGE_BANDWIDTH,
         f"run --config {CONFIG}", 3, "infeasible: rate coefficient overflows the float range"),
    Case("run-huge-cpu", {"scenario": {"cpu_freq": [1e300, 1e300]}, "system": FLOAT_EDGE_SYSTEM},
         f"run --config {CONFIG}", 3, "infeasible: worst-case round energy is unbounded"),
    # a gain range reaching 1e-300 leaves a zero worst-case rate: no finite drift
    # constant exists, which is an infeasible instance, not a malformed config
    Case("run-tiny-gain", _TINY_GAIN, f"run --config {CONFIG}", 3,
         "infeasible: worst-case round energy is unbounded"),
    # accuracy_coeff * data_size passes the float range when the scenario is built,
    # before any run or calibration
    *(Case(f"{name}-utility-overflow", {"system": {**FLOAT_EDGE_SYSTEM, "accuracy_coeff": 1e303}},
           f"{name} --config {CONFIG}{args}", 3,
           "infeasible: accuracy utility overflows the float range", writes_nothing=True)
      for name, args in (("run", ""), ("calibrate", " --policy Random --target-avg 1"))),
    # so is each config above that no run can start, so Random's calibration, which
    # runs nothing, reports it too
    *(Case(f"calibrate-{name}", doc, f"calibrate --config {CONFIG} --policy Random --target-avg 1",
           3, f"infeasible: {message}", writes_nothing=True)
      for name, doc, message in (
          ("huge-data", _HUGE_DATA, "drift constant overflows the float range"),
          ("tiny-gain", _TINY_GAIN, "worst-case round energy is unbounded"),
          ("huge-bandwidth", _HUGE_BANDWIDTH, "rate coefficient overflows the float range"))),
    # compare reports such a config before SelectAll's split, which a 5% floor on 100
    # clients breaks
    Case("compare-floor-tiny-gain", {**_TINY_GAIN, "system": {"min_ratio": 0.05}},
         f"compare --config {CONFIG} --target-avg 10", 3,
         "infeasible: worst-case round energy is unbounded", writes_nothing=True),
    Case("verify-bounds-grid-1e-300", None, "verify-bounds --grid-step 1e-300", 3,
         "infeasible: share grid for 2 clients at step 1e-300 exceeds 5000000 points"),
    Case("verify-bounds-grid-0.01", None, "verify-bounds --grid-step 0.01", 3,
         "infeasible: lookahead product too large (7856809 combinations)", writes_nothing=True),
    *(Case(f"run-penalty-{v}", {"system": PENALTY_EDGE_SYSTEM, "policy": {"penalty": float(v)}},
           f"run --config {CONFIG} --seed 1", 3, f"solver did not converge: {message}")
      for v, message in (("1e308", "allocator objective leaves the float range"),
                         ("1e-308", "Newton system leaves the float range"),
                         ("1e-315", "Newton system leaves the float range"))),
    Case("run-price-overflow", PRICE_OVERFLOW, f"run --config {CONFIG} --seed 1", 3,
         "solver did not converge: allocator coefficients leave the float range",
         writes_nothing=True),
    # the smallest weight selects nobody
    Case("run-penalty-5e-324", {"system": PENALTY_EDGE_SYSTEM, "policy": {"penalty": 5e-324}},
         f"run --config {CONFIG} --seed 1",
         stdout='{"avg_cost": 0.0, "avg_selected": 0.0, "energy_overflow_j": 0.0,'
                ' "policy": "PEDPC", "seed": 1, "total_latency_s": 0.0, "total_phi": 0.0}\n'),
    Case("run-unknown-key", {"system": {"nope": 1}}, f"run --config {CONFIG}", 2,
         "config error: unknown keys in section 'system': ['nope']"),
    Case("run-root-not-an-object", b"[]", f"run --config {CONFIG}", 2,
         "config error: config root must be an object", writes_nothing=True),
    Case("run-system-not-an-object", {"system": []}, f"run --config {CONFIG}", 2,
         "config error: section 'system' must be an object", writes_nothing=True),
    Case("run-mode-iid", {"scenario": {"mode": "iid"}}, f"run --config {CONFIG}", 2,
         "config error: scenario mode must be 'IID' or 'NONIID'", writes_nothing=True),
    *(Case(f"run-min_ratio-{ratio}", {"system": {"min_ratio": ratio}}, f"run --config {CONFIG}",
           2, "config error: min_ratio must lie in (0, 1]", writes_nothing=True)
      for ratio in (0, 1.5)),
    *(Case(f"run-{key}-{value}", {"system": {key: value}}, f"run --config {CONFIG}", 2,
           "config error: bandwidth, noise_power, accuracy_coeff must be positive",
           writes_nothing=True)
      for key, value in (("bandwidth", 0), ("noise_power", -1))),
    # a 401-digit integer, past any float
    Case("run-bandwidth-1e400", b'{"system": {"bandwidth": 1' + b"0" * 400 + b"}}",
         f"run --config {CONFIG}", 2, "config error: bandwidth is out of range",
         writes_nothing=True),
    Case("run-negative-client-count", {"system": {"num_clients": -1}}, f"run --config {CONFIG}",
         2, "config error: need at least one client", writes_nothing=True),
    Case("run-no-rounds", {"system": {"num_rounds": 0}}, f"run --config {CONFIG}", 2,
         "config error: need at least one round", writes_nothing=True),
    *(Case(f"run-{key}-beyond-int64", {section: {key: 1e20}}, f"run --config {CONFIG}", 2,
           f"config error: {key} is out of range", writes_nothing=True)
      for section, key in (("scenario", "local_iters"), ("system", "num_rounds"),
                           ("system", "num_clients"))),
    # 2**62 rounds: numpy refuses the run's per-round arrays before allocating any
    Case("run-horizon-too-large", {"system": {"num_clients": 1, "num_rounds": 2 ** 62}},
         f"run --config {CONFIG}", 3,
         "infeasible: horizon of 4611686018427387904 rounds for 1 clients is too large to allocate",
         writes_nothing=True),
    # 2**62 clients: numpy refuses the population's per-client arrays before allocating any
    Case("run-population-too-large", {"system": {"num_clients": 2 ** 62, "num_rounds": 1}},
         f"run --config {CONFIG}", 3,
         "infeasible: population of 4611686018427387904 clients is too large to allocate",
         writes_nothing=True),
    Case("run-SelectAll-floor-0.2", {"system": {**_SMOKE_SYSTEM, "min_ratio": 0.2},
                                     "policy": {"kind": "SelectAll"}},
         f"run --config {CONFIG}", 3,
         "infeasible: equal split over all clients falls below the floor"),
    # barrier tuning is not configurable: a mu_growth of 1, which would never grow
    # the barrier weight, cannot reach the solver
    Case("run-barrier-section", {**SMOKE, "barrier": {"mu_growth": 1.0}}, f"run --config {CONFIG}",
         2, "config error: unknown config sections: ['barrier']"),
    # PEDPC's penalty is a knob of the policy section; there is no pedpc section
    Case("run-pedpc-section", {"system": _SMOKE_SYSTEM, "policy": {"penalty": 0.5},
                               "pedpc": {"penalty": 0.5}}, f"run --config {CONFIG}",
         2, "config error: unknown config sections: ['pedpc']", writes_nothing=True),
    # JSON that cannot be parsed into a config
    Case("run-nested-too-deep", b"[" * 200_000 + b"]" * 200_000, f"run --config {CONFIG}", 2,
         writes_nothing=True),
    Case("run-integer-past-the-digit-limit",
         b'{"system": {"num_clients": 1' + b"0" * 5000 + b"}}", f"run --config {CONFIG}", 2,
         writes_nothing=True),
    Case("run-nul-in-output-dir", {"output": {"dir": "o\u0000x"}}, f"run --config {CONFIG}", 2,
         "config error: output dir must not contain a NUL character", writes_nothing=True),
    # a lone surrogate, which JSON's \ud800 escape gives, has no file system bytes
    Case("run-surrogate-in-output-dir", {"output": {"dir": "\ud800"}}, f"run --config {CONFIG}",
         2, "config error: output dir cannot be encoded as a file system path",
         writes_nothing=True),
]


def write_config(case: Case, directory: Path) -> None:
    """Write the case's config, if it has one, into the directory it runs in."""
    if isinstance(case.config, bytes):
        (directory / CONFIG).write_bytes(case.config)
    elif case.config is not None:
        (directory / CONFIG).write_text(json.dumps(case.config))


def run_in_process(case: Case, directory: Path) -> tuple[int, str, str]:
    """Run the case in the directory through `cli.main`, with RuntimeWarning as an
    error; return its exit code, stdout and stderr."""
    from flsched import cli  # imported here: the console-script run needs no package

    write_config(case, directory)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(case.argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def problems(case: Case, directory: Path, code: int, out: str, err: str) -> list[str]:
    """How a run of the case in the directory, with this exit code and output, breaks it."""
    found = [] if code == case.code else [f"exit code {code}, expected {case.code}"]
    if case.stderr is not None:
        err_ok = err == case.stderr + "\n"
    elif case.code == 0:
        err_ok = err == ""
    else:
        err_ok = err.count("\n") == 1 and err.endswith("\n") and \
            err.startswith(_PREFIXES[case.code])
    if not err_ok:
        found.append(f"stderr {err!r}")
    if case.stdout is not None and out != case.stdout:
        found.append(f"stdout {out!r}")
    written = sorted(p.name for p in directory.iterdir() if p.name != CONFIG)
    if case.writes_nothing and (out or written):
        found.append(f"wrote stdout {out!r} and files {written}")
    return found


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(case: Case, directory: Path, code: int, out: str, err: str) -> str:
    """One line: the case's id, its exit code and the sha256 of its stdout, its stderr
    and each file it wrote, by relative path."""
    written = sorted(p for p in directory.rglob("*") if p.is_file() and p != directory / CONFIG)
    files = (f" {p.relative_to(directory).as_posix()}={_sha256(p.read_bytes())}" for p in written)
    return f"{case.id} {code} stdout={_sha256(out.encode())} stderr={_sha256(err.encode())}" + \
        "".join(files)


def main() -> int:
    """Run every case through the installed `flsched` console script; print each one's
    digest and report each failure."""
    failed = 0
    for case in CASES:
        with tempfile.TemporaryDirectory() as name:
            write_config(case, Path(name))
            proc = subprocess.run(["flsched", *case.argv], cwd=name, capture_output=True,
                                  text=True)
            found = problems(case, Path(name), proc.returncode, proc.stdout, proc.stderr)
            print(digest(case, Path(name), proc.returncode, proc.stdout, proc.stderr))
        for problem in found:
            print(f"{case.id}: {problem}")
        failed += bool(found)
    print(f"{len(CASES) - failed} of {len(CASES)} cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
