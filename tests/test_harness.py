import dataclasses
import json
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flsched import bandwidth as bw
from flsched import cli, harness, scheduler, simenv
from flsched import lyapunov as lyap
from flsched.errors import ConfigError, Infeasible
from flsched.harness import (HarnessConfig, calibrate, compare_policies, load_config,
                             parse_config, run_experiment, sweep_v, verify_bounds)
from flsched.model import Population, SystemConfig
from flsched.scheduler import POLICY_KINDS, PolicySpec, run_policy
from flsched.simenv import DEFAULTS, IID, NONIID, Range, Scenario

from cli_cases import CASES, PEDPC_FLOOR, SMOKE, run_in_process
from oracles import lookahead_oracle


def small_config(tmp_path: Path, **policy) -> Path:
    """The smoke system at V = 0.5 with the given policy knobs, PEDPC by default."""
    doc = {"system": SMOKE["system"], "policy": {"penalty": 0.5, **policy},
           "output": {"dir": str(tmp_path / "out")}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_parse_config_defaults():
    cfg = parse_config({})
    assert cfg.policy == PolicySpec(kind="PEDPC", penalty=1.0)
    assert cfg == HarnessConfig()  # absent keys take the dataclasses' own defaults


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config({"system": {"voltage": 12}})
    with pytest.raises(ConfigError):
        parse_config({"mystery_section": {}})
    with pytest.raises(ConfigError):
        parse_config({"policy": {"kind": "Nonsense"}})


@pytest.mark.parametrize("barrier", [
    {"mu_growth": 1.0}, {"mu_growth": 0.5}, {"t0": -1}, {"t0": 0},
    {"tol": float("nan")}, {"tol": 0}, {"t0": float("inf")},
    {"max_newton": 0}, {"max_newton": float("inf")}, {"max_newton": "x"},
])
def test_parse_config_rejects_bad_barrier(barrier):
    with pytest.raises(ConfigError):
        parse_config({"barrier": barrier})


@pytest.mark.parametrize("pedpc", [
    {"penalty": "x"}, {"penalty": None}, {"penalty": float("nan")},
    {"penalty": float("inf")}, {"penalty": -1.0}, {"penalty": float("-inf")},
    {"penalty": 0}, {"penalty": 0.0}, {"penalty": "1"}, {"penalty": True},
    {"penalty": [1]}, {"penalty": False},
])
def test_parse_config_rejects_bad_pedpc(pedpc):
    # PEDPC's penalty weight V is a knob of the policy section
    with pytest.raises(ConfigError, match="penalty"):
        parse_config({"policy": pedpc})


_BAD_NUMBERS = [float("nan"), float("inf"), float("-inf"), "x"]
_RANGE_KEYS = {"cpu_freq", "cycles_per_bit", "tx_power", "gain_sq"}  # [low, high]
_LIST_KEYS = _RANGE_KEYS | {"data_size_choices"}


def _bad_override_cases():
    for section, keys in (("system", harness._SECTION_KEYS["system"]),
                          ("scenario", harness._SECTION_KEYS["scenario"] - {"mode"})):
        for key in sorted(keys):
            for bad in _BAD_NUMBERS:
                yield section, key, bad
                if key in _LIST_KEYS:
                    yield section, key, [bad, 1.0]
                    yield section, key, [1.0, bad]
    for key in sorted(_LIST_KEYS):
        yield "scenario", key, 1.0  # a number where a list belongs
        yield "scenario", key, []
    for key in sorted(_RANGE_KEYS):
        yield "scenario", key, [1.0]
        yield "scenario", key, [1.0, 2.0, 3.0]


def test_config_schema_is_read_from_the_defaults():
    system = {f.name for f in dataclasses.fields(SystemConfig)}
    assert harness._SECTION_KEYS["system"] == system
    assert harness._SECTION_KEYS["scenario"] == (set(DEFAULTS) - system) | {"mode"}
    assert harness._SECTION_KEYS["policy"] == {f.name for f in dataclasses.fields(PolicySpec)}
    assert sorted(harness._SECTION_KEYS) == ["output", "policy", "scenario", "system"]
    assert sum(len(keys) for keys in harness._SECTION_KEYS.values()) == 24
    # each key's JSON form follows its default's type
    assert {k for k, v in DEFAULTS.items() if isinstance(v, Range)} == _RANGE_KEYS
    assert {k for k, v in DEFAULTS.items() if isinstance(v, tuple)} == _LIST_KEYS
    assert {k for k, v in DEFAULTS.items() if isinstance(v, int)} == \
        {"num_clients", "num_rounds", "frame_len", "num_frames", "local_iters"}


@pytest.mark.parametrize("mode", [IID, NONIID])
def test_config_of_every_default_matches_the_empty_config(mode):
    as_json = {k: list(v) if isinstance(v, tuple) else v for k, v in DEFAULTS.items()}
    system = harness._SECTION_KEYS["system"]
    doc = {"system": {k: v for k, v in as_json.items() if k in system},
           "scenario": {"mode": mode, **{k: v for k, v in as_json.items() if k not in system}}}
    assert len(doc["system"]) + len(doc["scenario"]) == len(DEFAULTS) + 1
    full = harness.build_scenario(parse_config(doc), seed=1)
    empty = harness.build_scenario(parse_config({} if mode == IID else
                                                {"scenario": {"mode": mode}}), seed=1)
    assert full.config == empty.config
    for name in [f.name for f in dataclasses.fields(Population)] + ["comp_energy",
                                                                    "comp_latency"]:
        got, want = getattr(full.population, name), getattr(empty.population, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert np.array_equal(full.observe(3).rate_coeff, empty.observe(3).rate_coeff)


@pytest.mark.parametrize("section,key,value", list(_bad_override_cases()))
def test_parse_config_rejects_bad_override(section, key, value):
    with pytest.raises(ConfigError, match=key):
        parse_config({section: {key: value}})


@pytest.mark.parametrize("doc", [
    {"scenario": {"local_iters": "5"}}, {"scenario": {"local_iters": True}},
    {"scenario": {"local_iters": None}}, {"scenario": {"local_iters": False}},
    {"scenario": {"local_iters": 0.5}}, {"scenario": {"local_iters": [5]}},
    *({"system": {key: bad}} for key in ("num_clients", "num_rounds", "frame_len",
                                         "num_frames")
      for bad in (8.5, True, False, "8", None)),
    {"scenario": {"local_iters": 4.5}},
])
def test_parse_config_rejects_non_integral_integers(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


@pytest.mark.parametrize("doc", [
    {"policy": {"kind": "Random", "random_fraction": "0.4"}},
    {"policy": {"kind": "Random", "random_fraction": float("nan")}},
    {"policy": {"kind": "FedCS", "latency_cap": float("inf")}},
    {"policy": {"kind": "FedCS", "latency_cap": True}},
    {"policy": {"penalty_growth": 2}}, {"policy": {"penalty": "1.0"}},
    {"output": {"dir": 1}}, {"output": {"dir": None}},
    {"policy": {"random_fraction": None}},  # null sets no knob: it is not a number
])
def test_parse_config_rejects_bad_policy_solver_and_output(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_JSON_VALUES = _JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=3)


@settings(max_examples=300)
@given(st.fixed_dictionaries({}, optional={
    name: st.dictionaries(st.sampled_from(sorted(keys)), _JSON_VALUES, max_size=4)
    for name, keys in harness._SECTION_KEYS.items()}))
def test_parse_config_fuzz_parses_or_config_error(doc):
    try:
        parse_config(doc)
    except ConfigError:
        pass


def test_parse_config_accepts_integral_floats():
    cfg = parse_config({
        "system": {"num_clients": 8.0, "num_rounds": 12.0, "min_ratio": 0.05},
        "scenario": {"local_iters": 5.0},
    })
    assert cfg.overrides["local_iters"] == 5 and type(cfg.overrides["local_iters"]) is int
    config = harness.build_scenario(cfg, seed=0).config
    assert (config.num_clients, config.num_rounds) == (8, 12)


def _deficit_check_fails(backlog_trace, consumed, budgets):
    return np.zeros(len(budgets), dtype=bool)


# (id, lyapunov function replaced, its fake, expected message); a NaN slack, from
# the drift gap itself or from a NaN backlog, fails the check like a negative one
_BROKEN_GUARANTEES = [
    ("drift_gap", "drift_gap", lambda *args: -1.0, "drift inequality violated in round 0"),
    ("deficit_ok", "deficit_ok", _deficit_check_fails, "deficit lower bound"),
    ("drift_gap-nan", "drift_gap", lambda *args: np.nan,
     "drift inequality violated in round 0 (slack nan)"),
    ("update_queue-nan", "update_queue", lambda backlog, spent, credit, out=None: backlog * np.nan,
     "drift inequality violated in round 0 (slack nan)"),
]


@pytest.mark.parametrize("target,fake,message", [case[1:] for case in _BROKEN_GUARANTEES],
                         ids=[case[0] for case in _BROKEN_GUARANTEES])
def test_cli_run_verification_failure_exits_4(tmp_path, monkeypatch, capsys,
                                               target, fake, message):
    monkeypatch.setattr(lyap, target, fake)
    assert cli.main(["run", "--config", str(small_config(tmp_path))]) == cli.EXIT_VERIFY
    err = capsys.readouterr().err
    assert err.startswith("verification failed:") and message in err


def test_cli_verify_bounds_drift_violation_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(lyap, "drift_gap", lambda *args: -1.0)
    assert cli.main(["verify-bounds", "--v-grid", "1"]) == cli.EXIT_VERIFY
    assert "drift inequality" in capsys.readouterr().err


@pytest.mark.parametrize("shares,message", [
    ([0.1, 0.9], "selected client below the bandwidth floor"),
    ([0.3, 0.3], "selected shares must sum to one"),
])
def test_cli_run_broken_share_rules_exit_4(tmp_path, monkeypatch, capsys, shares, message):
    # a policy whose shares break the floor (0.2 here) or the simplex equality
    # fails the run's share check, which is a verification failure
    path = tmp_path / "floor.json"
    path.write_text(json.dumps({"system": {"num_clients": 8, "num_rounds": 4, "min_ratio": 0.2},
                                "output": {"dir": str(tmp_path / "out")}}))
    monkeypatch.setattr(scheduler, "_fill",
                        lambda ctx, upload, slack: np.array(shares + [0.0] * 6))
    assert cli.main(["run", "--config", str(path), "--policy", "Greedy"]) == cli.EXIT_VERIFY
    assert capsys.readouterr().err == f"verification failed: {message}\n"


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))


def _fuzz_config(rng: np.random.Generator, out: Path) -> dict:
    """A valid config drawn from wide ranges: 1-30 clients, 1-3 times 1-3 rounds,
    and log-uniform floors, budgets, gain ranges, model sizes, bandwidths and V."""
    num_rounds = int(rng.integers(1, 4)) * int(rng.integers(1, 4))
    gain_lo = _log_uniform(rng, 1e-16, 1e-6)
    return {
        "system": {"num_clients": int(rng.integers(1, 31)), "num_rounds": num_rounds,
                   "min_ratio": _log_uniform(rng, 1e-6, 1.0),
                   "bandwidth": _log_uniform(rng, 1e3, 1e10)},
        "scenario": {"energy_budget": _log_uniform(rng, 1e-6, 1e3),
                     "gain_sq": [gain_lo, gain_lo * _log_uniform(rng, 1.0, 1e4)],
                     "model_size": _log_uniform(rng, 1e2, 1e8)},
        "policy": {"penalty": _log_uniform(rng, 1e-12, 1e12),
                   "random_fraction": float(rng.uniform(0.0, 1.0)) or 1.0,
                   "latency_cap": _log_uniform(rng, 1e-3, 1e3)},
        "output": {"dir": str(out)},
    }


FUZZ_CONFIGS = 120


def test_cli_run_fuzz_exits_0_or_3(tmp_path, capsys):
    # every drawn config is valid, so each run completes (0) or is infeasible (3):
    # an exit 2 is a validation gap, an exit 4 a broken guarantee
    rng = np.random.default_rng(0)
    path = tmp_path / "fuzz.json"
    failures = []
    for _ in range(FUZZ_CONFIGS):
        doc = _fuzz_config(rng, tmp_path / "out")
        seed = str(int(rng.integers(0, 1000)))
        path.write_text(json.dumps(doc))
        for kind in POLICY_KINDS:
            argv = ["run", "--config", str(path), "--seed", seed, "--policy", kind]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    code = cli.main(argv)
                except Exception as exc:  # an escape is what this test reports
                    code = repr(exc)
            err = capsys.readouterr().err
            if code not in (cli.EXIT_OK, cli.EXIT_INFEASIBLE):
                failures.append((kind, seed, code, err, doc))
    assert not failures


def _infeasible(*args):
    raise Infeasible("found while the config was read")


@pytest.mark.parametrize("target", ["checked", "Scenario"])
def test_cli_infeasible_inside_a_config_handler_exits_3(tmp_path, monkeypatch, capsys, target):
    # parse_config and build_scenario turn a ValueError into a ConfigError (exit 2);
    # an infeasible instance is not one, wherever it is found
    monkeypatch.setattr(harness, target, _infeasible)
    assert cli.main(["run", "--config", str(small_config(tmp_path))]) == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err == "infeasible: found while the config was read\n"


def test_cli_no_converge_exits_3(tmp_path, monkeypatch, capsys):
    path = small_config(tmp_path)
    monkeypatch.setattr(bw, "MAX_NEWTON", 1)
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("solver did not converge:") and err.count("\n") == 1


def _no_run(*args, **kwargs):
    raise AssertionError("a run started despite a bad command-line number")


@pytest.mark.parametrize("argv", [
    ["sweep-v", "--v-grid", "0"], ["sweep-v", "--v-grid", "nan"],
    ["sweep-v", "--v-grid", "inf"], ["sweep-v", "--v-grid", "1,-1"],
    ["verify-bounds", "--v-grid", "0"], ["verify-bounds", "--v-grid", "nan"],
    ["verify-bounds", "--grid-step", "0"], ["verify-bounds", "--grid-step", "nan"],
    ["verify-bounds", "--grid-step", "-1"], ["verify-bounds", "--grid-step", "inf"],
    ["compare", "--target-avg", "nan"], ["compare", "--target-avg", "inf"],
    ["calibrate", "--policy", "PEDPC", "--target-avg", "nan"],
    ["calibrate", "--policy", "FedCS", "--target-avg=-inf"],
    ["run", "--policy", "Random"], ["run", "--policy", "FedCS"],
], ids=" ".join)
def test_cli_bad_numbers_exit_2(tmp_path, monkeypatch, capsys, argv):
    # small_config sets neither random_fraction nor latency_cap
    if argv[0] != "verify-bounds":
        argv = argv + ["--config", str(small_config(tmp_path))]
    monkeypatch.setattr(harness, "run_policy", _no_run)
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "sweep-v", "calibrate", "compare",
                                     "verify-bounds"])
def test_cli_negative_seed_exits_2(tmp_path, monkeypatch, capsys, command):
    extra = {"sweep-v": ["--v-grid", "1"], "calibrate": ["--policy", "FedCS", "--target-avg", "4"]}
    argv = [command, "--seed", "-1", *extra.get(command, [])]
    if command != "verify-bounds":
        argv += ["--config", str(small_config(tmp_path))]
    monkeypatch.setattr(harness, "run_policy", _no_run)
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed" in err and "-1" in err


def test_frame_keys_do_not_change_a_run(tmp_path, capsys):
    # no run reads frame_len or num_frames: the smoke system without them, with
    # a pair that splits its 12 rounds (4 x 3) and with one that does not
    # (7 x 5) writes the same CSV, summary JSON and stdout
    outputs = []
    for frames in ({}, {"frame_len": 4, "num_frames": 3}, {"frame_len": 7, "num_frames": 5}):
        path = tmp_path / "frames.json"
        path.write_text(json.dumps({**SMOKE, "system": {**SMOKE["system"], **frames}}))
        csv = tmp_path / f"run_{len(outputs)}.csv"
        assert cli.main(["run", "--config", str(path), "--seed", "1", "--out", str(csv)]) == \
            cli.EXIT_OK
        outputs.append((capsys.readouterr(), csv.read_bytes(),
                        csv.with_suffix(".summary.json").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_run_policy_changes_only_the_kind(tmp_path, monkeypatch):
    path = small_config(tmp_path, kind="Greedy", latency_cap=20)
    real, seen = harness.run_policy, []

    def spy(scenario, policy):
        seen.append(policy)
        return real(scenario, policy)

    monkeypatch.setattr(harness, "run_policy", spy)
    for kind in ("PEDPC", "FedCS"):
        assert cli.main(["run", "--config", str(path), "--seed", "1",
                         "--policy", kind]) == cli.EXIT_OK
    assert seen == [PolicySpec("PEDPC", latency_cap=20, penalty=0.5),
                    PolicySpec("FedCS", latency_cap=20, penalty=0.5)]
    assert (tmp_path / "out" / "PEDPC_1_0.5.csv").exists()


def test_cli_run_policy_reads_the_config_once(tmp_path, monkeypatch):
    path = small_config(tmp_path)
    real, paths = harness.load_config, []

    def spy(config_path):
        paths.append(config_path)
        return real(config_path)

    monkeypatch.setattr(harness, "load_config", spy)
    assert cli.main(["run", "--config", str(path), "--seed", "1",
                     "--policy", "Greedy"]) == cli.EXIT_OK
    assert paths == [str(path)]
    assert (tmp_path / "out" / "Greedy_1_0.5.csv").exists()


def test_calibrate_draws_each_round_once_across_its_probes(tmp_path, monkeypatch):
    # every probe runs on one scenario: only the first draws the channel
    path = tmp_path / "full.json"
    path.write_text("{}")
    draws, probes = [], []
    real_draw, real_run = simenv.sample_round, harness.run_policy

    def draw(spec, round_index, population):
        draws.append(round_index)
        return real_draw(spec, round_index, population)

    def run(scenario, policy):
        probes.append(policy)
        return real_run(scenario, policy)

    monkeypatch.setattr(simenv, "sample_round", draw)
    monkeypatch.setattr(harness, "run_policy", run)
    calibrate(path, "FedCS", 40, seed=1)
    assert len(probes) > 1
    assert draws == list(range(300))


@pytest.mark.parametrize("step", ["2", "0.75"])
def test_cli_verify_bounds_rejects_single_point_grid(monkeypatch, capsys, step):
    # cli.VERIFY_CASE: 3 clients at a 0.1 floor span 1 - 3 * 0.1 = 0.7 of free band
    monkeypatch.setattr(harness, "run_policy", _no_run)
    assert cli.main(["verify-bounds", "--v-grid", "1", "--grid-step", step]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--grid-step" in err


@pytest.mark.parametrize("step", ["1e-300", "1e-4"])
def test_cli_verify_bounds_too_fine_grid_exits_3(monkeypatch, capsys, step):
    # the share lattice is counted before it is built: 1e-4 would be 7,001 x 7,001
    # points for 3 clients, 1e-300 more than any array can hold
    monkeypatch.setattr(harness, "run_policy", _no_run)
    assert cli.main(["verify-bounds", "--v-grid", "1", "--grid-step", step]) == \
        cli.EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible: share grid for ") and "exceeds 5000000 points" in err


_ROWS = {case.id: case for case in CASES}


# The tests below hold the rows of cli_cases that they run to what each test
# checked before those rows existed: no RuntimeWarning, and the summary's values.

@pytest.mark.parametrize("row,message", [
    ("run-huge-budget", "drift constant overflows the float range"),
    ("run-subnormal-floor", "worst-case round energy is unbounded"),
    ("run-tiny-noise", "rate coefficient overflows the float range"),
    ("run-huge-data", "drift constant overflows the float range"),
], ids=["budget-1e160", "floor-1e-310", "noise-5e-324", "data-1e308"])
def test_cli_run_overflowing_drift_constant_exits_3(tmp_path, row, message):
    code, _, err = run_in_process(_ROWS[row], tmp_path)
    assert code == cli.EXIT_INFEASIBLE and err == f"infeasible: {message}\n"


@pytest.mark.parametrize("penalty,message", [
    ("1e308", "allocator objective leaves the float range"),
    ("1e-308", "Newton system leaves the float range"),
], ids=["1e308", "1e-308"])
def test_cli_run_penalty_at_the_float_edges(tmp_path, penalty, message):
    code, _, err = run_in_process(_ROWS[f"run-penalty-{penalty}"], tmp_path)
    assert code == cli.EXIT_INFEASIBLE and err == f"solver did not converge: {message}\n"


@pytest.mark.parametrize("policy", ["PEDPC"])
def test_cli_run_subnormal_floor_with_finite_drift_runs(tmp_path, policy):
    code, out, _ = run_in_process(_ROWS["run-tiny-floor"], tmp_path)
    assert code == cli.EXIT_OK and json.loads(out)["policy"] == policy


@pytest.mark.parametrize("row,named", [("run-missing-config", "config.json"),
                                       ("run-smoke-out-is-a-directory", ".")],
                         ids=["missing_config", "out_is_a_directory"])
def test_cli_unreadable_config_or_unwritable_output_exits_2(tmp_path, row, named):
    code, _, err = run_in_process(_ROWS[row], tmp_path)
    assert code == cli.EXIT_CONFIG
    assert err.startswith("config error:") and named in err and "Traceback" not in err


@pytest.mark.parametrize("seed", ["1"])
def test_cli_run_at_the_floor_capacity_edge(tmp_path, seed):
    # at most two clients fit, and selection must not offer the allocator a third
    case = _ROWS["run-edge"]
    assert case.argv[-2:] == ["--seed", seed]
    code, out, _ = run_in_process(case, tmp_path)
    assert code == cli.EXIT_OK and json.loads(out)["avg_selected"] <= 2


def test_cli_run_deficit_bound_at_large_energies_exits_0(tmp_path):
    code, out, err = run_in_process(_ROWS["run-deficit-rounding"], tmp_path)
    assert code == cli.EXIT_OK and err == "" and json.loads(out)["avg_selected"] == 20.0


def test_sweep_v_row_where_v_matters_writes_four_different_runs(tmp_path):
    # backlogs build on this row's budget, so each penalty weight decides differently
    code, _, _ = run_in_process(_ROWS["sweep-v-tight-budget"], tmp_path)
    runs = [path.read_bytes() for path in (tmp_path / "out").glob("PEDPC_1_*.csv")]
    assert code == cli.EXIT_OK and len(runs) == 4 and len(set(runs)) == 4


@pytest.mark.parametrize("step", ["0.05"])
def test_cli_verify_bounds_runs_grid_with_choice(capsys, step):
    # 0.05 is the default step, which the row verify-bounds runs without the flag
    assert cli.main(["verify-bounds", "--v-grid", "1", "--grid-step", step]) == cli.EXIT_OK
    assert capsys.readouterr().out == _ROWS["verify-bounds"].stdout


@pytest.mark.parametrize("argv,written", [
    (["sweep-v", "--v-grid", "0.1,1"], ("sweep_1.csv", harness.SWEEP_HEADER, 2)),
    (["compare", "--target-avg", "4"], ("compare_1.csv", harness.COMPARE_HEADER, 5)),
    (["calibrate", "--policy", "PEDPC", "--target-avg", "4"], None),
    (["calibrate", "--policy", "Random", "--target-avg", "4"], None),
    (["calibrate", "--policy", "FedCS", "--target-avg", "4"], None),
    (["verify-bounds", "--v-grid", "1"], None),
], ids=["sweep-v", "compare", "calibrate-PEDPC", "calibrate-Random", "calibrate-FedCS",
        "verify-bounds"])
def test_cli_commands(tmp_path, capsys, argv, written):
    if argv[0] != "verify-bounds":
        argv = argv + ["--config", str(small_config(tmp_path)), "--seed", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out
    if written is not None:
        name, header, rows = written
        lines = (tmp_path / "out" / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + rows


def _fresh_run_policy(scenario, policy):
    """A run on a Scenario built for it alone, ignoring the shared one."""
    return run_policy(Scenario(scenario.spec), policy)


def test_compare_runs_each_policy_knob_once(tmp_path, monkeypatch):
    path = small_config(tmp_path)
    real, seen = harness.run_policy, []

    def spy(scenario, policy):
        seen.append(policy)
        return real(scenario, policy)

    monkeypatch.setattr(harness, "run_policy", spy)
    rows = compare_policies(path, seed=1, target_avg=4)
    assert len(seen) == len(set(seen))
    assert {policy.kind for policy in seen} == set(POLICY_KINDS)
    assert [s.policy for _, s in rows] == list(POLICY_KINDS)
    # the table is what a fresh run of each row's (policy, knob) writes
    scenario = harness.build_scenario(load_config(path), 1)
    knobs = {"PEDPC": "penalty", "Random": "random_fraction", "FedCS": "latency_cap"}
    lines = [harness.COMPARE_HEADER]
    for knob, row in rows:
        field = {knobs[row.policy]: knob} if row.policy in knobs else {}
        s = harness._summary(scenario, PolicySpec(row.policy, **field))
        assert s.to_dict() == row.to_dict()
        lines.append(",".join([row.policy, "" if knob is None else harness._fmt(knob)]
                              + [harness._fmt(x) for x in (s.avg_selected, s.total_latency_s,
                                                           s.energy_overflow_j, s.total_phi)]))
    assert (tmp_path / "out" / "compare_1.csv").read_text() == "\n".join(lines) + "\n"


def test_shared_scenario_matches_fresh_scenarios(tmp_path, monkeypatch):
    path = small_config(tmp_path)

    def results():
        return (calibrate(path, "FedCS", 4, seed=1), calibrate(path, "PEDPC", 7, seed=1),
                [s.to_dict() for s in sweep_v(path, [0.01, 1.0], seed=1)],
                [(knob, s.to_dict()) for knob, s in compare_policies(path, seed=1, target_avg=4)])

    shared = results()
    monkeypatch.setattr(harness, "run_policy", _fresh_run_policy)
    assert results() == shared


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_run_experiment_row_count_and_summary(tmp_path):
    path = small_config(tmp_path)
    out = tmp_path / "run.csv"
    summary = run_experiment(path, seed=1, output_path=out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == harness.CSV_HEADER
    assert len(lines) == 1 + 12  # header plus one row per round
    sidecar = json.loads(out.with_suffix(".summary.json").read_text())
    assert sidecar["policy"] == "PEDPC"
    assert summary.avg_cost == pytest.approx(sidecar["avg_cost"])
    # the sidecar is the summary's fields, by name
    assert set(sidecar) == {"policy", "seed", "avg_selected", "total_latency_s", "avg_cost",
                            "energy_overflow_j", "total_phi", "per_client_totals_j"}
    assert sidecar.pop("per_client_totals_j") == summary.per_client_totals_j.tolist()
    for name, value in sidecar.items():
        assert value == getattr(summary, name), name


def test_table_headers_name_summary_fields():
    # each aggregate column of the sweep and comparison tables is read by its name
    fields = [f.name for f in dataclasses.fields(harness.ExperimentSummary)]
    v, *sweep = harness.SWEEP_HEADER.split(",")
    policy, knob, *compare = harness.COMPARE_HEADER.split(",")
    assert (v, policy, knob) == ("v", "policy", "knob")
    assert sweep and set(sweep) <= set(fields)
    assert compare and set(compare) <= set(fields)


def test_run_experiment_select_all_counts(tmp_path):
    path = small_config(tmp_path, kind="SelectAll")
    out = tmp_path / "sa.csv"
    run_experiment(path, seed=1, output_path=out)
    rows = out.read_text().strip().split("\n")[1:]
    assert all(int(r.split(",")[3]) == 8 for r in rows)


def test_run_experiment_random_exact_count(tmp_path):
    path = small_config(tmp_path, kind="Random", random_fraction=0.5)
    summary = run_experiment(path, seed=2, output_path=tmp_path / "r.csv")
    assert summary.avg_selected == 4.0


def test_summary_avg_cost_matches_rows(tmp_path):
    path = small_config(tmp_path)
    out = tmp_path / "c.csv"
    summary = run_experiment(path, seed=1, output_path=out)  # PEDPC selects every round
    costs = [float(r.split(",")[6]) for r in out.read_text().strip().split("\n")[1:]]
    assert any(costs)  # an all-zero cost column would match any mean of zeros
    assert summary.avg_cost == pytest.approx(np.mean(costs), abs=1e-12)


@pytest.mark.parametrize("kind", ["PEDPC", "Greedy"])
def test_rounds_csv_agrees_with_its_trace(tmp_path, monkeypatch, kind):
    # utility outweighs latency and budgets are tight, so both policies select,
    # queue up backlog and (PEDPC) overflow
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "system": {**SMOKE["system"], "accuracy_coeff": 1e-6},
        "scenario": {"energy_budget": 0.02}, "policy": {"kind": kind}}))
    real, traces = harness.run_policy, []

    def spy(scenario, policy):
        traces.append(real(scenario, policy))
        return traces[-1]

    monkeypatch.setattr(harness, "run_policy", spy)
    out = tmp_path / "run.csv"
    summary = run_experiment(path, seed=2, output_path=out)
    (trace,) = traces
    header, *rows = out.read_text().splitlines()
    cells = [row.split(",") for row in rows]
    col = {name: np.array([float(c[i]) for c in cells])
           for i, name in enumerate(header.split(",")) if name != "policy"}
    assert {c[1] for c in cells} == {kind}
    assert np.array_equal(col["round"], np.arange(12))
    assert np.array_equal(col["n_selected"], trace.records["n_selected"])
    assert np.array_equal(col["latency_s"], trace.records["latency"])
    assert np.array_equal(col["phi"], trace.records["phi"])
    assert np.array_equal(col["cost"], col["latency_s"] - col["phi"])
    assert np.array_equal(col["cum_latency_s"], np.cumsum(col["latency_s"]))
    assert np.array_equal(col["cum_cost"], np.cumsum(col["cost"]))
    assert np.allclose(col["queue_l2"], np.linalg.norm(trace.backlog_trace[1:], axis=1),
                       rtol=1e-12, atol=0)
    spent = np.cumsum(trace.energies, axis=0)
    budget = harness.build_scenario(load_config(path), 2).population.energy_budget
    assert np.allclose(col["energy_overflow_j"],
                       [sum(max(e - h, 0.0) for e, h in zip(row, budget)) for row in spent],
                       rtol=1e-12, atol=0)
    assert col["energy_overflow_j"][-1] == summary.energy_overflow_j
    assert col["n_selected"].any() and col["queue_l2"].any()
    assert (col["energy_overflow_j"][-1] > 0) == (kind == "PEDPC")
    assert summary.avg_cost == np.mean(col["cost"])


# on the smoke config: per-round selected counts, then total_latency_s, avg_cost,
# energy_overflow_j and total_phi (tolerances, not hashes, because exp and log may
# differ by an ulp across platforms)
RUN_PIN = {
    "PEDPC": ([6] * 12, 2.9938366918779455, -0.1069156686988564, 0.0, 4.276824716264223),
    "SelectAll": ([8] * 12, 11.516220078493449, 0.4844822602895404, 0.0, 5.7024329550189625),
    "Random": ([4] * 12, 8.843474365204376, 0.4993548239745744, 0.0, 2.8512164775094813),
    "Greedy": ([8] * 12, 12.281402938092837, 0.5482474985894895, 0.0, 5.7024329550189625),
    "FedCS": ([8] * 12, 12.281402938092837, 0.5482474985894895, 0.0, 5.7024329550189625),
}


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_policy_run_pin(kind):
    cfg = parse_config(SMOKE)
    scenario = harness.build_scenario(cfg, 1)
    trace = run_policy(scenario, dataclasses.replace(cfg.policy, kind=kind))
    summary = harness.summarize(trace, harness.round_columns(
        trace, scenario.population.energy_budget))
    selected, *totals = RUN_PIN[kind]
    assert trace.records["n_selected"].tolist() == selected
    assert [summary.total_latency_s, summary.avg_cost, summary.energy_overflow_j,
            summary.total_phi] == pytest.approx(totals, rel=1e-12, abs=0)


@pytest.mark.parametrize("kind,doc", [*((kind, SMOKE) for kind in POLICY_KINDS),
                                      ("Greedy", {})], ids=[*POLICY_KINDS, "Greedy-full"])
def test_queue_l2_is_each_backlog_rows_norm_bit_for_bit(kind, doc):
    # the CSV's backlog norm comes from the squared norm the run recorded
    cfg = parse_config(doc)
    scenario = harness.build_scenario(cfg, 1)
    trace = run_policy(scenario, dataclasses.replace(cfg.policy, kind=kind))
    got = harness.round_columns(trace, scenario.population.energy_budget)["queue_l2"]
    want = np.array([np.linalg.norm(row) for row in trace.backlog_trace[1:]])
    assert got.tobytes() == want.tobytes()
    assert len(got) == scenario.config.num_rounds


def test_byte_identical_reruns(tmp_path):
    path = small_config(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_experiment(path, seed=9, output_path=a)
    run_experiment(path, seed=9, output_path=b)
    assert a.read_bytes() == b.read_bytes()


def test_default_output_naming(tmp_path):
    path = small_config(tmp_path)
    run_experiment(path, seed=4)
    expected = tmp_path / "out" / "PEDPC_4_0.5.csv"
    assert expected.exists()


def test_sweep_v_outputs(tmp_path):
    path = small_config(tmp_path)
    summaries = sweep_v(path, [0.01, 1.0], seed=1)
    assert len(summaries) == 2
    sweep_csv = tmp_path / "out" / "sweep_1.csv"
    lines = [harness.SWEEP_HEADER]
    for v, s in zip([0.01, 1.0], summaries):
        lines.append(",".join(harness._fmt(x) for x in (v, s.avg_selected, s.total_latency_s,
                                                        s.avg_cost, s.energy_overflow_j,
                                                        s.total_phi)))
    assert sweep_csv.read_text() == "\n".join(lines) + "\n"
    for bad in ([], [0.0], [float("nan")], [1.0, float("inf")]):
        with pytest.raises(ValueError):
            sweep_v(path, bad, seed=1)


def test_sweep_v_rejects_colliding_file_names(tmp_path, monkeypatch, capsys):
    # both weights print as V=1, so the second run would overwrite the first's files
    path = small_config(tmp_path)
    monkeypatch.setattr(harness, "run_policy", _no_run)
    with pytest.raises(ConfigError, match=r"1\.0000001 and 1\.0000002"):
        sweep_v(path, [1.0000001, 1.0000002], seed=1)
    assert cli.main(["sweep-v", "--config", str(path), "--v-grid",
                     "1.0000001,1.0000002"]) == cli.EXIT_CONFIG
    assert "1.0000001" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_calibrate_random_exact(tmp_path):
    path = small_config(tmp_path)
    assert calibrate(path, "Random", 4, seed=0) == pytest.approx(0.5)
    with pytest.raises(Infeasible):
        calibrate(path, "Random", 0, seed=0)
    with pytest.raises(ValueError):
        calibrate(path, "Greedy", 4, seed=0)


def test_calibrate_random_meets_the_floor_as_its_run_does(tmp_path, capsys):
    # pedpc_floor: a 5% floor admits 20 of the 100 clients, so a target of 40
    # is the fraction 0.4 whose run is infeasible; 20 is the largest sample
    path = tmp_path / "floor.json"
    path.write_text(json.dumps({**PEDPC_FLOOR, "output": {"dir": str(tmp_path / "out")}}))
    message = "infeasible: equal split over the sample falls below the floor\n"
    argv = ["--config", str(path), "--policy", "Random", "--seed", "1"]
    assert cli.main(["calibrate", *argv, "--target-avg", "40"]) == cli.EXIT_INFEASIBLE
    assert capsys.readouterr() == ("", message)
    assert calibrate(path, "Random", 20, seed=1) == 0.2
    path.write_text(json.dumps({**PEDPC_FLOOR, "policy": {"random_fraction": 0.4},
                                "output": {"dir": str(tmp_path / "out")}}))
    assert cli.main(["run", *argv]) == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


def test_calibrate_fedcs_saturation(tmp_path):
    # every client feasible at a huge cap: target = everyone is reachable
    path = small_config(tmp_path)
    t_max = calibrate(path, "FedCS", 8, seed=1)
    summary = run_experiment(path, policy=PolicySpec("FedCS", latency_cap=t_max),
                             seed=1, output_path=tmp_path / "f.csv")
    assert abs(summary.avg_selected - 8) <= 2


def test_calibrate_reports_a_bisection_that_never_lands(tmp_path, monkeypatch, capsys):
    # a count that jumps across the tolerance band at V = 1 brackets the target, yet no
    # probe lands in the band: the two bracket ends and 60 bisections, then Infeasible.
    # A count not monotone in V can do this for real.
    path = small_config(tmp_path)
    probes = []

    def summary(scenario, policy, csv_path=None):
        probes.append(policy.penalty)
        return SimpleNamespace(avg_selected=20 + (3 if policy.penalty >= 1 else -3))

    monkeypatch.setattr(harness, "_summary", summary)
    with pytest.raises(Infeasible, match="^bisection failed to reach the target$"):
        calibrate(path, "PEDPC", 20, seed=1)
    assert len(probes) == 62 and probes[:2] == [1e-6, 1e4]
    probes.clear()
    assert cli.main(["calibrate", "--config", str(path), "--policy", "PEDPC",
                     "--target-avg", "20"]) == cli.EXIT_INFEASIBLE
    assert capsys.readouterr() == ("", "infeasible: bisection failed to reach the target\n")
    assert len(probes) == 62


def _tiny(**overrides) -> HarnessConfig:
    """cli.VERIFY_CASE with some of its overrides replaced."""
    return HarnessConfig(overrides={**cli.VERIFY_CASE.overrides, **overrides})


def test_tiny_case_guard(monkeypatch):
    # the size limit is the lookahead's, the whole-frame check the bound's own;
    # both stop verify_bounds before the online run starts
    monkeypatch.setattr(harness, "run_policy", _no_run)
    with pytest.raises(Infeasible):
        verify_bounds(_tiny(num_clients=4), cli.VERIFY_FRAME_ROUNDS, 0, [1.0], 0.05)
    with pytest.raises(ConfigError, match="^4 rounds do not split into frames of 3$"):
        verify_bounds(cli.VERIFY_CASE, 3, 0, [1.0], 0.05)


def test_verify_bounds_trivial_client():
    # a client that is never worth selecting: both sides of the cost bound
    # are trivially satisfied (lhs = 0 <= rhs)
    tiny = _tiny(num_clients=1, num_rounds=2, accuracy_coeff=1e-12)
    [report] = verify_bounds(tiny, 1, 0, [1.0], 0.05)
    assert report.lhs_cost == 0.0
    assert report.theorem2_ok
    assert report.energy_bound_ok.all()


def test_verify_bounds_small():
    [report] = verify_bounds(cli.VERIFY_CASE, cli.VERIFY_FRAME_ROUNDS, 2, [1.0], 0.05)
    assert report.theorem2_ok
    assert report.energy_bound_ok.all()
    assert report.lhs_cost <= report.theorem2_rhs + 1e-9


@pytest.mark.parametrize("overrides,frame_rounds", [
    ({}, 2),
    ({"num_clients": 2, "num_rounds": 6, "energy_budget": 0.01}, 3),
    ({"energy_budget": 0.003}, 2),
    ({"min_ratio": 0.4}, 2),
], ids=["verify-case", "two-clients-three-rounds", "tight-budget", "cap-two-of-three"])
def test_frame_lookahead_matches_product_enumeration(overrides, frame_rounds):
    # on seed 0 the energy cap binds in the tight cases: it raises their optimum;
    # a 40% floor admits two of three clients, so the full set is skipped
    scenario = harness.build_scenario(_tiny(**overrides), 0)
    for frame in range(scenario.config.num_rounds // frame_rounds):
        assert harness._frame_lookahead(scenario, frame_rounds, frame, 0.1) == \
            lookahead_oracle(scenario, frame_rounds, frame, 0.1)


def test_verify_bounds_computes_each_frame_once(monkeypatch):
    calls = []
    lookahead = harness._frame_lookahead

    def counted(scenario, frame_rounds, frame_index, grid_step):
        calls.append((frame_rounds, frame_index))
        return lookahead(scenario, frame_rounds, frame_index, grid_step)

    monkeypatch.setattr(harness, "_frame_lookahead", counted)
    reports = verify_bounds(cli.VERIFY_CASE, cli.VERIFY_FRAME_ROUNDS, 0, [0.1, 1.0, 10.0], 0.05)
    assert [r.penalty_weight for r in reports] == [0.1, 1.0, 10.0]
    assert calls == [(2, 0), (2, 1)]  # 4 rounds in frames of 2
    assert len({r.lookahead_opt for r in reports}) == 1


def test_cli_csv_determinism(tmp_path):
    path = small_config(tmp_path)
    env_cmd = [sys.executable, "-m", "flsched.cli"]
    a = tmp_path / "x.csv"
    b = tmp_path / "y.csv"
    for target in (a, b):
        out = subprocess.run(env_cmd + ["run", "--config", str(path), "--seed", "2",
                                        "--out", str(target)],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
    assert a.read_bytes() == b.read_bytes()
