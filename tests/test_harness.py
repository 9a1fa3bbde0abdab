import dataclasses
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flsched import bandwidth as bw
from flsched import cli, harness, scheduler
from flsched import lyapunov as lyap
from flsched.errors import ConfigError, Infeasible
from flsched.harness import (HarnessConfig, calibrate, compare_policies, load_config,
                             parse_config, run_experiment, sweep_v, verify_bounds)
from flsched.model import Population, SystemConfig
from flsched.scheduler import POLICY_KINDS, PolicySpec, run_policy
from flsched.simenv import DEFAULTS, IID, NONIID, Range, Scenario

from oracles import lookahead_oracle


def small_config(tmp_path: Path, **policy) -> Path:
    doc = {
        "system": {"num_clients": 8, "num_rounds": 12, "frame_len": 4,
                   "num_frames": 3, "min_ratio": 0.05},
        "scenario": {"mode": "IID"},
        "policy": {"penalty": 0.5, **(policy or {"kind": "PEDPC"})},
        "output": {"dir": str(tmp_path / "out")},
    }
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


def _bad_per_client_cases():
    # NaN fails the JSON number check first; a range's bounds are checked before any draw
    for name in [f.name for f in dataclasses.fields(Population)]:
        for value in (0, -1, float("nan")):
            is_range = isinstance(DEFAULTS[name], Range)
            given = [value, value] if is_range else value
            message = f"{name} must be finite, got nan" if np.isnan(value) else \
                f"{name} range must be positive and ordered" if is_range else \
                f"{name} must be strictly positive"
            yield pytest.param({name: given}, message, id=f"{name}-{value}")
    yield pytest.param({"mode": NONIID, "data_size_choices": [2.4e6, 0.0]},
                       "data_size_choices entries must be positive", id="data_size_choices-0")
    yield pytest.param({"local_iters": 2.5}, "local_iters must be an integer, got 2.5",
                       id="local_iters-2.5")


@pytest.mark.parametrize("scenario,message", list(_bad_per_client_cases()))
def test_cli_bad_per_client_value_exits_2(tmp_path, capsys, scenario, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": scenario}))
    assert cli.main(["run", "--config", str(path), "--seed", "1"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("doc,message", [
    ({"scenario": {"cpu_freq": [0, 1e9]}}, "cpu_freq range must be positive and ordered"),
    ({"system": {"num_clients": 1, "num_rounds": 2, "frame_len": 1, "num_frames": 2},
      "scenario": {"mode": NONIID, "data_size_choices": [-1, 3.6e6]}},
     "data_size_choices entries must be positive"),
], ids=["cpu_freq", "data_size_choices"])
def test_cli_bad_drawn_bound_exits_2_on_every_seed(tmp_path, capsys, seed, doc, message):
    # a bound that only some draws would hit fails before any draw, on every seed
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**doc, "output": {"dir": str(tmp_path / "out")}}))
    assert cli.main(["run", "--config", str(path), "--seed", str(seed)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_cli_negative_client_count_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"system": {"num_clients": -1}}))
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: need at least one client\n"


@pytest.mark.parametrize("doc,key", [
    ({"scenario": {"local_iters": 1e20}}, "local_iters"),
    ({"system": {"num_rounds": 1e20, "frame_len": 1e20, "num_frames": 1}}, "num_rounds"),
    ({"system": {"num_clients": 1e20}}, "num_clients"),
], ids=["local_iters", "num_rounds", "num_clients"])
def test_cli_integer_beyond_int64_exits_2(tmp_path, capsys, doc, key):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({**doc, "output": {"dir": str(tmp_path / "out")}}))
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {key} is out of range\n"
    assert not (tmp_path / "out").exists()


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
        "system": {"num_clients": 8.0, "num_rounds": 12.0, "frame_len": 4.0,
                   "num_frames": 3.0, "min_ratio": 0.05},
        "scenario": {"local_iters": 5.0},
    })
    assert cfg.overrides["local_iters"] == 5 and type(cfg.overrides["local_iters"]) is int
    config = harness.build_scenario(cfg, seed=0).config
    assert (config.num_clients, config.num_rounds, config.frame_len,
            config.num_frames) == (8, 12, 4, 3)


def test_cli_run_nan_bandwidth_is_config_error(tmp_path, capsys):
    path = small_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["system"]["bandwidth"] = float("nan")
    path.write_text(json.dumps(doc))  # written as the JSON extension NaN
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "bandwidth" in capsys.readouterr().err


def _deficit_check_fails(backlog_trace, consumed, budgets):
    return np.zeros(len(budgets), dtype=bool)


# (id, lyapunov function replaced, its fake, expected message); a NaN slack, from
# the drift gap itself or from a NaN backlog, fails the check like a negative one
_BROKEN_GUARANTEES = [
    ("drift_gap", "drift_gap", lambda *args: -1.0, "drift inequality violated in round 0"),
    ("deficit_ok", "deficit_ok", _deficit_check_fails, "deficit lower bound"),
    ("drift_gap-nan", "drift_gap", lambda *args: np.nan,
     "drift inequality violated in round 0 (slack nan)"),
    ("update_queue-nan", "update_queue", lambda backlog, spent, credit: backlog * np.nan,
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
    path.write_text(json.dumps({"system": {"num_clients": 8, "num_rounds": 4, "frame_len": 2,
                                           "num_frames": 2, "min_ratio": 0.2},
                                "output": {"dir": str(tmp_path / "out")}}))
    monkeypatch.setattr(scheduler, "baseline_greedy", lambda ctx: np.array(shares + [0.0] * 6))
    assert cli.main(["run", "--config", str(path), "--policy", "Greedy"]) == cli.EXIT_VERIFY
    assert capsys.readouterr().err == f"verification failed: {message}\n"


# SelectAll at seed 299: every backlog and both sides of the deficit bound reach
# about 2.3e7 J, where the two sides differ by one ulp (3.7e-9 J)
DEFICIT_ROUNDING_CASE = {
    "system": {"num_clients": 20, "num_rounds": 6, "frame_len": 2, "num_frames": 3,
               "min_ratio": 6.6367538581906305e-06, "bandwidth": 10272.682576386149},
    "scenario": {"energy_budget": 377.3808000658412,
                 "gain_sq": [2.2442540853163686e-16, 4.485951770817831e-15],
                 "model_size": 22309469.946381085},
    "policy": {"kind": "SelectAll"},
}


def test_cli_run_deficit_bound_at_large_energies_exits_0(tmp_path, capsys):
    path = tmp_path / "deficit_rounding.json"
    path.write_text(json.dumps({**DEFICIT_ROUNDING_CASE,
                                "output": {"dir": str(tmp_path / "out")}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", "--config", str(path), "--seed", "299"]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["avg_selected"] == 20.0


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))


def _fuzz_config(rng: np.random.Generator, out: Path) -> dict:
    """A valid config drawn from wide ranges: 1-30 clients, 1-3 frames of 1-3 rounds,
    and log-uniform floors, budgets, gain ranges, model sizes, bandwidths and V."""
    frame_len, num_frames = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    gain_lo = _log_uniform(rng, 1e-16, 1e-6)
    return {
        "system": {"num_clients": int(rng.integers(1, 31)),
                   "num_rounds": frame_len * num_frames, "frame_len": frame_len,
                   "num_frames": num_frames, "min_ratio": _log_uniform(rng, 1e-6, 1.0),
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


def test_cli_run_unbounded_worst_case_exits_3(tmp_path, capsys):
    # a gain range reaching 1e-300 leaves a zero worst-case rate: no finite drift
    # constant exists, which is an infeasible instance, not a malformed config
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps({"scenario": {"gain_sq": [1e-300, 1e-9]},
                                "output": {"dir": str(tmp_path / "out")}}))
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_INFEASIBLE
    assert "worst-case round energy is unbounded" in capsys.readouterr().err


_FLOAT_EDGE_SYSTEM = {"num_clients": 3, "num_rounds": 2, "frame_len": 1, "num_frames": 2}


@pytest.mark.parametrize("doc,message", [
    ({"scenario": {"energy_budget": 1e160}, "system": _FLOAT_EDGE_SYSTEM},
     "drift constant overflows the float range"),
    ({"system": {"min_ratio": 1e-310}}, "worst-case round energy is unbounded"),
    ({"system": {**_FLOAT_EDGE_SYSTEM, "noise_power": 5e-324}},
     "rate coefficient overflows the float range"),
    ({"system": {**_FLOAT_EDGE_SYSTEM, "bandwidth": 1e308}},
     "rate coefficient overflows the float range"),
    ({"scenario": {"data_size": 1e308}, "system": _FLOAT_EDGE_SYSTEM},
     "drift constant overflows the float range"),
    ({"scenario": {"cpu_freq": [1e300, 1e300]}, "system": _FLOAT_EDGE_SYSTEM},
     "worst-case round energy is unbounded"),
], ids=["budget-1e160", "floor-1e-310", "noise-5e-324", "bandwidth-1e308", "data-1e308",
        "cpu-1e300"])
def test_cli_run_overflowing_drift_constant_exits_3(tmp_path, capsys, doc, message):
    # a drift constant, worst case, rate or training cost past the float range is
    # infeasible, without a warning
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({**doc, "output": {"dir": str(tmp_path / "out")}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err == f"infeasible: {message}\n"


@pytest.mark.parametrize("penalty,code,err", [
    (1e308, cli.EXIT_INFEASIBLE,
     "solver did not converge: allocator objective leaves the float range\n"),
    (1e-308, cli.EXIT_INFEASIBLE, "solver did not converge: Newton system leaves the float range\n"),
    (1e-315, cli.EXIT_INFEASIBLE, "solver did not converge: Newton system leaves the float range\n"),
    (5e-324, cli.EXIT_OK, ""),
], ids=["1e308", "1e-308", "1e-315", "5e-324"])
def test_cli_run_penalty_at_the_float_edges(tmp_path, capsys, penalty, code, err):
    # a weight whose allocator objective or Newton system leaves the float range
    # does not converge, without a warning; the smallest weight selects nobody
    path = tmp_path / "edge_penalty.json"
    path.write_text(json.dumps({"system": {"num_clients": 20, "num_rounds": 4, "frame_len": 2,
                                           "num_frames": 2},
                                "policy": {"penalty": penalty},
                                "output": {"dir": str(tmp_path / "out")}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", "--config", str(path), "--seed", "1"]) == code
    out, got_err = capsys.readouterr()
    assert got_err == err
    if code == cli.EXIT_OK:
        assert json.loads(out)["avg_selected"] == 0.0


@pytest.mark.parametrize("policy", ["PEDPC", "Greedy", "SelectAll"])
def test_cli_run_subnormal_floor_with_finite_drift_runs(tmp_path, capsys, policy):
    # a floor of 1e-309 admits any population; a tiny upload keeps the drift finite
    path = tmp_path / "tiny_floor.json"
    path.write_text(json.dumps({"system": {**_FLOAT_EDGE_SYSTEM, "min_ratio": 1e-309},
                                "scenario": {"model_size": 1e-300},
                                "output": {"dir": str(tmp_path / "out")}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", "--config", str(path), "--policy", policy]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["policy"] == policy


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


def test_cli_pedpc_section_exits_2(tmp_path, capsys):
    # PEDPC's penalty is a knob of the policy section; there is no pedpc section
    path = small_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["pedpc"] = {"penalty": 0.5}
    path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "pedpc" in capsys.readouterr().err


def _missing_config(tmp_path):
    return ["run", "--config", str(tmp_path / "missing.json")], "missing.json"


def _latin1_config(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"system": {}} \u00e9'.encode("latin-1"))  # a lone 0xe9 byte
    return ["run", "--config", str(path)], "latin1.json"


def _out_is_a_directory(tmp_path):
    return ["run", "--config", str(small_config(tmp_path)), "--out", str(tmp_path)], \
        str(tmp_path)


def _output_dir_under_a_file(tmp_path):
    path = small_config(tmp_path)
    doc = json.loads(path.read_text())
    (tmp_path / "plain").write_text("")
    doc["output"]["dir"] = str(tmp_path / "plain" / "out")
    path.write_text(json.dumps(doc))
    return ["run", "--config", str(path)], str(tmp_path / "plain" / "out")


@pytest.mark.parametrize("case", [_missing_config, _latin1_config, _out_is_a_directory,
                                  _output_dir_under_a_file], ids=lambda f: f.__name__[1:])
def test_cli_unreadable_config_or_unwritable_output_exits_2(tmp_path, capsys, case):
    argv, named = case(tmp_path)
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err and "Traceback" not in err


@pytest.mark.parametrize("seed", ["1", "2"])
def test_cli_run_at_the_floor_capacity_edge(tmp_path, capsys, seed):
    # 1/0.3333333334 lies just below 3, yet 3 * 0.3333333334 > 1 + 1e-12: at most
    # two clients fit, and selection must not offer the allocator a third
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({
        "system": {"num_clients": 10, "num_rounds": 12, "frame_len": 6, "num_frames": 2,
                   "min_ratio": 0.3333333334},
        "output": {"dir": str(tmp_path / "out")}}))
    assert cli.main(["run", "--config", str(path), "--seed", seed]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["avg_selected"] <= 2


@pytest.mark.parametrize("system,message", [
    ({"num_rounds": 12}, "num_rounds 12 != frame_len 30 * num_frames 10"),  # default frames
    ({"num_rounds": 0, "frame_len": 0}, "frame_len and num_frames must be positive"),
], ids=["mismatch", "no-rounds"])
def test_cli_bad_frames_exit_2(tmp_path, capsys, system, message):
    path = tmp_path / "frames.json"
    path.write_text(json.dumps({"system": system}))
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


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


@pytest.mark.parametrize("step", ["0.05", "0.5", "0.7"])
def test_cli_verify_bounds_runs_grid_with_choice(capsys, step):
    assert cli.main(["verify-bounds", "--v-grid", "1", "--grid-step", step]) == cli.EXIT_OK
    assert capsys.readouterr().out.rstrip().endswith("[ok]")


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
                              + [harness._fmt(x) for x in (s.avg_selected, s.total_latency,
                                                           s.energy_overflow, s.total_phi)]))
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
        "system": {"num_clients": 8, "num_rounds": 12, "frame_len": 4, "num_frames": 3,
                   "min_ratio": 0.05, "accuracy_coeff": 1e-6},
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
    assert np.array_equal(col["n_selected"], [rec.n_selected for rec in trace.records])
    assert np.array_equal(col["latency_s"], [rec.latency for rec in trace.records])
    assert np.array_equal(col["phi"], [rec.phi for rec in trace.records])
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
    assert col["energy_overflow_j"][-1] == summary.energy_overflow
    assert col["n_selected"].any() and col["queue_l2"].any()
    assert (col["energy_overflow_j"][-1] > 0) == (kind == "PEDPC")
    assert summary.avg_cost == np.mean(col["cost"])


# the CI smoke config, with every policy's knob set: per-round selected counts, then
# total_latency, avg_cost, energy_overflow and total_phi (tolerances, not hashes,
# because exp and log may differ by an ulp across platforms)
SMOKE_DOC = {"system": {"num_clients": 8, "num_rounds": 12, "frame_len": 4, "num_frames": 3,
                        "min_ratio": 0.05},
             "policy": {"penalty": 0.5, "random_fraction": 0.5, "latency_cap": 20}}
RUN_PIN = {
    "PEDPC": ([6] * 12, 2.993836692361306, -0.10691566865857642, 0.0, 4.276824716264223),
    "SelectAll": ([8] * 12, 11.516220078493449, 0.4844822602895404, 0.0, 5.7024329550189625),
    "Random": ([4] * 12, 8.843474365204376, 0.4993548239745744, 0.0, 2.8512164775094813),
    "Greedy": ([8] * 12, 12.281402938092837, 0.5482474985894895, 0.0, 5.7024329550189625),
    "FedCS": ([8] * 12, 12.281402938092837, 0.5482474985894895, 0.0, 5.7024329550189625),
}


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_policy_run_pin(kind):
    cfg = parse_config(SMOKE_DOC)
    scenario = harness.build_scenario(cfg, 1)
    trace = run_policy(scenario, dataclasses.replace(cfg.policy, kind=kind))
    summary = harness.summarize(trace, harness.round_columns(
        trace, scenario.population.energy_budget))
    selected, *totals = RUN_PIN[kind]
    assert [rec.n_selected for rec in trace.records] == selected
    assert [summary.total_latency, summary.avg_cost, summary.energy_overflow,
            summary.total_phi] == pytest.approx(totals, rel=1e-12, abs=0)


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
    assert sweep_csv.exists()
    assert len(sweep_csv.read_text().strip().split("\n")) == 3
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


def test_calibrate_fedcs_saturation(tmp_path):
    # every client feasible at a huge cap: target = everyone is reachable
    path = small_config(tmp_path)
    t_max = calibrate(path, "FedCS", 8, seed=1)
    summary = run_experiment(path, policy=PolicySpec("FedCS", latency_cap=t_max),
                             seed=1, output_path=tmp_path / "f.csv")
    assert abs(summary.avg_selected - 8) <= 2


def _tiny(**overrides) -> HarnessConfig:
    """cli.VERIFY_CASE with some of its overrides replaced."""
    return HarnessConfig(overrides={**cli.VERIFY_CASE.overrides, **overrides})


def test_tiny_case_guard(monkeypatch):
    # the size limit is the lookahead's, the frame check SystemConfig's; both
    # stop verify_bounds before the online run starts
    monkeypatch.setattr(harness, "run_policy", _no_run)
    with pytest.raises(Infeasible):
        verify_bounds(_tiny(num_clients=4), 0, [1.0], 0.05)
    with pytest.raises(ConfigError, match="frame_len"):
        verify_bounds(_tiny(frame_len=3), 0, [1.0], 0.05)


def test_verify_bounds_trivial_client():
    # a client that is never worth selecting: both sides of the cost bound
    # are trivially satisfied (lhs = 0 <= rhs)
    tiny = _tiny(num_clients=1, num_rounds=2, frame_len=1, num_frames=2,
                 accuracy_coeff=1e-12)
    [report] = verify_bounds(tiny, 0, [1.0], 0.05)
    assert report.lhs_cost == 0.0
    assert report.theorem2_ok
    assert report.energy_bound_ok.all()


def test_verify_bounds_small():
    [report] = verify_bounds(cli.VERIFY_CASE, 2, [1.0], 0.05)
    assert report.theorem2_ok
    assert report.energy_bound_ok.all()
    assert report.lhs_cost <= report.theorem2_rhs + 1e-9


@pytest.mark.parametrize("overrides", [
    {},
    {"num_clients": 2, "num_rounds": 6, "frame_len": 3, "num_frames": 2, "energy_budget": 0.01},
    {"energy_budget": 0.003},
], ids=["verify-case", "two-clients-three-rounds", "tight-budget"])
def test_frame_lookahead_matches_product_enumeration(overrides):
    # on seed 0 the energy cap binds in the last two cases: it raises their optimum
    scenario = harness.build_scenario(_tiny(**overrides), 0)
    for frame in range(scenario.config.num_frames):
        assert harness._frame_lookahead(scenario, frame, 0.1) == \
            lookahead_oracle(scenario, frame, 0.1)


def test_verify_bounds_computes_each_frame_once(monkeypatch):
    calls = []
    lookahead = harness._frame_lookahead

    def counted(scenario, frame_index, grid_step):
        calls.append(frame_index)
        return lookahead(scenario, frame_index, grid_step)

    monkeypatch.setattr(harness, "_frame_lookahead", counted)
    reports = verify_bounds(cli.VERIFY_CASE, 0, [0.1, 1.0, 10.0], 0.05)
    assert [r.penalty_weight for r in reports] == [0.1, 1.0, 10.0]
    assert calls == list(range(cli.VERIFY_CASE.overrides["num_frames"]))
    assert len({r.lookahead_opt for r in reports}) == 1


def test_cli_run_and_exit_codes(tmp_path):
    path = small_config(tmp_path)
    env_cmd = [sys.executable, "-m", "flsched.cli"]
    out = subprocess.run(env_cmd + ["run", "--config", str(path), "--seed", "1"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["policy"] == "PEDPC"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"system": {"nope": 1}}))
    out = subprocess.run(env_cmd + ["run", "--config", str(bad)],
                         capture_output=True, text=True)
    assert out.returncode == 2

    infeasible = tmp_path / "inf.json"
    infeasible.write_text(json.dumps({
        "system": {"num_clients": 8, "num_rounds": 12, "frame_len": 4,
                   "num_frames": 3, "min_ratio": 0.2},
        "policy": {"kind": "SelectAll"},
        "output": {"dir": str(tmp_path / "out")}}))
    out = subprocess.run(env_cmd + ["run", "--config", str(infeasible)],
                         capture_output=True, text=True)
    assert out.returncode == 3

    # barrier tuning is not configurable: the section is unknown, so a
    # mu_growth of 1 (which would never grow t) cannot reach the solver
    stuck = tmp_path / "stuck.json"
    doc = json.loads(path.read_text())
    doc["barrier"] = {"mu_growth": 1.0}
    stuck.write_text(json.dumps(doc))
    out = subprocess.run(env_cmd + ["run", "--config", str(stuck)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "barrier" in out.stderr


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
