"""Command-line behavior: exit codes, outputs, file artifacts."""

import hashlib
import importlib.resources
import json

import pytest

from hdrsim import analytic, read_trace_csv
from hdrsim.cli import ConfigError, _parse_axis, main

FLAT = str(importlib.resources.files("hdrsim") / "data"
           / "harvest_flat_input.csv")


def write_config(path, **overrides):
    cfg = {
        "harvest_rates": [0.8, 0.6],
        "input_rate": 17.5,
        "packet_energy": 0.08,
        "status_energy": 0.01,
        "switch_energy": 0.05,
        "thresholds": [6.2, 5.0],
        "horizon": 400,
    }
    cfg.update(overrides)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def config(tmp_path):
    return write_config(tmp_path / "config.json",
                        out=str(tmp_path / "out"))


def stdout_map(capsys):
    """Parse `key value...` stdout lines into a dict."""
    out = {}
    for line in capsys.readouterr().out.strip().splitlines():
        parts = line.split()
        out[parts[0]] = parts[1:] if len(parts) > 2 else parts[1]
    return out


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_writes_artifacts(config, tmp_path, capsys):
    assert main(["run", "--config", config]) == 0
    got = stdout_map(capsys)
    assert got["slots"] == "400"
    assert float(got["throughput"]) > 0
    assert len(got["per_node_packets"]) == 2
    assert (tmp_path / "out" / "trace.csv").exists()
    assert (tmp_path / "out" / "summary.csv").exists()
    trace = read_trace_csv(tmp_path / "out" / "trace.csv")
    assert len(trace.records) == 400
    header = (tmp_path / "out" / "summary.csv").read_text().splitlines()[0]
    assert header.startswith("slots,packets_total,throughput")


def test_run_respects_cli_overrides(config, tmp_path, capsys):
    assert main(["run", "--config", config, "--horizon", "250",
                 "--packet-mode", "whole"]) == 0
    got = stdout_map(capsys)
    assert got["slots"] == "250"
    trace = read_trace_csv(tmp_path / "out" / "trace.csv")
    assert len(trace.records) == 250
    assert all(float(r.packets) == int(r.packets) for r in trace.records)


def test_run_warns_on_shaky_parameters(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", harvest_rates=[2.0, 0.6],
                       out=str(tmp_path / "out"))
    assert main(["run", "--config", cfg]) == 0
    assert "note:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_missing_config_file(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1


def test_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 1


def test_unknown_config_key(tmp_path):
    assert main(["run", "--config",
                 write_config(tmp_path / "c.json", typo_key=3)]) == 1


def test_missing_required_key(tmp_path):
    assert main(["analytic", "--config",
                 write_config(tmp_path / "c.json", thresholds=None)]) == 1


def test_zero_horizon(tmp_path):
    assert main(["run", "--config",
                 write_config(tmp_path / "c.json", horizon=0)]) == 1


def test_warmup_beyond_horizon(tmp_path):
    assert main(["run", "--config",
                 write_config(tmp_path / "c.json", warmup=400)]) == 1


def test_bad_initial_active(tmp_path):
    assert main(["run", "--config",
                 write_config(tmp_path / "c.json", initial_active=3)]) == 1


@pytest.mark.parametrize("key, value", [
    ("horizon", "200"), ("horizon", 200.5), ("initial_active", "1"),
    ("warmup", None), ("horizon", True), ("profile", True), ("profile", 0),
])
def test_run_key_of_the_wrong_type_is_a_config_error(tmp_path, capsys, key,
                                                      value):
    path = tmp_path / "c.json"
    write_config(path, out=str(tmp_path / "out"))
    # write_config drops None values; this probe needs a JSON null
    cfg = json.loads(path.read_text())
    cfg[key] = value
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 1
    assert f"{key} must" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "analytic"])
@pytest.mark.parametrize("key, value", [
    ("input_rate", "17.5"), ("thresholds", ["6.2", 5.0]),
    ("harvest_rates", [0.8, True]), ("battery_capacity", False),
])
def test_number_of_the_wrong_type_is_a_config_error(tmp_path, capsys,
                                                    command, key, value):
    cfg = write_config(tmp_path / "c.json", out=str(tmp_path / "out"),
                       **{key: value})
    assert main([command, "--config", cfg]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("levels", [5, [True, 50.0], ["1", 2]])
def test_initial_batteries_of_the_wrong_type_is_a_config_error(
        tmp_path, capsys, levels):
    cfg = write_config(tmp_path / "c.json", initial_batteries=levels,
                       out=str(tmp_path / "out"))
    assert main(["run", "--config", cfg]) == 1
    assert "bad initial_batteries" in capsys.readouterr().err


@pytest.mark.parametrize("levels", [["NaN", 50.0], [500.0, -30.0]])
def test_bad_initial_batteries(tmp_path, capsys, levels):
    path = tmp_path / "c.json"
    write_config(path, initial_batteries=levels, out=str(tmp_path / "out"))
    # strict JSON has no NaN, but Python's json module reads the literal
    path.write_text(path.read_text().replace('"NaN"', "NaN"))
    assert main(["run", "--config", str(path)]) == 1
    assert "initial battery level" in capsys.readouterr().err


def test_bad_policy_name(tmp_path):
    assert main(["run", "--config",
                 write_config(tmp_path / "c.json", policy="lru")]) == 1


def test_unknown_subcommand(config, capsys):
    assert main(["explode", "--config", config]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out.lower() or True


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------

def test_analytic_prints_prediction(config, capsys):
    assert main(["analytic", "--config", config]) == 0
    got = stdout_map(capsys)
    assert got["regime"] == "away"
    assert float(got["steady_input_rate"]) == pytest.approx(17.1006, abs=5e-4)
    assert float(got["cycle_length"]) > 0
    assert ":" in got["split"]


def test_analytic_symmetric_three_node_split(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", harvest_rates=[0.5, 0.5, 0.5],
                       input_rate=12.0, policy="rr3",
                       thresholds=[4.0, 4.0, 4.0], status_energy=0,
                       switch_energy=0)
    assert main(["analytic", "--config", cfg]) == 0
    assert stdout_map(capsys)["split"] == "1:1:1"


def test_analytic_regime_table_when_costs_vanish(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", status_energy=0, switch_energy=0,
                       input_rate=20.0, thresholds=[4.0, 4.0])
    assert main(["analytic", "--config", cfg]) == 0
    got = stdout_map(capsys)
    assert got["regime"].startswith("down")
    assert float(got["throughput"]) == pytest.approx(17.5)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_prints_side_by_side(tmp_path, capsys):
    # drive at the sustainable rate so the away-from-boundary model applies
    cfg = write_config(tmp_path / "c.json", input_rate=17.100579510530338,
                       horizon=3000, warmup=300)
    assert main(["compare", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "quantity simulated predicted rel_dev"
    names = [ln.split()[0] for ln in lines[1:]]
    assert names == ["cycle_length", "throughput", "drift_per_cycle"]
    # delivered rate matches the offer exactly; cycle length carries the
    # slot-quantization surcharge of roughly one slot per phase
    thru_dev = float(lines[2].split()[3])
    assert abs(thru_dev) < 1e-12
    len_dev = float(lines[1].split()[3])
    assert 0 <= len_dev < 0.2


def test_compare_without_cycles_is_a_runtime_failure(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", thresholds=[150.0, 150.0],
                       horizon=300)
    assert main(["compare", "--config", cfg]) == 2
    capsys.readouterr()


def test_compare_rejects_a_profile(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", profile=FLAT,
                       out=str(tmp_path / "out"))
    assert main(["compare", "--config", cfg]) == 1
    assert "profile" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_to_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", status_energy=0, switch_energy=0)
    assert main(["sweep", "--config", cfg, "--axis", "h=10:12:1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "h,steady_input_rate,cycle_length,split,drift"
    assert len(lines) == 4
    # zero control cost: the sustainable rate is flat along the h axis
    rates = {ln.split(",")[1] for ln in lines[1:]}
    assert rates == {"17.5"}


def test_sweep_to_file(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", out=str(tmp_path / "out"))
    assert main(["sweep", "--config", cfg, "--axis", "g=16:18:0.5"]) == 0
    assert "wrote" in capsys.readouterr().out
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 6  # header + 5 points, endpoints included


def test_sweep_rejects_bad_axes(config, capsys):
    assert main(["sweep", "--config", config, "--axis", "h=1:50"]) == 1
    assert main(["sweep", "--config", config, "--axis", "h=5:1:1"]) == 1
    assert main(["sweep", "--config", config, "--axis", "cap=1:9:1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("spec", ["h=1:2:nan", "h=1:inf:1", "h=nan:2:1",
                                  "h=-inf:2:1", "g=1:2:inf"])
def test_sweep_axis_must_be_finite(spec):
    with pytest.raises(ConfigError, match="finite"):
        _parse_axis(spec)


@pytest.mark.parametrize("spec, count", [
    ("h=1:1e9:1", "1000000000"), ("g=0:1e6:1", "1000001"),
    ("h=0:1:5e-324", "inf"),
    # the points lo + k * step do not move past lo, so counting must stop
    ("h=1e16:1e16:1e-300", "1000001")])
def test_sweep_axis_point_count_is_bounded(spec, count):
    with pytest.raises(ConfigError, match=f"about {count} points"):
        _parse_axis(spec)


def test_huge_sweep_axis_is_a_config_error(config, capsys):
    assert main(["sweep", "--config", config, "--axis", "h=1:1e9:1"]) == 1
    assert "1000000000 points" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["h=0.1:0.3:0.1", "g=0:1:0.1", "h=1:1:1",
                                  "h=1:2:0.3", "g=17.5:18.5:0.05",
                                  "h=1e16:1.0000000000000002e16:0.5"])
def test_sweep_axis_points_are_lo_plus_k_steps(spec):
    # the end is passed at the first k with lo + k * step > hi + step * 1e-9
    lo, hi, step = map(float, spec[2:].split(":"))
    values = []
    while lo + len(values) * step <= hi + step * 1e-9:
        values.append(lo + len(values) * step)
    assert _parse_axis(spec) == (spec[0], values)


# `hdrsim sweep --axis h=12:31:1.9` stdout, byte for byte, for the
# three-node config of test_sweep_h_axis_three_nodes_golden_stdout; both
# successor rules share the closed form, so both print this.
GOLDEN_SWEEP_H_THREE = (
    "h,steady_input_rate,cycle_length,split,drift\n"
    "12,22.8515738771,14.451382694,0.196428571429:0.732142857143:1,"
    "1.92136485281\n"
    "13.9,22.9214863975,16.7395182872,0.196428571429:0.732142857143:1,"
    "2.2493309545\n"
    "15.8,22.974923914,19.0276538805,0.196428571429:0.732142857143:1,"
    "2.5772970562\n"
    "17.7,23.0170960178,21.3157894737,0.196428571429:0.732142857143:1,"
    "2.90526315789\n"
    "19.6,23.0512253291,23.6039250669,0.196428571429:0.732142857143:1,"
    "3.23322925959\n"
    "21.5,23.0794123237,25.8920606601,0.196428571429:0.732142857143:1,"
    "3.56119536128\n"
    "23.4,23.1030846395,28.1801962533,0.196428571429:0.732142857143:1,"
    "3.88916146298\n"
    "25.3,23.1232465081,30.4683318466,0.196428571429:0.732142857143:1,"
    "4.21712756467\n"
    "27.2,23.140624885,32.7564674398,0.196428571429:0.732142857143:1,"
    "4.54509366637\n"
    "29.1,23.1557589673,35.044603033,0.196428571429:0.732142857143:1,"
    "4.87305976806\n"
    "31,23.1690571345,37.3327386262,0.196428571429:0.732142857143:1,"
    "5.20102586976\n"
)


@pytest.mark.parametrize("policy", ["rr3", "es3"])
def test_sweep_h_axis_three_nodes_golden_stdout(tmp_path, capsys, policy):
    cfg = write_config(tmp_path / "c.json", policy=policy,
                       harvest_rates=[0.3, 0.7, 0.9], input_rate=18.0,
                       thresholds=[4.5, 7.25, 11.0])
    assert main(["sweep", "--config", cfg, "--axis", "h=12:31:1.9"]) == 0
    assert capsys.readouterr().out == GOLDEN_SWEEP_H_THREE


@pytest.mark.parametrize("policy, rule", [("hyst2", "rr"), ("rr3", "rr"),
                                          ("es3", "es")])
def test_sweep_h_axis_scales_thresholds_and_keeps_the_rule(
        tmp_path, capsys, monkeypatch, policy, rule):
    ths = (6.2, 5.0) if policy == "hyst2" else (4.5, 7.25, 11.0)
    cfg = write_config(tmp_path / "c.json", policy=policy,
                       harvest_rates=[0.3, 0.7, 0.9][:len(ths)],
                       input_rate=18.0, thresholds=list(ths),
                       status_energy=None, switch_energy=None)
    # the parameters of every point pass through steady_input_rate
    seen = []
    rate = analytic.steady_input_rate
    monkeypatch.setattr(analytic, "steady_input_rate",
                        lambda params: seen.append(params) or rate(params))
    assert main(["sweep", "--config", cfg, "--axis", "h=29.1:29.1:1"]) == 0
    capsys.readouterr()
    (point,) = seen
    assert point.thresholds.rule == rule
    assert point.thresholds.values == tuple(t * 29.1 / sum(ths) for t in ths)


# `hdrsim sweep` stdout, byte for byte, on three-node config A (both
# successor rules share the closed form), on the diamond with control
# costs (away_cycle_diamond) and on the diamond with a zero control floor
# (classify_regime_diamond); captured before the sweep was restructured
GOLDEN_SWEEP_G_CONFIG_A = (
    "g,steady_input_rate,cycle_length,split,drift\n"
    "16,20,39.7219463754,-0.00961538461538:0.855769230769:1,4.23700761337\n"
    "16.75,20,36.7970123023,0.018691588785:0.859813084112:1,3.18907439953\n"
    "17.5,20,34.3137254902,0.0454545454545:0.863636363636:1,2.28758169935\n"
    "18.25,20,32.1755994358,0.070796460177:0.867256637168:1,1.50152797367\n"
    "19,20,30.3126994257,0.0948275862069:0.870689655172:1,0.808338651351\n"
    "19.75,20,28.6730545877,0.117647058824:0.873949579832:1,0.191153697251\n"
    "20.5,20,27.2172065852,0.139344262295:0.877049180328:1,-0.362896087803\n"
    "21.25,20,25.9146341463,0.16:0.88:1,-0.863821138211\n"
    "22,20,24.7413405308,0.1796875:0.8828125:1,-1.31953816164\n"
)
GOLDEN_SWEEP_H_DIAMOND = (
    "h,steady_input_rate,cycle_length,split,drift\n"
    "4,16.8383213937,5.83333333333,1.33333333333:1,-0.158333333333\n"
    "5.5,16.9485493415,8.02083333333,1.33333333333:1,-0.180208333333\n"
    "7,17.0122166626,10.2083333333,1.33333333333:1,-0.202083333333\n"
    "8.5,17.0536801141,12.3958333333,1.33333333333:1,-0.223958333333\n"
    "10,17.0828303409,14.5833333333,1.33333333333:1,-0.245833333333\n"
    "11.5,17.1044431218,16.7708333333,1.33333333333:1,-0.267708333333\n"
    "13,17.1211072251,18.9583333333,1.33333333333:1,-0.289583333333\n"
    "14.5,17.1343477013,21.1458333333,1.33333333333:1,-0.311458333333\n"
    "16,17.1451213366,23.3333333333,1.33333333333:1,-0.333333333333\n"
)
GOLDEN_SWEEP_H_DIAMOND_NO_FLOOR = (
    "h,steady_input_rate,cycle_length,split,drift\n"
    "2,17.5,2.96130952381,1.33333333333:1,0\n"
    "4,17.5,5.92261904762,1.33333333333:1,0\n"
    "6,17.5,8.88392857143,1.33333333333:1,0\n"
    "8,17.5,11.8452380952,1.33333333333:1,0\n"
    "10,17.5,14.806547619,1.33333333333:1,0\n"
    "12,17.5,17.7678571429,1.33333333333:1,0\n"
    "14,17.5,20.7291666667,1.33333333333:1,0\n"
    "16,17.5,23.6904761905,1.33333333333:1,0\n"
    "18,17.5,26.6517857143,1.33333333333:1,0\n"
    "20,17.5,29.6130952381,1.33333333333:1,0\n"
)
CONFIG_A = {"harvest_rates": [0.1, 0.7, 0.8], "input_rate": 20.0,
            "thresholds": [5.0, 10.0, 10.0], "status_energy": None,
            "switch_energy": None}


@pytest.mark.parametrize("overrides, axis, golden", [
    (dict(CONFIG_A, policy="es3"), "g=16:22:0.75", GOLDEN_SWEEP_G_CONFIG_A),
    (dict(CONFIG_A, policy="rr3"), "g=16:22:0.75", GOLDEN_SWEEP_G_CONFIG_A),
    ({}, "h=4:16:1.5", GOLDEN_SWEEP_H_DIAMOND),
    (dict(status_energy=0, switch_energy=0, input_rate=20.0), "h=2:20:2",
     GOLDEN_SWEEP_H_DIAMOND_NO_FLOOR)],
    ids=["g-es3", "g-rr3", "h-diamond", "h-diamond-no-floor"])
def test_sweep_golden_stdout(tmp_path, capsys, overrides, axis, golden):
    cfg = write_config(tmp_path / "c.json", **overrides)
    assert main(["sweep", "--config", cfg, "--axis", axis]) == 0
    assert capsys.readouterr().out == golden


# three-node config whose load energy meets the harvest spread at g = 2
DIVERGING = dict(policy="rr3", harvest_rates=[0, 0, 1], input_rate=2,
                 packet_energy=0.5, thresholds=[1, 1, 1])


@pytest.mark.parametrize("overrides, axis, err", [
    ({}, "g=-1:1:0.5", "input rate must be non-negative"),
    ({}, "h=-2:2:1", "thresholds must be positive ints, floats or "
                     "Fractions, got -1.1071428571428572"),
    # the points g = 1 and 1.5 pass, the third fails in the closed form
    (DIVERGING, "g=1:3:0.5", "load energy matches the harvest spread; "
                             "cycle length diverges"),
    ({}, "cap=1:9:1", "unsupported sweep axis 'cap'; use h or g")],
    ids=["g-negative", "h-negative", "closed-form-part-way", "axis-name"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_sweep_checks_every_point(tmp_path, capsys, overrides, axis, err,
                                  to_file):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", out=str(out) if to_file else None,
                       **overrides)
    assert main(["sweep", "--config", cfg, "--axis", axis]) == 1
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert not (out / "sweep.csv").exists()


def test_sweep_fails_part_way_only_at_the_diverging_point(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", **DIVERGING)
    assert main(["sweep", "--config", cfg, "--axis", "g=1:1.5:0.5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_number_beyond_the_float_range_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", input_rate=10**400)
    assert main(["analytic", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: input_rate is too large for a float\n")


@pytest.mark.parametrize("policy, thresholds", [
    ("hyst2", [6.2, 5.0, 4.0]), ("rr3", [6.2, 5.0]), ("es3", [6.2, 5.0]),
    ("hyst2", 6.2)])
def test_threshold_count_must_match_the_policy(tmp_path, capsys, policy,
                                               thresholds):
    # as many harvest rates as thresholds: only the policy name objects
    listed = isinstance(thresholds, list)
    cfg = write_config(tmp_path / "c.json", policy=policy,
                       harvest_rates=[0.3, 0.7, 0.9][:len(thresholds)
                                                     if listed else 2],
                       thresholds=thresholds)
    assert main(["analytic", "--config", cfg]) == 1
    count = 2 if policy == "hyst2" else 3
    got = len(thresholds) if listed else thresholds
    assert capsys.readouterr().err == (
        f"error: policy {policy!r} takes {count} thresholds, got {got}\n")


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------

def test_scenario_replays_profile(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", harvest_rates=[0.3, 0.2],
                       input_rate=6.0, status_energy=0, switch_energy=0,
                       thresholds=[10.0, 10.0], horizon=None,
                       profile=FLAT, initial_batteries=[5.0, 5.0],
                       out=str(tmp_path / "out"))
    assert main(["scenario", "--config", cfg]) == 0
    got = stdout_map(capsys)
    assert float(got["total_offered"]) == pytest.approx(48000.0)
    assert float(got["total_delivered"]) < 48000.0
    assert (tmp_path / "out" / "windows.csv").exists()
    assert (tmp_path / "out" / "trace.csv").exists()
    windows = (tmp_path / "out" / "windows.csv").read_text().splitlines()
    assert len(windows) == 9  # header + 8 kiloslot windows


def test_scenario_without_profile_is_a_config_error(config):
    assert main(["scenario", "--config", config]) == 1


def test_scenario_feedback_without_profile(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", horizon=2500,
                       out=str(tmp_path / "out"))
    assert main(["scenario", "--config", cfg, "--feedback",
                 "--window", "500"]) == 0
    got = stdout_map(capsys)
    assert int(got["feedback_updates"]) > 0
    # the controller settles near the sustainable rate
    assert float(got["final_input_rate"]) == pytest.approx(17.1, abs=0.2)


def test_scenario_feedback_on_profile(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", harvest_rates=[0.3, 0.2],
                       input_rate=6.0, thresholds=[10.0, 10.0], horizon=None,
                       profile=FLAT, initial_batteries=[40.0, 40.0],
                       out=str(tmp_path / "out"))
    assert main(["scenario", "--config", cfg, "--feedback"]) == 0
    got = stdout_map(capsys)
    assert float(got["total_delivered"]) > 0


# `hdrsim scenario` on both bundled profiles, with and without --feedback:
# stdout byte for byte and the sha256 of the trace.csv and windows.csv it
# writes, captured before the trace storage was last reworked.  The
# controller replaces the profile"s load, and both profiles share their
# harvest, so both print the same with --feedback.
SCHEDULED = str(importlib.resources.files("hdrsim") / "data"
                / "harvest_scheduled_input.csv")
GOLDEN_SCENARIO_FLAT = (
    "window offered delivered\n"
    "0 6000 1919.175\n"
    "1 6000 4531.2\n"
    "2 6000 6000\n"
    "3 6000 6000\n"
    "4 6000 6000\n"
    "5 6000 6000\n"
    "6 6000 6000\n"
    "7 6000 5245.122125\n"
    "total_offered 48000\n"
    "total_delivered 41695.497125\n"
)
GOLDEN_SCENARIO_SCHEDULED = (
    "window offered delivered\n"
    "0 1000 1000\n"
    "1 5000 5000\n"
    "2 8000 8000\n"
    "3 8000 8000\n"
    "4 8000 8000\n"
    "5 8000 8000\n"
    "6 5000 5000\n"
    "7 5000 5000\n"
    "total_offered 48000\n"
    "total_delivered 48000\n"
)
GOLDEN_SCENARIO_FEEDBACK = (
    "window offered delivered\n"
    "0 6000 1919.175\n"
    "1 5260.14547942 4509.07228058\n"
    "2 8578.16893917 8578.16893917\n"
    "3 9185.64048034 9185.64048034\n"
    "4 9673.70538394 9673.70538394\n"
    "5 7338.1181979 7338.1181979\n"
    "6 5394.43946228 5394.43946228\n"
    "7 3768.08104241 3768.08104241\n"
    "total_offered 55198.2989855\n"
    "total_delivered 50366.4007866\n"
    "feedback_updates 83\n"
    "final_input_rate 3.58818639835\n"
)
GOLDEN_SCENARIO = {
    ("flat", False): (
        GOLDEN_SCENARIO_FLAT,
        "ce8c4eeaa51380070334d17cfb11d8cb9cf294414f9c1f70b22d7d4a9da16f67",
        "c7592bc921416969a62111c67832e10bd255a3c5f76f8520d14f0e428d3cf09f"),
    ("scheduled", False): (
        GOLDEN_SCENARIO_SCHEDULED,
        "75e78522d35c638e07a3d7e0be029e1f62d3b8f4308740543e9329816b780151",
        "2b14543a3cc39ea744f36836c7f42c469cd9103ae37b8efa303dd56b3f6ecd1f"),
    ("flat", True): (
        GOLDEN_SCENARIO_FEEDBACK,
        "dbf6fa945f667ced7c6ad12b16881dc998999f1d85d26d05b38f9798ff1038cf",
        "46440e2aabce4a22682b6a384a177f0804a47bd5ac0386d3d0f92dbb6e5c3a1d"),
    ("scheduled", True): (
        GOLDEN_SCENARIO_FEEDBACK,
        "dbf6fa945f667ced7c6ad12b16881dc998999f1d85d26d05b38f9798ff1038cf",
        "46440e2aabce4a22682b6a384a177f0804a47bd5ac0386d3d0f92dbb6e5c3a1d"),
}


@pytest.mark.parametrize("profile, feedback", list(GOLDEN_SCENARIO))
def test_scenario_golden_stdout_and_files(tmp_path, capsys, profile,
                                          feedback):
    cfg = write_config(tmp_path / "c.json", harvest_rates=[0.3, 0.2],
                       input_rate=6.0, thresholds=[10.0, 10.0], horizon=None,
                       profile={"flat": FLAT, "scheduled": SCHEDULED}[profile],
                       initial_batteries=[40.0, 40.0],
                       out=str(tmp_path / "out"))
    flags = ["--feedback"] if feedback else []
    assert main(["scenario", "--config", cfg, *flags]) == 0
    stdout, trace_sha, windows_sha = GOLDEN_SCENARIO[profile, feedback]
    assert capsys.readouterr().out == stdout
    for name, want in (("trace.csv", trace_sha), ("windows.csv", windows_sha)):
        got = hashlib.sha256((tmp_path / "out" / name).read_bytes())
        assert got.hexdigest() == want
