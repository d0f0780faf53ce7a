"""Experiment runner, configuration, serialization, and CLI exit codes."""

import csv
import dataclasses
import hashlib
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satsched import ConfigError, InternalConsistencyError, cli, harness
from satsched.cli import main
from satsched.harness import (
    SCENARIOS,
    ExperimentConfig,
    ResultRow,
    emit,
    run_experiment,
    trial_rng,
)

HEAVY = {"omega": 8.97e-4, "b0": 0.063, "m_s": 0.739}


def _strip_timing(rows):
    return [(r.scenario, r.algorithm, r.x, r.metric, r.value, r.stderr, r.seed)
            for r in rows]


def test_trial_rng_determinism_and_key_sensitivity():
    a = trial_rng(7, 1, 2, 3).random(6)
    b = trial_rng(7, 1, 2, 3).random(6)
    assert np.array_equal(a, b)
    c = trial_rng(7, 1, 3, 2).random(6)
    d = trial_rng(8, 1, 2, 3).random(6)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_config_validation():
    ok = dict(scenario="csi_sumrate", seed=1, trials=5, r_target_grid=[0.9],
              n_users=4)
    ExperimentConfig.from_dict(ok)
    for mutation in (
        dict(trials=0),
        dict(seed=-1),
        dict(r_target_grid=[]),
        dict(r_target_grid=[-0.5]),
        dict(k=0),
        dict(k=9),  # exceeds n_users
        dict(scenario="nope"),
        dict(p1_sigma_sq=0.0),
        dict(sat_snr=-1.0),
        # bools and non-integral numbers are not counts
        dict(seed=True),
        dict(trials=True),
        dict(trials=2.0),
        dict(n_users=3.5),
        dict(n_users=True),
        dict(k=True),
        dict(k=2.0),
        dict(m_groups="3"),
        dict(mc_trials=1.5),
        dict(max_iters=None),
        # the rate grid is a list of finite numbers
        dict(r_target_grid="0.9"),
        dict(r_target_grid=0.9),
        dict(r_target_grid=[0.9, "1.2"]),
        dict(r_target_grid=[True]),
        dict(r_target_grid=[float("inf")]),
        dict(r_target_grid=[float("nan")]),
        dict(r_target_grid=[10**400]),
        # float fields are finite numbers
        dict(p1_sigma_sq=float("nan")),
        dict(sat_snr=float("inf")),
        dict(p2="1000"),
        dict(delta=True),
        dict(cdi_high_db=[20.0]),
        dict(output_path=1),
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**ok, **mutation})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**ok, "surprise": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({k: v for k, v in ok.items() if k != "trials"})


def test_config_validation_cdi():
    ok = dict(scenario="cdi_outage", seed=1, trials=2, r_target_grid=[0.1],
              m_groups=6, k=2, sr_params=dict(HEAVY), mc_trials=100, p2=100.0)
    ExperimentConfig.from_dict(ok)
    for mutation in (
        dict(k="auto"),  # cdi needs an explicit slot count
        dict(k=7),
        dict(m_groups=1),
        dict(sr_params=None),
        dict(sr_params={"omega": 1.0}),
        dict(sr_params={"omega": 1.0, "b0": 1.0, "ms": 1.0}),
        dict(sr_params=[1.0, 1.0, 1.0]),
        dict(sr_params={**HEAVY, "omega": 0.0}),
        dict(sr_params={**HEAVY, "b0": -0.1}),
        dict(sr_params={**HEAVY, "m_s": float("inf")}),
        dict(sr_params={**HEAVY, "m_s": "0.7"}),
        dict(sr_params={**HEAVY, "omega": True}),
        dict(k=True),
        dict(mc_trials=True),
        dict(max_iters=2.5),
        dict(mc_trials=0),
        dict(p2=0.0),
        dict(delta=-1.0),
        dict(max_iters=0),
        dict(cdi_low_db=25.0),
    ):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**ok, **mutation})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(dict(scenario="cdi_complexity", seed=1, trials=2,
                                        r_target_grid=[0.1], m_groups=6, k=1))


def test_constructor_rejects_a_field_its_scenario_does_not_read():
    # the constructor and dataclasses.replace check what from_dict checks:
    # a field the scenario does not read keeps its default
    csi = ExperimentConfig("csi_sumrate", 1, 5, (0.9,), n_users=4)
    cdi = ExperimentConfig("cdi_convergence", 1, 2, (0.1,), m_groups=6, k=2)
    for cfg, changes in (
        (csi, dict(k=3)),
        (csi, dict(m_groups=6)),
        (csi, dict(sr_params=dict(HEAVY))),
        (cdi, dict(n_users=3.5)),
        (cdi, dict(n_users=False)),  # equal to the default 0, but not an int
        (cdi, dict(p1_sigma_sq=5)),
        (cdi, dict(sr_params={"omega": "x"})),
    ):
        name = next(iter(changes))
        with pytest.raises(ConfigError, match=f"does not read '{name}'"):
            dataclasses.replace(cfg, **changes)
    # an unread field left at its default passes
    assert dataclasses.replace(cdi, p1_sigma_sq=5.0) == cdi


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=8,
)
_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]
_VALID = (
    dict(scenario="csi_sumrate", seed=1, trials=5, r_target_grid=[0.9], n_users=4),
    dict(scenario="cdi_outage", seed=1, trials=2, r_target_grid=[0.1], m_groups=6, k=2,
         sr_params=dict(HEAVY), mc_trials=100, p2=100.0),
    dict(scenario="cdi_complexity", seed=1, trials=2, r_target_grid=[0.1], m_groups=6, k=3),
)


_NEAR_VALID = st.builds(
    lambda base, changed, dropped: {k: v for k, v in {**base, **changed}.items()
                                    if k not in dropped},
    st.sampled_from(_VALID),
    st.dictionaries(st.sampled_from(_FIELDS), _JSON, max_size=4),
    st.sets(st.sampled_from(_FIELDS), max_size=2),
)


@settings(max_examples=500, deadline=None)
@given(raw=_NEAR_VALID | _JSON | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=8),
                                                 _JSON))
def test_from_dict_returns_config_or_config_error(raw):
    # from_dict only: a fuzzed trial or user count can be huge, so the
    # config is never run
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError:
        return
    for name in ("seed", "trials", "n_users", "m_groups", "mc_trials", "max_iters"):
        assert type(getattr(cfg, name)) is int, name
    if cfg.scenario.startswith("csi"):
        assert cfg.k is None
    else:
        assert type(cfg.k) is int and 1 <= cfg.k <= cfg.m_groups
    assert all(type(r) is float and math.isfinite(r) for r in cfg.r_target_grid)


def test_config_round_trip():
    cfg = ExperimentConfig.from_dict(dict(
        scenario="cdi_outage", seed=3, trials=2, r_target_grid=[0.1, 0.5],
        m_groups=6, k=2, sr_params=dict(HEAVY), mc_trials=50, p2=100.0,
        output_path="x.csv"))
    # asdict carries every field; a config file holds the scenario's keys
    read = {k: v for k, v in dataclasses.asdict(cfg).items()
            if k in harness._SCENARIOS[cfg.scenario].reads}
    again = ExperimentConfig.from_dict(json.loads(json.dumps(read)))
    assert again == cfg


def test_emit_csv_round_trip(tmp_path):
    rows = [
        ResultRow("csi_sumrate", "gius", 0.9, "sum_rate_mean", 3.125, 0.01, 7, 123),
        ResultRow("csi_sumrate", "lbus", 0.9, "sum_rate_mean", 1e-3, 0.0, 7, 456),
    ]
    path = tmp_path / "out.csv"
    text = emit(rows, "csv", str(path))
    assert text.splitlines()[0] == ("scenario,algorithm,x,metric,value,stderr,"
                                    "seed,wall_time_ns")
    with open(path, newline="") as fh:
        assert list(csv.reader(fh)) == [
            ["scenario", "algorithm", "x", "metric", "value", "stderr", "seed", "wall_time_ns"],
            ["csi_sumrate", "gius", "0.9", "sum_rate_mean", "3.125", "0.01", "7", "123"],
            ["csi_sumrate", "lbus", "0.9", "sum_rate_mean", "0.001", "0.0", "7", "456"],
        ]


def test_emit_json_round_trip(tmp_path):
    rows = [ResultRow("cdi_outage", "aoius", 0.1, "total_outage_cf_mean",
                      0.25, 0.002, 5, 789)]
    path = tmp_path / "out.json"
    emit(rows, "json", str(path))
    with open(path) as fh:
        assert json.load(fh) == {
            "columns": ["scenario", "algorithm", "x", "metric", "value", "stderr", "seed",
                        "wall_time_ns"],
            "rows": [list(dataclasses.astuple(rows[0]))],
        }


def test_emit_empty_and_errors(tmp_path):
    text = emit([], "csv")
    assert text == "scenario,algorithm,x,metric,value,stderr,seed,wall_time_ns\n"
    with pytest.raises(ConfigError):
        emit([], "xml")
    with pytest.raises(ConfigError, match="no-such-dir"):
        emit([], "csv", str(tmp_path / "no-such-dir" / "out.csv"))


def test_emit_is_byte_deterministic():
    rows = [ResultRow("csi_sumrate", "gius", 0.6, "sum_rate_mean",
                      float(np.float64(1) / 3), 1e-17, 1, 0)]
    assert emit(rows, "csv") == emit(rows, "csv")
    assert repr(rows[0].value) in emit(rows, "csv")


def test_run_csi_sumrate_small():
    cfg = ExperimentConfig.from_dict(dict(
        scenario="csi_sumrate", seed=42, trials=6, n_users=6,
        r_target_grid=[0.6, 1.2]))
    rows = run_experiment(cfg)
    algs = {"exhaustive", "gius", "lbus", "tdma", "opportunistic",
            "lower_bound", "upper_bound"}
    assert {r.algorithm for r in rows} == algs
    assert len(rows) == len(algs) * 2
    by = {(r.algorithm, r.x): r.value for r in rows}
    for r_t in (0.6, 1.2):
        # per-instance dominance survives averaging over shared draws
        assert by[("exhaustive", r_t)] >= by[("gius", r_t)] - 1e-9
        assert by[("exhaustive", r_t)] >= by[("lbus", r_t)] - 1e-9
        assert by[("exhaustive", r_t)] >= by[("tdma", r_t)] - 1e-9
        assert by[("lower_bound", r_t)] <= by[("exhaustive", r_t)] + 1e-9
        assert by[("exhaustive", r_t)] <= by[("upper_bound", r_t)] + 1e-9
    # identical seed reruns identically apart from wall time
    assert _strip_timing(run_experiment(cfg)) == _strip_timing(rows)


def test_run_csi_complexity_small():
    cfg = ExperimentConfig.from_dict(dict(
        scenario="csi_complexity", seed=43, trials=5, n_users=8,
        r_target_grid=[0.9]))
    rows = run_experiment(cfg)
    metrics = {(r.algorithm, r.metric) for r in rows}
    for alg in ("exhaustive", "gius", "lbus"):
        assert (alg, "candidates_examined_mean") in metrics
        assert (alg, "sum_rate_mean") in metrics
    cand = {r.algorithm: r.value for r in rows
            if r.metric == "candidates_examined_mean"}
    assert cand["exhaustive"] > 0
    assert cand["lbus"] <= cand["exhaustive"]


def test_run_csi_stability_small():
    cfg = ExperimentConfig.from_dict(dict(
        scenario="csi_stability", seed=44, trials=4, n_users=10,
        r_target_grid=[0.9]))
    rows = run_experiment(cfg)
    assert len(rows) == 3 * 4
    assert {r.x for r in rows} == {0.0, 1.0, 2.0, 3.0}
    assert all(r.metric == "candidates_examined" for r in rows)
    assert all(r.value >= 0 for r in rows)


def test_run_cdi_convergence_small():
    cfg = ExperimentConfig.from_dict(dict(
        scenario="cdi_convergence", seed=45, trials=2, m_groups=30, k=4,
        r_target_grid=[0.02], max_iters=10))
    rows = run_experiment(cfg)
    ao = sorted((r for r in rows if r.algorithm == "aoius"), key=lambda r: r.x)
    bench = [r for r in rows if r.algorithm == "benchmark"]
    assert len(bench) == 1
    assert len(ao) >= 2
    vals = [r.value for r in ao]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    assert bench[0].value <= vals[-1] + 1e-12


def test_run_cdi_outage_small():
    cfg = ExperimentConfig.from_dict(dict(
        scenario="cdi_outage", seed=46, trials=3, m_groups=6, k=2,
        r_target_grid=[0.1], sr_params=dict(HEAVY), mc_trials=4000, p2=1000.0))
    rows = run_experiment(cfg)
    by = {(r.algorithm, r.metric): r.value for r in rows}
    assert len(rows) == 4
    for alg in ("aoius", "exhaustive_groups"):
        cf = by[(alg, "total_outage_cf_mean")]
        mc = by[(alg, "total_outage_mc_mean")]
        assert 0.0 <= cf <= 1.0
        # MC noise at 4000 trials, averaged over 3 draws
        assert abs(cf - mc) <= 3.0 * math.sqrt(0.25 / 4000 / 3) + 1e-12
    assert (by[("exhaustive_groups", "total_outage_cf_mean")]
            <= by[("aoius", "total_outage_cf_mean")] + 1e-12)


def test_run_cdi_complexity_small():
    cfg = ExperimentConfig.from_dict(dict(
        scenario="cdi_complexity", seed=47, trials=3, m_groups=7, k=4,
        r_target_grid=[0.02]))
    rows = run_experiment(cfg)
    assert {r.x for r in rows} == {2.0, 3.0, 4.0}
    exh = {r.x: r.value for r in rows if r.algorithm == "exhaustive_groups"}
    for x, val in exh.items():
        assert val == pytest.approx(math.comb(7, int(x)), rel=1e-12)
    ao = {r.x: r.value for r in rows if r.algorithm == "aoius"}
    assert all(v > 0 for v in ao.values())


_TINY = {
    "csi_sumrate": dict(n_users=5, r_target_grid=[0.3, 0.6]),
    "csi_complexity": dict(n_users=5, r_target_grid=[0.3, 0.6]),
    "csi_stability": dict(n_users=5, r_target_grid=[0.3]),
    "cdi_convergence": dict(m_groups=8, k=3, r_target_grid=[0.1], max_iters=5),
    "cdi_outage": dict(m_groups=6, k=2, r_target_grid=[0.1, 0.5], sr_params=dict(HEAVY),
                       mc_trials=50),
    "cdi_complexity": dict(m_groups=6, k=3, r_target_grid=[0.1]),
}


def _numpy_mean_stderr(values):
    a = np.array(values, dtype=float)
    if a.size == 1:
        return float(a[0]), 0.0
    with np.errstate(all="ignore"):
        return float(np.mean(a)), float(np.std(a, ddof=1) / math.sqrt(a.size))


def _assert_numpy_mean_stderr(values):
    got = harness._mean_stderr(values)
    assert [type(v) for v in got] == [float, float]
    assert repr(got) == repr(_numpy_mean_stderr(values))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.floats(0.0, 100.0)
                | st.integers(0, 50).map(float), min_size=1, max_size=300))
@example([0.1 * i for i in range(300)])
@example([1e10, -1e10, 3.0] * 43)
@example([-0.0])
def test_mean_stderr_is_numpy_mean_and_stderr(values):
    # mean and ddof=1 standard error on plain floats, each sum in numpy's
    # pairwise order: under 8, 8 to 128 and halves beyond
    _assert_numpy_mean_stderr(values)


def test_mean_stderr_is_numpy_mean_and_stderr_at_block_edges():
    # lengths about numpy's default buffer of 8,192 values
    rng = np.random.default_rng(30)
    for n in (8191, 8192, 8193, 20_000):
        for values in (rng.exponential(3.0, n), rng.integers(0, 9, n).astype(float),
                       rng.normal(0.0, 1e10, n), 10.0 ** rng.uniform(-20.0, 20.0, n)):
            _assert_numpy_mean_stderr(values.tolist())


def test_aggregate_pads_traces_like_numpy():
    # per-sweep traces of unequal length, each padded with its final value
    cfg = ExperimentConfig.from_dict(dict(
        scenario="cdi_convergence", seed=3, trials=6, m_groups=30, k=4,
        r_target_grid=[0.02], max_iters=10))
    rng = np.random.default_rng(31)
    traces = [rng.uniform(0.0, 1.0, int(n)).tolist() for n in rng.integers(1, 40, 37)]
    traces[5] = [0.25]
    rows = harness._aggregate(cfg, 0.0, {("aoius", "outage_mean"): (traces, [7] * 37),
                                          ("benchmark", "outage_mean"): ([0.5] * 37, [3] * 37)})
    width = max(map(len, traces))
    padded = np.array([v + v[-1:] * (width - len(v)) for v in traces])
    want = [(float(i), *_numpy_mean_stderr(padded[:, i])) for i in range(width)]
    want.append((0.0, *_numpy_mean_stderr([0.5] * 37)))
    assert repr([(r.x, r.value, r.stderr) for r in rows]) == repr(want)
    assert all(type(r.value) is float and type(r.stderr) is float for r in rows)
    assert "np." not in emit(rows)


def test_wall_time_is_the_reported_calls_time(monkeypatch):
    for scenario in SCENARIOS:
        cfg = ExperimentConfig.from_dict(dict(scenario=scenario, seed=3, trials=3,
                                              **_TINY[scenario]))
        rows = run_experiment(cfg)
        # every call ran, bounds and the relaxation benchmark included
        bad = [(r.algorithm, r.metric) for r in rows if r.wall_time_ns <= 0]
        assert rows and not bad, (scenario, bad)
    # a clock that only the schedulers move, by a different amount per call
    clock = [0]
    calls = []
    monkeypatch.setattr(harness, "perf_counter_ns", lambda: clock[0])
    for name in ("exhaustive", "gius", "lbus"):
        def timed_call(*args, _fn=getattr(harness, name), _name=name):
            calls.append((_name, 1000 * (len(calls) + 1) + len(calls) % 3))
            clock[0] += calls[-1][1]
            return _fn(*args)
        monkeypatch.setattr(harness, name, timed_call)
    rows = run_experiment(ExperimentConfig.from_dict(dict(
        scenario="csi_stability", seed=3, trials=4, **_TINY["csi_stability"])))
    # one row per call, trial-major then algorithm, as the calls were made
    assert len(calls) == 3 * 4
    assert [r.wall_time_ns for r in rows] == [ns for _, ns in calls]
    calls.clear()
    rows = run_experiment(ExperimentConfig.from_dict(dict(
        scenario="csi_complexity", seed=3, trials=3, **_TINY["csi_complexity"])))
    assert len(calls) == 2 * 3 * 3
    for r in rows:
        xi = _TINY["csi_complexity"]["r_target_grid"].index(r.x)
        mine = [ns for name, ns in calls[9 * xi:9 * xi + 9] if name == r.algorithm]
        assert r.wall_time_ns == sum(mine) // 3


def test_golden_configs_parse(pytestconfig):
    root = pytestconfig.rootpath / "src" / "satsched" / "configs"
    paths = sorted(root.glob("*.json"))
    assert len(paths) == 7
    for path in paths:
        with open(path) as fh:
            cfg = ExperimentConfig.from_dict(json.load(fh))
        assert cfg.scenario in SCENARIOS
        assert cfg.output_path.endswith(".csv")


def test_golden_csvs_hash_to_their_digests(pytestconfig):
    # each bundled config's csv, wall_time_ns zeroed, sits readable next to
    # the SHA-256 that criterion 11 checks, so a re-pin shows the rows it moves
    golden = pytestconfig.rootpath / "tests" / "golden"
    names = sorted(p.stem for p in (pytestconfig.rootpath / "src" / "satsched" / "configs")
                   .glob("*.json"))
    assert sorted(p.stem for p in golden.glob("*.csv")) == names
    assert sorted(p.stem for p in golden.glob("*.sha256")) == names
    for name in names:
        digest = hashlib.sha256((golden / f"{name}.csv").read_bytes()).hexdigest()
        assert digest == (golden / f"{name}.sha256").read_text().strip(), name


def test_cli_runs_to_file(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["csi-sumrate", "--trials", "2", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["scenario"] == "csi_sumrate" for r in rows)
    assert all(r["seed"] == "5" for r in rows)


def test_cli_writes_stdout(capsys):
    code = main(["cdi-complexity", "--trials", "1", "--config",
                 "src/satsched/configs/cdi_complexity.json", "--out", "/dev/null"])
    assert code == 0


def test_cli_calls_share_one_parser_without_state(tmp_path, monkeypatch, capsys):
    # main parses with one parser built at import: no call builds another,
    # and no override or failed parse carries into the next call
    def no_parser():
        raise AssertionError("main built a parser")

    seen = []

    def recording(config):
        seen.append((config.seed, config.trials, config.output_path))
        return run_experiment(config)

    monkeypatch.setattr(cli, "_build_parser", no_parser)
    monkeypatch.setattr(cli, "run_experiment", recording)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(scenario="csi_stability", seed=9, trials=2, n_users=5,
                                    r_target_grid=[0.9])))
    out = tmp_path / "rows.json"
    assert main(["csi-stability", "--config", str(path), "--seed", "5", "--trials", "1",
                 "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())
    capsys.readouterr()
    assert main(["csi-stability", "--config", str(path)]) == 0
    assert capsys.readouterr().out.startswith("scenario,algorithm,x,metric")
    with pytest.raises(SystemExit) as exc:
        main(["validate"])
    assert exc.value.code == 2
    assert main(["csi-stability", "--config", str(path)]) == 0
    capsys.readouterr()
    assert seen == [(5, 1, str(out)), (9, 2, None), (9, 2, None)]


def test_cli_stdout_csv(tmp_path, capsys):
    cfg = dict(scenario="csi_stability", seed=9, trials=2, n_users=5,
               r_target_grid=[0.9])
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    code = main(["csi-stability", "--config", str(path)])
    captured = capsys.readouterr().out
    assert code == 0
    assert captured.startswith("scenario,algorithm,x,metric")


def test_cli_config_errors(tmp_path, capsys):
    assert main(["csi-sumrate", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["csi-sumrate", "--config", str(bad)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(dict(scenario="cdi_outage", seed=1, trials=1,
                                     r_target_grid=[0.1])))
    assert main(["csi-sumrate", "--config", str(wrong)]) == 2
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(dict(scenario="csi_sumrate", seed=1, trials=0,
                                    r_target_grid=[0.9], n_users=4)))
    assert main(["csi-sumrate", "--config", str(zero)]) == 2
    capsys.readouterr()
    # an empty path names no file; it does not run the bundled config
    assert main(["csi-sumrate", "--config", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot read config")
    assert captured.err.count("\n") == 1


def test_cli_unreadable_configs_exit_2(tmp_path, capsys):
    files = {
        "deep.json": ("[" * 100_000 + "]" * 100_000).encode(),  # past the recursion limit
        "digits.json": b'{"seed": ' + b"9" * 5000 + b"}",  # past the int digit limit
        "latin1.json": '{"scenario": "caf\u00e9"}'.encode("latin-1"),  # not UTF-8
    }
    for name, data in files.items():
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["csi-sumrate", "--config", str(path)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, (name, err)
        assert "Traceback" not in err


def test_cli_rejects_fractional_user_count(tmp_path, capsys):
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(dict(scenario="csi_sumrate", seed=1, trials=1,
                                    r_target_grid=[0.9], n_users=3.5)))
    assert main(["csi-sumrate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "n_users" in err
    assert "Traceback" not in err


def test_cli_rejects_dropped_and_csi_only_keys(tmp_path, capsys):
    csi = dict(scenario="csi_sumrate", seed=1, trials=20, n_users=6, r_target_grid=[1.8])
    cdi = dict(scenario="cdi_complexity", seed=1, trials=1, m_groups=6, k=3,
               r_target_grid=[0.1])
    cases = (
        ("csi-sumrate", dict(csi, k=6), "k"),  # determine_k sizes every CSI table
        ("csi-sumrate", dict(csi, k="auto"), "k"),
        ("csi-sumrate", dict(csi, sat_snr=100.0), "sat_snr"),
        ("cdi-complexity", dict(cdi, delta=0.0), "delta"),
        ("cdi-complexity", dict(cdi, cdi_low_db=-10.0), "cdi_low_db"),
        ("cdi-complexity", dict(cdi, cdi_high_db=20.0), "cdi_high_db"),
        # keys that only other scenarios read
        ("csi-sumrate", dict(csi, m_groups=6), "m_groups"),
        ("csi-sumrate", dict(csi, max_iters=50), "max_iters"),
        ("csi-sumrate", dict(csi, mc_trials=10), "mc_trials"),
        ("csi-sumrate", dict(csi, p2=1000.0), "p2"),
        ("csi-sumrate", dict(csi, sr_params=dict(HEAVY)), "sr_params"),
        ("cdi-complexity", dict(cdi, n_users=4), "n_users"),
        ("cdi-complexity", dict(cdi, p1_sigma_sq=5.0), "p1_sigma_sq"),
        ("cdi-complexity", dict(cdi, mc_trials=10), "mc_trials"),
        ("cdi-converge", dict(cdi, scenario="cdi_convergence", p2=1000.0), "p2"),
        # single-rate scenarios read r_target_grid[0] alone
        ("csi-stability", dict(csi, scenario="csi_stability", r_target_grid=[0.9, 5.0, 7.0]),
         "r_target_grid"),
        ("cdi-converge", dict(cdi, scenario="cdi_convergence", r_target_grid=[0.1, 0.2]),
         "r_target_grid"),
        ("cdi-complexity", dict(cdi, r_target_grid=[0.1, 0.2]), "r_target_grid"),
    )
    for i, (sub, cfg, key) in enumerate(cases):
        path = tmp_path / f"dropped{i}.json"
        path.write_text(json.dumps(cfg))
        assert main([sub, "--config", str(path)]) == 2, key
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and repr(key) in err and "Traceback" not in err, err


def test_cli_budget_error_exit_code(tmp_path, capsys):
    cases = (
        # determine_k sizes this draw's slot count past the enumeration budget
        ("csi-stability", dict(scenario="csi_stability", seed=1, trials=1, n_users=26,
                               r_target_grid=[0.5])),
        # counts whose arrays need PiB, so allocating them fails at once
        ("cdi-outage", dict(scenario="cdi_outage", seed=1, trials=1, m_groups=4, k=2,
                            r_target_grid=[0.5], mc_trials=10**15, sr_params=HEAVY)),
        ("csi-sumrate", dict(scenario="csi_sumrate", seed=1, trials=1, n_users=10**15,
                             r_target_grid=[0.9])),
        # counts past numpy's limits: a dimension past the largest index, and
        # a byte count past it
        ("cdi-outage", dict(scenario="cdi_outage", seed=1, trials=1, m_groups=4, k=2,
                            r_target_grid=[0.5], mc_trials=10**20, sr_params=HEAVY)),
        ("cdi-outage", dict(scenario="cdi_outage", seed=1, trials=1, m_groups=4, k=2,
                            r_target_grid=[0.5], mc_trials=4 * 10**18, sr_params=HEAVY)),
        ("csi-sumrate", dict(scenario="csi_sumrate", seed=1, trials=1, n_users=10**20,
                             r_target_grid=[0.9])),
        ("cdi-complexity", dict(scenario="cdi_complexity", seed=1, trials=1, m_groups=10**20,
                                k=3, r_target_grid=[0.1])),
    )
    for i, (sub, cfg) in enumerate(cases):
        path = tmp_path / f"huge{i}.json"
        path.write_text(json.dumps(cfg))
        assert main([sub, "--config", str(path)]) == 3, cfg
        err = capsys.readouterr().err
        assert err.startswith("numeric error") and err.count("\n") == 1, err


def test_cli_search_too_deep_exits_cleanly(tmp_path, capsys):
    # determine_k gives all 1500 users a slot, and gius recurses once per slot
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(dict(scenario="csi_sumrate", seed=1, trials=1, n_users=1500,
                                    r_target_grid=[0.0001])))
    assert main(["csi-sumrate", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_cli_internal_error_exits_4(monkeypatch, capsys):
    # a state the package's contracts rule out, such as gius exhausting its
    # first slot below determine_k's k, ends in one line, not a traceback
    def broken(csi, k, r_target):
        raise InternalConsistencyError("satellite hop cannot carry a selected schedule")

    monkeypatch.setattr(harness, "gius", broken)
    assert main(["csi-sumrate", "--trials", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: satellite hop cannot carry a selected schedule\n"


def test_cli_bare_memory_error_prints_one_clean_line(monkeypatch, capsys):
    # an allocation can fail with a MemoryError that carries no text; the
    # line then ends at "out of memory", with no dangling colon
    def exhausted(config):
        raise MemoryError()

    monkeypatch.setattr(cli, "run_experiment", exhausted)
    assert main(["csi-sumrate", "--trials", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numeric error: out of memory\n"


def test_cli_large_rate_targets_exit_cleanly(tmp_path, capsys):
    cases = (
        # 2**2000 - 1 is beyond float range
        ("csi-sumrate", dict(scenario="csi_sumrate", seed=1, trials=1, n_users=4,
                             r_target_grid=[2000]), 2),
        ("cdi-outage", dict(scenario="cdi_outage", seed=1, trials=1, m_groups=4, k=2,
                            r_target_grid=[2000], mc_trials=10, sr_params=HEAVY), 2),
        # the threshold fits a float, and no user reaches it
        ("csi-sumrate", dict(scenario="csi_sumrate", seed=1, trials=1, n_users=6,
                             r_target_grid=[600]), 0),
        # the threshold fits, the satellite hop's 2**1200 - 1 does not
        ("cdi-outage", dict(scenario="cdi_outage", seed=1, trials=1, m_groups=4, k=2,
                            r_target_grid=[600], mc_trials=10, sr_params=HEAVY), 0),
    )
    for i, (sub, cfg, code) in enumerate(cases):
        path = tmp_path / f"big{i}.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow is a value here, not a warning
            assert main([sub, "--config", str(path)]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code == 0 and sub == "csi-sumrate":
            upper = [line for line in captured.out.splitlines() if ",upper_bound," in line]
            assert len(upper) == 1 and math.isfinite(float(upper[0].split(",")[4]))
        elif code == 0:  # every outage, closed form and Monte Carlo, is certain
            values = [float(line.split(",")[4]) for line in captured.out.splitlines()[1:]]
            assert values == [1.0] * 4


def test_cli_slot_tails_beyond_float_range_exit_cleanly(tmp_path, capsys):
    cases = (
        # a power of 1 + gamma overflows in a D value
        ("cdi-converge", dict(scenario="cdi_convergence", seed=1, trials=1, m_groups=500,
                              k=300, r_target_grid=[4.0], max_iters=30), 3),
        # D values reach inf
        ("cdi-converge", dict(scenario="cdi_convergence", seed=1, trials=1, m_groups=12,
                              k=12, r_target_grid=[100.0], max_iters=30), 3),
        ("cdi-complexity", dict(scenario="cdi_complexity", seed=1, trials=1, m_groups=12,
                                k=12, r_target_grid=[200.0]), 3),
        # the middle slot's root lies below 2**-400; x0 = inf in phase 2
        ("cdi-outage", dict(scenario="cdi_outage", seed=1, trials=1, m_groups=4, k=3,
                            r_target_grid=[400.0], mc_trials=10, sr_params=HEAVY), 0),
    )
    for i, (sub, cfg, code) in enumerate(cases):
        path = tmp_path / f"tail{i}.json"
        path.write_text(json.dumps(cfg))
        assert main([sub, "--config", str(path), "--out", str(tmp_path / f"tail{i}.csv")]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert err.startswith("numeric error:") and err.count("\n") == 1, err


def test_cli_rejects_overflowing_satellite_parameters(tmp_path, capsys):
    # 2*b0*m_s + omega overflows; the closed-form outage once read 1.0
    # here against a Monte-Carlo outage near 0, and the run exited 0
    path = tmp_path / "huge_sr.json"
    path.write_text(json.dumps(dict(scenario="cdi_outage", seed=1, trials=2, m_groups=10, k=2,
                                    r_target_grid=[0.02], mc_trials=200, p2=1000.0,
                                    sr_params=dict(omega=1e308, b0=1e308, m_s=0.739))))
    assert main(["cdi-outage", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "overflows" in captured.err
    assert "Traceback" not in captured.err


# one small valid config per subcommand, every count within _CAPS
_SMALL = {
    "csi-sumrate": dict(scenario="csi_sumrate", seed=1, trials=2, r_target_grid=[0.9],
                        n_users=4),
    "csi-complexity": dict(scenario="csi_complexity", seed=1, trials=1,
                           r_target_grid=[0.6, 1.2], n_users=6),
    "csi-stability": dict(scenario="csi_stability", seed=1, trials=2, r_target_grid=[0.9],
                          n_users=6),
    "cdi-converge": dict(scenario="cdi_convergence", seed=1, trials=1, r_target_grid=[0.02],
                         m_groups=8, k=4, max_iters=5),
    "cdi-outage": dict(scenario="cdi_outage", seed=1, trials=2, r_target_grid=[0.1],
                       m_groups=6, k=2, sr_params=dict(HEAVY), mc_trials=100, p2=100.0),
    "cdi-complexity": dict(scenario="cdi_complexity", seed=1, trials=1, r_target_grid=[0.1],
                           m_groups=6, k=3),
}
# the largest counts a fuzzed config may run, so no case starts a large enumeration
_CAPS = {"trials": 2, "n_users": 8, "m_groups": 8, "mc_trials": 200, "max_iters": 5}
_ODD_NUMBERS = st.sampled_from([0, -1, 5e-324, 1e-300, 1e-6, 0.5, 3, 1000.0, 2000.0,
                                1e308, -1e308])
_FIELD_VALUES = (
    _JSON
    | _ODD_NUMBERS
    | st.lists(st.floats() | _ODD_NUMBERS, min_size=1, max_size=3)
    | st.fixed_dictionaries({name: st.floats() | _ODD_NUMBERS for name in HEAVY})
)


def _capped(raw):
    if not isinstance(raw, dict):
        return raw
    raw = {**raw, "mc_trials": raw.get("mc_trials", _CAPS["mc_trials"]),
           "max_iters": raw.get("max_iters", _CAPS["max_iters"])}
    for name, cap in _CAPS.items():
        if type(raw.get(name)) is int:
            raw[name] = min(raw[name], cap)
    if isinstance(raw.get("r_target_grid"), list):
        raw["r_target_grid"] = raw["r_target_grid"][:3]
    return raw


@settings(max_examples=200, deadline=None)
@given(sub=st.sampled_from(sorted(_SMALL)),
       changed=st.dictionaries(st.sampled_from(_FIELDS), _FIELD_VALUES, max_size=3),
       dropped=st.sets(st.sampled_from(_FIELDS), max_size=1),
       whole=st.booleans(), other=_JSON)
@example(sub="csi-sumrate", changed={}, dropped=set(), whole=True, other=[1, 2])
@example(sub="csi-sumrate", changed={"sat_snr": 1e308, "r_target_grid": [1000]},
         dropped=set(), whole=False, other=None)
@example(sub="cdi-outage", changed={"p2": 5e-324}, dropped=set(), whole=False, other=None)
def test_cli_exit_code_contract(sub, changed, dropped, whole, other):
    # any JSON value as a --config file: exit 0, 2 or 3, never an exception
    raw = other if whole else {k: v for k, v in {**_SMALL[sub], **changed}.items()
                               if k not in dropped}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(_capped(raw)))
        code = main([sub, "--config", str(path), "--out", str(Path(tmp) / "out.csv")])
    assert code in (0, 2, 3)


# the bundled config each subcommand runs when --config is absent
_BUNDLED = {
    "csi-sumrate": "csi_sumrate",
    "csi-complexity": "csi_complexity",
    "csi-stability": "csi_stability",
    "cdi-converge": "cdi_convergence",
    "cdi-outage": "cdi_outage_k2",
    "cdi-complexity": "cdi_complexity",
}


def test_cli_defaults_are_the_bundled_configs(pytestconfig, capsys):
    def without_wall_time(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    root = pytestconfig.rootpath / "src" / "satsched" / "configs"
    assert set(cli._SUBCOMMANDS) == set(_BUNDLED)
    with pytest.raises(SystemExit) as exc:  # no other subcommand parses
        main(["validate"])
    assert exc.value.code == 2
    for sub in cli._SUBCOMMANDS:
        raw = json.loads((root / f"{_BUNDLED[sub]}.json").read_text())
        rows = run_experiment(ExperimentConfig.from_dict(dict(raw, trials=1, output_path=None)))
        assert main([sub, "--trials", "1"]) == 0
        assert without_wall_time(capsys.readouterr().out) == without_wall_time(emit(rows)), sub

