import json

import numpy as np
import pytest

from lssbalred import loads_model, nice_grammians, random_stable_model, save_model
from lssbalred.cli import COMMANDS, FLAGS, main
from lssbalred.model import pad_with_dead_states
from lssbalred.realization import equivalent, minimize
from residual_oracles import markov_match

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None


@pytest.fixture
def example1_path(tmp_path, example1):
    path = tmp_path / "example1.json"
    save_model(example1, path)
    return str(path)


@pytest.fixture
def lambda_pair_path(tmp_path):
    lam = [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"P": lam, "Q": lam}))
    return str(path)


@pytest.fixture
def dt_unstable_path(tmp_path):
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps({
        "time_domain": "discrete",
        "modes": [{"A": [[1.5]], "B": [[1.0]], "C": [[1.0]]}],
    }))
    return str(path)


@pytest.fixture
def dt_two_mode_path(tmp_path, dt_two_mode):
    path = tmp_path / "dt_two_mode.json"
    save_model(dt_two_mode, path)
    return str(path)


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_reduce_golden_with_explicit_pair(example1_path, lambda_pair_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["reduce", "--model", example1_path, "--order", "2",
                 "--pair-file", lambda_pair_path, "--out", str(out)])
    assert code == 0
    rep = read_report(out)
    assert rep["status"] == "ok"
    assert rep["result"]["sigmas"] == [2.0, 1.0, 0.5]
    assert rep["result"]["apriori_bound"] == 1.0
    mode = rep["result"]["reduced_model"]["modes"][0]
    assert np.allclose(mode["A"], [[-2.0, 0.0], [0.0, -1.0]], atol=1e-10)
    assert np.allclose(mode["B"], [[1.0], [0.0]], atol=1e-10)
    assert np.allclose(mode["C"], [[1.0, 1.0]], atol=1e-10)


def test_reduce_with_solver_grammians(example1_path, tmp_path):
    out = tmp_path / "report.json"
    code = main(["reduce", "--model", example1_path, "--order", "2", "--out", str(out)])
    assert code == 0
    rep = read_report(out)
    assert rep["result"]["retained"] == 2
    assert rep["result"]["grammian_provenance"] == "lmi"
    # the reduced pair residuals certify Lambda_1 membership
    assert all(r <= 1e-9 for r in rep["result"]["residuals"]["reduced_controllability"])


def _reduce_report(tmp_path, model, name, flags):
    path = tmp_path / f"{name}.json"
    save_model(model, path)
    out = tmp_path / f"{name}.report.json"
    assert main(["reduce", "--model", str(path), "--out", str(out)] + flags) == 0
    return read_report(out)["result"]


def test_minimize_first_matches_reduction_of_minimal_model(example1, tmp_path):
    padded = pad_with_dead_states(example1, 1, seed=4)
    res_padded = _reduce_report(tmp_path, padded, "padded", ["--order", "2", "--minimize-first"])
    assert res_padded["minimized_first"]
    assert res_padded["original_order"] == 4
    res_minimal = _reduce_report(tmp_path, minimize(padded), "minimal", ["--order", "2"])
    assert res_padded["sigmas"] == res_minimal["sigmas"]
    assert res_padded["apriori_bound"] == res_minimal["apriori_bound"]
    assert res_padded["retained"] == res_minimal["retained"] == 2
    # both reduced models realize the same input-output map
    reduced = [loads_model(json.dumps(res["reduced_model"])) for res in (res_padded, res_minimal)]
    assert markov_match(*reduced, max_len=5, rtol=1e-5)


def test_pair_file_follows_minimize_first(tmp_path):
    # the pair must move into the minimal basis with the model; balancing the
    # minimized model by the file's pair as written gave a pair margin of
    # -17.5 and a reduced model with another input-output map
    model = random_stable_model("discrete", 5, 2, kind="strong", seed=3)
    pair = nice_grammians(model)
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(json.dumps({"P": pair.P_ctrl.tolist(), "Q": pair.Q_obs.tolist()}))
    flags = ["--order", "2", "--pair-file", str(pair_path)]
    res_plain = _reduce_report(tmp_path, model, "plain", flags)
    res_min = _reduce_report(tmp_path, model, "min", flags + ["--minimize-first"])
    assert res_min["strict_pair"] is True
    reduced = [loads_model(json.dumps(res["reduced_model"])) for res in (res_min, res_plain)]
    assert equivalent(*reduced)


def test_check_reports_strong_stability_radius(dt_unstable_path, tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", "--model", dt_unstable_path, "--out", str(out)])
    assert code == 2
    rep = read_report(out)
    assert rep["status"] == "infeasible"
    assert rep["result"]["strong_stability"]["radius"] == pytest.approx(2.25)
    assert not rep["result"]["quadratically_stable"]


def test_check_ok_on_example1(example1_path, tmp_path):
    out = tmp_path / "report.json"
    assert main(["check", "--model", example1_path, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["result"]["minimal"] is True
    assert rep["result"]["quadratically_stable"] is True


def test_gain_report(example1_path, tmp_path):
    out = tmp_path / "report.json"
    assert main(["gain", "--model", example1_path, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["result"]["gamma_star"] > 0
    # one min-gamma solve, no bisection
    assert "iterations" not in rep["result"]
    assert "bisection" not in rep["result"]
    assert all(r < 0 for r in rep["result"]["residuals"])


def test_verify_bound_passes(example1_path, lambda_pair_path, tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify-bound", "--model", example1_path, "--order", "2",
                 "--pair-file", lambda_pair_path, "--trials", "25",
                 "--seed", "1", "--horizon", "25", "--step", "0.02",
                 "--out", str(out)])
    assert code == 0
    rep = read_report(out)
    assert rep["result"]["passed"] is True
    assert rep["result"]["worst_ratio"] <= rep["result"]["apriori_bound"] + rep["result"]["slack"]


def test_verify_bound_with_empty_horizon_is_an_input_error(example1_path, lambda_pair_path,
                                                           tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify-bound", "--model", example1_path, "--order", "2",
                 "--pair-file", lambda_pair_path, "--horizon", "0", "--step", "0.02",
                 "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_simulate_writes_csv(example1_path, tmp_path):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "traj.csv"
    code = main(["simulate", "--model", example1_path, "--horizon", "5",
                 "--step", "0.01", "--seed", "3", "--out", str(out),
                 "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,u1,x1,x2,x3,y1"
    assert len(lines) == 1 + 500


def test_grammians_command(example1_path, tmp_path):
    out = tmp_path / "report.json"
    assert main(["grammians", "--model", example1_path, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["result"]["provenance"] == "lmi"
    assert all(r < 0 for r in rep["result"]["residuals"]["controllability"])
    assert len(rep["result"]["sigmas"]) == 3


def test_embed_command(tmp_path, dt_two_mode):
    path = tmp_path / "m.json"
    save_model(dt_two_mode, path)
    out = tmp_path / "report.json"
    assert main(["embed", "--model", str(path), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["result"]["embedding_order"] == 3
    assert rep["result"]["minimality_agreement"] is True
    assert rep["result"]["strong_stability_radius"] == pytest.approx(0.25)


def test_malformed_model_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["check", "--model", str(bad)]) == 1
    assert "line" in capsys.readouterr().err


def test_missing_model_exits_one(tmp_path, capsys):
    assert main(["check", "--model", str(tmp_path / "nope.json")]) == 1


def test_removed_certificate_source_exits_one(example1_path):
    assert main(["grammians", "--model", example1_path, "--grammians", "certificate"]) == 1


def test_bad_argument_exits_one(example1_path):
    assert main(["reduce", "--model", example1_path, "--order", "abc"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "lssbalred" in capsys.readouterr().out


def test_reports_are_deterministic_except_timestamp(example1_path, lambda_pair_path, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for argv in (["reduce", "--model", example1_path, "--order", "2"],
                 ["verify-bound", "--model", example1_path, "--order", "2", "--pair-file",
                  lambda_pair_path, "--trials", "5", "--horizon", "10", "--step", "0.02",
                  "--seed", "7"]):
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        r1 = read_report(out1)
        r2 = read_report(out2)
        r1.pop("timestamp")
        r2.pop("timestamp")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


@pytest.mark.parametrize("argv", [["check", "--seed", "1"], ["grammians", "--seed", "1"],
                                  ["reduce", "--order", "2", "--seed", "1"],
                                  ["gain", "--seed", "1"], ["check", "--margin", "1e-3"]])
def test_flags_that_change_no_answer_exit_one(example1_path, argv):
    # these commands draw no random numbers, and a margin only rescales a
    # stability certificate, so neither flag is accepted
    assert main(argv + ["--model", example1_path]) == 1


def test_reduced_model_in_report_round_trips(example1_path, lambda_pair_path, tmp_path):
    out = tmp_path / "report.json"
    main(["reduce", "--model", example1_path, "--order", "2",
          "--pair-file", lambda_pair_path, "--out", str(out)])
    rep = read_report(out)
    text = json.dumps(rep["result"]["reduced_model"])
    model = loads_model(text)
    assert model.n == 2
    assert model.time_domain == "continuous"


@pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
def test_reports_validate_against_shipped_schema(example1_path, dt_unstable_path, tmp_path):
    import importlib.resources as res

    schema = json.loads(
        res.files("lssbalred").joinpath("report_schema.json").read_text()
    )
    cases = [
        (["check", "--model", example1_path], 0),
        (["reduce", "--model", example1_path, "--order", "2"], 0),
        (["gain", "--model", example1_path], 0),
        (["check", "--model", dt_unstable_path], 2),
        (["gain", "--model", dt_unstable_path], 2),
    ]
    for i, (argv, want) in enumerate(cases):
        out = tmp_path / f"schema{i}.json"
        assert main(argv + ["--out", str(out)]) == want
        jsonschema.validate(read_report(out), schema)


# A value each flag accepts, so that a rejection can only come from the flag.
FLAG_VALUES = {"order": "1", "bound": "1.0", "grammians": "nice", "margin": "1e-6",
               "tol": "1e-3", "trials": "2", "horizon": "10", "step": "0.01", "seed": "1",
               "csv": "traj.csv", "pair_file": "pair.json"}


def _flag_argv(flag):
    argv = ["--" + flag.replace("_", "-")]
    return argv if FLAGS[flag].get("action") == "store_true" else argv + [FLAG_VALUES[flag]]


def test_commands_reject_flags_they_do_not_read(example1_path, capsys):
    assert main(["gain", "--model", example1_path, "--grammians", "nice"]) == 1
    for name, (_, flags) in COMMANDS.items():
        for flag in set(FLAGS) - set(flags):
            assert main([name, "--model", example1_path] + _flag_argv(flag)) == 1
            assert "unrecognized arguments" in capsys.readouterr().err


def test_report_config_records_exactly_the_declared_flags(dt_two_mode_path, tmp_path):
    extra = {"reduce": ["--order", "1", "--grammians", "nice"],
             "grammians": ["--grammians", "nice"],
             "simulate": ["--horizon", "10"],
             "verify-bound": ["--order", "1", "--grammians", "nice", "--trials", "2",
                              "--horizon", "10"]}
    for name, (_, flags) in COMMANDS.items():
        out = tmp_path / f"{name}.json"
        assert main([name, "--model", dt_two_mode_path, "--out", str(out)]
                    + extra.get(name, [])) == 0
        assert sorted(read_report(out)["config"]) == sorted(flags)


def test_infeasible_gain_reports_the_error(dt_unstable_path, tmp_path):
    out = tmp_path / "report.json"
    assert main(["gain", "--model", dt_unstable_path, "--out", str(out)]) == 2
    rep = read_report(out)
    assert rep["status"] == "infeasible"
    assert rep["result"]["error"]


def test_embed_with_trials_reports_an_empirical_lower_bound(dt_two_mode_path, tmp_path):
    out = tmp_path / "report.json"
    assert main(["embed", "--model", dt_two_mode_path, "--trials", "20",
                 "--out", str(out)]) == 0
    lower = read_report(out)["result"]["empirical_gain_lower_bound"]
    # the l2 gain of the scalar modes 0.3, 0.4 (B = C = 1) is at most 1 / (1 - 0.4)
    assert 0 < lower <= 1 / 0.6


def test_verify_bound_default_horizon(example1_path, lambda_pair_path, tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify-bound", "--model", example1_path, "--order", "2",
                 "--pair-file", lambda_pair_path, "--trials", "5", "--step", "0.02",
                 "--out", str(out)])
    assert code == 0
    rep = read_report(out)
    assert rep["config"]["horizon"] is None
    assert rep["result"]["passed"] is True


def test_simulate_discrete_model(dt_two_mode_path, tmp_path):
    out = tmp_path / "report.json"
    assert main(["simulate", "--model", dt_two_mode_path, "--horizon", "30", "--seed", "2",
                 "--out", str(out)]) == 0
    result = read_report(out)["result"]
    assert result["steps"] == 30
    assert len(result["switching"]["modes"]) == 30
    assert set(result["switching"]["modes"]) <= {1, 2}
    assert result["switching"]["dwells"] is None


@pytest.mark.parametrize("content", [
    json.dumps({"P": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]]}),
    json.dumps([[1.0]]),
], ids=["missing-key", "not-an-object"])
def test_malformed_pair_file_exits_one(example1_path, tmp_path, capsys, content):
    pair = tmp_path / "pair.json"
    pair.write_text(content)
    code = main(["reduce", "--model", example1_path, "--order", "2", "--pair-file", str(pair)])
    assert code == 1
    assert "pair file" in capsys.readouterr().err


def test_missing_pair_file_exits_one(example1_path, tmp_path, capsys):
    code = main(["reduce", "--model", example1_path, "--order", "2",
                 "--pair-file", str(tmp_path / "nope.json")])
    assert code == 1
    assert "nope.json" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_bound_rejects_nonpositive_trials(dt_two_mode_path, tmp_path, capsys, trials):
    out = tmp_path / "report.json"
    assert main(["verify-bound", "--model", dt_two_mode_path, "--order", "1",
                 "--grammians", "nice", "--horizon", "10", "--trials", trials,
                 "--out", str(out)]) == 1
    assert "--trials must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_verify_bound_defaults_to_fifty_trials(dt_two_mode_path, tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify-bound", "--model", dt_two_mode_path, "--order", "1",
                 "--grammians", "nice", "--horizon", "10", "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["config"]["trials"] == rep["result"]["trials"] == 50


def test_embed_with_zero_trials_reports_no_estimate(dt_two_mode_path, tmp_path):
    out = tmp_path / "report.json"
    assert main(["embed", "--model", dt_two_mode_path, "--trials", "0",
                 "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["config"]["trials"] == 0
    assert rep["result"]["empirical_gain_lower_bound"] is None


@pytest.fixture
def dt4_path(tmp_path):
    path = tmp_path / "dt4.json"
    save_model(random_stable_model("discrete", 4, 2, seed=1), path)
    return str(path)


@pytest.mark.parametrize("argv", [["grammians", "--margin=-1e-3"],
                                  ["grammians", "--margin", "nan"],
                                  ["grammians", "--grammians", "averaged", "--margin=-1e-3"],
                                  ["verify-bound", "--order", "2", "--margin=-1e-2"],
                                  ["gain", "--tol", "0"], ["gain", "--tol=-1"],
                                  ["gain", "--tol", "nan"],
                                  ["grammians", "--margin", "inf"],
                                  ["grammians", "--grammians", "averaged", "--margin", "inf"],
                                  ["gain", "--tol", "inf"]])
def test_negative_or_nan_margin_and_tol_exit_one(dt4_path, argv, capsys):
    # a negative margin accepts a pair outside the grammian set, a
    # nonpositive tol can never settle the gain solve, and an infinite one
    # stops it at the first feasible sweep; the error names the flag
    assert main(argv + ["--model", dt4_path]) == 1
    flag = "tol" if argv[0] == "gain" else "margin"
    assert f"error: {flag} must be" in capsys.readouterr().err


def test_margin_that_no_route_reads_exits_one(dt_two_mode_path, example1_path,
                                              lambda_pair_path, capsys):
    assert main(["grammians", "--model", dt_two_mode_path, "--grammians", "nice",
                 "--margin", "0.3"]) == 1
    assert "no margin" in capsys.readouterr().err
    assert main(["reduce", "--model", example1_path, "--order", "2",
                 "--pair-file", lambda_pair_path, "--margin", "0.3"]) == 1
    assert "no margin" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["reduce", "--bound=-1"], ["reduce", "--bound", "nan"],
                                  ["verify-bound", "--bound=-1"], ["verify-bound", "--bound", "nan"]])
def test_negative_or_nan_bound_exits_one(example1_path, lambda_pair_path, argv, capsys):
    # such a budget used to keep every state and report apriori_bound 0.0
    assert main(argv + ["--model", example1_path, "--pair-file", lambda_pair_path]) == 1
    assert "error: bound budget must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("domain, argv", [
    ("ct", ["simulate", "--horizon", "inf"]),
    ("dt", ["simulate", "--horizon", "inf"]),
    ("ct", ["simulate", "--step", "0"]),
    ("ct", ["simulate", "--step", "0", "--horizon", "1"]),
    ("ct", ["verify-bound", "--order", "1", "--step", "0"]),
    ("dt", ["verify-bound", "--grammians", "nice", "--order", "1", "--horizon", "inf"]),
    ("dt", ["embed", "--trials", "5", "--horizon", "inf"]),
])
def test_infinite_horizon_or_zero_step_exits_one(example1_path, dt_two_mode_path, domain, argv,
                                                 capsys):
    # each of these used to raise OverflowError or ZeroDivisionError out of main
    path = example1_path if domain == "ct" else dt_two_mode_path
    assert main(argv + ["--model", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_negative_step_is_named(example1_path, capsys):
    assert main(["simulate", "--model", example1_path, "--step=-0.01", "--horizon", "1"]) == 1
    assert "positive step h, got -0.01" in capsys.readouterr().err
