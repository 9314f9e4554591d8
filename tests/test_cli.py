import argparse
import copy
import json
import pathlib

import pytest

from hypercuts import harness, oracle
from hypercuts.cli import build_parser, main
from hypercuts.hypergraph import Hypergraph, load_instance, save_instance


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_text(out: str) -> dict:
    record = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("\t")
        record[key] = json.loads(value)
    return record


@pytest.fixture()
def instance_path(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, out, _ = run_cli(capsys, "gen", "random", "--n", "6", "--m", "9",
                           "--rank", "2", "--t-costs", "2", "--t-weights", "1",
                           "--positive-weights", "--seed", "16",
                           "--out", str(path))
    assert code == 0
    return path


def test_gen_lowerbound_and_load(tmp_path, capsys):
    path = tmp_path / "lb.json"
    code, out, _ = run_cli(capsys, "gen", "lowerbound", "--n", "8", "--t", "2",
                           "--out", str(path))
    assert code == 0
    rec = parse_text(out)
    assert rec["n"] == 8 and rec["m"] == 8
    G = load_instance(path.read_bytes())
    assert G.n == 8


def test_solve_bmulti_finds_oracle_optimum(instance_path, capsys):
    code, out, _ = run_cli(capsys, "solve", "bmulti", "--instance",
                           str(instance_path), "--budgets", "8",
                           "--trials", "3000", "--seed", "1")
    assert code == 0
    rec = parse_text(out)
    assert rec["found"] is True
    code2, out2, _ = run_cli(capsys, "oracle", "bmulti", "--instance",
                             str(instance_path), "--budgets", "8")
    assert code2 == 0
    best = parse_text(out2)["cuts"]
    assert {"edge_ids": rec["cut"], "costs": rec["costs"]} in best


def test_solve_bmulti_infeasible_budget(instance_path, capsys):
    code, out, _ = run_cli(capsys, "solve", "bmulti", "--instance",
                           str(instance_path), "--budgets", "0",
                           "--trials", "50", "--seed", "1")
    # budget 0 is unreachable on this instance
    assert code == 3
    assert parse_text(out)["found"] is False


def test_solve_hmincut_matches_oracle(instance_path, capsys):
    code, out, _ = run_cli(capsys, "solve", "hmincut", "--instance",
                           str(instance_path), "--seed", "2")
    assert code == 0
    rec = parse_text(out)
    assert rec["trials"] == 27  # ceil(C(6,2) * ln 6)
    from hypercuts.oracle import build_catalog, oracle_min_cut
    G = load_instance(instance_path.read_bytes())
    assert rec["cost"] == oracle_min_cut(build_catalog(G))[0]


def test_solve_kcut_and_nb(instance_path, capsys):
    code, out, _ = run_cli(capsys, "solve", "kcut", "--instance",
                           str(instance_path), "--k", "2", "--sizes", "1,1",
                           "--trials", "2000", "--seed", "3")
    assert code == 0
    rec = parse_text(out)
    assert rec["value"] >= 0
    code2, out2, _ = run_cli(capsys, "solve", "nb-bmulti", "--instance",
                             str(instance_path), "--budgets", "20",
                             "--rank-mode", "arbitrary", "--trials", "500",
                             "--seed", "3")
    assert code2 == 0


def test_enumerate_and_verify(instance_path, capsys):
    code, out, _ = run_cli(capsys, "enumerate", "multi", "--instance",
                           str(instance_path), "--reps", "3000", "--seed", "5")
    assert code == 0
    rec = parse_text(out)
    assert rec["count"] >= 1
    first = rec["cuts"][0]["edge_ids"]
    code2, out2, _ = run_cli(capsys, "verify", "pareto", "--instance",
                             str(instance_path), "--cut",
                             ",".join(map(str, first)), "--reps", "2000",
                             "--seed", "5")
    assert code2 == 0
    assert "pareto_optimal" in parse_text(out2)


def test_verify_rejects_non_cut(instance_path, capsys):
    code, _, err = run_cli(capsys, "verify", "pareto", "--instance",
                           str(instance_path), "--cut", "0", "--seed", "1")
    if code != 0:  # most single edges are not cuts; accept either outcome
        assert json.loads(err)["code"] == 2


def test_enumerate_nb_multi(instance_path, capsys):
    code, out, _ = run_cli(capsys, "enumerate", "nb-multi", "--instance",
                           str(instance_path), "--seed", "6")
    assert code == 0
    assert parse_text(out)["count"] >= 0


def test_oracle_families(instance_path, capsys):
    for fam in ("pareto", "multi", "parametric"):
        code, out, _ = run_cli(capsys, "oracle", fam, "--instance",
                               str(instance_path))
        assert code == 0
        assert parse_text(out)["count"] >= 1
    code, out, _ = run_cli(capsys, "oracle", "kcut", "--instance",
                           str(instance_path), "--k", "2", "--sizes", "1,1")
    assert code == 0
    code, out, _ = run_cli(capsys, "oracle", "nb-bmulti", "--instance",
                           str(instance_path), "--budgets", "50")
    assert code == 0


def test_estimate_cli_and_exit_codes(instance_path, capsys):
    code, out, _ = run_cli(capsys, "estimate", "hmincut", "--instance",
                           str(instance_path), "--trials", "1200",
                           "--seed", "7")
    assert code == 0
    rec = parse_text(out)
    assert rec["passed"] is True
    code2, out2, _ = run_cli(capsys, "estimate", "pipeline", "--instance",
                             str(instance_path), "--runs", "2",
                             "--reps", "2000", "--verify-reps", "1000",
                             "--seed", "7")
    assert code2 == 0
    rec2 = parse_text(out2)
    assert rec2["runs"] == 2


def test_estimate_pipeline_jobs_give_the_serial_payload(instance_path,
                                                        capsys):
    argv = ["estimate", "pipeline", "--instance", str(instance_path),
            "--runs", "3", "--reps", "300", "--verify-reps", "100",
            "--seed", "7", "--format", "json"]
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli(capsys, *argv, "--jobs", jobs)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert [row["run"] for row in json.loads(outs[0])["per_run"]] == [0, 1, 2]


def test_estimate_nb_rank_modes(instance_path, capsys):
    for mode in ("constant", "arbitrary"):
        code, out, _ = run_cli(capsys, "estimate", "nb-bmulti", "--instance",
                               str(instance_path), "--budgets", "15",
                               "--rank-mode", mode, "--trials", "1500",
                               "--seed", "8")
        assert code == 0
        rec = parse_text(out)
        assert rec["algorithm"] == f"nb-bmulti-{mode}"
        assert rec["passed"] is True


def test_estimate_json_format(instance_path, capsys):
    code, out, _ = run_cli(capsys, "estimate", "hmincut", "--instance",
                           str(instance_path), "--trials", "1200",
                           "--seed", "7", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["algorithm"] == "hmincut"


def test_infinite_z_slack_is_strict_json(tmp_path, capsys):
    # n < k: the floor is 1, so the z-slack is infinite
    path = tmp_path / "six.json"
    path.write_bytes(save_instance(Hypergraph(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], None, [(1,)] * 6)))

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    argv = ["estimate", "kcut", "--instance", str(path), "--k", "7",
            "--sizes", "1,1,1,1,1,1,1", "--trials", "10"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out, parse_constant=reject)["z_slack"] is None
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    for line in out.splitlines():
        json.loads(line.split("\t", 1)[1], parse_constant=reject)


def test_check_commands(capsys):
    code, out, _ = run_cli(capsys, "check", "lemma-lp", "--sweep", "40",
                           "--seed", "1")
    assert code == 0
    assert parse_text(out)["ok"] is True
    code2, out2, _ = run_cli(capsys, "check", "ratio-ineq", "--max-n", "15")
    assert code2 == 0
    rec = parse_text(out2)
    assert rec["ok"] is True and rec["violations"] == 0


def test_usage_errors(tmp_path, capsys):
    # argparse rejects unknown subcommands with SystemExit(2)
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()  # drain argparse's usage message
    # unreadable instance -> usage error with machine-readable object
    code, _, err = run_cli(capsys, "oracle", "pareto", "--instance",
                           str(tmp_path / "missing.json"))
    assert code == 2
    assert json.loads(err)["code"] == 2


def test_infeasible_exit_code(tmp_path, capsys):
    doc = {"n": 3, "t_costs": 1, "t_weights": 1,
           "edges": [[0, 1], [1, 2]], "edge_costs": [[1], [1]],
           "vertex_weights": [[9], [9], [9]]}
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "oracle", "nb-bmulti", "--instance",
                           str(path), "--budgets", "3")
    assert code == 3

    code2, out2, _ = run_cli(capsys, "solve", "nb-bmulti", "--instance",
                             str(path), "--budgets", "3", "--rank-mode",
                             "arbitrary", "--trials", "20")
    assert code2 == 3


@pytest.mark.parametrize("argv", [
    ["solve", "hmincut", "--trials", "0"],
    ["solve", "kcut", "--k", "3", "--sizes", "1,1", "--trials", "50"],
    ["solve", "kcut", "--k", "2", "--sizes", "0,1", "--trials", "50"],
    ["solve", "bmulti", "--budgets", "", "--trials", "0"],
    ["solve", "bmulti", "--budgets", "-1", "--trials", "50"],
    ["solve", "nb-bmulti", "--budgets", "20", "--trials", "0"],
])
def test_solve_rejects_invalid_parameters(instance_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--instance", str(instance_path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == 2


def test_solve_rejects_zero_trials_on_single_criterion(tmp_path, capsys):
    path = tmp_path / "t1.json"
    code, _, _ = run_cli(capsys, "gen", "random", "--n", "5", "--m", "7",
                         "--rank", "2", "--t-costs", "1", "--t-weights", "0",
                         "--out", str(path))
    assert code == 0
    code, out, err = run_cli(capsys, "solve", "bmulti", "--instance",
                             str(path), "--budgets", "", "--trials", "0")
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == 2


@pytest.mark.parametrize("argv", [["bmulti", "--budgets", "banana"],
                                  ["nb-bmulti", "--budgets", "x"],
                                  ["kcut", "--k", "2", "--sizes", "x"]])
def test_oracle_rejects_malformed_flags_before_building_the_catalog(
        instance_path, capsys, monkeypatch, argv):
    def build_catalog(*args, **kwargs):
        raise AssertionError("catalog built before the flags were parsed")
    monkeypatch.setattr(oracle, "build_catalog", build_catalog)
    code, out, err = run_cli(capsys, "oracle", *argv, "--instance",
                             str(instance_path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == 2


def test_solve_kcut_rejects_zero_trials_when_n_below_k(tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"n": 2, "t_costs": 1, "t_weights": 0,
                                "edges": [[0, 1]], "edge_costs": [[1]],
                                "vertex_weights": [[], []]}))
    code, out, err = run_cli(capsys, "solve", "kcut", "--instance", str(path),
                             "--k", "3", "--sizes", "1,1,1", "--trials", "0")
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == 2


def test_load_rejects_float_cost(tmp_path, capsys):
    doc = {"n": 3, "t_costs": 1, "t_weights": 0,
           "edges": [[0, 1], [1, 2]], "edge_costs": [[1.7], [1]],
           "vertex_weights": [[], [], []]}
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "solve", "hmincut", "--instance",
                             str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == 2


@pytest.fixture()
def pareto_instance(tmp_path, capsys):
    path = tmp_path / "pareto.json"
    code, _, _ = run_cli(capsys, "gen", "random", "--n", "6", "--m", "10",
                         "--rank", "2", "--t-costs", "2", "--t-weights", "0",
                         "--seed", "16", "--out", str(path))
    assert code == 0
    return path


@pytest.mark.parametrize("argv", [
    # too few repetitions: the dominated cut (3, 4, 6, 9) must not pass
    ["verify", "pareto", "--cut", "3,4,6,9", "--reps", "0"],
    ["verify", "pareto", "--cut", "3,4,6,9", "--reps", "-5"],
    ["enumerate", "pareto", "--reps", "10", "--verify-reps", "0"],
    ["estimate", "pipeline", "--runs", "1", "--reps", "10",
     "--verify-reps", "0"],
    # repetition counts that are not integers
    ["enumerate", "multi", "--reps", "abc"],
    ["verify", "pareto", "--cut", "3,4,6,9", "--reps", "1.5"],
    ["enumerate", "pareto", "--reps", "10", "--verify-reps", "1.5"],
    ["estimate", "pipeline", "--runs", "1", "--reps", "x"],
    ["estimate", "pipeline", "--runs", "1", "--reps", "10",
     "--verify-reps", "abc"],
])
def test_repetition_counts_are_validated(pareto_instance, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--instance", str(pareto_instance))
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == 2


def test_pipeline_checks_repetitions_before_building_the_catalog(
        pareto_instance, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(harness, "build_catalog",
                        lambda *args, **kwargs: built.append(args))
    code, out, err = run_cli(capsys, "estimate", "pipeline", "--runs", "1",
                             "--reps", "0", "--instance", str(pareto_instance))
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == 2
    assert built == []


@pytest.mark.parametrize("sweep", ["0", "-2"])
def test_check_lemma_lp_rejects_empty_sweep(capsys, sweep):
    code, out, err = run_cli(capsys, "check", "lemma-lp", "--sweep", sweep)
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == 2


@pytest.mark.parametrize("max_n", ["3", "0", "-4"])
def test_check_ratio_ineq_rejects_max_n_without_cases(capsys, max_n):
    code, out, err = run_cli(capsys, "check", "ratio-ineq", "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == 2


def test_check_ratio_ineq_smallest_max_n_has_a_case(capsys):
    code, out, _ = run_cli(capsys, "check", "ratio-ineq", "--max-n", "4")
    assert code == 0
    rec = parse_text(out)
    assert rec["ok"] is True and rec["cases"] == 1


@pytest.fixture()
def cost_free_instance(tmp_path, capsys):
    path = tmp_path / "cost_free.json"
    code, _, _ = run_cli(capsys, "gen", "random", "--n", "5", "--m", "7",
                         "--rank", "2", "--t-costs", "0", "--t-weights", "1",
                         "--positive-weights", "--seed", "4",
                         "--out", str(path))
    assert code == 0
    return path


@pytest.mark.parametrize("argv", [
    ["solve", "kcut", "--k", "2", "--sizes", "1,1", "--weighted-costs",
     "--trials", "50"],
    ["estimate", "kcut", "--k", "2", "--sizes", "1,1", "--weighted-costs",
     "--trials", "50"],
    ["oracle", "kcut", "--k", "2", "--sizes", "1,1", "--weighted-costs"],
    ["oracle", "nb-bmulti", "--budgets", "3"],
    ["oracle", "multi"],
    ["oracle", "pareto"],
    ["estimate", "pipeline", "--runs", "1", "--reps", "3",
     "--verify-reps", "3"],
])
def test_cost_valued_commands_need_a_cost_criterion(cost_free_instance,
                                                    capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--instance",
                             str(cost_free_instance))
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == 2


def test_oracle_bmulti_names_the_missing_cost_criterion(cost_free_instance,
                                                       capsys):
    code, out, err = run_cli(capsys, "oracle", "bmulti", "--budgets", "",
                             "--instance", str(cost_free_instance))
    assert code == 2
    assert out == ""
    assert (json.loads(err)["error"]
            == "the budgeted oracle needs a cost criterion")


@pytest.mark.parametrize("flags", [
    ["--m", "-3", "--t-weights", "0"],
    ["--m", "7", "--max-cost", "-1", "--t-weights", "0"],
    ["--m", "7", "--t-weights", "1", "--max-weight", "-1"],
])
def test_gen_random_rejects_negative_counts(tmp_path, capsys, flags):
    path = tmp_path / "neg.json"
    code, out, err = run_cli(capsys, "gen", "random", "--n", "5", "--rank",
                             "2", "--t-costs", "1", *flags, "--out", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == 2
    assert not path.exists()


@pytest.mark.parametrize("family", [
    ["lowerbound", "--n", "6", "--t", "2"],
    ["random", "--n", "5", "--m", "7", "--rank", "2", "--t-costs", "1",
     "--t-weights", "0"],
])
@pytest.mark.parametrize("target", ["dir", "missing/inst.json"])
def test_gen_reports_unwritable_out_as_usage_error(tmp_path, capsys, family,
                                                   target):
    (tmp_path / "dir").mkdir()
    code, out, err = run_cli(capsys, "gen", *family,
                             "--out", str(tmp_path / target))
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == 2


# The option surface of every subcommand as first recorded:
# subcommand -> handler and (flags, dest, default, type, choices, action,
# required) per option.
SURFACE = json.loads((pathlib.Path(__file__).parent / "cli_surface.json")
                     .read_text())


def _subparsers(parser) -> dict:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def cli_surface(parser) -> dict:
    surface = {}
    for command, group in _subparsers(parser).items():
        for family, sub in _subparsers(group).items():
            options = sorted(
                [a.option_strings, a.dest, a.default,
                 getattr(a.type, "__name__", a.type),
                 list(a.choices) if a.choices else None,
                 type(a).__name__, a.required]
                for a in sub._actions)
            surface[f"{command} {family}"] = {
                "func": sub.get_default("func").__name__, "options": options}
    return surface


def test_cli_surface_is_the_recorded_one_less_enumerate_multi_verify_reps():
    expected = copy.deepcopy(SURFACE)
    expected["enumerate multi"]["options"].remove(
        [["--verify-reps"], "verify_reps", "auto", None, None, "_StoreAction",
         False])
    assert cli_surface(build_parser()) == expected


@pytest.mark.parametrize("value", ["5", "banana"])
def test_enumerate_multi_takes_no_verify_reps(pareto_instance, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "multi", "--instance", str(pareto_instance),
              "--reps", "10", "--verify-reps", value])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [[]] + sorted(
    {(name.split()[0],) for name in SURFACE} | {tuple(name.split())
                                               for name in SURFACE}))
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert "usage: hypercuts" in capsys.readouterr().out


PATH_EDGES = [[0, 1], [1, 2], [2, 3]]

# Instances at the edges of the input space.
EDGE_INSTANCES = {
    "one-vertex": {"n": 1, "t_costs": 2, "t_weights": 1, "edges": [],
                   "edge_costs": [], "vertex_weights": [[1]]},
    "two-vertices-no-edges": {"n": 2, "t_costs": 2, "t_weights": 1,
                              "edges": [], "edge_costs": [],
                              "vertex_weights": [[1], [1]]},
    "disconnected": {"n": 3, "t_costs": 2, "t_weights": 1,
                     "edges": [[0, 1]], "edge_costs": [[1, 2]],
                     "vertex_weights": [[1], [2], [1]]},
    "all-zero": {"n": 4, "t_costs": 2, "t_weights": 1, "edges": PATH_EDGES,
                 "edge_costs": [[0, 0]] * 3, "vertex_weights": [[0]] * 4},
    "no-weights": {"n": 4, "t_costs": 2, "t_weights": 0, "edges": PATH_EDGES,
                   "edge_costs": [[1, 2], [2, 1], [1, 1]],
                   "vertex_weights": [[]] * 4},
    "no-costs": {"n": 4, "t_costs": 0, "t_weights": 1, "edges": PATH_EDGES,
                 "edge_costs": [[]] * 3, "vertex_weights": [[1]] * 4},
}

KCUT = ["--k", "2", "--sizes", "1,1"]
NB = ["--budgets", "{node}"]

# One argv per family of every command that reads an instance; "{budgets}",
# "{node}" and "{cut}" are filled in per instance.
SWEEP = {
    "solve-bmulti": ["solve", "bmulti", "--budgets", "{budgets}",
                     "--trials", "20"],
    "solve-nb-constant": ["solve", "nb-bmulti", *NB, "--trials", "20"],
    "solve-nb-arbitrary": ["solve", "nb-bmulti", *NB, "--rank-mode",
                           "arbitrary", "--trials", "20"],
    "solve-hmincut": ["solve", "hmincut", "--trials", "20"],
    "solve-kcut": ["solve", "kcut", *KCUT, "--trials", "20"],
    "enumerate-multi": ["enumerate", "multi", "--reps", "3"],
    "enumerate-pareto": ["enumerate", "pareto", "--reps", "3",
                         "--verify-reps", "3"],
    "enumerate-nb-multi": ["enumerate", "nb-multi"],
    "verify-pareto": ["verify", "pareto", "--cut", "{cut}", "--reps", "3"],
    "oracle-pareto": ["oracle", "pareto"],
    "oracle-multi": ["oracle", "multi"],
    "oracle-parametric": ["oracle", "parametric"],
    "oracle-bmulti": ["oracle", "bmulti", "--budgets", "{budgets}"],
    "oracle-nb-bmulti": ["oracle", "nb-bmulti", *NB],
    "oracle-kcut": ["oracle", "kcut", *KCUT],
    "estimate-bmulti": ["estimate", "bmulti", "--budgets", "{budgets}",
                        "--trials", "20"],
    "estimate-nb-constant": ["estimate", "nb-bmulti", *NB, "--trials", "20"],
    "estimate-nb-arbitrary": ["estimate", "nb-bmulti", *NB, "--rank-mode",
                              "arbitrary", "--trials", "20"],
    "estimate-hmincut": ["estimate", "hmincut", "--trials", "20"],
    "estimate-kcut": ["estimate", "kcut", *KCUT, "--trials", "20"],
    "estimate-pipeline": ["estimate", "pipeline", "--runs", "1", "--reps",
                          "3", "--verify-reps", "3"],
}


def test_exit_code_sweep_covers_every_instance_family():
    swept = {" ".join(argv[:2]) for argv in SWEEP.values()}
    assert swept == {name for name in SURFACE
                     if name.split()[0] not in ("gen", "check")}


# Every (instance, command) pair of the sweep exits 0 unless listed here.
EXIT_CODES = {
    "all-zero": {"solve-kcut": 2, "estimate-kcut": 2, "oracle-kcut": 2},
    "no-costs": {**dict.fromkeys(SWEEP, 2), "solve-kcut": 0,
                 "estimate-kcut": 0, "oracle-kcut": 0},
    "one-vertex": {"solve-bmulti": 3, "solve-nb-constant": 2,
                   "solve-nb-arbitrary": 2, "solve-hmincut": 2,
                   "solve-kcut": 3, "verify-pareto": 2, "oracle-bmulti": 3,
                   "oracle-nb-bmulti": 3, "oracle-kcut": 3,
                   "estimate-bmulti": 2, "estimate-nb-constant": 2,
                   "estimate-nb-arbitrary": 2, "estimate-hmincut": 2},
}


def test_pinned_exit_codes_name_swept_pairs():
    assert set(EXIT_CODES) <= set(EDGE_INSTANCES)
    assert all(set(codes) <= set(SWEEP) for codes in EXIT_CODES.values())


def strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command", sorted(SWEEP))
@pytest.mark.parametrize("name", sorted(EDGE_INSTANCES))
def test_every_failure_maps_to_a_documented_exit_code(tmp_path, capsys,
                                                      name, command):
    doc = EDGE_INSTANCES[name]
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc))
    fill = {"budgets": ",".join(["3"] * (doc["t_costs"] - 1)),
            "node": ",".join(["5"] * doc["t_weights"]),
            "cut": "0" if doc["edges"] else ""}
    argv = [token.format(**fill) for token in SWEEP[command]]
    code, out, err = run_cli(capsys, *argv, "--instance", str(path),
                             "--format", "json")
    assert code == EXIT_CODES.get(name, {}).get(command, 0)
    if code == 2:
        assert out == ""
        assert strict_json(err)["code"] == 2
    else:
        strict_json(out)


@pytest.mark.parametrize("mode", ["constant", "arbitrary"])
def test_solve_nb_bmulti_rejects_a_single_vertex(tmp_path, capsys, mode):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(EDGE_INSTANCES["one-vertex"]))
    code, out, err = run_cli(capsys, "solve", "nb-bmulti", "--instance",
                             str(path), "--budgets", "5", "--rank-mode",
                             mode, "--trials", "5")
    assert code == 2
    assert out == ""
    assert json.loads(err)["code"] == 2


def test_kcut_commands_reject_zero_vertex_weights_alike(tmp_path, capsys):
    # solve used to run every trial and exit 3 on the all-zero instance
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(EDGE_INSTANCES["all-zero"]))
    errors = []
    for argv in (["solve", "kcut", *KCUT, "--trials", "20"],
                 ["estimate", "kcut", *KCUT, "--trials", "20"],
                 ["oracle", "kcut", *KCUT]):
        code, out, err = run_cli(capsys, *argv, "--instance", str(path))
        assert code == 2
        assert out == ""
        errors.append(json.loads(err)["error"])
    assert errors == [
        "size-constrained cuts require positive vertex weights"] * 3
