"""Tests of the benchmark itself: span arithmetic, wrapper removal, and that
tracing changes no output."""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _replay(tree, tracer):
    """Open and close the spans of ``tree`` = (name, start, end, hot,
    children) in call order, with the tracer's clock reading the given
    times."""
    name, start, end, hot, children = tree
    tracer.now = start
    tracer.enter(name, hot)
    for child in children:
        _replay(child, tracer)
    tracer.now = end
    tracer.exit()


def test_self_time_on_a_hand_built_span_tree():
    tree = ("root", 0, 100, False, [
        ("a", 10, 40, False, [
            ("c", 15, 25, False, []),
            ("hot", 30, 32, True, []),
        ]),
        ("b", 50, 70, False, [("d", 55, 70, False, [])]),
    ])
    tracer = tracing.Tracer(clock=lambda: tracer.now)
    _replay(tree, tracer)
    own = {name: own for _, name, _, _, _, own in tracer.spans}
    assert own == {"root": 50, "a": 18, "c": 10, "b": 5, "d": 15}
    parents = {name: parent for _, name, parent, *_ in tracer.spans}
    ids = {name: sid for sid, name, *_ in tracer.spans}
    assert parents == {"root": None, "a": ids["root"], "c": ids["a"],
                       "b": ids["root"], "d": ids["b"]}
    # a hot span keeps no record but still counts as its parent's child time
    assert tracer.stats["hot"] == [1, 2, 2]
    assert tracer.stats["a"] == [1, 30, 18]


def _module_state():
    """Every attribute of every hypercuts module and traced class."""
    state = {}
    for name, module in sorted(sys.modules.items()):
        if name == "hypercuts" or name.startswith("hypercuts."):
            state[name] = dict(vars(module))
            for attr, value in vars(module).items():
                if isinstance(value, type):
                    state[f"{name}.{attr}"] = dict(vars(value))
    return state


def _small_ops(tmp_path):
    analysis = workloads.lib("analysis")
    hypergraph = workloads.lib("hypergraph")
    oracle = workloads.lib("oracle")
    G = analysis.gen_random_instance(6, 9, 2, 2, 0, max_cost=8, seed=16)
    W = analysis.gen_random_instance(6, 10, 3, 1, 1, max_cost=8, seed=12)
    paths = {}
    for key, graph in (("g", G), ("w", W)):
        paths[key] = str(tmp_path / f"{key}.json")
        with open(paths[key], "wb") as fh:
            fh.write(hypergraph.save_instance(graph))
    catalog = oracle.build_catalog(G)
    values = sorted(c[0] for c in catalog.costs.values())
    cut = sorted(oracle.oracle_pareto(catalog), key=lambda c: c.edge_ids)[0]
    argvs = {
        "estimate.bmulti": ["estimate", "bmulti", "--instance", paths["g"],
                            "--budgets", str(values[len(values) // 2]),
                            "--trials", "300"],
        "solve.hmincut": ["solve", "hmincut", "--instance", paths["g"],
                          "--trials", "40", "--seed", "2"],
        "solve.nb": ["solve", "nb-bmulti", "--instance", paths["w"],
                     "--budgets", "20", "--trials", "200"],
        "verify": ["verify", "pareto", "--instance", paths["g"], "--cut",
                   ",".join(map(str, cut.edge_ids)), "--reps", "40"],
        "pipeline": ["estimate", "pipeline", "--instance", paths["g"],
                     "--runs", "1", "--reps", "40", "--verify-reps", "40"],
        "nb-multi": ["enumerate", "nb-multi", "--instance", paths["w"]],
        "oracle": ["oracle", "pareto", "--instance", paths["g"]],
        "lemma-lp": ["check", "lemma-lp", "--sweep", "2", "--seed", "8"],
    }
    ops = [workloads.Op(name, lambda argv=argv: workloads.cli_call(argv),
                        lambda p: None, lambda p: 1)
           for name, argv in argvs.items()]

    def library_estimate():
        report = workloads.lib("harness").estimate(
            G, "kcut", k=2, sizes=(1, 1), trials=200, seed=4)
        return 0, report.to_dict()

    ops.append(workloads.Op("library.kcut", library_estimate, lambda p: None,
                            lambda p: 1))
    return ops


def test_traced_round_matches_untraced_and_removes_every_wrapper(tmp_path):
    workloads.lib("cli")  # imports every hypercuts module
    ops = _small_ops(tmp_path)
    before = _module_state()
    *_, fails, plain = run.run_round(ops, "test", 1, {}, False)
    assert fails == []
    tracer = tracing.Tracer()
    *_, fails, traced = run.run_round(ops, "test", 1, {}, False, tracer)
    assert fails == []
    assert traced == plain
    assert _module_state() == before
    reached = {name.split(".")[0] for name in tracer.stats}
    assert reached >= {"op", "cli", "harness", "multiobjective",
                       "node_budgeted", "size_constrained", "oracle",
                       "analysis", "sampling", "_engine", "hypergraph"}


def test_benchmark_json_names_every_emitted_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    layer = tracing.layer_metrics(tracing.Tracer(), 0.0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {name: unit for name, (_, unit) in layer.items()}


def test_canonical_output_drops_timing_fields_only():
    payload = {"cut": [1, 2], "elapsed": 0.5, "wall_s": 1.0,
               "runs": [{"run": 0, "enum_us": 3.0, "pareto_exact": True}]}
    assert workloads.canonical(payload) == {
        "cut": [1, 2], "runs": [{"run": 0, "pareto_exact": True}]}
    assert workloads.digest(payload) == workloads.digest(
        {"runs": [{"pareto_exact": True, "run": 0}], "cut": [1, 2]})


def test_inputs_are_a_pure_function_of_the_seed():
    digest = workloads.lib("harness").instance_digest
    for name in workloads.WHY:
        first, again = (workloads.generate(name, 3) for _ in range(2))
        assert [(i.key, i.params, i.graph and digest(i.graph)) for i in first] \
            == [(i.key, i.params, i.graph and digest(i.graph)) for i in again]
