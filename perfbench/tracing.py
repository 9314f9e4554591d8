"""Span tracing of the ``hypercuts`` layers, applied from outside the library.

The tracer measures each layer of ``hypercuts`` from outside: it replaces a
layer's public functions at the names the calling modules bind (for example
``hypercuts.harness.derive_rng``) with wrappers that open a span around the
call.  Nothing in the library changes; ``Tracer.remove`` puts every original
back.

A span has a name, a start, an end and a parent.  Its self time is its
duration minus the time its child spans cover; spans nest like the calls
they wrap, so that is the duration minus the sum of the children's
durations, accumulated as each child closes.  Spans of hot functions
(called up to hundreds of thousands of times per run) are folded into per-name
totals instead of being kept one by one, so memory stays flat; their time
still counts as child time of the span that called them.
"""

from __future__ import annotations

import functools
import importlib
import time


class Tracer:
    """Spans and counters kept in memory until the run ends.

    ``spans`` keeps ``(span_id, name, parent_id, start_ns, end_ns, self_ns)``
    for every span not marked hot; ``stats`` maps each span name to
    ``[calls, total_ns, self_ns]`` for all spans, hot ones included.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[tuple] = []
        self.stats: dict[str, list[int]] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []   # [span_id, name, start, child_ns, hot]
        self._next_id = 0
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ spans

    def enter(self, name: str, hot: bool = False) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, self.clock(), 0, hot])

    def exit(self) -> None:
        end = self.clock()
        sid, name, start, child_ns, hot = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_ns
        if not hot:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((sid, name, parent, start, end,
                               duration - child_ns))

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------ wrapping

    def wrap(self, owner, attr: str, name, *, hot: bool = False,
             before=None, after=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        ``name`` is the span name, or a function of the call's positional
        and keyword arguments giving it.  ``before(args)`` runs ahead of the
        call and its value is handed to ``after(tracer, args, result, pre)``,
        which records counters from the call's outcome.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self
        static = None if callable(name) else name

        @functools.wraps(original)
        def traced(*args, **kwargs):
            pre = before(args) if before is not None else None
            tracer.enter(static or name(args, kwargs), hot)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, args, result, pre)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ summaries

    def total_s(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0, 0))[1] for n in names) / 1e9

    def self_s(self, prefix: str) -> float:
        return sum(v[2] for k, v in self.stats.items()
                   if k.startswith(prefix)) / 1e9

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def mean_us(self, name: str, use_self: bool = True) -> float:
        calls, total, own = self.stats.get(name, (0, 0, 0))
        return ((own if use_self else total) / calls / 1e3) if calls else 0.0


# --------------------------------------------------------------- layer hooks

def _count_len(counter):
    def after(tracer, args, result, pre):
        tracer.count(counter, len(result))
    return after


def _estimate_name(args, kwargs):
    algorithm = args[1] if len(args) > 1 else kwargs["algorithm"]
    return f"harness.estimate.{algorithm}"


def _estimate_after(tracer, args, result, pre):
    tracer.count(f"harness.trials.{result.algorithm}", result.trials)


def _cli_name(args, kwargs):
    ns = args[0]
    return f"cli.{ns.command}.{ns.family}"


def _order_before(args):
    return len(args[0].prefix)


def _order_after(tracer, args, result, pre):
    tracer.count("sampling.order.draws", len(args[0].prefix) - pre)


# (modules binding the name, attribute, span name, wrap options).  Every
# module that imports a function by name gets its own wrapper, so each call
# is traced exactly once whichever module makes it.
_HOOKS = [
    (("sampling", "harness", "cli"), "derive_rng", "sampling.derive_rng",
     {"hot": True}),
    (("multiobjective", "node_budgeted", "size_constrained"),
     "present_edge_ids", "_engine.present_edge_ids", {"hot": True}),
    (("multiobjective", "node_budgeted", "size_constrained"),
     "contract_comps", "_engine.contract_comps", {"hot": True}),
    (("multiobjective", "node_budgeted"), "delta_mask", "_engine.delta_mask",
     {"hot": True}),
    (("node_budgeted",), "merge_comp_subset", "_engine.merge_comp_subset",
     {"hot": True}),
    (("multiobjective", "harness"), "enumerate_multiobjective",
     "multiobjective.enum", {"after": _count_len("multiobjective.collection")}),
    (("multiobjective", "harness"), "verify_pareto_optimality",
     "multiobjective.verify", {}),
    (("node_budgeted",), "hypergraph_min_cut",
     "node_budgeted.hypergraph_min_cut", {"hot": True}),
    (("node_budgeted",), "nb_multi_enum_constant_rank",
     "node_budgeted.nb_multi_enum", {}),
    (("size_constrained", "harness"), "success_floor_size",
     "size_constrained.success_floor_size", {}),
    (("harness",), "estimate", _estimate_name, {"after": _estimate_after}),
    (("harness",), "pipeline_equivalence", "harness.pipeline_equivalence", {}),
    (("oracle", "harness"), "build_catalog", "oracle.build_catalog",
     {"after": _count_len("oracle.catalog_cuts")}),
    (("analysis",), "lp_bruteforce", "analysis.lp_bruteforce", {}),
    (("analysis",), "_best_objective_given_x", "analysis.lp_point",
     {"hot": True}),
    (("hypergraph", "cli"), "load_instance", "hypergraph.load_instance", {}),
] + [(("oracle", "harness"), fn, f"oracle.query.{fn}", {})
     for fn in ("oracle_pareto", "oracle_multiobjective", "oracle_bmulti",
                "oracle_parametric_t2", "oracle_min_cut", "oracle_nb_bmulti",
                "oracle_kcut")]


# Methods are wrapped on their class, which every caller shares.
_METHOD_HOOKS = [
    ("multiobjective", "_EnumContext", "run", "multiobjective.enum.rep",
     {"hot": True}),
    ("sampling", "LazyWeightedOrder", "ensure", "sampling.order",
     {"hot": True, "before": _order_before, "after": _order_after}),
]


def install_layer_tracing(tracer: Tracer) -> None:
    """Wrap every traced function of every ``hypercuts`` layer."""
    def mod(short):
        return importlib.import_module(f"hypercuts.{short}")

    for modules, attr, name, options in _HOOKS:
        for short in modules:
            module = mod(short)
            if hasattr(module, attr):
                tracer.wrap(module, attr, name, **options)
    for short, cls, attr, name, options in _METHOD_HOOKS:
        tracer.wrap(getattr(mod(short), cls), attr, name, **options)
    cli = mod("cli")
    for attr in sorted(vars(cli)):
        if attr.startswith("cmd_"):
            tracer.wrap(cli, attr, _cli_name)


# --------------------------------------------------------------- metrics

ALGORITHMS = ("bmulti", "nb-bmulti-constant", "nb-bmulti-arbitrary",
              "hmincut", "kcut")
CLI_COMMANDS = ("solve.bmulti", "solve.nb-bmulti", "solve.hmincut",
                "solve.kcut", "verify.pareto", "oracle.pareto",
                "enumerate.nb-multi", "estimate.pipeline", "check.lemma-lp")

# Per-operation figures quoted in the ROADMAP "Recent" section, in the unit
# of the metric they are compared with.
ROADMAP_FIGURES = {
    "enum_rep_us": 44.0,      # one enumeration repetition, n=6 r=2 t=2
    "derive_rng_us": 9.9,     # seeding one per-trial MT19937
    "bmulti_walk_us": 2.5,    # one warm bmulti walk
    "order_m2000_ms": 78.0,   # full LazyWeightedOrder at m=2000
    "catalog_n16_s": 0.62,    # build_catalog at n=16, m=40
}


def _per_unit(total_ns: int, count: int, scale: float) -> float:
    return total_ns / count / scale if count else 0.0


def roadmap_figures(tracer: Tracer) -> dict:
    """Measured values of the ROADMAP figures this run exercised."""
    stats, counters = tracer.stats, tracer.counters
    out = {}
    reps = tracer.calls("multiobjective.enum.rep")
    if reps:
        out["enum_rep_us"] = tracer.mean_us("multiobjective.enum.rep",
                                            use_self=False)
    # a per-trial cost: a handful of calls measures only first-call effects
    if tracer.calls("sampling.derive_rng") >= 1000:
        out["derive_rng_us"] = tracer.mean_us("sampling.derive_rng")
    walks = counters.get("harness.trials.bmulti", 0)
    if walks:
        out["bmulti_walk_us"] = _per_unit(
            stats["harness.estimate.bmulti"][2], walks, 1e3)
    orders = tracer.calls("node_budgeted.nb_multi_enum")
    if orders and "sampling.order" in stats:
        out["order_m2000_ms"] = _per_unit(stats["sampling.order"][1],
                                          orders, 1e6)
    names = {sid: name for sid, name, *_ in tracer.spans}
    catalogs = [end - start for _, name, parent, start, end, _ in tracer.spans
                if name == "oracle.build_catalog"
                and names.get(parent) == "cli.oracle.pareto"]
    if catalogs:
        out["catalog_n16_s"] = sum(catalogs) / len(catalogs) / 1e9
    return out


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``; 0 where this
    run did not reach the layer."""
    stats, counters = tracer.stats, tracer.counters
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("sampling.derive_rng.calls", tracer.calls("sampling.derive_rng"),
        "count")
    put("sampling.derive_rng.us", tracer.mean_us("sampling.derive_rng"), "us")
    for alg in ALGORITHMS:
        trials = counters.get(f"harness.trials.{alg}", 0)
        put(f"harness.trials.{alg}", trials, "count")
        own = stats.get(f"harness.estimate.{alg}", (0, 0, 0))[2]
        put(f"harness.trial_us.{alg}", _per_unit(own, trials, 1e3), "us")
    # metric names start with a letter, so the _engine layer reports as engine
    for fn in ("present_edge_ids", "contract_comps", "delta_mask"):
        put(f"engine.{fn}.calls", tracer.calls(f"_engine.{fn}"), "count")
    put("engine.self_s", tracer.self_s("_engine."), "s")
    reps = tracer.calls("multiobjective.enum.rep")
    put("multiobjective.enum.s", tracer.total_s("multiobjective.enum"), "s")
    put("multiobjective.enum.reps", reps, "count")
    put("multiobjective.enum.rep_us",
        tracer.mean_us("multiobjective.enum.rep", use_self=False), "us")
    put("multiobjective.collection",
        counters.get("multiobjective.collection", 0), "count")
    put("multiobjective.verify.calls", tracer.calls("multiobjective.verify"),
        "count")
    put("multiobjective.verify.s", tracer.total_s("multiobjective.verify"),
        "s")
    draws = counters.get("sampling.order.draws", 0)
    put("sampling.order.draws", draws, "count")
    put("sampling.order.us_per_draw",
        _per_unit(stats.get("sampling.order", (0, 0, 0))[1], draws, 1e3), "us")
    put("node_budgeted.hypergraph_min_cut.calls",
        tracer.calls("node_budgeted.hypergraph_min_cut"), "count")
    put("node_budgeted.hypergraph_min_cut.us",
        tracer.mean_us("node_budgeted.hypergraph_min_cut", use_self=False),
        "us")
    put("oracle.build_catalog.s", tracer.total_s("oracle.build_catalog"), "s")
    put("oracle.catalog_cuts", counters.get("oracle.catalog_cuts", 0), "count")
    put("oracle.query.s", sum(v[1] for k, v in stats.items()
                              if k.startswith("oracle.query.")) / 1e9, "s")
    put("analysis.lp_bruteforce.s", tracer.total_s("analysis.lp_bruteforce"),
        "s")
    put("analysis.lp_grid_points", tracer.calls("analysis.lp_point"), "count")
    put("analysis.lp_point_us", tracer.mean_us("analysis.lp_point"), "us")
    put("hypergraph.load_instance.s",
        tracer.total_s("hypergraph.load_instance"), "s")
    for cmd in CLI_COMMANDS:
        put(f"cli.{cmd}.s", tracer.total_s(f"cli.{cmd}"), "s")
    put("cli.self_s", tracer.self_s("cli."), "s")
    put("trace.overhead_s", overhead_s, "s")
    measured = roadmap_figures(tracer)
    for key, figure in ROADMAP_FIGURES.items():
        put(f"roadmap.{key}.ratio", measured.get(key, 0.0) / figure, "ratio")
    return m
