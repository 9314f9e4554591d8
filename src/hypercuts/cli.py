"""Command-line front end.

Subcommands: gen, solve, enumerate, verify, oracle, estimate, check.
Global flags: --seed, --jobs, --format text|json.

Exit codes: 0 ok, 1 check failed, 2 usage error, 3 infeasible.

Text output is one record per line, ``key<TAB>json-value``; json output is a
single object.  Failure paths emit a machine-readable error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import analysis, harness, multiobjective, node_budgeted, oracle, size_constrained
from .hypergraph import (Cut, InstanceError, INFEASIBLE, load_instance,
                         save_instance)
from .sampling import derive_rng

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


class Infeasible(Exception):
    def __init__(self, payload):
        super().__init__("infeasible")
        self.payload = payload


class CheckFailed(Exception):
    def __init__(self, payload):
        super().__init__("check failed")
        self.payload = payload


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        json.dump(payload, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
    else:
        for key, value in payload.items():
            sys.stdout.write(f"{key}\t{json.dumps(value, default=str)}\n")


def _load(path: str):
    try:
        with open(path, "rb") as fh:
            return load_instance(fh.read())
    except OSError as exc:
        raise InstanceError(f"cannot read instance {path}: {exc}") from exc


def _ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise InstanceError(f"expected comma-separated integers, got {text!r}") from exc


def _cut_records(G, cuts) -> list[dict]:
    out = []
    for cut in sorted(cuts, key=lambda c: (len(c.edge_ids), c.edge_ids)):
        out.append({"edge_ids": list(cut.edge_ids),
                    "costs": list(G.cut_costs(cut))})
    return out


def _maybe_reps(value: str | None) -> int | None:
    if value is None or value == "auto":
        return None
    try:
        return int(value)
    except ValueError as exc:
        raise InstanceError(f"expected an integer or 'auto', got {value!r}") from exc


# ---------------------------------------------------------------- commands

def cmd_gen(args) -> dict:
    if args.family == "lowerbound":
        G = analysis.gen_lower_bound_instance(args.n, args.t)
    else:
        G = analysis.gen_random_instance(
            args.n, args.m, args.rank, args.t_costs, args.t_weights,
            max_cost=args.max_cost, max_weight=args.max_weight,
            seed=args.seed, positive_weights=args.positive_weights)
    data = save_instance(G)
    with open(args.out, "wb") as fh:
        fh.write(data)
    return {"out": args.out, "n": G.n, "m": G.m, "rank": G.rank,
            "t_costs": G.t_costs, "t_weights": G.t_weights,
            "digest": harness.instance_digest(G)}


def cmd_solve_bmulti(args) -> dict:
    G = _load(args.instance)
    best = multiobjective.solve_bmulti(G, _ints(args.budgets),
                                       trials=args.trials, seed=args.seed)
    if best.cut is None:
        raise Infeasible({"found": False, "trials": best.trials,
                          "note": "no budget-respecting cut found; instance may be infeasible"})
    return {"found": True, "trials": best.trials, "cut": list(best.cut.edge_ids),
            "costs": list(G.cut_costs(best.cut))}


def cmd_solve_nb(args) -> dict:
    G = _load(args.instance)
    best = node_budgeted.solve_nb_bmulti(G, _ints(args.budgets),
                                         rank_mode=args.rank_mode,
                                         trials=args.trials, seed=args.seed)
    if best.cut is None:
        raise Infeasible({"found": False, "trials": best.trials,
                          "infeasible_runs": best.infeasible_runs,
                          "note": "no feasible cut found; instance may be infeasible"})
    return {"found": True, "trials": best.trials, "rank_mode": args.rank_mode,
            "cut": list(best.cut.edge_ids), "cost": best.value,
            "infeasible_runs": best.infeasible_runs}


def cmd_solve_hmincut(args) -> dict:
    G = _load(args.instance)
    best = node_budgeted.solve_hmincut(G, trials=args.trials, seed=args.seed)
    return {"trials": best.trials, "cut": list(best.cut.edge_ids),
            "cost": best.value}


def cmd_solve_kcut(args) -> dict:
    G = _load(args.instance)
    sizes = _ints(args.sizes)
    best = size_constrained.solve_kcut(G, args.k, sizes, trials=args.trials,
                                       seed=args.seed,
                                       weighted_costs=args.weighted_costs)
    if best is INFEASIBLE:
        raise Infeasible({"found": False, "note": f"n={G.n} < k={args.k}"})
    if best.cut is None:
        raise Infeasible({"found": False, "trials": best.trials,
                          "note": "no size-feasible k-cut found; "
                                  "instance may be infeasible"})
    return {"trials": best.trials, "k": args.k, "sizes": sorted(sizes),
            "cut": list(best.cut.edge_ids), "value": best.value}


def cmd_enumerate(args) -> dict:
    G = _load(args.instance)
    rng = derive_rng(args.seed, 0)
    if args.family == "nb-multi":
        cuts = node_budgeted.nb_multi_enum_constant_rank(G, rng)
        return {"family": "nb-multi", "count": len(cuts),
                "cuts": _cut_records(G, cuts)}
    reps = _maybe_reps(args.reps)
    if args.family == "multi":
        cuts = multiobjective.enumerate_multiobjective(G, rng, reps)
    else:
        cuts = multiobjective.enumerate_pareto(
            G, rng, reps, _maybe_reps(args.verify_reps))
    used = reps if reps is not None else multiobjective.default_enum_repetitions(
        G.n, G.rank, G.t_costs)
    return {"family": args.family, "repetitions": used, "count": len(cuts),
            "cuts": _cut_records(G, cuts)}


def cmd_verify(args) -> dict:
    G = _load(args.instance)
    ids = _ints(args.cut)
    cut = Cut.of(ids)
    if any(e < 0 or e >= G.m for e in cut.edge_ids):
        raise InstanceError("cut mentions unknown edge ids")
    if G.n <= oracle.CATALOG_GUARD and not oracle.is_cut(G, cut):
        raise InstanceError(f"{list(cut.edge_ids)} is not a cut of this instance")
    rng = derive_rng(args.seed, 0)
    verdict = multiobjective.verify_pareto_optimality(
        G, cut, rng, _maybe_reps(args.reps))
    return {"cut": list(cut.edge_ids), "costs": list(G.cut_costs(cut)),
            "pareto_optimal": verdict}


def cmd_oracle(args) -> dict:
    G = _load(args.instance)
    which = args.family
    if which in ("pareto", "multi", "bmulti", "parametric"):
        catalog = oracle.build_catalog(G, override_guard=args.override_guard)
        if which == "pareto":
            cuts = oracle.oracle_pareto(catalog)
        elif which == "multi":
            cuts = oracle.oracle_multiobjective(catalog)
        elif which == "parametric":
            cuts = oracle.oracle_parametric_t2(catalog)
        else:
            cuts = oracle.oracle_bmulti(catalog, _ints(args.budgets))
            if not cuts:
                raise Infeasible({"family": which, "count": 0,
                                  "note": "no cut satisfies these budgets"})
        return {"family": which, "count": len(cuts),
                "cuts": _cut_records(G, cuts)}
    if which == "nb-bmulti":
        result = oracle.oracle_nb_bmulti(G, _ints(args.budgets),
                                         override_guard=args.override_guard)
        if result is INFEASIBLE:
            raise Infeasible({"family": which, "note": "no feasible vertex set"})
        value, cuts = result
        return {"family": which, "value": value, "count": len(cuts),
                "cuts": _cut_records(G, cuts)}
    result = oracle.oracle_kcut(G, args.k, _ints(args.sizes),
                                weighted_costs=args.weighted_costs,
                                override_guard=args.override_guard)
    if result is INFEASIBLE:
        raise Infeasible({"family": which, "note": "no feasible k-partition"})
    value, cuts = result
    return {"family": which, "value": value, "count": len(cuts),
            "cuts": _cut_records(G, cuts)}


def cmd_estimate(args) -> dict:
    G = _load(args.instance)
    if args.family == "pipeline":
        report = harness.pipeline_equivalence(
            G, args.seed, args.runs, _maybe_reps(args.reps),
            _maybe_reps(args.verify_reps))
        return report
    fixed = Cut.of(_ints(args.fixed_target)) if args.fixed_target else None
    algo = args.family
    kwargs = {}
    if algo == "bmulti":
        kwargs["budgets"] = _ints(args.budgets)
    elif algo == "nb-bmulti":
        algo = f"nb-bmulti-{args.rank_mode}"
        kwargs["budgets"] = _ints(args.budgets)
    elif algo == "kcut":
        kwargs["k"] = args.k
        kwargs["sizes"] = _ints(args.sizes)
        kwargs["weighted_costs"] = args.weighted_costs
    report = harness.estimate(G, algo, trials=args.trials, seed=args.seed,
                              fixed_target=fixed, jobs=args.jobs, **kwargs)
    payload = report.to_dict()
    if not report.passed:
        raise CheckFailed(payload)
    return payload


def cmd_check(args) -> dict:
    if args.family == "lemma-lp":
        if args.sweep < 1:
            raise InstanceError("sweep must be >= 1")
        rng = random.Random(args.seed)
        mismatches = []
        for i in range(args.sweep):
            r = rng.randrange(2, 7)
            gamma = rng.randrange(r + 1, 13)
            n = gamma + rng.randrange(0, 9)
            f = {n - j + 1: Fraction(rng.randrange(1, 100),
                                     rng.randrange(1, 10))
                 for j in range(2, r + 1)}
            inst = analysis.LpInstance(r=r, gamma=gamma, n=n, f=f)
            closed = analysis.lp_closed_form(inst)
            brute = analysis.lp_bruteforce(inst)
            if closed != brute:
                mismatches.append({"r": r, "gamma": gamma, "n": n,
                                   "closed": str(closed), "brute": str(brute)})
        payload = {"check": "lemma-lp", "sweep": args.sweep,
                   "mismatches": mismatches, "ok": not mismatches}
        if mismatches:
            raise CheckFailed(payload)
        return payload
    if args.max_n < 4:
        # n = 4 is the smallest n with an (n, e, sigma) case.
        raise InstanceError("max-n must be >= 4")
    cases = violations = 0
    for n in range(1, args.max_n + 1):
        for e in range(2, n + 1):
            sigma = 1
            while n - e + 1 > 2 * sigma:
                cases += 1
                if not analysis.ratio_inequality_check(n, e, sigma):
                    violations += 1
                sigma += 1
    payload = {"check": "ratio-ineq", "max_n": args.max_n,
               "cases": cases, "violations": violations, "ok": violations == 0}
    if violations:
        raise CheckFailed(payload)
    return payload


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--jobs", type=int, default=1)
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = argparse.ArgumentParser(prog="hypercuts", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate instances")
    gsub = p.add_subparsers(dest="family", required=True)
    g = gsub.add_parser("lowerbound", parents=[common])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--t", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)
    g = gsub.add_parser("random", parents=[common])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--rank", type=int, required=True)
    g.add_argument("--t-costs", dest="t_costs", type=int, required=True)
    g.add_argument("--t-weights", dest="t_weights", type=int, required=True)
    g.add_argument("--max-cost", dest="max_cost", type=int, default=8)
    g.add_argument("--max-weight", dest="max_weight", type=int, default=8)
    g.add_argument("--positive-weights", dest="positive_weights",
                   action="store_true")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run one randomized solver")
    ssub = p.add_subparsers(dest="family", required=True)
    s = ssub.add_parser("bmulti", parents=[common])
    s.add_argument("--instance", required=True)
    s.add_argument("--budgets", required=True)
    s.add_argument("--trials", type=int)
    s.set_defaults(func=cmd_solve_bmulti)
    s = ssub.add_parser("nb-bmulti", parents=[common])
    s.add_argument("--instance", required=True)
    s.add_argument("--budgets", required=True)
    s.add_argument("--rank-mode", dest="rank_mode",
                   choices=("constant", "arbitrary"), default="constant")
    s.add_argument("--trials", type=int)
    s.set_defaults(func=cmd_solve_nb)
    s = ssub.add_parser("hmincut", parents=[common])
    s.add_argument("--instance", required=True)
    s.add_argument("--trials", type=int)
    s.set_defaults(func=cmd_solve_hmincut)
    s = ssub.add_parser("kcut", parents=[common])
    s.add_argument("--instance", required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--sizes", required=True)
    s.add_argument("--trials", type=int)
    s.add_argument("--weighted-costs", dest="weighted_costs",
                   action="store_true")
    s.set_defaults(func=cmd_solve_kcut)

    p = sub.add_parser("enumerate", help="enumerate cut collections")
    esub = p.add_subparsers(dest="family", required=True)
    for fam in ("multi", "pareto"):
        e = esub.add_parser(fam, parents=[common])
        e.add_argument("--instance", required=True)
        e.add_argument("--reps", default="auto",
                       help="repetition count or 'auto' for the default bound")
        e.add_argument("--verify-reps", dest="verify_reps", default="auto")
        e.set_defaults(func=cmd_enumerate)
    e = esub.add_parser("nb-multi", parents=[common])
    e.add_argument("--instance", required=True)
    e.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="verify pareto-optimality of a cut")
    vsub = p.add_subparsers(dest="family", required=True)
    v = vsub.add_parser("pareto", parents=[common])
    v.add_argument("--instance", required=True)
    v.add_argument("--cut", required=True, help='edge ids, e.g. "3,7,9"')
    v.add_argument("--reps", default="auto")
    v.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive ground truth (small n)")
    osub = p.add_subparsers(dest="family", required=True)
    for fam in ("pareto", "multi", "parametric"):
        o = osub.add_parser(fam, parents=[common])
        o.add_argument("--instance", required=True)
        o.add_argument("--override-guard", dest="override_guard",
                       action="store_true")
        o.set_defaults(func=cmd_oracle)
    o = osub.add_parser("bmulti", parents=[common])
    o.add_argument("--instance", required=True)
    o.add_argument("--budgets", required=True)
    o.add_argument("--override-guard", dest="override_guard",
                   action="store_true")
    o.set_defaults(func=cmd_oracle)
    o = osub.add_parser("nb-bmulti", parents=[common])
    o.add_argument("--instance", required=True)
    o.add_argument("--budgets", required=True)
    o.add_argument("--override-guard", dest="override_guard",
                   action="store_true")
    o.set_defaults(func=cmd_oracle)
    o = osub.add_parser("kcut", parents=[common])
    o.add_argument("--instance", required=True)
    o.add_argument("--k", type=int, required=True)
    o.add_argument("--sizes", required=True)
    o.add_argument("--weighted-costs", dest="weighted_costs",
                   action="store_true")
    o.add_argument("--override-guard", dest="override_guard",
                   action="store_true")
    o.set_defaults(func=cmd_oracle)

    p = sub.add_parser("estimate", help="Monte-Carlo floor checks vs oracle")
    xsub = p.add_subparsers(dest="family", required=True)
    x = xsub.add_parser("bmulti", parents=[common])
    x.add_argument("--instance", required=True)
    x.add_argument("--budgets", required=True)
    x.add_argument("--trials", type=int)
    x.add_argument("--fixed-target", dest="fixed_target")
    x.set_defaults(func=cmd_estimate)
    x = xsub.add_parser("nb-bmulti", parents=[common])
    x.add_argument("--instance", required=True)
    x.add_argument("--budgets", required=True)
    x.add_argument("--rank-mode", dest="rank_mode",
                   choices=("constant", "arbitrary"), default="constant")
    x.add_argument("--trials", type=int)
    x.add_argument("--fixed-target", dest="fixed_target")
    x.set_defaults(func=cmd_estimate)
    x = xsub.add_parser("hmincut", parents=[common])
    x.add_argument("--instance", required=True)
    x.add_argument("--trials", type=int)
    x.add_argument("--fixed-target", dest="fixed_target")
    x.set_defaults(func=cmd_estimate)
    x = xsub.add_parser("kcut", parents=[common])
    x.add_argument("--instance", required=True)
    x.add_argument("--k", type=int, required=True)
    x.add_argument("--sizes", required=True)
    x.add_argument("--weighted-costs", dest="weighted_costs",
                   action="store_true")
    x.add_argument("--trials", type=int)
    x.add_argument("--fixed-target", dest="fixed_target")
    x.set_defaults(func=cmd_estimate)
    x = xsub.add_parser("pipeline", parents=[common])
    x.add_argument("--instance", required=True)
    x.add_argument("--runs", type=int, default=20)
    x.add_argument("--reps", default="auto")
    x.add_argument("--verify-reps", dest="verify_reps", default="auto")
    x.set_defaults(func=cmd_estimate)

    p = sub.add_parser("check", help="closed-form analysis checks")
    csub = p.add_subparsers(dest="family", required=True)
    c = csub.add_parser("lemma-lp", parents=[common])
    c.add_argument("--sweep", type=int, default=500)
    c.set_defaults(func=cmd_check)
    c = csub.add_parser("ratio-ineq", parents=[common])
    c.add_argument("--max-n", dest="max_n", type=int, default=30)
    c.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = getattr(args, "format", "text")
    try:
        payload = args.func(args)
    except Infeasible as exc:
        _emit(exc.payload, fmt)
        return EXIT_INFEASIBLE
    except CheckFailed as exc:
        _emit(exc.payload, fmt)
        return EXIT_CHECK_FAILED
    except InstanceError as exc:
        json.dump({"error": str(exc), "code": EXIT_USAGE}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_USAGE
    _emit(payload, fmt)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
