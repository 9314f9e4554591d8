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
import math
import random
import sys
from fractions import Fraction

from . import analysis, harness, multiobjective, node_budgeted, oracle
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


def _finite(value):
    """``value`` with every non-finite float (the z-slack of a floor of 1,
    say) replaced by None: JSON has no token for them."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _emit(payload: dict, fmt: str) -> None:
    payload = _finite(payload)
    if fmt == "json":
        json.dump(payload, sys.stdout, indent=2, default=str, allow_nan=False)
        sys.stdout.write("\n")
    else:
        for key, value in payload.items():
            text = json.dumps(value, default=str, allow_nan=False)
            sys.stdout.write(f"{key}\t{text}\n")


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


def _fixed_target(text: str | None) -> Cut | None:
    return Cut.of(_ints(text)) if text else None


# (flag dest, library keyword, conversion or None to pass the value as is).
# Conversions run in this order, so of two malformed flags the earlier one
# is reported.
_PARAMS = (
    ("fixed_target", "fixed_target", _fixed_target),
    ("budgets", "budgets", _ints),
    ("rank_mode", "rank_mode", None),
    ("k", "k", None),
    ("sizes", "sizes", _ints),
    ("weighted_costs", "weighted_costs", None),
    ("trials", "trials", None),
    ("override_guard", "override_guard", None),
    ("reps", "repetitions", _maybe_reps),
    ("verify_reps", "verify_repetitions", _maybe_reps),
)


def _params(args) -> dict:
    """The family flags ``args`` carries, as library keyword arguments: the
    one place where flags become parameters."""
    return {name: getattr(args, dest) if convert is None
            else convert(getattr(args, dest))
            for dest, name, convert in _PARAMS if dest in args}


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
    try:
        with open(args.out, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise InstanceError(f"cannot write instance {args.out}: {exc}") from exc
    return {"out": args.out, "n": G.n, "m": G.m, "rank": G.rank,
            "t_costs": G.t_costs, "t_weights": G.t_weights,
            "digest": harness.instance_digest(G)}


def _algorithm(family: str, params: dict) -> str:
    """A walk family's library algorithm; pops --rank-mode off ``params``."""
    mode = params.pop("rank_mode", None)
    return family if mode is None else f"{family}-{mode}"


# solve family -> (payload keys with a cut, keys without one, cut sought)
_SOLVED = {
    "bmulti": ("found trials cut costs", "found trials note",
               "budget-respecting cut"),
    "nb-bmulti": ("found trials rank_mode cut cost infeasible_runs",
                  "found trials infeasible_runs note", "feasible cut"),
    "hmincut": ("trials cut cost", "found trials note", "cut"),
    "kcut": ("trials k sizes cut value", "found trials note",
             "size-feasible k-cut"),
}


def cmd_solve(args) -> dict:
    G = _load(args.instance)
    params = _params(args)
    best = harness.solve(G, _algorithm(args.family, params), seed=args.seed,
                         **params)
    with_cut, without_cut, sought = _SOLVED[args.family]
    cut = best.cut
    if cut is None and G.n < params.get("k", 0):
        raise Infeasible({"found": False, "note": f"n={G.n} < k={args.k}"})
    fields = {**vars(args), "found": cut is not None, "trials": best.trials,
              "infeasible_runs": best.infeasible_runs,
              "note": f"no {sought} found; instance may be infeasible",
              "sizes": sorted(params.get("sizes", ())),
              "cost": best.value, "value": best.value}
    if cut is None:
        raise Infeasible({key: fields[key] for key in without_cut.split()})
    fields.update(cut=list(cut.edge_ids), costs=list(G.cut_costs(cut)))
    return {key: fields[key] for key in with_cut.split()}


def cmd_enumerate(args) -> dict:
    G = _load(args.instance)
    rng = derive_rng(args.seed, 0)
    if args.family == "nb-multi":
        cuts = node_budgeted.nb_multi_enum_constant_rank(G, rng)
        return {"family": "nb-multi", "count": len(cuts),
                "cuts": _cut_records(G, cuts)}
    params = _params(args)
    if args.family == "multi":
        cuts = multiobjective.enumerate_multiobjective(G, rng, **params)
    else:
        cuts = multiobjective.enumerate_pareto(G, rng, **params)
    used = multiobjective.enum_repetition_count(G, params["repetitions"])
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
        G, cut, rng, _params(args)["repetitions"])
    return {"cut": list(cut.edge_ids), "costs": list(G.cut_costs(cut)),
            "pareto_optimal": verdict}


def cmd_oracle(args) -> dict:
    G = _load(args.instance)
    params = _params(args)  # before the catalog: a malformed flag exits early
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
            cuts = oracle.oracle_bmulti(catalog, params["budgets"])
            if not cuts:
                raise Infeasible({"family": which, "count": 0,
                                  "note": "no cut satisfies these budgets"})
        return {"family": which, "count": len(cuts),
                "cuts": _cut_records(G, cuts)}
    if which == "nb-bmulti":
        query, note = oracle.oracle_nb_bmulti, "no feasible vertex set"
    else:
        query, note = oracle.oracle_kcut, "no feasible k-partition"
    result = query(G, **params)
    if result is INFEASIBLE:
        raise Infeasible({"family": which, "note": note})
    value, cuts = result
    return {"family": which, "value": value, "count": len(cuts),
            "cuts": _cut_records(G, cuts)}


def cmd_estimate(args) -> dict:
    G = _load(args.instance)
    params = _params(args)
    if args.family == "pipeline":
        return harness.pipeline_equivalence(G, args.seed, args.runs,
                                            jobs=args.jobs, **params)
    report = harness.estimate(G, _algorithm(args.family, params),
                              seed=args.seed, jobs=args.jobs, **params)
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

def _group(*flags) -> argparse.ArgumentParser:
    """A parent parser holding one flag group, from (flag, add_argument
    keywords) pairs; each dest is the flag's name."""
    group = argparse.ArgumentParser(add_help=False)
    for flag, options in flags:
        group.add_argument(flag, **options)
    return group


def build_parser() -> argparse.ArgumentParser:
    required = {"required": True}
    integer = {"type": int, "required": True}
    switch = {"action": "store_true"}
    common = _group(("--seed", {"type": int, "default": 0}),
                    ("--jobs", {"type": int, "default": 1}),
                    ("--format", {"choices": ("text", "json"),
                                  "default": "text"}))
    instance = _group(("--instance", required))
    budgets = _group(("--budgets", required))
    rank_mode = _group(("--rank-mode", {"choices": ("constant", "arbitrary"),
                                        "default": "constant"}))
    kcut = _group(("--k", integer), ("--sizes", required),
                  ("--weighted-costs", switch))
    trials = _group(("--trials", {"type": int}))
    fixed_target = _group(("--fixed-target", {}))
    override_guard = _group(("--override-guard", switch))
    reps = _group(("--reps", {"default": "auto", "help": "repetition count "
                              "or 'auto' for the default bound"}))
    verify_reps = _group(("--verify-reps", {"default": "auto"}))
    n, out = ("--n", integer), ("--out", required)

    # The walk families share their flags across solve, estimate and oracle.
    walks = {"bmulti": [budgets], "nb-bmulti": [budgets, rank_mode],
             "hmincut": [], "kcut": [kcut]}
    oracles = {"pareto": [], "multi": [], "parametric": [],
               "bmulti": [budgets], "nb-bmulti": [budgets], "kcut": [kcut]}
    # command -> (help, {family: (flag groups after common, handler)});
    # every command but gen and check also takes --instance.
    commands = {
        "gen": ("generate instances", {
            "lowerbound": ([_group(n, ("--t", integer), out)], cmd_gen),
            "random": ([_group(
                n, ("--m", integer), ("--rank", integer),
                ("--t-costs", integer), ("--t-weights", integer),
                ("--max-cost", {"type": int, "default": 8}),
                ("--max-weight", {"type": int, "default": 8}),
                ("--positive-weights", switch), out)], cmd_gen)}),
        "solve": ("run one randomized solver", {
            family: ([*groups, trials], cmd_solve)
            for family, groups in walks.items()}),
        "enumerate": ("enumerate cut collections", {
            "multi": ([reps], cmd_enumerate),
            "pareto": ([reps, verify_reps], cmd_enumerate),
            "nb-multi": ([], cmd_enumerate)}),
        "verify": ("verify pareto-optimality of a cut", {
            "pareto": ([_group(("--cut", {"required": True,
                                          "help": 'edge ids, e.g. "3,7,9"'})),
                        reps], cmd_verify)}),
        "oracle": ("exhaustive ground truth (small n)", {
            family: ([*groups, override_guard], cmd_oracle)
            for family, groups in oracles.items()}),
        "estimate": ("Monte-Carlo floor checks vs oracle", {
            **{family: ([*groups, trials, fixed_target], cmd_estimate)
               for family, groups in walks.items()},
            "pipeline": ([_group(("--runs", {"type": int, "default": 20})),
                          reps, verify_reps], cmd_estimate)}),
        "check": ("closed-form analysis checks", {
            "lemma-lp": ([_group(("--sweep", {"type": int, "default": 500}))],
                         cmd_check),
            "ratio-ineq": ([_group(("--max-n", {"type": int, "default": 30}))],
                           cmd_check)}),
    }

    parser = argparse.ArgumentParser(prog="hypercuts", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, families) in commands.items():
        fsub = sub.add_parser(command, help=text).add_subparsers(
            dest="family", required=True)
        located = [] if command in ("gen", "check") else [instance]
        for family, (groups, func) in families.items():
            fsub.add_parser(family, parents=[common, *located, *groups]
                            ).set_defaults(func=func)
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
