"""Golden corpus: sha256 digests of seeded outputs on a fixed grid.

Every randomized entry point is a pure function of (instance, parameters,
seed), so a refactor that keeps behaviour keeps these digests.  The grid is
small (n <= 8, a few seeds) and the whole module runs in a few seconds.  Each
one-shot solver record also carries 32 bits drawn from the generator after
the call, which pins how much randomness the call consumed.

The digests were recorded once on the code before the walk engine was
shared; they are never re-recorded to make a change pass.
"""

import hashlib
import json
import warnings

import pytest

from hypercuts import INFEASIBLE
from hypercuts.analysis import gen_random_instance
from hypercuts.cli import main
from hypercuts.harness import estimate
from hypercuts.hypergraph import Cut, save_instance
from hypercuts.multiobjective import (bmulti_walk, enumerate_multiobjective,
                                      enumerate_pareto,
                                      verify_pareto_optimality)
from hypercuts.node_budgeted import (hmincut_walk, nb_arbitrary_walk,
                                     nb_constant_walk,
                                     nb_multi_enum_constant_rank)
from hypercuts.oracle import build_catalog, oracle_pareto
from hypercuts.sampling import derive_rng
from hypercuts.size_constrained import kcut_walk

SEEDS = (0, 1, 2)
TRIALS = 40


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _out(value):
    if value is INFEASIBLE:
        return "INFEASIBLE"
    if isinstance(value, Cut):
        return list(value.edge_ids)
    return sorted(list(c.edge_ids) for c in value)


def _budget(G, criterion=0):
    """Median single-criterion cut cost: a budget some cut meets."""
    values = sorted(c[criterion] for c in build_catalog(G).costs.values())
    return values[len(values) // 2]


def _weight_budget(G, i=0):
    return sorted(w[i] for w in G.vertex_weights)[G.n // 2]


# ------------------------------------------------------------ instances

def _bmulti_instances():
    G1 = gen_random_instance(6, 10, 2, 2, 0, max_cost=8, seed=1)
    G2 = gen_random_instance(7, 11, 3, 2, 0, max_cost=8, seed=2)
    G3 = gen_random_instance(8, 12, 2, 3, 0, max_cost=6, seed=3)
    G4 = gen_random_instance(6, 9, 3, 1, 0, max_cost=8, seed=4)
    return [(G1, (_budget(G1),)), (G2, (_budget(G2),)),
            (G3, (_budget(G3, 0), _budget(G3, 1))), (G4, ())]


def _hmincut_instances():
    return [gen_random_instance(6, 9, 5, 1, 0, max_cost=8, seed=5),
            gen_random_instance(8, 12, 3, 1, 0, max_cost=8, seed=6),
            gen_random_instance(7, 8, 2, 2, 0, max_cost=3, seed=7)]


def _nb_instances():
    G1 = gen_random_instance(6, 10, 3, 1, 1, max_weight=8, seed=8)
    G2 = gen_random_instance(7, 9, 5, 1, 1, max_weight=8, seed=9)
    G3 = gen_random_instance(8, 12, 4, 1, 2, max_weight=6, seed=10)
    heavy = gen_random_instance(5, 7, 3, 1, 1, max_weight=8, seed=11)
    return [(G1, (_weight_budget(G1),)), (G2, (_weight_budget(G2),)),
            (G3, (_weight_budget(G3, 0), _weight_budget(G3, 1))),
            (heavy, (0,))]


def _kcut_instances():
    G1 = gen_random_instance(7, 9, 3, 1, 1, max_weight=4, seed=12,
                             positive_weights=True)
    G2 = gen_random_instance(6, 8, 3, 1, 1, max_weight=4, seed=13,
                             positive_weights=True)
    tiny = gen_random_instance(2, 1, 2, 1, 1, max_weight=4, seed=14,
                               positive_weights=True)
    return [(G1, 2, (1, 1), False), (G1, 2, (1, 2), True),
            (G2, 3, (1, 1, 2), False), (G2, 3, (2, 1, 1), True),
            (tiny, 3, (1, 1, 1), False)]


# ------------------------------------------------------------ one-shot solvers

def _one_shot(walk):
    """One run of ``walk`` per trial generator; the walk's cache changes no
    draw, so one walk serves every trial."""
    records = []
    for seed in SEEDS:
        for idx in range(TRIALS):
            rng = derive_rng(seed, idx)
            out = walk.run(rng)
            out = INFEASIBLE if out is INFEASIBLE else Cut.from_mask(out[0])
            records.append((_out(out), rng.getrandbits(32)))
    return records


def _case_bmulti():
    return [_one_shot(bmulti_walk(G, b)) for G, b in _bmulti_instances()]


def _case_hmincut():
    return [_one_shot(hmincut_walk(G)) for G in _hmincut_instances()]


def _case_nb_constant():
    return [_one_shot(nb_constant_walk(G, b)) for G, b in _nb_instances()]


def _case_nb_arbitrary():
    return [_one_shot(nb_arbitrary_walk(G, b)) for G, b in _nb_instances()]


def _case_kcut():
    return [_one_shot(kcut_walk(G, k, s, weighted_costs=w))
            for G, k, s, w in _kcut_instances()]


# ------------------------------------------------------------ enumerators

def _case_enumerate_multiobjective():
    out = []
    for G, _ in _bmulti_instances()[:3]:
        for seed in SEEDS:
            rng = derive_rng(seed, 0)
            out.append((_out(enumerate_multiobjective(G, rng, 25)),
                        rng.getrandbits(32)))
    return out


def _case_enumerate_pareto():
    out = []
    for G, _ in _bmulti_instances()[:2]:
        for seed in SEEDS:
            rng = derive_rng(seed, 1)
            out.append((_out(enumerate_pareto(G, rng, 25, 15)),
                        rng.getrandbits(32)))
    return out


def _case_verify_pareto():
    out = []
    for G, _ in _bmulti_instances()[:3]:
        catalog = build_catalog(G)
        pareto = oracle_pareto(catalog)
        cuts = sorted(catalog.costs, key=lambda c: c.edge_ids)[:6]
        cuts += sorted(pareto, key=lambda c: c.edge_ids)[:2]
        for seed in SEEDS:
            rng = derive_rng(seed, 2)
            verdicts = [verify_pareto_optimality(G, cut, rng, 20) for cut in cuts]
            out.append((verdicts, rng.getrandbits(32)))
    return out


def _case_nb_multi_enum():
    out = []
    for G, _ in _nb_instances():
        for seed in SEEDS:
            rng = derive_rng(seed, 3)
            out.append((_out(nb_multi_enum_constant_rank(G, rng)),
                        rng.getrandbits(32)))
    return out


# ------------------------------------------------------------ harness

def _case_estimate():
    reports = []
    for G, b in _bmulti_instances()[:2]:
        reports.append(estimate(G, "bmulti", budgets=b, trials=300, seed=3))
    for G, b in _nb_instances():
        for algorithm in ("nb-bmulti-constant", "nb-bmulti-arbitrary"):
            reports.append(estimate(G, algorithm, budgets=b, trials=300,
                                    seed=4))
    for G in _hmincut_instances()[:2]:
        reports.append(estimate(G, "hmincut", trials=300, seed=5))
    for G, k, s, w in _kcut_instances():
        reports.append(estimate(G, "kcut", k=k, sizes=s, weighted_costs=w,
                                trials=150, seed=6))
    G, b = _bmulti_instances()[0]
    reports.append(estimate(G, "bmulti", budgets=b, trials=300, seed=7, jobs=2))
    return [r.to_dict() for r in reports]


# ------------------------------------------------------------ CLI solve

def _case_cli_solve(tmp_path, capsys):
    def write(name, G):
        path = tmp_path / f"{name}.json"
        path.write_bytes(save_instance(G))
        return str(path)

    bm = _bmulti_instances()
    nb = _nb_instances()
    kc = _kcut_instances()
    paths = {"bm0": write("bm0", bm[0][0]), "bm2": write("bm2", bm[2][0]),
             "hm0": write("hm0", _hmincut_instances()[0]),
             "hm1": write("hm1", _hmincut_instances()[1]),
             "nb0": write("nb0", nb[0][0]), "nb1": write("nb1", nb[1][0]),
             "heavy": write("heavy", nb[3][0]),
             "kc0": write("kc0", kc[0][0]), "kc2": write("kc2", kc[2][0]),
             "tiny": write("tiny", kc[4][0])}
    b0 = str(bm[0][1][0])
    argvs = [
        ["solve", "bmulti", "--instance", paths["bm0"], "--budgets", b0,
         "--trials", "400", "--seed", "1"],
        ["solve", "bmulti", "--instance", paths["bm0"], "--budgets", "0",
         "--trials", "50", "--seed", "1"],
        ["solve", "bmulti", "--instance", paths["bm2"], "--budgets",
         ",".join(map(str, bm[2][1])), "--trials", "300", "--seed", "2"],
        ["solve", "nb-bmulti", "--instance", paths["nb0"], "--budgets",
         str(nb[0][1][0]), "--trials", "300", "--seed", "3"],
        ["solve", "nb-bmulti", "--instance", paths["nb1"], "--budgets",
         str(nb[1][1][0]), "--rank-mode", "arbitrary", "--trials", "300",
         "--seed", "3"],
        ["solve", "nb-bmulti", "--instance", paths["heavy"], "--budgets", "0",
         "--rank-mode", "arbitrary", "--trials", "20", "--seed", "3"],
        ["solve", "nb-bmulti", "--instance", paths["heavy"], "--budgets", "0",
         "--trials", "20", "--seed", "3"],
        ["solve", "hmincut", "--instance", paths["hm0"], "--seed", "4"],
        ["solve", "hmincut", "--instance", paths["hm1"], "--trials", "90",
         "--seed", "4"],
        ["solve", "kcut", "--instance", paths["kc0"], "--k", "2", "--sizes",
         "1,1", "--trials", "300", "--seed", "5"],
        ["solve", "kcut", "--instance", paths["kc2"], "--k", "3", "--sizes",
         "2,1,1", "--trials", "300", "--seed", "5", "--weighted-costs"],
        ["solve", "kcut", "--instance", paths["tiny"], "--k", "3", "--sizes",
         "1,1,1", "--trials", "10", "--seed", "5"],
    ]
    out = []
    for argv in argvs:
        for fmt in ("text", "json"):
            code = main(argv + ["--format", fmt])
            captured = capsys.readouterr()
            out.append((code, captured.out))
    return out


GOLDEN = {
    "bmulti":
        "90abc0b369db8df6c9936feba8846332c9f1b9f88141ebe15da9cbeca63f8da7",
    "hmincut":
        "9035fe05688936a65d7783e98241414d8f15291545f94ba410d6283c7f70f76c",
    "nb_constant":
        "3e3a1935ba0c3e6ec45c226cbf5c99beca0ba5f2bfa045a64556f2d4fe9b42d5",
    "nb_arbitrary":
        "feeb1c1a1025b43a69e522018251965700eeebb107aab1c389fd7cedff0899eb",
    "kcut":
        "e0fd838975db1121511fbfd8040889cafff708edd3c7d059928ce7c8d521d6dc",
    "enumerate_multiobjective":
        "90b1c02f9cd6aade38ccdf32795e5f2da0daa54ad3b08ae1cf39dec9f043bb39",
    "enumerate_pareto":
        "cb439f0b2eac91567d749822d1f1ee5ce6ea13d671d7dada96c92c9a075d0ce2",
    "verify_pareto":
        "a8b53dad0bfcc98cfd35c8932a91f3b1e1ec49f3753e90b561aedb84772bc379",
    "nb_multi_enum":
        "c50ca7628cad6f6227870d14ca62fb8310f033134c1ab0b360fbb1312c1019fd",
    "estimate":
        "09b045fe8e5f8cf20d58af6d3b1b83099098106bbe05a94e69d22149a7969c50",
    "cli_solve":
        "c45abad3d259d56cb938019bc2e6ac2c693662d7755e1646e428bb2b8ed6a558",
}

CASES = {
    "bmulti": _case_bmulti,
    "hmincut": _case_hmincut,
    "nb_constant": _case_nb_constant,
    "nb_arbitrary": _case_nb_arbitrary,
    "kcut": _case_kcut,
    "enumerate_multiobjective": _case_enumerate_multiobjective,
    "enumerate_pareto": _case_enumerate_pareto,
    "verify_pareto": _case_verify_pareto,
    "nb_multi_enum": _case_nb_multi_enum,
    "estimate": _case_estimate,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_library_outputs_match_golden(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert _digest(CASES[name]()) == GOLDEN[name]


def test_cli_solve_payloads_match_golden(tmp_path, capsys):
    assert _digest(_case_cli_solve(tmp_path, capsys)) == GOLDEN["cli_solve"]
