"""Mutation matrix: which tests kill each hand-made mutant of the library.

Usage::

    python3 tools/mutants.py

``MUTANTS`` lists (name, file under ``src/hypercuts``, old text, new text,
equivalent).  The old text must occur exactly once in its file.  An
equivalent mutant changes no result the library promises (a tie-break the
docs fix but any choice of which is valid, say), so no test is owed to kill
it.

The script copies this checkout's ``src``, ``tests`` and ``README.md`` into
a temporary directory, once unmutated and once per mutant, and runs pytest
there twice:

1. the suite without ``GOLDENS``, the tests that compare seeded outputs
   with recorded ones (``tests/test_golden.py`` and acceptance criterion 2);
2. ``GOLDENS`` alone.

A ``conftest.py`` written into each copy bounds every test with
``signal.alarm`` at ``TEST_BOUND_S`` seconds, so a mutant that makes a test
hang is killed by that test.  The unmutated copy must pass both runs; a test
it fails is reported and not counted as a kill.  For each mutant the script
prints the tests that kill it in each run, then one line per mutant:
kills without the goldens, kills by the goldens, and a verdict.  A
non-equivalent mutant that only the goldens kill, or that survives, is
flagged: the suite has no semantic test for what it breaks.

Standard library and pytest only; it writes nothing into this checkout.
Each mutant takes about as long as the suite, about a minute on a 2-core
machine.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "README.md")
TEST_BOUND_S = 120
GOLDENS = ("tests/test_golden.py",
           "tests/test_acceptance.py::test_criterion_2_enumeration_pipelines")

MUTANTS = [
    # in the walk hmincut shares with nb-arbitrary, every present edge
    # weighs 1 once every set fits, whatever its cost and size
    ("hmincut-uniform-weights", "node_budgeted.py",
     "weights = [(live - k) * cost[eid]\n", "weights = [1\n", False),
    ("kcut-comb-sigma-plus-1", "size_constrained.py",
     "alpha = [comb(x, sigma_lead) for x in range(G.n + 1)]",
     "alpha = [comb(x, sigma_lead + 1) for x in range(G.n + 1)]", False),
    ("nb-arbitrary-no-violator-term", "node_budgeted.py",
     "(live - k + bool(masks[eid] & bad))", "(live - k)", False),
    # alpha weights after U fits: the min-cut walk's weights never apply
    ("nb-arbitrary-alpha-after-fit", "node_budgeted.py",
     "if not fits(feas_mask):", "if True:", False),
    # a weightless min-cut or arbitrary-rank state stops with every present
    # edge, which is no cut when a zero-cost edge spans only some components
    ("min-cut-stop-present-edges", "node_budgeted.py",
     "return delta_mask(masks, c, full), True",
     "return sum(1 << eid for eid, em in enumerate(masks)\n"
     "                           if any(em & x and em & ~x\n"
     "                                  for x in comps)), True",
     False),
    ("bmulti-ties-to-highest", "multiobjective.py",
     "key=lambda j: (-sizes[j], j)", "key=lambda j: (-sizes[j], -j)", False),
    ("nb-constant-no-fitting-complement", "node_budgeted.py",
     "(fits(side) or fits(full & ~side))", "fits(side)", False),
    # any sweep order draws one uniform side per distinct merged partition,
    # so only checks of seeded outputs can kill it
    ("nb-enum-sweep-forward", "node_budgeted.py",
     "for comps in reversed(states):", "for comps in states:", True),
    # the descent stops below a running sum equal to the draw, as a
    # bisect_left of the running sums would
    ("order-pick-bisect-left", "sampling.py",
     "if nxt <= m and tree[nxt] <= r:", "if nxt <= m and tree[nxt] < r:",
     False),
    ("verify-weak-improvement", "multiobjective.py",
     "value is not None and value < target",
     "value is not None and value <= target", False),
    # strict on the leading criteria too; ``beats_last`` itself also serves
    # ``oracle_multiobjective``, so the prune gets its own rule
    ("prune-strict-leading-criteria", "multiobjective.py",
     "for m in masks}, beats_last)",
     "for m in masks}, lambda a, b: a[-1] < b[-1] and all(\n"
     "        x < y for x, y in zip(a[:-1], b[:-1])))", False),
    # resolved outermost first, where the docs resolve innermost first: the
    # innermost level whose coin comes up 0 then survives
    ("kcut-candidates-outermost-first", "_engine.py",
     "for candidate in reversed(pending):",
     "for candidate in pending:", False),
    # each label goes to the pick drawn in its place, not to the pick at
    # its place in sorted order; the law of one candidate stays the same
    ("kcut-labels-zip-unsorted", "size_constrained.py",
     "return zip(sorted(chosen), raws[size:])",
     "return zip(chosen, raws[size:])", False),
    # the pool keeps a picked component, so a candidate can pick it twice
    # and labels fewer than 2 sigma components
    ("kcut-pool-no-swap", "size_constrained.py",
     "        pool[j] = pool[i - 1]\n", "", False),
    # a level candidate reads the memo before it settles an empty part, so
    # it takes the crossing edges a base draw memoised for the same masks
    ("kcut-empty-part-after-memo", "size_constrained.py",
     "        if 0 in label_masks:\n"
     "            return alive, False\n"
     "        return outcome(tuple(label_masks))\n",
     "        key = tuple(label_masks)\n"
     "        if key in memo:\n"
     "            return memo[key]\n"
     "        if 0 in key:\n"
     "            return alive, False\n"
     "        return outcome(key)\n", False),
    ("kcut-rest-labelled-0", "size_constrained.py",
     "label_masks[k - 1] |= full & ~picked",
     "label_masks[0] |= full & ~picked", False),
    # every draw node reads and fills one table, the dict of the base
    # decoder's function object, so a draw replays another state's outcome
    ("kcut-base-table-shared", "size_constrained.py",
     "return (\"draw\", draws[live], {}, decode)",
     "return (\"draw\", draws[live], labelled.__dict__, decode)", False),
    # the labelling memo keeps through the walk itself, a reference cycle:
    # a dropped k-cut walk waits for the garbage collector
    ("kcut-memo-strong-owner", "size_constrained.py",
     "owner = proxy(walk)", "owner = walk", False),
    # the pipeline's front keeps a cut that another beats only on the
    # leading criteria, at an equal last cost
    ("pareto-front-beats-last", "multiobjective.py",
     "for cut in collection}, dominates)",
     "for cut in collection}, beats_last)", False),
    ("pareto-unfiltered-collection", "multiobjective.py",
     "pareto = front({cut: G.cut_costs(cut) for cut in collection}, dominates)",
     "pareto = set(collection)", False),
    ("pareto-count-skips-check", "multiobjective.py",
     "    if verify_repetitions is not None:\n        pareto = {cut",
     "    if False:\n        pareto = {cut", False),
    ("enum-store-one-past-cap", "multiobjective.py",
     "if self.size >= _ENUM_CACHE_CAP:", "if self.size > _ENUM_CACHE_CAP:",
     False),
    # a table pick redraws at most once, so a second draw at or above the
    # total lands on the rejection mark, past every position
    ("pick-table-rejects-once", "multiobjective.py",
     "while at == REJECT:", "if at == REJECT:", False),
    ("exact-int-accepts-bools", "hypergraph.py",
     "if not isinstance(value, int) or isinstance(value, bool):",
     "if not isinstance(value, int):", False),
    ("cut-ids-unordered", "hypergraph.py",
     "if not last < exact_int(eid, \"edge id\") < self.m:",
     "if not 0 <= exact_int(eid, \"edge id\") < self.m:", False),
    ("trial-rngs-one-step-late", "sampling.py",
     "exact_int(start, \"trial index\", 0) * _GAMMA",
     "(exact_int(start, \"trial index\", 0) + 1) * _GAMMA", False),
    # the next-to-last count never takes all that is left, so the grid
    # point x_j = 1 on that item is skipped
    ("lp-grid-drops-full-counts", "analysis.py",
     "for take in range(0, gamma * (left + 1), gamma):",
     "for take in range(0, gamma * left, gamma):", False),
    # a fill that stops inside the fixed prefix prices its last take at the
    # next item's f
    ("lp-grid-prefix-next-item", "analysis.py",
     "(b - takes[t]) * fs[t]", "(b - takes[t]) * fs[t + 1]", False),
    # a report exactly three standard deviations below its floor fails
    ("pass-boundary-strict", "harness.py",
     "(p - f) ** 2 * self.trials <= 9 * p * (1 - p)",
     "(p - f) ** 2 * self.trials < 9 * p * (1 - p)", False),
    # ties keep the latest trial, where the docs keep the earliest
    ("best-of-n-ties-to-latest", "harness.py",
     "(best_val is None or val < best_val)",
     "(best_val is None or val <= best_val)", False),
    # a walk whose level candidates all fail decodes the candidate that
    # survived in an earlier walk of the same call
    ("runs-survivor-not-reset", "_engine.py",
     "        for rng in rngs:\n"
     "            survivor = None  # the level candidate that replaces the "
     "outcome\n",
     "        survivor = None\n"
     "        for rng in rngs:\n", False),
    # the outcome kept at the draw node stands although a level candidate
    # survives
    ("draw-survivor-ignored", "_engine.py",
     "if survivor is None:", "if True:", False),
    # a subset draw asks for one bit more, so half its calls are rejected:
    # the same law from other generator calls
    ("subset-draw-extra-bit", "_engine.py",
     "((1 << live, live),)", "((1 << live, live + 1),)", False),
    # past the budget a link keeps an uncached successor alive; outputs stay
    # the same, the bound on memory does not
    ("walk-link-uncached", "_engine.py",
     "if cache.get(nxt) is link:  # only a cached entry",
     "if True:  # only a cached entry", False),
    # a merge state's entry pairs its target's node with the components
    # before the merge, so the walk goes on from the unmerged partition
    ("walk-merge-entry-pre-merge-comps", "_engine.py",
     "entry = self._entry(node[1])",
     "entry = (comps, self._entry(node[1])[1])", False),
    # a merge alias is kept when its target is not, so it holds an uncached
    # node that no slot pays for
    ("walk-merge-alias-uncached-target", "_engine.py",
     "if node[1] in self.cache else entry)", "if True else entry)", False),
    # keep stores past the budget: outputs stay the same, the bound does not
    ("walk-budget-unenforced", "_engine.py",
     "if slots <= self.room:", "if True:", False),
    # a state costs one slot whatever its node holds, so the budget counts
    # states again and bounds no memory
    ("walk-state-charged-one-slot", "_engine.py",
     "self.room -= slots", "self.room -= 1", False),
    # the criterion-8 generator never draws n = gamma + 8
    ("lemma-lp-sweep-narrow-n", "analysis.py",
     "n = gamma + rng.randrange(0, 9)", "n = gamma + rng.randrange(0, 8)",
     False),
    # a vector on a hull edge between two vertices is minimal at that edge's
    # breakpoint, so dropping collinear vertices loses parametric cuts
    ("parametric-hull-drops-collinear", "oracle.py",
     "if (p1 - o1) * (a2 - o2) >= (p2 - o2) * (a1 - o1):",
     "if (p1 - o1) * (a2 - o2) > (p2 - o2) * (a1 - o1):", False),
    # no cost or weight table is counted against its edges or vertices: in
    # the loader a cost row short raises IndexError, a row over is dropped
    ("loader-no-cost-row-count", "hypergraph.py",
     "    if len(rows) != count:\n"
     "        raise InstanceError(f\"{owner}_{noun}s must have one row per {owner}\")\n",
     "", False),
]

CONFTEST = f'''
import signal

import pytest


class Hang(BaseException):
    """Not an Exception, so no retry loop (hypothesis's) swallows it."""


def _hang(signum, frame):
    raise Hang("test ran past {TEST_BOUND_S} s")


signal.signal(signal.SIGALRM, _hang)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    signal.alarm({TEST_BOUND_S})
    yield
    signal.alarm(0)
'''


def make_copy(where: str, mutant=None) -> str:
    """A copy of the checkout's tested files under ``where``, with
    ``mutant`` applied."""
    tree = os.path.join(where, "tree")
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(tree, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(src, os.path.join(tree, name))
    with open(os.path.join(tree, "conftest.py"), "w") as fh:
        fh.write(CONFTEST)
    if mutant is not None:
        name, fname, old, new, _ = mutant
        path = os.path.join(tree, "src", "hypercuts", fname)
        with open(path) as fh:
            text = fh.read()
        if text.count(old) != 1:
            raise SystemExit(f"{name}: old text found {text.count(old)} "
                             f"times in {fname}, not once")
        with open(path, "w") as fh:
            fh.write(text.replace(old, new))
    return tree


def failures(tree: str, args) -> list[str]:
    """The tests of one pytest run in ``tree`` that fail or error."""
    report = os.path.join(os.path.dirname(tree), "report.xml")
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--junitxml={report}", *args], cwd=tree, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if proc.returncode not in (0, 1):
        return [f"(pytest exited {proc.returncode})"]
    failed = []
    for case in ET.parse(report).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            failed.append(f"{case.get('classname')}::{case.get('name')}")
    return failed


def kill_sets(mutant=None) -> tuple[list[str], list[str]]:
    """(failing tests without the goldens, failing goldens) of one copy."""
    with tempfile.TemporaryDirectory() as where:
        tree = make_copy(where, mutant)
        rest = ["tests", f"--ignore={GOLDENS[0]}", f"--deselect={GOLDENS[1]}"]
        return failures(tree, rest), failures(tree, list(GOLDENS))


def main() -> int:
    start = time.monotonic()
    base_rest, base_golden = kill_sets()
    broken = set(base_rest) | set(base_golden)
    print(f"unmutated copy: {len(broken)} failing tests "
          f"({time.monotonic() - start:.0f} s)")
    for test in sorted(broken):
        print(f"  {test}")
    rows = []
    for mutant in MUTANTS:
        name, _, _, _, equivalent = mutant
        began = time.monotonic()
        rest, golden = (sorted(set(k) - broken) for k in kill_sets(mutant))
        print(f"\n{name} ({'equivalent' if equivalent else 'not equivalent'},"
              f" {time.monotonic() - began:.0f} s)")
        print(f"  killed without the goldens by {len(rest)}:")
        for test in rest:
            print(f"    {test}")
        print(f"  killed by the goldens by {len(golden)}:")
        for test in golden:
            print(f"    {test}")
        if rest:
            verdict = "killed"
        elif golden:
            verdict = "only the goldens kill it"
        else:
            verdict = "survives"
        if not equivalent and not rest:
            verdict += "; NEEDS A SEMANTIC TEST"
        rows.append((name, equivalent, len(rest), len(golden), verdict))
    print("\nmutant | equivalent | kills without goldens | golden kills | "
          "verdict")
    for name, equivalent, rest, golden, verdict in rows:
        print(f"{name} | {'yes' if equivalent else 'no'} | {rest} | "
              f"{golden} | {verdict}")
    print(f"total {time.monotonic() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
