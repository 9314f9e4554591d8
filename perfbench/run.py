"""Benchmark for ``hypercuts``: one workload per invocation.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1] [--record-goldens]

The library is imported from ``src/`` next to this directory, never from an
installed copy.  The run sets up the workload several times (import,
instance generation, file writing) and reports the median set-up time, then
computes reference answers with the exhaustive oracles, untimed, and runs
the workload's fixed number of rounds of operations in a closed loop (each
operation starts when the previous one returns); no round starts after
``--seconds`` have passed, and at least one round always runs.

Times are reported in reference-speed seconds (see ``speed.py``): each
measured interval is scaled by how long a fixed calibration loop takes
during it.  On a machine whose CPU speed swings by tens of percent over
seconds this keeps runs comparable; on the 2-core machine the benchmark was
tuned on they are close to wall-clock seconds.  ``wall_s`` sums, over the
operations of one round, each operation's median time across rounds.

Every operation's output is checked: an exception, a non-zero exit code, a
result that disagrees with the oracle or, at the default seed, an output
digest that differs from ``goldens.json`` counts as a failed operation.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` one traced round follows the untraced rounds, the spans and
counters go to ``perfbench/out/trace-<workload>-<seed>.json`` and the last
line reports the per-layer metrics.  Either way the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDENS = os.path.join(HERE, "goldens.json")
SETUP_REPEATS = 15

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "trials_per_s": "1/s",
              "peak_rss_mb": "MB"}


class SourceMissing(Exception):
    pass


def import_hypercuts():
    """Import every ``hypercuts`` module afresh from ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "hypercuts", "__init__.py")):
        raise SourceMissing(f"no hypercuts package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules
                 if m == "hypercuts" or m.startswith("hypercuts.")]:
        del sys.modules[name]
    hc = importlib.import_module("hypercuts")
    if not os.path.abspath(hc.__file__).startswith(SRC + os.sep):
        raise SourceMissing(f"hypercuts imported from {hc.__file__}, not {SRC}")
    importlib.import_module("hypercuts.cli")
    return hc


def git_commit() -> str | None:
    """HEAD commit read from ``.git`` files; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def setup(workload: str, seed: int, workdir: str):
    """Set up SETUP_REPEATS times; returns (median reference-speed seconds,
    the hypercuts package, instances, paths)."""
    times = []
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            probe.start()
            hc = import_hypercuts()
            instances = workloads.generate(workload, seed)
            paths = workloads.write_files(instances, workdir)
            times.append(probe.stop()[1])
    return statistics.median(times), hc, instances, paths


def run_round(ops, workload, seed, goldens, record, tracer=None):
    """Run every operation once.

    Returns (seconds per operation, reference-speed seconds per operation,
    work, failures, digests).  Only the operations themselves are timed;
    their outputs are checked between them.  A traced round samples no CPU
    speed during the operations, so that no sampling runs inside a span.
    """
    seconds = []
    scaled = []
    work = 0
    failures = []
    digests = {}
    if tracer is not None:
        tracing.install_layer_tracing(tracer)
    try:
        with SpeedProbe(sampling=tracer is None) as probe:
            for op in ops:
                probe.start()
                if tracer is not None:
                    tracer.enter(f"op.{workload}")
                try:
                    code, payload = op.run()
                except Exception as exc:  # an operation that raises has failed
                    code, payload = None, None
                    failures.append(f"{op.name}: raised {exc!r}")
                finally:
                    if tracer is not None:
                        tracer.exit()
                    raw, ref = probe.stop()
                    seconds.append(raw)
                    scaled.append(ref)
                if code is None:
                    continue
                reason = (f"exit code {code}, expected 0" if code != 0
                          else op.check(payload))
                digests[op.name] = workloads.digest(payload)
                if (reason is None and seed == workloads.DEFAULT_SEED
                        and not record):
                    want = goldens.get(workload, {}).get(op.name)
                    if want != digests[op.name]:
                        reason = f"digest {digests[op.name]} != golden {want}"
                if reason is None:
                    work += op.work(payload)
                else:
                    failures.append(f"{op.name}: {reason}")
    finally:
        if tracer is not None:
            tracer.remove()
    return seconds, scaled, work, failures, digests


def provenance(hc, workload, seed, instances) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    digest = workloads.lib("harness").instance_digest
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "jobs": workloads.JOBS[workload],
        "hypercuts": hc.__version__,
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "instances": {i.key: digest(i.graph) for i in instances
                      if i.graph is not None},
    }


def load_goldens() -> dict:
    try:
        with open(GOLDENS) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def save_goldens(workload: str, digests: dict) -> None:
    goldens = load_goldens()
    goldens[workload] = dict(sorted(digests.items()))
    with open(GOLDENS, "w") as fh:
        json.dump(dict(sorted(goldens.items())), fh, indent=1)
        fh.write("\n")


def measure(args, workdir):
    setup_s, hc, instances, paths = setup(args.workload, args.seed, workdir)
    ops = workloads.plan(args.workload, instances, paths)
    prov = provenance(hc, args.workload, args.seed, instances)
    goldens = load_goldens()
    attempted = failed = 0
    failures = []

    def one_round(tracer=None):
        nonlocal attempted, failed
        seconds, scaled, work, fails, digests = run_round(
            ops, args.workload, args.seed, goldens, args.record_goldens, tracer)
        attempted += len(ops)
        failed += len(fails)
        failures.extend(fails)
        return seconds, scaled, work, digests

    # Rounds repeat the same operations.  Each operation's time is the
    # median over rounds, which filters out short stalls of a shared machine.
    start = time.perf_counter()
    rounds = []
    plain = []
    for _ in range(workloads.ROUNDS[args.workload]):
        seconds, scaled, work, digests = one_round()
        rounds.append(scaled)
        plain.append(seconds)
        if time.perf_counter() - start >= args.seconds:
            break
    if args.record_goldens and not failures:
        save_goldens(args.workload, digests)

    wall = sum(statistics.median(per_op) for per_op in zip(*rounds))
    e2e = {
        "setup_s": setup_s,
        "wall_s": wall,
        "trials_per_s": work / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: (v, END_TO_END[k]) for k, v in e2e.items()}
    print("provenance\t" + json.dumps(prov, sort_keys=True))
    print(f"rounds\t{len(rounds)}")

    if args.trace:
        # The overhead compares plain seconds, since the traced round takes
        # no speed samples to scale by, against the untraced rounds' medians.
        tracer = tracing.Tracer()
        traced, _, _, traced_digests = one_round(tracer)
        if traced_digests != digests:
            failed += 1
            attempted += 1
            failures.append("tracing changed an output digest")
        untraced = sum(statistics.median(per_op) for per_op in zip(*plain))
        metrics = tracing.layer_metrics(tracer, sum(traced) - untraced)
        write_trace(args, prov, tracer, sum(traced), untraced)
    for name, (value, unit) in metrics.items():
        print(f"metric\t{name}\t{value!r}\t{unit}")
    print(f"fail_ratio\t{failed}/{attempted}")
    for line in failures[:20]:
        print(f"failure\t{line}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def write_trace(args, prov, tracer, traced_s, untraced_s) -> None:
    measured = tracing.roadmap_figures(tracer)
    roadmap = {key: {"roadmap": figure, "measured": measured.get(key),
                     "ratio": (measured[key] / figure) if key in measured else None}
               for key, figure in tracing.ROADMAP_FIGURES.items()}
    for key, row in roadmap.items():
        if row["measured"] is not None:
            print(f"roadmap\t{key}\tmeasured {row['measured']:.4g}\t"
                  f"roadmap {row['roadmap']}\tratio {row['ratio']:.3f}")
    doc = {
        "provenance": prov,
        "traced_wall_s": traced_s,
        "untraced_wall_s": untraced_s,
        "overhead_s": traced_s - untraced_s,
        "roadmap": roadmap,
        "counters": tracer.counters,
        "stats": {k: {"calls": c, "total_ns": t, "self_ns": s}
                  for k, (c, t, s) in sorted(tracer.stats.items())},
        "spans": [{"id": sid, "name": name, "parent": parent, "start_ns": start,
                   "end_ns": end, "self_ns": own}
                  for sid, name, parent, start, end, own in tracer.spans],
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    print(f"trace\t{os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", dest="record_goldens",
                        action="store_true",
                        help="write this workload's output digests at the "
                             "default seed to goldens.json")
    args = parser.parse_args(argv)
    if args.record_goldens and args.seed != workloads.DEFAULT_SEED:
        parser.error("--record-goldens needs the default seed")
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result = measure(args, workdir)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
