"""Time-to-escape benchmark for searchphase.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the package is imported from
``src``).  Workloads: sgd_search, sgd_steps, reduced_flow, cli_sweep (see
``workloads.py`` and BENCHMARK.json).  One run repeats the workload's whole
experiment set while the next repetition fits in ``--seconds`` (at least
once), then checks every operation's result outside the timed region.

``--trace 0`` reports the end-to-end metrics: wall_s (median time of one
experiment set), steps_per_s (SGD steps, single-index plus committee, on
the SGD and CLI workloads; RK4 flow steps on reduced_flow), setup_s (median
over fresh interpreters of importing the package and making the workload's
first cold call) and peak_rss_mb.  ``--trace 1`` splits the budget between
untraced and traced repetitions, adds the per-layer probes of
``layers.py``, and reports the per-layer metrics, the layers' self times
from the spans, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full result file
with provenance (and the spans, when traced) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
FRESH_PROCESSES = 3
FRESH_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fresh(*args) -> dict:
    """Run fresh.py in a new interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    res = subprocess.run([sys.executable, os.path.join(HERE, "fresh.py"), *args], env=env,
                         capture_output=True, text=True, timeout=FRESH_TIMEOUT_S, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def timed_reps(workload, tracer, budget: float):
    """Repeat the experiment set while the next repetition fits the budget.

    Returns per repetition: its wall time, its outputs and its counts.
    """
    durations, outputs, counts = [], [], []
    start = time.perf_counter()
    while True:
        before = dict(tracer.totals)
        t0 = time.perf_counter()
        with tracer.span("experiment set", "bench"):
            outputs.append(workload.rep(tracer))
        durations.append(time.perf_counter() - t0)
        counts.append({k: v - before.get(k, 0) for k, v in tracer.totals.items()})
        if time.perf_counter() - start + max(durations) > budget:
            return durations, outputs, counts


def with_ratios(counts: dict) -> dict:
    """One experiment set's counts plus each ratio, named with its base."""
    out = dict(counts)
    if counts.get("rk4_steps"):
        out["rhs_evals"] = 4 * counts["rk4_steps"]
    steps = counts.get("sgd_steps", 0)
    if steps:
        out["sgd_records_per_sgd_step"] = counts.get("sgd_records", 0) / steps
        out["test_samples_per_sgd_step"] = counts.get("test_samples", 0) / steps
        out["computed_bytes_per_sgd_step"] = counts.get("computed_bytes", 0) / steps
    return out


def judge(workload, outputs) -> tuple[int, list[str]]:
    """(operations attempted, names of failed operations) over all reps."""
    attempted, failed = 0, []
    for rep in outputs:
        attempted += workload.attempted(rep)
        failed += sorted(set(workload.check(rep)))
    return attempted, failed


def summary(values) -> dict:
    """Median and maximum (the highest percentile n values support), with n."""
    return {"median": statistics.median(values), "max": max(values), "n": len(values),
            "values": list(values)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "searchphase")):
        print(f"error: no package source under {SRC}; run from a searchphase checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import machine
    from tracing import Tracer

    os.environ["SEARCHPHASE_THREADS"] = str(machine.nproc())
    os.makedirs(RESULTS, exist_ok=True)
    import searchphase  # noqa: F401  (also compiles the package before the fresh runs)
    import searchphase.cli  # noqa: F401
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, RESULTS)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": machine.provenance(ROOT, args.seed)}
    untraced = Tracer(keep_spans=False)

    if not args.trace:
        setups = [fresh("setup", args.workload, str(args.seed), RESULTS)["setup_s"]
                  for _ in range(FRESH_PROCESSES)]
        durations, outputs, counts = timed_reps(workload, untraced, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rates = [sum(c.get(k, 0) for k in workload.step_counts) / d
                 for c, d in zip(counts, durations)]
        values = {
            "wall_s": statistics.median(durations),
            "steps_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        result["wall_s"] = summary(durations)
        result["setup_s"] = summary(setups)
    else:
        import layers

        cold = [fresh("layers", RESULTS) for _ in range(FRESH_PROCESSES)]
        plain, outputs, counts = timed_reps(workload, untraced, args.seconds / 2)
        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        traced, traced_out, _ = timed_reps(workload, tracer, args.seconds / 2)
        outputs += traced_out
        values = layers.run_probes(tracer, RESULTS, args.seed)
        for key in cold[0]:
            values[key] = statistics.median(c[key] for c in cold)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        values["trace.spans"] = len(tracer.spans)
        for layer, seconds in tracer.self_times().items():
            values[f"self_s.{layer}"] = seconds
        # counts over the whole traced run: traced sets plus probes
        for key in ("sgd_steps", "committee_steps", "sgd_records", "test_samples"):
            values[f"count.{key}"] = tracer.totals.get(key, 0)
        values["ode.rhs_evals"] = 4 * tracer.totals.get("rk4_steps", 0)
        result["wall_s_untraced"] = summary(plain)
        result["wall_s_traced"] = summary(traced)
        result["layer_calls"] = tracer.layer_calls()
        spans_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-spans.json")
        tracer.write(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)

    declared = load_spec()["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        print(f"error: metrics differ from BENCHMARK.json: emitted {sorted(values)}",
              file=sys.stderr)
        return 3
    attempted, failed = judge(workload, outputs)
    result["info"] = workload.info(outputs)
    result["counts_per_set"] = with_ratios(counts[0])
    workload.cleanup(outputs)
    result.update(attempted=attempted, failed=len(failed), failures=failed,
                  metrics={m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                           for m in declared})
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, default=str)
        fh.write("\n")

    report(result, path)
    final = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": result["metrics"],
    }
    print(json.dumps(final))
    return 0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def report(result: dict, path: str) -> None:
    prov = result["provenance"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"({prov['nproc']} cpus, {prov['cpu_model']}, python {prov['python']}, "
          f"numpy {prov['numpy']}, scipy {prov['scipy']})")
    for key in ("wall_s", "setup_s", "wall_s_untraced", "wall_s_traced"):
        if key in result:
            s = result[key]
            print(f"  {key:<16} median {s['median']:.4f} s  max {s['max']:.4f} s  over n={s['n']}")
    for key, m in result["metrics"].items():
        print(f"  {key:<34} {m['value']:.6g} {m['unit']}")
    print("  counts per experiment set: " + ", ".join(
        f"{k} {v:.6g}" for k, v in result["counts_per_set"].items()))
    if "layer_calls" in result:
        print("  layer calls (failed): " + ", ".join(
            f"{k} {v['calls']} ({v['failed']})" for k, v in result["layer_calls"].items()))
    print(f"  operations: {result['attempted']} attempted, {result['failed']} failed "
          f"(failed_frac {result['failed'] / max(result['attempted'], 1):.4g})")
    for name in result["failures"][:20]:
        print(f"    FAILED {name}")
    print(f"  result file: {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
