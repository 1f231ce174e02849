"""Benchmark of orbitinv: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; nothing needs building.  Each run sets
the workload up several times in fresh processes (``setup_s`` is their
median), then measures it in one more fresh process (``peak_rss_mb`` is
that process's ``ru_maxrss``; for ``cli``, that of the largest CLI process).
``--trace 1`` adds a traced phase after the untraced one and reports the
per-layer metrics instead; ``--workload all`` runs every workload in turn.

Human-readable lines come first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, the metric
names and units being those of BENCHMARK.json.  ``correct`` is false when
any output disagrees with its oracle, apart from the known defects, which
are counted in ``failed`` (and so in ``failed_ratio``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("census", "pipeline", "long-cycles", "cli")
SETUP_RUNS = 6  # set-up-only processes; the measuring process adds a seventh

# Public functions the traced run times, as <module>.<function>.
FUNCTIONS = (
    "textio.parse", "textio.serialize", "textio.emit_json",
    "invariants.validate", "invariants.canonical_form",
    "cyclegraph.graph_canonical", "census.enumerate_invariants", "capping.cap_off",
    "series.equivariant_poincare", "series.expansion",
    "formality.is_formal", "formality.euler_number",
    "elements.module_action", "elements.cup",
    "cli.import", "cli.interpreter", "cli.process",
)
# Medians split by a property of the item: edge-count bucket on long-cycles,
# closed or with-boundary input on pipeline.
TAGGED = (
    ("cyclegraph.graph_canonical", ("e500", "e1000", "e2000", "e4000")),
    ("capping.cap_off", ("e500", "e1000", "e2000", "e4000")),
    ("series.equivariant_poincare", ("closed", "boundary")),
)
COUNTS = ("census.data", "cyclegraph.edges", "textio.output_bytes", "capping.rp_pairings",
          "capping.orientability_fallbacks", "formality.formal", "invariants.rejected")


class BenchError(Exception):
    pass


def child(workload: str, seed: int, seconds: float, mode: str) -> dict:
    """Run worker.py in a fresh process (and session, so that a timeout also
    ends the CLI processes it started) and return its JSON result."""
    timeout = 60 if mode == "setup" else 2 * seconds + 120
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
            str(seconds), mode]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=ROOT, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{workload} {mode} process timed out after {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} process exited {proc.returncode}: "
                         f"{stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    child(workload, seed, 0, "setup")  # warm-up: byte-compiles the sources
    setups = [child(workload, seed, 0, "setup")["setup_s"] for _ in range(SETUP_RUNS)]
    res = child(workload, seed, seconds, "trace" if trace else "plain")
    setups.append(res["setup_s"])
    plain = res["plain"]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": plain["throughput_per_s"],
        "latency_p50_ms": plain["p50_s"] * 1e3,
        "latency_tail_ms": plain["tail_s"] * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
        "failed_ratio": res["failed"] / res["attempted"],
    }
    if trace:
        spans = res["spans"]
        for fn in FUNCTIONS:
            layer = spans["layers"].get(fn, {"calls": 0, "busy_s": 0.0, "p50_us": 0.0})
            for key in ("calls", "busy_s", "p50_us"):
                metrics[f"{fn}.{key}"] = layer[key]
        for fn, tags in TAGGED:
            for tag in tags:
                metrics[f"{fn}.p50_us.{tag}"] = spans["tagged_p50_us"].get(f"{fn}.{tag}", 0.0)
        for name in COUNTS:
            metrics[name] = (res["counts"] or {}).get(name, 0)
        metrics["trace.throughput_overhead_per_s"] = (
            plain["throughput_per_s"] - res["traced_throughput_per_s"])
    return metrics, res


def report(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> None:
    metrics, res = measure(workload, seed, seconds, trace)
    plain = res["plain"]
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}  "
          f"commit {commit()}  python {sys.version.split()[0]}  nproc {os.cpu_count()}")
    notes = {
        "setup_s": f"median of {SETUP_RUNS + 1} set-ups",
        "throughput_per_s": f"{plain['items']} items ({plain['passes']} passes) in "
                            f"{plain['elapsed_s']:.2f} s, "
                            f"median of {plain['windows']} windows",
        "latency_p50_ms": f"median of {plain['windows']} windows",
        "latency_tail_ms": f"p{plain['tail_pct']:.3f}: {plain['beyond']} of "
                           f"{plain['window_items']} samples beyond, median of "
                           f"{plain['windows']} windows",
        "failed_ratio": f"{res['failed']} of {res['attempted']} operations",
    }
    units = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "peak_rss_mb": "MB", "failed_ratio": "ratio"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        units[m["name"]] = m["unit"]
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {value:>14.6g} {units.get(name, '')}{note}")
    for defect, n in res["known_defects"].items():
        print(f"  known defect, failed {n}x: {defect}")
    for what in res["unexpected"]:
        print(f"  WRONG: {what}")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    print(json.dumps({
        "correct": not res["unexpected"] and res["failed"] == sum(res["known_defects"].values()),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "orbitinv", "__init__.py")):
        print(f"error: no src/orbitinv under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in chosen:
            report(workload, args.seed, args.seconds, bool(args.trace), spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
