"""One workload in a fresh process: set-up, then the timed phases.

    python3 bench/worker.py WORKLOAD SEED SECONDS MODE

MODE is ``setup`` (import and build the inputs, then stop), ``plain`` (one
untraced timed phase) or ``trace`` (the untraced phase, then a traced one),
each phase being the whole passes that come closest to SECONDS.  Prints one
JSON object on its last line; run.py turns it into metrics.
"""

import os
import sys
import time

# Set-up is timed from here: importing the library is part of it.
T0 = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import orbitinv  # noqa: E402
T1 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402

import workloads  # noqa: E402
from spans import NoTrace, Tracer  # noqa: E402


def run_phase(wl, seconds: float, tr, reference=None) -> dict:
    """Serve whole passes over the workload's items, at least one, and stop
    at the end of the pass closest to ``seconds``.

    Only whole passes are measured, so every run does the same mix of work
    and the same operations per pass (see workloads).  The last operation of
    a pass also checks its counts against ``reference``, or against the
    first pass's.

    Item times are summarized per window of consecutive items as they come,
    so the benchmark's own memory stays bounded and out of the peak RSS.  A
    window is one pass, or the workload's WINDOW_ITEMS if a pass is longer,
    so that windows do the same work.
    """
    size = min(wl.WINDOW_ITEMS, wl.PASS_ITEMS)
    out = workloads.Outcomes()
    windows = []
    window = array("d")
    passes = 0
    items = 0
    start = window_start = time.perf_counter()
    while True:
        counts = Counter()
        wl.probes(tr, out, counts)
        for tag, item in wl.items():
            t0 = time.perf_counter()
            tr.begin_item(items, tag)
            res = wl.compute(item, tr)
            tr.end_item()
            t1 = time.perf_counter()
            if res is workloads.END:
                break
            window.append(t1 - t0)
            items += 1
            if len(window) == size:
                windows.append(window_stats(window, t1 - window_start))
                window, window_start = array("d"), t1
            wl.check(item, res, out, counts)
            out.done()
        wl.end_pass(out)
        reference = counts if reference is None else reference
        out.check(counts == reference, "per-pass counts differ between passes")
        out.done()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes / 2 >= seconds:
            break
    beyond = 10 if size > 10 else 0
    return {"out": out, "counts": dict(reference), "passes": passes,
            "items": items, "elapsed_s": elapsed, "windows": len(windows),
            "window_items": size, "tail_pct": 100.0 * (size - beyond) / size, "beyond": beyond,
            **{key: statistics.median(w[key] for w in windows)
               for key in ("throughput_per_s", "p50_s", "tail_s")}}


def window_stats(times, duration: float) -> dict:
    """Rate, median and tail of one window.  The tail is the eleventh-largest
    time: the highest percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    return {"throughput_per_s": len(ordered) / duration, "p50_s": statistics.median(ordered),
            "tail_s": ordered[-11] if len(ordered) > 10 else ordered[-1]}


def main() -> int:
    name, seed, seconds, mode = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    if not os.path.abspath(orbitinv.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"error: imported orbitinv from {orbitinv.__file__}, not from this checkout",
              file=sys.stderr)
        return 3
    t2 = time.perf_counter()
    wl = workloads.WORKLOADS[name](seed)
    setup_s = (T1 - T0) + (time.perf_counter() - t2)
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    plain = run_phase(wl, seconds, NoTrace())
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    out = plain["out"]
    result = {
        "setup_s": setup_s,
        "plain": {k: v for k, v in plain.items() if k not in ("out", "counts")},
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "attempted": out.attempted,
        "failed": out.failed,
        "known_defects": dict(out.known),
        "unexpected": out.unexpected,
    }
    if mode == "trace":
        tr = Tracer()
        traced = run_phase(wl, seconds, tr, plain["counts"])
        wl.trace_extras(tr)
        tout = traced["out"]
        result.update(
            traced_throughput_per_s=traced["throughput_per_s"],
            counts=traced["counts"],
            spans=tr.summary(),
            attempted=out.attempted + tout.attempted,
            failed=out.failed + tout.failed,
            known_defects=dict(out.known + tout.known),
            unexpected=out.unexpected + tout.unexpected,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
