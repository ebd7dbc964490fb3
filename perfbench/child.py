"""One analyze run in a fresh process, as `yieldtree analyze --config` does it.

Usage: child.py <plain|trace|count> <config.json> <launch time>

The launch time is CLOCK_MONOTONIC read by the parent just before it
started this process, so setup_s covers interpreter start, the yieldtree
import and config loading. run_s starts at the loaded config and ends when
run_pipeline returns, after manifest.json is written. The last stdout line
is one JSON object with the measurements.

plain  runs untraced.
trace  wraps each module's public functions (at every name they are bound
       under) and reports per-layer self times and per-call counts.
count  counts EntityKey and Table rows built; kept out of `trace` because a
       hook on every key would inflate the model self times.
"""

import json
import sys
import time


def peak_rss_mb() -> float:
    """This process's own peak resident set (Linux VmHWM).

    getrusage(RUSAGE_SELF).ru_maxrss is not used: Linux carries the
    spawning parent's high-water mark into it across exec, so it reports
    the benchmark runner's size whenever that is the larger.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(mode: str, config_path: str, launched: float) -> dict:
    import yieldtree  # timed as part of setup
    from yieldtree import pipeline

    hooks = None
    if mode == "trace":
        from tracer import Tracer

        hooks = Tracer()
        hooks.install()
    elif mode == "count":
        from tracer import ObjectCounter

        hooks = ObjectCounter()

    # Called through the module so that a traced run sees the wrapped names.
    config = pipeline.load_config(config_path)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - launched

    if mode == "count":
        hooks.install()
    start = time.perf_counter()
    pipeline.run_pipeline(config)
    run_s = time.perf_counter() - start

    report = {
        "yieldtree": yieldtree.__file__,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    if hooks is not None:
        report.update(hooks.report())
    return report


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], sys.argv[2], float(sys.argv[3])), sort_keys=True))
