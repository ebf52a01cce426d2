"""One benchmark pass in a fresh interpreter.

Reads a JSON spec on stdin::

    {"src": "<checkout>/src", "commands": [{"argv": [...], "out": "<path>"}],
     "trace": false, "spans": null}

imports ``subvacuum`` from ``src`` and builds the CLI parser (set-up), then
runs every command through ``subvacuum.cli.main`` (the job).  With ``trace``
true the layer tracer is installed after set-up.  Prints one JSON line with
the set-up timestamp, per-command exit codes and times, job time, CPU time,
peak RSS and, when traced, the per-layer metrics.
"""

import json
import os
import resource
import sys
import time


def peak_rss_mb() -> float:
    """High-water RSS of this process image.

    ``VmHWM`` restarts at ``exec``; ``ru_maxrss`` can instead carry the
    parent's RSS over when the child was forked rather than vforked.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


spec = json.loads(sys.stdin.read())
sys.path.insert(0, spec["src"])

from subvacuum import cli  # noqa: E402  (set-up is what is being timed)

cli.build_parser()
ready = time.clock_gettime(time.CLOCK_MONOTONIC)

if not os.path.realpath(cli.__file__).startswith(os.path.realpath(spec["src"]) + os.sep):
    sys.exit(f"subvacuum was imported from {cli.__file__}, not from {spec['src']}")

tracer = replaced = None
if spec["trace"]:
    import tracer as tracing  # the benchmark's own module, next to this file

    tracer = tracing.Tracer()
    replaced = tracing.install(tracer)

results = []
usage0 = resource.getrusage(resource.RUSAGE_SELF)
for command in spec["commands"]:
    out = command["out"]
    if out and os.path.exists(out):
        os.remove(out)
    t0 = time.perf_counter()
    rc = cli.main(command["argv"])
    elapsed = time.perf_counter() - t0
    size = os.path.getsize(out) if out and os.path.exists(out) else 0
    results.append({"rc": rc, "s": elapsed, "out_bytes": size})
usage1 = resource.getrusage(resource.RUSAGE_SELF)

report = {
    "ready": ready,
    "versions": {"python": sys.version.split()[0]},
    "commands": results,
    "job_s": sum(r["s"] for r in results),
    "cpu_s": (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime),
    "peak_rss_mb": peak_rss_mb(),
}
for name in ("numpy", "scipy"):
    module = sys.modules.get(name)
    report["versions"][name] = getattr(module, "__version__", None)

if tracer is not None:
    tracing.uninstall(replaced)
    layers = tracing.layer_metrics(tracer)
    layers["cli.out_bytes"] = sum(r["out_bytes"] for r in results)
    layers["proc.cpu_s"] = report["cpu_s"]
    report["layers"] = layers
    report["self_sum_s"] = sum(tracer.layer_self.values())
    if spec.get("spans"):
        tracer.write_spans(spec["spans"])

sys.stdout.write(json.dumps(report) + "\n")
