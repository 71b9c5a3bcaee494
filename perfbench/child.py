"""One benchmark sample: a fresh interpreter running ``spinsym.cli.run``.

Usage: ``python3 child.py CONFIG_JSON``, where the config holds ``src``
(the directory holding the ``spinsym`` package), ``argv`` (the CLI
arguments; empty for a warm-up that only imports), ``trace`` (0 or 1) and
``spans`` (a path to write the trace spans to, or null).  The last line of
standard output is one JSON object with the exit code, the CLI's own
output, the ``perf_counter`` reading when the import finished (the clock
is system-wide, so the parent can subtract its spawn time), the verdict
wall and CPU time, the CPU time of the reference kernel run just before
and just after the verdict, ``ru_maxrss`` and, when traced, the per-layer
summary.  The child keeps to one core, so the kernel and the verdict see
the same core's speed.
"""

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter, process_time


def main() -> None:
    config = json.loads(sys.argv[1])
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, config["src"])
    sys.path.append(os.path.dirname(os.path.abspath(__file__)))
    import spinsym.cli as cli
    imported = perf_counter()
    result = {"imported": imported}
    if config["argv"]:
        from reference import kernel
        kernel(1)  # untimed, so the timed kernels run warm
        tracer = None
        if config["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            before = kernel()
            start, cpu_start = perf_counter(), process_time()
            rc = cli.run(config["argv"])
            verdict_s = perf_counter() - start
            verdict_cpu_s = process_time() - cpu_start
            after = kernel()
        result.update(rc=rc, output=out.getvalue(), verdict_s=verdict_s,
                      verdict_cpu_s=verdict_cpu_s,
                      kernel_cpu_s=(before + after) / 2)
        if tracer is not None:
            result.update(layers=tracer.summary(), bindings=tracer.bindings,
                          unwrapped=tracer.unwrapped())
            if config["spans"]:
                tracer.dump(config["spans"], config["sample"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
