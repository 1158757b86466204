"""One timed coverctl invocation in a fresh interpreter.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds ``argv`` for ``coverctl.cli.main``, ``trace`` and
``spool``. The last line on stdout is a JSON object with ``setup_s``,
``wall_s``, ``rc``, ``peak_rss_mb`` and, when traced, ``trace``.

``setup_s`` is the CPU time of this process's main thread when
``cli.main`` is entered: interpreter start-up, the coverctl imports and the
spec. It leaves out time the thread spent descheduled, and the CPU time of
the BLAS worker threads that numpy starts on import.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from coverctl import cli  # noqa: E402


def main() -> None:
    spec = json.loads(sys.argv[1])
    argv = [str(a) for a in spec["argv"]]
    result = {"setup_s": time.thread_time()}
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer(keep=[spans.REPLICA_SPAN])
        spans.install(tracer, Path(spec["spool"]))
    start = time.perf_counter()
    rc = cli.main(argv)
    result["wall_s"] = time.perf_counter() - start
    result["rc"] = rc
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result["peak_rss_mb"] = peak_kb / 1024.0
    if tracer is not None:
        result["trace"] = spans.collect(tracer, Path(spec["spool"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
