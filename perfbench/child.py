"""One benchmark job: run ``zipcone`` the way its console script does.

Before calling the CLI the job writes ``perfbench-imported <t>`` to stderr,
where ``t`` is ``time.monotonic()`` once ``zipcones.cli`` is imported; the
clock is system-wide on Linux, so the parent subtracts its spawn time to
get the set-up time.  With ``PERFBENCH_SPANS`` set, the job wraps the
layer functions listed in ``tracing.py`` first and writes its spans to
that file when the CLI returns.
"""

import os
import sys
import time


def main():
    import zipcones.cli as cli
    imported = time.monotonic()
    sys.stderr.write("perfbench-imported %r\n" % imported)
    sys.stderr.flush()
    spans_path = os.environ.get("PERFBENCH_SPANS")
    if not spans_path:
        return cli.main(sys.argv[1:])
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
