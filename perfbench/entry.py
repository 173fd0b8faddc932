"""Process entry point of every benchmark command: `python3 entry.py ARGV...`.

Calls `qps.cli.main(ARGV)` as the `qps` console script does.  When the
environment variable PERFBENCH_SPANS names a file, the public functions of
the qps modules are first wrapped in timing spans (see spans.py), and the
spans are written to that file when the command ends.  Nothing under src/
is changed.
"""

import os
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import qps.cli
    import_s = time.perf_counter() - t0
    path = os.environ.get("PERFBENCH_SPANS")
    if not path:
        return qps.cli.main(sys.argv[1:])

    import spans

    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        with recorder.span("cli.main"):
            return qps.cli.main(sys.argv[1:])
    finally:
        recorder.dump(path, import_s)


if __name__ == "__main__":
    sys.exit(main())
