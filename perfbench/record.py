"""Record reference.json: the outputs of every pool case at this commit.

    python3 perfbench/record.py

Runs each case of inputs.pool() once through the same commands and checks as
run.py and stores the summaries the checks compare against.  Re-record only
when the pool changes or a change to qps is meant to change its numbers.
"""

import json
import sys

import harness
import inputs
import run


def main() -> int:
    run.require_source()
    recording = {}
    failures = []
    with run.work_dir("record") as work:
        runner = harness.Runner(run.ROOT, run.child_env(), work)
        session = harness.Session(runner, None, recording)
        for cases in inputs.pool().values():
            for case in cases:
                for res in session.run_case(case, traced=False):
                    print(f"{res['key']:32s} {res['wall_s']:7.2f} s "
                          f"{'; '.join(res['errors']) or 'ok'}", flush=True)
                    if res["errors"]:
                        failures.append(res["key"])
    if failures:
        print(f"not recorded, {len(failures)} commands failed: {failures}", file=sys.stderr)
        return 1
    payload = {"machine": run.machine_block(), "generator": inputs.GENERATOR,
               "outputs": recording}
    harness.REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"{len(recording)} outputs -> {harness.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
