"""Fresh-interpreter probes, started by run.py as child processes.

    python3 perfbench/child.py setup CONFIG
        import hermsem.cli and load CONFIG as ``hermsem run`` does, then
        print "ready"; the parent times interpreter start to that line.
    python3 perfbench/child.py run CONFIG OUTPUT_DIR SEED
        run one experiment through hermsem.cli.run and print
        {"exit": <exit code>, "maxrss_kb": <peak resident set size>}.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    import hermsem.cli

    if argv[0] == "setup":
        hermsem.cli.ExperimentConfig.from_file(argv[1])
        print("ready", flush=True)
        return 0
    if argv[0] == "run":
        with contextlib.redirect_stdout(io.StringIO()):
            code = hermsem.cli.run(argv[1], argv[2], int(argv[3]))
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"exit": code, "maxrss_kb": maxrss_kb}), flush=True)
        return 0
    print(f"unknown mode {argv[0]!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
