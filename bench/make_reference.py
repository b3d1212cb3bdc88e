"""Record the reference outputs of every workload's input pool.

    python3 bench/make_reference.py

Runs each distinct command of each workload once through ``cli.main`` and
stores what the checks compare against in ``bench/reference/``. The stored
outputs define correct behaviour for later code, so re-record only when a
workload's inputs change on purpose, never to make a failing check pass.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

import run


def main() -> int:
    run.use_source_tree()
    from bellqkd import cli
    import workloads
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="ref-", dir=run.OUT_DIR))
    try:
        for name, commands in workloads.REFERENCE_COMMANDS.items():
            definition, cmds = commands(workdir)
            outputs, outcomes = {}, Counter()
            for cmd in cmds:
                code, _, _, text = run.run_command(cli, cmd)
                outcomes[f"{cmd.argv[0]} -> {code}"] += 1
                outputs[cmd.key] = workloads.reference_record(name, cmd.key, code, text)
                problems = workloads.check(name, cmd.key, outputs[cmd.key], code, text)
                if problems:
                    raise RuntimeError(f"{name} {cmd.key}: {problems}")
            workloads.save_reference(name, definition, outputs)
            print(name, len(outputs), "outputs;", dict(sorted(outcomes.items())))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
