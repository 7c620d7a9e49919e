"""The second interpreter of an untraced run: it runs a workload's isolated
ops, so that their peak memory is measured apart from the other ops'.

    python3 perfbench/isolated.py WORKLOAD SEED

run.py starts it with ./src on PYTHONPATH and talks to it in pickles over
stdin and stdout.  It builds the same op list as run.py and answers "ready".
Then it reads op indices and answers each with the op's outcome (a result or
the exception it raised).  On None it answers with its peak RSS in MiB and
exits.
"""

from __future__ import annotations

import pickle
import resource
import sys

import workloads


def main() -> int:
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # stdout carries only the replies
    ops = workloads.build(sys.argv[1], int(sys.argv[2]))

    def reply(obj) -> None:
        pickle.dump(obj, replies)
        replies.flush()

    reply("ready")
    while (index := pickle.load(requests)) is not None:
        try:
            outcome = ops[index].call()
        except Exception as exc:  # an op's failure is a result to check, not a crash
            outcome = exc
        reply(outcome)
    reply(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return 0


if __name__ == "__main__":
    sys.exit(main())
