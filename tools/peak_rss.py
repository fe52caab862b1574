#!/usr/bin/env python3
"""Run a command and fail if its peak resident set exceeds a budget.

    python3 tools/peak_rss.py BUDGET_MIB COMMAND [ARG...]

Runs COMMAND in a child process, waits for it with os.wait4 and reads the
child's peak resident set (ru_maxrss, KiB on Linux), as
fruitbench/run.py does for its peak_rss_mb. Prints the peak on stderr and
exits with the command's own non-zero status if it failed, 1 if the peak
exceeds BUDGET_MIB, and 0 otherwise. The command's output passes through.
"""

import os
import subprocess
import sys


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__.strip())
    budget_mib = float(sys.argv[1])
    proc = subprocess.Popen(sys.argv[2:])
    _, status, usage = os.wait4(proc.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    peak_mib = usage.ru_maxrss / 1024.0
    print(f"peak RSS {peak_mib:.1f} MiB (budget {budget_mib:g} MiB)", file=sys.stderr)
    if code != 0:
        sys.exit(code if code > 0 else 1)
    if peak_mib > budget_mib:
        print("peak RSS over budget", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
