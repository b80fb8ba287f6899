#!/usr/bin/env python3
"""Run a command and report its peak resident set size.

Usage: peak_rss.py <command> [args...]

After the command exits, prints `peak_rss_mb: N` (ru_maxrss of the waited-for
child, in MiB) and appends the same line to the file named by
$GITHUB_STEP_SUMMARY when that variable is set. Exits with the command's
status, or 128 + the signal number when a signal killed it.

The child's figure includes the resident set it had before exec, which is
this interpreter's (about 14 MiB), so a smaller command reports that floor.
"""

import os
import resource
import subprocess
import sys


def main():
    cmd = sys.argv[1:]
    if not cmd:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    rc = subprocess.call(cmd)
    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    line = f"peak_rss_mb: {kib / 1024:.1f} ({' '.join(cmd)})"
    print(line, flush=True)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as f:
            f.write(line + "\n")
    return rc if rc >= 0 else 128 - rc


if __name__ == "__main__":
    sys.exit(main())
