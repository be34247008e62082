"""Time one workload set-up in a fresh process.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED STARTED

STARTED is the CLOCK_MONOTONIC reading taken just before this process was
started; the last line printed is the seconds from then until the workload's
checks are ready.
"""

import sys

import run


def main(workload, seed, started):
    bw = run.load_sources(run.ROOT)
    bw.build(workload, int(seed), run.ROOT)
    print(run.monotonic_now() - float(started))


if __name__ == "__main__":
    main(*sys.argv[1:])
