#!/usr/bin/env python3
"""Peak RSS of `compact_cli evaluate` on a one-device design, by dimension.

A crossbar stores its devices, not its junctions, so evaluating a design
with one device on a DIM x DIM grid must cost no more memory than the same
device on a 1 x 1 grid. Each evaluation runs in its own child process, and
its peak RSS is read from that child alone through os.wait4 (the
RUSAGE_CHILDREN figure is a maximum over every child). The check fails when
the large design's peak exceeds the small one's by more than 2 MB.

usage: check_sparse_rss.py COMPACT_CLI WORKDIR [DIM]   (DIM defaults to 4000)
"""
import os
import sys

SLACK_KB = 2048


def write_design(path, dim):
    # Input at the bottom, output at the top, one device in the corner.
    with open(path, "w") as f:
        f.write(f"xbar 1\ndim {dim} {dim}\ninput {dim - 1}\noutput 0 f\n"
                f"d 0 0 +0\nend\n")


def peak_rss_kb(cli, design):
    out = os.open(os.devnull, os.O_WRONLY)
    try:
        pid = os.posix_spawn(cli, [cli, "evaluate", design, "1"], os.environ,
                             file_actions=[(os.POSIX_SPAWN_DUP2, out, 1)])
    finally:
        os.close(out)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"FAIL: compact_cli evaluate {design} exited with status "
                 f"{os.waitstatus_to_exitcode(status)}")
    return usage.ru_maxrss  # kilobytes on Linux


def main():
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__)
    cli, workdir = sys.argv[1], sys.argv[2]
    dim = int(sys.argv[3]) if len(sys.argv) == 4 else 4000
    os.makedirs(workdir, exist_ok=True)
    small = os.path.join(workdir, "one_device_1x1.xbar")
    large = os.path.join(workdir, f"one_device_{dim}x{dim}.xbar")
    write_design(small, 1)
    write_design(large, dim)
    small_kb = peak_rss_kb(cli, small)
    large_kb = peak_rss_kb(cli, large)
    print(f"peak RSS: 1x1 {small_kb} KB, {dim}x{dim} {large_kb} KB")
    if large_kb > small_kb + SLACK_KB:
        sys.exit(f"FAIL: the {dim}x{dim} design costs "
                 f"{large_kb - small_kb} KB more than the 1x1 one "
                 f"(allowed {SLACK_KB} KB)")
    print("SPARSE-RSS-OK")


if __name__ == "__main__":
    main()
