#!/usr/bin/env python3
"""Byte-compare designs from `compact_cli synthesize --out F` against the
design (response_v1::design_text, wire key "design") that
`compact-serve --quiet` returns for the same request.

Both front ends execute one run function (api/run), so every case must match
byte for byte.

usage: cli_matches_served.py COMPACT_CLI COMPACT_SERVE BENCH_DIR WORK_DIR
"""
import json
import os
import subprocess
import sys

# (circuit, CLI flags) pairs; the served request mirrors each flag.
METHODS = [
    ["--method", "oct"],
    ["--method", "mip"],
    ["--method", "oct", "--separate-robdds"],
    ["--method", "staircase"],
]
CASES = [(circuit, flags) for circuit in ("mux8", "par16x2") for flags in METHODS]
CASES.append(("par16x2", ["--method", "oct", "--partition",
                          "--max-rows", "8", "--max-cols", "8"]))


def synthesis_options(flags):
    options = {}
    i = 0
    while i < len(flags):
        flag = flags[i]
        if flag == "--method":
            options["labeler"] = flags[i + 1]
            i += 1
        elif flag == "--separate-robdds":
            options["separate_robdds"] = True
        elif flag == "--partition":
            options["partition"] = True
        elif flag == "--max-rows":
            options["max_rows"] = int(flags[i + 1])
            i += 1
        elif flag == "--max-cols":
            options["max_columns"] = int(flags[i + 1])
            i += 1
        else:
            raise SystemExit("unmapped flag " + flag)
        i += 1
    return options


def main():
    cli, serve, bench_dir, work_dir = sys.argv[1:5]
    os.makedirs(work_dir, exist_ok=True)
    requests = []
    expected = []
    for index, (circuit, flags) in enumerate(CASES):
        netlist = os.path.join(bench_dir, circuit + ".blif")
        out = os.path.join(work_dir, "case%d.xbar" % index)
        subprocess.run([cli, "synthesize", netlist, *flags, "--out", out],
                       check=True, stdout=subprocess.DEVNULL)
        with open(out, "rb") as f:
            expected.append(f.read())
        requests.append(json.dumps({
            "id": str(index), "op": "synthesize",
            "source": {"path": netlist},
            "synthesis": synthesis_options(flags)}))

    served = subprocess.run([serve, "--quiet"], check=True,
                            input="\n".join(requests) + "\n",
                            capture_output=True, text=True).stdout
    responses = {}
    for line in served.splitlines():
        response = json.loads(line)
        responses[response["id"]] = response

    failures = 0
    for index, (circuit, flags) in enumerate(CASES):
        name = circuit + " " + " ".join(flags)
        response = responses.get(str(index))
        if response is None or not response["ok"]:
            print("FAIL %s: %s" % (name, response))
            failures += 1
        elif response["design"].encode() != expected[index]:
            print("FAIL %s: served design differs from the CLI's" % name)
            failures += 1
        else:
            print("ok   %s (%d arrays)" % (name, response["stats"]["arrays"]))
    if failures:
        raise SystemExit("%d of %d cases differ" % (failures, len(CASES)))
    print("CLI-MATCHES-SERVED")


if __name__ == "__main__":
    main()
