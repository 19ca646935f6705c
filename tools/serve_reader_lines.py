#!/usr/bin/env python3
"""Send compact-serve, on stdin, four request lines that once crashed it or
were misread by its netlist and design readers, and require exit code 0
and one structured answer per line.

    serve_reader_lines.py <compact-serve>

The lines: a synthesize of a 40,000-gate buffer chain (deeper than a
recursive reader's stack), an evaluate whose design names variable -1, one
whose device reads a variable beyond the assignment, and one whose device
variable carries trailing garbage ("+3x"). Prints SERVE-READER-LINES-OK.
"""
import json
import subprocess
import sys


def chain(depth):
    lines = [".model chain", ".inputs g0", ".outputs y"]
    for i in range(1, depth + 1):
        lines += [f".names g{i - 1} g{i}", "1 1"]
    lines += [f".names g{depth} y", "1 1", ".end", ""]
    return "\n".join(lines)


def evaluate(request_id, body, assignment):
    design = "xbar 1\ndim 1 1\n" + body + "end\n"
    return {"id": request_id, "op": "evaluate", "design": design,
            "assignment": assignment}


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    expected = {
        "deep-chain": "none",
        "negative-var": "parse",
        "beyond-assignment": "invalid_request",
        "trailing-garbage": "parse",
    }
    requests = [
        {"id": "deep-chain", "op": "synthesize",
         "source": {"text": chain(40000)}, "synthesis": {"labeler": "oct"}},
        evaluate("negative-var", "var -1 x\ninput 0\noutput 0 y\n", "1"),
        evaluate("beyond-assignment", "input 0\noutput 0 y\nd 0 0 +5\n", ""),
        evaluate("trailing-garbage", "input 0\noutput 0 y\nd 0 0 +3x\n",
                 "0001"),
    ]
    stdin = "".join(json.dumps(r) + "\n" for r in requests)
    run = subprocess.run([sys.argv[1], "--threads", "1", "--quiet"],
                         input=stdin, capture_output=True, text=True,
                         timeout=300)
    if run.returncode != 0:
        print(f"compact-serve exited {run.returncode}: {run.stderr}")
        return 1
    answers = [json.loads(line) for line in run.stdout.splitlines() if line]
    codes = {a.get("id"): a.get("code") for a in answers}
    if len(answers) != len(requests) or codes != expected:
        print(f"expected codes {expected}, got {codes}")
        return 1
    print("SERVE-READER-LINES-OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
