#!/usr/bin/env python3
"""Quick self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at its smallest size (--smoke), untraced and
traced, and checks that each run exits 0 with a correct result that
names every metric of BENCHMARK.json with its unit, and that the
human-readable report names the workload's other end-to-end metrics.
Then feeds the benchmark a deliberately wrong expected answer and
checks that the run reports a failure and exits nonzero.
"""

import json
import os
import subprocess
import sys

RUN = ["python3", "perfbench/run.py"]
OUT = "perfbench/out"

# end-to-end metrics printed in the report but not gated, with units
UNITS = {"failed_frac": "ratio", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "devices_total": "count", "proven_frac": "ratio",
         "gap_final": "ratio", "observed_coverage_min": "ratio"}
COMMON = ["failed_frac", "op_p50_ms", "op_p90_ms"]
REPORTED = {
    "mip-waxman450": COMMON + ["devices_total", "proven_frac", "gap_final"],
    "lp-relax": COMMON,
    "cover-pop15": COMMON + ["devices_total", "proven_frac"],
    "drift-waxman300": COMMON + ["observed_coverage_min"],
}


def run(workload, trace, *extra):
    cmd = RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, lines, result


def main():
    bench = json.load(open("BENCHMARK.json"))
    problems = []

    def expect(cond, msg):
        if not cond:
            problems.append(msg)

    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = run(name, trace)
            tag = "%s trace=%d" % (name, trace)
            expect(code == 0, "%s: exit code %d" % (tag, code))
            if result is None:
                problems.append("%s: no result line" % tag)
                continue
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, "%s: result keys" % tag)
            expect(result["correct"] is True and result["failed"] == 0,
                   "%s: not correct" % tag)
            expect(result["attempted"] >= 1, "%s: nothing attempted" % tag)
            for m in bench[key]:
                got = result["metrics"].get(m["name"])
                expect(got is not None and got.get("unit") == m["unit"]
                       and isinstance(got.get("value"), (int, float)),
                       "%s: metric %s missing or without unit %s"
                       % (tag, m["name"], m["unit"]))
            if trace == 0:
                for metric in REPORTED[name]:
                    expect(any(l.split()[:1] == [metric]
                               and l.split()[2:3] == [UNITS[metric]]
                               for l in lines),
                           "%s: report lacks %s with its unit" % (tag, metric))
        print("ok   %s" % name, flush=True)

    # a wrong expected answer must be caught
    expected = json.load(open("perfbench/expected.json"))
    values = expected["answers"]["smoke"]["lp-relax"]
    label = sorted(values)[0]
    values[label]["value"] += 1.0
    os.makedirs(OUT, exist_ok=True)
    wrong = os.path.join(OUT, "wrong-expected.json")
    with open(wrong, "w") as f:
        json.dump(expected, f)
    code, lines, result = run("lp-relax", 0, "--expected", wrong)
    expect(code != 0, "wrong expected answer: exit code 0")
    expect(result is not None and result["correct"] is False
           and result["failed"] >= 1,
           "wrong expected answer: not reported as a failure")
    expect(any(l.startswith("FAILED %s" % label) for l in lines),
           "wrong expected answer: no FAILED line for %s" % label)
    print("ok   wrong expected answer is caught")

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
