"""Self-test of the benchmark: ``python3 perfbench/selftest.py`` from
the root of a checkout (under a minute).

* every workload, at tiny size, prints exactly the metric names and
  units ``BENCHMARK.json`` declares, untraced and traced;
* two traced runs with the same seed print identical count and ratio
  metrics and identical output digests;
* a deliberately corrupted slice (its criterion print removed) is
  caught by the output check and counted in ``ok_ratio``/``failed``;
* without the engine's sources the benchmark exits non-zero and prints
  no result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: units whose values may differ between two runs of the same seed:
#: times, and byte sizes (pickled store entries differ by a few bytes
#: from one process to the next); counts and ratios must repeat exactly
UNREPEATABLE_UNITS = ("s", "bytes")


def bench(*args, cwd=ROOT):
    """Run the benchmark; returns ``(exit code, stdout lines)``."""
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + list(args)
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout.splitlines()


def result_of(lines):
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def digest_of(lines):
    return next(line for line in lines if line.startswith("# digest "))


def expect_metrics(result, declared):
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    want = {metric["name"]: metric["unit"] for metric in declared}
    assert got == want, (sorted(set(got) ^ set(want)), got, want)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def counts(result):
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] not in UNREPEATABLE_UNITS
    }


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    tiny = ["--seconds", "1", "--tiny"]
    for workload in [entry["name"] for entry in spec["workloads"]]:
        code, lines = bench("--workload", workload, "--seed", "3", "--trace", "0", *tiny)
        assert code == 0, (workload, code)
        result = result_of(lines)
        assert result["correct"] and result["failed"] == 0, (workload, result)
        expect_metrics(result, spec["end_to_end"])
        traced = []
        for _repeat in range(2):
            code, lines = bench("--workload", workload, "--seed", "3", "--trace", "1", *tiny)
            assert code == 0, (workload, code)
            result = result_of(lines)
            assert result["correct"], (workload, result)
            expect_metrics(result, spec["per_layer"])
            traced.append((counts(result), digest_of(lines)))
        assert traced[0] == traced[1], (workload, traced)
        print("ok %s" % workload)

    code, lines = bench("--workload", "edit_replay", "--seed", "3", "--trace", "0", "--corrupt", *tiny)
    assert code == 0, code
    result = result_of(lines)
    assert result["failed"] >= 1 and not result["correct"], result
    assert result["metrics"]["ok_ratio"]["value"] < 1.0, result
    print("ok corrupted slice counted")

    scratch = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_selftest")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("--workload", "front_half", "--seed", "3", "--trace", "0", *tiny, cwd=scratch)
        assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    finally:
        shutil.rmtree(scratch)
    print("ok refuses to run without engine sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
