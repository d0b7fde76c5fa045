"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1``, from the root of a checkout.

Runs the workload in a fresh interpreter (``worker.py``) with every
``REPRO_*`` variable removed and ``PYTHONHASHSEED`` pinned, under a
fresh scratch directory inside the checkout that is removed afterwards.
Relays the worker's output; its last line is the result JSON.  Exits
non-zero without a result when the checkout has no engine sources or
the worker fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("front_half", "back_half", "edit_replay")

#: the worker is stopped after this many seconds
WORKER_TIMEOUT = 170
HASH_SEED = "0"


def main(argv=None):
    parser = argparse.ArgumentParser(description="specialization-slicing benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument(
        "--corrupt", action="store_true",
        help="self-test: remove the criterion print from one checked slice",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no engine sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["TMPDIR"] = scratch
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tmp", scratch,
    ]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt:
        command.append("--corrupt")
    try:
        worker = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        print("perfbench: worker exceeded %d s" % WORKER_TIMEOUT, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
    output = worker.stdout.decode("utf-8")
    if worker.returncode != 0 or not output.rstrip().splitlines()[-1:]:
        sys.stdout.write("".join(line + "\n" for line in output.splitlines() if line.startswith("#")))
        print("perfbench: worker failed (exit %d)" % worker.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(output)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
