"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It imports every module and builds
the C kernel leg once, in a separate process, before anything is timed;
then it starts the measured run (``child.py``) in a fresh interpreter
with ``PYTHONHASHSEED`` fixed and every ``REPRO_*`` setting cleared, and
logs the host's CPU steal seconds over the run beside its numbers.  The
last stdout line is the run's JSON result; the exit code is 0 only when
every simulated result matched its committed reference.

All files the run writes live under ``.perfbench/`` in the checkout:
the kernel cache, kept between runs, and one work directory per run,
removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from child import WORKLOADS, steal_seconds

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
#: Everything, the first run's kernel build included, ends within this.
DEADLINE_S = 170.0


def child_env(kernel_cache: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH="src",
        PYTHONHASHSEED="0",
        REPRO_CACHE_DIR=str(kernel_cache),
    )
    return env


def run_child(argv: list, env: dict, timeout: float) -> dict:
    """Run ``child.py`` in its own process group; return its last stdout line as JSON.

    On timeout the whole group (the child and any pool workers) is
    killed and waited for.
    """
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *argv],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"child.py {' '.join(argv)} ran past its deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {' '.join(argv)} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"child.py {' '.join(argv)} printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()

    checkout = Path.cwd()
    if not (checkout / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the root of a checkout", file=sys.stderr)
        return 2
    work = checkout / ".perfbench"
    env = child_env(work / "kcache")

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - began)

    run_dir = work / f"run-{os.getpid()}"
    try:
        prepared = run_child(["--prepare"], env, remaining())
        compile_s = 0.0
        if args.trace:
            probe = run_dir / "kcache-probe"
            probe.mkdir(parents=True)
            compile_s = run_child(["--compile-probe"], {**env, "REPRO_CACHE_DIR": str(probe)},
                                  remaining())["compile_s"]
            shutil.rmtree(probe)
        steal0 = steal_seconds()
        t0 = time.monotonic()
        result = run_child(
            [
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--t0", repr(t0),
                "--steal0", repr(steal0),
                "--work", str(run_dir),
                "--compile-s", repr(compile_s),
            ],
            env,
            remaining(),
        )
        steal = steal_seconds() - steal0
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    log = result.pop("log")
    figures = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
    print(
        f"perfbench workload={args.workload} seed={args.seed} variant={log['variant']} "
        f"leg={prepared['kernel_leg']} reps={log['reps']} steal_s={steal:.2f} {figures}"
    )
    print("perfbench log " + json.dumps(log))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
