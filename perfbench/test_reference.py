"""The benchmark's output check, exercised end to end on copies of it.

Each test copies the harness next to an edited ``reference.json`` and
runs the copy's ``run.py`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def harness_copy(tmp_path: Path, edit) -> Path:
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench)
    reference = json.loads((HERE / "reference.json").read_text())
    edit(reference)
    (bench / "reference.json").write_text(json.dumps(reference))
    return bench / "run.py"


def bench(script: Path, workload: str, seed: int, cwd: Path = REPO):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_one_perturbed_digest_drops_ok_frac_and_fails_the_run(tmp_path):
    def perturb(reference):
        grid = reference["variants"]["0"]["kernel_grid"]
        grid[sorted(grid)[0]] = "0" * 64

    proc = bench(harness_copy(tmp_path, perturb), "sweep-kernel-cold", seed=4)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 300  # that one job, in every repetition
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_a_reference_from_another_kernel_leg_is_refused(tmp_path):
    proc = bench(harness_copy(tmp_path, lambda ref: ref.update(kernel_leg="jit")),
                 "sweep-kernel-cold", seed=0)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "kernel_leg" in proc.stderr


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path / "perfbench" / "run.py", "figures-pipeline", seed=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
