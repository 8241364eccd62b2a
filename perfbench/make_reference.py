"""Regenerate ``reference.json``: the digest of every job the benchmark runs.

    PYTHONPATH=src python3 perfbench/make_reference.py

For every input variant it runs the kernel grid serially and the F4-F6
suite, and records ``payload_digest(result_to_dict(r))`` per job plus the
F4-F6 table values.  The kernel leg this machine runs is recorded too;
the benchmark refuses to compare runs made on another leg.  Regenerate
only when a change is meant to alter simulation output (and then bump
``MODEL_VERSION``).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import grids  # noqa: E402
from repro.analysis.parallel import run_jobs  # noqa: E402
from repro.analysis.result_cache import ResultCache  # noqa: E402
from repro.core.kernel import select_mode  # noqa: E402
from repro.trace.store import TraceStore  # noqa: E402


def variant_reference(variant: int, work: Path) -> dict:
    labelled = grids.kernel_grid(variant)
    results = run_jobs(
        [job for _, job in labelled], workers=1, trace_store=TraceStore(work / "traces")
    )
    suite = grids.figure_suite(variant, ResultCache(work / "cache"))
    experiments = suite.run_all(grids.FIGURE_IDS)
    return {
        "kernel_grid": {label: grids.digest(r) for (label, _), r in zip(labelled, results)},
        "figures": {
            "jobs": {label: grids.digest(r) for label, r in grids.figure_results(suite)},
            "tables": grids.table_values(experiments),
        },
    }


def main() -> int:
    reference = grids.reference_header(select_mode())
    with tempfile.TemporaryDirectory(dir=".") as work:
        reference["variants"] = {
            str(v): variant_reference(v, Path(work) / str(v)) for v in range(grids.VARIANTS)
        }
    with open(grids.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
