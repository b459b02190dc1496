"""Benchmark of the ``mstpp`` command line, one workload per call.

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout. The workload runs in a fresh child
process (``worker.py``) with BLAS pinned to one thread, so its peak RSS is
its own. Every metric is printed with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``. The full run
record (environment, seeds, per-pass times, output checks and the SHA-256
of every artifact) is written under ``.perfbench_out/records/``.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 170
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "mstpp" / "__init__.py").is_file():
        print(f"no mstpp sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(work), "--result", str(work / "result.json")],
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **PINNED_THREADS),
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            print(f"worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text())
    except subprocess.TimeoutExpired:
        print(f"worker ran longer than {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # ru_maxrss is in KiB on Linux
    values = dict(result["metrics"],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"worker reported no {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['failed']} of {result['attempted']} operations failed")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for name, m in metrics.items():
        moves = result["moves"].get(name)
        print(f"  {name} = {m['value']!r} {m['unit']}" + (f"  (moves: {moves})" if moves else ""))
    if not args.trace:
        for name in ("fail_frac", "mass_err_max"):
            print(f"  {name} = {values[name]!r} {result['units'][name]}")

    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = dict(result["record"], metrics=values, problems=result["problems"],
                  correct=result["correct"], attempted=result["attempted"],
                  failed=result["failed"])
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  run record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
