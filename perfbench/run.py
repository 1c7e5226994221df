"""vemtransport benchmark: one workload, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload conv-quad-k1 --seed 2024 --seconds 20 --trace 0

Each study runs ``vemtransport.cli.main`` in a fresh interpreter
(``worker.py``), one at a time: a closed loop with one client. The
benchmark itself starts no threads and no concurrent processes.

``--trace 0`` first starts SETUP_SAMPLES interpreters that only import
vemtransport and validate the config, then runs whole studies until the
next one would end after ``--seconds`` (at least one). It reports the
medians of

* ``wall_s``: the ``cli.main`` call, with all tables, VTK files and the
  manifest written;
* ``setup_s``: interpreter start until vemtransport, numpy and scipy
  are imported and the config is validated, over every interpreter
  started;
* ``peak_rss_mb``: peak resident set of the study process.

``--trace 1`` runs the study once untraced and once with every layer
wrapped by ``tracer.Tracer``; it reports the per-layer metrics of the
traced study and ``trace.overhead_s`` (traced minus untraced wall time),
and requires the two studies to write bit-identical outputs (the
manifest, which records timings, excepted).

Every study's output goes through ``gate.check_study``. A study that
exits nonzero or fails the gate counts as failed. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import check_study
from tracer import PER_LAYER, layer_metrics, problem_sizes, unit
from workloads import REFERENCE_SEED, WORKLOADS, config_for

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 2


def spawn_worker(src, command, config, work, tag, setup_only=False, trace=None):
    """Run worker.py on `config` (a dict) and wait for it.

    Returns (result, seconds from start to the end of set-up or None);
    result is the worker's JSON plus ``exit_code``.
    """
    config_path = work / f"config{tag}.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    result_path = work / f"result{tag}.json"
    argv = [sys.executable, str(HERE / "worker.py"), str(src), command,
            str(config_path), str(result_path)]
    if setup_only:
        argv.append("--setup-only")
    if trace:
        argv += ["--trace", str(trace)]
    with open(work / f"log{tag}.txt", "wb") as log:
        started = time.monotonic()
        code = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT).returncode
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        result = {}
    result["exit_code"] = code
    return result, (result["ready"] - started if "ready" in result else None)


class Bench:
    """Runs studies of one workload and collects their measurements."""

    def __init__(self, root, workload, seed):
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.command = WORKLOADS[workload][0]
        self.work = HERE / "_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.setup_s = []
        self.attempted = 0
        self.failed = 0
        self._n = 0

    def _spawn(self, setup_only=False, trace=None):
        self._n += 1
        tag = f"{self._n:03d}"
        out_dir = self.work / f"out{tag}"
        config = config_for(self.workload, self.seed, out_dir)
        result, setup = spawn_worker(self.src, self.command, config, self.work, tag,
                                     setup_only, trace)
        if setup is not None:
            self.setup_s.append(setup)
        return result, out_dir

    def setup_only(self):
        result, _ = self._spawn(setup_only=True)
        if result["exit_code"] != 0:
            raise RuntimeError(f"set-up failed; see the logs in {self.work}")

    def study(self, trace=None):
        """One gated study; returns (worker result, output dir, passed)."""
        result, out_dir = self._spawn(trace=trace)
        problems = check_study(self.workload, self.seed, out_dir, result["exit_code"])
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED study in {out_dir}: {'; '.join(problems)}")
        return result, out_dir, not problems


def same_outputs(dir_a, dir_b):
    """True when both studies wrote the same files with the same bytes."""
    names_a = sorted(p.name for p in dir_a.iterdir() if p.name != "manifest.json")
    names_b = sorted(p.name for p in dir_b.iterdir() if p.name != "manifest.json")
    return names_a == names_b and all(
        (dir_a / n).read_bytes() == (dir_b / n).read_bytes() for n in names_a
    )


def run_untraced(bench, seconds):
    for _ in range(SETUP_SAMPLES):
        bench.setup_only()
    walls, rss = [], []
    began = time.monotonic()
    while True:
        result, _, _ = bench.study()
        if "wall_s" in result:
            walls.append(result["wall_s"])
            rss.append(result["peak_rss_kb"] / 1024.0)
        elapsed = time.monotonic() - began
        typical = elapsed / bench.attempted
        if not walls or elapsed + typical > seconds:
            break
    if not walls:
        return {}
    print(f"studies: {len(walls)}; wall_s each: {[round(w, 3) for w in walls]}")
    print(f"setup samples: {[round(s, 4) for s in bench.setup_s]}")
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(bench.setup_s), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def run_traced(bench):
    plain, plain_dir, _ = bench.study()
    trace_path = bench.work / "trace.json"
    traced, traced_dir, traced_ok = bench.study(trace=trace_path)
    if "wall_s" not in plain or "wall_s" not in traced:
        return {}
    if not same_outputs(plain_dir, traced_dir):
        print(f"FAILED: traced outputs in {traced_dir} differ from untraced {plain_dir}")
        if traced_ok:
            bench.failed += 1
    trace = json.loads(trace_path.read_text(encoding="utf-8"))
    metrics = layer_metrics(trace)
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    print(f"untraced wall_s {plain['wall_s']:.4f}; traced wall_s {traced['wall_s']:.4f}")
    for row in problem_sizes(trace):
        print(f"problem size: {json.dumps(row, sort_keys=True)}")
    if trace["missing"]:
        print(f"missing layers (reported as 0): {trace['missing']}")
    return {name: {"value": metrics[name], "unit": unit(name)} for name in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "vemtransport" / "cli.py").is_file():
        print(f"no vemtransport sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    metrics = run_traced(bench) if args.trace else run_untraced(bench, args.seconds)
    if not metrics:
        print(f"no study finished; logs in {bench.work}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
