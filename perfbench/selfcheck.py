"""Self-check of the benchmark's gate and tracer (about 10 s).

Run from the repository root:

    python3 perfbench/selfcheck.py

It checks that

1. every committed reference table passes the gate against itself;
2. the gate flags each reference table with one value perturbed by a
   relative 1e-9;
3. the gate flags a study whose CLI exits nonzero (an output directory
   below a regular file makes ``cli.main`` return 2);
4. a traced study writes outputs bit-identical to an untraced one, on
   small convergence and drobust configs. Every ``--trace 1`` run of
   ``run.py`` repeats this check on its full workload, which for
   wells-homo covers the VTK files; no smaller wells config exists,
   because the wells study fails its flow compatibility check on
   hexagon levels 1 and 2;
5. the bit-identity comparison detects a one-byte difference.

Prints one PASS/FAIL line per check; exits 1 if any failed.
"""

import shutil
import sys
from pathlib import Path

from gate import REFERENCE_DIR, check_study, compare_tables
from run import HERE, same_outputs, spawn_worker
from workloads import REFERENCE_SEED, WORKLOADS

SMALL = {
    "convergence": {"kind": "convergence", "mesh_family": "quad", "levels": [1],
                    "steps_per_level": [3], "k": 1},
    "drobust": {"kind": "drobust", "mesh_family": "quad", "levels": [1],
                "steps_per_level": [3], "k": 1, "d_values": [1.0, 1e-4]},
}


def _perturb(text):
    """The table with the last number of its second row scaled by 1 + 1e-9."""
    lines = text.splitlines(keepends=True)
    cells = lines[1].rstrip("\n").split(",")
    j = max(i for i, c in enumerate(cells) if c)
    cells[j] = repr(float(cells[j]) * (1.0 + 1e-9))
    lines[1] = ",".join(cells) + "\n"
    return "".join(lines)


def main():
    root = Path.cwd()
    src = root / "src"
    work = HERE / "_work" / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results = []

    for name, (_, _, table) in sorted(WORKLOADS.items()):
        ref = (REFERENCE_DIR / name / table).read_text(encoding="utf-8")
        results.append((f"{name}: reference passes against itself",
                        compare_tables(ref, ref) == []))
        results.append((f"{name}: perturbed reference value is flagged",
                        compare_tables(_perturb(ref), ref) != []))

    blocker = work / "not_a_directory"
    blocker.write_text("")
    config = dict(SMALL["convergence"], out_dir=str(blocker / "out"))
    result, _ = spawn_worker(src, "convergence", config, work, "exit")
    results.append(("nonzero CLI exit is reported", result["exit_code"] != 0))
    results.append(("gate flags the nonzero exit",
                    check_study("conv-quad-k1", REFERENCE_SEED, blocker, result["exit_code"])
                    != []))

    for command, config in SMALL.items():
        dirs = []
        for mode in ("plain", "traced"):
            out_dir = work / f"{command}-{mode}"
            trace = work / f"{command}-trace.json" if mode == "traced" else None
            result, _ = spawn_worker(src, command, dict(config, out_dir=str(out_dir)),
                                     work, f"{command}-{mode}", trace=trace)
            dirs.append(out_dir if result["exit_code"] == 0 else None)
        results.append((f"{command}: traced outputs are bit-identical to untraced",
                        None not in dirs and same_outputs(*dirs)))

    changed = work / "convergence-changed"
    shutil.copytree(work / "convergence-plain", changed)
    table = changed / "convergence.csv"
    table.write_text(table.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    results.append(("a one-byte output difference is detected",
                    not same_outputs(work / "convergence-plain", changed)))

    for label, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
