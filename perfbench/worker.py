"""One benchmark study in a fresh interpreter.

Usage: worker.py SRC_DIR SUBCOMMAND CONFIG RESULT [--setup-only] [--trace PATH]

Imports vemtransport from SRC_DIR, validates CONFIG and stamps the
moment set-up ended (``time.monotonic`` is system-wide, so the parent
compares it with the moment it started this process). Unless
``--setup-only``, it then runs the study through ``vemtransport.cli.main``
and records the call's wall and CPU time and the process's peak resident
set. With ``--trace`` the vemtransport modules are wrapped by
``tracer.Tracer`` first and the spans are written to PATH. The result
is written as JSON to RESULT; the exit code is the CLI's.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("src")
    parser.add_argument("command")
    parser.add_argument("config")
    parser.add_argument("result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    from vemtransport import cli
    from vemtransport.config import ExperimentConfig

    ExperimentConfig.from_json(args.config)
    result = {"ready": time.monotonic()}
    code = 0
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer  # this script's directory is on sys.path

            tracer = Tracer()
            tracer.install()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        code = cli.main([args.command, "--config", args.config])
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        result.update(
            exit_code=code,
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if tracer is not None:
            tracer.write(args.trace, wall, cpu)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
