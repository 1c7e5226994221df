"""Configuration-driven experiment runner.

Subcommands reproduce the shipped studies: space-time convergence over
mesh/time refinement pairs, degree escalation and robustness over the
diffusion sweep, each at one level, and the five-well injection
example. All of them run through `run`. Exit codes: 0 success, 2
configuration error, 3 solver failure.

The independent solves of a convergence, kconv or drobust study run in
lanes, one per CPU the process may use: lane 0 in this process, every
other lane in a forked child that pickles its results back down a pipe.
"""

import argparse
import json
import logging
import os
import pickle
import resource
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .config import KINDS, ConfigError, ExperimentConfig, list_presets, load_preset
from .darcy import DarcyError, DarcyProblem, analytic_velocity, solve_darcy_mixed
from .element import n_poly
from .geometry import MeshError, generate_family, generate_hexa
from .linalg import LinalgError
from .meshio import cell_lines, vtk_polydata, write_polymesh, write_vtk, write_vtk_series
from .postproc import csv_text, error_norms, minmax_csv, minmax_trace, observed_rate, rate_table
from .problems import ManufacturedProblem, WellsProblem
from .timestepping import TimeSteppingError, advance
from .transport import TransportProblem, TransportSystem

log = logging.getLogger("vemtransport")

SOLVER_ERRORS = (DarcyError, TimeSteppingError, LinalgError, MeshError)


def run_manufactured_level(mesh, steps, k, q, D, backend, level=0):
    """One space-time solve of the smooth benchmark; returns its error
    report and the Darcy SolveReport (None for the analytic velocity)."""
    data = ManufacturedProblem(D=D)
    if backend == "analytic":
        velocity = analytic_velocity(data.velocity, mesh, k)
    else:
        dprob = DarcyProblem(
            K_perm=data.K_perm,
            mu=data.mu,
            f=data.darcy_f,
            g_D=data.darcy_g_D,
            dirichlet_edges=frozenset(int(e) for e in mesh.boundary_edges),
        )
        velocity, _ = solve_darcy_mixed(mesh, dprob, k)
    tprob = TransportProblem(
        D=D,
        velocity=velocity,
        f=data.f,
        c_tilde=data.c_tilde,
        c_inflow=data.c_inflow,
        c0=data.c0,
    )
    system = TransportSystem(mesh, k, tprob)
    march = advance(system, data.t_final, steps, q)
    return error_norms(march, system, data.c, data.grad_c, level=level), velocity.solve_report


def solve_record(report):
    """Manifest entry of a SolveReport."""
    return {"residual": report.residual, "seconds": round(report.seconds, 3),
            "unknowns": report.unknowns, "nnz": report.nnz, "lu_nnz": report.lu_nnz}


def _write_text(path, text):
    Path(path).write_text(text, encoding="utf-8")


def write_manifest(out_dir, config, timings, extra):
    payload = {
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "version": __version__,
        "timings_seconds": {k: round(v, 3) for k, v in timings.items()},
        **extra,
    }
    _write_text(Path(out_dir) / "manifest.json", json.dumps(payload, indent=1, sort_keys=True))


def _timed(timings, label, fn, *args, **kwargs):
    """Call fn, recording its seconds under `label`.

    Returns (result, None), or (None, failure record) when fn raises a
    solver error.
    """
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except SOLVER_ERRORS as exc:
        return None, {"solve": label, "error": str(exc)}
    timings[label] = time.perf_counter() - t0
    return result, None


class Solve(NamedTuple):
    """One manufactured space-time solve of a study."""

    label: str
    level: int
    steps: int
    k: int
    q: int
    D: float


def manufactured_solves(config):
    """The solves of a convergence, kconv or drobust study, in order;
    kconv and drobust sweep at their one level."""
    c = config
    if c.kind == "convergence":
        return [Solve(f"level_{lv}", lv, n, c.k, c.q, c.D) for lv, n in zip(c.levels, c.steps_per_level)]
    (lv,), (n,) = c.levels, c.steps_per_level
    if c.kind == "kconv":
        return [Solve(f"k_{k}", lv, n, k, k, c.D) for k in c.k_range]
    return [Solve(f"D_{D:.3e}", lv, n, c.k, c.q, D) for D in c.d_values]


def _sweep_csv(head, keys, reports):
    return csv_text([head, "err", "h1_final", "l2_final"], [
        [f"{key}"] + [f"{v:.12e}" for v in (rep.indicator, rep.h1_final, rep.l2_final)]
        for key, rep in zip(keys, reports)
    ])


def write_convergence(out, solves, reports):
    text, csv_text = rate_table(reports)
    _write_text(out / "convergence.csv", csv_text)
    _write_text(out / "convergence.txt", text + "\n")
    return {"observed_rate_err": observed_rate(reports)} if len(reports) >= 2 else {}


def write_kconv(out, solves, reports):
    _write_text(out / "kconv.csv", _sweep_csv("k", [s.k for s in solves], reports))
    return {}


def write_drobust(out, solves, reports):
    _write_text(out / "drobust.csv", _sweep_csv("D", [f"{s.D:.3e}" for s in solves], reports))
    errs = [rep.indicator for rep in reports]
    return {"err_max_over_min": max(errs) / min(errs)}


#: kind -> writer of the rows that finished; returns summary numbers for the manifest
WRITERS = {
    "convergence": write_convergence,
    "kconv": write_kconv,
    "drobust": write_drobust,
}


class SolveResult(NamedTuple):
    """What one solve of a lane hands back: its ErrorReport and Darcy
    SolveReport (None where absent), its failure record or None, and
    the timings it recorded."""

    report: object
    darcy: object
    failure: dict | None
    timings: dict


def _generate(config, level, timings):
    return _timed(
        timings, f"geometry.generate.level_{level}", generate_family,
        config.mesh_family, level, rng_seed=config.rng_seed,
    )


def lane_results(config, solves, meshes):
    """Run one lane's solves in order, generating the meshes not given in
    `meshes`; yields one SolveResult per solve, up to and including the
    first failure. Every lane, this process's included, runs here."""
    for solve in solves:
        timings = {}
        if solve.level not in meshes:
            meshes[solve.level], failure = _generate(config, solve.level, timings)
            if failure:
                yield SolveResult(None, None, failure, timings)
                return
        result, failure = _timed(
            timings, solve.label, run_manufactured_level,
            meshes[solve.level], solve.steps, solve.k, solve.q, solve.D,
            config.velocity_backend, level=solve.level,
        )
        yield SolveResult(*(result or (None, None)), failure, timings)
        if failure:
            return


def lane_count():
    """The CPUs this process may run on, one lane of solves each."""
    return len(os.sched_getaffinity(0))


def split_lanes(solves, n_lanes):
    """The solves dealt longest first to the least loaded of n_lanes lanes,
    by the a-priori cost steps * 4**level * n_poly(k)**2; each lane keeps
    study order. The costliest lane comes last, so lane 0, which runs in
    this process, is the cheapest: an out-of-memory kill then takes a
    child, and this process still writes the manifest."""
    cost = [s.steps * 4**s.level * n_poly(s.k) ** 2 for s in solves]
    loads, lanes = [0] * n_lanes, [[] for _ in range(n_lanes)]
    for i in sorted(range(len(solves)), key=lambda i: -cost[i]):
        j = loads.index(min(loads))
        lanes[j].append(i)
        loads[j] += cost[i]
    return [[solves[i] for i in sorted(lane)] for lane in reversed(lanes)]


def _fork_lane(config, solves, meshes):
    """Fork a child that runs the solves and pickles each SolveResult down
    a pipe, then exits; returns its pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()  # or the child's log output repeats what is buffered
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    os.close(read_fd)
    code = 1
    try:
        with os.fdopen(write_fd, "wb") as pipe:
            for result in lane_results(config, solves, meshes):
                pickle.dump(result, pipe)
                pipe.flush()
        code = 0
    except Exception:  # the parent records the lane's next solve as failed
        log.exception("the lane of %s crashed", solves[0].label)
    finally:
        os._exit(code)


def _child_results(pid, pipe, solves):
    """The SolveResults of a child's lane and its peak RSS in MB, after
    reaping it. A child that ended without a result for every solve up
    to its lane's first failure gets a failure record for the next one."""
    results = []
    with pipe:
        while True:
            try:
                results.append(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                break
    _, status, usage = os.wait4(pid, 0)
    if len(results) < len(solves) and not (results and results[-1].failure):
        code = os.waitstatus_to_exitcode(status)
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        error = f"lane process {pid} {how} before the solve ended"
        results.append(SolveResult(None, None, {"solve": solves[len(results)].label, "error": error}, {}))
    return results, usage.ru_maxrss / 1024.0


def run_lanes(config, lanes, meshes):
    """Run lanes[0] here and every other lane in a forked child; returns the
    SolveResults by solve label and the manifest's lanes record. Every
    child is reaped before this returns, whatever happens."""
    children = {}
    try:
        for solves in lanes[1:]:
            pid, pipe = _fork_lane(config, solves, meshes)
            children[pid] = (pipe, solves)
        results = dict(zip([s.label for s in lanes[0]], lane_results(config, lanes[0], meshes)))
        rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        for pid, (pipe, solves) in list(children.items()):
            lane, peak = _child_results(pid, pipe, solves)
            del children[pid]
            results.update(zip([s.label for s in solves], lane))
            rss.append(peak)
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    record = [{"solves": [s.label for s in solves], "peak_rss_mb": round(mb, 1)}
              for solves, mb in zip(lanes, rss)]
    return results, record


def run_manufactured(config, out, timings):
    """Run the study's solves in lanes, then write the rows in study order
    up to the first solver failure; returns (summary, failure). A sweep's
    one mesh is generated here, before the lanes fork."""
    solves = manufactured_solves(config)
    meshes, failure, summary = {}, None, {}
    if config.kind != "convergence":
        (level,) = config.levels
        meshes[level], failure = _generate(config, level, timings)
    if failure:
        return summary, failure
    lanes = split_lanes(solves, min(lane_count(), len(solves)))
    results, summary["lanes"] = run_lanes(config, lanes, meshes)
    finished, reports, darcy_solves = [], [], {}
    for solve in solves:
        result = results[solve.label]
        timings.update(result.timings)
        failure = result.failure
        if failure:
            break
        if result.darcy is not None:
            darcy_solves[solve.label] = solve_record(result.darcy)
        finished.append(solve)
        reports.append(result.report)
        log.info("%s: h=%.4g err=%.6e", solve.label, result.report.h, result.report.indicator)
    if reports:
        summary.update(WRITERS[config.kind](out, finished, reports))
        summary["slab_residuals"] = {s.label: r.slab_residual for s, r in zip(finished, reports)}
    if darcy_solves:
        summary["darcy_solves"] = darcy_solves
    return summary, failure


def run_wells(config, out, timings):
    """Five-well injection example: impermeable box, central source,
    corner sinks; writes the vertex min/max ledger and VTK snapshots at
    t = 1, 2, 4. Returns (summary, failure)."""
    wells = WellsProblem(config.problem.removeprefix("wells:"))
    level = config.wells_level
    mesh, failure = _timed(
        timings, f"geometry.generate.level_{level}", generate_hexa, level, distortion=0.0
    )
    if failure:
        return {}, failure
    loops = cell_lines(mesh)
    write_polymesh(mesh, out / "mesh.txt", loops=loops)
    polydata = vtk_polydata(mesh, loops)
    write_vtk(mesh, out / "mesh.vtk", polydata=polydata)

    # pure-Neumann flow: the solver removes the source mean for solvability
    dprob = DarcyProblem(
        K_perm=wells.K_perm, mu=wells.mu, f=wells.darcy_f, g_N=wells.g_N,
        dirichlet_edges=frozenset(),
    )
    flow, failure = _timed(timings, "darcy", solve_darcy_mixed, mesh, dprob, config.k)
    if failure:
        return {}, failure
    velocity, pressure = flow
    mean = velocity.f_mean_removed
    log.warning("pure-Neumann flow: removed mean %.6e from the source for solvability", mean)
    summary = {"f_mean_removed": mean, "darcy_solve": solve_record(velocity.solve_report)}
    # at a centroid only the constant scaled monomial is nonzero
    write_vtk(
        mesh, out / "darcy.vtk",
        cell_data={"velocity": velocity.cell_velocity[..., 0], "pressure": pressure[:, 0]},
        title="flow field", polydata=polydata,
    )

    tprob = TransportProblem(
        D=config.D, velocity=velocity, f=wells.f, c_tilde=wells.c_tilde,
        c_inflow=wells.c_inflow, c0=wells.c0,
    )
    system = TransportSystem(mesh, config.k, tprob)
    n_steps = int(round(wells.t_final / wells.dt))
    march, failure = _timed(
        timings, "transport", advance, system, wells.t_final, n_steps, config.q
    )
    if failure:
        return summary, failure

    nv = system.space.num_vertex_dofs
    rows = minmax_trace(march, nv)
    _write_text(out / "minmax.csv", minmax_csv(rows))
    # the wells grid is fixed (t_final 10, dt 0.1): slab n ends at (n + 1) dt
    times = [1.0, 2.0, 4.0]
    snaps = [march.values[round(t / wells.dt) - 1, -1, :nv] for t in times]
    write_vtk_series(mesh, str(out), "concentration", times, snaps, polydata=polydata)

    global_min = min(r[1] for r in rows)
    global_max = max(r[2] for r in rows)
    positivity_ok = global_min >= -0.05 * max(global_max, 1e-300)
    if not positivity_ok:
        log.warning("positivity check failed: min=%.3e max=%.3e", global_min, global_max)
    summary.update(
        vertex_min=global_min, vertex_max=global_max, positivity_ok=bool(positivity_ok),
        slab_residual=march.residual,
    )
    return summary, None


def run(config):
    """Run one study into config.out_dir; returns the exit code.

    Every study writes manifest.json with its timings, summary numbers
    and "failure": null, or the failed solve's label and error message.
    A solver failure stops the study, keeps the rows that finished in
    its tables, and returns 3.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings = {}
    t_all = time.perf_counter()
    study = run_wells if config.kind == "wells" else run_manufactured
    summary, failure = study(config, out, timings)
    if failure:
        log.error("%s failed: %s", failure["solve"], failure["error"])
    timings["total"] = time.perf_counter() - t_all
    write_manifest(out, config, timings, {**summary, "failure": failure})
    return 3 if failure else 0


def _build_config(args, kind):
    if args.preset:
        config = load_preset(args.preset)
    elif args.config:
        config = ExperimentConfig.from_json(args.config)
    else:
        config = ExperimentConfig(kind=kind)
    if config.kind != kind:
        raise ConfigError(f"{args.preset or args.config!r} is a {config.kind!r} config, not {kind!r}")
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    return config


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="vemtransport",
        description="Polygonal VEM transport experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--list-presets", action="store_true", help="list shipped presets")
    parser.add_argument(
        "--log-level", choices=["DEBUG", "INFO", "WARNING", "ERROR"], default="INFO",
        help="logging threshold (default INFO)",
    )
    sub = parser.add_subparsers(dest="command")
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config", help="path to a JSON config")
        source.add_argument("--preset", help="name of a shipped preset")
        p.add_argument("--out", help="output directory override")
    args = parser.parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(message)s")
    # basicConfig does nothing once the root logger has a handler
    log.setLevel(args.log_level)
    if args.list_presets:
        print("\n".join(list_presets()))
        return 0
    if not args.command:
        parser.print_help()
        return 2
    try:
        config = _build_config(args, args.command)
    except ConfigError as exc:
        log.error("%s", exc)
        return 2
    try:
        return run(config)
    except OSError as exc:
        log.error("cannot write outputs: %s", exc)
        return 2
    except SOLVER_ERRORS as exc:
        log.error("solver failure: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
