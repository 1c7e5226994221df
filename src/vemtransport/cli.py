"""Configuration-driven experiment runner.

Subcommands reproduce the shipped studies: space-time convergence over
mesh/time refinement pairs, degree escalation on the coarsest pair,
robustness over the diffusion sweep, and the five-well injection
example. Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

import argparse
import json
import logging
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, list_presets, load_preset
from .darcy import DarcyError, DarcyProblem, analytic_velocity, solve_darcy_mixed
from .geometry import generate_family, generate_hexa
from .linalg import LinalgError
from .meshio import write_polymesh, write_vtk, write_vtk_series
from .postproc import error_norms, minmax_csv, minmax_trace, observed_rate, rate_table
from .problems import ManufacturedProblem, get_problem
from .timestepping import TimePartition, TimeSteppingError, advance
from .transport import TransportProblem, TransportSystem

log = logging.getLogger("vemtransport")

SOLVER_ERRORS = (DarcyError, TimeSteppingError, LinalgError)


class _MeshCache:
    def __init__(self):
        self._store = {}

    def get(self, family, level, seed):
        key = (family, level, seed)
        if key not in self._store:
            self._store[key] = generate_family(family, level, rng_seed=seed)
        return self._store[key]


def build_velocity(mesh, problem_data, k, backend, solver_tol, solver_method="direct"):
    """Velocity field for a manufactured-style problem on one mesh."""
    if backend == "analytic":
        return analytic_velocity(problem_data.velocity, mesh, k)
    dprob = DarcyProblem(
        K_perm=problem_data.K_perm,
        mu=problem_data.mu,
        f=problem_data.darcy_f,
        g_D=problem_data.darcy_g_D,
        dirichlet_edges=frozenset(int(e) for e in mesh.boundary_edges),
    )
    velocity, _ = solve_darcy_mixed(
        mesh, dprob, k, solver_tol=solver_tol, solver_method=solver_method
    )
    return velocity


def run_manufactured_level(mesh, steps, k, q, D, backend, solver_tol, level=0, solver_method="direct"):
    """One space-time solve of the smooth benchmark; returns its report."""
    data = ManufacturedProblem(D=D)
    velocity = build_velocity(mesh, data, k, backend, solver_tol, solver_method)
    tprob = TransportProblem(
        D=D,
        velocity=velocity,
        f=data.f,
        c_tilde=data.c_tilde,
        c_inflow=data.c_inflow,
        c0=data.c0,
        t_final=data.t_final,
    )
    system = TransportSystem(mesh, k, tprob)
    partition = TimePartition.uniform(data.t_final, steps)
    slabs = advance(system, partition, q)
    return error_norms(slabs, system, data.c, data.grad_c, level=level)


def _write_text(path, text):
    Path(path).write_text(text, encoding="utf-8")


def write_manifest(out_dir, config, timings, extra=None):
    payload = {
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "version": __version__,
        "timings_seconds": {k: round(v, 3) for k, v in timings.items()},
    }
    if extra:
        payload.update(extra)
    _write_text(Path(out_dir) / "manifest.json", json.dumps(payload, indent=1, sort_keys=True))


def _map_levels(config, worker, items):
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            return list(pool.map(worker, items))
    return [worker(it) for it in items]


def run_convergence(config):
    """Refinement study over paired mesh/time levels; emits the rate table."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cache = _MeshCache()
    timings = {}
    reports = []
    failed = None
    t_all = time.perf_counter()
    for level, steps in zip(config.levels, config.steps_per_level):
        t0 = time.perf_counter()
        try:
            mesh = cache.get(config.mesh_family, level, config.rng_seed)
            rep = run_manufactured_level(
                mesh, steps, config.k, config.q, config.D,
                config.velocity_backend, config.solver_tol, level=level,
                solver_method=config.solver_method,
            )
        except SOLVER_ERRORS as exc:
            log.error("level %d failed: %s", level, exc)
            failed = (level, str(exc))
            break
        timings[f"level_{level}"] = time.perf_counter() - t0
        reports.append(rep)
        log.info("level %d: h=%.4g err=%.6e", level, rep.h, rep.indicator)
    timings["total"] = time.perf_counter() - t_all
    if reports:
        text, csv_text = rate_table(reports)
        _write_text(out / "convergence.csv", csv_text)
        _write_text(out / "convergence.txt", text + "\n")
    extra = {"failed_level": failed}
    if len(reports) >= 2:
        extra["observed_rate_err"] = observed_rate(reports)
    write_manifest(out, config, timings, extra)
    return 3 if failed else 0


def run_kconv(config):
    """Degree escalation on the coarsest space-time pair."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings = {}
    mesh = generate_family(config.mesh_family, config.levels[0], rng_seed=config.rng_seed)
    steps = config.steps_per_level[0]
    rows = []
    t_all = time.perf_counter()
    for k in config.k_range:
        t0 = time.perf_counter()
        try:
            rep = run_manufactured_level(
                mesh, steps, k, k, config.D, config.velocity_backend,
                config.solver_tol, level=config.levels[0],
                solver_method=config.solver_method,
            )
        except SOLVER_ERRORS as exc:
            log.error("degree %d failed: %s", k, exc)
            write_manifest(out, config, timings, {"failed_degree": k, "error": str(exc)})
            return 3
        timings[f"k_{k}"] = time.perf_counter() - t0
        rows.append((k, rep.indicator, rep.h1_final, rep.l2_final))
        log.info("k=%d err=%.6e", k, rep.indicator)
    timings["total"] = time.perf_counter() - t_all
    lines = ["k,err,h1_final,l2_final"]
    for k, err, h1, l2 in rows:
        lines.append(f"{k},{err:.12e},{h1:.12e},{l2:.12e}")
    _write_text(out / "kconv.csv", "\n".join(lines) + "\n")
    write_manifest(out, config, timings)
    return 0


def run_drobust(config):
    """Diffusion sweep at a fixed space-time resolution."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    level = config.levels[0] if len(config.levels) == 1 else 2
    steps = dict(zip(config.levels, config.steps_per_level)).get(level, 6)
    mesh = generate_family(config.mesh_family, level, rng_seed=config.rng_seed)
    timings = {}
    t_all = time.perf_counter()

    def worker(D):
        return run_manufactured_level(
            mesh, steps, config.k, config.q, D,
            config.velocity_backend, config.solver_tol, level=level,
            solver_method=config.solver_method,
        )

    try:
        reports = _map_levels(config, worker, config.d_values)
    except SOLVER_ERRORS as exc:
        log.error("sweep failed: %s", exc)
        write_manifest(out, config, timings, {"error": str(exc)})
        return 3
    timings["total"] = time.perf_counter() - t_all
    lines = ["D,err,h1_final,l2_final"]
    for D, rep in zip(config.d_values, reports):
        lines.append(f"{D:.3e},{rep.indicator:.12e},{rep.h1_final:.12e},{rep.l2_final:.12e}")
        log.info("D=%.1e err=%.6e", D, rep.indicator)
    _write_text(out / "drobust.csv", "\n".join(lines) + "\n")
    errs = [rep.indicator for rep in reports]
    write_manifest(out, config, timings, {"err_max_over_min": max(errs) / min(errs)})
    return 0


def run_wells(config, snapshot_times=(1.0, 2.0, 4.0)):
    """Five-well injection example: impermeable box, central source,
    corner sinks; writes the vertex min/max ledger and VTK snapshots."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    wells = get_problem(config.problem)
    timings = {}
    t_all = time.perf_counter()
    mesh = generate_hexa(config.wells_level, distortion=0.0)
    write_polymesh(mesh, out / "mesh.txt")
    write_vtk(mesh, out / "mesh.vtk")

    # pure-Neumann flow: correct the source to zero mean for solvability
    corrected_f, removed_mean = wells.corrected_darcy_f(mesh)
    log.warning(
        "pure-Neumann flow: removed mean %.6e from the source for solvability", removed_mean
    )
    t0 = time.perf_counter()
    dprob = DarcyProblem(
        K_perm=wells.K_perm, mu=wells.mu, f=corrected_f, g_N=wells.g_N,
        dirichlet_edges=frozenset(),
    )
    velocity, pressure = solve_darcy_mixed(
        mesh, dprob, config.k, solver_tol=config.solver_tol,
        solver_method=config.solver_method,
    )
    timings["darcy"] = time.perf_counter() - t0
    cell_centers = mesh.cell_centroids
    u_cells = np.vstack(
        [velocity.velocity_values(ci, cell_centers[ci : ci + 1])[0] for ci in range(mesh.num_cells)]
    )
    p_cells = np.array(
        [pressure.values(ci, cell_centers[ci : ci + 1])[0] for ci in range(mesh.num_cells)]
    )
    write_vtk(
        mesh, out / "darcy.vtk",
        cell_data={"velocity": u_cells, "pressure": p_cells},
        title="flow field",
    )

    tprob = TransportProblem(
        D=wells.D, velocity=velocity, f=wells.f, c_tilde=wells.c_tilde,
        c_inflow=wells.c_inflow, c0=wells.c0, t_final=wells.t_final,
    )
    system = TransportSystem(mesh, config.k, tprob)
    n_steps = int(round(wells.t_final / wells.dt))
    partition = TimePartition.uniform(wells.t_final, n_steps)
    t0 = time.perf_counter()
    try:
        slabs = advance(system, partition, config.q)
    except TimeSteppingError as exc:
        log.error("wells run failed: %s", exc)
        write_manifest(out, config, timings, {"error": str(exc)})
        return 3
    timings["transport"] = time.perf_counter() - t0

    nv = system.space.num_vertex_dofs
    rows = minmax_trace(slabs, nv)
    _write_text(out / "minmax.csv", minmax_csv(rows))
    snaps, times = [], []
    for t_snap in snapshot_times:
        for slab in slabs:
            if abs(slab.t_end - t_snap) < 1e-12:
                snaps.append(slab.trace_out[:nv])
                times.append(t_snap)
    write_vtk_series(mesh, str(out), "concentration", times, snaps)

    global_min = min(r[1] for r in rows)
    global_max = max(r[2] for r in rows)
    positivity_ok = global_min >= -0.05 * max(global_max, 1e-300)
    if not positivity_ok:
        log.warning("positivity check failed: min=%.3e max=%.3e", global_min, global_max)
    timings["total"] = time.perf_counter() - t_all
    write_manifest(
        out, config, timings,
        {
            "f_mean_removed": removed_mean,
            "vertex_min": global_min,
            "vertex_max": global_max,
            "positivity_ok": bool(positivity_ok),
        },
    )
    return 0


def run_custom(config):
    """Single manufactured run at one level; writes its error report."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mesh = generate_family(config.mesh_family, config.levels[0], rng_seed=config.rng_seed)
    steps = config.steps_per_level[0]
    t0 = time.perf_counter()
    try:
        rep = run_manufactured_level(
            mesh, steps, config.k, config.q, config.D,
            config.velocity_backend, config.solver_tol, level=config.levels[0],
            solver_method=config.solver_method,
        )
    except SOLVER_ERRORS as exc:
        log.error("run failed: %s", exc)
        write_manifest(out, config, {}, {"error": str(exc)})
        return 3
    _, csv_text = rate_table([rep])
    _write_text(out / "errors.csv", csv_text)
    write_manifest(out, config, {"total": time.perf_counter() - t0})
    return 0


RUNNERS = {
    "convergence": run_convergence,
    "kconv": run_kconv,
    "drobust": run_drobust,
    "wells": run_wells,
    "custom": run_custom,
}


def _build_config(args, kind):
    if args.preset:
        config = load_preset(args.preset)
        if config.kind != kind and kind != "custom":
            raise ConfigError(
                f"preset {args.preset!r} is a {config.kind!r} preset, not {kind!r}"
            )
    elif args.config:
        config = ExperimentConfig.from_json(args.config)
        if config.kind != kind:
            raise ConfigError(f"config kind {config.kind!r} does not match {kind!r}")
    else:
        config = ExperimentConfig(kind=kind)
    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.threads is not None:
        overrides["threads"] = args.threads
    if overrides:
        data = config.to_dict()
        data.update(overrides)
        config = ExperimentConfig.from_dict(data)
    return config


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="vemtransport",
        description="Polygonal VEM transport experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--list-presets", action="store_true", help="list shipped presets")
    sub = parser.add_subparsers(dest="command")
    for kind in RUNNERS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", help="path to a JSON config")
        p.add_argument("--preset", help="name of a shipped preset")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--threads", type=int, help="worker threads for sweeps")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
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
        return RUNNERS[args.command](config)
    except OSError as exc:
        log.error("cannot write outputs: %s", exc)
        return 2
    except SOLVER_ERRORS as exc:
        log.error("solver failure: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
