"""Mesh and field output.

Two formats: a plain-text polygon mesh format (documented below) and VTK
legacy POLYDATA for visualization.

Text format::

    polymesh 2d
    <vertex count>
    x y                  (one line per vertex)
    <cell count>
    m i0 i1 ... im-1     (vertex loop per cell, counter-clockwise)
    <boundary edge count>
    v0 v1 boundary       (vertex pair per boundary edge, with the tag "boundary")
"""

import json

import numpy as np


def write_polymesh(mesh, path):
    """Write a PolyMesh in the plain-text format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("polymesh 2d\n")
        fh.write(f"{mesh.num_vertices}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"{mesh.num_cells}\n")
        for cell in mesh.cells:
            fh.write(" ".join([str(len(cell))] + [str(int(v)) for v in cell]) + "\n")
        fh.write(f"{len(mesh.boundary_edges)}\n")
        for e in mesh.boundary_edges:
            a, b = mesh.edges[e]
            fh.write(f"{a} {b} boundary\n")


def write_vtk(mesh, path, point_data=None, cell_data=None, title="vemtransport"):
    """Write the mesh and optional scalar fields as VTK legacy POLYDATA."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(title[:250] + "\n")
        fh.write("ASCII\nDATASET POLYDATA\n")
        fh.write(f"POINTS {mesh.num_vertices} double\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.16e} {y:.16e} 0.0\n")
        size = sum(len(c) + 1 for c in mesh.cells)
        fh.write(f"POLYGONS {mesh.num_cells} {size}\n")
        for cell in mesh.cells:
            fh.write(" ".join([str(len(cell))] + [str(int(v)) for v in cell]) + "\n")
        if point_data:
            fh.write(f"POINT_DATA {mesh.num_vertices}\n")
            for name, values in point_data.items():
                _write_scalars(fh, name, values, mesh.num_vertices)
        if cell_data:
            fh.write(f"CELL_DATA {mesh.num_cells}\n")
            for name, values in cell_data.items():
                values = np.asarray(values)
                if values.ndim == 2 and values.shape[1] == 2:
                    fh.write(f"VECTORS {name} double\n")
                    for vx, vy in values:
                        fh.write(f"{vx:.16e} {vy:.16e} 0.0\n")
                else:
                    _write_scalars(fh, name, values, mesh.num_cells)


def _write_scalars(fh, name, values, expected):
    values = np.asarray(values, dtype=float).ravel()
    if len(values) != expected:
        raise ValueError(f"field {name!r} has {len(values)} values, expected {expected}")
    fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
    for v in values:
        fh.write(f"{v:.16e}\n")


def write_vtk_series(mesh, out_dir, prefix, times, fields):
    """Write one VTK file per time plus a JSON index of the series.

    `fields` is a list of vertex-value arrays aligned with `times`.
    """
    entries = []
    for i, (t, values) in enumerate(zip(times, fields)):
        name = f"{prefix}_{i:04d}.vtk"
        write_vtk(mesh, f"{out_dir}/{name}", point_data={"c": values}, title=f"t={t}")
        entries.append({"time": float(t), "file": name})
    index_path = f"{out_dir}/{prefix}_series.json"
    with open(index_path, "w", encoding="utf-8") as fh:
        json.dump({"series": entries}, fh, indent=1, sort_keys=True)
    return index_path
