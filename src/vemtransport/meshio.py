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


def cell_lines(mesh):
    """One line per cell: its vertex count, then its vertex loop. Both
    formats hold these lines; a caller writing both passes them as
    `loops` to write_polymesh and vtk_polydata."""
    return "".join(" ".join(map(str, [len(c)] + c.tolist())) + "\n" for c in mesh.cells)


def write_polymesh(mesh, path, loops=None):
    """Write a PolyMesh in the plain-text format; loops is cell_lines(mesh),
    formatted here when not given."""
    boundary = mesh.edges[mesh.boundary_edges].tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"polymesh 2d\n{mesh.num_vertices}\n")
        fh.write("".join(f"{x!r} {y!r}\n" for x, y in mesh.vertices.tolist()))
        fh.write(f"{mesh.num_cells}\n")
        fh.write(cell_lines(mesh) if loops is None else loops)
        fh.write(f"{len(boundary)}\n")
        fh.write("".join(f"{a} {b} boundary\n" for a, b in boundary))


def _vector_lines(values):
    """One "x y 0.0" line per row of an (n, 2) array."""
    values = np.asarray(values, dtype=float)
    return ("%.16e %.16e 0.0\n" * len(values)) % tuple(values.ravel().tolist())


def vtk_polydata(mesh, loops=None):
    """The POINTS and POLYGONS sections of the mesh's VTK files, which all
    the files of one mesh share: format them once and pass them to each
    write_vtk call as `polydata`. loops is as for write_polymesh."""
    size = sum(len(c) + 1 for c in mesh.cells)
    return (f"POINTS {mesh.num_vertices} double\n{_vector_lines(mesh.vertices)}"
            f"POLYGONS {mesh.num_cells} {size}\n{cell_lines(mesh) if loops is None else loops}")


def write_vtk(mesh, path, point_data=None, cell_data=None, title="vemtransport", polydata=None):
    """Write the mesh and optional scalar fields as VTK legacy POLYDATA;
    polydata is vtk_polydata(mesh), formatted here when not given."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title[:250]}\nASCII\nDATASET POLYDATA\n")
        fh.write(vtk_polydata(mesh) if polydata is None else polydata)
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
                    fh.write(_vector_lines(values))
                else:
                    _write_scalars(fh, name, values, mesh.num_cells)


def _write_scalars(fh, name, values, expected):
    values = np.asarray(values, dtype=float).ravel()
    if len(values) != expected:
        raise ValueError(f"field {name!r} has {len(values)} values, expected {expected}")
    fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
    fh.write(("%.16e\n" * len(values)) % tuple(values.tolist()))


def write_vtk_series(mesh, out_dir, prefix, times, fields, polydata=None):
    """Write one VTK file per time plus a JSON index of the series.

    `fields` is a list of vertex-value arrays aligned with `times`;
    polydata is as for write_vtk.
    """
    if polydata is None:
        polydata = vtk_polydata(mesh)
    entries = []
    for i, (t, values) in enumerate(zip(times, fields)):
        name = f"{prefix}_{i:04d}.vtk"
        write_vtk(mesh, f"{out_dir}/{name}", point_data={"c": values}, title=f"t={t}",
                  polydata=polydata)
        entries.append({"time": float(t), "file": name})
    index_path = f"{out_dir}/{prefix}_series.json"
    with open(index_path, "w", encoding="utf-8") as fh:
        json.dump({"series": entries}, fh, indent=1, sort_keys=True)
    return index_path
