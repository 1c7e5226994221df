import numpy as np
import pytest

from vemtransport.geometry import generate_quad, generate_voronoi
from vemtransport.meshio import write_polymesh, write_vtk, write_vtk_series


class TestTextFormat:
    def test_writes_documented_format(self, tmp_path):
        mesh = generate_voronoi(12, lloyd_iters=5, rng_seed=3)
        path = tmp_path / "mesh.txt"
        write_polymesh(mesh, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "polymesh 2d"
        nv = mesh.num_vertices
        assert lines[1] == str(nv)
        for line, vertex in zip(lines[2 : 2 + nv], mesh.vertices):
            assert [float(t) for t in line.split()] == vertex.tolist()
        pos = 2 + nv
        assert lines[pos] == str(mesh.num_cells)
        for line, cell in zip(lines[pos + 1 : pos + 1 + mesh.num_cells], mesh.cells):
            assert line.split() == [str(len(cell))] + [str(v) for v in cell]
        pos += 1 + mesh.num_cells
        assert lines[pos] == str(len(mesh.boundary_edges))
        rows = [line.split() for line in lines[pos + 1 :]]
        assert rows == [[str(a), str(b), "boundary"] for a, b in mesh.edges[mesh.boundary_edges]]


class TestVtk:
    def test_polydata_structure(self, tmp_path):
        mesh = generate_quad(2)
        path = tmp_path / "mesh.vtk"
        write_vtk(
            mesh,
            path,
            point_data={"c": np.arange(mesh.num_vertices, dtype=float)},
            cell_data={"area": mesh.cell_areas},
        )
        text = path.read_text()
        assert text.startswith("# vtk DataFile Version 3.0")
        assert "DATASET POLYDATA" in text
        assert f"POINTS {mesh.num_vertices} double" in text
        assert f"POLYGONS {mesh.num_cells}" in text
        assert "SCALARS c double 1" in text
        assert "CELL_DATA" in text

    def test_vector_cell_data(self, tmp_path):
        mesh = generate_quad(2)
        path = tmp_path / "vel.vtk"
        write_vtk(mesh, path, cell_data={"u": np.ones((mesh.num_cells, 2))})
        assert "VECTORS u double" in path.read_text()

    def test_field_length_checked(self, tmp_path):
        mesh = generate_quad(2)
        with pytest.raises(ValueError):
            write_vtk(mesh, tmp_path / "x.vtk", point_data={"c": np.zeros(3)})

    def test_series_index(self, tmp_path):
        mesh = generate_quad(2)
        fields = [np.full(mesh.num_vertices, float(i)) for i in range(3)]
        index = write_vtk_series(mesh, str(tmp_path), "conc", [0.0, 0.5, 1.0], fields)
        import json

        data = json.loads(open(index).read())
        assert len(data["series"]) == 3
        assert data["series"][1]["time"] == 0.5
        assert (tmp_path / "conc_0002.vtk").exists()
