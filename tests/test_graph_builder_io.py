"""The ``.npz`` AHG bundle: round trip and a missing file."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.graph.io import load_ahg, save_ahg


def test_npz_roundtrip(tmp_path, tiny_ahg):
    path = str(tmp_path / "g.npz")
    save_ahg(tiny_ahg, path)
    g2 = load_ahg(path)
    assert g2.n_vertices == tiny_ahg.n_vertices
    assert g2.n_edges == tiny_ahg.n_edges
    assert g2.vertex_type_names == tiny_ahg.vertex_type_names
    assert g2.edge_type_names == tiny_ahg.edge_type_names
    np.testing.assert_array_equal(g2.vertex_types, tiny_ahg.vertex_types)
    np.testing.assert_allclose(g2.vertex_features, tiny_ahg.vertex_features)


def test_npz_missing_file():
    with pytest.raises(DatasetError):
        load_ahg("/nonexistent/file.npz")
