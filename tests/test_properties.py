"""Invariants of Galerkin single-layer matrices over random screens."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from screenwave import WaveContext, build_mesh, make_screen
from screenwave.operators import kernel_oracle_single_layer
from screenwave.spectral import assemble, single_layer

H = 1.0 / 8.0
TOL = 1e-9


@st.composite
def p0_screens(draw):
    """1-3 disjoint intervals with edges on the lattice h Z, 1-4 cells each."""
    cells = draw(st.integers(-6, 6))
    boxes = []
    for _ in range(draw(st.integers(1, 3))):
        cells += draw(st.integers(0, 5))         # gap; 0 lets intervals touch
        length = draw(st.integers(1, 4))
        boxes.append((cells * H, (cells + length) * H))
        cells += length
    return boxes


def single_layer_matrix(boxes, k):
    mesh = build_mesh(make_screen(2, boxes), H, "P0")
    return mesh, assemble(single_layer(k), mesh, tol=TOL)


@settings(max_examples=15, deadline=None)
@given(boxes=p0_screens(), k=st.floats(0.5, 12.0))
def test_single_layer_matches_kernel_oracle(boxes, k):
    mesh, A = single_layer_matrix(boxes, k)
    ref = kernel_oracle_single_layer(mesh, WaveContext(k))
    assert np.all(np.abs(A - ref) <= 1e-6 * np.abs(ref) + TOL)


@settings(max_examples=25, deadline=None)
@given(boxes=p0_screens(), k=st.floats(0.5, 12.0), shift=st.integers(-9, 9))
def test_translation_invariance_and_symmetry(boxes, k, shift):
    _, A = single_layer_matrix(boxes, k)
    _, B = single_layer_matrix([(a + shift * H, b + shift * H) for a, b in boxes], k)
    assert np.array_equal(A, A.T)
    assert np.abs(A - B).max() <= 1e-13 * np.abs(A).max()
