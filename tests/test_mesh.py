"""Template geometry, identity deformation, and the linear AU rig."""

import numpy as np
import pytest

from painforge.errors import GeometryError, ParameterError
from painforge.facesynth.au import AU_NAMES, AUVector
from painforge.facesynth.demographics import DemographicProfile
from painforge.facesynth.mesh import (FaceMesh, apply_au_rig, au_region_masks,
                                      make_identity_mesh,
                                      max_total_displacement,
                                      mesh_from_shape_params)


def profile(seed, age="Young"):
    return DemographicProfile(age, "White", "Woman", identity_seed=seed)


class TestTemplate:
    def test_shape_counts(self):
        m = mesh_from_shape_params(np.zeros(8))
        assert m.vertices.shape == (2025, 3)
        assert m.faces.shape[1] == 3
        assert m.au_basis.shape == (6, 2025, 3)

    def test_zero_params_is_canonical_template(self):
        a = mesh_from_shape_params(np.zeros(8))
        b = mesh_from_shape_params(np.zeros(8))
        assert np.array_equal(a.vertices, b.vertices)

    def test_no_degenerate_triangles_even_fully_rigged(self):
        m = mesh_from_shape_params(np.zeros(8))
        rigged = apply_au_rig(m, AUVector(5, 5, 5, 5, 5, 1))
        a = rigged.vertices[rigged.faces[:, 0]]
        ab = rigged.vertices[rigged.faces[:, 1]] - a
        ac = rigged.vertices[rigged.faces[:, 2]] - a
        areas = 0.5 * np.linalg.norm(np.cross(ab, ac), axis=1)
        assert areas.min() > 1e-14

    def test_left_right_symmetric(self):
        m = mesh_from_shape_params(np.zeros(8))
        order = np.lexsort((m.vertices[:, 0], m.vertices[:, 1]))
        mirrored = m.vertices * np.array([-1.0, 1.0, 1.0])
        m_order = np.lexsort((mirrored[:, 0], mirrored[:, 1]))
        assert np.allclose(m.vertices[order], mirrored[m_order], atol=1e-12)

    def test_basis_local_to_masks(self):
        m = mesh_from_shape_params(np.zeros(8))
        masks = au_region_masks()
        for k, name in enumerate(AU_NAMES):
            moved = np.linalg.norm(m.au_basis[k], axis=1) > 0
            assert not np.any(moved & ~masks[name]), name
            assert moved.any(), name

    def test_face_index_validation(self):
        m = mesh_from_shape_params(np.zeros(8))
        bad_faces = m.faces.copy()
        bad_faces[0, 0] = m.num_vertices + 3
        with pytest.raises(GeometryError):
            FaceMesh(m.vertices, bad_faces, m.shape_params, m.au_basis)


class TestIdentity:
    def test_deterministic(self):
        a = make_identity_mesh(profile(77))
        b = make_identity_mesh(profile(77))
        assert np.array_equal(a.vertices, b.vertices)
        assert a.wrinkle_amplitude == b.wrinkle_amplitude

    def test_different_seeds_differ_widely(self):
        a = make_identity_mesh(profile(1))
        b = make_identity_mesh(profile(2))
        frac = np.mean(a.vertices != b.vertices)
        assert frac > 0.01

    def test_elderly_wrinkles_stronger(self):
        young = make_identity_mesh(profile(5, "Young"))
        old = make_identity_mesh(profile(5, "Elderly"))
        assert old.wrinkle_amplitude > young.wrinkle_amplitude

    def test_bad_param_count(self):
        with pytest.raises(ParameterError):
            mesh_from_shape_params(np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_shape_params(self, bad):
        with pytest.raises(ParameterError):
            mesh_from_shape_params([bad] + [0.0] * 7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_wrinkle_amplitude(self, bad):
        with pytest.raises(ParameterError):
            mesh_from_shape_params(np.zeros(8), wrinkle_amplitude=bad)


class TestRig:
    def test_zero_au_is_identity(self):
        m = make_identity_mesh(profile(3))
        rigged = apply_au_rig(m, AUVector())
        assert np.array_equal(rigged.vertices, m.vertices)

    def test_single_au_confined_to_its_region(self):
        m = make_identity_mesh(profile(3))
        rigged = apply_au_rig(m, AUVector(au4=5))
        moved = np.any(rigged.vertices != m.vertices, axis=1)
        assert moved.any()
        assert not np.any(moved & ~au_region_masks()["au4"])

    def test_linearity_in_intensity(self):
        m = make_identity_mesh(profile(9))
        full = apply_au_rig(m, AUVector(au6=4.0)).vertices - m.vertices
        for alpha in (0.25, 0.5, 0.75, 1.0):
            part = apply_au_rig(m, AUVector(au6=4.0 * alpha)).vertices - m.vertices
            assert np.allclose(part, alpha * full, atol=1e-12)

    def test_additivity_for_disjoint_regions(self):
        m = make_identity_mesh(profile(11))
        a = apply_au_rig(m, AUVector(au4=3)).vertices - m.vertices
        b = apply_au_rig(m, AUVector(au10=4)).vertices - m.vertices
        both = apply_au_rig(m, AUVector(au4=3, au10=4)).vertices - m.vertices
        assert np.allclose(a + b, both, atol=1e-12)

    def test_rig_preserves_topology_and_basis(self):
        m = make_identity_mesh(profile(4))
        rigged = apply_au_rig(m, AUVector(au9=2))
        assert rigged.faces is m.faces
        assert rigged.au_basis is m.au_basis

    def test_out_of_range_rejected(self):
        m = make_identity_mesh(profile(4))
        with pytest.raises(ParameterError):
            apply_au_rig(m, AUVector.from_array([9.0, 0, 0, 0, 0, 0]))


class TestDisplacementBound:
    def test_positive_and_reached(self):
        m = mesh_from_shape_params(np.zeros(8))
        bound = max_total_displacement(m.au_basis)
        assert bound > 0
        rigged = apply_au_rig(m, AUVector(5, 5, 5, 5, 5, 1))
        magnitudes = np.linalg.norm(rigged.vertices - m.vertices, axis=1)
        assert magnitudes.max() <= bound + 1e-12
