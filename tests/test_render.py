"""Depth, RGB, and heatmap rendering semantics."""

import numpy as np
import pytest
from scipy import ndimage

from painforge.errors import GeometryError, ParameterError
from painforge.facesynth.au import AUVector
from painforge.facesynth.demographics import DemographicProfile
from painforge.facesynth.mesh import (FaceMesh, apply_au_rig, au_region_masks,
                                      make_identity_mesh, mesh_from_shape_params)
from painforge.facesynth.render import (VIEW_EXTENT, rasterize, render_depth,
                                        render_heatmap, render_rgb, rotate_yaw,
                                        splat_vertex_values, vertex_normals)

PROFILE = DemographicProfile("Young", "East Asian", "Man", identity_seed=42)


@pytest.fixture(scope="module")
def mesh():
    return make_identity_mesh(PROFILE)


@pytest.fixture(scope="module")
def template():
    return mesh_from_shape_params(np.zeros(8))


class TestRenderDepth:
    def test_nose_tip_has_maximal_value(self, template):
        depth = render_depth(template, 0.0, 64)
        tip = template.vertices[np.argmax(template.vertices[:, 2])]
        # project the tip into pixel coordinates the same way the rasterizer does
        px = (tip[0] / 1.24 + 0.5) * 64 - 0.5
        py = (0.5 - tip[1] / 1.24) * 64 - 0.5
        yy, xx = np.unravel_index(np.argmax(depth), depth.shape)
        assert depth.max() == 1.0
        assert abs(xx - px) <= 1.0 and abs(yy - py) <= 1.0

    def test_background_zero_foreground_positive(self, mesh):
        depth = render_depth(mesh, 20.0, 64)
        assert depth.min() == 0.0
        assert 0 < (depth > 0).sum() < 64 * 64

    def test_frontal_symmetric_mesh_mirrors(self, template):
        depth = render_depth(template, 0.0, 64)
        assert np.allclose(depth, depth[:, ::-1], atol=1e-9)

    def test_empty_mesh_rejected(self, template):
        empty = FaceMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int32),
                         np.zeros(8), np.zeros((6, 0, 3)))
        with pytest.raises(GeometryError):
            render_depth(empty, 0.0, 64)

    def test_yaw_out_of_range(self, mesh):
        with pytest.raises(ParameterError):
            render_depth(mesh, 91.0, 64)


class TestRenderRGB:
    def test_deterministic(self, mesh):
        a = render_rgb(mesh, PROFILE, -30.0, 64)
        b = render_rgb(mesh, PROFILE, -30.0, 64)
        assert np.array_equal(a, b)

    def test_values_in_unit_range(self, mesh):
        img = render_rgb(mesh, PROFILE, 0.0, 64)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_black_albedo_override(self, mesh):
        img = render_rgb(mesh, PROFILE, 0.0, 64, albedo=np.zeros(3))
        assert np.all(img == 0.0)

    def test_rig_changes_only_inside_dilated_au_regions(self, mesh):
        au = AUVector(au4=5)
        rigged = apply_au_rig(mesh, au)
        neutral_img = render_rgb(mesh, PROFILE, 0.0, 64)
        rigged_img = render_rgb(rigged, PROFILE, 0.0, 64)
        changed = np.any(neutral_img != rigged_img, axis=-1)

        au4 = au_region_masks()["au4"].astype(float)
        region = splat_vertex_values(mesh, au4, 0.0, 64) > 0
        region |= splat_vertex_values(rigged, au4, 0.0, 64) > 0
        allowed = ndimage.binary_dilation(region, iterations=2)
        assert changed.any()
        assert not np.any(changed & ~allowed)

    def test_ethnicity_changes_albedo(self, mesh):
        other = DemographicProfile("Young", "Black", "Man", identity_seed=42)
        a = render_rgb(mesh, PROFILE, 0.0, 64)
        b = render_rgb(mesh, other, 0.0, 64)
        assert np.any(a != b)


class TestRenderHeatmap:
    def test_identical_meshes_zero(self, mesh):
        heat = render_heatmap(mesh, mesh, 0.0, 64)
        assert np.all(heat == 0.0)

    def test_single_au_support_in_region(self, mesh):
        rigged = apply_au_rig(mesh, AUVector(au4=4))
        heat = render_heatmap(mesh, rigged, 0.0, 64)
        au4 = au_region_masks()["au4"].astype(float)
        region = splat_vertex_values(rigged, au4, 0.0, 64) > 0
        assert heat.max() > 0
        assert not np.any((heat > 0) & ~region)

    def test_support_within_active_masks_multi_au(self, mesh):
        au = AUVector(au4=3, au10=4, au43=1)
        rigged = apply_au_rig(mesh, au)
        heat = render_heatmap(mesh, rigged, 0.0, 64)
        masks = au_region_masks()
        union = masks["au4"] | masks["au10"] | masks["au43"]
        region = splat_vertex_values(rigged, union.astype(float), 0.0, 64) > 0
        assert not np.any((heat > 0) & ~region)

    def test_values_in_unit_range(self, mesh):
        rigged = apply_au_rig(mesh, AUVector(5, 5, 5, 5, 5, 1))
        heat = render_heatmap(mesh, rigged, 0.0, 64)
        assert heat.min() >= 0.0 and heat.max() <= 1.0

    def test_doubling_intensity_doubles_splatted_values(self, mesh):
        # The rig is linear, so doubling au4 doubles every vertex displacement
        # magnitude, and splatting over one fixed geometry is linear in the
        # attribute. Exact up to IEEE rounding of (v + d) - v recovery.
        lo = apply_au_rig(mesh, AUVector(au4=1))
        hi = apply_au_rig(mesh, AUVector(au4=2))
        mag_lo = np.linalg.norm(lo.vertices - mesh.vertices, axis=1)
        mag_hi = np.linalg.norm(hi.vertices - mesh.vertices, axis=1)
        assert np.allclose(mag_hi, 2.0 * mag_lo, rtol=1e-12, atol=1e-15)
        img_hi = splat_vertex_values(hi, mag_hi, 0.0, 64)
        img_lo_on_hi = splat_vertex_values(hi, mag_lo, 0.0, 64)
        assert np.allclose(img_hi, 2.0 * img_lo_on_hi, rtol=1e-12, atol=1e-15)
        # splatting itself is exactly linear when the field is exactly doubled
        img_2lo = splat_vertex_values(hi, 2.0 * mag_lo, 0.0, 64)
        assert np.array_equal(img_2lo, 2.0 * img_lo_on_hi)

    def test_face_permutation_invariance(self, mesh):
        rigged = apply_au_rig(mesh, AUVector(au6=3, au9=2))
        heat = render_heatmap(mesh, rigged, 0.0, 64)
        perm = np.random.default_rng(0).permutation(mesh.faces.shape[0])
        shuffled = FaceMesh(rigged.vertices, rigged.faces[perm],
                            rigged.shape_params, rigged.au_basis)
        neutral_shuffled = FaceMesh(mesh.vertices, mesh.faces[perm],
                                    mesh.shape_params, mesh.au_basis)
        heat_perm = render_heatmap(neutral_shuffled, shuffled, 0.0, 64)
        assert np.array_equal(heat, heat_perm)

    def test_topology_mismatch_rejected(self, mesh):
        tiny = FaceMesh(np.array([[0.0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]]),
                        np.array([[0, 1, 2]], dtype=np.int32),
                        np.zeros(8), np.zeros((6, 3, 3)))
        with pytest.raises(GeometryError):
            render_heatmap(mesh, tiny, 0.0, 64)


def _oracle_rasterize(vertices, faces, attributes, resolution, extent=VIEW_EXTENT):
    """Straight-line reference: one fragment at a time, a scalar z-buffer.

    Same expressions in the same order as ``rasterize``; the nearest fragment
    (largest z) wins a pixel, and on an exact z tie the later fragment in
    (face, row-major pixel) order wins.
    """
    h = w = resolution
    n_attr = attributes.shape[1]
    image = np.zeros((h, w, n_attr))
    depth = np.full((h, w), -np.inf)
    covered = np.zeros((h, w), dtype=bool)
    sx = [(float(v[0]) / (2.0 * extent) + 0.5) * w - 0.5 for v in vertices]
    sy = [(0.5 - float(v[1]) / (2.0 * extent)) * h - 0.5 for v in vertices]
    for ia, ib, ic in faces:
        ax, bx, cx = sx[ia], sx[ib], sx[ic]
        ay, by, cy = sy[ia], sy[ib], sy[ic]
        area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        x_lo = int(min(max(np.ceil(min(ax, bx, cx)), 0), w - 1))
        x_hi = int(min(max(np.floor(max(ax, bx, cx)), 0), w - 1))
        y_lo = int(min(max(np.ceil(min(ay, by, cy)), 0), h - 1))
        y_hi = int(min(max(np.floor(max(ay, by, cy)), 0), h - 1))
        if not abs(area2) > 1e-12:
            continue
        inv_area = 1.0 / area2
        for py in range(y_lo, y_hi + 1):
            for px in range(x_lo, x_hi + 1):
                la = ((bx - px) * (cy - py) - (by - py) * (cx - px)) * inv_area
                lb = ((cx - px) * (ay - py) - (cy - py) * (ax - px)) * inv_area
                lc = ((ax - px) * (by - py) - (ay - py) * (bx - px)) * inv_area
                if not (la >= 0.0 and lb >= 0.0 and lc >= 0.0):
                    continue
                z = (la * vertices[ia, 2] + lb * vertices[ib, 2]
                     + lc * vertices[ic, 2])
                covered[py, px] = True
                if z >= depth[py, px]:
                    depth[py, px] = z
                    image[py, px] = [la * attributes[ia, k] + lb * attributes[ib, k]
                                     + lc * attributes[ic, k] for k in range(n_attr)]
    return image, depth, covered


def _screen_vertices(points, resolution, extent):
    """World vertices whose pixel coordinates are exactly ``(sx, sy, z)``."""
    points = np.asarray(points, dtype=np.float64)
    x = ((points[:, 0] + 0.5) / resolution - 0.5) * (2.0 * extent)
    y = (0.5 - (points[:, 1] + 0.5) / resolution) * (2.0 * extent)
    return np.stack([x, y, points[:, 2]], axis=1)


def _assert_matches_oracle(vertices, faces, attributes, resolution,
                           extent=VIEW_EXTENT):
    got = rasterize(vertices, faces, attributes, resolution, extent)
    want = _oracle_rasterize(vertices, faces, attributes, resolution, extent)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.array_equal(g, w)
    return got


class TestRasterizeOracle:
    @pytest.mark.parametrize("yaw", [-90.0, -30.0, 0.0, 30.0, 90.0])
    def test_template_matches_per_pixel_oracle(self, template, yaw):
        cam = rotate_yaw(template.vertices, yaw)
        attrs = np.random.default_rng(7).uniform(-1.0, 1.0, (cam.shape[0], 4))
        _, _, covered = _assert_matches_oracle(cam, template.faces, attrs, 16)
        assert covered.any()

    def test_exact_z_tie_goes_to_later_face(self):
        # Two copies of one triangle at the same depth; only the attribute
        # differs, so every covered pixel is an exact z tie.
        verts = _screen_vertices([(0, 0, 0.25), (7, 0, 0.25), (0, 7, 0.25)] * 2, 8, 0.5)
        faces = np.array([[0, 1, 2], [3, 4, 5]])
        attrs = np.array([[1.0], [1.0], [1.0], [2.0], [2.0], [2.0]])
        image, depth, covered = _assert_matches_oracle(verts, faces, attrs, 8, 0.5)
        assert covered.sum() == 36
        assert np.allclose(image[covered, 0], 2.0, rtol=0, atol=1e-12)

    def test_pixel_centres_on_a_shared_edge(self):
        # Two triangles share the edge x + y = 7; the pixel centres on it
        # are inside both by the inclusive test.
        pts = [(0, 0, 0.5), (7, 0, 0.5), (0, 7, 0.5), (7, 7, 0.5)]
        verts = _screen_vertices(pts, 8, 0.5)
        attrs = np.array([[1.0], [2.0], [3.0], [4.0]])
        for faces in ([[0, 1, 2], [1, 3, 2]], [[1, 3, 2], [0, 1, 2]]):
            _, _, covered = _assert_matches_oracle(verts, np.array(faces), attrs, 8, 0.5)
            assert covered.all()
        # An earlier, nearer copy of the second triangle wins the edge pixels.
        near = _screen_vertices(pts + [(7, 0, 0.75), (7, 7, 0.75), (0, 7, 0.75)], 8, 0.5)
        attrs = np.vstack([attrs, [[9.0], [9.0], [9.0]]])
        image, depth, _ = _assert_matches_oracle(near, np.array([[4, 5, 6], [0, 1, 2]]),
                                                 attrs, 8, 0.5)
        edge = np.arange(8), 7 - np.arange(8)
        assert np.allclose(image[edge][:, 0], 9.0, rtol=0, atol=1e-12)
        assert np.allclose(depth[edge], 0.75, rtol=0, atol=1e-12)


class TestRasterizeInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex_is_geometry_error(self, template, bad):
        verts = template.vertices.copy()
        verts[100, 0] = bad
        with pytest.raises(GeometryError):
            rasterize(verts, template.faces, np.ones(verts.shape[0]), 16)


def _oracle_vertex_normals(vertices, faces):
    """The three-pass ``np.add.at`` accumulation, kept as the reference."""
    a = vertices[faces[:, 0]]
    face_n = np.cross(vertices[faces[:, 1]] - a, vertices[faces[:, 2]] - a)
    normals = np.zeros_like(vertices)
    for k in range(3):
        np.add.at(normals, faces[:, k], face_n)
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    degenerate = norms[:, 0] <= 1e-20
    normals = normals / np.where(norms > 1e-20, norms, 1.0)
    normals[degenerate] = (0.0, 0.0, 1.0)
    normals[normals[:, 2] < 0] *= -1.0
    return normals


class TestVertexNormals:
    def test_template_bit_equal_to_add_at(self, template):
        got = vertex_normals(template.vertices, template.faces)
        assert got.tobytes() == _oracle_vertex_normals(template.vertices,
                                                       template.faces).tobytes()

    @pytest.mark.parametrize("yaw", [-30.0, 0.0, 30.0])
    def test_rigged_view_bit_equal_to_add_at(self, mesh, yaw):
        rigged = apply_au_rig(mesh, AUVector(au4=3, au10=2, au43=1))
        cam = rotate_yaw(rigged.vertices, yaw)
        got = vertex_normals(cam, rigged.faces)
        assert got.shape == cam.shape
        assert got.tobytes() == _oracle_vertex_normals(cam, rigged.faces).tobytes()
