"""Orthographic software rasterization: depth, shaded RGB, displacement heatmaps.

The camera looks down -z after a yaw rotation about the vertical axis, so
larger camera-space z means closer to the viewer. Rasterization generates
candidate fragments for every triangle at once, resolves visibility with a
z-buffer (the nearest fragment of each pixel wins; of equal depths, the later
in face order), and interpolates per-vertex attributes barycentrically at the
winning fragments only. Everything is deterministic for fixed inputs.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError, ParameterError
from ..rng import STREAM_ALBEDO, keyed_rng
from .demographics import DemographicProfile
from .mesh import FaceMesh, max_total_displacement, template_uv

VIEW_EXTENT = 0.62  # half-size of the square view window, world units
# A fairly grazing key light: normal changes from rig displacements read as
# strong shading changes, which is the whole signal an RGB model gets.
_LIGHT_DIR = np.array([0.45, 0.55, 0.70]) / np.linalg.norm([0.45, 0.55, 0.70])
_AMBIENT = 0.22

# Base skin tones per ethnicity bucket; purely procedural stand-ins.
SKIN_TONES = {
    "Latino": (0.78, 0.60, 0.46),
    "White": (0.92, 0.76, 0.65),
    "South Asian": (0.66, 0.48, 0.35),
    "Black": (0.45, 0.32, 0.24),
    "Middle Eastern": (0.82, 0.64, 0.50),
    "East Asian": (0.88, 0.72, 0.58),
}


def rotate_yaw(vertices: np.ndarray, yaw_degrees: float) -> np.ndarray:
    """Rotate about the vertical (y) axis into camera space."""
    theta = np.deg2rad(yaw_degrees)
    c, s = np.cos(theta), np.sin(theta)
    x, y, z = vertices[:, 0], vertices[:, 1], vertices[:, 2]
    return np.stack([c * x + s * z, y, -s * x + c * z], axis=1)


def _check_yaw(yaw_degrees: float) -> float:
    if not -90.0 <= yaw_degrees <= 90.0:
        raise ParameterError(f"camera yaw must lie in [-90, 90], got {yaw_degrees}")
    return float(yaw_degrees)


def rasterize(vertices: np.ndarray, faces: np.ndarray, attributes: np.ndarray,
              resolution: int, extent: float = VIEW_EXTENT):
    """Scatter interpolated per-vertex attributes into an image.

    ``vertices`` must already be in camera space. Returns
    ``(image (H, W, A), depth (H, W), covered (H, W))``; depth is raw
    camera-space z with -inf on background pixels.
    """
    if vertices.shape[0] == 0 or faces.shape[0] == 0:
        raise GeometryError("cannot rasterize an empty mesh")
    if not np.isfinite(vertices).all():
        raise GeometryError("cannot rasterize non-finite vertex positions")
    h = w = int(resolution)
    attributes = np.asarray(attributes, dtype=np.float64)
    if attributes.ndim == 1:
        attributes = attributes.reshape(-1, 1)
    if attributes.shape[0] != vertices.shape[0]:
        raise GeometryError(
            f"attribute rows {attributes.shape[0]} do not match "
            f"{vertices.shape[0]} vertices")
    n_attr = attributes.shape[1]

    sx = (vertices[:, 0] / (2.0 * extent) + 0.5) * w - 0.5
    sy = (0.5 - vertices[:, 1] / (2.0 * extent)) * h - 0.5
    z = vertices[:, 2]

    ax, bx, cx = (sx[faces[:, k]] for k in range(3))
    ay, by, cy = (sy[faces[:, k]] for k in range(3))
    area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    x_lo = np.clip(np.ceil(np.minimum(np.minimum(ax, bx), cx)), 0, w - 1).astype(np.int64)
    x_hi = np.clip(np.floor(np.maximum(np.maximum(ax, bx), cx)), 0, w - 1).astype(np.int64)
    y_lo = np.clip(np.ceil(np.minimum(np.minimum(ay, by), cy)), 0, h - 1).astype(np.int64)
    y_hi = np.clip(np.floor(np.maximum(np.maximum(ay, by), cy)), 0, h - 1).astype(np.int64)

    keep = (np.abs(area2) > 1e-12) & (x_lo <= x_hi) & (y_lo <= y_hi)
    if not keep.any():
        image = np.zeros((h, w, n_attr))
        return image, np.full((h, w), -np.inf), np.zeros((h, w), dtype=bool)

    # Candidates are the pixels of each kept face's clipped box, in (face,
    # row-major pixel) order; fragments keep that order.
    f_idx = np.nonzero(keep)[0]
    box_w = (x_hi - x_lo + 1)[f_idx]
    n_box = box_w * (y_hi - y_lo + 1)[f_idx]
    f = np.repeat(f_idx, n_box)
    starts = np.repeat(np.cumsum(n_box) - n_box, n_box)
    off_y, off_x = np.divmod(np.arange(f.size) - starts, np.repeat(box_w, n_box))
    px, py = x_lo[f] + off_x, y_lo[f] + off_y

    ax, bx, cx, ay, by, cy = (t[f] for t in (ax, bx, cx, ay, by, cy))
    wa = (bx - px) * (cy - py) - (by - py) * (cx - px)
    wb = (cx - px) * (ay - py) - (cy - py) * (ax - px)
    wc = (ax - px) * (by - py) - (ay - py) * (bx - px)
    inv_area = 1.0 / area2[f]
    la, lb, lc = wa * inv_area, wb * inv_area, wc * inv_area
    inside = np.flatnonzero((la >= 0.0) & (lb >= 0.0) & (lc >= 0.0))
    la, lb, lc, pix = la[inside], lb[inside], lc[inside], (py * w + px)[inside]
    fa, fb, fc = faces[f[inside]].T
    frag_z = la * z[fa] + lb * z[fb] + lc * z[fc]

    # z-buffer: sort stably by pixel, then depth; the last fragment of each
    # pixel's run is the nearest, and of equal depths the later one.
    order = np.lexsort((frag_z, pix))
    win = order[np.diff(pix[order], append=-1) != 0]
    pix, fa, fb, fc = pix[win], fa[win], fb[win], fc[win]
    la, lb, lc = la[win, None], lb[win, None], lc[win, None]
    flat_attr = np.zeros((h * w, n_attr))
    flat_z = np.full(h * w, -np.inf)
    covered = np.zeros(h * w, dtype=bool)
    flat_attr[pix] = la * attributes[fa] + lb * attributes[fb] + lc * attributes[fc]
    flat_z[pix] = frag_z[win]
    covered[pix] = True
    return flat_attr.reshape(h, w, n_attr), flat_z.reshape(h, w), covered.reshape(h, w)


def render_depth(mesh: FaceMesh, camera_yaw: float, resolution: int = 64) -> np.ndarray:
    """Nearest-surface depth, scaled so the closest visible point reads 1.0
    and the background reads exactly 0."""
    yaw = _check_yaw(camera_yaw)
    cam = rotate_yaw(mesh.vertices, yaw)
    _, depth, covered = rasterize(cam, mesh.faces, np.zeros((mesh.num_vertices, 1)),
                                  resolution)
    image = np.zeros((resolution, resolution))
    if covered.any():
        z_vis = depth[covered]
        z_min, z_max = z_vis.min(), z_vis.max()
        if z_max - z_min < 1e-12:
            image[covered] = 1.0
        else:
            image[covered] = 1.0 - 0.95 * (z_max - z_vis) / (z_max - z_min)
    return image


def vertex_normals(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    a = vertices[faces[:, 0]]
    face_n = np.cross(vertices[faces[:, 1]] - a, vertices[faces[:, 2]] - a)
    # Corner 0 of every face, then corner 1, then corner 2: a fixed summation order.
    normals = np.stack([np.bincount(faces.T.ravel(), weights=np.tile(face_n[:, k], 3),
                                    minlength=len(vertices)) for k in range(3)], axis=1)
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    degenerate = norms[:, 0] <= 1e-20
    normals = normals / np.where(norms > 1e-20, norms, 1.0)
    normals[degenerate] = (0.0, 0.0, 1.0)
    # Faces wind consistently toward +z on the template; flip any stragglers.
    normals[normals[:, 2] < 0] *= -1.0
    return normals


def skin_albedo(profile: DemographicProfile, wrinkle_amplitude: float) -> np.ndarray:
    """Procedural per-vertex skin color keyed to ethnicity, identity and age."""
    u, v = template_uv()
    rng = keyed_rng(profile.identity_seed, STREAM_ALBEDO)
    base = np.array(SKIN_TONES[profile.ethnicity])
    channel_jitter = 1.0 + 0.06 * rng.normal(size=3)
    brightness = 1.0 + 0.08 * rng.uniform(-1.0, 1.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    stripes = 0.5 + 0.5 * np.sin(55.0 * v + 2.2 * np.sin(9.0 * u) + phase)
    wrinkle_factor = 1.0 - 0.16 * wrinkle_amplitude * stripes
    albedo = base[None, :] * channel_jitter[None, :] * brightness * wrinkle_factor[:, None]
    return np.clip(albedo, 0.02, 0.98)


def render_rgb(mesh: FaceMesh, profile: DemographicProfile, camera_yaw: float,
               resolution: int = 64, albedo: np.ndarray | None = None) -> np.ndarray:
    """Lambertian-shaded render under a fixed light; fully deterministic."""
    yaw = _check_yaw(camera_yaw)
    cam = rotate_yaw(mesh.vertices, yaw)
    if albedo is None:
        albedo = skin_albedo(profile, mesh.wrinkle_amplitude)
    normals = vertex_normals(cam, mesh.faces)
    intensity = _AMBIENT + (1.0 - _AMBIENT) * np.clip(normals @ _LIGHT_DIR, 0.0, None)
    colors = np.clip(albedo * intensity[:, None], 0.0, 1.0)
    image, _, _ = rasterize(cam, mesh.faces, colors, resolution)
    return np.clip(image, 0.0, 1.0)


def splat_vertex_values(mesh: FaceMesh, values: np.ndarray, camera_yaw: float,
                        resolution: int = 64) -> np.ndarray:
    """Rasterize one scalar per vertex over the mesh; background is 0."""
    yaw = _check_yaw(camera_yaw)
    cam = rotate_yaw(mesh.vertices, yaw)
    image, _, _ = rasterize(cam, mesh.faces, values.reshape(-1, 1), resolution)
    return image[:, :, 0]


def render_heatmap(neutral: FaceMesh, rigged: FaceMesh, camera_yaw: float = 0.0,
                   resolution: int = 64) -> np.ndarray:
    """Per-vertex displacement magnitude between the two meshes, splatted via
    the rigged geometry and normalized by the rig-wide displacement bound so
    intensities are comparable across every sample of a dataset."""
    if neutral.num_vertices != rigged.num_vertices or \
            not np.array_equal(neutral.faces, rigged.faces):
        raise GeometryError("meshes must share vertex count and face topology")
    magnitude = np.linalg.norm(rigged.vertices - neutral.vertices, axis=1)
    scale = max_total_displacement(rigged.au_basis)
    image = splat_vertex_values(rigged, magnitude / scale, camera_yaw, resolution)
    return np.clip(image, 0.0, 1.0)
