"""Parametric face mesh with a linear action-unit blendshape rig.

The canonical template is a half-ellipsoid head-on face built over a regular
(u, v) grid, with a nose bulge and a brow ridge. Six anatomical regions
(brows, cheeks, eyelids, nose root, nasolabial area, lids) carry hand-authored
displacement fields, one per action unit; displacements are exactly zero
outside their region. All coordinates use a unit head-height scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..errors import GeometryError, ParameterError
from ..rng import STREAM_SHAPE, keyed_rng
from .au import AU_MAX, AU_NAMES, AUVector
from .demographics import DemographicProfile

GRID_N = 45
NUM_SHAPE_PARAMS = 8

_HALF_WIDTH = 0.40
_HALF_HEIGHT = 0.50
_DEPTH = 0.32
_NOSE_V = -0.02


def _symmetric_axis(n: int) -> np.ndarray:
    # Exactly antisymmetric sample points so mirrored vertices mirror bitwise.
    half = np.linspace(0.0, 1.0, n // 2 + 1)[1:]
    return np.concatenate([-half[::-1], [0.0], half])


def _window(t: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Cosine bump on (lo, hi): smooth inside, exactly zero outside."""
    s = (t - lo) / (hi - lo)
    inside = (s > 0.0) & (s < 1.0)
    w = np.zeros_like(np.asarray(t, dtype=float))
    w[inside] = 0.5 * (1.0 - np.cos(2.0 * np.pi * s[inside]))
    return w


@lru_cache(maxsize=1)
def _template_arrays():
    u1 = _symmetric_axis(GRID_N)
    v1 = np.linspace(-1.0, 1.0, GRID_N)
    v, u = np.meshgrid(v1, u1, indexing="ij")
    u = u.reshape(-1)
    v = v.reshape(-1)

    jaw_taper = 1.0 - 0.22 * np.clip(-v, 0.0, 1.0) ** 1.3
    x = _HALF_WIDTH * u * jaw_taper
    y = _HALF_HEIGHT * v
    bulge = np.clip(1.0 - 0.90 * u * u - 0.95 * v * v, 0.0, None)
    z = _DEPTH * np.sqrt(bulge)
    z = z + 0.11 * np.exp(-((u / 0.085) ** 2) - (((v - _NOSE_V) / 0.16) ** 2))
    z = z + 0.015 * np.exp(-(((v - 0.30) / 0.10) ** 2)) * np.exp(-((u / 0.5) ** 2))
    vertices = np.stack([x, y, z], axis=1)

    # Quad diagonals flip direction at the centerline so the triangulated
    # surface is exactly left-right mirror symmetric.
    faces = []
    half = (GRID_N - 1) // 2
    for iv in range(GRID_N - 1):
        for iu in range(GRID_N - 1):
            a = iv * GRID_N + iu
            b = a + 1
            c = a + GRID_N
            d = c + 1
            if iu < half:
                faces.append((a, b, d))
                faces.append((a, d, c))
            else:
                faces.append((a, b, c))
                faces.append((b, d, c))
    faces = np.array(faces, dtype=np.int32)
    return vertices, faces, u, v


def template_uv() -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex (u, v) parameter coordinates, shared by every mesh."""
    _, _, u, v = _template_arrays()
    return u, v


# Region recipe per action unit: (u-window or |u|-window, v-window, direction,
# peak displacement). Directions are unnormalized pull vectors. Amplitudes are
# large enough that full-intensity rigs change shading visibly at 64x64.
_AU_REGIONS = {
    "au4": dict(u=(0.05, 0.62), absu=True, v=(0.18, 0.46),
                direction=(-0.35, -1.0, -0.45), signed_x=True, amp=0.055),
    "au6": dict(u=(0.18, 0.74), absu=True, v=(-0.34, 0.06),
                direction=(0.0, 1.0, 0.80), signed_x=False, amp=0.050),
    "au7": dict(u=(0.10, 0.56), absu=True, v=(0.08, 0.26),
                direction=(0.0, -0.55, -0.55), signed_x=False, amp=0.028),
    "au9": dict(u=(-0.16, 0.16), absu=False, v=(0.00, 0.32),
                direction=(0.0, 1.0, 0.65), signed_x=False, amp=0.045),
    "au10": dict(u=(-0.36, 0.36), absu=False, v=(-0.46, -0.10),
                 direction=(0.0, 1.0, 0.45), signed_x=False, amp=0.050),
    "au43": dict(u=(0.10, 0.58), absu=True, v=(0.06, 0.28),
                 direction=(0.0, -1.0, -0.40), signed_x=False, amp=0.038),
}


@lru_cache(maxsize=1)
def _au_basis_and_masks():
    _, _, u, v = _template_arrays()
    n_vertices = u.size
    basis = np.zeros((len(AU_NAMES), n_vertices, 3))
    masks = {}
    for k, name in enumerate(AU_NAMES):
        spec = _AU_REGIONS[name]
        tu = np.abs(u) if spec["absu"] else u
        w = _window(tu, *spec["u"]) * _window(v, *spec["v"])
        direction = np.array(spec["direction"])
        direction = direction / np.linalg.norm(direction)
        disp = np.outer(w, direction)
        if spec["signed_x"]:
            disp[:, 0] *= np.sign(u)
        basis[k] = spec["amp"] * disp
        masks[name] = w > 0.0
    return basis, masks


def au_region_masks() -> dict:
    """Boolean per-vertex masks of each action unit's anatomical region."""
    _, masks = _au_basis_and_masks()
    return {name: mask.copy() for name, mask in masks.items()}


def max_total_displacement(au_basis: np.ndarray) -> float:
    """Upper bound on any vertex displacement: sum over units of the largest
    per-vertex displacement each unit can produce at full intensity."""
    return float(sum(np.linalg.norm(au_basis[k], axis=1).max()
                     for k in range(au_basis.shape[0])))


@dataclass
class FaceMesh:
    """Triangle mesh with identity shape parameters and the AU blendshape rig."""

    vertices: np.ndarray              # (V, 3)
    faces: np.ndarray                 # (F, 3) int
    shape_params: np.ndarray          # (S,)
    au_basis: np.ndarray              # (6, V, 3)
    wrinkle_amplitude: float = 0.0

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.faces = np.asarray(self.faces, dtype=np.int32)
        n_vertices = self.vertices.shape[0]
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= n_vertices):
            raise GeometryError(
                f"face indices must lie in [0, {n_vertices}), "
                f"found range [{self.faces.min()}, {self.faces.max()}]")
        if self.faces.size:
            a = self.vertices[self.faces[:, 0]]
            ab = self.vertices[self.faces[:, 1]] - a
            ac = self.vertices[self.faces[:, 2]] - a
            areas = 0.5 * np.linalg.norm(np.cross(ab, ac), axis=1)
            if areas.min() <= 1e-14:
                raise GeometryError(
                    f"degenerate triangle with area {areas.min():.3e}")
        if self.au_basis.shape != (len(AU_NAMES), n_vertices, 3):
            raise GeometryError(
                f"au_basis shape {self.au_basis.shape} does not match "
                f"{(len(AU_NAMES), n_vertices, 3)}")

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]


def _apply_shape(vertices: np.ndarray, u: np.ndarray, v: np.ndarray,
                 p: np.ndarray) -> np.ndarray:
    """Smooth, left-right symmetric identity deformations; identity at p = 0."""
    x = vertices[:, 0].copy()
    y = vertices[:, 1].copy()
    z = vertices[:, 2].copy()
    x = x * (1.0 + 0.05 * p[0])
    y = y * (1.0 + 0.04 * p[1])
    x = x * (1.0 + 0.09 * p[2] * np.clip(-v, 0.0, 1.0))
    z = z + 0.018 * p[3] * _window(np.abs(u), 0.18, 0.66) * _window(v, -0.30, 0.10)
    z = z + 0.030 * p[4] * np.exp(-((u / 0.085) ** 2) - (((v - _NOSE_V) / 0.16) ** 2))
    z = z + 0.012 * p[5] * _window(v, 0.20, 0.44) * _window(np.abs(u), 0.02, 0.62)
    z = z * (1.0 + 0.05 * p[6])
    y = y + 0.020 * p[7] * _window(v, -1.0, -0.55)
    return np.stack([x, y, z], axis=1)


def mesh_from_shape_params(shape_params, wrinkle_amplitude: float = 0.0) -> FaceMesh:
    """Deform the canonical template by explicit shape parameters."""
    shape_params = np.asarray(shape_params, dtype=np.float64)
    if shape_params.shape != (NUM_SHAPE_PARAMS,):
        raise ParameterError(
            f"expected {NUM_SHAPE_PARAMS} shape parameters, got {shape_params.shape}")
    if not (np.isfinite(shape_params).all() and np.isfinite(wrinkle_amplitude)):
        raise ParameterError(
            f"shape parameters and wrinkle amplitude must be finite, got "
            f"{shape_params.tolist()} and {wrinkle_amplitude}")
    base, faces, u, v = _template_arrays()
    basis, _ = _au_basis_and_masks()
    vertices = _apply_shape(base, u, v, shape_params)
    return FaceMesh(vertices=vertices, faces=faces.copy(),
                    shape_params=shape_params.copy(), au_basis=basis,
                    wrinkle_amplitude=float(wrinkle_amplitude))


def make_identity_mesh(profile: DemographicProfile) -> FaceMesh:
    """Deterministic identity geometry drawn from the profile's seed.

    Age modulates the wrinkle amplitude used later by the shading stage.
    """
    rng = keyed_rng(profile.identity_seed, STREAM_SHAPE)
    shape_params = rng.normal(0.0, 1.0, size=NUM_SHAPE_PARAMS)
    base_wrinkle = 1.0 if profile.age_group == "Elderly" else 0.25
    wrinkle = base_wrinkle * (1.0 + 0.15 * rng.uniform(-1.0, 1.0))
    return mesh_from_shape_params(shape_params, wrinkle_amplitude=wrinkle)


def apply_au_rig(mesh: FaceMesh, au: AUVector) -> FaceMesh:
    """Add the intensity-weighted blendshape displacements; linear in each AU."""
    weights = au.as_array() / AU_MAX
    displacement = np.tensordot(weights, mesh.au_basis, axes=(0, 0))
    return FaceMesh(vertices=mesh.vertices + displacement,
                    faces=mesh.faces,
                    shape_params=mesh.shape_params,
                    au_basis=mesh.au_basis,
                    wrinkle_amplitude=mesh.wrinkle_amplitude)
