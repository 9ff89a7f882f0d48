"""Procedural face synthesis: meshes, rigs, rendering, identities, datasets."""

from .au import (AU_MAX, AU_NAMES, NUM_PSPI_CLASSES, PSPI_MAX, PSPI_MIN,
                 AUVector, pspi_score, sample_au_config)
from .demographics import (AGE_GROUPS, ETHNICITIES, GENDERS, DemographicProfile,
                           reference_config, sample_demographics, scale_config)
from .mesh import (FaceMesh, apply_au_rig, au_region_masks, make_identity_mesh,
                   max_total_displacement, mesh_from_shape_params, template_uv)
from .render import (render_depth, render_heatmap, render_rgb, rotate_yaw,
                     skin_albedo, splat_vertex_values, vertex_normals)

__all__ = [
    "AU_MAX", "AU_NAMES", "NUM_PSPI_CLASSES", "PSPI_MAX", "PSPI_MIN",
    "AUVector", "pspi_score", "sample_au_config",
    "AGE_GROUPS", "ETHNICITIES", "GENDERS", "DemographicProfile",
    "reference_config", "sample_demographics", "scale_config",
    "FaceMesh", "apply_au_rig", "au_region_masks", "make_identity_mesh",
    "max_total_displacement", "mesh_from_shape_params", "template_uv",
    "render_depth", "render_heatmap", "render_rgb",
    "rotate_yaw", "skin_albedo", "splat_vertex_values", "vertex_normals",
]
