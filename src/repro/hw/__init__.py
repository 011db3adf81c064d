"""Neuromorphic-hardware deployment models (extends paper Section VI-B)."""

from .mapping import (
    CoreSpec,
    DeploymentReport,
    EnergyCoefficients,
    LayerMapping,
    map_network,
)
from .quantization import (
    precision_sweep,
    quantize_array,
    quantize_weights,
)

__all__ = [
    "CoreSpec",
    "DeploymentReport",
    "EnergyCoefficients",
    "LayerMapping",
    "map_network",
    "precision_sweep",
    "quantize_array",
    "quantize_weights",
]
