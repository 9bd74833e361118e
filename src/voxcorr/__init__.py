"""Digital volume correlation toolkit: phantom synthesis, preprocessing,
learned 3D registration, a node-based DVC baseline, and evaluation."""

from .volume import (
    BinaryVolume,
    DisplacementField,
    ScalarVolume,
    VolumeError,
    crop_or_pad,
    downsample2,
    invert_field,
    minmax_normalize,
    warp,
)

__all__ = [
    "BinaryVolume",
    "DisplacementField",
    "ScalarVolume",
    "VolumeError",
    "crop_or_pad",
    "downsample2",
    "invert_field",
    "minmax_normalize",
    "warp",
]

__version__ = "0.1.0"
