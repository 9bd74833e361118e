"""Run configuration: one JSON document covering every pipeline stage.

Desk-scale defaults throughout; paper-scale settings (larger grids, patch 128,
window 9, more epochs) are reachable purely through the config file. The JSON
mirrors the dataclasses field for field (see jsonable). A file may name any
subset of keys at any depth: each section it names is overlaid onto
RunConfig()'s own default for that section, so a partial "train" block keeps
the desk ncc_window. An unknown key, a wrong type, a non-finite number or a
value a __post_init__ rejects raises VolumeError, which the CLI reports as exit
code 2. The CLI writes its flags (cli.FLAGS) into the document before the one
decode, so the checks, the marker bounds among them, see the resolved settings.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .baseline import DvcConfig
from .jsonable import from_json, write_json
from .model import ModelConfig
from .preprocess import MIN_GRID, CleanSpec
from .tpms import DeformSpec, DegradeSpec, TpmsSpec, check_markers
from .training import TrainConfig
from .volume import VolumeError

PAPER_C_SWEEP = (0.0, -0.1, -0.2, -0.3, -0.4, -0.5, -0.6)


@dataclass(frozen=True)
class RunConfig:
    workspace: str = "workspace"
    manifest: str | None = None         # default: <workspace>/dataset/manifest.json
    checkpoint: str | None = None       # default: <workspace>/checkpoint.vmck
    c_values: tuple[float, ...] = PAPER_C_SWEEP
    tpms: TpmsSpec = field(default_factory=lambda: TpmsSpec(part_extent=5.12, voxel_size=80.0))
    deform: DeformSpec = field(default_factory=DeformSpec)
    degrade: DegradeSpec = field(default_factory=DegradeSpec)
    clean: CleanSpec = field(default_factory=CleanSpec)
    model: ModelConfig = field(default_factory=lambda: ModelConfig(patch_size=32))
    train: TrainConfig = field(default_factory=lambda: TrainConfig(ncc_window=5))
    dvc: DvcConfig = field(default_factory=DvcConfig)
    target_dims: tuple[int, int, int] | None = None  # default: generator grid
    plate_voxels: int = 0
    marker_spheres: tuple[tuple[float, float, float, float], ...] = ()  # ((x, y, z, radius), ...) in voxels
    seed: int = 0  # the run's one seed: generate's phantoms, train's weights and patches

    def __post_init__(self):
        object.__setattr__(self, "c_values", tuple(float(c) for c in self.c_values))
        if not self.c_values:
            raise VolumeError("c_values must name at least one c value")
        for c in self.c_values:
            if not (-1.0 <= c <= 1.0):
                raise VolumeError(f"c value {c} outside [-1, 1]")
        if self.seed < 0:  # numpy's default_rng rejects it, after raw/ or nothing was made
            raise VolumeError(f"seed must be >= 0, got {self.seed}")
        if self.target_dims is not None and min(self.target_dims) < MIN_GRID:
            raise VolumeError(f"target_dims must have at least {MIN_GRID} voxels per axis, got {self.target_dims}")
        check_markers(self.tpms.grid_dims(), self.plate_voxels, self.marker_spheres)

    def manifest_path(self) -> Path:
        return Path(self.manifest) if self.manifest else Path(self.workspace) / "dataset" / "manifest.json"

    def checkpoint_path(self) -> Path:
        return Path(self.checkpoint) if self.checkpoint else Path(self.workspace) / "checkpoint.vmck"

    @classmethod
    def from_json(cls, d: dict) -> "RunConfig":
        """Overlay `d` onto RunConfig(): a key the document leaves out, at any
        depth, keeps the default, and an unknown key is a VolumeError."""
        return from_json(cls, d, base=cls())

    def save(self, path) -> None:
        write_json(path, self)

