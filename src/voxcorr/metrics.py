"""Registration quality metrics: Dice overlap, the binary difference map's
(BDM) shares of each value, and endpoint error against synthetic ground
truth, on masks that the caller binarizes once per volume and shares with the
figure exports. Dice and BDM come from three counts, |scan|, |nominal| and
|scan ∧ nominal|; no map is made (figures draws the BDM slices from the
masks)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import BinaryVolume, DisplacementField, VolumeError, blocks


def bdm(xct_bin: BinaryVolume, cad_bin: BinaryVolume) -> tuple[dict, float]:
    """(shares, dice) of the difference scan - nominal on the foreground union.

    The difference is -1 where material is missing in the scan, 0 where the
    masks match and +1 for excess material. shares: the percentage of the
    union voxel count taken by each value, keyed "minus1", "zero" and
    "plus1". dice: the Dice overlap of the two masks in percent.
    """
    scan, nominal = xct_bin.mask, cad_bin.mask
    if scan.shape != nominal.shape:
        raise VolumeError(f"dims mismatch: {xct_bin.dims} vs {cad_bin.dims}")
    n_scan, n_nominal = np.count_nonzero(scan), np.count_nonzero(nominal)
    overlap = np.count_nonzero(scan & nominal)
    n_union = n_scan + n_nominal - overlap
    if n_union == 0:
        raise VolumeError("empty union: nothing to compare")
    shares = {
        "minus1": 100.0 * (n_nominal - overlap) / n_union,
        "zero": 100.0 * overlap / n_union,
        "plus1": 100.0 * (n_scan - overlap) / n_union,
    }
    return shares, 100.0 * 2.0 * overlap / (n_scan + n_nominal)


def squared_norm(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Per-voxel squared length of a - b (of a without b) over the channel axis
    0, in float64. The channels are added one at a time in channel order, as
    the sum over axis 0 of the float64 squares adds them, with one channel's
    temporaries live instead of all three."""
    out = np.zeros(a.shape[1:])
    d = np.empty_like(out)
    for c in range(a.shape[0]):
        d[...] = a[c]
        if b is not None:
            d -= b[c]
        d *= d
        out += d
    return out


def endpoint_error(
    pred: DisplacementField, gt: DisplacementField, mask: BinaryVolume
) -> tuple[float, float]:
    """Mean and max Euclidean error between fields over the mask (voxels).

    The masked errors are gathered block by block (volume.blocks) in C
    order, so the mean sums the same array as over the whole grid, with only
    one block's squared norm made at a time."""
    if pred.dims != gt.dims or pred.dims != mask.dims:
        raise VolumeError("field/mask dims mismatch")
    if not mask.mask.any():
        raise VolumeError("empty evaluation mask")
    epe = np.empty(np.count_nonzero(mask.mask))
    at = 0
    for b in blocks(mask.mask.shape):
        part = squared_norm(pred.data[:, *b], gt.data[:, *b])[mask.mask[b]]
        epe[at:at + part.size] = part
        at += part.size
    np.sqrt(epe, out=epe)
    return float(epe.mean()), float(epe.max())


@dataclass
class EvalReport:
    sample_id: str
    method: str
    dice_before_pct: float
    dice_after_pct: float
    bdm_before: dict
    bdm_after: dict
    mean_epe_vox: float | None
    max_epe_vox: float | None
    runtime_sec: float


def evaluate_pair(
    cad_bin: BinaryVolume,
    xct_bin: BinaryVolume,
    moved_bin: BinaryVolume,
    disp: DisplacementField,
    gt_disp: DisplacementField | None = None,
    sample_id: str = "",
    method: str = "learned",
    runtime_sec: float = 0.0,
) -> EvalReport:
    """Before/after report of one registration from the nominal, scan and
    moved-scan masks.

    Endpoint error uses the nominal foreground as evaluation mask and is
    reported only when ground truth is available.
    """
    if not (cad_bin.dims == xct_bin.dims == moved_bin.dims == disp.dims):
        raise VolumeError("evaluate_pair requires consistent dims")
    mean_epe = max_epe = None
    if gt_disp is not None:
        mean_epe, max_epe = endpoint_error(disp, gt_disp, cad_bin)
    bdm_before, dice_before = bdm(xct_bin, cad_bin)
    bdm_after, dice_after = bdm(moved_bin, cad_bin)
    return EvalReport(
        sample_id=sample_id,
        method=method,
        dice_before_pct=dice_before,
        dice_after_pct=dice_after,
        bdm_before=bdm_before,
        bdm_after=bdm_after,
        mean_epe_vox=mean_epe,
        max_epe_vox=max_epe,
        runtime_sec=runtime_sec,
    )
