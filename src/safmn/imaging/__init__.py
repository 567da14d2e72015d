"""Image pipeline: PNG I/O, bicubic degradation, metrics, patch sampling."""

from .png import ImageBuffer, decode_png, encode_png
from .resize import bicubic_resize
from .metrics import psnr_y, rgb_to_y, ssim_y
from .sampler import PatchSampler, dihedral_transform

__all__ = [
    "ImageBuffer",
    "PatchSampler",
    "bicubic_resize",
    "decode_png",
    "dihedral_transform",
    "encode_png",
    "psnr_y",
    "rgb_to_y",
    "ssim_y",
]
