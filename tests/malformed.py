"""Checkpoint files with one defect each, and the byte offset a reader must report."""
import json
import struct

from safmn.checkpoint import save_checkpoint
from safmn.model import ModelConfig, init_model
from safmn.optim import Adam

CONFIG_START = 10  # magic (4) + version (2) + config length (4)
DEFECTS = ("config-list", "variant-string", "drop-scales-int", "name-not-utf8", "moment-one-short")


def write_malformed_checkpoint(path, defect: str) -> int:
    """Write a small x2 checkpoint with Adam state and ``defect``; return its offset."""
    model = init_model(ModelConfig(num_blocks=1, channels=8, scale=2), seed=0)
    opt = Adam(list(model.named_parameters()))
    m, v = opt.moments["upsampler.bias"]
    if defect == "moment-one-short":
        opt.moments["upsampler.bias"] = (m[:-1], v)
    save_checkpoint(model, path, optimizer=opt)
    blob = path.read_bytes()
    (cfg_len,) = struct.unpack_from("<I", blob, CONFIG_START - 4)
    if defect == "moment-one-short":
        # the short first moment is followed by the full second moment
        return len(blob) - (8 + 8 * v.size)
    if defect == "name-not-utf8":
        # iteration, seed (8 + 8), parameter count (4), first name length (2)
        name_start = CONFIG_START + cfg_len + 22
        path.write_bytes(blob[:name_start] + b"\xff" + blob[name_start + 1 :])
        return name_start
    cfg = json.loads(blob[CONFIG_START : CONFIG_START + cfg_len])
    if defect == "config-list":
        cfg = []
    elif defect == "variant-string":
        cfg["variant"] = "baseline"
    elif defect == "drop-scales-int":
        cfg["variant"]["drop_scales"] = 5
    else:
        raise ValueError(f"unknown defect {defect!r}")
    new = json.dumps(cfg).encode()
    head = blob[: CONFIG_START - 4] + struct.pack("<I", len(new)) + new
    path.write_bytes(head + blob[CONFIG_START + cfg_len :])
    return CONFIG_START
