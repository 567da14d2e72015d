"""``scipy.special`` loads only when float64 GELU runs, and the precision
mode is read only where parameters are built.

Importing scipy costs about 0.3 s, so no module-level import may bring it
back, and every path that never reaches that kernel must run without scipy.
A model's parameters set the dtype it computes in; only ``tensor.py`` and
``model.py`` may ask the global mode for one.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import safmn
from chart import make_chart
from safmn.imaging.png import ImageBuffer, encode_png

SRC = Path(safmn.__file__).resolve().parent
BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None\n"
RUN_CLI = "import sys; from safmn.cli import main; sys.exit(main(sys.argv[1:]))\n"


def _python(code, *args, cwd=None):
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )


def test_scipy_special_loads_only_with_float64_gelu():
    code = """
import sys
import numpy as np
import safmn
from safmn import ops, tensor
from safmn.loss import composite_loss
from safmn.model import VARIANTS, ModelConfig, init_model

loaded = lambda: 'scipy.special' in sys.modules
print(loaded())
tensor.set_mode('fast')
model = init_model(ModelConfig(scale=2), seed=0)
rng = np.random.default_rng(0)
lr = tensor.Tensor(rng.random((1, 3, 16, 16)).astype(np.float32))
hr = rng.random((1, 3, 32, 32)).astype(np.float32)
composite_loss(model(lr), hr).backward()
print(loaded())
for name in ('attn-sigmoid', 'ccm-se'):
    init_model(ModelConfig(scale=2, variant=VARIANTS[name]), seed=0)(lr)
tensor.set_mode('test')
ops.sigmoid(tensor.Tensor(rng.standard_normal((1, 2, 3, 3))))
print(loaded())
model = init_model(ModelConfig(scale=2), seed=0)
with tensor.no_grad():
    model(tensor.Tensor(rng.random((1, 3, 16, 16))))
print(loaded())
"""
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False", "True"]


@pytest.fixture()
def workspace(tmp_path):
    for name, seed in (("a", 1), ("b", 2)):
        for sub in ("hr", "sr"):
            (tmp_path / sub).mkdir(exist_ok=True)
            encode_png(ImageBuffer.from_planes(make_chart(64, seed + (sub == "sr"))),
                       tmp_path / sub / f"{name}.png")
    return tmp_path


COMMANDS = {
    "profile": ["profile", "--scale", "2", "--format", "csv"],
    "degrade": ["degrade", "--scale", "2", "--hr-dir", "hr", "--out-dir", "lr"],
    "eval": ["eval", "--sr-dir", "sr", "--hr-dir", "hr"],
    "train-fast": ["train", "--hr-dir", "hr", "--out", "m.ckpt", "--iters", "2", "--scale", "2",
                   "--batch-size", "2", "--patch-size", "16", "--seed", "3", "--log-every", "1",
                   "--mode", "fast"],
}


def _outputs(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.parts[len(root.parts)] not in ("hr", "sr")}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_runs_with_scipy_blocked(workspace, tmp_path, command):
    runs = []
    for tag, prefix in (("plain", ""), ("blocked", BLOCK_SCIPY)):
        root = tmp_path / tag
        root.mkdir()
        for sub in ("hr", "sr"):
            (root / sub).symlink_to(workspace / sub)
        proc = _python(prefix + RUN_CLI, *COMMANDS[command], cwd=root)
        assert proc.returncode == 0, f"{tag}: {proc.stderr}"
        runs.append((proc.stdout, _outputs(root)))
    assert runs[1][0] == runs[0][0]
    assert runs[1][1] == runs[0][1]
    if command in ("degrade", "train-fast"):
        assert runs[0][1], "the command wrote no files"


def _module_level_scipy_imports(tree):
    """(line, statement) of every scipy import that runs when the module loads."""
    found = []

    def visit(node, in_function):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not in_function:
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                names = [node.module or ""] if node.level == 0 else []
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                found.append((node.lineno, ast.unparse(node)))
        inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, False)
    return found


def test_no_module_level_scipy_import():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.relative_to(SRC)}:{line}: {stmt}"
                      for line, stmt in _module_level_scipy_imports(tree)]
    assert not offenders, "scipy imported at module level:\n" + "\n".join(offenders)


@pytest.mark.parametrize("source, flagged", [
    ("import scipy.special", True),
    ("from scipy.special import erf", True),
    ("try:\n    from scipy import special\nexcept ImportError:\n    pass", True),
    ("class A:\n    import scipy", True),
    ("def f():\n    from scipy.special import expit", False),
    ("class A:\n    def f(self):\n        import scipy.special", False),
    ("import scipyx\nfrom . import scipy\nfrom .scipy import erf", False),
])
def test_import_guard_flags_module_level_imports_only(source, flagged):
    assert bool(_module_level_scipy_imports(ast.parse(source))) == flagged


MODE_READERS = {"default_dtype", "get_mode"}
MODE_OWNERS = {"tensor.py", "model.py"}


def _mode_reads(tree):
    """(line, call) of every call to ``default_dtype()`` or ``get_mode()``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name in MODE_READERS:
                found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_precision_mode_read_only_where_parameters_are_built():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).as_posix() in MODE_OWNERS:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.relative_to(SRC)}:{line}: {call}" for line, call in _mode_reads(tree)]
    assert not offenders, "precision mode read outside tensor.py and model.py:\n" + "\n".join(offenders)


@pytest.mark.parametrize("source, flagged", [
    ("default_dtype()", True),
    ("x.astype(tensor.default_dtype())", True),
    ("def f():\n    return get_mode() == 'fast'", True),
    ("from .tensor import default_dtype, get_mode", False),
    ("dtype = default_dtype", False),
    ("x.dtype", False),
])
def test_mode_guard_flags_calls_only(source, flagged):
    assert bool(_mode_reads(ast.parse(source))) == flagged
