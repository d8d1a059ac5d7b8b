"""Faults the verifier must catch, each applied to a copy of the package.

Each entry is one exact line of a source file, the line that replaces
it, and its catchers: the regime pairs on which ``buresgeo verify
--trials 2000`` must exit 1 (all 16, the 9 with no pure side, or at least
one), and whether ``buresgeo fidelity --u=0.5,0,0 --v=0,0.5,0`` must
exit 1 too.  The harness copies ``src/buresgeo`` into a temporary
directory, applies the one fault there, and runs every command through
``cli.main`` in one child process that imports the copy.  An exit 2 or
a traceback fails the entry: a fault inside a route is a verification
failure, never a usage error.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from buresgeo import REGIMES

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "buresgeo"
PAIRS = [f"{u} x {v}" for u in REGIMES for v in REGIMES]
NO_PURE_SIDE = [f"{u} x {v}" for u in REGIMES for v in REGIMES if "pure" not in (u, v)]
FIDELITY = ["fidelity", "--u=0.5,0,0", "--v=0,0.5,0"]

# (name, file, old line, new line, pairs verify must fail, whether fidelity must fail);
# pairs None means at least one.
FAULTS = [
    (
        "matrix route NaN",
        "measures.py",
        '    return _clamp_unit(_mul(t, t, f), "matrix-route fidelity", f)',
        '    return _clamp_unit(_mul(t, t, f), "matrix-route fidelity", f) * float("nan")',
        PAIRS,
        True,
    ),
    (
        "closed route NaN",
        "measures.py",
        '    return _clamp_unit(fid, "closed-route fidelity", out)',
        '    return _clamp_unit(fid, "closed-route fidelity", out) * float("nan")',
        PAIRS,
        True,
    ),
    (
        # The route is masked wherever either side is pure.
        "hyperbolic route NaN",
        "hyperbolic.py",
        '    return _clamp_unit(fid, "hyperbolic fidelity", out)',
        '    return _clamp_unit(fid, "hyperbolic fidelity", out) * float("nan")',
        NO_PURE_SIDE,
        True,
    ),
    (
        "_one_minus_square x 1.001",
        "qubit.py",
        "    value = _mul(_sub(1.0, r, gap), _add(1.0, r, tmp), gap)",
        "    value = _mul(_mul(_sub(1.0, r, gap), _add(1.0, r, tmp), gap), 1.001, gap)",
        None,
        False,
    ),
    (
        "_dot3 x 1.001",
        "qubit.py",
        "    dot = _add(dot, _mul(uz, vz, tmp), out)",
        "    dot = _mul(_add(dot, _mul(uz, vz, tmp), out), 1.001, out)",
        None,
        False,
    ),
]

# Runs in the child: every regime pair's verify and the one fidelity
# request through cli.main, each command's output swallowed; prints the
# exit codes as JSON.
CHILD = """
import contextlib, io, json, os, sys
import buresgeo
from buresgeo import REGIMES, cli
assert os.path.dirname(os.path.abspath(buresgeo.__file__)).startswith(sys.argv[1]), buresgeo.__file__

def code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)

verify = {
    f"{u} x {v}": code(["verify", "--trials", "2000", "--regime-u", u, "--regime-v", v])
    for u in REGIMES
    for v in REGIMES
}
print(json.dumps({"verify": verify, "fidelity": code(sys.argv[2:])}))
"""


def _exit_codes(root: Path) -> dict:
    """The exit codes of the commands in CHILD, run on the package copy under root."""
    env = {**os.environ, "PYTHONPATH": str(root)}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(root), *FIDELITY],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    codes = json.loads(proc.stdout)
    assert 2 not in [*codes["verify"].values(), codes["fidelity"]], codes
    return codes


def _copy(tmp_path: Path) -> Path:
    shutil.copytree(PACKAGE, tmp_path / "buresgeo", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_the_unfaulted_copy_passes(tmp_path):
    codes = _exit_codes(_copy(tmp_path))
    assert codes == {"verify": dict.fromkeys(PAIRS, 0), "fidelity": 0}


@pytest.mark.parametrize(
    "file, old, new, pairs, fidelity_fails", [entry[1:] for entry in FAULTS], ids=[entry[0] for entry in FAULTS]
)
def test_the_fault_is_caught(tmp_path, file, old, new, pairs, fidelity_fails):
    root = _copy(tmp_path)
    source = root / "buresgeo" / file
    text = source.read_text()
    assert text.count(old + "\n") == 1, f"{old!r} must occur once in {file}"
    source.write_text(text.replace(old + "\n", new + "\n"))
    codes = _exit_codes(root)
    failed = [pair for pair, code in codes["verify"].items() if code == 1]
    if pairs is None:
        assert failed, codes
    else:
        assert set(pairs) <= set(failed), codes
    if fidelity_fails:
        assert codes["fidelity"] == 1, codes
