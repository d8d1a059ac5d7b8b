"""numpy imported on first use: a fidelity request loads none of it, the rest loads it as before.

A fidelity request loads neither dataclasses nor inspect either: the
result records are NamedTuples.

The package binds ``np`` to numpy itself when numpy is imported already,
as it is in this test process, and otherwise to ``qubit._Numpy``, whose
first attribute access runs a plain ``import numpy``; the package puts
nothing into sys.modules, so a process that only imports it, or only
answers a fidelity request, has no numpy there at all.  Each check that
needs a process without numpy runs one.  The module constants that no
longer come from numpy at import time keep their values and bits.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import buresgeo as bg
from buresgeo import cli, qubit

SRC = str(Path(bg.__file__).resolve().parents[1])

# Run as ``python -m buresgeo.cli ARGS`` runs, with a hook that writes
# numpy and its submodules, if loaded by exit, to stderr, as JSON, after
# the CLI's own output, with dataclasses and inspect if the run loaded
# them (site may have loaded them before, which does not count).
NUMPY_AT_EXIT = """
import sys
records = {"dataclasses", "inspect"} - set(sys.modules)
import atexit, json, runpy
atexit.register(lambda: print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "numpy" or m in records)), file=sys.stderr))
sys.argv = ["buresgeo"] + sys.argv[1:]
runpy.run_module("buresgeo.cli", run_name="__main__", alter_sys=True)
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def _numpy_at_exit(*argv: str):
    proc = _python("-c", NUMPY_AT_EXIT, *argv)
    *diagnostics, loaded = proc.stderr.splitlines()
    return proc, json.loads(loaded), diagnostics


def _in_process(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["fidelity", "--u=0.5,0,0", "--v=0,0.5,0"],
        # The pull-back past the sphere, and the pure flags, run on floats too.
        ["fidelity", "--u=1.000000000001,0,0", "--v=1.000000000001,0,0"],
        ["fidelity", "--u", "-0.6,0.8,0", "--v", "0,0,1"],
    ],
)
def test_fidelity_loads_no_numpy(argv):
    proc, loaded, diagnostics = _numpy_at_exit(*argv)
    assert proc.returncode == 0 and not diagnostics, proc.stderr
    assert loaded == []
    assert proc.stdout == _in_process(argv)


def test_fidelity_usage_errors_load_no_numpy():
    for argv in (["fidelity", "--u=2,0,0", "--v=0,0,0"], ["fidelity", "--u=nan,0,0", "--v=0,0,0"]):
        proc, loaded, diagnostics = _numpy_at_exit(*argv)
        assert proc.returncode == 2 and diagnostics[0].startswith("error: --u: Bloch vector"), proc.stderr
        assert loaded == []


def test_triangle_and_verify_load_numpy_when_they_run():
    for argv in (["triangle", "--u=0.5,0,0", "--v=0,0.5,0"], ["verify", "--trials", "10"]):
        proc, loaded, _ = _numpy_at_exit(*argv)
        assert proc.returncode == 0, proc.stderr
        assert loaded


def test_import_binds_numpy_itself_when_it_is_loaded():
    # This process imported numpy before the package.
    for module in (bg.qubit, bg.measures, bg.hyperbolic, bg.verify):
        assert module.np is np
    assert sys.modules["numpy"] is np
    assert "np" not in vars(cli)  # the CLI uses numpy nowhere; triangle's kernels hold it


# Standard-library code that walks sys.modules touches every module in it:
# assertWarns clears each module's __warningregistry__, and getmodule
# reads each module's __file__.  After ``import buresgeo`` neither may load
# numpy, which the package has not put there.
WALKERS = {
    "assertWarns": """
import unittest, warnings
class Case(unittest.TestCase):
    def runTest(self):
        with self.assertWarns(UserWarning):
            warnings.warn("walk")
Case().runTest()
""",
    "getmodule": """
import inspect
inspect.getmodule(compile("1", "<walk>", "eval"))
""",
}


@pytest.mark.parametrize("walker", sorted(WALKERS))
def test_modules_walkers_load_no_numpy(walker):
    listing = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    proc = _python("-c", "import sys, buresgeo" + WALKERS[walker] + listing)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Four threads make their first numpy-touching call at once, in a process
# that has not loaded numpy: each must see numpy whole, and get the
# single-thread results.
FIRST_USE_THREADS = """
import json, sys, threading
import buresgeo as bg
assert "numpy" not in sys.modules and type(bg.qubit.np) is bg.qubit._Numpy
RHO1 = [[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]]
RHO2 = [[0.4, -0.1j], [0.1j, 0.6]]
barrier = threading.Barrier(4)
results = [None] * 4

def run(t):
    calls = {
        "sampler": lambda: bg.random_bloch_indexed(7, "uniform_ball", list(range(8))).tolist(),
        "fidelity": lambda: float(bg.bures_fidelity_matrix(RHO1, RHO2)),
    }
    order = sorted(calls, reverse=t % 2 == 1)
    barrier.wait()
    try:
        results[t] = {name: calls[name]() for name in order}
    except Exception as exc:
        results[t] = repr(exc)

threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(json.dumps(results))
"""


def test_first_use_from_four_threads_at_once():
    expected = {
        "sampler": bg.random_bloch_indexed(7, "uniform_ball", list(range(8))).tolist(),
        "fidelity": float(bg.bures_fidelity_matrix([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]], [[0.4, -0.1j], [0.1j, 0.6]])),
    }
    for _ in range(3):  # each run is one race
        proc = _python("-c", FIRST_USE_THREADS)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [expected] * 4


# ---------------------------------------------------------------------------
# Constants that no longer come from numpy at import time.
# ---------------------------------------------------------------------------


def test_log_gaps_equal_numpys():
    assert qubit._LOG_GAP_LO == np.log(qubit._NEAR_PURE_GAP_LO)
    assert qubit._LOG_GAP_HI == np.log(qubit.NEAR_PURE_BAND)


def test_splitmix_words_are_the_reference_sequence():
    # Key 0 at counters 1, 2, 3 is splitmix64 seeded with 0: its first three outputs.
    words = qubit._splitmix(np.uint64(0), np.arange(1, 4, dtype=np.uint64))
    assert words.dtype == np.uint64
    assert words.tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert qubit._stream_keys(2024, (0, 1)).ravel().tolist() == [0x9073042E1EFA35A0, 0x4E9155BE1A6F175E]
    assert qubit._word_counters() is qubit._word_counters()
    assert qubit._word_counters().dtype == np.uint64


# random_bloch_indexed(2024, regime, [0, 1, 2**62 - 1], stream=1), as the
# sampler gave it with its constants taken from numpy at import time.  tan,
# cbrt and exp may differ in the last bits between CPUs, so the golden
# holds to a few ulps.
SAMPLER_GOLDEN = {
    "uniform_ball": [
        [-0.412302098138077, -0.3045174737239019, 0.38719870284472196],
        [-0.5839092982416552, 0.1756235138513036, -0.3935128294301103],
        [-0.4870363617870253, -0.11366949234065717, -0.18425051887350238],
    ],
    "near_pure": [
        [-0.6418393137141118, -0.47404873084940996, 0.6027603323561631],
        [-0.8046108723806025, 0.24200434744911803, -0.542249801354735],
        [-0.9137893230959953, -0.21326943245370153, -0.3456952501528581],
    ],
    "near_mixed": [
        [-0.00017013511974983401, -0.0001256581450637743, 0.00015977628533291076],
        [-0.0003075135162027936, 9.249142706741648e-05, -0.0002072419709933824],
        [-0.0001383540873421561, -3.229048199550012e-05, -5.234067593542301e-05],
    ],
    "pure": [
        [-0.6418393387102083, -0.4740487493109899, 0.602760355830349],
        [-0.8046110304035703, 0.2420043949779876, -0.5422499078508387],
        [-0.9137893304969541, -0.21326943418101246, -0.34569525295271175],
    ],
}


@pytest.mark.parametrize("regime", bg.REGIMES)
def test_sampler_golden(regime):
    got = bg.random_bloch_indexed(2024, regime, [0, 1, 2**62 - 1], stream=1)
    np.testing.assert_allclose(got, SAMPLER_GOLDEN[regime], rtol=1e-15, atol=0.0)


def test_rapidity_of_the_zero_vector():
    rep = bg.rapidity_from_bloch([0, 0, 0])
    assert type(rep.direction) is np.ndarray and rep.direction.dtype == np.float64
    assert rep.direction.tolist() == [0.0, 0.0, 1.0]
    assert type(rep.phi) is np.float64 and rep.phi == 0.0
    batch = bg.rapidity_from_bloch([[0, 0, 0], [0, 0, 0.5]])
    assert batch.direction.tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]


def test_pauli_matrices_are_built_once():
    assert bg.PAULI is bg.PAULI and bg.PAULI is qubit.PAULI
    for name, entries in (
        ("SIGMA_X", [[0, 1], [1, 0]]),
        ("SIGMA_Y", [[0, -1j], [1j, 0]]),
        ("SIGMA_Z", [[1, 0], [0, -1]]),
    ):
        matrix = getattr(bg, name)
        assert matrix is getattr(qubit, name)
        assert matrix.dtype == complex and matrix.tolist() == entries
    assert bg.SIGMA_X is bg.qubit.SIGMA_X
    np.testing.assert_array_equal(bg.PAULI, np.stack([bg.SIGMA_X, bg.SIGMA_Y, bg.SIGMA_Z]))
    with pytest.raises(AttributeError):
        qubit.SIGMA_W  # noqa: B018
    with pytest.raises(AttributeError):
        bg.SIGMA_W  # noqa: B018


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from buresgeo import *", namespace)
    for name in bg.__all__:
        assert namespace[name] is getattr(bg, name), name
    assert set(bg.__all__) <= set(dir(bg))
    assert set(qubit.__all__) <= set(dir(qubit))


def test_package_import_builds_no_pauli_matrix():
    proc = _python(
        "-c",
        "import sys, buresgeo, buresgeo.qubit as q; "
        "print(sorted(n for n in q._PAULI_NAMES if n in vars(q)), type(q.np).__name__)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "_Numpy"]
