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

Some faults no route comparison can see; their catcher is a named test
instead, which the harness runs with pytest on the faulted copy and
which must fail there.  Each such entry says why verify cannot see it.
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
    (
        # On near-mixed pairs, norms below 1e-3, the routes move apart by less than 1e-10.
        "_norm3 x 1.0001",
        "qubit.py",
        "    return _sqrt(total, out)",
        "    return _mul(_sqrt(total, out), 1.0001, out)",
        [pair for pair in PAIRS if pair != "near_mixed x near_mixed"],
        True,
    ),
    (
        # gamma enters the hyperbolic route only, which pure sides mask out.
        "_gamma x 1.001",
        "qubit.py",
        "    return _div(1.0, _sqrt(gap, row), row)",
        "    return _mul(_div(1.0, _sqrt(gap, row), row), 1.001, row)",
        NO_PURE_SIDE,
        True,
    ),
    (
        "_law_of_cosines g_w x 1.001",
        "qubit.py",
        "    value = _mul(_mul(gu, gv, gw), _add(1.0, dot, tmp), gw)",
        "    value = _mul(_mul(_mul(gu, gv, gw), _add(1.0, dot, tmp), gw), 1.001, gw)",
        NO_PURE_SIDE,
        True,
    ),
    (
        "_sqrt_entries alpha 0.5 -> 0.5005",
        "qubit.py",
        "    alpha = _mul(0.5, _add(plus, minus, alpha_row), alpha_row)",
        "    alpha = _mul(0.5005, _add(plus, minus, alpha_row), alpha_row)",
        PAIRS,
        True,
    ),
    (
        "_sandwich e00 x 1.001",
        "measures.py",
        "    e00 = _add(e00, _mul(q_sq, d, tmp), m00)",
        "    e00 = _mul(_add(e00, _mul(q_sq, d, tmp), m00), 1.001, m00)",
        PAIRS,
        True,
    ),
    (
        "_eig2 half gap x 1.001",
        "qubit.py",
        "    half_gap = _sqrt(_add(square, _mul(b_im, b_im, tmp), gap), gap)",
        "    half_gap = _mul(_sqrt(_add(square, _mul(b_im, b_im, tmp), gap), gap), 1.001, gap)",
        PAIRS,
        True,
    ),
    (
        # The hyperbolic route takes no snap, and only near-pure draws lie
        # above the moved one: the pairs with a near-pure side and no pure one.
        "_EXACT_PURE_NORM = 1 - 1e-6",
        "measures.py",
        "_EXACT_PURE_NORM = 1.0 - _SPHERE_BAND",
        "_EXACT_PURE_NORM = 1.0 - 1e-6",
        [pair for pair in NO_PURE_SIDE if "near_pure" in pair],
        False,
    ),
    (
        "_matrix_fidelity L- recovery 16 -> 15",
        "measures.py",
        "    det_product = _div(_mul(gap1, gap2, f), 16.0, f)",
        "    det_product = _div(_mul(gap1, gap2, f), 15.0, f)",
        NO_PURE_SIDE,
        True,
    ),
    (
        "_hyperbolic_fidelity x 1.001",
        "hyperbolic.py",
        "    fid = _div(_add(1.0, gw, out), _mul(_mul(2.0, gu, den), gv, den), out)",
        "    fid = _mul(_div(_add(1.0, gw, out), _mul(_mul(2.0, gu, den), gv, den), out), 1.001, out)",
        NO_PURE_SIDE,
        True,
    ),
    (
        "_closed_fidelity x 1.001",
        "measures.py",
        "    fid = _add(half, _mul(0.5, root, row), out)",
        "    fid = _mul(_add(half, _mul(0.5, root, row), out), 1.001, out)",
        PAIRS,
        True,
    ),
    (
        # The closed and matrix routes take the gap, the hyperbolic route
        # does not; a pure side's gap is 0, and stays 0.
        "_ball_gap x 1.001",
        "measures.py",
        "    value = _where(pure, 0.0, gap, _own(ws, gap))",
        "    value = _mul(_where(pure, 0.0, gap, _own(ws, gap)), 1.001, _own(ws, gap))",
        NO_PURE_SIDE,
        True,
    ),
    (
        # The mask is then set only where both sides are pure, so the
        # hyperbolic route counts on pairs with one pure side.
        "_routes pure mask by the smaller norm",
        "verify.py",
        "    pure = _greater(_maximum(ru, rv, high), PURE_NORM, mask)",
        "    pure = _greater(_minimum(ru, rv, high), PURE_NORM, mask)",
        [pair for pair in PAIRS if pair.split(" x ").count("pure") == 1],
        False,
    ),
    (
        # v's gap is then kept where v is pure: its 1 - |v|^2, a few ulps
        # either side of 0, gives the closed route NaN or about 1e-8.
        "_routes snaps v by u's norm",
        "verify.py",
        "    snap = (_effectively_pure(ru, snap_u), _effectively_pure(rv, snap_v))",
        "    snap = (_effectively_pure(ru, snap_u), _effectively_pure(ru, snap_v))",
        [f"{u} x pure" for u in REGIMES if u != "pure"],
        False,
    ),
]

# (name, file, old line, new line, test that must fail): faults that
# verify exits 0 on, on all 16 regime pairs, for the reason each gives.
UNSEEN_FAULTS = [
    (
        # Flips the sign of y in both states alike, and the fidelity is
        # invariant under that reflection.
        "_density_entries sign of y",
        "qubit.py",
        "        _mul(-0.5, y, b_im),",
        "        _mul(0.5, y, b_im),",
        "test_qubit.py::TestDensityFromBloch::test_equals_the_pauli_expansion",
    ),
    (
        # Changes only which pairs are drawn; every route agrees on them.
        "_radius sqrt for cbrt",
        "qubit.py",
        "        np.cbrt(u, out=u)",
        "        np.sqrt(u, out=u)",
        "test_qubit.py::TestRandomBloch::test_uniform_ball_volume_law",
    ),
    (
        # Drops one bit of the mean only; no spread is compared against it.
        "_exact_sum drops a bit",
        "verify.py",
        "    np.copyto(weights, np.bitwise_and(m, 0x3FFFFFF, out=part))",
        "    np.copyto(weights, np.bitwise_and(m, 0x3FFFFFE, out=part))",
        "test_verify.py::test_exact_block_sum_equals_fsum",
    ),
    (
        # Changes the p99's rounding only, far below any tolerance.
        "_Reduction.p99 one-sided interpolation",
        "verify.py",
        "        p99 = b - gap * (1.0 - t) if t >= 0.5 else a + gap * t",
        "        p99 = a + gap * t",
        "test_verify.py::test_p99_equals_numpy_percentile",
    ),
    (
        # The closed and matrix routes share the snap and move alike, and
        # the hyperbolic route is masked wherever a side is pure.
        "_ball_gap snap 0 -> 1e-12",
        "measures.py",
        "    value = _where(pure, 0.0, gap, _own(ws, gap))",
        "    value = _where(pure, 1e-12, gap, _own(ws, gap))",
        "test_measures.py::TestBuresFidelityClosed::test_pure_pair_is_half_one_plus_cos",
    ),
    (
        # A tie rule changes only which trial is reported as the worst.
        "_Reduction.add tie to the larger index",
        "verify.py",
        "        self._take_best((index, value), (nan, 0.0 if nan else value, -index))",
        "        self._take_best((index, value), (nan, 0.0 if nan else value, index))",
        "test_verify.py::test_reduction_equals_one_array",
    ),
    (
        # A floor one place too high drops p99 candidates: it changes only the p99.
        "_Reduction.add floor one place too high",
        "verify.py",
        "            self.floor = float(self.buffer[size - self.k])",
        "            self.floor = float(self.buffer[size - self.k + 1])",
        "test_verify.py::test_reduction_equals_one_array",
    ),
    (
        # verify's 2000 trials fill one block, which needs no helper and no merge.
        "_Reduction.merge drops a stripe's sum",
        "verify.py",
        "        self.total += total",
        "        self.total += 0",
        "test_verify.py::TestThreadedSweep::test_mean_is_rounded_once[2]",
    ),
    (
        # Stopping early saves only time: every stripe still runs to its end.
        "_stripe never stops early",
        "verify.py",
        "            if lo > failed[0]:",
        "            if lo > trials:",
        "test_verify.py::TestThreadedSweep::test_worker_failure_propagates_and_stops_every_thread",
    ),
    (
        # Of several failing stripes, stripe 0's failure first: one stripe names the right trial.
        "_run_stripes raises stripe 0's failure",
        "verify.py",
        "        raise min(failures, key=lambda failure: failure[0])[1]",
        "        raise failures[0][1]",
        "test_verify.py::TestThreadedSweep::test_a_helper_failure_below_the_callers_is_raised",
    ),
    (
        # Changes only which pairs are drawn; every route agrees on them.
        "_direction azimuth pi -> 3",
        "qubit.py",
        "    t *= np.pi",
        "    t *= 3.0",
        "test_qubit.py::test_azimuth_fills_equal_sectors_uniformly",
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


# Runs in the child: the named tests with pytest, on the package copy
# that the child has imported.  hypothesis reports the first failing
# example without shrinking it, and keeps no example database.
NAMED_TESTS = """
import os, sys
import buresgeo, pytest
from hypothesis import Phase, settings
assert os.path.dirname(os.path.abspath(buresgeo.__file__)).startswith(sys.argv[1]), buresgeo.__file__
settings.register_profile("catch", database=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("catch")
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
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


def _named_tests(root: Path, *tests: str) -> subprocess.CompletedProcess:
    """pytest's run of the named tests of this directory on the package copy under root, from root."""
    return subprocess.run(
        [sys.executable, "-c", NAMED_TESTS, str(root), *(str(Path(__file__).parent / test) for test in tests)],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def _copy(tmp_path: Path) -> Path:
    shutil.copytree(PACKAGE, tmp_path / "buresgeo", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _apply(root: Path, file: str, old: str, new: str) -> None:
    source = root / "buresgeo" / file
    text = source.read_text()
    assert text.count(old + "\n") == 1, f"{old!r} must occur once in {file}"
    source.write_text(text.replace(old + "\n", new + "\n"))


def test_the_unfaulted_copy_passes(tmp_path):
    codes = _exit_codes(_copy(tmp_path))
    assert codes == {"verify": dict.fromkeys(PAIRS, 0), "fidelity": 0}


def test_the_named_tests_pass_on_the_unfaulted_copy(tmp_path):
    proc = _named_tests(_copy(tmp_path), *[entry[-1] for entry in UNSEEN_FAULTS])
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "file, old, new, pairs, fidelity_fails", [entry[1:] for entry in FAULTS], ids=[entry[0] for entry in FAULTS]
)
def test_the_fault_is_caught(tmp_path, file, old, new, pairs, fidelity_fails):
    root = _copy(tmp_path)
    _apply(root, file, old, new)
    codes = _exit_codes(root)
    failed = [pair for pair, code in codes["verify"].items() if code == 1]
    if pairs is None:
        assert failed, codes
    else:
        assert set(pairs) <= set(failed), codes
    if fidelity_fails:
        assert codes["fidelity"] == 1, codes


@pytest.mark.parametrize(
    "file, old, new, test", [entry[1:] for entry in UNSEEN_FAULTS], ids=[entry[0] for entry in UNSEEN_FAULTS]
)
def test_the_unseen_fault_fails_its_test(tmp_path, file, old, new, test):
    root = _copy(tmp_path)
    _apply(root, file, old, new)
    proc = _named_tests(root, test)
    # pytest exits 1 when a collected test fails; 2 to 5 would be the harness's fault.
    assert proc.returncode == 1 and "1 failed" in proc.stdout, proc.stdout + proc.stderr
