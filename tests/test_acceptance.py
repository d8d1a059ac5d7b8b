"""Acceptance suite: the seven gate criteria, one pass/fail line each.

Run with output visible:  pytest -s tests/test_acceptance.py
"""

import json
import math
import re
import time

import numpy as np
from conftest import fidelity_brute, random_rotations

import buresgeo as bg
from buresgeo import cli, verify

NONPURE = ("uniform_ball", "near_pure", "near_mixed")
TRIALS = 100_000
SEED = 20260808


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"\nacceptance {number} [{label}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({label}) failed {detail}"


def _sample(regime_u, regime_v, trials=TRIALS, seed=SEED):
    idx = np.arange(trials)
    u = bg.random_bloch_indexed(seed, regime_u, idx, stream=0)
    v = bg.random_bloch_indexed(seed, regime_v, idx, stream=1)
    return u, v


def test_criterion_1_route_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for regime_u in NONPURE:
        for regime_v in NONPURE:
            u, v = _sample(regime_u, regime_v)
            finite = (bg.bloch_norm(u) <= bg.PURE_NORM) & (bg.bloch_norm(v) <= bg.PURE_NORM)
            f_hyp = bg.fidelity_hyperbolic(u[finite], v[finite])
            f_mat = bg.bures_fidelity_matrix(
                bg.density_from_bloch(u[finite]), bg.density_from_bloch(v[finite])
            )
            worst = max(worst, float(np.max(np.abs(f_hyp - f_mat))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(
        1,
        "hyperbolic route equals matrix route, 9 regimes x 1e5",
        ok,
        f"(max |F_hyp - F_matrix| = {worst:.3e}, elapsed = {elapsed:.1f}s)",
    )


def test_criterion_2_trace_distance_interpretation():
    u, v = _sample("uniform_ball", "uniform_ball")
    matrix = bg.trace_distance_matrix(bg.density_from_bloch(u), bg.density_from_bloch(v))
    euclid = 0.5 * np.linalg.norm(u - v, axis=-1)
    worst = float(np.max(np.abs(matrix - euclid)))
    _report(2, "trace distance = |u-v|/2", worst <= 1e-12, f"(max diff = {worst:.3e})")


def test_criterion_3_worked_pair_goldens():
    from scipy.linalg import sqrtm

    u = np.array([0.5, 0.0, 0.0])
    v = np.array([0.0, 0.5, 0.0])
    rho_u = bg.density_from_bloch(u)
    rho_v = bg.density_from_bloch(v)

    # Recompute every golden through an independent oracle first.
    oracle_f = fidelity_brute(rho_u, rho_v)
    oracle_d = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho_u - rho_v)))
    oracle_roots = np.linalg.eigvalsh(sqrtm(rho_u) @ rho_v @ sqrtm(rho_u))
    assert abs(oracle_f - 0.875) < 1e-9
    assert abs(oracle_d - 0.3535534) < 1e-7
    assert abs(oracle_roots[1] - 0.4153595) < 1e-7
    assert abs(oracle_roots[0] - 0.0846405) < 1e-7

    roots = bg.lambda_roots(u, v)
    checks = {
        "f_matrix": abs(bg.bures_fidelity_matrix(rho_u, rho_v) - oracle_f),
        "f_closed": abs(bg.bures_fidelity_closed(u, v) - 0.875),
        "f_hyperbolic": abs(bg.fidelity_hyperbolic(u, v) - 0.875),
        "d_matrix": abs(bg.trace_distance_matrix(rho_u, rho_v) - oracle_d),
        "d_bloch": abs(bg.trace_distance_bloch(u, v) - oracle_d),
        "lambda_plus": abs(roots.lambda_plus - (4 + math.sqrt(7)) / 16),
        "lambda_minus": abs(roots.lambda_minus - (4 - math.sqrt(7)) / 16),
        "cosh_phi_w": abs(bg.gamma_composition(u, v) - 4.0 / 3.0),
        "angle_a": abs(bg.triangle(u, v).angle_a - math.pi / 2),
    }
    worst = max(checks.values())
    _report(3, "worked-pair golden values", worst <= 1e-9, f"(max error = {worst:.3e})")


def test_criterion_4_limit_behavior():
    failures = []

    # Maximally mixed against each regime: F = 1/2 + sqrt(1 - |v|^2)/2.
    # Each route is compared against the |v| of its own input: the matrix
    # route only sees the density matrix, whose Bloch norm differs from
    # the sampled vector's by an ulp, which 1 - |v|^2 amplifies near pure.
    def mixed_oracle(r, regime):
        gap = np.where(regime == "pure", 0.0, np.maximum((1.0 - r) * (1.0 + r), 0.0))
        return 0.5 + 0.5 * np.sqrt(gap)

    origin = np.zeros((TRIALS // 4, 3))
    for regime in bg.REGIMES:
        v = bg.random_bloch_indexed(SEED + 1, regime, np.arange(TRIALS // 4), stream=1)
        closed = bg.bures_fidelity_closed(origin, v)
        err = float(np.max(np.abs(closed - mixed_oracle(bg.bloch_norm(v), regime))))
        rho_v = bg.density_from_bloch(v)
        matrix = bg.bures_fidelity_matrix(bg.density_from_bloch(origin), rho_v)
        r_seen = bg.bloch_norm(bg.bloch_from_density(rho_v))
        err = max(err, float(np.max(np.abs(matrix - mixed_oracle(r_seen, regime)))))
        if err > 1e-12:
            failures.append(f"mixed-vs-{regime}: {err:.3e}")

    # Pure against pure through the closed route is exact.
    u, v = _sample("pure", "pure", trials=TRIALS // 4, seed=SEED + 2)
    dot = u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1] + u[:, 2] * v[:, 2]
    expected = np.clip(0.5 * (1.0 + dot), 0.0, 1.0)
    if not np.array_equal(np.asarray(bg.bures_fidelity_closed(u, v)), expected):
        failures.append("pure-vs-pure not exact")

    # The hyperbolic route converges to the pure limit at rate O(delta).
    rng = np.random.default_rng(SEED + 3)
    raw = rng.normal(size=(2000, 2, 3))
    hats = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    for delta in (1e-4, 1e-6, 1e-8):
        uu = (1.0 - delta) * hats[:, 0]
        vv = (1.0 - delta) * hats[:, 1]
        limit = 0.5 * (1.0 + np.sum(hats[:, 0] * hats[:, 1], axis=-1))
        err = float(np.max(np.abs(bg.fidelity_hyperbolic(uu, vv) - limit)))
        if err > 10.0 * delta:
            failures.append(f"pure limit at delta={delta:g}: {err:.3e}")

    _report(4, "limit behavior", not failures, f"({'; '.join(failures) or 'all limits hold'})")


def test_criterion_5_symmetry_and_invariance():
    failures = []

    for regime_u in bg.REGIMES:
        for regime_v in bg.REGIMES:
            u, v = _sample(regime_u, regime_v, trials=5000, seed=SEED + 4)
            closed = np.abs(bg.bures_fidelity_closed(u, v) - bg.bures_fidelity_closed(v, u))
            rho_u, rho_v = bg.density_from_bloch(u), bg.density_from_bloch(v)
            matrix = np.abs(bg.bures_fidelity_matrix(rho_u, rho_v) - bg.bures_fidelity_matrix(rho_v, rho_u))
            worst = max(float(np.max(closed)), float(np.max(matrix)))
            finite = (bg.bloch_norm(u) <= bg.PURE_NORM) & (bg.bloch_norm(v) <= bg.PURE_NORM)
            if np.any(finite):
                hyp = np.abs(
                    bg.fidelity_hyperbolic(u[finite], v[finite])
                    - bg.fidelity_hyperbolic(v[finite], u[finite])
                )
                worst = max(worst, float(np.max(hyp)))
            if worst > 1e-11:
                failures.append(f"symmetry {regime_u} x {regime_v}: {worst:.3e}")

    rotations = random_rotations(np.random.default_rng(SEED + 5), 1000)
    u, v = _sample("uniform_ball", "near_pure", trials=1000, seed=SEED + 6)
    ru = np.einsum("kij,kj->ki", rotations, u)
    rv = np.einsum("kij,kj->ki", rotations, v)
    routes = {
        "closed": bg.bures_fidelity_closed,
        "matrix": lambda a, b: bg.bures_fidelity_matrix(
            bg.density_from_bloch(a), bg.density_from_bloch(b)
        ),
        "hyperbolic": bg.fidelity_hyperbolic,
    }
    for name, fid in routes.items():
        worst = float(np.max(np.abs(fid(u, v) - fid(ru, rv))))
        if worst > 1e-11:
            failures.append(f"rotation invariance ({name}): {worst:.3e}")

    _report(5, "symmetry and rotation invariance", not failures, f"({'; '.join(failures) or 'ok'})")


def test_criterion_6_structural_identities():
    failures = []

    # Boost correspondence: rho(n) = L(n) / (2 cosh phi).
    for regime in NONPURE:
        n = bg.random_bloch_indexed(SEED + 7, regime, np.arange(20_000))
        rep = bg.rapidity_from_bloch(n)
        normalized = bg.lorentz_boost(rep) / (2.0 * np.cosh(rep.phi))[..., None, None]
        err = float(np.max(np.abs(normalized - bg.density_from_bloch(n))))
        if err > 1e-12:
            failures.append(f"boost correspondence ({regime}): {err:.3e}")

    # Lorentz-factor composition equals the hyperbolic cosine law.
    for regime_u in NONPURE:
        for regime_v in NONPURE:
            u, v = _sample(regime_u, regime_v, trials=20_000, seed=SEED + 8)
            gw = bg.gamma_composition(u, v)
            phi_u = np.arctanh(bg.bloch_norm(u))
            phi_v = np.arctanh(bg.bloch_norm(v))
            norm_u = np.where(bg.bloch_norm(u) > 0, bg.bloch_norm(u), 1.0)
            norm_v = np.where(bg.bloch_norm(v) > 0, bg.bloch_norm(v), 1.0)
            cos_angle = np.sum(u * v, axis=-1) / (norm_u * norm_v)
            law = np.cosh(phi_u) * np.cosh(phi_v) * (
                1.0 + cos_angle * np.tanh(phi_u) * np.tanh(phi_v)
            )
            scale = np.maximum(1.0, np.maximum(np.abs(gw), np.abs(law)))
            err = float(np.max(np.abs(gw - law) / scale))
            if err > 1e-10:
                failures.append(f"cosine law {regime_u} x {regime_v}: {err:.3e}")

    # Root residuals of the characteristic quadratic.
    for regime_u in NONPURE:
        for regime_v in NONPURE:
            u, v = _sample(regime_u, regime_v, trials=20_000, seed=SEED + 9)
            roots = bg.lambda_roots(u, v)
            gu = 1.0 / np.sqrt((1.0 - bg.bloch_norm(u)) * (1.0 + bg.bloch_norm(u)))
            gv = 1.0 / np.sqrt((1.0 - bg.bloch_norm(v)) * (1.0 + bg.bloch_norm(v)))
            lin = gu * gv * (1.0 + np.sum(u * v, axis=-1)) / (2.0 * gu * gv)
            const = 1.0 / (16.0 * gu**2 * gv**2)
            for lam in roots:
                err = float(np.max(np.abs(lam * lam - lin * lam + const)))
                if err > 1e-12:
                    failures.append(f"root residual {regime_u} x {regime_v}: {err:.3e}")

    # Triangle law of cosines and the disk embedding.
    idx = np.arange(400)
    for regime_u, regime_v in (("uniform_ball", "uniform_ball"), ("uniform_ball", "near_pure"), ("near_pure", "near_pure")):
        us = bg.random_bloch_indexed(SEED + 10, regime_u, idx, stream=0)
        vs = bg.random_bloch_indexed(SEED + 10, regime_v, idx, stream=1)
        for uu, vv in zip(us, vs):
            if min(bg.bloch_norm(uu), bg.bloch_norm(vv)) <= bg.DEGENERATE_NORM:
                continue
            tri = bg.triangle(uu, vv)
            lhs = math.cosh(tri.phi_w)
            rhs = math.cosh(tri.phi_u) * math.cosh(tri.phi_v) - math.sinh(tri.phi_u) * math.sinh(
                tri.phi_v
            ) * math.cos(tri.angle_a)
            if abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)) > 1e-10:
                failures.append(f"law of cosines at {tri.sides()}")
                break
            sides = (
                abs(bg.disk_distance(tri.disk_a, tri.disk_b) - tri.phi_u),
                abs(bg.disk_distance(tri.disk_a, tri.disk_c) - tri.phi_v),
                abs(bg.disk_distance(tri.disk_b, tri.disk_c) - tri.phi_w),
            )
            if max(sides) > 1e-9:
                failures.append(f"disk embedding off by {max(sides):.3e}")
                break

    _report(6, "structural identities", not failures, f"({'; '.join(failures) or 'ok'})")


def test_criterion_7_determinism(capsys, monkeypatch):
    args = [
        "verify", "--seed", "424242", "--trials", "20000",
        "--regime-u", "near_pure", "--regime-v", "uniform_ball",
    ]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    second = capsys.readouterr().out

    def strip(payload):
        return re.sub(r'"elapsed_seconds":[0-9eE.+-]+', '"elapsed_seconds":0', payload)

    runs_identical = strip(first) == strip(second) and first != second

    def sweep_with_block(block):
        monkeypatch.setattr(verify, "_BLOCK", block)
        summary = bg.sweep(424242, 20000, "near_pure", "uniform_ball")
        return summary._replace(elapsed_seconds=0.0)

    base = sweep_with_block(20000)
    blocks_identical = all(sweep_with_block(block) == base for block in (1000, 4096))
    parsed = json.loads(first)["result"]
    sampler_consistent = parsed["worst_u"] == list(
        bg.random_bloch_indexed(424242, "near_pure", parsed["worst_index"], stream=0)
    )

    ok = runs_identical and blocks_identical and sampler_consistent
    _report(
        7,
        "determinism across runs and block partitions",
        ok,
        f"(runs={runs_identical}, blocks={blocks_identical}, sampler={sampler_consistent})",
    )
