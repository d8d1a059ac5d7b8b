"""Tests for the command-line envelope interface and its exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import buresgeo as bg
from buresgeo import cli, measures
from buresgeo.measures import _RouteError

GOLDEN_FIDELITY = (
    '{"schema_version":"1","command":"fidelity",'
    '"inputs":{"u":[0.5,0,0],"v":[0,0.5,0],"format":"json"},'
    '"result":{"u":[0.5,0,0],"v":[0,0.5,0],'
    '"f_matrix":0.87500000000000022,"f_hyperbolic":0.875,"f_closed":0.875,'
    '"d_trace":0.35355339059327379,'
    '"max_pairwise_diff":2.2204460492503131e-16,"regime_flags":[]}}'
)

GOLDEN_TRIANGLE = (
    '{"schema_version":"1","command":"triangle",'
    '"inputs":{"u":[0.5,0,0],"v":[0,0.5,0],"samples_per_edge":2,"format":"json"},'
    '"result":{"phi_u":0.54930614433405478,"phi_v":0.54930614433405478,'
    '"phi_w":0.7953654612239055,"angle_a":1.5707963267948966,'
    '"median_ad":0.36949897192586945,'
    '"disk_a":[0,0],"disk_b":[0.26794919243112275,0],'
    '"disk_c":[1.6407156042244635e-17,0.26794919243112275],'
    '"disk_d":[0.12917130661302934,0.12917130661302934],'
    '"polylines":{"AB":[[0,0],[0.26794919243112275,0]],'
    '"AC":[[0,0],[1.6407156042244635e-17,0.26794919243112275]],'
    '"BC":[[0.26794919243112275,0],[1.6407156042244635e-17,0.26794919243112275]]}}}'
)

GOLDEN_TRIANGLE_CSV = (
    "edge,index,x,y\n"
    "AB,0,0,0\n"
    "AB,1,0.26794919243112275,0\n"
    "AC,0,0,0\n"
    "AC,1,1.6407156042244635e-17,0.26794919243112275\n"
    "BC,0,0.26794919243112275,0\n"
    "BC,1,1.6407156042244635e-17,0.26794919243112275\n"
)


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def triple(u) -> str:
    return ",".join(format(float(x), ".17g") for x in u)


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def parse(out: str):
    """The envelope in out, read by a parser that refuses NaN and Infinity."""
    return json.loads(out, parse_constant=refuse_constant)


def strip_elapsed(payload: str) -> str:
    return re.sub(r'"elapsed_seconds":[0-9eE.+-]+', '"elapsed_seconds":0', payload)


class TestFidelityCommand:
    def test_golden_envelope(self, capsys):
        code, out, err = run_cli(capsys, "fidelity", "--u", "0.5,0,0", "--v", "0,0.5,0")
        assert code == 0
        assert err == ""
        assert out.strip() == GOLDEN_FIDELITY

    def test_floats_round_trip_exactly(self, capsys):
        _, out, _ = run_cli(capsys, "fidelity", "--u", "0.5,0,0", "--v", "0,0.5,0")
        result = parse(out)["result"]
        assert result["f_closed"] == float(bg.bures_fidelity_closed([0.5, 0, 0], [0, 0.5, 0]))
        assert result["d_trace"] == float(bg.trace_distance_bloch([0.5, 0, 0], [0, 0.5, 0]))
        assert result["f_hyperbolic"] == float(bg.fidelity_hyperbolic([0.5, 0, 0], [0, 0.5, 0]))

    def test_identical_mixed_states(self, capsys):
        code, out, _ = run_cli(capsys, "fidelity", "--u", "0,0,0", "--v", "0,0,0")
        result = parse(out)["result"]
        assert code == 0
        assert result["f_matrix"] == result["f_closed"] == result["f_hyperbolic"] == 1.0
        assert result["d_trace"] == 0.0

    def test_pure_pair_omits_hyperbolic(self, capsys):
        code, out, _ = run_cli(capsys, "fidelity", "--u", "0,0,1", "--v", "0,0,-1")
        result = parse(out)["result"]
        assert code == 0
        assert result["f_hyperbolic"] is None
        assert result["regime_flags"] == ["pure_u", "pure_v"]

    def test_rejects_out_of_ball(self, capsys):
        code, out, err = run_cli(capsys, "fidelity", "--u", "2,0,0", "--v", "0,0,0")
        assert code == 2
        assert out == ""
        assert "unit ball" in err

    def test_rejects_malformed_vector(self, capsys):
        code, _, err = run_cli(capsys, "fidelity", "--u", "0.5,0", "--v", "0,0,0")
        assert code == 2 and "comma-separated" in err
        code, _, err = run_cli(capsys, "fidelity", "--u", "a,b,c", "--v", "0,0,0")
        assert code == 2 and "comma-separated" in err

    def test_rejects_non_finite(self, capsys):
        code, _, err = run_cli(capsys, "fidelity", "--u", "nan,0,0", "--v", "0,0,0")
        assert code == 2 and "non-finite" in err

    def test_route_disagreement_exits_one(self, capsys, monkeypatch):
        # The inconsistency path should never fire in practice; force it.
        real = cli.verify_mod._compare

        def broken(u, ru, v, rv):
            return real(u, ru, v, rv)._replace(max_pairwise_diff=1e-6)

        monkeypatch.setattr(cli.verify_mod, "_compare", broken)
        code, out, err = run_cli(capsys, "fidelity", "--u", "0.5,0,0", "--v", "0,0.5,0")
        assert code == 1
        assert "theorem violation" in err
        assert parse(out)["result"]["max_pairwise_diff"] == 1e-6


    def test_antipodal_pure_pairs_are_finite_json(self, capsys):
        # sqrt(rho1) rho2 sqrt(rho1) vanishes for orthogonal pure states, and
        # its larger eigenvalue can round to a tiny negative; its root is 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in range(500):
                u = bg.random_bloch_indexed(98, "pure", i)
                report = bg.compare(u, -u)
                assert math.isfinite(report.f_matrix) and abs(report.f_matrix) <= 1e-10, i
                code, out, err = run_cli(capsys, "fidelity", f"--u={triple(u)}", f"--v={triple(-u)}")
                assert code == 0 and err == "", i
                assert parse(out)["result"]["f_matrix"] == report.f_matrix

    def test_nan_spread_exits_one(self, capsys, monkeypatch):
        real = cli.verify_mod._compare

        def broken(u, ru, v, rv):
            return real(u, ru, v, rv)._replace(max_pairwise_diff=math.nan)

        monkeypatch.setattr(cli.verify_mod, "_compare", broken)
        code, out, err = run_cli(capsys, "fidelity", "--u", "0.5,0,0", "--v", "0,0.5,0")
        assert code == 1
        assert err.startswith("theorem violation: routes disagree by nan")
        assert parse(out)["result"]["max_pairwise_diff"] is None


class TestTriangleCommand:
    def test_golden_envelope(self, capsys):
        code, out, err = run_cli(
            capsys, "triangle", "--u", "0.5,0,0", "--v", "0,0.5,0", "--samples-per-edge", "2"
        )
        assert code == 0
        assert err == ""
        assert out.strip() == GOLDEN_TRIANGLE

    def test_golden_csv(self, capsys):
        code, out, err = run_cli(
            capsys, "triangle", "--u", "0.5,0,0", "--v", "0,0.5,0",
            "--samples-per-edge", "2", "--format", "csv",
        )
        assert code == 0
        assert err == ""
        assert out == GOLDEN_TRIANGLE_CSV

    def test_right_angle_payload(self, capsys):
        _, out, _ = run_cli(capsys, "triangle", "--u", "0.5,0,0", "--v", "0,0.5,0")
        result = parse(out)["result"]
        assert result["angle_a"] == math.pi / 2

    def test_collinear_pair_is_valid(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--u", "0.3,0,0", "--v", "0.3,0,0")
        result = parse(out)["result"]
        assert code == 0
        assert result["angle_a"] == math.pi
        np.testing.assert_allclose(result["phi_w"], 2 * math.atanh(0.3), atol=1e-12)

    def test_polyline_endpoints_match_vertices(self, capsys):
        _, out, _ = run_cli(capsys, "triangle", "--u", "0.4,0.1,0", "--v", "0,0.5,0.2")
        result = parse(out)["result"]
        for edge, start, end in (("AB", "disk_a", "disk_b"), ("AC", "disk_a", "disk_c"), ("BC", "disk_b", "disk_c")):
            line = result["polylines"][edge]
            assert len(line) == 32
            assert line[0] == result[start]
            assert line[-1] == result[end]

    def test_csv_format(self, capsys):
        code, out, err = run_cli(
            capsys, "triangle", "--u", "0.5,0,0", "--v", "0,0.5,0",
            "--samples-per-edge", "4", "--format", "csv",
        )
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "edge,index,x,y"
        assert len(lines) == 1 + 3 * 4
        first = lines[1].split(",")
        assert first[0] == "AB" and first[1] == "0"
        assert [line.split(",")[0] for line in lines[1:]] == ["AB"] * 4 + ["AC"] * 4 + ["BC"] * 4
        # CSV and JSON agree on the data.
        _, json_out, _ = run_cli(
            capsys, "triangle", "--u", "0.5,0,0", "--v", "0,0.5,0", "--samples-per-edge", "4"
        )
        polylines = parse(json_out)["result"]["polylines"]
        for line in lines[1:]:
            edge, index, x, y = line.split(",")
            assert polylines[edge][int(index)] == [float(x), float(y)]

    def test_rejects_degenerate(self, capsys):
        code, out, err = run_cli(capsys, "triangle", "--u", "0,0,0", "--v", "0.5,0,0")
        assert code == 2
        assert out == ""
        assert "degenerate" in err

    def test_rejects_pure(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "--u", "1,0,0", "--v", "0.5,0,0")
        assert code == 2 and "pure" in err

    def test_rejects_short_polyline(self, capsys):
        code, _, err = run_cli(
            capsys, "triangle", "--u", "0.5,0,0", "--v", "0,0.5,0", "--samples-per-edge", "1"
        )
        assert code == 2 and "samples-per-edge" in err

    @pytest.mark.parametrize("count", ["1", "0", "-3"])
    def test_short_polyline_message_comes_from_geodesic_points(self, capsys, count):
        code, out, err = run_cli(
            capsys, "triangle", "--u", "0.5,0,0", "--v", "0,0.5,0", "--samples-per-edge", count
        )
        assert code == 2 and out == ""
        assert err == "error: --samples-per-edge: a geodesic polyline needs at least 2 points\n"

    @pytest.mark.parametrize("count", ["99999999999999999999999", "1000000000000", str(2**20 + 1)])
    def test_rejects_huge_polyline(self, capsys, count):
        # These once leaked numpy's "Maximum allowed size exceeded" or its
        # allocation error as a traceback with exit 1.
        code, out, err = run_cli(
            capsys, "triangle", "--u", "0.5,0,0", "--v", "0,0.5,0", "--samples-per-edge", count
        )
        assert code == 2 and out == ""
        assert err == f"error: --samples-per-edge: count must be an integer in [2, 1048577), got {count}\n"


class TestVerifyCommand:
    def test_passes_at_default_tolerance(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--seed", "42", "--trials", "2000",
            "--regime-u", "uniform_ball", "--regime-v", "uniform_ball",
        )
        assert code == 0
        assert err == ""
        payload = parse(out)
        assert payload["result"]["max_diff"] <= 1e-10
        assert payload["inputs"]["tolerance"] == 1e-10

    def test_byte_identical_across_runs(self, capsys):
        args = ("verify", "--seed", "7", "--trials", "1500", "--regime-v", "near_pure")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first != second  # elapsed differs
        assert strip_elapsed(first) == strip_elapsed(second)

    def test_fails_at_tiny_tolerance(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--seed", "42", "--trials", "100", "--tolerance", "1e-30"
        )
        assert code == 1
        assert parse(out)["result"]["max_diff"] > 1e-30
        assert "verification failed" in err

    def test_nan_spread_exits_one(self, capsys, monkeypatch):
        real = cli.verify_mod._route_spread

        def nan_at_17(u, v, ws=None):
            spread = real(u, v, ws)
            spread[17:18] = math.nan  # 3000 trials run as one block: this is trial 17
            return spread

        monkeypatch.setattr(cli.verify_mod, "_route_spread", nan_at_17)
        code, out, err = run_cli(capsys, "verify", "--seed", "42", "--trials", "3000")
        assert code == 1
        assert err.startswith("verification failed: max_diff nan > tolerance")
        assert '"max_diff":null,"mean_diff":null,"p99_diff":null' in out
        parse(out)
        assert '"worst_index":17' in out

    def test_rejects_zero_trials(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--trials", "0")
        assert code == 2 and out == "" and "trials must be an integer in [1, " in err

    def test_rejects_unknown_regime(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--regime-u", "thermal")
        assert code == 2 and out == ""

    def test_rejects_trials_above_cap(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--trials", str(2**40))
        assert code == 2 and out == "" and "trials must be an integer in" in err

    def test_rejects_bad_seed_and_tolerance(self, capsys):
        assert run_cli(capsys, "verify", "--seed", "-1")[0] == 2
        assert run_cli(capsys, "verify", "--seed", str(2**64))[0] == 2
        assert run_cli(capsys, "verify", "--tolerance", "0")[0] == 2

    def test_worst_pair_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--seed", "11", "--trials", "300")
        result = parse(out)["result"]
        u = bg.random_bloch_indexed(11, "uniform_ball", result["worst_index"], stream=0)
        assert result["worst_u"] == list(u)


class TestRouteFault:
    """A route's own consistency check failing is a verification failure, not a usage error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--trials", "100", "--regime-u", "near_mixed", "--regime-v", "near_mixed"),
            ("fidelity", "--u=0,0,0", "--v=0,0,0"),
        ],
    )
    def test_route_fault_exits_one(self, capsys, monkeypatch, argv):
        # 1 - r^2 scaled by 1.001 puts the closed route's fidelity of mixed
        # enough states above 1, which its clamp to [0, 1] refuses.
        real = measures._one_minus_square

        def scaled(r, ws=None):
            gap = real(r, ws)
            return gap * 1.001 if ws is None else np.multiply(gap, 1.001, out=gap)

        monkeypatch.setattr(measures, "_one_minus_square", scaled)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert re.fullmatch(r"verification failed: closed-route fidelity \S+ lies outside \[0, 1\]\n", err), err


class TestNegativeComponents:
    """A separate value such as -0.1,0.2,0.3 is read as the flag's value."""

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("flag", ["--u", "--v"])
    @pytest.mark.parametrize("command", ["fidelity", "triangle"])
    def test_leading_minus_value(self, capsys, command, flag, position):
        values = {"--u": [0.1, 0.2, 0.3], "--v": [0.3, -0.0, 0.4]}
        values[flag][position] = -values[flag][position] - 0.05
        texts = {name: ",".join(repr(x) for x in vector) for name, vector in values.items()}
        separate = [command, "--u", texts["--u"], "--v", texts["--v"]]
        joined = [command, f"--u={texts['--u']}", f"--v={texts['--v']}"]
        code, out, err = run_cli(capsys, *separate)
        assert (code, err) == (0, "")
        payload = parse(out)
        assert payload["inputs"]["u"] == values["--u"]
        assert payload["inputs"]["v"] == values["--v"]
        assert run_cli(capsys, *joined) == (code, out, err)

    def test_missing_value_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "fidelity", "--v", "0,0,0", "--u")
        assert code == 2 and out == "" and "--u" in err


class TestParserReuse:
    REQUESTS = (
        ("fidelity", "--u", "0.5,0,0", "--v", "0,0.5,0"),
        ("triangle", "--u", "0.4,0.1,0", "--v", "0,-0.5,0.2", "--samples-per-edge", "3", "--format", "csv"),
        ("verify", "--seed", "3", "--trials", "50", "--regime-v", "near_pure"),
        ("fidelity", "--u", "0.5,0,0"),
        ("triangle", "--u", "0.3,0,0", "--v", "0,0.3,0"),
        ("verify", "--trials", "0"),
    )

    def _run(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        return code, strip_elapsed(out), err

    def test_reused_parser_matches_fresh_parser(self, capsys):
        fresh = []
        for argv in self.REQUESTS:
            cli._build_parser.cache_clear()
            fresh.append(self._run(capsys, argv))
        assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 0, 2]
        for _ in range(2):
            assert [self._run(capsys, argv) for argv in self.REQUESTS] == fresh
        assert cli._build_parser.cache_info().currsize == 1


class TestCliShell:
    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["fidelity", "--u", "0,0,0", "--v", "0,0,0", "--bogus"]) == 2


# ---------------------------------------------------------------------------
# The writers before one format call per point, kept as oracles: every
# finite float must come out byte for byte as they wrote it.
# ---------------------------------------------------------------------------


def oracle_fmt_float(x) -> str:
    return format(float(x), ".17g")


def oracle_emit(value) -> str:
    if isinstance(value, float):
        return oracle_fmt_float(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{oracle_emit(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(oracle_emit(item) for item in value) + "]"
    return json.dumps(value)


def oracle_csv(polylines: dict) -> str:
    lines = ["edge,index,x,y"]
    for name, _, _ in cli._EDGES:
        for i, (x, y) in enumerate(polylines[name]):
            lines.append(f"{name},{i},{oracle_fmt_float(x)},{oracle_fmt_float(y)}")
    return "\n".join(lines)


def oracle_envelope(command: str, inputs: dict, result: dict) -> str:
    return oracle_emit({"schema_version": "1", "command": command, "inputs": inputs, "result": result}) + "\n"


def oracle_fidelity(u, v) -> str:
    report = bg.compare(u, v)
    result = report._asdict()
    result["regime_flags"] = sorted(report.regime_flags)
    return oracle_envelope("fidelity", {"u": report.u, "v": report.v, "format": "json"}, result)


def oracle_triangle(u, v, samples: int, fmt: str) -> str:
    tri = bg.triangle(u, v)
    polylines = {
        name: bg.geodesic_points(getattr(tri, start), getattr(tri, end), samples).tolist()
        for name, start, end in cli._EDGES
    }
    if fmt == "csv":
        return oracle_csv(polylines) + "\n"
    result = tri._asdict()
    result["polylines"] = polylines
    inputs = {"u": list(u), "v": list(v), "samples_per_edge": samples, "format": fmt}
    return oracle_envelope("triangle", inputs, result)


def seeded_state(rng, radius) -> list:
    d = rng.normal(size=3)
    return [float(x) for x in radius * d / np.linalg.norm(d)]


def seeded_fidelity_pair(rng, kind: str):
    """A pair of each kind a benchmark cycle sends: ball, pure u, pure u and v, near-mixed, near-pure."""
    u = seeded_state(rng, 0.999 * np.cbrt(rng.random()))
    v = seeded_state(rng, 0.999 * np.cbrt(rng.random()))
    if kind == "pure_u":
        u = seeded_state(rng, 1.0)
    elif kind == "pure_uv":
        u, v = seeded_state(rng, 1.0), seeded_state(rng, 1.0)
    elif kind == "near_mixed":
        u = seeded_state(rng, 0.9e-3 * rng.random())
    elif kind == "near_pure":
        u = seeded_state(rng, 1.0 - 10.0 ** rng.uniform(-8.5, -3.5))
        v = seeded_state(rng, 1.0 - 10.0 ** rng.uniform(-8.5, -3.5))
    return u, v


SPECIAL_FLOATS = (-0.0, 5e-324, 1e16, sys.float_info.max, 0.1, 1 / 3)


class TestFormattingOracle:
    @pytest.mark.parametrize("kind", ["ball", "pure_u", "pure_uv", "near_mixed", "near_pure"])
    def test_fidelity_bytes_match_the_recursive_writer(self, capsys, kind):
        rng = np.random.default_rng(["ball", "pure_u", "pure_uv", "near_mixed", "near_pure"].index(kind))
        for _ in range(40):
            u, v = seeded_fidelity_pair(rng, kind)
            code, out, err = run_cli(capsys, "fidelity", f"--u={triple(u)}", f"--v={triple(v)}")
            assert (code, err) == (0, "")
            assert out == oracle_fidelity(u, v)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("samples", [2, 16, 24, 32, 64])
    def test_triangle_bytes_match_the_recursive_writer(self, capsys, samples, fmt):
        rng = np.random.default_rng(samples)
        for _ in range(8):
            u = seeded_state(rng, rng.uniform(0.05, 0.95))
            v = seeded_state(rng, rng.uniform(0.05, 0.95))
            code, out, err = run_cli(
                capsys, "triangle", f"--u={triple(u)}", f"--v={triple(v)}",
                "--samples-per-edge", str(samples), "--format", fmt,
            )
            assert (code, err) == (0, "")
            assert out == oracle_triangle(u, v, samples, fmt)

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_special_floats_match_the_recursive_writer(self, kind):
        values = [kind(x) for x in SPECIAL_FLOATS]
        for x in values:
            assert cli._emit(x) == oracle_emit(x) == format(float(x), ".17g")
            for y in values:
                assert cli._emit([x, y]) == oracle_emit([x, y])
                assert cli._emit((y, x, y)) == oracle_emit((y, x, y))
        line = [(x, y) for x in values for y in values]
        assert cli._csv([line, line[::-1], line]) == oracle_csv({"AB": line, "AC": line[::-1], "BC": line})

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_non_finite_floats_are_null_in_json_only(self, kind):
        nan, inf = kind(math.nan), kind(math.inf)
        assert [cli._emit(x) for x in (nan, inf, -inf)] == ["null"] * 3
        assert cli._emit([nan, kind(0.5)]) == "[null,0.5]"
        assert cli._emit({"n": (kind(0.5), -inf, kind(1.0))}) == '{"n":[0.5,null,1]}'
        parse(cli._emit({"n": [[inf, nan], [kind(0.5), kind(0.25)]]}))
        assert cli._csv([[(nan, inf)], [], [(-inf, kind(0.5))]]) == "edge,index,x,y\nAB,0,nan,inf\nBC,0,-inf,0.5"

    def test_polyline_text_matches_the_recursive_writer(self):
        values = [*SPECIAL_FLOATS, math.nan, math.inf, -math.inf]
        finite = [[x, y] for x in SPECIAL_FLOATS for y in SPECIAL_FLOATS]
        assert cli._polyline_json(np.array(finite)) == oracle_emit(finite) == cli._emit(finite)
        for line in ([[x, y] for x in values for y in values], [[0.5, math.nan]], [[-math.inf, 0.25]]):
            assert cli._polyline_json(np.array(line)) == cli._emit(line)
            assert "n" not in cli._polyline_json(np.array(line)).replace("null", "")


class TestCallCounts:
    """Python-level calls into the package's own functions for one request.

    Counted with sys.setprofile on functions whose code lies in the
    package, so the standard library and numpy do not count and Python
    3.10 to 3.12 agree; 3.12 inlines comprehensions and may count fewer.
    The bounds are the counts the request makes: validation once, the
    scalar disk distance, one polyline kernel and one format call per
    polyline.
    """

    PACKAGE = os.path.dirname(cli.__file__) + os.sep
    U, V = "--u=0.3,-0.2,0.1", "--v=0.1,0.5,-0.4"

    def calls(self, *argv) -> int:
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            if event == "call" and frame.f_code.co_filename.startswith(self.PACKAGE):
                count += 1

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(list(argv)) == 0  # warm: the parser is built on the first call
            sys.setprofile(profile)
            try:
                code = cli.main(list(argv))
            finally:
                sys.setprofile(None)
        assert code == 0
        return count

    def test_fidelity_request(self):
        assert self.calls("fidelity", self.U, self.V) <= 345

    def test_triangle_json_request(self):
        assert self.calls("triangle", self.U, self.V, "--samples-per-edge", "64") <= 134


# ---------------------------------------------------------------------------
# Dispatch: a known command's arguments are parsed by that command's own
# parser, once.  The oracle is the two-level parse through the top-level
# parser; the one output allowed to differ is the usage line of an
# unrecognized argument after a known command.
# ---------------------------------------------------------------------------


def oracle_main(argv) -> int:
    try:
        args = cli._build_parser().parse_args(cli._join_vector_flags(argv))
    except SystemExit as exc:
        return cli.EXIT_OK if exc.code in (0, None) else cli.EXIT_USAGE
    try:
        return args.handler(args)
    except _RouteError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return cli.EXIT_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_USAGE


OK_U, OK_V = "0.5,0,0", "0,0.5,0"

DISPATCH_ARGV = (
    # The usage errors of the tests above.
    ("fidelity", "--u", "2,0,0", "--v", "0,0,0"),
    ("fidelity", "--u", "0.5,0", "--v", "0,0,0"),
    ("fidelity", "--u", "a,b,c", "--v", "0,0,0"),
    ("fidelity", "--u", "nan,0,0", "--v", "0,0,0"),
    ("fidelity", "--v", "0,0,0", "--u"),
    ("fidelity", "--u", OK_U),
    ("triangle", "--u", "0,0,0", "--v", "0.5,0,0"),
    ("triangle", "--u", "1,0,0", "--v", "0.5,0,0"),
    ("triangle", "--u", OK_U, "--v", OK_V, "--samples-per-edge", "1"),
    ("triangle", "--u", OK_U, "--v", OK_V, "--samples-per-edge", "0"),
    ("triangle", "--u", OK_U, "--v", OK_V, "--samples-per-edge", "-3"),
    ("triangle", "--u", OK_U, "--v", OK_V, "--samples-per-edge", "99999999999999999999999"),
    ("triangle", "--u", OK_U, "--v", OK_V, "--samples-per-edge", str(2**20 + 1)),
    ("verify", "--trials", "0"),
    ("verify", "--regime-u", "thermal"),
    ("verify", "--trials", str(2**40)),
    ("verify", "--seed", "-1"),
    ("verify", "--seed", str(2**64)),
    ("verify", "--tolerance", "0"),
    (),
    # Help, for the program and for each command.
    ("-h",),
    ("--help",),
    ("fidelity", "-h"),
    ("fidelity", "--help"),
    ("triangle", "-h"),
    ("triangle", "--help"),
    ("verify", "-h"),
    ("verify", "--help"),
    ("fidelity", "--u", OK_U, "--he"),
    # Unknown commands, a help flag before a command, flags without values.
    ("bogus",),
    ("bogus", "--u", OK_U),
    ("Fidelity", "--u", OK_U, "--v", OK_V),
    ("fid", "--u", OK_U, "--v", OK_V),
    ("-h", "fidelity"),
    ("--u", OK_U, "fidelity"),
    ("fidelity", "--u"),
    ("triangle", "--u", OK_U, "--v"),
    ("verify", "--seed"),
    ("verify", "--seed", "x"),
    ("triangle", "--u", OK_U, "--v", OK_V, "--samples-per-edge", "2.5"),
    # Abbreviated flags, a bad and an ambiguous one, and a bad --format.
    ("fidelity", "--u", OK_U, "--v", OK_V, "--form", "json"),
    ("triangle", "--u", OK_U, "--v", OK_V, "--samp", "3", "--f", "csv"),
    ("verify", "--tri", "20", "--tol", "1e-3", "--regime-v", "pure"),
    ("verify", "--trials", "20", "--regime", "pure"),
    ("fidelity", "--u", OK_U, "--v", OK_V, "--format", "csv"),
    ("triangle", "--u", OK_U, "--v", OK_V, "--format", "xml"),
    ("triangle", "--u", OK_U, "--v", OK_V, "--format"),
    # Requests that succeed, and a separate negative value.
    ("fidelity", "--u", OK_U, "--v", OK_V),
    ("fidelity", "--u", "-0.5,0,0", "--v", "0,-0.5,0"),
    ("triangle", "--u", OK_U, "--v", OK_V, "--samples-per-edge", "3", "--format", "csv"),
    ("fidelity", "--", "--u", OK_U),
)

UNRECOGNIZED_ARGV = (
    ("fidelity", "--u", "0,0,0", "--v", "0,0,0", "--bogus"),
    ("fidelity", "--u", OK_U, "--v", OK_V, "extra"),
    ("triangle", "--u", OK_U, "--v", OK_V, "--samples-per-edge", "3", "--bogus", "1"),
    ("verify", "--trials", "20", "--trials-per-block", "4"),
)


class TestDispatch:
    def _both(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        oracle_code = oracle_main(list(argv))
        captured = capsys.readouterr()
        return (code, strip_elapsed(out), err), (oracle_code, strip_elapsed(captured.out), captured.err)

    @pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=" ".join)
    def test_matches_the_two_level_parse(self, capsys, argv):
        got, expected = self._both(capsys, argv)
        assert got == expected

    @pytest.mark.parametrize("argv", UNRECOGNIZED_ARGV, ids=" ".join)
    def test_unrecognized_arguments_show_the_command_usage(self, capsys, argv):
        (code, out, err), (oracle_code, oracle_out, oracle_err) = self._both(capsys, argv)
        assert (code, out) == (oracle_code, oracle_out) == (2, "")
        command = cli._build_parser().commands[argv[0]]
        tail = oracle_err.splitlines()[-1].split("error: ", 1)[1]
        assert tail.startswith("unrecognized arguments: ")
        assert err == command.format_usage() + f"buresgeo {argv[0]}: error: {tail}\n"
        assert oracle_err == cli._build_parser().format_usage() + f"buresgeo: error: {tail}\n"

    def test_a_known_command_skips_the_top_level_parse(self, capsys, monkeypatch):
        parser = cli._build_parser()
        calls = []

        def spy(method):
            def wrapped(*args, **kwargs):
                calls.append(method)
                return getattr(argparse.ArgumentParser, method)(parser, *args, **kwargs)

            return wrapped

        for method in ("parse_args", "parse_known_args"):
            monkeypatch.setattr(parser, method, spy(method))
        for argv in DISPATCH_ARGV + UNRECOGNIZED_ARGV:
            if argv and argv[0] in parser.commands:
                run_cli(capsys, *argv)
        assert calls == []
        for argv in ((), ("-h",), ("bogus",)):
            assert run_cli(capsys, *argv)[0] in (0, 2)
        assert calls.count("parse_args") == 3


# ---------------------------------------------------------------------------
# argv fuzz: whatever the arguments, a request exits 0, 1 or 2, prints no
# traceback, and writes nothing or exactly one envelope to stdout.
# ---------------------------------------------------------------------------

def _either(good, bad):
    """Values a flag accepts, three times in four, or values it refuses."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(good if i else bad))


_FUZZ_REALS = st.one_of(
    _either(["0", "-0.5", "1", "-1"], ["1.000000000001", "2", "nan", "inf", "-inf", "1e308", "-5e-324", "x", ""]),
    st.floats(-1.0, 1.0).map(repr),
)
# Norms inside the ball, at and past the sphere within BALL_EPS, and beyond it.
_FUZZ_NORMS = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1e-13, bg.PURE_NORM, 1.0, 1.0 + 1e-13, 1.0 + 5e-13, 1.0 + bg.BALL_EPS, 1.0 + 1e-11]),
)


@st.composite
def _fuzz_vector(draw) -> str:
    if draw(st.integers(0, 3)):
        d = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
        d = d / bg.bloch_norm(d) if bg.bloch_norm(d) > 0.1 else np.array([0.0, 0.6, 0.8])
        return ",".join(map(repr, (draw(_FUZZ_NORMS) * d).tolist()))
    return ",".join(draw(st.lists(_FUZZ_REALS, min_size=1, max_size=4)))


_FUZZ_VALUES = {
    "--u": _fuzz_vector(),
    "--v": _fuzz_vector(),
    "--format": _either(["json", "csv"], ["xml"]),
    "--samples-per-edge": _either(["2", "3", "17"], ["-1", "0", "1", str(2**20 + 1), str(2**40), "9" * 30, "1.5", "x"]),
    "--seed": _either(["0", "-0", "42", str(2**64 - 1)], ["-1", str(2**64), "9" * 30, "1.5", "x"]),
    # Trials stay small, or lie past the sweep's cap, so no sweep runs long.
    "--trials": _either(["1", "2", "50", "999"], ["-1", "0", str(2**32 + 1), str(2**64), "9" * 40, "1e3", "x"]),
    "--regime-u": _either(bg.REGIMES, ["thermal", ""]),
    "--regime-v": _either(bg.REGIMES, ["thermal", ""]),
    "--tolerance": _either(["1e-10", "1"], ["1e-300", "0", "-1", "nan", "inf", "x"]),
}
# No 'h' in junk, so no token is -h or an abbreviation of --help.
_FUZZ_JUNK = st.one_of(
    st.sampled_from(["--bogus", "-", "--", "=", "--u=", "--trials", "--v", "fidelity", "verify"]),
    st.text(alphabet="ab,.-=0123456789en", max_size=6),
)


_FUZZ_FLAGS = {
    "fidelity": ["--u", "--v"],
    "triangle": ["--u", "--v", "--samples-per-edge", "--format"],
    "verify": ["--seed", "--trials", "--regime-u", "--regime-v", "--tolerance"],
}


@st.composite
def _fuzz_argv(draw) -> list:
    """A command, mostly its own flags with values, now and then a foreign flag or a junk token."""
    command = draw(st.sampled_from([*_FUZZ_FLAGS, "bogus"]))
    flags = [flag for flag in _FUZZ_FLAGS.get(command, []) if draw(st.integers(0, 19))]
    if not draw(st.integers(0, 7)):
        flags += draw(st.lists(st.sampled_from(sorted(_FUZZ_VALUES)), min_size=1, max_size=2))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        value = draw(_FUZZ_VALUES[flag])
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if not draw(st.integers(0, 7)):
        for token in draw(st.lists(_FUZZ_JUNK, min_size=1, max_size=2)):
            argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


_CSV_ROW = re.compile(r"(AB|AC|BC),\d+,[^,\s]+,[^,\s]+")


@settings(max_examples=400, deadline=None)
@given(argv=_fuzz_argv())
def test_argv_fuzz_gives_an_exit_code_and_at_most_one_envelope(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # an exception here is the traceback a user would see
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err
    assert (out == "") == (code == 2)
    if code == 1:
        assert err.startswith(("theorem violation", "verification failed"))
    if out.startswith("edge,index,x,y\n"):
        assert all(_CSV_ROW.fullmatch(row) for row in out.splitlines()[1:])
    elif out:
        assert out.count("\n") == 1 and out.endswith("\n")
        assert parse(out)["command"] == argv[0]
