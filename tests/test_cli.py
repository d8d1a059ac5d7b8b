"""Tests for the command-line envelope interface and its exit codes."""

import json
import math
import re

import numpy as np
import pytest

import buresgeo as bg
from buresgeo import cli

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
        result = json.loads(out)["result"]
        assert result["f_closed"] == float(bg.bures_fidelity_closed([0.5, 0, 0], [0, 0.5, 0]))
        assert result["d_trace"] == float(bg.trace_distance_bloch([0.5, 0, 0], [0, 0.5, 0]))
        assert result["f_hyperbolic"] == float(bg.fidelity_hyperbolic([0.5, 0, 0], [0, 0.5, 0]))

    def test_identical_mixed_states(self, capsys):
        code, out, _ = run_cli(capsys, "fidelity", "--u", "0,0,0", "--v", "0,0,0")
        result = json.loads(out)["result"]
        assert code == 0
        assert result["f_matrix"] == result["f_closed"] == result["f_hyperbolic"] == 1.0
        assert result["d_trace"] == 0.0

    def test_pure_pair_omits_hyperbolic(self, capsys):
        code, out, _ = run_cli(capsys, "fidelity", "--u", "0,0,1", "--v", "0,0,-1")
        result = json.loads(out)["result"]
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
        import dataclasses

        real = cli.verify_mod.compare

        def broken(u, v):
            return dataclasses.replace(real(u, v), max_pairwise_diff=1e-6)

        monkeypatch.setattr(cli.verify_mod, "compare", broken)
        code, out, err = run_cli(capsys, "fidelity", "--u", "0.5,0,0", "--v", "0,0.5,0")
        assert code == 1
        assert "theorem violation" in err
        assert json.loads(out)["result"]["max_pairwise_diff"] == 1e-6


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
        result = json.loads(out)["result"]
        assert result["angle_a"] == math.pi / 2

    def test_collinear_pair_is_valid(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--u", "0.3,0,0", "--v", "0.3,0,0")
        result = json.loads(out)["result"]
        assert code == 0
        assert result["angle_a"] == math.pi
        np.testing.assert_allclose(result["phi_w"], 2 * math.atanh(0.3), atol=1e-12)

    def test_polyline_endpoints_match_vertices(self, capsys):
        _, out, _ = run_cli(capsys, "triangle", "--u", "0.4,0.1,0", "--v", "0,0.5,0.2")
        result = json.loads(out)["result"]
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
        polylines = json.loads(json_out)["result"]["polylines"]
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
        payload = json.loads(out)
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
        assert json.loads(out)["result"]["max_diff"] > 1e-30
        assert "verification failed" in err

    def test_rejects_zero_trials(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--trials", "0")
        assert code == 2 and out == "" and "--trials" in err

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
        result = json.loads(out)["result"]
        u = bg.random_bloch_indexed(11, "uniform_ball", result["worst_index"], stream=0)
        assert result["worst_u"] == list(u)


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
        payload = json.loads(out)
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
