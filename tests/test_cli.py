import json
import os

import pytest

from besselprob import cli


def run(argv, capsys=None):
    code = cli.main(argv)
    return code


class TestVerifyCommands:
    def test_lommel_defaults_pass(self, tmp_path):
        out = tmp_path / "lommel.json"
        code = run(["verify", "lommel", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert len(payload["rows"]) == 25
        assert all(r["abs_err"] <= 1e-9 for r in payload["rows"])
        assert os.path.exists(str(out) + ".manifest.json")

    def test_lommel_domain_error(self, tmp_path):
        code = run(["verify", "lommel", "--alpha-list", "-0.6",
                    "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_lommel_single_point_near_zero(self, tmp_path):
        out = tmp_path / "one.json"
        code = run(["verify", "lommel", "--alpha-list", "0.5",
                    "--t-list", "3.141592653589793", "--out", str(out)])
        assert code == 0
        row = json.loads(out.read_text())["rows"][0]
        assert abs(row["lhs"]) <= 1e-12

    def test_ws_defaults_pass(self, tmp_path):
        out = tmp_path / "ws.json"
        code = run(["verify", "ws", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert len(payload["rows"]) == 12
        assert all(r["rel_err"] <= 1e-6 for r in payload["rows"])

    def test_ws_endpoint_fraction_rejected(self, tmp_path):
        code = run(["verify", "ws", "--s-fractions", "0",
                    "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_ws_tolerance_failure_exit(self, tmp_path):
        # an unreachable tolerance must exit 1, not crash
        code = run(["verify", "ws", "--alpha-list", "0.5",
                    "--s-fractions", "0.5", "--tol", "1e-16",
                    "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_appendix_all(self, tmp_path):
        out = tmp_path / "app.json"
        code = run(["verify", "appendix", "--which", "all", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        kinds = {r["check"] for r in payload["rows"]}
        assert kinds == {"fresnel", "selberg"}
        assert payload["pass"] is True


class TestVandantzigCommands:
    def test_pair_passes(self, tmp_path):
        out = tmp_path / "pair.json"
        code = run(["vandantzig", "pair", "--alpha", "0.5", "--mc", "20000",
                    "--seed", "11", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["max_identity_error"] <= 1e-8
        assert payload["bochner_min_eigenvalue"] >= -1e-10
        assert payload["mc_cf_max_z_score"] <= 4.0

    def test_pair_domain(self, tmp_path):
        code = run(["vandantzig", "pair", "--alpha", "-0.7",
                    "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_pair_overflow_grid(self, tmp_path):
        # grid far beyond the modified-Bessel overflow threshold
        code = run(["vandantzig", "pair", "--alpha", "1.0", "--grid-max",
                    "900", "--mc", "1000", "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_sample_csv(self, tmp_path):
        out = tmp_path / "draws.csv"
        code = run(["vandantzig", "sample", "--alpha", "1.0", "--count", "64",
                    "--kind", "Y", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "value"
        assert len(lines) == 65

    def test_determinism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code = run(["vandantzig", "pair", "--alpha", "1.0", "--mc", "10000",
                        "--seed", "7", "--out", str(path)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestGammatypeCommands:
    def test_exists_quartet(self, tmp_path):
        out = tmp_path / "e.json"
        assert run(["gammatype", "exists", "-a", "1", "-b", "1", "-c", "3",
                    "-d", "1.5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["state"] == "Exists"
        assert run(["gammatype", "exists", "-a", "1", "-b", "1", "-c", "2",
                    "-d", "2", "--out", str(out)]) == 3

    def test_exists_counterexample_spec(self, tmp_path):
        out = tmp_path / "cx.json"
        spec = '{"a": ["2", "16/5", "17/5"], "c": ["11/5", "12/5", "4"]}'
        code = run(["gammatype", "exists", "--spec-json", spec, "--out", str(out)])
        assert code == 3
        payload = json.loads(out.read_text())
        assert payload["reason"] == "atom-exceeds-one"
        assert abs(payload["atom_at_one"] - 150.0 / 132.0) <= 1e-12

    def test_exists_invalid_spec(self, tmp_path):
        assert run(["gammatype", "exists", "--spec-json", '{"a": [-1]}',
                    "--out", str(tmp_path / "x.json")]) == 2
        assert run(["gammatype", "exists", "--out", str(tmp_path / "x.json")]) == 2

    def test_boundary_csv_linear_head(self, tmp_path):
        out = tmp_path / "b.csv"
        code = run(["gammatype", "boundary", "-a", "1", "-b", "1",
                    "--u-from", "2.5", "--u-to", "3.0", "--u-count", "3",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "u,f_value,bracket_width,method"
        first = lines[1].split(",")
        assert float(first[0]) == 2.5
        assert float(first[1]) == pytest.approx(4.5 - 2.5, abs=1e-12)
        assert first[3] == "LinearSegment"

    @pytest.mark.parametrize("command", [
        ["boundary", "--u-from", "3.5", "--u-to", "4.0", "--u-count", "2"],
        ["convexity", "--u-from", "2.5", "--u-to", "3.5", "--u-count", "3"]])
    def test_zero_resolution_is_usage_error(self, command, tmp_path, monkeypatch):
        # used to bisect forever; exists_D is replaced so it cannot hang
        def unreachable(*args, **kwargs):
            raise AssertionError("bisection reached")

        monkeypatch.setattr(cli.gammatype, "exists_D", unreachable)
        code = run(["gammatype", command[0], "-a", "1", "-b", "1", *command[1:],
                    "--resolution", "0", "--out", str(tmp_path / "x.out")])
        assert code == 2

    def test_density(self, tmp_path):
        out = tmp_path / "d.json"
        code = run(["gammatype", "density", "--spec-json", '{"a": [1]}',
                    "--x-list", "0.5,1.5", "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        import math
        assert rows[0]["density"] == pytest.approx(math.exp(-0.5), abs=1e-8)

    def test_quasilevy(self, tmp_path):
        out = tmp_path / "q.json"
        code = run(["gammatype", "quasilevy", "-a", "1", "-b", "1",
                    "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["root"] < 0.0
        assert all(c["rel_err"] <= 1e-5 for c in payload["reconstruction"])

    def test_convexity(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(["gammatype", "convexity", "-a", "1", "-b", "1",
                    "--u-from", "2.5", "--u-to", "4.0", "--u-count", "4",
                    "--resolution", "5e-3", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["monotonicity_violations"] == 0


class TestSampleCommands:
    def test_ratio_product(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(["sample", "ratio-product", "--spec-json", '{"a": [1]}',
                    "--count", "50", "--seed", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "value" and len(lines) == 51

    def test_bad_shape(self, tmp_path):
        code = run(["sample", "ratio-product", "--spec-json",
                    '{"a": [1], "c": [2, 3]}', "--out", str(tmp_path / "x.csv")])
        assert code == 2


def test_manifest_contents(tmp_path):
    out = tmp_path / "m.json"
    assert run(["verify", "appendix", "--which", "fresnel", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
    assert {"command", "seed", "precision", "versions", "wall_time_s",
            "output_sha256"} <= set(manifest)
    import hashlib
    assert manifest["output_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
