import hashlib
import json
import os
import shlex
from pathlib import Path

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
        assert {tuple(sorted(r)) for r in payload["rows"]} == {
            ("abs_err", "alpha", "lhs", "rhs", "t")}
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

    def test_removed_truncation_flag_is_usage_error(self, tmp_path):
        # the draws no longer depend on the zero-table size
        with pytest.raises(SystemExit) as exc:
            run(["vandantzig", "sample", "--alpha", "1.0", "--truncation", "64",
                 "--out", str(tmp_path / "draws.csv")])
        assert exc.value.code == 2

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

    # sha256 of the output bytes at fixed inputs: a change that keeps
    # behaviour keeps these bytes, and any change of a verdict, a bracket
    # or a number's last printed digit shows here
    PINNED_OUTPUTS = [
        (["boundary", "-a", "1", "-b", "1", "--u-from", "3.5", "--u-to", "6.5",
          "--u-count", "4"],
         "a79d2cdd038120cf85570c110b72aa5cb21123ca09222db09de15902b6159bf3"),
        (["exists", "-a", "1", "-b", "1", "-c", "2", "-d", "5"],
         "2349f6088edf004d214574f63d9e3480be2fca6c70c6cd9f7347885300e0901b"),
        (["convexity", "-a", "0.5", "-b", "0.5", "--u-from", "2.5", "--u-to", "3.5",
          "--u-count", "3"],
         "2def64e70d87449edcf903ec339f3b5a2699edb9498e3ccaba974830a4f634f4"),
    ]

    @pytest.mark.parametrize("command, sha256", PINNED_OUTPUTS,
                             ids=[case[0][0] for case in PINNED_OUTPUTS])
    def test_output_bytes_pinned(self, command, sha256, tmp_path):
        out = tmp_path / "out"
        assert run(["gammatype", *command, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_removed_precision_flag_is_usage_error(self, tmp_path):
        command, _ = self.PINNED_OUTPUTS[0]
        with pytest.raises(SystemExit) as exc:
            run(["gammatype", *command, "--highprec-digits", "80",
                 "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("truncation", ["-5", "0", "nan", "inf"])
    def test_density_bad_truncation_is_usage_error(self, truncation, tmp_path):
        # -5 used to print the density of Gamma_2 / Gamma_3 at 0.7 with its
        # sign flipped, and 0 printed 0.0
        code = run(["gammatype", "density", "--spec-json", '{"a":[2],"b":[3]}',
                    "--x-list", "0.7", "--truncation", truncation,
                    "--out", str(tmp_path / "d.json")])
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


@pytest.mark.parametrize("argv", [
    ["vandantzig", "sample", "--alpha", "-0.7"],
    ["gammatype", "quasilevy", "-a", "0", "-b", "1"],
    ["sample", "ratio-product", "--spec-json", '{"a": [1'],
    # one sample has no standard deviation: the check read z = 0 and passed
    ["vandantzig", "pair", "--alpha", "0.5", "--mc", "1"],
    # x = inf died with an uncaught ZeroDivisionError
    ["gammatype", "density", "--spec-json", '{"a":[2],"b":[3]}', "--x-list", "inf"],
    # these three died with a ZeroDivisionError traceback and exit 1
    ["gammatype", "exists", "-a", "1/0", "-b", "1", "-c", "1", "-d", "1"],
    ["gammatype", "exists", "--spec-json", '{"a": ["1/0"]}'],
    ["verify", "lommel", "--alpha-list=-0.4", "--t-list", "0"],
    # a spec that is not an object, a set that is not a list, and an entry
    # that is not a number or string died with a traceback and exit 1;
    # true was read as 1.0, an unknown key was dropped and an infinite
    # entry gave a verdict
    ["gammatype", "exists", "--spec-json", "[1]"],
    ["gammatype", "exists", "--spec-json", '{"a": 1}'],
    ["gammatype", "exists", "--spec-json", '{"a": [null]}'],
    ["gammatype", "exists", "--spec-json", '{"a": [true]}'],
    ["gammatype", "exists", "--spec-json", '{"a": [1], "q": [2]}'],
    ["gammatype", "exists", "--spec-json", '{"a": [Infinity]}'],
    # an infinite flag gave a verdict: Exists at c = inf, NotExists at
    # a = 1e400
    ["gammatype", "exists", "-a", "1", "-b", "1", "-c", "inf", "-d", "2"],
    ["gammatype", "exists", "-a", "1e400", "-b", "1", "-c", "1", "-d", "1"],
], ids=["sample-alpha", "quasilevy-a", "spec-not-json", "pair-one-sample", "density-x-inf",
        "exists-zero-denominator", "spec-zero-denominator", "lommel-negative-order-at-0",
        "spec-not-object", "spec-set-not-list", "spec-entry-null", "spec-entry-bool",
        "spec-unknown-key", "spec-entry-infinity", "exists-c-inf", "exists-a-overflow"])
def test_domain_error_exits_2_without_output(argv, tmp_path):
    # the commands leave these errors to main's one mapping
    out = tmp_path / "x.out"
    assert run([*argv, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["verify", "lommel", "--alpha-list", "-0.6"], "alpha must exceed -1/2"),
    (["verify", "ws", "--alpha-list", "-0.5"], "alpha must exceed -1/2"),
    (["verify", "ws", "--s-fractions", "0.5,1"], "s fractions must lie strictly inside (0, 1)"),
    (["gammatype", "exists", "-a", "1", "-b", "1"], "give either a spec or all of -a -b -c -d"),
    (["gammatype", "boundary", "-a", "1", "-b", "1", "--u-from", "2", "--u-to", "3"],
     "u range must start at or above 2.25"),
    # a zero denominator names its text, on the flag and the spec path
    (["gammatype", "exists", "-a", "1/0", "-b", "1", "-c", "1", "-d", "1"],
     "zero denominator in '1/0'"),
    (["gammatype", "exists", "--spec-json", '{"a": ["2/0"]}'], "zero denominator in '2/0'"),
    # an entry past the double range named neither itself nor its set
    (["gammatype", "exists", "--spec-json", '{"a":["1e400"],"c":[2]}'],
     "not a finite double: '1e400'"),
], ids=["lommel-alpha", "ws-alpha", "ws-fraction", "exists-no-parameters", "boundary-u-range",
        "exists-zero-denominator", "spec-zero-denominator", "spec-entry-overflow"])
def test_usage_error_text(argv, message, tmp_path, capsys):
    out = tmp_path / "x.out"
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


def test_manifest_contents(tmp_path):
    out = tmp_path / "m.json"
    assert run(["verify", "appendix", "--which", "fresnel", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
    assert {"command", "seed", "precision", "versions", "wall_time_s",
            "output_sha256"} <= set(manifest)
    import hashlib
    assert manifest["output_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()


def test_manifest_records_the_parsed_argv(tmp_path):
    # an in-process run records its own command, not the host's sys.argv
    out = tmp_path / "draws.csv"
    argv = ["vandantzig", "sample", "--alpha", "1", "--count", "16", "--kind", "Y",
            "--out", str(out)]
    assert run(argv) == 0
    manifest = json.loads((tmp_path / "draws.csv.manifest.json").read_text())
    assert shlex.split(manifest["command"]) == ["besselprob", *argv]


# every command line of the README, with its documented exit code: 0, or 3
# (not-exists) for the bounded-support counterexample
README = Path(__file__).resolve().parent.parent / "README.md"
README_COMMANDS = [shlex.split(line)[1:] for line in README.read_text().splitlines()
                   if line.startswith("besselprob ")]
COUNTEREXAMPLE = '{"a":["2","16/5","17/5"],"c":["11/5","12/5","4"]}'


def test_readme_has_commands():
    assert len(README_COMMANDS) >= 12


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[" ".join(a[:2]) for a in README_COMMANDS])
def test_readme_command_runs(argv, tmp_path):
    expected = 3 if COUNTEREXAMPLE in argv else 0
    assert run(argv + ["--out", str(tmp_path / "out")]) == expected
