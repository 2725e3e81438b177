import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tameprobe
from tameprobe.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_OUTPUT,
    EXIT_UNEXPECTED,
    ConfigError,
    ScenarioConfig,
    main,
    parse_phi,
    parse_x,
)
from tameprobe.driver import MAX_M
from tameprobe.functions import PERIODIC
from tameprobe.jets import MAX_ORDER
from tameprobe.primitives import Exp, Polynomial, Sin

SMALL = "16,32,64"
NAN, INF = float("nan"), float("inf")


class TestParsers:
    def test_phi_registry(self):
        assert isinstance(parse_phi("sin"), Sin)
        assert parse_phi("affine:2,1") == Polynomial([1.0, 2.0])
        assert isinstance(parse_phi("poly:1,0,3"), Polynomial)
        assert parse_phi("t_plus_exp") == Exp((0.0, 1.0))

    def test_phi_errors(self):
        with pytest.raises(ConfigError):
            parse_phi("sec")
        with pytest.raises(ConfigError):
            parse_phi("affine:1")

    def test_x_registry(self):
        assert parse_x("zero", PERIODIC).evaluate(0.3) == 0.0
        assert parse_x("const:2.5", PERIODIC).evaluate(0.1) == 2.5
        f = parse_x("sinusoid:0.1,2", PERIODIC)
        assert f.evaluate(0.0) == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(ConfigError):
            parse_x("mystery", PERIODIC)


class TestDemo:
    def test_large_constant_base_point(self, capsys):
        # n + x' = 1 everywhere; x's own size once counted against the
        # domain margin, and this run exited 64. The anchor lies in [0, 1)
        # and certifies the m of x = 0.
        for c in ("5000", "1e8"):
            code = main(["demo", "ex2", "--x", f"const:{c}", "--m-list",
                         "16,32"])
            out, err = capsys.readouterr()
            assert code == EXIT_OK, err
            assert out.endswith("certified m = 8\n")

    def test_oscillatory_violation(self, capsys):
        code = main(["demo", "ex2", "--phi", "sin", "--n", "1", "--k", "3",
                     "--l", "8", "--m-list", SMALL])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "estimate violated = True" in out
        assert "fitted slope = " in out
        assert "certified m = " in out

    @pytest.mark.parametrize("argv, code, why", [
        # cos read at phi's argument 1e300 is rounding noise, and a sweep
        # there shows no growth: the anchor search stops first
        (["--phi", "cos", "--x", "const:1e300", "--m-list", "16,32"],
         EXIT_BUDGET, None),
        (["--m-list", "16"], EXIT_UNEXPECTED,
         "a single m, or a top_deriv_s0 of 0, fits no slope"),
    ], ids=["flat", "one-m"])
    def test_no_certificate_without_growth(self, capsys, argv, code, why):
        got = main(["demo", "ex2"] + argv)
        out, err = capsys.readouterr()
        assert got == code
        assert "certified m" not in out
        if why is None:
            assert out == ""
            assert err.startswith("error: phi's argument reaches 1e+300, ")
            assert err.endswith("exceeds the precision budget\n")
        else:
            assert "fitted slope = n/a" in out
            assert out.endswith(f"no certificate: {why}, so no sqrt(m) "
                                "growth was seen\n")

    def test_degenerate_affine(self, capsys):
        code = main(["demo", "ex4", "--phi", "affine:2,1",
                     "--m-list", "16,32"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "estimate violated = False" in out
        assert "degenerate" in out

    def test_degenerate_label_names_what_was_checked(self, capsys):
        # phi'' vanishes on the range of x = 0, but v = -0.003 z^2 u does not
        code = main(["demo", "ex4", "--phi", "poly:0,1,0,-0.001",
                     "--m-list", "16,32"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert ("degenerate anchor: phi'' vanishes on the anchor grid, "
                "so no sqrt(m) growth is predicted") in out
        assert "vanishes identically" not in out

    def test_even_k_rejected(self, capsys):
        code = main(["demo", "ex2", "--k", "4"])
        assert code == EXIT_CONFIG
        assert "k must be odd" in capsys.readouterr().err

    def test_zero_winding_rejected(self):
        assert main(["demo", "ex2", "--n", "0"]) == EXIT_CONFIG

    def test_winding_past_double_range_rejected(self, capsys):
        # float(n) would overflow when the map builds its inner argument
        code = main(["demo", "ex2", "--n", "1" + "0" * 400,
                     "--m-list", "16"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "error: winding number n must be finite in double precision\n"

    def test_nonperiodic_phi_rejected(self):
        assert main(["demo", "ex2", "--phi", "poly:0,1"]) == EXIT_CONFIG

    def test_base_point_outside_domain(self, capsys):
        # x' reaches -pi, so n + x' crosses zero for n = 1
        code = main(["demo", "ex2", "--x", "sinusoid:0.5,1",
                     "--m-list", "16,32"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err == "error: base point outside map domain (margin 0.000e+00)\n"

    def test_perturbed_point_outside_domain(self, capsys):
        # x = 0 is in the domain (n + x' = 1), but z' has amplitude
        # (2 pi 16)^(1/2) ~ 10 at k = 1, so n + x' + z' crosses zero
        code = main(["demo", "ex2", "--k", "1", "--m-list", "16,32"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err == ("error: x + z at m = 16 leaves the map's domain "
                       "(margin 0.000e+00)\n")

    def test_coarse_m_outside_domain_is_no_certificate(self, capsys):
        # at k = 1, z' has amplitude (2 pi m)^(1/2), 20.05 at m = 64, so
        # n + z' crosses zero for n = 20 there. The residual bound reads
        # m = 64 though the user's list lacks it: no certificate, not a
        # configuration error
        argv = ["demo", "ex2", "--n", "20", "--k", "1", "--m-list"]
        code = main(argv + ["16,32"])
        out, err = capsys.readouterr()
        assert code == EXIT_UNEXPECTED
        assert err == ""
        assert "certified m" not in out
        assert out.endswith(
            "\nno certificate: the residual bound reads m = 16, 64 and 256, "
            "and x + z at m = 64 leaves the map's domain (margin 0.000e+00)\n")
        # at an m of the sweep's own list it still is one, before any output
        code = main(argv + ["16,64"])
        out, err = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == ("error: x + z at m = 64 leaves the map's domain "
                       "(margin 0.000e+00)\n")

    @pytest.mark.parametrize("flags, message", [
        (["--x", "sinusoid:0.5"], "expected at least 2, got 1"),
        (["--x", "sinusoid:0.01,1,2,3"], "sinusoid takes amp,freq[,phase]"),
        (["--x", "sinusoid:0.01,0"], "sinusoid frequency must be nonzero"),
        (["--x", "sinusoid:0.01,1e-320"],
         "bad x descriptor 'sinusoid:0.01,1e-320': sinusoid frequency must "
         "be nonzero with a finite period"),
        (["--x", "const:inf"], "numbers must be finite"),
        (["--x", "const:nan"], "numbers must be finite"),
        (["--x", "sinusoid:nan,1"], "numbers must be finite"),
        (["--phi", "poly:nan"], "numbers must be finite"),
        (["--phi", "sin:3"], "sin takes no numbers"),
        (["--x", "zero:1"], "zero takes no numbers"),
        (["--m-list", "16,x"], "bad m list '16,x'"),
    ], ids=["sinusoid-one-number", "sinusoid-four-numbers",
            "sinusoid-zero-frequency", "sinusoid-subnormal-frequency",
            "const-inf", "const-nan",
            "sinusoid-nan", "poly-nan", "sin-with-numbers",
            "zero-with-number", "m-list-not-integer"])
    def test_bad_descriptor_rejected(self, capsys, flags, message):
        code = main(["demo", "ex2", "--m-list", "16,32"] + flags)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert message in err

    def test_infinite_affine_phi_rejected(self, capsys):
        code = main(["demo", "ex4", "--phi", "affine:inf,0",
                     "--m-list", "16,32"])
        assert code == EXIT_CONFIG
        assert "numbers must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("variant, phi", [("ex2", "sin"),
                                              ("ex4", "t_plus_exp")])
    def test_k_above_order_cap_rejected(self, capsys, variant, phi):
        code = main(["demo", variant, "--phi", phi, "--k", "17",
                     "--m-list", "16,32"])
        assert code == EXIT_CONFIG
        assert f"exceeds the order cap {MAX_ORDER}" in capsys.readouterr().err

    @pytest.mark.parametrize("variant, phi", [("ex2", "sin"),
                                              ("ex4", "t_plus_exp")])
    def test_largest_k_accepted(self, variant, phi):
        # ex4 differentiates v k times, ex2 k - 1 times; z needs k for both
        k = MAX_ORDER - 1
        ScenarioConfig(variant=variant, phi=phi, k=k).validate()
        with pytest.raises(ConfigError):
            ScenarioConfig(variant=variant, phi=phi, k=k + 2).validate()

    # a value beyond double range or a grid above 2^24 points exits 65, and
    # no step may raise a Python error on the way
    @pytest.mark.parametrize("argv, code, message", [
        (["--phi", "t_plus_exp", "--x", "const:800"], EXIT_BUDGET,
         "top_deriv_s0, predicted, tz_sup, rho2_v not finite at m = 16"),
        (["--phi", "poly:0,1,0,1", "--x", "const:1e200"], EXIT_BUDGET,
         "rho2_v not finite at m = 16"),
        # v's seminorms overflow from rung 6 on, so rho2(v) is NaN
        (["--phi", "t_plus_exp", "--x", "const:700"], EXIT_BUDGET,
         "rho2_v not finite at m = 16"),
        # the sweep is finite, and (l + M)^2 alone would overflow
        (["--phi", "t_plus_exp", "--x", "const:600"], EXIT_OK, ""),
    ], ids=["exp-800", "cubic-1e200", "exp-700", "exp-600"])
    def test_double_range_ends_cleanly(self, capsys, argv, code, message):
        # a numpy overflow warning would raise here, not print ahead of
        # the error line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = main(["demo", "ex4"] + argv)
        out, err = capsys.readouterr()
        assert got == code
        if code == EXIT_OK:
            assert "certified m = 2" in out
        else:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert message in err

    # from finite input, phi'' of the first cubic, phi' of the second and
    # x' leave double range; no constructor's finiteness rule may turn
    # them into tracebacks
    @pytest.mark.parametrize("argv, code, message", [
        (["ex4", "--phi", "poly:0,1,0,5e307"], EXIT_BUDGET,
         "the derivative of the polynomial (1.0, 0.0, 1.5e+308) leaves "
         "double range"),
        # it exited 64 with "phi must have positive derivative"
        (["ex4", "--phi", "poly:0,1,0,1e308"], EXIT_BUDGET,
         "the derivative of the polynomial (0.0, 1.0, 0.0, 1e+308) leaves "
         "double range"),
        (["ex2", "--x", "sinusoid:1e305,1000"], EXIT_CONFIG,
         "base point outside map domain (margin 0.000e+00)"),
    ], ids=["cubic-second-derivative", "cubic-first-derivative",
            "x-derivative"])
    def test_derivative_past_double_range(self, capsys, argv, code,
                                          message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = main(["demo"] + argv + ["--m-list", "16,32"])
        err = capsys.readouterr().err
        assert got == code
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, size", [
        # a winding of 1e12 exits 65 at the anchor search already
        (["--n", "1000000000"], "6.4e+10"),
        (["--x", "sinusoid:1e-12,100000000"], "6.4e+09"),
        (["--x", "sinusoid:1e-301,1e300"], "inf"),
    ], ids=["winding", "x-frequency", "x-frequency-huge"])
    def test_grid_above_cap_rejected(self, capsys, argv, size):
        assert main(["demo", "ex2"] + argv) == EXIT_BUDGET
        assert (f"a grid of {size} points exceeds the cap of 16777216"
                in capsys.readouterr().err)

    def test_budget_exceeded(self, capsys):
        # second derivative of phi is tiny but nonzero, so no m in the
        # double-precision budget can certify the inequalities
        code = main(["demo", "ex4", "--phi", "poly:0,1,1e-9",
                     "--m-list", "16,32"])
        assert code == EXIT_BUDGET
        assert "budget" in capsys.readouterr().err


HUGE = 10**400


class TestIntegerPastDoubleRange:
    """An integer past double range, from a flag, a config or a probe
    file, exits 64 with one error line: float() of it raised
    OverflowError, a traceback and exit 1."""

    def run(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return code, err

    def test_level_flag(self, capsys):
        code, err = self.run(capsys, ["demo", "ex2", "--l", str(HUGE),
                                      "--m-list", "16,32"])
        assert code == EXIT_CONFIG
        assert err == "error: l must be finite in double precision\n"

    def test_level_inside_double_range_is_a_budget(self, capsys):
        # u = 1e-308 is a double, and no m up to the cap certifies l
        code, err = self.run(capsys, ["demo", "ex2", "--l", str(10**308),
                                      "--m-list", "16,32"])
        assert code == EXIT_BUDGET
        assert "required m exceeds precision budget" in err

    def test_level_in_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"l": HUGE}))
        code, err = self.run(capsys, ["demo", "ex2", "--config", str(path),
                                      "--m-list", "16,32"])
        assert code == EXIT_CONFIG
        assert err == "error: l must be finite in double precision\n"

    def test_integer_too_long_to_read(self, tmp_path, capsys):
        # past 4300 digits json.load raises a plain ValueError
        path = tmp_path / "cfg.json"
        path.write_text('{"l": 1' + "0" * 5000 + "}")
        code, err = self.run(capsys, ["demo", "ex2", "--config", str(path),
                                      "--m-list", "16,32"])
        assert code == EXIT_CONFIG
        assert err.startswith("error: cannot read config file: Exceeds")

    @pytest.mark.parametrize("entry, what", [
        ({"m": 64, "k": 3, "s0": HUGE}, "probe s0"),
        ({"z": {"amplitude": HUGE, "frequency": 3}, "u": {"constant": 0.125}},
         "probe z amplitude"),
        ({"z": {"amplitude": 0.01, "frequency": HUGE},
          "u": {"constant": 0.125}}, "probe z frequency"),
        ({"z": {"amplitude": 0.01, "frequency": 3, "phase": HUGE},
          "u": {"constant": 0.125}}, "probe z phase"),
        ({"z": {"amplitude": 0.01, "frequency": 3}, "u": {"constant": HUGE}},
         "probe u constant"),
    ], ids=["s0", "amplitude", "frequency", "phase", "constant"])
    def test_probe_number(self, tmp_path, capsys, entry, what):
        path = tmp_path / "probes.json"
        path.write_text(json.dumps([entry]))
        code, err = self.run(capsys, ["check-tame", "ex2", "--probes",
                                      str(path)])
        assert code == EXIT_CONFIG
        assert err == f"error: {what} must be finite, got {HUGE}\n"


class TestSweep:
    def test_csv_artifact(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "ex2", "--m-list", SMALL, "-o", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == \
            "m,p_km1_z,rho1_z,rho1_u,top_deriv_s0,predicted,Tz_sup,rho2_v"
        assert len(lines) == 4
        import math
        for line in lines[1:]:
            cells = line.split(",")
            m = int(cells[0])
            assert float(cells[1]) == pytest.approx(
                (2 * math.pi * m)**-0.5, rel=1e-12)

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "ex2", "--m-list", "16,32", "-o", str(a)])
        main(["sweep", "ex2", "--m-list", "16,32", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_precision(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sweep", "ex2", "--m-list", "16,32", "-o", str(out)])
        from tameprobe.driver import growth_sweep
        from tameprobe.maps import CirclePullback
        from tameprobe.primitives import Sin
        from tameprobe.functions import zero
        from tameprobe.tameness import PNormSpec
        import math
        res = growth_sweep(CirclePullback(Sin(omega=2 * math.pi), 1), zero(),
                           PNormSpec(), PNormSpec(), 3, 8, [16, 32])
        lines = out.read_text().strip().splitlines()[1:]
        for line, r in zip(lines, res.records):
            cells = [float(v) for v in line.split(",")]
            assert cells[1:] == [r.p_km1_z, r.rho1_z, r.rho1_u,
                                 r.top_deriv_s0, r.predicted, r.tz_sup,
                                 r.rho2_v]

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "ex2", "--m-list", "16,32",
                     "--format", "json", "-o", str(out)])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert [d["m"] for d in data] == [16, 32]
        assert set(data[0]) == {"m", "p_km1_z", "rho1_z", "rho1_u",
                                "top_deriv_s0", "predicted", "Tz_sup",
                                "rho2_v"}

    def test_unwritable_path(self):
        code = main(["sweep", "ex2", "--m-list", "16,32",
                     "-o", "/nonexistent-dir/sweep.csv"])
        assert code == EXIT_OUTPUT

    def test_missing_output(self):
        assert main(["sweep", "ex2", "--m-list", "16,32"]) == EXIT_CONFIG


class TestCheckTame:
    def probe_file(self, tmp_path, entries):
        path = tmp_path / "probes.json"
        path.write_text(json.dumps(entries))
        return str(path)

    def test_witnesses_reported(self, tmp_path, capsys):
        path = self.probe_file(tmp_path, [{"m": 16, "k": 3},
                                          {"m": 64, "k": 3}])
        code = main(["check-tame", "ex2", "--probes", path])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "satisfied = False" in out
        assert "witness:" in out

    def test_constant_phi_satisfied(self, tmp_path, capsys):
        path = self.probe_file(tmp_path, [{"m": 16, "k": 3}])
        code = main(["check-tame", "ex2", "--phi", "affine:0,0.3",
                     "--probes", path])
        assert code == EXIT_OK
        assert "satisfied = True" in capsys.readouterr().out

    def test_explicit_descriptors(self, tmp_path, capsys):
        z = {"amplitude": 1e-4, "frequency": 2.0, "phase": 0.0}
        path = self.probe_file(tmp_path, [{"z": z, "u": {"constant": 0.125}}])
        code = main(["check-tame", "ex2", "--probes", path])
        assert code == EXIT_OK

    @pytest.mark.parametrize("argv, message", [
        # rho2(v) is NaN, and NaN > rhs would read as "satisfied = True"
        (["ex4", "--phi", "t_plus_exp", "--x", "const:800"],
         "rho2(v) = nan, rho1(u) = 0.222195095486: a value is beyond "
         "double range"),
        (["ex2", "--x", "sinusoid:1e-12,100000000"],
         "a grid of 6.4e+09 points exceeds the cap of 16777216"),
    ], ids=["exp-800", "x-frequency"])
    def test_budget_exceeded(self, tmp_path, capsys, argv, message):
        path = self.probe_file(tmp_path, [{"m": 16, "k": 3},
                                          {"m": 64, "k": 3}])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check-tame"] + argv + ["--probes", path])
        out, err = capsys.readouterr()
        assert code == EXIT_BUDGET
        assert err == f"error: {message}\n"
        assert "satisfied" not in out

    def test_empty_file_rejected(self, tmp_path):
        path = self.probe_file(tmp_path, [])
        assert main(["check-tame", "ex2", "--probes", path]) == EXIT_CONFIG

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "probes.json"
        path.write_text("{not json")
        assert main(["check-tame", "ex2", "--probes", str(path)]) == EXIT_CONFIG

    def test_bad_entry_rejected(self, tmp_path):
        path = self.probe_file(tmp_path, [{"frequency": 16}])
        assert main(["check-tame", "ex2", "--probes", path]) == EXIT_CONFIG

    @pytest.mark.parametrize("variant, phi", [("ex2", "sin"),
                                              ("ex4", "t_plus_exp")])
    @pytest.mark.parametrize("entry, message", [
        ({"m": 1.5, "k": 3}, "probe m must be an integer, got 1.5"),
        ({"m": True, "k": 3}, "probe m must be an integer, got True"),
        ({"m": 16, "k": 3.0}, "probe k must be an integer, got 3.0"),
        ({"m": MAX_M * 2, "k": 3}, f"probe m = {MAX_M * 2} exceeds {MAX_M}"),
        ({"m": 16, "k": 10**400 + 1}, "exceeds the order cap"),
        ({"z": {"amplitude": 1e-4, "frequency": 0}, "u": {"constant": 0.125}},
         "probe z frequency must be nonzero"),
        ({"z": {"amplitude": float("nan"), "frequency": 2},
          "u": {"constant": 0.125}}, "probe z amplitude must be finite"),
        ({"z": {"amplitude": 1e-4, "frequency": 1e300},
          "u": {"constant": 0.125}}, "probe z frequency must be nonzero"),
        ({"z": {"amplitude": 1e-4, "frequency": MAX_M * 2},
          "u": {"constant": 0.125}}, "probe z frequency must be nonzero"),
        ({"z": {"amplitude": 1e-4, "frequency": 1e-320},
          "u": {"constant": 0.125}}, "sinusoid frequency must be nonzero "
         "with a finite period, got 1e-320"),
        ({"z": {"amplitude": 1e-4, "frequency": 2},
          "u": {"constant": float("inf")}}, "probe u constant must be finite"),
        # unknown keys were ignored: s_0 ran with the anchor's s0
        ({"m": 16, "k": 3, "s_0": 0.3}, "unknown probe entry key 's_0'"),
        ({"z": {"amplitude": 1e-4, "frequency": 2}, "u": {"constant": 0.125},
          "m": 16}, "unknown probe entry key 'm'"),
        ({"z": {"amplitude": 1e-4, "frequency": 2, "phse": 0.5},
          "u": {"constant": 0.125}}, "unknown probe z key 'phse'"),
        ({"z": {"amplitude": 1e-4, "frequency": 2},
          "u": {"constant": 0.125, "slope": 1}},
         "unknown probe u key 'slope'"),
        (5, "bad probe entry 5"),
    ], ids=["m-float", "m-bool", "k-float", "m-above-cap", "k-huge",
            "zero-frequency", "nan-amplitude", "huge-frequency",
            "frequency-above-cap", "subnormal-frequency", "inf-constant",
            "unknown-key-mk", "unknown-key-zu", "unknown-key-z",
            "unknown-key-u", "not-an-object"])
    def test_bad_probe_value_rejected(self, tmp_path, capsys, variant, phi,
                                      entry, message):
        path = self.probe_file(tmp_path, [entry])
        code = main(["check-tame", variant, "--phi", phi, "--probes", path])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert message in err


class TestConfigFile:
    def test_json_config(self, tmp_path, capsys):
        cfg = {"variant": "ex2", "phi": "sin", "n": 1, "k": 3, "l": 8,
               "m_list": [16, 32],
               "rho1": {"truncation": 12}, "rho2": {"truncation": 12}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["demo", "--config", str(path)])
        assert code == EXIT_OK
        assert "estimate violated = True" in capsys.readouterr().out

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = {"variant": "ex2", "k": 3, "m_list": [16, 32]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["demo", "--config", str(path), "--k", "4"])
        assert code == EXIT_CONFIG
        assert "k must be odd" in capsys.readouterr().err

    @pytest.mark.parametrize("rho1", [{"truncation": 20}],
                             ids=["truncation-above-cap"])
    def test_bad_pnorm_rejected(self, tmp_path, capsys, rho1):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rho1": rho1}))
        code = main(["demo", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "bad rho1 in config" in err

    @pytest.mark.parametrize("cfg, message", [
        ({"k": "3"}, "k must be an integer, got '3'"),
        ({"m_list": 5}, "m_list must be a list of integers, got 5"),
        ({"output": 5}, "output must be a string, got 5"),
        ("k3", "config file must hold a JSON object"),
        # unknown keys were ignored: m-list ran the default sweep, and
        # truncaton the default truncation 12
        ({"m-list": [16, 32]}, "unknown config key 'm-list'"),
        ({"rho2": {"truncaton": 2}}, "unknown rho2 key 'truncaton'"),
        ({"variant": "ex9"}, "variant must be one of ex2, ex4, got 'ex9'"),
        ({"rho1": 5}, "rho1 must be a JSON object, got 5"),
    ], ids=["k-string", "m-list-int", "output-int",
            "not-an-object", "unknown-key", "unknown-rho-key",
            "unknown-variant", "rho-not-an-object"])
    def test_wrong_type_rejected(self, tmp_path, capsys, cfg, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["demo", "--config", str(path), "--m-list", "16,32"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("truncation", [2.7, True])
    def test_non_integer_truncation_rejected(self, tmp_path, capsys,
                                             truncation):
        # 2.7 ran as truncation 2, true as 1
        path = tmp_path / "cfg.json"
        out = tmp_path / "sweep.csv"
        path.write_text(json.dumps({"rho2": {"truncation": truncation},
                                    "m_list": [16, 32]}))
        code = main(["sweep", "--config", str(path), "-o", str(out)])
        assert code == EXIT_CONFIG
        assert "rho2 truncation must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_format_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        out = tmp_path / "sweep.xml"
        path.write_text(json.dumps({"format": "xml", "m_list": [16, 32]}))
        code = main(["sweep", "--config", str(path), "-o", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "error: format must be csv or json\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_m_above_cap_rejected(self, tmp_path, capsys, source):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"m_list": [16, MAX_M * 2]}))
        argv = ["demo", "--config", str(path)] if source == "config" else \
            ["demo", "ex2", "--m-list", f"16,{MAX_M * 2}"]
        assert main(argv) == EXIT_CONFIG
        assert f"m = {MAX_M * 2} exceeds {MAX_M}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("transform", "linear"),
        ("weights", [1.0, 0.5, 0.25]),
    ], ids=["transform", "weights"])
    def test_pnorm_knobs_retired(self, tmp_path, capsys, key, value):
        # a P-norm is its truncation: these keys ran a linear sum or
        # custom weights, and now name no setting
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rho1": {"truncation": 2, key: value}}))
        code = main(["demo", "--config", str(path), "--m-list", "16,32"])
        assert code == EXIT_CONFIG
        assert f"unknown rho1 key {key!r}" in capsys.readouterr().err

    def test_empty_m_list_rejected(self, tmp_path, capsys):
        # an empty sweep used to report "estimate violated = False", exit 2
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"m_list": []}))
        assert main(["demo", "--config", str(path)]) == EXIT_CONFIG
        assert "m list must not be empty" in capsys.readouterr().err

    def test_missing_config(self):
        assert main(["demo", "--config", "/nope.json"]) == EXIT_CONFIG

    @pytest.mark.parametrize("source, message", [
        ("flag", "unrecognized arguments: --grid-factor 16"),
        ("config", "unknown config key 'grid_factor'"),
    ])
    def test_grid_factor_retired(self, tmp_path, capsys, source, message):
        # the grid density is functions.GRID_FACTOR, which no input sets
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid_factor": 16}))
        argv = ["--grid-factor", "16"] if source == "flag" else \
            ["--config", str(path)]
        assert main(["demo", "ex2", *argv, "--m-list", "16,32"]) == EXIT_CONFIG
        assert message in capsys.readouterr().err


class TestEntry:
    def test_closed_stdout_exits_66(self):
        # the reader is gone before the first write: print's flush raised
        # BrokenPipeError, a traceback and exit 1, and the interpreter's
        # exit flush raised again ("Exception ignored")
        src = os.path.dirname(os.path.dirname(tameprobe.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "tameprobe.cli", "demo", "ex2",
             "--m-list", "16,32"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == EXIT_OUTPUT
        assert err == b""


# a small argv grammar for `demo`: well-formed descriptors, and malformed
# ones whose numbers are zero, non-finite or of the wrong count; k in
# -1..19; one or two m <= 64
PHIS = ("sin", "cos", "t_plus_exp", "affine:2,1", "affine:0,0.3",
        "poly:0,1,0,1", "poly:0,1,0,-0.001")
XS = ("zero", "const:0.3", "sinusoid:0.01,1", "sinusoid:0.3,2,0.25",
      "sinusoid:0.5,1")
PHI_NAMES = ("sin", "cos", "t_plus_exp", "affine", "poly", "tan")
X_NAMES = ("zero", "const", "sinusoid", "blob")
NUMBERS = ("0", "0.01", "0.3", "1", "2", "-1", "nan", "inf", "-inf", "x")


@st.composite
def descriptors(draw, known, names):
    if draw(st.booleans()):
        return draw(st.sampled_from(known))
    name = draw(st.sampled_from(names))
    numbers = draw(st.lists(st.sampled_from(NUMBERS), max_size=4))
    if not numbers and draw(st.booleans()):
        return name
    return name + ":" + ",".join(numbers)


@st.composite
def demo_argv(draw):
    argv = ["demo", draw(st.sampled_from(("ex2", "ex4")))]
    for flag, known, names in (("--phi", PHIS, PHI_NAMES),
                               ("--x", XS, X_NAMES)):
        if draw(st.booleans()):
            argv += [flag, draw(descriptors(known, names))]
    argv += ["--k", str(draw(st.integers(-1, 19)))]
    m_list = draw(st.lists(st.integers(1, 64), min_size=1, max_size=2))
    return argv + ["--m-list", ",".join(map(str, m_list))]


# a small grammar for check-tame probe files: (m, k) entries and explicit
# (z, u) entries whose values are mostly valid and otherwise floats,
# booleans, strings, zero, negative, non-finite, above the cap or missing;
# valid frequencies stay at most 64 so that every grid is small
ODD_NUMBERS = (NAN, INF, -INF, "0.01", None, True)


def _mostly(draw, valid, odd):
    """A valid value three times in four, else an odd one."""
    if draw(st.integers(0, 3)):
        return draw(st.sampled_from(valid))
    return draw(st.sampled_from(odd))


@st.composite
def probe_entry(draw):
    if draw(st.booleans()):
        entry = {"m": _mostly(draw, range(1, 65),
                              (0, -1, 1.5, MAX_M * 2) + ODD_NUMBERS),
                 "k": _mostly(draw, (1, 3, 5), (2, -1, 3.0, 17, 10**400 + 1)
                              + ODD_NUMBERS)}
        if draw(st.booleans()):
            entry["s0"] = _mostly(draw, (0.1, 0.5), ODD_NUMBERS)
        return entry
    z = {"amplitude": _mostly(draw, (0.0, 1e-4, 0.01, 0.3), ODD_NUMBERS),
         "frequency": _mostly(draw, (1, 2, 3, 64, -2, 1.5),
                              (0, 0.0, 1e-320, 1e300, MAX_M * 2)
                              + ODD_NUMBERS),
         "phase": _mostly(draw, (0.0, 0.25), ODD_NUMBERS)}
    if not draw(st.integers(0, 3)):
        del z[draw(st.sampled_from(sorted(z)))]
    return {"z": z,
            "u": {"constant": _mostly(draw, (0.125, 0.0, 1.0), ODD_NUMBERS)}}


# a small grammar for --config files: each key absent, valid, or of a
# wrong JSON type or value; rho1 and rho2 are P-norm objects (or not
# objects) that may hold the retired keys "transform" and "weights"; one
# unknown key, "m-list", may appear. Valid m lists stay at most 32 so that
# every grid is small.
CONFIG_VALUES = {
    "variant": (("ex2", "ex4"), ("ex9", 2, None)),
    "phi": (("sin", "t_plus_exp", "affine:2,1"), (1, None, ["sin"])),
    "x": (("zero", "sinusoid:0.01,1"), (0, {}, "sinusoid:0.01,1e-320")),
    "n": ((1, 2, -1), (0, 1.5, "1", True)),
    "k": ((1, 3, 5), (2, 3.0, "3", True, 10**400 + 1)),
    "l": ((1, 8), (0, 2.5, None)),
    "format": (("csv", "json"), ("xml", 1)),
    "output": (("out.csv",), (5, [])),
    "m_list": (([16], [16, 32]),
               (16, [], [16.0], [True], [32, 16], [0], ["16"], [MAX_M * 2])),
}


@st.composite
def pnorm_value(draw):
    if not draw(st.integers(0, 3)):
        return draw(st.sampled_from(("bounded", 3, [], None)))
    spec = {}
    if draw(st.booleans()):
        spec["truncation"] = _mostly(draw, (0, 2, 12),
                                     (MAX_ORDER + 1, -1, 2.7, True, "2"))
    if draw(st.booleans()):
        spec["transform"] = draw(st.sampled_from(("bounded", "linear")))
    if draw(st.booleans()):
        spec["weights"] = draw(st.sampled_from(([1.0, 0.5, 0.25], [])))
    return spec


RETIRED_PNORM_KEYS = {"transform", "weights"}


@st.composite
def config_file(draw):
    cfg = {}
    for key, (valid, odd) in CONFIG_VALUES.items():
        # without an m list the demo would sweep m up to 4096
        if key == "m_list" or draw(st.booleans()):
            cfg[key] = _mostly(draw, valid, odd)
    for key in ("rho1", "rho2"):
        if draw(st.booleans()):
            cfg[key] = draw(pnorm_value())
    if not draw(st.integers(0, 7)):
        cfg["m-list"] = [16, 32]
    return cfg


class TestFuzz:
    @given(demo_argv())
    @example(["demo", "ex2", "--x", "sinusoid:0.5", "--m-list", "16,32"])
    @example(["demo", "ex2", "--x", "sinusoid:0.01,0", "--m-list", "16"])
    @example(["demo", "ex2", "--x", "const:inf", "--m-list", "16"])
    @example(["demo", "ex2", "--x", "const:nan", "--m-list", "16"])
    @example(["demo", "ex2", "--x", "sinusoid:nan,1", "--m-list", "16"])
    @example(["demo", "ex2", "--phi", "poly:nan", "--m-list", "16"])
    @example(["demo", "ex4", "--phi", "affine:inf,0", "--m-list", "16"])
    @example(["demo", "ex2", "--k", "17", "--m-list", "16,32"])
    @example(["demo", "ex4", "--phi", "t_plus_exp", "--k", "17",
              "--m-list", "16,32"])
    @example(["demo", "ex4", "--phi", "t_plus_exp", "--x", "const:800",
              "--m-list", "16"])
    @example(["demo", "ex4", "--phi", "poly:0,1,0,1", "--x", "const:1e200",
              "--m-list", "16"])
    @example(["demo", "ex4", "--phi", "t_plus_exp", "--x", "const:700",
              "--m-list", "16"])
    @example(["demo", "ex4", "--phi", "t_plus_exp", "--x", "const:600",
              "--m-list", "16"])
    @example(["demo", "ex2", "--n", "1000000000000", "--m-list", "16"])
    @example(["demo", "ex2", "--n", "1" + "0" * 400, "--m-list", "16"])
    @example(["demo", "ex2", "--x", "sinusoid:1e-12,100000000",
              "--m-list", "16"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_demo_ends_in_documented_exit_code(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_UNEXPECTED, EXIT_CONFIG, EXIT_BUDGET,
                        EXIT_OUTPUT)
        assert "Traceback" not in err.getvalue()

    @given(st.sampled_from(("ex2", "ex4")),
           st.lists(probe_entry(), min_size=1, max_size=3))
    @example("ex2", [{"m": 1.5, "k": 3}])
    @example("ex4", [{"m": True, "k": 3}])
    @example("ex2", [{"z": {"amplitude": 1e-4, "frequency": 0},
                      "u": {"constant": 0.125}}])
    @example("ex2", [{"z": {"amplitude": NAN, "frequency": 2},
                      "u": {"constant": 0.125}}])
    @example("ex4", [{"z": {"amplitude": NAN, "frequency": 2},
                      "u": {"constant": 0.125}}])
    @example("ex4", [{"z": {"amplitude": 1e-4, "frequency": 1e300},
                      "u": {"constant": 0.125}}])
    @example("ex2", [{"m": MAX_M * 2, "k": 3}])
    @example("ex2", [{"m": 16, "k": 10**400 + 1}])
    @example("ex2", [{"z": {"amplitude": 1e-4, "frequency": 1e-320},
                      "u": {"constant": 0.125}}])
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_check_tame_ends_in_documented_exit_code(self, variant, entries):
        phi = "sin" if variant == "ex2" else "t_plus_exp"
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "probes.json")
            with open(path, "w") as fh:
                json.dump(entries, fh)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(["check-tame", variant, "--phi", phi,
                             "--probes", path])
        assert code in (EXIT_OK, EXIT_UNEXPECTED, EXIT_CONFIG, EXIT_BUDGET,
                        EXIT_OUTPUT)
        assert "Traceback" not in err.getvalue()

    @given(config_file())
    @example({"rho1": {"truncation": 2, "weights": ["1", True, 0.5]},
              "m_list": [16]})
    @example({"rho1": {"weights": []}, "m_list": [16]})
    @example({"rho2": {"truncation": 2, "transform": "linear"},
              "m_list": [16]})
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_config_ends_in_documented_exit_code(self, cfg):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(["demo", "--config", path])
        assert code in (EXIT_OK, EXIT_UNEXPECTED, EXIT_CONFIG, EXIT_BUDGET,
                        EXIT_OUTPUT)
        assert "Traceback" not in err.getvalue()
        if any(isinstance(cfg.get(key), dict)
               and RETIRED_PNORM_KEYS & cfg[key].keys()
               for key in ("rho1", "rho2")):
            assert code == EXIT_CONFIG
