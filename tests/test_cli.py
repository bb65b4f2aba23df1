"""Tests for the command-line front-end: parsing, formats, exit codes."""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import random
import re

import pytest

import scorerlib.airy
import scorerlib.cli
import scorerlib.engine
from scorerlib.cli import (
    _build_parser,
    _hi_by_quadrature,
    _selftest_checks,
    _z_from_polar,
    main,
    parse_phase,
)
from scorerlib.engine import gi, hi

_EVAL_KEYS = "z_re,z_im,function,value_re,value_im,method,abs_error_estimate,n_evaluations"


class TestPhaseParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi", math.pi),
            ("-pi", -math.pi),
            ("2pi/3", 2.0 * math.pi / 3.0),
            ("5pi/6", 5.0 * math.pi / 6.0),
            ("0.5pi", 0.5 * math.pi),
            ("-pi/2", -math.pi / 2.0),
            ("1.5", 1.5),
            ("-0.25", -0.25),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_phase(text) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "text",
        ["junk", "pi/", "2pi/0x3", "", "pipi", "pi/0", "2pi/0.0", "nan", "inf", "-inf", "1e400"],
    )
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            parse_phase(text)

    @pytest.mark.parametrize(
        "argv,bad",
        [
            (["eval", "--fn", "gi", "--r", "1", "--phase", "pi/0"], "pi/0"),
            (["arc", "--fn", "gi", "--radius", "1", "--stop", "2pi/0"], "2pi/0"),
            (["bench", "--phases", "pi/0"], "pi/0"),
            # Not finite: quoted, as the rejection names the text.
            (["bench", "--radii", "5", "--phases", "nan"], "'nan'"),
            (["eval", "--fn", "gi", "--r", "5", "--phase", "inf"], "'inf'"),
            (["arc", "--fn", "gi", "--radius", "1", "--start", "inf"], "'inf'"),
        ],
    )
    def test_zero_denominator_is_a_usage_error(self, argv, bad, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if bad in line]) == 1


class TestEvalCommand:
    def test_text_output_and_exit_code(self, capsys):
        rc = main(["eval", "--fn", "gi", "--re", "1", "--im", "0.2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "value_re = " in out
        assert "method = series" in out

    def test_an_overflow_prints_one_line_and_exits_2(self, capsys):
        assert main(["eval", "--fn", "bi", "--re", "110", "--im", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scorerlib: overflow: Ai: exp(-zeta) overflows at z = ")
        assert captured.err.count("\n") == 1

    def test_digits_flag_controls_precision(self, capsys):
        main(["eval", "--fn", "hi", "--r", "1", "--phase", "5pi/6", "--digits", "9"])
        out = capsys.readouterr().out
        assert "value_re = 0.223315665" in out
        assert "value_im = 0.0621330207" in out

    def test_text_output_is_pinned(self, capsys):
        assert main(["eval", "--fn", "gi", "--re", "1", "--im", "0.2"]) == 0
        assert capsys.readouterr().out == (
            "z_re = 1\n"
            "z_im = 0.2\n"
            "function = gi\n"
            "value_re = 0.23686822\n"
            "value_im = -0.0099367601\n"
            "method = series\n"
            "abs_error_estimate = 5.1796454e-16\n"
            "n_evaluations = 0\n"
        )

    def test_csv_output_has_stable_header(self, capsys):
        rc = main(["eval", "--fn", "gi", "--re", "1", "--im", "0.2", "--format", "csv"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[0] == _EVAL_KEYS
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert len(fields) == len(_EVAL_KEYS.split(","))
        assert fields[2] == "gi"
        # %.15e numeric formatting throughout
        assert "e+" in fields[0] or "e-" in fields[0]

    def test_json_round_trip_is_bit_exact(self, capsys):
        rc = main(["eval", "--fn", "hi", "--re", "-2", "--im", "1", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        ref = hi(complex(-2.0, 1.0))
        assert payload["value_re"] == ref.value.real
        assert payload["value_im"] == ref.value.imag
        assert payload["method"] == ref.method
        assert payload["n_evaluations"] == ref.n_evaluations
        assert payload["abs_error_estimate"] == ref.abs_error_estimate
        assert payload["z_re"] == -2.0 and payload["z_im"] == 1.0

    def test_json_keys_keep_their_order(self, capsys):
        assert main(["eval", "--fn", "hi", "--re", "-2", "--im", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert ",".join(payload) == _EVAL_KEYS

    def test_polar_and_cartesian_agree_exactly(self, capsys):
        r, phase = 2.0, 0.5
        main(["eval", "--fn", "gi", "--r", str(r), "--phase", str(phase), "--format", "json"])
        polar = capsys.readouterr().out
        main(
            [
                "eval",
                "--fn",
                "gi",
                "--re",
                repr(r * math.cos(phase)),
                "--im",
                repr(r * math.sin(phase)),
                "--format",
                "json",
            ]
        )
        cartesian = capsys.readouterr().out
        assert polar == cartesian

    def test_negative_phase_as_separate_token(self, capsys):
        base = ["eval", "--fn", "hi", "--r", "3", "--format", "json"]
        assert main([*base, "--phase", "-5pi/6"]) == 0
        separate = json.loads(capsys.readouterr().out)
        assert main([*base, "--phase=-5pi/6"]) == 0
        joined = json.loads(capsys.readouterr().out)
        assert separate == joined
        assert separate["z_im"] < 0.0

    def test_negative_cartesian_parts_as_separate_tokens(self, capsys):
        base = ["eval", "--fn", "gi", "--format", "json"]
        assert main([*base, "--re", "-1e3", "--im", "-2"]) == 0
        separate = json.loads(capsys.readouterr().out)
        assert main([*base, "--re=-1e3", "--im=-2"]) == 0
        joined = json.loads(capsys.readouterr().out)
        assert separate == joined
        assert (separate["z_re"], separate["z_im"]) == (-1e3, -2.0)

    @pytest.mark.parametrize("bad", [["--re", "-junk", "--im", "1"],
                                     ["--r", "2", "--phase", "-pi/x"]])
    def test_bad_negative_value_is_named(self, bad, capsys):
        assert main(["eval", "--fn", "gi", *bad]) == 1
        err = capsys.readouterr().err
        assert "-junk" in err or "-pi/x" in err
        assert "expected one argument" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--fn", "gi", "--re", "0", "--im", "1e200"],
            ["--fn", "gi", "--re", "0", "--im", "1e250"],
            ["--fn", "ai", "--re", "0", "--im", "1e250"],
            ["--fn", "hi", "--re", "200", "--im", "0"],
            ["--fn", "gi", "--re=-1e300", "--im", "0"],
            ["--fn", "gi", "--r", "1e6", "--phase", "2pi/3"],
        ],
    )
    def test_overflow_is_a_numerical_failure(self, argv, capsys):
        # No traceback: one diagnostic line and exit code 2.
        assert main(["eval", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("scorerlib: ")
        assert captured.err.count("\n") == 1

    def test_ai_underflow_is_a_result(self, capsys):
        argv = ["eval", "--fn", "ai", "--re", "1e250", "--im", "0", "--format", "json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["value_re"], payload["value_im"]) == (0.0, 0.0)
        assert payload["method"] == "integral"

    def test_airy_non_convergence_exits_2(self, monkeypatch, capsys):
        # Every Ai route's rule results, of one argument or of a paired pass,
        # are built by _ai_result.
        result = scorerlib.airy._ai_result
        monkeypatch.setattr(
            scorerlib.airy,
            "_ai_result",
            lambda *args: dataclasses.replace(result(*args), converged=False),
        )
        assert main(["eval", "--fn", "ai", "--re", "5", "--im", "0"]) == 2
        capsys.readouterr()

    def test_polar_snaps_axis_points(self, capsys):
        main(["eval", "--fn", "gi", "--r", "1", "--phase", "pi", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["z_im"] == 0.0
        assert payload["z_re"] == -1.0
        assert payload["value_im"] == 0.0

    @pytest.mark.parametrize("phase", ["1", "0", "pi", "-2pi/3"])
    def test_infinite_radius_is_rejected_as_non_finite(self, phase, capsys):
        # The snap of sub-ulp parts is relative to the radius; an infinite
        # radius once snapped both parts and evaluated at the origin.
        assert not cmath.isfinite(_z_from_polar(math.inf, parse_phase(phase)))
        for argv in (["--r", "inf", "--phase", phase], ["--re", "inf", "--im", "0"]):
            assert main(["eval", "--fn", "gi", *argv]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "scorerlib: evaluation requires finite z\n")

    def test_airy_functions_available(self, capsys):
        rc = main(["eval", "--fn", "ai", "--re", "0", "--im", "0", "--digits", "12"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0.355028053888" in out
        rc = main(["eval", "--fn", "bi", "--re", "0", "--im", "0", "--digits", "12"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0.614926627446" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--fn", "gi"],  # no coordinates
            ["eval", "--fn", "gi", "--re", "1"],  # half a cartesian pair
            ["eval", "--fn", "gi", "--r", "1"],  # half a polar pair
            ["eval", "--fn", "gi", "--re", "1", "--im", "0", "--r", "1", "--phase", "0"],
            ["eval", "--fn", "gi", "--re", "1", "--im", "0", "--digits", "0"],
            ["eval", "--fn", "gi", "--re", "1", "--im", "0", "--digits", "16"],
            ["eval", "--fn", "gi", "--r", "1", "--phase", "junk"],
            ["eval", "--fn", "nosuch", "--re", "1", "--im", "0"],
            ["eval", "--fn", "gi", "--re", "nan", "--im", "0"],
            ["eval", "--fn", "ai", "--re", "nan", "--im", "0"],
            ["eval", "--fn", "bi", "--re", "0", "--im", "inf"],
            ["nosuchcommand"],
            [],
        ],
    )
    def test_usage_errors_exit_1(self, argv, capsys):
        assert main(argv) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--re", "1", "--im", "0", "--r", "1"],
             "give either --re/--im or --r/--phase, not both"),
            (["--im", "0"], "--re and --im must appear together"),
            (["--phase", "pi"], "--r and --phase must appear together"),
            ([], "a point is required (--re/--im or --r/--phase)"),
            (["--r", "1", "--phase", "0", "--digits", "16"], "--digits must be between 1 and 15"),
            (["--r", "-1", "--phase", "0"], "--r must not be negative"),
            (["--r", "-1e-3", "--phase", "0"], "--r must not be negative"),
        ],
    )
    def test_each_usage_error_prints_one_line(self, argv, message, capsys):
        assert main(["eval", "--fn", "gi", *argv]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"scorerlib eval: {message}\n")

    @pytest.mark.parametrize("r", ["0", "-0.0"])
    def test_zero_modulus_is_the_origin(self, r, capsys):
        # A negative modulus is rejected (it would silently turn the phase
        # by pi), but both signed zeros name the origin.
        assert main(["eval", "--fn", "gi", "--r", r, "--phase", "pi/3", "--format", "json"]) == 0
        fields = json.loads(capsys.readouterr().out)
        assert (fields["z_re"], fields["z_im"]) == (0.0, 0.0)
        assert fields["value_re"] == gi(0.0).value.real


class TestRepeatedCalls:
    #: Commands whose options differ from one call to the next: a digit
    #: count then its default, another subcommand, a usage error.
    SEQUENCE = (
        ["eval", "--fn", "gi", "--re", "1", "--im", "0.2", "--digits", "3"],
        ["eval", "--fn", "gi", "--re", "1", "--im", "0.2"],
        ["arc", "--fn", "hi", "--radius", "5", "--start", "-pi", "--samples", "5"],
        ["eval", "--fn", "zi", "--re", "1", "--im", "0"],
        ["eval", "--fn", "hi", "--r", "5", "--phase", "0"],
    )

    def test_parser_is_built_once_and_keeps_no_state(self, capsys):
        def run(argv):
            return main(argv), *capsys.readouterr()

        # Each command's output from its first call on a fresh parser.
        firsts = []
        for argv in self.SEQUENCE:
            _build_parser.cache_clear()
            firsts.append(run(argv))
        _build_parser.cache_clear()
        assert [run(argv) for argv in self.SEQUENCE] == firsts
        assert _build_parser.cache_info().misses == 1
        codes = [rc for rc, _, _ in firsts]
        assert codes == [0, 0, 0, 1, 0]
        assert "value_re = 0.23686822\n" in firsts[1][1]


class TestArcCommand:
    def test_writes_csv_file(self, tmp_path):
        out = tmp_path / "arc.csv"
        rc = main(
            [
                "arc",
                "--fn",
                "gi",
                "--radius",
                "1",
                "--start",
                "0",
                "--stop",
                "pi",
                "--samples",
                "181",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        text = out.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "phase,re_value,im_value"
        assert len(lines) == 182
        assert "\r" not in text

    def test_endpoints_match_direct_evaluation(self, tmp_path):
        out = tmp_path / "arc.csv"
        main(["arc", "--fn", "gi", "--radius", "1", "--start", "0", "--stop", "pi",
              "--samples", "5", "--out", str(out)])
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        first = [float(f) for f in rows[0].split(",")]
        last = [float(f) for f in rows[-1].split(",")]
        assert first[0] == 0.0
        assert last[0] == pytest.approx(math.pi, rel=1e-15)
        # %.15e keeps 16 significant digits; allow the final ulp.
        assert first[1] == pytest.approx(gi(1 + 0j).value.real, rel=1e-14)
        assert last[1] == pytest.approx(gi(-1 + 0j).value.real, rel=1e-14)
        assert last[2] == pytest.approx(0.0, abs=1e-300)

    def test_stdout_when_no_path_given(self, capsys):
        rc = main(["arc", "--fn", "hi", "--radius", "1", "--samples", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("phase,re_value,im_value")
        assert len(out.splitlines()) == 3

    @pytest.mark.parametrize("start", [["--start", "-pi"], ["--start=-pi"]])
    def test_negative_start_phase(self, start, capsys):
        rc = main(["arc", "--fn", "gi", "--radius", "2", *start, "--stop", "pi",
                   "--samples", "3"])
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rc == 0
        assert float(rows[0].split(",")[0]) == -math.pi
        assert rows[0].split(",")[1:] == rows[-1].split(",")[1:]

    @pytest.mark.parametrize("bad", ["-pi/0", "-junk"])
    def test_bad_negative_start_is_named(self, bad, capsys):
        assert main(["arc", "--fn", "gi", "--radius", "1", "--start", bad]) == 1
        err = capsys.readouterr().err
        assert f"'{bad}'" in err and "--start" in err

    def test_negative_stop_phase(self, capsys):
        rc = main(["arc", "--fn", "hi", "--radius", "1", "--start", "0", "--stop",
                   "-pi/2", "--samples", "2"])
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rc == 0
        assert float(rows[-1].split(",")[0]) == pytest.approx(-math.pi / 2.0, rel=1e-15)

    @pytest.mark.parametrize("radius", ["-1", "-1e-3", "0"])
    def test_rejects_a_radius_that_is_not_positive(self, radius, capsys):
        assert main(["arc", "--fn", "gi", "--radius", radius]) == 1
        assert capsys.readouterr().err == "scorerlib arc: --radius must be positive\n"

    def test_rejects_single_sample(self, capsys):
        assert main(["arc", "--fn", "gi", "--radius", "1", "--samples", "1"]) == 1
        capsys.readouterr()

    def test_unwritable_path_exits_1(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "arc.csv"
        rc = main(["arc", "--fn", "gi", "--radius", "1", "--samples", "2",
                   "--out", str(target)])
        assert rc == 1
        capsys.readouterr()


def _arc_oracle(fn: str, radius: float, start: float, stop: float, samples: int) -> str:
    """The ``arc`` CSV with each sample evaluated on its own."""
    evaluate = {"gi": gi, "hi": hi, "ai": scorerlib.airy._ai_info,
                "bi": scorerlib.airy._bi_info}[fn]
    step = (stop - start) / (samples - 1)
    lines = ["phase,re_value,im_value"]
    for k in range(samples):
        phase = stop if k == samples - 1 else start + k * step
        value = evaluate(_z_from_polar(radius, phase)).value
        lines.append(f"{phase:.15e},{value.real:.15e},{value.imag:.15e}")
    return "\n".join(lines) + "\n"


def _arc_radii(n: int) -> list[float]:
    """Seeded radii, one log-uniform in each of ``n`` equal cells of
    0.3 <= r <= 60: the series disc, the rotations, the descent rules and
    the large-argument expansion."""
    rng = random.Random(31)
    low, high = math.log10(0.3), math.log10(60.0)
    return [10.0 ** (low + (k + rng.random()) * (high - low) / n) for k in range(n)]


class TestArcSweep:
    @pytest.mark.parametrize("fn", ["gi", "hi", "ai", "bi"])
    @pytest.mark.parametrize("start,stop", [("-pi", "pi"), ("-2pi/3", "2pi/3"),
                                            ("0", "pi"), ("pi", "-pi")])
    def test_csv_matches_one_evaluation_per_sample(self, fn, start, stop, tmp_path):
        out = tmp_path / "arc.csv"
        for radius in _arc_radii(8):
            for samples in (9, 12, 13):
                rc = main(["arc", "--fn", fn, f"--radius={radius!r}", f"--start={start}",
                           f"--stop={stop}", f"--samples={samples}", "--out", str(out)])
                assert rc == 0
                want = _arc_oracle(fn, radius, parse_phase(start), parse_phase(stop), samples)
                assert out.read_bytes() == want.encode(), (radius, samples)

    @staticmethod
    def _routed(monkeypatch) -> list[complex]:
        """The points the router is asked for, outside its own nested calls."""
        single = scorerlib.engine._single
        routed, depth = [], [0]

        def counted(z, fn):
            if not depth[0]:
                routed.append(z)
            depth[0] += 1
            try:
                return single(z, fn)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(scorerlib.engine, "_single", counted)
        return routed

    @pytest.mark.parametrize("fn", ["gi", "hi"])
    @pytest.mark.parametrize("radius", ["1", "7", "30"])
    @pytest.mark.parametrize("start,stop,calls", [("-pi", "pi", 5), ("0", "pi", 9)])
    def test_routes_each_conjugate_pair_once(self, monkeypatch, capsys, fn, radius,
                                             start, stop, calls):
        routed = self._routed(monkeypatch)
        rc = main(["arc", "--fn", fn, "--radius", radius, "--start", start, "--stop", stop,
                   "--samples", "9"])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 10
        assert len(routed) == calls

    def test_makes_each_point_as_it_evaluates_it(self, monkeypatch, capsys):
        routed = self._routed(monkeypatch)
        polar = scorerlib.cli._z_from_polar
        made, made_before_routing = [], []

        def counted(radius, phase):
            if not routed:
                made_before_routing.append(phase)
            made.append(phase)
            return polar(radius, phase)

        monkeypatch.setattr(scorerlib.cli, "_z_from_polar", counted)
        assert main(["arc", "--fn", "gi", "--radius", "4", "--samples", "9"]) == 0
        capsys.readouterr()
        assert (len(made_before_routing), len(made), len(routed)) == (1, 9, 9)

    @pytest.mark.parametrize("fn", ["gi", "hi", "ai", "bi"])
    def test_a_non_finite_point_writes_nothing(self, fn, tmp_path, capsys):
        out = tmp_path / "arc.csv"
        assert main(["arc", "--fn", fn, "--radius", "inf", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "scorerlib: evaluation requires finite z\n"
        assert not out.exists()


class TestGoldenTableCommand:
    def test_all_cells_match(self, capsys):
        rc = main(["table41"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert "FAIL" not in out
        # Spot-check one printed reference value per radius row.
        assert "2.2066961e-01" in out
        assert "3.1768535e-02" in out
        assert "3.1830925e-03" in out

    def test_reports_large_argument_comparison(self, capsys):
        main(["table41"])
        out = capsys.readouterr().out
        assert "Large-argument expansion" in out
        # The two tables disagree in the eighth digit at the middle radius.
        assert "3.1768529e-02" in out and "3.1768535e-02" in out


def _wrong_gi_rotation(z, inner):
    # The connection's i Ai(z) entered as -i Ai(z).
    e = scorerlib.engine
    return e.combine("gi_rotation", [(-e._ROT_PLUS, inner), (-1j, e._airy._ai_info(z))])


def _wrong_hi_rotation(z, inner):
    # The connection's 2 e^{-i pi/6} entered with the wrong sign.
    e = scorerlib.engine
    ai = e._airy._ai_info(z * e._ROT_MINUS)
    return e.combine("hi_rotation", [(e._ROT_PLUS, inner), (-e._TWO_ROT_SIXTH, ai)])


class TestSelftestCommand:
    def test_battery_passes(self, capsys):
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert len(lines) == 10
        assert all(ln.startswith("PASS") for ln in lines)

    def test_sum_identity_sees_a_wrong_contour_rule(self, monkeypatch):
        # Beyond the series discs Gi + Hi - Bi compares one routed function
        # with an independent representation, so a relative error of 1e-6
        # in the Laplace rule's Hi shows; a check of rounding alone would
        # pass it.
        rule = scorerlib.engine._laplace_sum

        def off(*args):
            res = rule(*args)
            return dataclasses.replace(res, value=res.value * (1.0 + 1e-6))

        monkeypatch.setattr(scorerlib.engine, "_laplace_sum", off)
        outcomes = dict(_selftest_checks())
        assert outcomes["sum_identity"].startswith("sum identity residual")

    def test_conjugate_check_sees_one_ulp(self, monkeypatch):
        # The library's symmetry is exact, so the check is too: Gi below
        # the axis one ulp off in its real part fails it.
        routed = scorerlib.engine.gi

        def nudged(z):
            res = routed(z)
            if z.imag < 0.0:
                v = res.value
                res = dataclasses.replace(
                    res, value=complex(math.nextafter(v.real, math.inf), v.imag))
            return res

        monkeypatch.setattr(scorerlib.engine, "gi", nudged)
        assert dict(_selftest_checks())["conjugate_symmetry"].startswith("conjugate symmetry")

    @pytest.mark.parametrize(
        "helper,wrong,check",
        [
            ("_gi_from_rotated", _wrong_gi_rotation, "rotation_pair_vs_contour"),
            ("_hi_from_rotated", _wrong_hi_rotation, "rotation_connection"),
        ],
    )
    def test_connection_checks_see_a_wrong_shipped_formula(
        self, helper, wrong, check, monkeypatch
    ):
        # Each connection check compares the routed function with a contour
        # that shares no formula with it, so a wrong coefficient in the
        # connection the router ships fails the check.
        monkeypatch.setattr(scorerlib.engine, helper, wrong)
        assert dict(_selftest_checks())[check]


class TestBenchCommand:
    def test_cost_pattern_holds(self, capsys):
        rc = main(["bench", "--radii", "1,10", "--phases", "pi,5pi/6,2pi/3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    @pytest.mark.parametrize(
        "radii,phases", [("5", "pi"), ("5,5", "pi"), ("1,10", "2pi/3")]
    )
    def test_a_grid_without_a_check_claims_none(self, radii, phases, capsys):
        # The Stokes check needs 2pi/3 and 5pi/6; the growth check needs two
        # distinct radii and a phase off the Stokes ray.
        assert main(["bench", "--radii", radii, "--phases", phases]) == 0
        out = capsys.readouterr().out
        assert "PASS" not in out
        assert out.splitlines()[-1] == "no cost-pattern check applies to this grid"

    @pytest.mark.parametrize(
        "radii,phases,claim",
        [
            ("5", "5pi/6,2pi/3", "Stokes ray is the most expensive phase in each row"),
            ("1,10", "pi", "off-Stokes cost does not grow with the radius"),
        ],
    )
    def test_bench_claims_only_the_check_it_ran(self, radii, phases, claim, capsys):
        assert main(["bench", "--radii", radii, "--phases", phases]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"PASS  cost pattern: {claim}"

    def test_default_grid_claims_both_checks(self, capsys):
        assert main(["bench"]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "PASS  cost pattern: Stokes ray is the most expensive phase in each row;",
            "      off-Stokes cost does not grow with the radius",
        ]

    def test_bad_negative_phases_are_named(self, capsys):
        assert main(["bench", "--radii", "1", "--phases", "-pi/0"]) == 1
        assert "'-pi/0'" in capsys.readouterr().err

    def test_negative_phases_as_separate_token(self, capsys):
        # Conjugate phases cost the same, and a separate dash-led token is
        # the option's value, not an unknown option.
        rc = main(["bench", "--radii", "1,10", "--phases", "-5pi/6,5pi/6,-2pi/3,2pi/3"])
        out = capsys.readouterr().out
        assert rc == 0
        for line in out.splitlines()[2:4]:
            counts = [int(tok) for tok in re.findall(r"(\d+) \(", line)]
            assert counts[0] == counts[1] and counts[2] == counts[3]
            assert counts[2] > counts[0]

    def test_bench_measures_the_adaptive_contours_alone(self, capsys):
        # hi takes the 60-node Laplace rung (32 kept nodes) at
        # rect(10, 5pi/6); bench keeps the adaptive contour there and its
        # counts on the Stokes ray.
        z = _z_from_polar(10.0, parse_phase("5pi/6"))
        adaptive, routed = _hi_by_quadrature(z), hi(z)
        assert (adaptive.method, adaptive.n_evaluations) == ("hi_path_u", 60)
        assert (routed.method, routed.n_evaluations) == ("hi_laplace", 32)
        rc = main(["bench", "--radii", "1,10,100", "--phases", "5pi/6,2pi/3"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [[int(tok) for tok in re.findall(r"(\d+) \(", line)]
                for line in out.splitlines()[2:5]]
        assert rows == [[210, 1410], [60, 570], [210, 330]]

    def test_bench_takes_the_left_valley_contour_below_the_stokes_ray(self, capsys):
        # On [pi/3, 2pi/3) hi is a rotation connection, and at r = 1 the
        # series; bench measures Hi's left-valley contour there instead.
        z = _z_from_polar(1.0, parse_phase("0.4pi"))
        assert (_hi_by_quadrature(z).method, hi(z).method) == ("hi_path_upper", "series")
        rc = main(["bench", "--radii", "1,10,100", "--phases", "0.4pi,0.6pi"])
        out = capsys.readouterr().out
        # The valley contour's cost grows with the radius, and only Hi's
        # descent contour claims a flat cost: these columns print counts
        # only.  Beyond the Ai series disc each count includes one Airy rule.
        assert rc == 0
        rows = [[int(tok) for tok in re.findall(r"(\d+) \(", line)]
                for line in out.splitlines()[2:5]]
        # That rule's size is the one that serves Ai(z e^{-2i pi/3}).
        n = [[scorerlib.airy._ai_laguerre(cmath.rect(r, (ph - 2.0 / 3.0) * math.pi)).n_evaluations
              for ph in (0.4, 0.6)] for r in (10.0, 100.0)]
        assert rows == [[180, 210], [90 + n[0][0], 150 + n[0][1]], [210 + n[1][0], 360 + n[1][1]]]
        assert out.splitlines()[-1] == "no cost-pattern check applies to this grid"

    def test_growth_check_covers_the_descent_contour_phases_only(self, capsys):
        # Below pi/3 bench measures the routed hi, whose count grows from
        # r = 1 to 100 here; only 2pi/3 < |ph| <= pi, modulo 2pi, is checked.
        phases = "0.2pi,0.4pi,-5pi/6,7pi/6"
        assert main(["bench", "--radii", "1,10,100", "--phases", phases]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "PASS  cost pattern: off-Stokes cost does not grow with the radius"
        rows = [[int(tok) for tok in re.findall(r"(\d+) \(", line)] for line in out[2:5]]
        assert rows[0][0] < rows[2][0] and rows[0][3] >= rows[2][3]

    def test_rejects_bad_radius_list(self, capsys):
        # Rejected before the table prints: one line naming the radius.
        for radii, bad in (("1,zebra", "'zebra'"), ("nan", "nan"), ("inf", "inf"), ("0", "0"),
                           ("-3,10", "-3"), ("10,-0", "-0")):
            assert main(["bench", "--radii", radii, "--phases", "pi"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("scorerlib bench: bad grid: ")
            assert captured.err.count("\n") == 1 and bad in captured.err.split()
