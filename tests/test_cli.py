import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sftoric.cli import main
from sftoric.errors import NotCounterclockwise, NotPrimitive, SurfaceSyntaxError
from sftoric.surfaces import BUNDLED, bundled_text, parse_surface

GOLDEN = Path(__file__).parent / "golden" / "appendix_table.txt"
GOLDEN_QH = Path(__file__).parent / "golden" / "qh.txt"
GOLDEN_PSI = Path(__file__).parent / "golden" / "psi.txt"
GOLDEN_VERIFY = Path(__file__).parent / "golden" / "verify.txt"
GOLDEN_SUPERPOTENTIAL = Path(__file__).parent / "golden" / "superpotential.txt"
GOLDEN_CHECK = Path(__file__).parent / "golden" / "check.txt"
GOLDEN_CLASSIFY = Path(__file__).parent / "golden" / "classify.txt"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_parse_surface_round_trip():
    for name in ("P2", "X1", "X7", "X11"):
        fan, spec = parse_surface(bundled_text(name))
        assert spec.name == name
        assert fan.d == len(spec.rows)


def test_parse_surface_errors():
    with pytest.raises(SurfaceSyntaxError) as err:
        parse_surface("surface A\nparams 1\nray 1 0 0\n")
    assert err.value.line == 3
    with pytest.raises(SurfaceSyntaxError, match="^missing surface declaration$") as err:
        parse_surface("params 1\nray 1 0 : 0\n")
    assert err.value.line is None
    with pytest.raises(SurfaceSyntaxError) as err:
        parse_surface("surface A\nparams 2\nray 1 0 : 0\n")
    assert err.value.line == 3
    # digits that int() refuses, and a count past the interpreter's digit limit
    for k in ("\u00b2", "1\u00b2", "--3", "1" * 4301):
        with pytest.raises(SurfaceSyntaxError, match="expected: params K") as err:
            parse_surface(f"surface A\nparams {k}\nray 1 0 : 0\n")
        assert err.value.line == 2
    with pytest.raises(NotPrimitive):
        parse_surface("surface A\nparams 1\nray 0 2 : 0\nray 1 0 : 0\nray -1 -1 : 1\n")
    with pytest.raises(NotCounterclockwise):
        parse_surface("surface A\nparams 1\nray 0 1 : 0\nray 1 0 : 0\nray -1 -1 : 1\n")


@pytest.mark.parametrize("text, message, line", [
    ("surface A\nsurface B\n", "duplicate surface declaration", 2),
    ("surface\n", "expected: surface NAME", 1),
    ("surface A B\n", "expected: surface NAME", 1),
    ("surface A\nparams 1\nparams 1\n", "duplicate params declaration", 3),
    ("surface A\nparams\n", "expected: params K", 2),
    ("surface A\nparams 1 2\n", "expected: params K", 2),
    ("surface A\nparams -1\n", "params must be nonnegative", 2),
    ("surface A\nray 1 0 : 0\n", "params must come before rays", 2),
    ("surface A\nparams 1\nedge 1 0 : 0\n", "unknown directive 'edge'", 3),
    ("surface A\n", "missing params declaration", None),
    ("surface A\nparams 1\n", "no rays declared", None),
])
def test_parse_surface_refusals(text, message, line):
    with pytest.raises(SurfaceSyntaxError) as err:
        parse_surface(text)
    assert str(err.value) == (message if line is None else f"line {line}: {message}")
    assert err.value.line == line


def test_comments_and_blank_lines():
    text = "# header\n\nsurface T\nparams 1\nray 1 0 : 0  # inline\nray 0 1 : 0\nray -1 -1 : 1\n"
    fan, spec = parse_surface(text)
    assert spec.name == "T" and fan.d == 3


def test_cli_check(capsys):
    rc, out, _ = run(capsys, "check", "X3")
    assert rc == 0
    assert "surface X3: 6 rays" in out
    assert "D1^2 = -2" in out
    assert "semi-Fano: yes" in out
    assert "(-2)-chains: [1] [4 5]" in out


def test_cli_check_golden(capsys):
    # all 16 bundled surfaces, each block headed by "# NAME"
    blocks = []
    for name in BUNDLED:
        rc, out, err = run(capsys, "check", name)
        assert rc == 0 and err == "", name
        blocks.append(f"# {name}\n{out}")
    assert "".join(blocks) == GOLDEN_CHECK.read_text()


def test_cli_superpotential_matches_table_row(capsys):
    rc, out, _ = run(capsys, "superpotential", "X1")
    assert rc == 0
    assert out.strip() == "(q1 + q1*q2)*z2^-1 + q1^2*q2*z1^-1*z2^-2 + z1 + z2"


def test_cli_superpotential_file_path(tmp_path, capsys):
    path = tmp_path / "p2.fan"
    path.write_text(bundled_text("P2"))
    rc, out, _ = run(capsys, "superpotential", str(path))
    assert rc == 0
    assert out.strip() == "q1*z1^-1*z2^-1 + z1 + z2"


def test_cli_hori_vafa(capsys):
    rc, out, _ = run(capsys, "superpotential", "X1", "--hori-vafa")
    assert rc == 0
    assert out.strip() == "q1*z2^-1 + q1^2*q2*z1^-1*z2^-2 + z1 + z2"


@pytest.mark.parametrize(
    "bulk",
    [
        ["--bulk-constant", "1"],
        ["--bulk-divisor", "0,0,0,1"],
        ["--bulk-divisor=0,0,0,1", "--bulk-constant=1/2"],
    ],
)
def test_cli_hori_vafa_refuses_bulk_options(capsys, bulk):
    # W_0 is the undeformed leading part: a bulk option would be dropped unseen
    message = "error: --hori-vafa takes neither --bulk-divisor nor --bulk-constant\n"
    for name in ("X1", "X3"):
        assert run(capsys, "superpotential", name, "--hori-vafa", *bulk) == (2, "", message)


def test_cli_bulk(capsys):
    rc, out, _ = run(
        capsys, "superpotential", "X1", "--bulk-divisor", "0,0,0,1", "--bulk-constant", "2"
    )
    assert rc == 0
    assert out.startswith("exp(-1)*(")
    assert "exp(1)*(" in out
    # a fractional class reaches the library's integrality check
    rc, out, err = run(capsys, "superpotential", "X1", "--bulk-divisor", "1/2,0,0,0")
    assert (rc, out, err) == (2, "", "error: bulk divisor class must be integral\n")


def test_cli_negative_option_values(capsys):
    # "--opt -1/2" reads as "--opt=-1/2" for every option taking numbers
    for argv in (
        ["superpotential", "X1", "--bulk-divisor", "-1,0,0,1"],
        ["superpotential", "X1", "--bulk-constant", "-1/2"],
        ["superpotential", "X1", "--bulk-divisor", "-1,0,0,1", "--bulk-constant", "-0.5"],
        ["verify", "X1", "--q", "-1/3,1/5"],
    ):
        spaced = run(capsys, *argv)
        joined = run(capsys, *argv[:-2], "=".join(argv[-2:]))
        assert spaced == joined, argv
        assert spaced[0] == (2 if argv[0] == "verify" else 0), argv
    assert " + -1/2 + " in run(capsys, "superpotential", "X1", "--bulk-constant", "-1/2")[1]


def test_cli_negative_values_after_abbreviated_options(capsys):
    # argparse accepts a unique prefix of an option name, so a negative value
    # after one reads as it does after the full name with "="
    for spaced, joined in (
        (["--bulk-c", "-1/2"], ["--bulk-constant=-1/2"]),
        (["--bulk-d", "-1,0,0,1"], ["--bulk-divisor=-1,0,0,1"]),
    ):
        result = run(capsys, "superpotential", "X1", *spaced)
        assert result == run(capsys, "superpotential", "X1", *joined), spaced
        assert result[0] == 0 and result[1], spaced
    # "--bulk" is a prefix of both bulk options, which argparse refuses
    with pytest.raises(SystemExit) as exc:
        main(["superpotential", "X1", "--bulk", "-1"])
    assert exc.value.code == 2


def test_cli_refuses_exponent_notation(capsys):
    # Fraction expands "1e-100000" digit by digit: refused before any work
    for argv, value in (
        (["verify", "X1", "--q", "1/3,1E-5"], "1E-5"),
        (["superpotential", "X1", "--bulk-constant", "1e3"], "1e3"),
        (["superpotential", "X1", "--bulk-divisor", "0,0,0,1.5e0"], "1.5e0"),
        (["superpotential", "X1", "--bulk-constant=-2e1"], "-2e1"),
        (["verify", "X1", "--q", "1e-1000000,1/3"], "1e-1000000"),
    ):
        message = f"error: {value!r} is not an integer, a/b or a plain decimal\n"
        assert run(capsys, *argv) == (2, "", message), argv


@pytest.mark.parametrize(
    "command, option, value, digits",
    [
        ("verify", "--q", "0." + "1" * 5000 + ",1/3", 5001),
        ("superpotential", "--bulk-divisor", "0,0,0," + "1" * 5000, 5000),
        ("superpotential", "--bulk-constant", "1" * 5000, 5000),
    ],
)
def test_cli_names_an_option_value_past_the_digit_limit(capsys, command, option, value, digits):
    # Fraction reads the digits as one int, which the interpreter refuses
    # past 4300 digits: one error line names the option and the digit count
    message = f"error: {option} value with {digits} digits is too long\n"
    assert run(capsys, command, "X1", option, value) == (2, "", message)


def test_cli_empty_option_values_are_refused(capsys):
    # an empty --q is a value, not an absent option, as for the bulk options
    for command, option in (
        ("verify", "--q"),
        ("superpotential", "--bulk-divisor"),
        ("superpotential", "--bulk-constant"),
    ):
        message = "error: '' is not an integer, a/b or a plain decimal\n"
        assert run(capsys, command, "X1", option, "") == (2, "", message), option


NUMBER = r"[+-]?(\d{1,3}(/\d{1,3})?|\d{0,3}\.\d{1,3}|\d{1,3}\.)([eE][+-]?\d{1,7})?"


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    option=st.sampled_from(["--q", "--bulk-constant", "--bulk-divisor"]),
    values=st.lists(st.from_regex(NUMBER, fullmatch=True), min_size=1, max_size=4),
)
def test_cli_number_options_exit_cleanly(option, values):
    # signed integers, fractions, decimals and exponents on X1: every run
    # ends in an exit code, and only argparse's SystemExit may escape
    command = "verify" if option == "--q" else "superpotential"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main([command, "X1", option, ",".join(values)])
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2)
    if any(c in "eE" for c in "".join(values)):
        assert rc == 2 and "is not an integer, a/b or a plain decimal" in err.getvalue()


def test_bom_and_crlf_files_read_as_the_bundled_text(tmp_path, capsys):
    # a UTF-8 byte order mark and CRLF line ends change no output byte
    for name in BUNDLED:
        raw = bundled_text(name).encode("utf-8")
        variants = {
            "bom": b"\xef\xbb\xbf" + raw,
            "crlf": raw.replace(b"\n", b"\r\n"),
            "bom-crlf": b"\xef\xbb\xbf" + raw.replace(b"\n", b"\r\n"),
        }
        for command in ("check", "superpotential"):
            expected = run(capsys, command, name)
            assert expected[0] == 0, (name, command)
            for label, data in variants.items():
                path = tmp_path / f"{name}-{label}.fan"
                path.write_bytes(data)
                assert run(capsys, command, str(path)) == expected, (name, command, label)


def test_cli_psi(capsys):
    rc, out, _ = run(capsys, "psi", "X3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "psi(D1) = (1 - q1)*z1"
    assert lines[1] == "psi(D2) = q1*z1 + z2"
    assert len(lines) == 6


def test_cli_qh(capsys):
    rc, out, _ = run(capsys, "qh", "F0")
    assert rc == 0
    assert out.strip().splitlines() == ["D1*D3 = q1", "D2*D4 = q2"]
    rc, out, _ = run(capsys, "qh", "X3")
    assert rc == 0
    row = [l for l in out.splitlines() if l.startswith("D2*D4")]
    assert row == [
        "D2*D4 = (q1*q3*q4^2 - q1*q2*q3*q4^2) + (q1*q3*q4 - q1*q2*q3*q4)*D1"
        " + (q1*q3*q4 - q1*q2*q3*q4)*D2 + (-q1*q3*q4 + q1*q2*q3*q4)*D3"
        " + -q1*q3*q4*D4"
    ]


def test_cli_qh_golden(capsys):
    # every non-P2 surface, each block headed by "# NAME"
    blocks = []
    for name in BUNDLED[1:]:
        rc, out, err = run(capsys, "qh", name)
        assert rc == 0 and err == "", name
        blocks.append(f"# {name}\n{out}")
    assert "".join(blocks) == GOLDEN_QH.read_text()


def test_cli_psi_golden(capsys):
    # all 16 bundled surfaces, each block headed by "# NAME"
    blocks = []
    for name in BUNDLED:
        rc, out, err = run(capsys, "psi", name)
        assert rc == 0 and err == "", name
        blocks.append(f"# {name}\n{out}")
    assert "".join(blocks) == GOLDEN_PSI.read_text()


def test_cli_superpotential_golden(capsys, bundled):
    # all 16 bundled surfaces, each block headed by "# NAME": plain W, the
    # Hori-Vafa part, and the bulk form with D = D_d and constant 1/2
    blocks = []
    for name in BUNDLED:
        divisor = ",".join(["0"] * (bundled[name][0].d - 1) + ["1"])
        block = f"# {name}\n"
        for extra in ([], ["--hori-vafa"], ["--bulk-divisor", divisor, "--bulk-constant", "1/2"]):
            rc, out, err = run(capsys, "superpotential", name, *extra)
            assert rc == 0 and err == "", (name, extra)
            block += out
        blocks.append(block)
    assert "".join(blocks) == GOLDEN_SUPERPOTENTIAL.read_text()


def test_cli_verify_golden(capsys):
    # all 16 bundled surfaces at the default q-sample; P2 prints its note
    blocks = []
    for name in BUNDLED:
        rc, out, err = run(capsys, "verify", name)
        assert rc == 0 and err == "", name
        blocks.append(f"# {name}\n{out}")
    assert "".join(blocks) == GOLDEN_VERIFY.read_text()


def test_cli_verify(capsys):
    rc, out, _ = run(capsys, "verify", "X1")
    assert rc == 0
    assert out.splitlines()[-1] == "RESULT PASS"
    # the CLI reads a decimal as the exact rational it writes
    for q, line in (("1/3,1/5", "q-sample q1=1/3 q2=1/5"), ("0.5,0.25", "q-sample q1=1/2 q2=1/4")):
        rc, out, _ = run(capsys, "verify", "X1", "--q", q)
        assert rc == 0
        assert line in out.splitlines()


def test_cli_rejects_non_semi_fano(tmp_path, capsys):
    f3 = tmp_path / "f3.fan"
    f3.write_text(
        "surface F3\nparams 2\nray 1 0 : 0 0\nray 0 1 : 0 0\n"
        "ray -1 3 : 1 0\nray 0 -1 : 0 1\n"
    )
    # W_0 is read off the counted classes too, so --hori-vafa is refused
    for command in ("qh", "superpotential", "psi", "verify", "superpotential --hori-vafa"):
        name, *flags = command.split()
        rc, out, err = run(capsys, name, str(f3), *flags)
        assert rc == 2, command
        assert out == "", command
        assert "semi-Fano" in err, command


def test_cli_verify_many_parameters(tmp_path, capsys):
    # F0 with 14 Kahler parameters: the default sample has one value each
    path = tmp_path / "f0.fan"
    path.write_text(
        "surface F0x14\nparams 14\nray 1 0 :" + " 0" * 14 + "\nray 0 1 :" + " 0" * 14
        + "\nray -1 0 :" + " 1" * 14 + "\nray 0 -1 :" + " 1" * 14 + "\n"
    )
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 0 and err == ""
    assert "q13=1/53 q14=1/59\n" in out
    assert out.splitlines()[-1] == "RESULT PASS"


def test_cli_verify_default_sample_off_the_prime_sample(tmp_path, capsys):
    # edges 2 and 4 of this F0 have length t1 - 3 t2, which the default
    # sample q = (1/7, 1/11) makes negative: verify falls back to q = 2^(-t)
    # at the certified Kahler point t = (4, 1)
    path = tmp_path / "f0.fan"
    path.write_text(
        "surface F0\nparams 2\nray 1 0 : 0 0\nray 0 1 : 0 0\n"
        "ray -1 0 : 1 -3\nray 0 -1 : 0 1\n"
    )
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 0 and err == ""
    assert "q-sample q1=1/16 q2=1/2\n" in out
    assert out.splitlines()[-1] == "RESULT PASS"


def test_cli_verify_rejects_a_sample_off_the_kahler_cone(capsys):
    # D3 of X8 has zero area at this sample: an input error, not a FAIL
    rc, out, err = run(capsys, "verify", "X8", "--q", "1/2,1/2,1/4,1/2,1/2,1/2")
    assert rc == 2
    assert out == ""
    assert "Kahler cone" in err and "edge 3" in err


def test_cli_verify_p2(capsys):
    rc, out, _ = run(capsys, "verify", "P2")
    assert rc == 0
    assert "out of scope" in out
    # --q is checked as for every other surface: one value in (0, 1)
    assert run(capsys, "verify", "P2", "--q", "1/3") == (rc, out, "")
    assert run(capsys, "verify", "P2", "--q", "7") == (2, "", "error: q value 7 is not in (0, 1)\n")
    assert run(capsys, "verify", "P2", "--q", "1/2,1/3") == (2, "", "error: 2 values for k=1\n")


def test_cli_classify(capsys):
    rc, out, _ = run(capsys, "classify", "--max-rays", "4")
    assert rc == 0
    assert out.strip().splitlines()[-1] == "4 classes, 3 Fano"  # F2 is not Fano
    assert run(capsys, "classify", "--max-rays", "2") == (
        2, "", "error: max_rays must be at least 3\n"
    )


def test_cli_classify_golden(capsys):
    assert run(capsys, "classify", "--max-rays", "9") == (0, GOLDEN_CLASSIFY.read_text(), "")


def test_cli_table_golden(capsys):
    rc, out, _ = run(capsys, "table")
    assert rc == 0
    assert out == GOLDEN.read_text()


def test_cli_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.fan"
    bad.write_text("surface B\nparams 1\nray 0 2 : 0\nray 1 0 : 0\nray -1 -1 : 1\n")
    rc, out, err = run(capsys, "check", str(bad))
    assert rc == 2
    assert "error" in err
    rc, out, err = run(capsys, "check", str(tmp_path / "missing.fan"))
    assert rc == 2
