import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tqft2d.tqft as tqft_module
from tqft2d import Surface, diagonal_family, format_tqft, parse_surface, parse_tensor
from tqft2d.cli import MESSAGE_SHOWN, main

BENCH_DATA = Path(__file__).resolve().parent.parent / "bench" / "data"
SRC = Path(__file__).resolve().parent.parent / "src"

T2_FILE = "tqft dim=1 backend=rational\nd 1 = 2\np 1 1 1 = 1/2\n"
BAD_FILE = "tqft dim=1 backend=rational\nd 1 = 1\np 1 1 1 = 2\n"
DISK_FILE = "component orient=+ genus=0 boundary=[+a]\n"
TWO_DISKS = ("component orient=- genus=0 boundary=[-a]\n"
             "component orient=+ genus=0 boundary=[+b]\n")


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return _write


class TestCheck:
    def test_passing_file(self, write, capsys):
        code = main(["check", write("t2.tqft", T2_FILE)])
        assert capsys.readouterr().out.strip() == "PASS PASS PASS PASS"
        assert code == 0

    def test_failing_file(self, write, capsys):
        code = main(["check", write("bad.tqft", BAD_FILE)])
        out = capsys.readouterr().out.strip()
        assert out.split()[2] == "FAIL"  # third relation is the disk absorption
        assert code == 1

    def test_non_finite_scalar_is_a_parse_error(self, write, capsys):
        text = "tqft dim=1 backend=complex\nd 1 = nan\np 1 1 1 = 1\n"
        assert main(["check", write("nan.tqft", text)]) == 2
        assert capsys.readouterr().out == ""

    def test_long_bad_scalar_is_one_short_parse_error_line(self, write, capsys):
        text = "tqft dim=1 backend=rational\nd 1 = " + "x" * 3000 + "\n"
        assert main(["check", write("long.tqft", text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and len(lines[0]) < 200
        assert lines[0].startswith("parse error: line 2: bad rational scalar 'xxx")
        assert lines[0].endswith("... of 3000 characters; expected p or p/q")

    def test_missing_file_is_a_parse_error(self, capsys):
        assert main(["check", "/nonexistent/file.tqft"]) == 2

    @pytest.mark.parametrize("argv", [["check", "{bad}"], ["invariant", "{bad}", "{disk}"],
                                      ["invariant", "{t2}", "{bad}"]])
    def test_file_that_is_not_utf8_is_a_parse_error(self, tmp_path, write, capsys, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(T2_FILE.encode() + b"\xff\n")
        files = {"bad": str(bad), "t2": write("t2.tqft", T2_FILE),
                 "disk": write("disk.srf", DISK_FILE)}
        assert main([arg.format(**files) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"parse error: cannot read {bad}: not UTF-8 at byte "
                                f"offset {len(T2_FILE)} (invalid start byte)\n")

    @pytest.mark.parametrize("argv", [["check", "rot2.tqft"],
                                      ["invariant", "rot2.tqft", "g1n4.srf"]])
    def test_byte_order_mark_is_ignored(self, tmp_path, capsys, argv):
        command, *names = argv

        def run(bom):
            paths = [tmp_path / f"{bom}{name}" for name in names]
            for path, name in zip(paths, names):
                path.write_bytes(bom * b"\xef\xbb\xbf" + (BENCH_DATA / name).read_bytes())
            return main([command, *map(str, paths)]), capsys.readouterr().out
        assert run(True) == run(False)
        assert run(True)[0] == 0

    def test_malformed_file(self, write, capsys):
        code = main(["check", write("junk.tqft", "what is this\n")])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_oversized_header_is_a_domain_error(self, write, capsys):
        text = "tqft dim=10000000 backend=rational\n"
        assert main(["check", write("big.tqft", text)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "budget" in captured.err

    def test_header_too_long_for_int_is_a_domain_error(self, write, capsys):
        # past MESSAGE_SHOWN digits too, the message keeps its reason
        for digits in (5000, 100_000):
            text = f"tqft dim={'9' * digits} backend=rational\n"
            assert main(["check", write("huge.tqft", text)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: a tensor with 3 indices of dimension of {digits} "
                                    "digits exceeds the budget of 4194304 entries\n")

    def test_failing_relations_show_their_worst_violation(self, capsys):
        code = main(["check", str(BENCH_DATA / "bad.tqft")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "FAIL PASS FAIL FAIL\n"
        assert captured.err == ("exchange: max violation 1\n"
                                "disk_absorption: max violation 1\n"
                                "cylinder_absorption: max violation 1\n")

    def test_complex_violation_is_formatted_by_its_backend(self, write, capsys):
        text = "tqft dim=1 backend=complex\nd 1 = 1\np 1 1 1 = 2\n"
        assert main(["check", write("c.tqft", text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "PASS PASS FAIL FAIL\n"
        assert captured.err == ("disk_absorption: max violation 1+0i\n"
                                "cylinder_absorption: max violation 2+0i\n")

    # The first bad slot triple of each p shows under one transposition only.
    @pytest.mark.parametrize("entries,triple", [
        ("p 1 2 2 = 1\np 2 2 1 = 1\n", "(1,2,2)"),
        ("p 1 1 2 = 1\np 1 2 2 = 1\n", "(1,1,2)"),
    ])
    def test_asymmetric_p_names_its_first_bad_triple(self, write, capsys, entries, triple):
        text = "tqft dim=2 backend=rational\nd 1 = 1\nd 2 = 1\n" + entries
        assert main(["check", write("asym.tqft", text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: p is not symmetric at slot indices {triple}\n"

    def test_passing_file_writes_nothing_to_stderr(self, write, capsys):
        assert main(["check", write("t2.tqft", T2_FILE)]) == 0
        assert capsys.readouterr().err == ""


class TestInvariant:
    def test_disk(self, write, capsys):
        code = main(["invariant", write("t.tqft", T2_FILE), write("s.srf", DISK_FILE)])
        assert code == 0
        tensor = parse_tensor(capsys.readouterr().out)
        assert tensor.entries == (2,)
        assert tensor.labels == ("a",)

    def test_closed_genus2(self, write, capsys):
        surface = "component orient=+ genus=2 boundary=[]\n"
        code = main(["invariant", write("t.tqft", T2_FILE), write("s.srf", surface)])
        assert code == 0
        assert parse_tensor(capsys.readouterr().out).entries == (Fraction(1, 4),)

    def test_relation_failure_is_a_domain_error(self, write, capsys):
        code = main(["invariant", write("t.tqft", BAD_FILE), write("s.srf", DISK_FILE)])
        assert code == 3


class TestGlue:
    def test_emits_surface_by_default(self, write, capsys):
        code = main(["glue", write("s.srf", TWO_DISKS), "--pairs", "a:b"])
        assert code == 0
        glued = parse_surface(capsys.readouterr().out)
        comp = glued.components[0]
        assert (comp.genus, comp.boundary) == (0, ())

    def test_round_trip(self, write, capsys):
        surface_file = write("s.srf", "component orient=+ genus=1 boundary=[-a,+b,+c]\n")
        code = main(["glue", surface_file, "--pairs", "a:b"])
        assert code == 0
        emitted = capsys.readouterr().out
        reparsed = parse_surface(emitted)
        assert reparsed == parse_surface(
            "component orient=+ genus=2 boundary=[+c]")

    def test_emit_tensor(self, write, capsys):
        code = main(["glue", write("s.srf", TWO_DISKS), "--pairs", "a:b",
                     "--emit-tensor", write("t.tqft", T2_FILE)])
        assert code == 0
        assert parse_tensor(capsys.readouterr().out).entries == (4,)

    def test_bad_pairs_syntax(self, write, capsys):
        assert main(["glue", write("s.srf", TWO_DISKS), "--pairs", "ab"]) == 2
        capsys.readouterr()
        # a 100000-character value is quoted in a short message
        assert main(["glue", str(BENCH_DATA / "g1n4.srf"), "--pairs", "?" * 100_000]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("parse error: bad pair '" + "?" * 100 + "'... of 100000 "
                                "characters; expected 'a:b'\n")

    def test_orientation_mismatch_is_domain_error(self, write):
        surface = ("component orient=+ genus=0 boundary=[+a]\n"
                   "component orient=+ genus=0 boundary=[+b]\n")
        assert main(["glue", write("s.srf", surface), "--pairs", "a:b"]) == 3


class TestClosed:
    def test_genus_two(self, write, capsys):
        code = main(["closed", write("t.tqft", T2_FILE), "--genus", "2"])
        assert capsys.readouterr().out.strip() == "1/4"
        assert code == 0

    def test_genus_zero(self, write, capsys):
        main(["closed", write("t.tqft", T2_FILE), "--genus", "0"])
        assert capsys.readouterr().out.strip() == "4"

    def test_genus_1000_ends_within_a_minute(self):
        # A planner that grows faster than about linearly in genus times out.
        done = subprocess.run(
            [sys.executable, "-m", "tqft2d.cli", "closed", str(BENCH_DATA / "rot2.tqft"),
             "--genus", "1000"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout == f"{1 + Fraction(2) ** -1998}\n"

    def test_negative_genus(self, write, capsys):
        assert main(["closed", write("t.tqft", T2_FILE), "--genus", "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: genus must be non-negative\n"


class TestLongLabels:
    """A valid label of any length is cut in error messages."""

    LABEL = "x" * 100_000

    def check_cut(self, captured, kind, message):
        assert captured.out == ""
        assert captured.err == (f"{kind}: {message[:MESSAGE_SHOWN]}... "
                                f"of {len(message)} characters\n")

    def test_unknown_label_in_pairs(self, write, capsys):
        surface = write("ab.srf", "component orient=+ genus=0 boundary=[+a,-b]\n")
        assert main(["glue", surface, "--pairs", f"a:{self.LABEL}"]) == 3
        self.check_cut(capsys.readouterr(), "error", "unknown label " + self.LABEL)

    def test_duplicate_label_in_surface_file(self, write, capsys):
        surface = write("dup.srf", f"component orient=+ genus=0 boundary=[+{self.LABEL},"
                                   f"-{self.LABEL}]\n")
        assert main(["invariant", write("t.tqft", T2_FILE), surface]) == 2
        self.check_cut(capsys.readouterr(), "parse error",
                       "duplicate label " + self.LABEL)


class TestInputBudgets:
    def test_genus_over_the_budget_ends_without_a_traceback(self):
        done = subprocess.run(
            [sys.executable, "-m", "tqft2d.cli", "closed", str(BENCH_DATA / "rot2.tqft"),
             "--genus", "10001"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert done.returncode == 3 and done.stdout == ""
        assert done.stderr == "error: genus 10001 exceeds the budget of 10000\n"

    @pytest.mark.parametrize("genus,message", [
        ("10001", "genus 10001 exceeds the budget of 10000"),
        ("9" * 5000, "genus of 5000 digits exceeds the budget of 10000"),
    ])
    def test_surface_genus(self, write, capsys, genus, message):
        surface = write("s.srf", f"component orient=+ genus={genus} boundary=[+a]\n")
        code = main(["invariant", write("t.tqft", T2_FILE), surface])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_exact_result_past_the_print_limit(self, write, capsys):
        t = 10 ** 2200  # Z(genus 2) = t**-2 has a denominator of 4401 digits
        path = write("big.tqft", f"tqft dim=1 backend=rational\nd 1 = {t}\np 1 1 1 = 1/{t}\n")
        assert main(["closed", path, "--genus", "2"]) == 3
        captured = capsys.readouterr()
        bits = 1 + (t ** 2).bit_length()
        assert captured.out == ""
        assert captured.err == (f"error: an exact result of {bits} bits exceeds the limit "
                                "of 4300 digits for printing an integer\n")
        # rot2 at the genus budget: Z = 1 + 2**-19998, about 5 s
        assert main(["closed", str(BENCH_DATA / "rot2.tqft"), "--genus", "10000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: an exact result of 39998 bits exceeds the limit "
                                "of 4300 digits for printing an integer\n")

    def test_index_too_long_for_int_is_a_parse_error(self, write, capsys):
        text = f"tqft dim=1 backend=rational\nd {'9' * 5000} = 1\n"
        assert main(["check", write("long.tqft", text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("parse error: line 2: d index of 5000 digits "
                                "out of range 1..1\n")


class TestVerify:
    def test_all_suites_pass(self, write, capsys):
        data = diagonal_family([Fraction(1), Fraction(2)])
        code = main(["verify", write("d2.tqft", format_tqft(data)),
                     "--suite", "all", "--trials", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "suite moves" in out
        assert "suite functor" in out
        assert "suite monoidal" in out
        assert "FAIL" not in out

    def test_single_suite(self, write, capsys):
        code = main(["verify", write("t.tqft", T2_FILE),
                     "--suite", "monoidal", "--trials", "3", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "suite monoidal" in out
        assert "suite moves" not in out

    def test_moves_suite_output_is_pinned(self, capsys):
        code = main(["verify", str(BENCH_DATA / "rot2.tqft"), "--suite", "moves",
                     "--trials", "2", "--seed", "0"])
        assert code == 0
        assert capsys.readouterr().out == """\
suite moves
PASS (g=1, n=2) chain vs alternate
PASS (g=1, n=2) chain vs rewrite 0
PASS (g=1, n=2) chain vs rewrite 1
PASS (g=1, n=3) chain vs alternate
PASS (g=1, n=3) chain vs rewrite 0
PASS (g=1, n=3) chain vs rewrite 1
PASS (g=2, n=0) chain vs alternate
PASS (g=2, n=0) chain vs rewrite 0
PASS (g=2, n=0) chain vs rewrite 1
PASS (g=2, n=1) chain vs alternate
PASS (g=2, n=1) chain vs rewrite 0
PASS (g=2, n=1) chain vs rewrite 1
PASS (g=2, n=2) chain vs alternate
PASS (g=2, n=2) chain vs rewrite 0
PASS (g=2, n=2) chain vs rewrite 1
PASS (g=2, n=3) chain vs alternate
PASS (g=2, n=3) chain vs rewrite 0
PASS (g=2, n=3) chain vs rewrite 1
"""

    def test_deterministic_output(self, write, capsys):
        path = write("t.tqft", T2_FILE)
        argv = ["verify", path, "--suite", "functor", "--trials", "4", "--seed", "9"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_bad_data_is_domain_error(self, write):
        assert main(["verify", write("t.tqft", BAD_FILE), "--suite", "moves",
                     "--trials", "1"]) == 3

    @pytest.mark.parametrize("suite", ["all", "moves", "functor", "monoidal"])
    def test_negative_trials_are_a_domain_error(self, write, capsys, suite):
        path = write("t.tqft", T2_FILE)
        assert main(["verify", path, "--suite", suite, "--trials", "-3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: trials must be non-negative, got -3\n"

    @pytest.mark.parametrize("suite,code", [("moves", 0), ("functor", 1), ("monoidal", 1)])
    def test_zero_trials_fail_a_suite_that_checks_nothing(self, capsys, suite, code):
        # moves still checks each shape's chain against its alternate cut
        assert main(["verify", str(BENCH_DATA / "rot2.tqft"), "--suite", suite,
                     "--trials", "0"]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == f"suite {suite}\n\n"
            assert captured.err == f"suite {suite} ran no checks\n"
        else:
            lines = captured.out.splitlines()
            assert lines[0] == "suite moves" and len(lines) == 7
            assert all(line.endswith("chain vs alternate") for line in lines[1:])
            assert captured.err == ""

    @pytest.mark.parametrize("trials", [0, 3])
    def test_all_suites_check_the_relations_once(self, write, capsys, monkeypatch,
                                                  trials):
        callers = []
        original = tqft_module.contract_between

        def counting(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(*args, **kwargs)

        monkeypatch.setattr(tqft_module, "contract_between", counting)
        path = write("d2.tqft", format_tqft(diagonal_family([Fraction(1), Fraction(2)])))
        code = main(["verify", path, "--suite", "all", "--trials", str(trials)])
        # with no trials the functor and monoidal suites check nothing
        assert code == (0 if trials else 1)
        assert capsys.readouterr().out.count("suite ") == 3
        # one relation check makes four contractions, one of them the
        # annulus c; surface tensors are contracted in the functor module,
        # whose calls are not counted here
        assert callers.count("_relation_report") == 3
        assert callers.count("annulus") == 1
        if not trials:
            assert len(callers) == 4


class TestSearch:
    def test_height_one(self, capsys):
        code = main(["search", "--dim", "1", "--height", "1"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines == ["d=-1 p=-1", "d=0 p=0", "d=1 p=1"]

    def test_other_dimension_rejected(self, capsys):
        assert main(["search", "--dim", "2", "--height", "1"]) == 3

    def test_height_budget(self, capsys):
        assert main(["search", "--dim", "1", "--height", "9"]) == 3


class TestClosedStdout:
    def test_reader_closing_early_ends_without_a_traceback(self):
        # 4**8 entry lines: far more than a pipe holds, so writes go on
        # after the reader has gone.
        proc = subprocess.Popen(
            [sys.executable, "-m", "tqft2d.cli", "invariant",
             str(BENCH_DATA / "dense4.tqft"), str(BENCH_DATA / "g1n8.srf")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 1
        assert first.startswith(b"tensor dim=4 ")
        assert err == b""

    def test_run_started_with_stdout_closed_succeeds(self):
        # Python sets sys.stdout to None when fd 1 is closed at start.
        done = subprocess.run(
            ["sh", "-c", 'exec "$0" -m tqft2d.cli check "$1" >&-',
             sys.executable, str(BENCH_DATA / "rot2.tqft")],
            capture_output=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert done.returncode == 0 and done.stderr == b""


class TestStandardLibraryOnly:
    def test_importing_the_package_loads_only_the_standard_library(self):
        # Only the modules the import adds count: the interpreter's start-up
        # (site, .pth files) is not the package's doing.
        code = ("import sys; before = set(sys.modules); import tqft2d, tqft2d.cli; "
                "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert done.returncode == 0, done.stderr
        loaded = done.stdout.split()
        assert "tqft2d" in loaded
        assert [m for m in loaded if m not in sys.stdlib_module_names and m != "tqft2d"] == []


class TestDeterminism:
    def test_invariant_output_stable(self, write, capsys):
        t = write("t.tqft", T2_FILE)
        s = write("s.srf", DISK_FILE)
        main(["invariant", t, s])
        first = capsys.readouterr().out
        main(["invariant", t, s])
        assert capsys.readouterr().out == first
