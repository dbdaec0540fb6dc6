import io
import json
import os
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from delshadow import extremal, orders, verify
from delshadow.cli import build_parser, main
from delshadow.famio import FamilyFormatError, format_sequence, read_family, write_family
from delshadow.orders import initial_segment_leq
from delshadow.seqcore import Family
from delshadow.verify import ALL_CHECKS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def family_file(tmp_path, text, name="fam.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestFamilyFormat:
    def test_round_trip(self):
        for n, k, m in [(2, 1, 3), (3, 2, 11), (2, 3, 0), (0, 2, 0), (0, 2, 1)]:
            a = initial_segment_leq(n, k, m)
            buf = io.StringIO()
            write_family(a, buf)
            assert read_family(io.StringIO(buf.getvalue())) == a

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n2 1\n0 1\n# trailing\n1 0\n"
        a = read_family(io.StringIO(text))
        assert a.members == {(0, 1), (1, 0)}
        # Only past an `0 k` header is a blank line the member ().
        assert read_family(io.StringIO("# c\n\n0 2\n# c\n")).members == set()
        assert read_family(io.StringIO("# c\n\n0 2\n# c\n\n")).members == {()}

    def test_output_is_sorted_in_leq_order(self):
        buf = io.StringIO()
        write_family(Family.of(2, 1, [(0, 0), (1, 1), (0, 1)]), buf)
        assert buf.getvalue() == "2 1\n1 1\n0 1\n0 0\n"

    def test_a_failed_sort_writes_nothing(self):
        # The trusting constructor takes a member that leq_key cannot key.
        buf = io.StringIO()
        with pytest.raises(TypeError):
            write_family(Family(2, 1, frozenset({(0, 1), (0, "1")})), buf)
        assert buf.getvalue() == ""

    def test_entries_format_as_decimal_text(self):
        x = (0, 1, 9, 10, 255, 256, 1000, 10 ** 20)
        assert format_sequence(x) == " ".join(map(str, x))
        assert format_sequence(()) == ""

    def test_long_member_is_formatted_without_a_str_per_entry(self):
        # One str per entry peaked at about 60 MB for 10^6 entries.
        x = (1,) * 10 ** 6
        tracemalloc.start()
        try:
            line = format_sequence(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert line == "1 " * (10 ** 6 - 1) + "1"
        assert peak < 20 * 10 ** 6

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "missing"),
            ("2\n", "line 1"),
            ("2 1\n0 1 1\n", "line 2"),
            ("2 1\n0 2\n", "line 2"),
            ("2 1\nzero one\n", "line 2"),
            ("2 0\n", "line 1"),
        ],
    )
    def test_malformed_inputs_carry_line_numbers(self, text, fragment):
        with pytest.raises(FamilyFormatError, match=fragment):
            read_family(io.StringIO(text))


def _read_by_tokens(stream):
    """The family format read one token at a time with int(), as a reference
    for `read_family`: ("family", n, k, members) or ("error", message)."""
    header, members, n, k = None, set(), 0, 0
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if line.startswith("#") or not line and (header is None or n):
            continue
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            return ("error", f"line {lineno}: non-integer token in {line!r}")
        if header is None:
            if len(values) != 2:
                return ("error", f"line {lineno}: header must be `n k`, got {line!r}")
            n, k = header = values
            if n < 0 or k < 1:
                return ("error", f"line {lineno}: need n >= 0 and k >= 1, got n={n} k={k}")
            continue
        if len(values) != n:
            return ("error", f"line {lineno}: expected {n} entries, got {len(values)}")
        for e in values:
            if not 0 <= e <= k:
                return ("error", f"line {lineno}: entry {e} not in [0, {k}]")
        members.add(tuple(values))
    if header is None:
        return ("error", "missing `n k` header line")
    return ("family", n, k, members)


def _spellings(k):
    """One entry's text: canonical decimal mostly, else another spelling that
    int() reads or refuses."""
    entries = st.sampled_from(sorted({0, 1, 2, k - 1, k, k + 1, 255, 256, 999, 1000, 1001}))
    odd = st.sampled_from(["01", "+1", "1_0", "\u0661", "-0", "-1", "00", "1.0", "x", "0x1"])
    return st.one_of(entries.map(str), entries.map(str), odd)


@st.composite
def _family_texts(draw):
    n, k = draw(st.integers(0, 4)), draw(st.sampled_from([1, 2, 3, 255, 256, 1000]))
    lines = ["# a comment", f"{n} {k}"]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["member", "member", "member", "count", "blank", "comment"]))
        if kind in ("blank", "comment"):
            lines.append("" if kind == "blank" else "# c")
            continue
        width = n if kind == "member" else draw(st.integers(0, n + 1))
        tokens = [draw(_spellings(k)) for _ in range(width)]
        gaps = [draw(st.sampled_from([" ", " ", "\t", "  "])) for _ in tokens]
        line = "".join(gap + tok for gap, tok in zip(gaps, tokens))
        lines.append(line if draw(st.booleans()) else line.strip())
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n"])) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


class TestReadFastPath:
    @settings(max_examples=300, deadline=None)
    @given(_family_texts())
    def test_matches_reading_one_token_at_a_time(self, text):
        try:
            a = read_family(io.StringIO(text))
            got = ("family", a.n, a.k, a.members)
        except FamilyFormatError as e:
            got = ("error", str(e))
        assert got == _read_by_tokens(io.StringIO(text))

    @pytest.mark.parametrize("k,bad", [(2, "3"), (2, "-1"), (1000, "1001"), (300, "256 1 2 301")])
    def test_out_of_range_entry_after_valid_lines_keeps_its_line(self, k, bad):
        n = len(bad.split()) if " " in bad else 3
        good = " ".join(str(min(i, k)) for i in range(n))
        row = bad if " " in bad else f"1 {bad} 0"
        text = f"{n} {k}\n" + f"{good}\n" * 5 + "# c\n" + f"{row}\n{good}\n"
        with pytest.raises(FamilyFormatError, match=r"^line 8: entry -?\d+ not in \[0, "):
            read_family(io.StringIO(text))

    def test_blank_members_and_large_entries(self):
        assert read_family(io.StringIO("0 5\n\n\n")).members == {()}
        a = read_family(io.StringIO("3 1000\n1000 255 256\n0\t1 \t999\r\n"))
        assert a.members == {(1000, 255, 256), (0, 1, 999)}
        assert read_family(io.StringIO("2 3\n01 +1\n")).members == {(1, 1)}


class TestShadowCommand:
    def test_radius_one_example(self, tmp_path, capsys):
        src = family_file(tmp_path, "5 2\n0 0 1 2 1\n")
        code, out, _ = run_cli(capsys, "shadow", "--r", "1", "--in", src)
        assert code == 0
        assert read_family(io.StringIO(out)).members == {
            (0, 1, 2, 1),
            (0, 0, 2, 1),
            (0, 0, 1, 2),
        }

    def test_max_radius_is_full_deletion(self, tmp_path, capsys):
        src = family_file(tmp_path, "3 2\n1 2 1\n")
        code, out, _ = run_cli(capsys, "shadow", "--r", "max", "--in", src)
        assert code == 0
        assert read_family(io.StringIO(out)).members == {(2, 1), (1, 1), (1, 2)}

    def test_json_output(self, tmp_path, capsys):
        src = family_file(tmp_path, "2 1\n0 1\n")
        code, out, _ = run_cli(capsys, "shadow", "--r", "0", "--in", src, "--json")
        assert code == 0
        assert json.loads(out) == {"n": 1, "k": 1, "members": ["1"]}


class TestPipelines:
    def test_initseg_shadow_size_matches_minshadow(self, tmp_path, capsys):
        for n, k, m in [(2, 1, 3), (3, 1, 5), (3, 2, 11)]:
            seg = str(tmp_path / "seg.txt")
            code, _, _ = run_cli(
                capsys, "initseg", "--n", str(n), "--k", str(k),
                "--size", str(m), "--out", seg,
            )
            assert code == 0
            code, out, _ = run_cli(capsys, "shadow", "--r", "0", "--in", seg)
            assert code == 0
            shadow_size = len(read_family(io.StringIO(out)))
            code, out, _ = run_cli(
                capsys, "minshadow", "--n", str(n), "--k", str(k),
                "--size", str(m), "--json",
            )
            assert code == 0
            assert json.loads(out)["min_shadow"] == shadow_size

    def test_length_zero_shadow_reads_back(self, tmp_path, capsys):
        # The shadow of a length-1 family is {()}: a blank line under `0 2`.
        src = family_file(tmp_path, "1 2\n0\n2\n")
        dst = str(tmp_path / "shadow.txt")
        assert run_cli(capsys, "shadow", "--r", "0", "--in", src, "--out", dst) == (0, "", "")
        assert Path(dst).read_text() == "0 2\n\n"
        assert run_cli(capsys, "canonicalize", "--in", dst) == (0, "0 2\n\n", "")

    def test_canonicalize_equals_initseg(self, tmp_path, capsys):
        src = family_file(tmp_path, "2 1\n0 0\n1 0\n")
        code, out, _ = run_cli(capsys, "canonicalize", "--in", src)
        assert code == 0
        assert read_family(io.StringIO(out)) == initial_segment_leq(2, 1, 2)

    def test_canonicalize_deep_family_equals_initseg(self, tmp_path, capsys):
        src = family_file(tmp_path, "8 3\n3 0 2 1 0 3 3 1\n2 2 2 2 2 2 2 2\n")
        code, out, _ = run_cli(capsys, "canonicalize", "--in", src)
        assert code == 0
        assert run_cli(capsys, "initseg", "--n", "8", "--k", "3", "--size", "2") == (0, out, "")

    def test_compress_example(self, tmp_path, capsys):
        src = family_file(tmp_path, "2 2\n0 1\n0 2\n")
        code, out, _ = run_cli(capsys, "compress", "--s", "1", "--t", "2", "--in", src)
        assert code == 0
        assert read_family(io.StringIO(out)).members == {(0, 1), (1, 0)}

    def test_compress_long_family(self, tmp_path, capsys):
        n = 1100
        src = family_file(tmp_path, f"{n} 1\n1" + " 0" * (n - 1) + "\n")
        code, out, err = run_cli(capsys, "compress", "--s", "1", "--t", "", "--in", src)
        assert (code, err) == (0, "")
        assert out == f"{n} 1\n" + "0 " * (n - 1) + "1\n"

    @pytest.mark.parametrize("n,k,size,members", [
        (30, 3, 1, ["3 " * 29 + "3"]),
        (3, 5000, 2, ["5000 5000 5000", "4999 5000 5000"]),
    ])
    def test_initseg_streams_large_levels(self, capsys, n, k, size, members):
        code, out, err = run_cli(
            capsys, "initseg", "--n", str(n), "--k", str(k), "--size", str(size)
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == [f"{n} {k}", *members]

    def test_initseg_at_large_k_sorts_in_linear_time(self, capsys):
        code, out, err = run_cli(capsys, "initseg", "--n", "3", "--k", "5000", "--size", "20000")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "3 5000" and len(lines) == 20001

    def test_bound_command(self, tmp_path, capsys):
        src = family_file(tmp_path, "5 2\n0 0 1 2 1\n")
        code, out, _ = run_cli(capsys, "bound", "--r", "1", "--in", src, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"r": 1, "bound": "2/5", "shadow_size": 3}

    def test_family_command(self, capsys):
        code, out, _ = run_cli(
            capsys, "family", "--kind", "at", "--n", "2", "--k", "2", "--t", "2"
        )
        assert code == 0
        assert read_family(io.StringIO(out)).members == {
            (0, 0), (0, 1), (1, 0), (1, 1),
        }


class TestVerifyCommand:
    def test_passing_suite_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "theorem1,lemma3",
            "--mode", "exhaustive", "--n", "2", "--k", "1", "--json",
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["check"] for r in reports] == ["theorem1", "lemma3"]
        assert all(not r["violations"] for r in reports)

    def test_open_question_never_fails_the_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "conjecture1",
            "--mode", "exhaustive", "--n", "2", "--k", "2",
        )
        assert code == 0
        assert "conjecture1" in out

    def test_a_violated_claim_exits_one(self, capsys, monkeypatch):
        monkeypatch.setenv("DELSHADOW_THREADS", "1")
        right = extremal.min_delta_shadow_size
        monkeypatch.setattr(extremal, "min_delta_shadow_size", lambda n, k, m: right(n, k, m) + 1)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "theorem1",
            "--n", "2", "--k", "1", "--mode", "exhaustive",
        )
        assert code == 1
        assert "theorem1: FAIL" in out
        assert "\n  violation: size 3: brute min 1 != closed form 2 [1 1; 0 1; 1 0]\n" in out

    def test_no_suite_means_every_check(self):
        assert build_parser().parse_args(["verify"]).suite == ",".join(ALL_CHECKS)


class TestSharedParser:
    def test_one_parser_serves_every_call(self, capsys):
        assert build_parser() is build_parser()
        with pytest.raises(SystemExit) as exc:
            main(["initseg", "--n", "x", "--k", "1", "--size", "1"])
        assert exc.value.code == 2
        # argparse writes to the sys.stderr of the moment, here capsys's.
        assert "invalid int value: 'x'" in capsys.readouterr().err
        code, out, err = run_cli(capsys, "minshadow", "--n", "2", "--k", "1", "--size", "99")
        assert (code, out, err) == (2, "", "error: size 99 not in [0, 4]\n")
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemma4")
        assert code == 0 and out.startswith("lemma4: PASS")
        code, out, _ = run_cli(capsys, "initseg", "--n", "2", "--k", "1", "--size", "2", "--json")
        assert (code, json.loads(out)) == (0, {"n": 2, "k": 1, "members": ["1 1", "0 1"]})
        assert run_cli(capsys, "initseg", "--n", "2", "--k", "1", "--size", "2") == (
            0, "2 1\n1 1\n0 1\n", "")
        assert build_parser().parse_args(["verify"]).suite == ",".join(ALL_CHECKS)


SRC = str(Path(__file__).resolve().parents[1] / "src")
FAMILY_REFUSAL = "error: family infeasible: its members of length {} hold over 8388608 entries\n"


class TestHugeRequests:
    """Each of these enumerated a universe of up to 4^40 sequences, or
    computed a power such as 3^(10^8), and ran for hours.  Each now answers at
    once; a separate process and its timeout keep a fall back from hanging
    the test run."""

    @pytest.mark.parametrize("command,code,out,err", [
        ("family --kind brt --n 40 --k 3 --r 0 --t 1", 0, "40 3\n" + "1 " * 39 + "1\n", ""),
        ("family --kind lleq --n 40 --k 3 --r 2 --s 0", 0, "40 3\n" + "3 " * 39 + "3\n", ""),
        ("minshadow --n 100000000 --k 2 --size 1", 0, "0\n", ""),
        ("family --kind at --n 40 --k 3 --t 3", 2, "", FAMILY_REFUSAL.format(40)),
        ("initseg --n 40 --k 3 --size 100000000000", 2, "", FAMILY_REFUSAL.format(40)),
        ("initseg --n 100000000 --k 2 --size 1", 2, "", FAMILY_REFUSAL.format(100000000)),
        ("family --kind at --n 100000000 --k 2 --t 1", 2, "", FAMILY_REFUSAL.format(100000000)),
    ])
    def test_answers_at_once(self, command, code, out, err):
        assert self.run_module(*command.split()) == (code, out, err)

    def test_shadow_of_one_long_run_answers_at_once(self, tmp_path):
        # Every deletion from the one run of 1s gives the same child; made once
        # per position, they took minutes at n = 10^5.
        n = 100_000
        src = family_file(tmp_path, f"{n} 1\n" + " ".join("1" * n) + "\n")
        out = f"{n - 1} 1\n" + " ".join("1" * (n - 1)) + "\n"
        assert self.run_module("shadow", "--r", "max", "--in", src) == (0, out, "")

    @staticmethod
    def run_module(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "delshadow.cli", *argv],
            capture_output=True, text=True, timeout=10, env={**os.environ, "PYTHONPATH": SRC},
        )
        return done.returncode, done.stdout, done.stderr


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "shadow", "--r", "0", "--in", "/nonexistent")
        assert code == 2
        assert "error" in err

    def test_malformed_family(self, tmp_path, capsys):
        src = family_file(tmp_path, "2 1\n0 3\n")
        code, _, err = run_cli(capsys, "shadow", "--r", "0", "--in", src)
        assert code == 2
        assert "line 2" in err

    def test_bad_value(self, capsys):
        code, _, err = run_cli(
            capsys, "minshadow", "--n", "2", "--k", "1", "--size", "99"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "n,k,size", [("3", "0", "1"), ("3", "-1", "0"), ("-2", "1", "0")]
    )
    def test_minshadow_invalid_alphabet(self, capsys, n, k, size):
        code, out, err = run_cli(capsys, "minshadow", "--n", n, "--k", k, "--size", size)
        assert (code, out) == (2, "")
        assert "error" in err

    @pytest.mark.parametrize("suite", ["theorem1", "theorem2"])
    def test_negative_length_is_an_input_error(self, capsys, monkeypatch, suite):
        monkeypatch.setenv("DELSHADOW_THREADS", "1")
        code, _, err = run_cli(capsys, "verify", "--suite", suite, "--n", "-1")
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["at", "brt", "lleq"])
    def test_family_negative_length(self, capsys, kind):
        code, out, err = run_cli(
            capsys, "family", "--kind", kind, "--n", "-1", "--k", "2",
            "--r", "1", "--t", "1", "--s", "0",
        )
        assert (code, out) == (2, "")
        assert err == "error: length n must be >= 0, got -1\n"

    @pytest.mark.parametrize("kind,flags,missing", [
        ("lleq", ["--r", "1"], "--r and --s"),
        ("lleq", ["--s", "1"], "--r and --s"),
        ("brt", ["--t", "1"], "--r and --t"),
        ("brt", ["--r", "1", "--s", "1"], "--r and --t"),
        ("at", ["--r", "1", "--s", "1"], "--t"),
    ])
    def test_family_missing_flags(self, capsys, kind, flags, missing):
        code, out, err = run_cli(capsys, "family", "--kind", kind, "--n", "3", "--k", "2", *flags)
        assert (code, out, err) == (2, "", f"error: {kind} needs {missing}\n")

    @pytest.mark.parametrize("suite", ["theorem1", "theorem2", "conjecture1"])
    def test_unenumerable_universe_is_refused(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--n", "30", "--k", "1")
        assert (code, out) == (2, "")
        assert "universe has 2^30 > 4096 elements" in err and "Traceback" not in err

    @pytest.mark.parametrize("suite", ["theorem1", "theorem2", "conjecture1"])
    def test_huge_length_is_refused_before_any_power(self, capsys, monkeypatch, suite):
        monkeypatch.setattr(verify, "child_masks", lambda *args: pytest.fail("work started"))
        code, out, err = run_cli(
            capsys, "verify", "--suite", suite, "--n", "100000000", "--k", "2"
        )
        assert (code, out) == (2, "")
        assert "sweep infeasible" in err and "Traceback" not in err

    def test_oversized_a_t_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "a_t", "--n", "30", "--k", "2")
        assert (code, out) == (2, "")
        assert err == "error: a_t infeasible: A_1..A_k at n=30, k=2 have over 524288 members\n"

    @pytest.mark.parametrize("n,k,members", [
        (26, 2, ""),
        (13, 3, "1 2 3 0 1 2 3 0 1 2 3 0 1\n"),
        (12, 3, "1 2 3 0 1 2 3 0 1 2 3 0\n"),
        (14, 3, "1 2 3 0 1 2 3 0 1 2 3 0 1 2\n"),
        (100000000, 1, ""),
        *((100000, k, " ".join(str(i % (k + 1)) for i in range(100000)) + "\n")
          for k in (1, 2, 3)),
    ], ids=["26-2-empty", "13-3", "12-3", "14-3", "huge-n-1-empty",
            "long-1", "long-2", "long-3"])
    def test_canonicalize_cost_follows_the_family(self, tmp_path, capsys, monkeypatch,
                                                  n, k, members):
        # Generating the labels of every level had not ended after 20 s at (26, 2);
        # labels are ranked instead, and only the labels placed are drawn.
        drawn = []

        def counted(*args):
            for label in orders.level_labels(*args):
                drawn.append(label)
                yield label

        monkeypatch.setattr(extremal, "level_labels", counted)
        src = family_file(tmp_path, f"{n} {k}\n{members}")
        out = f"{n} {k}\n" + (" ".join(str(k) * n) + "\n" if members else "")
        assert run_cli(capsys, "canonicalize", "--in", src) == (0, out, "")
        assert drawn == ([(k,) * n] if members else [])

    def test_largest_canonicalize_answers(self, tmp_path, capsys):
        src = family_file(tmp_path, "11 3\n0 1 2 3 0 1 2 3 0 1 2\n")
        out = "11 3\n" + "3 " * 10 + "3\n"
        assert run_cli(capsys, "canonicalize", "--in", src) == (0, out, "")

    def test_sampled_sweep_of_hours_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "child_masks", lambda *args: pytest.fail("work started"))
        code, out, err = run_cli(
            capsys, "verify", "--suite", "theorem1", "--n", "12", "--k", "1", "--mode", "random"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: sampled search infeasible: ") and err.count("\n") == 1

    def test_largest_sweep_finishes(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "theorem1", "--n", "12", "--k", "1",
            "--mode", "random", "--samples", "1",
        )
        assert (code, err) == (0, "")
        assert out.startswith("theorem1: PASS (4097 instances, ")

    @pytest.mark.parametrize(
        "family,r", [("2 1\n0 1\n", "-1"), ("2 2\n", "5")], ids=["negative", "above_k"]
    )
    def test_bound_radius_out_of_range(self, tmp_path, capsys, family, r):
        src = family_file(tmp_path, family)
        code, out, err = run_cli(capsys, "bound", "--r", r, "--in", src)
        assert (code, out) == (2, "")
        assert "deletion radius" in err and "Traceback" not in err

    @pytest.mark.parametrize("command,r", [("shadow", "abc"), ("bound", "1.5")])
    def test_non_integer_radius_names_the_flag(self, tmp_path, capsys, command, r):
        src = family_file(tmp_path, "2 1\n0 1\n")
        code, out, err = run_cli(capsys, command, "--r", r, "--in", src)
        assert (code, out) == (2, "")
        assert err == f"error: radius must be an integer or 'max', got '{r}'\n"

    @pytest.mark.parametrize(
        "family", ["3 2\n0 0 1\n", "3 2\n0 2 2\n"], ids=["mass_to_place", "no_mass"]
    )
    def test_compress_label_out_of_range(self, tmp_path, capsys, family):
        src = family_file(tmp_path, family)
        code, out, err = run_cli(capsys, "compress", "--s=-1,1", "--t=1", "--in", src)
        assert (code, out) == (2, "")
        assert err == "error: component label (-1, 1) must have its entries in [1, 2]\n"

    def test_out_of_memory_is_an_input_error(self, tmp_path, capsys):
        # Sorting the output builds a <= key of about 2 * 10^18 bits, which no
        # allocator can give, so the run fails the same way on every host.
        # The output is rendered in full before it is opened, so the header
        # is neither printed nor left alone in an --out file.
        src = family_file(tmp_path, "3 1000000000000000000\n0 1 1\n")
        code, out, err = run_cli(capsys, "shadow", "--r", "0", "--in", src)
        assert (code, out, err) == (2, "", "error: out of memory: the input is too large\n")
        dst = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, "shadow", "--r", "0", "--in", src, "--out", str(dst))
        assert (code, out, err) == (2, "", "error: out of memory: the input is too large\n")
        assert not dst.exists()

    def test_negative_max_size_is_an_input_error(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "theorem1", "--n", "2", "--k", "1", "--max-size", "-3"
        )
        assert (code, out) == (2, "")
        assert "max_size" in err and "Traceback" not in err

    def test_unknown_check_name(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nope")
        assert code == 2

    @pytest.mark.parametrize("command,err", [
        ("initseg --n -1 --k 2 --size 1", "length n must be >= 0, got -1"),
        ("initseg --n 2 --k -1 --size 1", "alphabet ceiling k must be >= 1, got -1"),
        ("family --kind at --n 2 --k 0 --t 1", "alphabet ceiling k must be >= 1, got 0"),
        ("minshadow --n -1 --k 0 --size 0", "alphabet ceiling k must be >= 1, got 0"),
        ("verify --suite ,", f"--suite names no check; expected one of {sorted(ALL_CHECKS)}"),
        ("verify --suite=", f"--suite names no check; expected one of {sorted(ALL_CHECKS)}"),
    ], ids=["initseg_n", "initseg_k", "family_k", "minshadow_k", "suite_comma", "suite_empty"])
    def test_bad_shape_and_empty_suite_are_named(self, capsys, command, err):
        assert run_cli(capsys, *command.split()) == (2, "", f"error: {err}\n")

    def test_deep_minshadow_has_no_traceback(self, capsys):
        # Levels below 1050 are full; the partial component at level 1050
        # lacks one set, so it adds C(1099, 1049) (see ones_count_colex).
        n, level = 1100, 1050
        size = sum(comb(n, j) for j in range(level + 1)) - 1
        code, out, err = run_cli(
            capsys, "minshadow", "--n", str(n), "--k", "1", "--size", str(size)
        )
        assert (code, err) == (0, "")
        expected = sum(comb(n - 1, i - 1) for i in range(1, level)) + comb(n - 1, level - 1)
        assert int(out) == expected

    @pytest.mark.parametrize("suite", ["theorem2", "lemma3"])  # pooled, serial
    def test_bad_thread_count(self, capsys, monkeypatch, suite):
        monkeypatch.setenv("DELSHADOW_THREADS", "abc")
        code, _, err = run_cli(
            capsys, "verify", "--suite", suite, "--mode", "exhaustive", "--n", "2"
        )
        assert code == 2
        assert "DELSHADOW_THREADS" in err

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["shadow"])
        assert exc.value.code == 2


class TestFamilyOfIsForOutsideCallers:
    """Inside the package every family is built by the trusting constructor,
    after its (n, k) and parameters are checked."""

    def test_commands_and_checks_never_call_it(self, capsys, monkeypatch):
        monkeypatch.setattr(Family, "of", lambda *args: pytest.fail("Family.of called"))
        for command in (
            "initseg --n 3 --k 2 --size 11",
            "family --kind lleq --n 3 --k 2 --r 1 --s 2",
            "family --kind brt --n 3 --k 2 --r 1 --t 2",
            "family --kind at --n 3 --k 2 --t 2",
            "minshadow --n 3 --k 2 --size 11",
        ):
            code, out, err = run_cli(capsys, *command.split())
            assert (code, err) == (0, "") and out
        reports = verify.run_suite(list(ALL_CHECKS), verify.SearchBudget(samples=300))
        assert [rep.check for rep in reports] == list(ALL_CHECKS)
        assert all(rep.ok for rep in reports)
