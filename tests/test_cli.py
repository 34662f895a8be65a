import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from skipseq import (
    build_supersequence,
    construct,
    generate,
    verify_supersequence_exhaustive,
)
from skipseq.cli import _json_value, main
from skipseq.verify import adversarial_permutations

import golden


# at (3, 298) the letters pass CPython's cached small ints and the
# interposed letter m = 299 is the last entry of the letter table
GENERATE_CASES = [(1, 4), (2, 9), (3, 13), (4, 24), (3, 298)]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--s", "3", "--n", "18", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["s"] == 3 and payload["n"] == 18
        assert payload["length"] == 323
        assert len(payload["supersequence"]) == 323
        assert [tuple(s) for s in payload["sequences"]] == golden.T3_18

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "generate", "--s", "4", "--n", "24")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 25  # 24 sequences + the supersequence
        assert len(lines[-1].split(",")) == 573
        assert lines[0] == ",".join(map(str, golden.T4_24[0]))

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run(capsys, "generate", "--s", "2", "--n", "6")
        assert code == 2
        assert "erratum" in err

    def test_huge_level_exit_2(self, capsys):
        # validation costs the same at any level: no scan of candidates
        code, out, err = run(capsys, "generate", "--s", "1000000000", "--n", "5")
        assert code == 2
        assert out == ""
        assert "4000000001" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "--s", "2", "--n", "-100"),
            ("generate", "--s", "3", "--n", "-30"),
            ("verify", "--s", "2", "--n", "-100", "--sampled", "--seed", "1"),
        ],
        ids=["generate-s2", "generate-s3", "verify-sampled"],
    )
    def test_n_far_below_range_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "must be >=" in err

    @pytest.mark.parametrize("command", ["generate", "verify"])
    def test_level_below_1_exit_2(self, capsys, command):
        code, out, err = run(capsys, command, "--s", "0", "--n", "5")
        assert code == 2
        assert out == ""
        assert "level s=0 must be >= 1" in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, _, _ = run(
            capsys, "generate", "--s", "1", "--n", "6",
            "--format", "json", "--output", str(path),
        )
        assert code == 0
        assert json.loads(path.read_text())["length"] == 39

    @pytest.mark.parametrize("s,n", GENERATE_CASES)
    def test_json_bytes_match_json_dumps(self, capsys, tmp_path, s, n):
        glist = generate(s, n)
        word = build_supersequence(glist).word
        payload = {
            "s": s,
            "n": n,
            "sequences": [list(seq) for seq in glist.sequences],
            "supersequence": list(word),
            "length": len(word),
        }
        argv = ("generate", "--s", str(s), "--n", str(n), "--format", "json")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == json.dumps(payload, indent=2) + "\n"
        path = tmp_path / "out.json"
        assert run(capsys, *argv, "--output", str(path)) == (0, "", "")
        assert path.read_bytes() == out.encode()

    @pytest.mark.parametrize("s,n", GENERATE_CASES)
    def test_text_bytes_match_str_join(self, capsys, tmp_path, s, n):
        glist = generate(s, n)
        word = build_supersequence(glist).word
        lines = [",".join(map(str, seq)) for seq in glist.sequences]
        lines.append(",".join(map(str, word)))
        argv = ("generate", "--s", str(s), "--n", str(n))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == "\n".join(lines) + "\n"
        path = tmp_path / "out.txt"
        assert run(capsys, *argv, "--output", str(path)) == (0, "", "")
        assert path.read_bytes() == out.encode()

    @given(st.data())
    def test_json_value_matches_json_dumps(self, data):
        # the letter-table fast path against the encoder it replaces
        m = data.draw(st.integers(min_value=1, max_value=300))
        letters = st.lists(
            st.integers(min_value=1, max_value=m), min_size=1, max_size=20
        )
        letters = letters | letters.map(tuple)
        value = data.draw(letters | st.lists(letters, min_size=1, max_size=5))
        names = [str(a) for a in range(m + 1)]
        assert _json_value(value, 0, names) == json.dumps(value, indent=2)

    def test_byte_identical_reruns(self, capsys):
        for fmt in ("json", "text"):
            argv = ("generate", "--s", "3", "--n", "13", "--format", fmt)
            assert run(capsys, *argv) == run(capsys, *argv)

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
    )
    @pytest.mark.parametrize(
        "fmt,size,bound_mib", [("json", 7_019_130, 52), ("text", 2_727_604, 44)]
    )
    def test_m599_output_peak_rss(
        self, child_report, tmp_path, fmt, size, bound_mib
    ):
        # the 7 MB payload renders from one string per letter of the
        # alphabet, not one per letter emitted: VmHWM measured 45.9 (json)
        # and 33.1 MiB (text) on Python 3.11, 44.6 and 30.3 on 3.10;
        # one str() per letter emitted peaked at 58.0 and 52.4 MiB
        path = tmp_path / f"out.{fmt}"
        argv = [
            "generate", "--s", "3", "--n", "598", "--format", fmt,
            "--output", str(path),
        ]
        out = child_report(
            "from skipseq import cli\n"
            f"print('code', cli.main({argv!r}))\n"
        )
        assert out["code"] == "0"
        assert path.stat().st_size == size
        assert int(out["hwm"]) < bound_mib * 1024


class TestVerify:
    def test_intro_word_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--word", "1,2,3,1,2,1,3", "--m", "3",
            "--exhaustive",
        )
        assert code == 0
        assert "pass" in out

    def test_truncated_word_fails_with_witness(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--word", "1,2,3,1,2,1", "--m", "3",
            "--exhaustive", "--format", "json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "fail"
        assert payload["witness"][-1] == 3

    def test_generated_sampled_deterministic(self, capsys):
        args = (
            "verify", "--s", "3", "--n", "13", "--sampled",
            "--count", "2000", "--seed", "42",
        )
        a = run(capsys, *args)
        b = run(capsys, *args)
        assert a == b
        assert a[0] == 0
        assert "seed: 42" in a[1]

    def test_sampled_autogenerates_and_reports_seed(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--word", "1,2,1", "--m", "2",
            "--sampled", "--count", "10",
        )
        assert code == 0
        assert "seed:" in out

    def test_word_file_input(self, capsys, tmp_path):
        path = tmp_path / "word.txt"
        path.write_text("1 2 3 1 2 1 3\n")
        code, _, _ = run(
            capsys, "verify", "--word-file", str(path), "--m", "3",
            "--exhaustive",
        )
        assert code == 0

    def test_malformed_word_exit_2(self, capsys):
        code, _, err = run(
            capsys, "verify", "--word", "1,x,3", "--m", "3", "--exhaustive"
        )
        assert code == 2
        assert "malformed" in err

    def test_word_without_letters(self, capsys):
        # with no letters and no --m the alphabet is unknown
        code, out, err = run(capsys, "verify", "--word", ",,", "--exhaustive")
        assert code == 2
        assert out == ""
        assert "no letters" in err and "--m" in err
        # with --m the empty word is checked and fails with a witness
        code, out, _ = run(
            capsys, "verify", "--word", "", "--m", "2", "--exhaustive"
        )
        assert code == 1
        assert "witness: 1,2" in out

    def test_generated_m16_exhaustive_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--s", "1", "--n", "15", "--exhaustive"
        )
        assert code == 0
        assert "verdict: pass (exhaustive)" in out

    def test_above_ceiling_exit_2(self, capsys):
        word = ",".join(map(str, range(1, 27)))
        code, out, err = run(
            capsys, "verify", "--word", word, "--m", "26", "--exhaustive"
        )
        assert code == 2
        assert out == ""
        assert "m=26 exceeds the exhaustive ceiling 25; use sampled mode" in err
        assert "allow_long" not in err

    def test_missing_input_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--exhaustive")
        assert code == 2

    @pytest.mark.parametrize("m", ["0", "-3"])
    @pytest.mark.parametrize("mode", ["--exhaustive", "--sampled"])
    def test_alphabet_size_below_1_exit_2(self, capsys, mode, m):
        code, out, err = run(
            capsys, "verify", "--word", "1,2,1", "--m", m, mode, "--seed", "1"
        )
        assert code == 2
        assert out == ""
        assert f"alphabet size m={m} must be at least 1" in err

    def test_sampled_negative_seed_exit_2(self, capsys):
        code, out, err = run(
            capsys, "verify", "--word", "1,2,1", "--m", "2", "--sampled",
            "--seed", "-1",
        )
        assert code == 2
        assert out == ""
        assert "seed=-1 must be non-negative" in err

    def test_sampled_alphabet_above_ceiling_exit_2(self, capsys):
        code, out, err = run(
            capsys, "verify", "--word", "1,2", "--m", "1000000000",
            "--sampled", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert "m=1000000000 exceeds the sampled ceiling 2097152" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--s", "2", "--n", "9", "--format", "json"
        )
        assert code == 0
        word = tuple(json.loads(out)["supersequence"])
        in_process = verify_supersequence_exhaustive(word, 10)
        code, out, _ = run(
            capsys, "verify", "--word", ",".join(map(str, word)),
            "--m", "10", "--exhaustive",
        )
        assert (code == 0) == in_process.passed


class TestVerifyFamily:
    """verify --sampled checks the adversarial family over {1..m}, the
    reversal of 1..m-1 followed by m, before the random permutations,
    whatever gave the word; --s and --n next to --word are ignored."""

    SAMPLED = ("--sampled", "--count", "2000", "--seed", "42")

    @pytest.fixture
    def generate_calls(self, monkeypatch):
        # generate(s, n) finds gen_ts in construct's namespace for s >= 3,
        # so this counts every list made at those levels, whatever name
        # the caller holds for generate
        calls = []
        gen_ts = construct.gen_ts

        def counting(s, n):
            calls.append((s, n))
            return gen_ts(s, n)

        monkeypatch.setattr(construct, "gen_ts", counting)
        return calls

    @staticmethod
    def checked(capsys, *argv):
        code, out, _ = run(capsys, "verify", *argv, "--format", "json")
        payload = json.loads(out)
        return code, payload["stats"]["permutations_checked"], payload

    def test_generated_word_generates_the_list_once(
        self, capsys, generate_calls
    ):
        family = len(adversarial_permutations(14))
        code, checked, _ = self.checked(
            capsys, "--s", "3", "--n", "13", *self.SAMPLED
        )
        assert code == 0
        assert checked == 2000 + family
        assert generate_calls == [(3, 13)]

    def test_word_with_s_and_n_gets_the_family(self, capsys, generate_calls):
        word = ",".join(map(str, build_supersequence(generate(3, 13)).word))
        generate_calls.clear()
        for given in (("--s", "3", "--n", "13"), ("--m", "14"), ()):
            _, checked, _ = self.checked(
                capsys, "--word", word, *given, *self.SAMPLED
            )
            assert checked == 2001
        assert generate_calls == []
        # the exhaustive check needs no list
        code, _, _ = run(
            capsys, "verify", "--word", word, "--s", "3", "--n", "13",
            "--exhaustive",
        )
        assert code == 0
        assert generate_calls == []

    def test_word_prints_what_its_generated_run_prints(self, capsys):
        word = ",".join(map(str, build_supersequence(generate(3, 13)).word))
        argv = ("verify", *self.SAMPLED, "--format", "json")
        given = run(capsys, *argv, "--word", word, "--m", "14")
        generated = run(capsys, *argv, "--s", "3", "--n", "13")
        assert given == generated
        assert json.loads(given[1])["stats"]["permutations_checked"] == 2001

    def test_deletion_fails_on_the_family_reversal(self, capsys):
        word = build_supersequence(generate(3, 13)).word
        assert word[13] == 13  # the 13 that ends sigma_1
        cut = ",".join(map(str, word[:13] + word[14:]))
        code, checked, payload = self.checked(
            capsys, "--word", cut, "--m", "14", "--sampled", "--seed", "1",
        )
        assert code == 1
        assert payload["witness"] == list(range(13, 0, -1)) + [14]
        assert checked == 1


class TestAnalyze:
    def test_csv_range(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--m-range", "5:100", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,classical,zalinescu,radomirovic,best_s,best_len,actual"
        assert len(lines) == 97

    def test_single_m_json(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--m", "25", "--format", "json"
        )
        assert code == 0
        (row,) = json.loads(out)
        assert row["classical"] == 579
        assert row["best_len"] == 573

    def test_single_m_text(self, capsys):
        code, out, _ = run(capsys, "analyze", "--m", "25")
        assert code == 0
        assert out == (
            "           m    classical    zalinescu  radomirovic"
            "       best_s     best_len       actual\n"
            "          25          579          578          573"
            "            2          573            -\n"
        )

    def test_coefficients(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--coefficients", "--s-range", "2:10"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 9
        assert lines[0] == "2: 7/3"
        assert lines[1] == "3: 12/5"
        assert lines[2] == "4: 17/7"

    def test_s_range_bounded_like_m_range(self, capsys):
        # rejected before any line is built; no level above s = 2499 is
        # valid at m <= 10000, as level s needs n >= 4s + 1
        code, out, err = run(
            capsys, "analyze", "--coefficients", "--s-range", "2:10001"
        )
        assert (code, out) == (2, "")
        assert "s=10001 outside supported range 2..10000" in err
        code, out, _ = run(
            capsys, "analyze", "--coefficients", "--s-range", "2:10000"
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 9999
        # s < 2 keeps the coefficient's own message
        code, out, err = run(
            capsys, "analyze", "--coefficients", "--s-range", "1:3"
        )
        assert (code, out) == (2, "")
        assert "coefficient requires s >= 2, got 1" in err

    def test_no_alphabet_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze")
        assert code == 2
        assert out == ""
        assert "supply --m, --m-range, or --coefficients" in err

    def test_bad_range_exit_2(self, capsys):
        code, _, _ = run(capsys, "analyze", "--m", "3")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("--m-range", "10:5"),
            ("--m-range", "5"),
            ("--coefficients", "--s-range", "5:2"),
        ],
        ids=["empty", "no-colon", "empty-s-range"],
    )
    def test_malformed_range_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "analyze", *argv)
        assert code == 2
        assert out == ""
        assert "lo:hi" in err

    def test_csv_5_2000_unchanged(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--m-range", "5:2000", "--format", "csv"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f55591ffe4bf5b12925a1c795f9bb41178693f4fc300adc6598a2a932878e947"
        )

    def test_csv_full_supported_range(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--m-range", "5:10000", "--format", "csv"
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 9996


class TestOracleAndTrace:
    def test_oracle_m3(self, capsys):
        code, out, _ = run(capsys, "oracle", "--m", "3")
        assert code == 0
        assert "shortest length over 3 letters: 7" in out

    def test_trace(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--s", "3", "--n", "18",
            "--rho", "1,16,15,14,13,12,11,10,9,8,18,17",
        )
        assert code == 0
        # the README's run, all 13 lines
        assert out == (
            "M[11] = {8,18}\n"
            "M[10] = {8,9}\n"
            "M[9] = {9,10}\n"
            "M[8] = {10,11}\n"
            "M[7] = {11,12}\n"
            "M[6] = {12,13}\n"
            "M[5] = {13,14}\n"
            "M[4] = {14,15}\n"
            "M[3] = {15,16}\n"
            "M[2] = {16}\n"
            "M[1] = {-}\n"
            "terminated at index 1\n"
            "max |M| = 2 (bound 2)\n"
        )

    def test_trace_bad_rho_exit_2(self, capsys):
        code, _, _ = run(
            capsys, "trace", "--s", "3", "--n", "18",
            "--rho", "1,2,3",
        )
        assert code == 2

    def test_trace_empty_rho_exit_2(self, capsys):
        code, out, err = run(
            capsys, "trace", "--s", "3", "--n", "18", "--rho", ",",
        )
        assert code == 2
        assert out == ""
        assert "k=0 outside 1..18" in err

    def test_trace_k_out_of_range_exit_2(self, capsys):
        code, out, err = run(
            capsys, "trace", "--s", "3", "--n", "18",
            "--rho", ",".join(map(str, range(1, 20))),
        )
        assert code == 2
        assert out == ""
        assert "k=19 outside 1..18" in err


class TestColdStart:
    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc"
    )
    def test_only_sampled_checks_load_numpy(self, capsys, child_report):
        # numpy takes about 40 ms and 13 MiB to import: every command but
        # verify --sampled runs without it, as does a sampled call rejected
        # for its seed, and the first sampled call loads it and prints what
        # an in-process run prints
        commands = [
            ["generate", "--s", "3", "--n", "13"],
            ["verify", "--s", "3", "--n", "13", "--exhaustive"],
            ["analyze", "--m", "25"],
            ["oracle", "--m", "3"],
            ["trace", "--s", "3", "--n", "18",
             "--rho", "1,16,15,14,13,12,11,10,9,8,18,17"],
            ["verify", "--s", "3", "--n", "13", "--sampled", "--seed", "-1"],
        ]
        sampled = [
            "verify", "--s", "3", "--n", "13", "--sampled", "--seed", "1",
            "--format", "json",
        ]
        out = child_report(
            "import contextlib, io, json, sys\n"
            "from skipseq import cli, gen_ts, quasi_palindrome, strongly_complete\n"
            "def run(argv):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        code = cli.main(argv)\n"
            "    return code, out.getvalue()\n"
            f"print('codes', [run(argv)[0] for argv in {commands!r}])\n"
            "sequences = gen_ts(3, 13).sequences\n"
            "print('complete', strongly_complete(sequences, 13))\n"
            "print('found', quasi_palindrome(sequences).found)\n"
            "print('numpy_before', 'numpy' in sys.modules)\n"
            "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
            "print('hwm_before', hwm[0].split()[1])\n"
            f"code, out = run({sampled!r})\n"
            "print('sampled', json.dumps([code, out]))\n"
            "print('numpy_after', 'numpy' in sys.modules)\n"
        )
        assert out["codes"] == "[0, 0, 0, 0, 0, 2]"
        assert out["complete"] == "None"
        assert out["found"] == "True"
        assert out["numpy_before"] == "False"
        assert int(out["hwm_before"]) < 28 * 1024
        assert out["numpy_after"] == "True"
        assert json.loads(out["sampled"]) == list(run(capsys, *sampled)[:2])


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required(self, capsys):
        assert main(["generate"]) == 2

    def test_parser_is_reused_across_calls(self, capsys):
        # main parses with one parser per process: neither an option of
        # one call nor a usage error may change what a later call prints
        argvs = [
            ["verify", "--s", "2", "--n", "9", "--format", "json"],
            ["verify", "--s", "2", "--n", "9"],
            ["analyze", "--m-range", "5:12", "--with-actual", "--format",
             "csv"],
            ["analyze", "--m-range", "5:12", "--format", "csv"],
            ["oracle", "--m", "3"],
        ]
        first = [run(capsys, *argv)[:2] for argv in argvs]
        assert run(capsys, "verify", "--exhaustive", "--sampled")[0] == 2
        second = [run(capsys, *argv)[:2] for argv in reversed(argvs)]
        assert first == second[::-1]
        assert [code for code, _ in first] == [0] * 5
        assert first[0][1] != first[1][1] and first[2][1] != first[3][1]
