import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

import ulamcodes as uc
from ulamcodes.block_codes import greedy_gv_code
from ulamcodes.cli import main, parse_shufflers
from ulamcodes.fields import Field

README = Path(__file__).resolve().parent.parent / "README.md"

Q4_FLAGS = ["--q", "4", "--ell", "2", "--ground-set", "xor:all", "--code", "gv:4,4,2"]


def test_parse_shufflers():
    assert parse_shufflers("1 0 0 1; 1 1 1 0; 0 0 0 1") == (
        (1, 0, 0, 1),
        (1, 1, 1, 0),
        (0, 0, 0, 1),
    )
    assert parse_shufflers("3,0,1/2,2,3") == ((3, 0, 1), (2, 2, 3))


def test_gen_ground_set_and_reuse(tmp_path, capsys):
    out = tmp_path / "ground.txt"
    assert main(["gen-ground-set", "--q", "8", "--ground-set", "xor:gv:2", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "q=8 p=4 certified_max_lcs=2" in captured
    # the saved file works as a descriptor
    assert (
        main(
            ["build", "--q", "8", "--ell", "2", "--ground-set", f"file:{out}",
             "--code", "gv:4,8,5"]
        )
        == 0
    )
    assert "distance_bound=30" in capsys.readouterr().out


def test_build_prints_derived_parameters(capsys):
    assert main(["build", *Q4_FLAGS]) == 0
    out = capsys.readouterr().out
    assert "n=16" in out
    assert "message_count=4096" in out
    assert "distance_bound=4" in out


def test_build_json(capsys):
    assert main(["build", "--json", *Q4_FLAGS]) == 0
    out = capsys.readouterr().out
    assert '"distance_bound": 4' in out


def test_build_reports_constraint_violation(capsys):
    assert main(["build", "--q", "4", "--ell", "2", "--ground-set", "xor:all",
                 "--code", "gv:4,5,2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "n/q" in err


def test_build_reports_alphabet_mismatch_once(capsys):
    assert main(["build", "--q", "4", "--ell", "2", "--ground-set", "xor:all",
                 "--code", "gv:3,4,2"]) == 1
    assert capsys.readouterr().err == "error: shuffler code alphabet 3 != |ground| = 4\n"


def test_raw_shuffler_symbol_out_of_range_names_the_shuffler(capsys):
    assert main(["encode", "--q", "2", "--ground-set", "bruteforce:1",
                 "--raw-shufflers", "5 0 0 1; 1 1 1 0; 0 0 0 1"]) == 1
    assert capsys.readouterr().err == "error: shuffler symbol 5 out of range [0, 2)\n"


@pytest.mark.parametrize(
    "q, ell, message",
    [("0", "2", "q must be >= 2, got 0"), ("8", "-1", "ell must be >= 1, got -1")],
)
def test_build_rejects_bad_q_or_ell_before_descriptors(capsys, q, ell, message):
    assert main(["build", "--q", q, "--ell", ell, "--ground-set", "xor:all",
                 "--code", "rs:8,8,2"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bruteforce_target_zero_exits_1(capsys):
    assert main(["build", "--q", "8", "--ell", "2", "--ground-set", "bruteforce:9:0",
                 "--code", "rs:8,8,2"]) == 1
    assert "target_p must be >= 1" in capsys.readouterr().err


def test_raw_shuffler_encode_binary_example(capsys):
    assert (
        main(
            ["encode", "--q", "2", "--ground-set", "bruteforce:1",
             "--raw-shufflers", "1 0 0 1; 1 1 1 0; 0 0 0 1"]
        )
        == 0
    )
    assert capsys.readouterr().out.strip() == "2 7 4 1 6 5 3 0"


def test_raw_shuffler_encode_ternary_example(tmp_path, capsys):
    # explicit ground-set file carrying the four named permutations
    path = tmp_path / "ground3.txt"
    path.write_text("3 4 2\n0 1 2\n2 1 0\n1 0 2\n1 2 0\n")
    assert (
        main(
            ["encode", "--q", "3", "--ground-set", f"file:{path}",
             "--raw-shufflers", "3 0 1; 2 2 3"]
        )
        == 0
    )
    assert capsys.readouterr().out.strip() == "1 3 8 4 6 5 7 2 0"


def test_raw_shuffler_stage_count_must_match_ell(tmp_path, capsys):
    raw = ["encode", "--q", "2", "--ground-set", "xor:all", "--raw-shufflers", "1 0; 1 1"]
    assert main(raw + ["--ell", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: ell=3 but --raw-shufflers has 2 stages\n"
    assert captured.out == ""
    cfg = tmp_path / "instance.cfg"
    cfg.write_text("ell=1\n")
    assert main(raw + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: ell=1 but --raw-shufflers has 2 stages\n"
    assert main(raw + ["--ell", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1 2 3 0"


def test_raw_shuffler_code_is_resolved_like_msg(tmp_path, capsys):
    base = ["encode", "--q", "2", "--ground-set", "xor:all"]
    raw = ["--raw-shufflers", "1 0; 1 1"]
    for code in ["nonsense:1", "rep:2,4", "rep:3,2"]:
        assert main(base + ["--ell", "2", "--code", code, "--msg", "0"]) == 1
        expected = capsys.readouterr().err
        assert expected.startswith("error: ") and expected.count("\n") == 1
        assert main(base + ["--code", code] + raw) == 1
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (expected, "")
    cfg = tmp_path / "instance.cfg"
    cfg.write_text("code=nonsense:1\n")
    assert main(base + ["--config", str(cfg)] + raw) == 1
    assert capsys.readouterr().err == "error: unknown block-code descriptor 'nonsense:1'\n"
    # a valid code is only checked against the instance: "1 0" is no
    # repetition codeword
    assert main(base + ["--code", "rep:2,2"] + raw) == 0
    assert capsys.readouterr().out.strip() == "1 2 3 0"


@pytest.mark.parametrize(
    "argv",
    [
        ["decode", "--perm", "{empty}", *Q4_FLAGS],
        ["distance", "{empty}", "{word}"],
        ["distance", "{word}", "{empty}"],
        ["corrupt", "--perm", "{empty}", "--t", "1", "--seed", "1"],
    ],
    ids=["decode", "distance-first", "distance-second", "corrupt"],
)
def test_empty_permutation_file_exits_1(tmp_path, capsys, argv):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    word = tmp_path / "word.txt"
    word.write_text("0 1 2 3\n")
    argv = [tok.format(empty=empty, word=word) for tok in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {empty}: no permutation\n"
    assert captured.out == ""


def test_encode_decode_round_trip(tmp_path, capsys):
    out = tmp_path / "word.txt"
    assert main(["encode", "--msg", "1234", "--out", str(out), *Q4_FLAGS]) == 0
    capsys.readouterr()
    assert main(["decode", "--perm", str(out), *Q4_FLAGS]) == 0
    assert capsys.readouterr().out.strip() == "1234"


def test_encode_requires_exactly_one_source(capsys):
    assert main(["encode", *Q4_FLAGS]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["encode", "--msg", "1", "--raw-shufflers", "0 0 0 0", *Q4_FLAGS]) == 1


def test_decode_failure_exit_code(tmp_path, capsys):
    perm = tmp_path / "far.txt"
    perm.write_text("15 3 7 11 1 5 9 13 2 6 10 14 0 4 8 12\n")
    code = main(["decode", "--perm", str(perm), *Q4_FLAGS])
    captured = capsys.readouterr()
    if code == 1:
        assert captured.err.startswith("error: decode failed")
    else:
        assert code == 0  # landed within the radius of some codeword


def test_ground_set_file_q_mismatch(tmp_path, capsys):
    path = tmp_path / "ground3.txt"
    path.write_text("3 2 1\n0 1 2\n2 1 0\n")
    assert main(["encode", "--q", "4", "--ground-set", f"file:{path}",
                 "--raw-shufflers", "0 0 0; 0 0 0"]) == 1
    assert "expected [4]" in capsys.readouterr().err


def test_distance_identical_files(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("0 1 2 3\n")
    assert main(["distance", str(a), str(a)]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_distance_of_unequal_lengths_exits_1(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("0 1 2\n")
    b = tmp_path / "b.txt"
    b.write_text("0 1 2 3\n")
    assert main(["distance", str(a), str(b)]) == 1
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == ("error: strings have unequal lengths 3 and 4\n", "")


def test_corrupt_deterministic(tmp_path, capsys):
    perm = tmp_path / "p.txt"
    perm.write_text("0 1 2 3 4 5 6 7\n")
    trace = tmp_path / "trace.txt"
    assert main(["corrupt", "--perm", str(perm), "--t", "2", "--seed", "5",
                 "--trace-out", str(trace)]) == 0
    first = capsys.readouterr().out
    assert main(["corrupt", "--perm", str(perm), "--t", "2", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first
    assert trace.read_text().count("\n") == 2


def test_corrupt_requires_seed():
    with pytest.raises(SystemExit) as exc:
        main(["corrupt", "--perm", "x.txt", "--t", "2"])
    assert exc.value.code == 2


def test_audit_swap_instance(capsys):
    flags = ["--q", "2", "--ell", "3", "--ground-set", "bruteforce:1", "--code", "gv:2,4,2"]
    assert main(["audit", *flags]) == 0
    out = capsys.readouterr().out
    assert "passed=True" in out
    assert "injective=True" in out


def test_audit_output_byte_identical_across_runs(capsys):
    flags = ["audit", "--sample", "200", "--seed", "4", *Q4_FLAGS]
    assert main(flags) == 0
    first = capsys.readouterr().out
    assert main(flags) == 0
    assert capsys.readouterr().out == first
    assert "elapsed" not in first


def test_audit_sample_requires_seed(capsys):
    assert main(["audit", "--sample", "10", *Q4_FLAGS]) == 1
    assert "seed" in capsys.readouterr().err


def test_audit_seed_requires_sample(capsys):
    assert main(["audit", "--seed", "5", *Q4_FLAGS]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "seed" in captured.err and "Traceback" not in captured.err


def test_sweep_json(capsys):
    flags = ["--q", "2", "--ell", "3", "--ground-set", "bruteforce:1", "--code", "gv:2,4,2"]
    assert main(["sweep", "--t-list", "0", "--trials", "5", "--seed", "3", "--json", *flags]) == 0
    out = capsys.readouterr().out
    assert '"radius_violations": 0' in out


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "instance.cfg"
    cfg.write_text(
        "# audit instance\nq=4\nell=2\nground_set=xor:all\ncode=gv:4,4,2\n"
    )
    assert main(["build", "--config", str(cfg)]) == 0
    assert "n=16" in capsys.readouterr().out
    # flag overrides the file (and breaks the length constraint)
    assert main(["build", "--config", str(cfg), "--ell", "3"]) == 1


def test_usage_error_exit_code():
    # the audit is exhaustive unless --sample is given; there is no --exhaustive
    for argv in (["no-such-command"], ["audit", "--exhaustive", *Q4_FLAGS]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # seed is not an instance key: nothing would read it
    for text, key in [("qq=4\n", "qq"), ("q=4\nseed=123\n", "seed")]:
        cfg.write_text(text)
        assert main(["build", "--config", str(cfg)]) == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_config_non_ascii_names_path_and_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"q=4\n\xef\xbb\xbfell=2\n")
    assert main(["build", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: non-ASCII byte\n"


@pytest.mark.parametrize(
    "kind, text, line",
    [
        ("code", "4 4 2\n0 0 0 0\n1 1 x 1\n", 3),
        ("ground", "4 4 x\n0 1 2 3\n", 1),
        ("perm", "0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 x\n", 1),
        ("code", "4 4 2\n0 0 0 0\n1 1 1_0 1\n", 3),
        ("ground", "4 4 2\n0 1 2 3\n+1 0 3 2\n2 3 0 1\n3 2 1 0\n", 3),
        ("perm", "0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15\u00a0\n", 1),
    ],
)
def test_bad_file_token_exits_1_with_path_and_line(tmp_path, capsys, kind, text, line):
    bad = tmp_path / f"{kind}.txt"
    bad.write_text(text, encoding="utf-8")
    perm = tmp_path / "word.txt"
    perm.write_text(" ".join(str(i) for i in range(16)) + "\n")
    flags = {"--q": "4", "--ell": "2", "--ground-set": "xor:all", "--code": "gv:4,4,2"}
    if kind == "code":
        flags["--code"] = f"file:{bad}"
    elif kind == "ground":
        flags["--ground-set"] = f"file:{bad}"
    else:
        perm = bad
    argv = ["decode", "--perm", str(perm)] + [tok for pair in flags.items() for tok in pair]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:{line}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_repeated_config_key_names_path_and_line(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    # read as the last value, q=16 would build another instance without a word
    cfg.write_text("q=8\nell=2\nground_set=xor:gv:2\ncode=gv:4,8,5\n# again\nq=16\n")
    assert main(["build", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:6: repeated config key 'q'\n"


def test_config_non_integer_names_path_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# instance\nell=2\nq=abc\n")
    assert main(["build", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:3: q must be an integer, got 'abc'\n"


@pytest.mark.parametrize(
    "flag, desc, message",
    [
        ("--code", "rs:4,8", "descriptor 'rs:4,8' does not match rs:ORDER,N,K"),
        ("--code", "gv:4,x,2", "descriptor 'gv:4,x,2' does not match gv:ALPHABET,N,D"),
        ("--code", "concat:rs:16,4,2/id:4", "descriptor 'id:4' does not match id:ALPHABET,N"),
        ("--ground-set", "bruteforce:x",
         "descriptor 'bruteforce:x' does not match bruteforce:MAX_LCS[:TARGET_P]"),
        ("--ground-set", "bruteforce:1:2:3",
         "descriptor 'bruteforce:1:2:3' does not match bruteforce:MAX_LCS[:TARGET_P]"),
        ("--ground-set", "xor:gv:", "descriptor 'xor:gv:' does not match xor:gv:D"),
    ],
)
def test_malformed_descriptor_quotes_it_and_its_shape(capsys, flag, desc, message):
    flags = {"--q": "4", "--ell": "2", "--ground-set": "xor:all", "--code": "gv:4,4,2"}
    flags[flag] = desc
    argv = ["build"] + [tok for pair in flags.items() for tok in pair]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["audit", "--sample", "-5", "--seed", "1"], "--sample must be >= 1, got -5"),
        (["sweep", "--t-list", "0", "--trials", "-2", "--seed", "1"], "--trials must be >= 1, got -2"),
        (["audit", "--sample", "0", "--seed", "1"], "--sample must be >= 1, got 0"),
        (["sweep", "--t-list", "0", "--trials", "0", "--seed", "1"], "--trials must be >= 1, got 0"),
        (["encode", "--msg", "abc"], "--msg must be an integer, got 'abc'"),
        (["encode", "--raw-shufflers", "1,x"],
         "--raw-shufflers must be integers separated by spaces, commas and ';', got '1,x'"),
        (["sweep", "--t-list", "1,x", "--seed", "1"],
         "--t-list must be comma-separated integers, got '1,x'"),
        (["sweep", "--t-list", ",", "--trials", "3", "--seed", "1"],
         "--t-list must hold at least one relocation count, got ','"),
    ],
    ids=["audit-sample", "sweep-trials", "audit-sample-zero", "sweep-trials-zero",
         "encode-msg", "encode-raw-shufflers", "sweep-t-list", "sweep-t-list-empty"],
)
def test_bad_count_or_integer_flag_exits_1_naming_it(capsys, argv, message):
    assert main(argv + Q4_FLAGS) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--q=--", "--ell", "2", "--ground-set", "xor:gv:2", "--code", "gv:4,8,5"],
        ["build", "--ground-set=--", "--q", "8", "--ell", "2", "--code", "gv:4,8,5"],
    ],
    ids=["integer-flag", "string-flag"],
)
def test_dash_dash_flag_value_is_a_usage_error(argv):
    # argparse reads "--q=--" as [] and calls no type on it, which escaped
    # as a TypeError traceback
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_blanks_around_separators_are_allowed(capsys):
    flags = ["--q", "4", "--ell", "2", "--ground-set", "xor:all", "--code", "gv:4, 4, 2"]
    assert main(["build", *flags]) == 0
    assert "n=16" in capsys.readouterr().out
    assert main(["sweep", "--t-list", "0, 1", "--trials", "2", "--seed", "1", *flags]) == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build", "--ground-set", "xor:all", "--code", "gv:4,4,2"],
         "instance needs q and ell (flags or config file)"),
        (["build", "--q", "4", "--ell", "2", "--code", "gv:4,4,2"],
         "instance needs a ground-set descriptor"),
        (["build", "--q", "4", "--ell", "2", "--ground-set", "xor:all"],
         "instance needs a block-code descriptor"),
        (["encode", "--ground-set", "xor:all", "--raw-shufflers", "1 0; 1 1"],
         "ground-set construction needs q"),
    ],
    ids=["q-and-ell", "ground-set", "code", "raw-shufflers-q"],
)
def test_incomplete_instance_names_what_is_missing(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_config_file_fills_only_the_flags_not_given(tmp_path, capsys):
    cfg = tmp_path / "partial.cfg"
    cfg.write_text("q=4\nground_set=xor:all\ncode=gv:4,5,2\n")
    # q and the ground set come from the file, ell and the code from flags
    assert main(["build", "--config", str(cfg), "--ell", "2", "--code", "gv:4,4,2"]) == 0
    assert "n=16" in capsys.readouterr().out


def test_build_text_and_json_carry_the_same_payload(capsys):
    assert main(["build", *Q4_FLAGS]) == 0
    text = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert main(["build", "--json", *Q4_FLAGS]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert text == {key: str(value) for key, value in payload.items()}
    assert payload["code"] == repr(greedy_gv_code(4, 4, 2))
    assert payload["code_min_distance"] == 2


def test_build_output_bytes_are_pinned(capsys):
    assert main(["build", *Q4_FLAGS]) == 0
    assert capsys.readouterr().out == (
        "q=4\nell=2\nn=16\np=4\n"
        "code=ExplicitCode(gv(d>=2): alphabet 4, [4, size 64, d=2])\n"
        "code_size=64\ncode_min_distance=2\ncode_decoding_radius=0\nground_max_lcs=2\n"
        "message_count=4096\ndistance_bound=4\ndecode_guarantee=1\nlcs_upper=12\n"
        "dist_lower=4\nrate=0.2711855798100211\nrate_lower=0.1875\n"
    )
    assert main(["build", "--json", *Q4_FLAGS]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "e8e717e14e25cd8802aa1ea3f9c74f572a2632d5909b4d4c20b8b50af79c0c2f"
    )


def test_build_names_a_concatenated_code_by_its_parts(capsys):
    # the audit-concat512 instance: code= is the nested repr of the code
    argv = ["build", "--q", "8", "--ell", "3", "--ground-set", "xor:gv:2",
            "--code", "concat:rs:16,16,8/gv:4,4,3"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "q=8\nell=3\nn=512\np=4\n"
        "code=ConcatenatedCode(ReedSolomonCode(GF(16), n=16, k=8) over "
        "ExplicitCode(gv(d>=3): alphabet 4, [4, size 16, d=3]))\n"
        "code_size=4294967296\ncode_min_distance=27\ncode_decoding_radius=6\n"
        "ground_max_lcs=2\nmessage_count=79228162514264337593543950336\n"
        "distance_bound=162\ndecode_guarantee=21\nlcs_upper=350\ndist_lower=162\n"
        "rate=0.02477313151980715\nrate_lower=0.020833333333333336\n"
    )
    code = uc.concat_code(uc.rs_code(16, 16, 8), uc.greedy_gv_code(4, 4, 3))
    params = uc.UlamCodeParams(8, 3, uc.xor_ground_set(8, uc.greedy_gv_code(2, 3, 2)), code)
    assert repr(params) == (
        "UlamCodeParams(q=8, ell=3, n=512, p=4, |C|=4294967296, "
        "M=79228162514264337593543950336, distance_bound=162)"
    )
    assert repr(Field(16)) == "Field(16)"


def readme_commands():
    """
    (argv, stdout file, expected output) for each ulamcodes line of the
    README's sh blocks, with backslash continuations joined. A trailing
    "> file" names the stdout file; a following "# -> ..." line gives the
    expected output. Either is None when absent.
    """
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    commands = []
    for block in blocks:
        lines = block.replace("\\\n", " ").splitlines()
        for line, after in zip(lines, lines[1:] + [""]):
            if not line.startswith("ulamcodes "):
                continue
            argv, out = shlex.split(line, comments=True)[1:], None
            if len(argv) > 2 and argv[-2] == ">":
                argv, out = argv[:-2], argv[-1]
            expected = after[len("# -> "):] if after.startswith("# -> ") else None
            commands.append((argv, out, expected))
    return commands


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert len(commands) >= 9
    monkeypatch.chdir(tmp_path)
    for argv, out, expected in commands:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, (argv, captured.err)
        if out is not None:
            (tmp_path / out).write_text(captured.out)
        if expected is not None:
            assert captured.out == expected + "\n", argv


def test_decode_prints_the_codeword(tmp_path, capsys):
    # the README instance: encode 2025 and relocate 6 symbols; decode prints
    # the message, then the word that was sent
    flags = ["--q", "8", "--ell", "2", "--ground-set", "xor:gv:2", "--code", "gv:4,8,5"]
    word, noisy = tmp_path / "word.txt", tmp_path / "noisy.txt"
    assert main(["encode", "--msg", "2025", *flags, "--out", str(word)]) == 0
    encoded = capsys.readouterr().out
    assert main(["corrupt", "--perm", str(word), "--t", "6", "--seed", "7"]) == 0
    noisy.write_text(capsys.readouterr().out)
    assert noisy.read_text() != encoded
    assert main(["decode", "--perm", str(noisy), "--print-codeword", *flags]) == 0
    assert capsys.readouterr().out == "2025\n" + encoded
