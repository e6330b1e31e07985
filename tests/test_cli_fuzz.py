"""
The command line's input surface under Hypothesis: ground-set and code
descriptors, file paths and config-file text. Whatever it is given,
main() returns 0 or 1 or exits 2, prints nothing to stderr on success and
one "error:" line on a refusal, and lets no other exception escape.

Instances stay small: q is 2, 4 or 8 (a junk q text is below 4), field
orders are at most 256, greedy GV spaces at most 4^6, file integers at
most 24, and the brute-force search is drawn only at q <= 4. Two larger
inputs are drawn because they must be refused before anything is built
for them: a field order above fields.ORDER_LIMIT, and a ground-set file
whose header names a q up to 10^10 and no permutation. Pinned examples
run the brute-force search at q = 8 with a bound that admits all 8!
permutations, where it must stop at ground_set.GROUND_SET_LIMIT, and at
q = 12 with a bound that admits one, where it must stop at its default
budget instead of scanning 12!; and an XOR set over [2^20], refused by
the same limit before its binary code is built.
"""
import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

import ulamcodes as uc
from ulamcodes.cli import main

# texts that no integer field accepts, or that it accepts only as a small value
JUNK = st.sampled_from(["", " ", "x", "+1", "1_0", "1.0", "\u0665", "--", "-0", "03"])


def field(*values):
    """One of values, or now and then a junk text."""
    return st.sampled_from([*values, None]).flatmap(lambda v: JUNK if v is None else st.just(v))


# "@DIR@" stands for the test's directory: a missing file, the directory
# itself, a file of drawn text, and a good ground-set and code file
FILES = st.sampled_from(["missing.txt", "", "bad.txt", "ground.txt", "code.txt"])
FILE_DESCS = FILES.map(lambda name: f"file:@DIR@/{name}")

# kind -> one strategy per field, in order; a leaf of the kind may instead
# take 0-4 fields drawn from all of them, mostly a wrong arity
CODE_FIELDS = {
    "rs": [
        field("-1", "0", "1", "2", "4", "6", "7", "8", "9", "16", "27", "64", "100", "243", "256",
              "65537", "2147483647", "1" + "0" * 30),
        field("-1", "0", "1", "2", "4", "8", "16", "64", "300"),
        field("-1", "0", "1", "2", "4", "8", "16", "64"),
    ],
    "gv": [field("-1", "0", "1", "2", "3", "4"), field("-1", "0", "1", "2", "4", "6"),
           field("-1", "0", "1", "2", "3", "7")],
    "rep": [field("-1", "1", "2", "4", "8", "24", "256"), field("0", "1", "4", "8", "64")],
    "id": [field("-1", "1", "2", "4", "8", "24", "256"), field("0", "1", "4", "8", "64")],
}
ANY_FIELD = st.one_of(*(f for fields in CODE_FIELDS.values() for f in fields))


def code_leaf(kind):
    right = st.tuples(*CODE_FIELDS[kind])
    wrong = st.lists(ANY_FIELD, max_size=4)
    return st.one_of(right, wrong).map(lambda fields: f"{kind}:{','.join(fields)}")


CODE_LEAVES = st.one_of(
    *map(code_leaf, CODE_FIELDS),
    FILE_DESCS,
    st.sampled_from([
        "", "rs", "bch:4,4", "RS:4,4,2", "concat:", "concat:id:2,2", "file",
        "concat:concat:rs:4,2,1/id:2,2/id:4,1",
    ]),
)
# the outer part of a concat ends at its first '/', so only the inner one nests
CODE_DESCS = st.recursive(
    CODE_LEAVES, lambda inner: st.builds("concat:{}/{}".format, CODE_LEAVES, inner), max_leaves=3
)


def ground_descs(q):
    options = [
        st.just("xor:all"),
        st.builds("xor:gv:{}".format, field("-1", "0", "1", "2", "3", "4")),
        st.sampled_from(["xor:", "xor:rs", "xor:gv", "xor:all:1", "greedy:2", "", ":", "xor"]),
        FILE_DESCS,
    ]
    if q <= 4:
        options.append(st.builds(
            "bruteforce:{}{}".format,
            field("-1", "0", "1", "2", "3"),
            st.sampled_from(["", ":1", ":2", ":6", ":24", ":100", ":x", ":", ":1:2"]),
        ))
    return st.one_of(options)


def q_texts(q):
    return field(str(q), "-2", "0", "1", "3")


ELL_TEXTS = field("-1", "0", "1", "2", "3")

# rows of small tokens, a bad token, a comment mark or a non-ASCII byte;
# or a ground-set header with a large q and no permutation
FILE_TEXT = st.one_of(
    st.lists(
        st.lists(st.sampled_from(["0", "1", "2", "3", "4", "16", "24", "-1", "x", "+1", "#", "\xff"]),
                 max_size=5).map(" ".join),
        max_size=6,
    ).map(lambda rows: "\n".join(rows)),
    st.sampled_from(["2000", "100000", "10000000000"]).map("{} 0 0\n".format),
).map(lambda text: text.encode("latin-1"))


# a valid instance per q; a case starts from it and replaces up to two parts
INSTANCES = {
    2: {"q": "2", "ell": "3", "ground_set": "bruteforce:1", "code": "gv:2,4,2"},
    4: {"q": "4", "ell": "2", "ground_set": "xor:all", "code": "concat:rs:16,2,1/id:4,2"},
    8: {"q": "8", "ell": "2", "ground_set": "xor:gv:2", "code": "concat:rs:16,4,2/id:4,2"},
}
FLAGS = {"q": "--q", "ell": "--ell", "ground_set": "--ground-set", "code": "--code"}

# config lines beside the instance's: blanks, comments, a trailing
# comment, and refused lines (no '=', unknown keys, a key the instance
# may repeat, non-ASCII bytes)
CONFIG_NOISE = st.sampled_from([
    "", "   ", "# an instance", "q=4 # trailing comment", "q 4", "=", "seed=1", "qq=4",
    "code", "ell=2", "# caf\u00e9", "q=\u0665", "\ufeffq=4",
])


@st.composite
def cli_cases(draw):
    """(argv, config bytes or None, bad-file bytes), paths written with @DIR@."""
    q = draw(st.sampled_from(sorted(INSTANCES)))
    drawn = {"q": q_texts(q), "ell": ELL_TEXTS, "ground_set": ground_descs(q), "code": CODE_DESCS}
    command = draw(st.sampled_from(["build", "gen-ground-set"]))
    if command == "gen-ground-set":
        argv, keys, places = [command, "--out=@DIR@/out.txt"], ["q", "ground_set"], ["flag"] * 4
    else:
        argv, keys, places = [command], list(FLAGS), ["flag", "flag", "config", "both"]
    replaced = draw(st.sets(st.sampled_from(keys), max_size=2))
    lines = []
    for key in keys:
        value = draw(drawn[key]) if key in replaced else INSTANCES[q][key]
        # a part is usually given
        place = draw(st.sampled_from([*places, *places, "neither"]))
        if place in ("flag", "both"):
            argv.append(f"{FLAGS[key]}={value}")
        if place in ("config", "both"):
            lines.append(f"{key}={value}")
    config = None
    if command == "build" and (lines or draw(st.booleans())):
        lines += draw(st.lists(CONFIG_NOISE, max_size=2))
        config = "\n".join(draw(st.permutations(lines))).encode("utf-8")
        argv.append("--config=@DIR@/instance.cfg")
    return argv, config, draw(FILE_TEXT)


def run(argv):
    """(exit code, stderr text) of main(argv)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


Q4 = ["--q=4", "--ell=2", "--ground-set=xor:all"]


@settings(max_examples=300, deadline=None)
@given(case=cli_cases())
@example(case=(["build", *Q4, "--code=rs:16,4"], None, b""))
@example(case=(["build", *Q4, "--code=rs:2147483647,4,2"], None, b""))
@example(case=(["build", "--q=8", "--ell=2", "--ground-set=bruteforce:7", "--code=gv:4,8,5"],
               None, b""))
@example(case=(["build", "--q=12", "--ell=2", "--ground-set=bruteforce:0", "--code=id:2,12"],
               None, b""))
@example(case=(["build", "--q=1048576", "--ell=2", "--ground-set=xor:gv:1", "--code=id:2,4"],
               None, b""))
@example(case=(["build", "--q=4", "--ell=2", "--ground-set=file:@DIR@/bad.txt", "--code=id:4,4"],
               None, b"10000000000 0 0\n"))
@example(case=(["build", *Q4, "--code=file:@DIR@/"], None, b""))
@example(case=(["build", "--config=@DIR@/instance.cfg"], b"q=4\nell=2\ncode=id:4,4\nq=8\n", b""))
@example(case=(["gen-ground-set", "--out=@DIR@/out.txt", "--q=4", "--ground-set=file:@DIR@/bad.txt"],
               None, b"4 1 2\n0 1 \xff"))
def test_cli_input_is_read_or_refused_in_one_line(tmp_path_factory, case):
    argv, config, bad = case
    tmp = tmp_path_factory.getbasetemp() / "cli_fuzz"
    if not tmp.exists():
        tmp.mkdir()
        uc.save_ground_set(str(tmp / "ground.txt"), uc.xor_ground_set(4, uc.identity_code(2, 2)))
        uc.save_explicit_code(str(tmp / "code.txt"), uc.greedy_gv_code(4, 4, 2))
    (tmp / "bad.txt").write_bytes(bad)
    if config is not None:
        (tmp / "instance.cfg").write_bytes(config.replace(b"@DIR@", str(tmp).encode()))
    code, err = run([arg.replace("@DIR@", str(tmp)) for arg in argv])
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    elif code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        # argparse: usage lines, then one error line
        assert code == 2
        assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
