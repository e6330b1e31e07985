import argparse
import contextlib
import io
import itertools
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ulamcodes import cli, perm_core
from ulamcodes.errors import ParameterError
from ulamcodes.perm_core import (
    _check_ints,
    _lis_length,
    check_distinct,
    from_digits,
    identity,
    int_token,
    inverse,
    lcs_length,
    lcs_length_dp,
    read_int_rows,
    read_permutations,
    restrict,
    to_digits,
    ulam_distance,
    validate_permutation,
    write_int_rows,
)


def lcs_exhaustive(a, b):
    """Largest r such that some r-subsequence of a is a subsequence of b."""
    for r in range(len(a), 0, -1):
        for sub in itertools.combinations(a, r):
            it = iter(b)
            if all(s in it for s in sub):
                return r
    return 0


class Index:
    """A symbol that is an integer only through __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Index({self.value})"


@st.composite
def mutated_permutations(draw, max_n=8):
    """
    A permutation of [n], n >= 0, with up to three symbols mutated, as a
    tuple or a list: each mutation writes a negative symbol (possibly
    x - n in place of x, which fills x's slot from the end), n, a repeat,
    a non-integer, a bool for 0 or 1, or an __index__ object.
    """
    n = draw(st.integers(0, max_n))
    word = draw(st.permutations(list(range(n))))
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        i = draw(st.integers(0, n - 1))
        x = word[i]
        word[i] = draw(st.sampled_from([
            x - n if type(x) is int else -1,
            -draw(st.integers(1, n + 1)),
            n,
            word[draw(st.integers(0, n - 1))],
            1.0, float("nan"), "1", None,
            {0: False, 1: True}.get(x, x),
            Index(x) if type(x) is int else x,
        ]))
    return draw(st.sampled_from([tuple(word), word]))


def permutation_pairs(max_n=16):
    """Two permutations of one [n], 1 <= n <= max_n."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(*[st.permutations(list(range(n))).map(tuple)] * 2)
    )


def one_symbol_set(a, b):
    """The contract of lcs_length and ulam_distance in plain Python: two
    distinct-symbol strings over one symbol set."""
    return len(set(a)) == len(a) and len(set(b)) == len(b) and set(a) == set(b)


class TestLcs:
    def test_identical(self):
        assert lcs_length((0, 1, 2, 3), (0, 1, 2, 3)) == 4

    def test_reversal(self):
        assert lcs_length((0, 1, 2, 3), (3, 2, 1, 0)) == 1

    def test_example_value(self):
        # frozen after checking with both the DP and exhaustive oracles
        assert lcs_exhaustive((0, 2, 1, 3), (3, 0, 1, 2)) == 2
        assert lcs_length_dp((0, 2, 1, 3), (3, 0, 1, 2)) == 2
        assert lcs_length((0, 2, 1, 3), (3, 0, 1, 2)) == 2

    def test_dp_examples(self):
        assert lcs_length_dp((0, 1, 2, 3), (0, 1, 2, 3)) == 4
        assert lcs_length_dp((0, 1), (1, 0)) == 1

    def test_symbols_match_as_dict_keys_do(self):
        # one shared nan object is not == itself, but a dict finds it by
        # identity; the oracle matches the same way
        n = float("nan")
        assert lcs_length((n, 0), (n, 0)) == 2
        assert lcs_length_dp((n, 0), (n, 0)) == 2

    def test_disjoint_symbols_refused(self):
        # lcs_length_dp, the oracle, still takes them
        assert lcs_length_dp((0, 1), (2, 3)) == 0
        with pytest.raises(ValueError, match="second string has symbol 2, not in the first"):
            lcs_length((0, 1), (2, 3))
        with pytest.raises(ValueError, match="strings have unequal lengths 3 and 2"):
            lcs_length((0, 5, 1), (5, 9))

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            lcs_length((0, 0, 1), (0, 1, 2))
        with pytest.raises(ValueError):
            lcs_length_dp((0, 1), (1, 1))

    @given(permutation_pairs(7))
    def test_matches_exhaustive_small(self, pair):
        a, b = pair
        assert lcs_length(a, b) == lcs_exhaustive(a, b)

    @given(permutation_pairs(64))
    def test_oracle_equivalence(self, pair):
        a, b = pair
        assert lcs_length(a, b) == lcs_length_dp(a, b)

    def test_oracle_equivalence_bulk(self):
        rng = random.Random(2024)
        for n in (16, 64, 256):
            for _ in range(60):
                a = list(range(n))
                b = list(range(n))
                rng.shuffle(a)
                rng.shuffle(b)
                assert lcs_length(a, b) == lcs_length_dp(a, b)


@st.composite
def near_sorted_pairs(draw, max_n=128, max_moves=8):
    """A permutation of [n] and a copy of it after at most max_moves
    single-symbol relocations: the near-sorted relabelings that take the
    LIS kernel's append branch."""
    n = draw(st.integers(1, max_n))
    a = tuple(draw(st.permutations(list(range(n)))))
    b = list(a)
    for _ in range(draw(st.integers(0, max_moves))):
        sym = b.pop(draw(st.integers(0, n - 1)))
        b.insert(draw(st.integers(0, n - 1)), sym)
    return a, tuple(b)


class TestNearSorted:
    @given(near_sorted_pairs())
    @settings(max_examples=200)
    def test_lcs_and_distance_match_dp(self, pair):
        a, b = pair
        lcs = lcs_length_dp(a, b)
        assert lcs_length(a, b) == lcs
        assert lcs_length(b, a) == lcs
        assert ulam_distance(a, b) == len(a) - lcs

    @given(near_sorted_pairs())
    @settings(max_examples=200)
    def test_tuple_position_table_matches_dp(self, pair):
        # verify.audit_pairwise relabels through the tuple inverse(a)
        a, b = pair
        assert _lis_length(inverse(a), b) == lcs_length_dp(a, b)


class TestUlamDistance:
    def test_identity_case(self):
        assert ulam_distance((0, 1, 2, 3), (0, 1, 2, 3)) == 0

    def test_reversal(self):
        # 4 - LCS, LCS checked against the DP oracle above
        assert ulam_distance((0, 1, 2, 3), (3, 2, 1, 0)) == 3

    def test_known_eight_symbol_value(self):
        word = (2, 7, 4, 1, 6, 5, 3, 0)
        assert lcs_exhaustive(word, identity(8)) == 3
        assert ulam_distance(word, identity(8)) == 5

    def test_symbol_set_mismatch(self):
        with pytest.raises(ValueError):
            ulam_distance((0, 1, 2), (0, 1, 3))

    def test_scores_through_module_lcs_length(self, monkeypatch):
        # perfbench/test_smoke.py::test_over_reporting_distance_kernel_is_caught
        # breaks the library's LCS by rebinding perm_core.lcs_length, so
        # ulam_distance must keep calling that module-level name
        real = perm_core.lcs_length
        monkeypatch.setattr(perm_core, "lcs_length", lambda a, b: real(a, b) - 1)
        assert ulam_distance((0, 1, 2, 3), (0, 1, 2, 3)) == 1
        assert ulam_distance((0, 1, 2, 3), (3, 2, 1, 0)) == 4

    @given(permutation_pairs(8))
    def test_metric_axioms(self, pair):
        a, b = pair
        d = ulam_distance(a, b)
        assert d == ulam_distance(b, a)
        assert (d == 0) == (a == b)

    def test_metric_axioms_exhaustive_n4(self):
        perms = list(itertools.permutations(range(4)))
        for a, b in itertools.product(perms, repeat=2):
            d = ulam_distance(a, b)
            assert d == ulam_distance(b, a)
            assert (d == 0) == (a == b)

    def test_triangle_inequality_sampled(self):
        rng = random.Random(7)
        for n in (5, 6, 7, 8):
            for _ in range(300):
                a, b, c = (tuple(rng.sample(range(n), n)) for _ in range(3))
                assert ulam_distance(a, c) <= ulam_distance(a, b) + ulam_distance(b, c)

    def test_one_relocation_changes_distance_by_at_most_one(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randrange(2, 20)
            ref = tuple(rng.sample(range(n), n))
            a = list(rng.sample(range(n), n))
            before = ulam_distance(tuple(a), ref)
            a.insert(rng.randrange(n), a.pop(rng.randrange(n)))
            after = ulam_distance(tuple(a), ref)
            assert abs(after - before) <= 1


class TestErrorContract:
    # lcs_length and ulam_distance take two distinct-symbol strings over one
    # symbol set and refuse every other pair; lcs_length_dp, the oracle,
    # takes any two distinct-symbol strings
    REPEATS = [
        ((0, 0, 1), (0, 1, 2)),
        ((0, 1, 2), (2, 1, 2)),
        ((5, 5), (5, 5)),
    ]
    REFUSED = REPEATS + [
        ((0, 1, 2), (0, 1, 3)),
        ((0, 1, 2), (2, 1)),
        ((0, 1), (1, 0, 2)),
        ((0, 1), (0, 1, 1)),
        ((0, 1, 1), (1, 0)),
        ((), (0,)),
        # different symbol sets, which lcs_length once took
        ((0, 1), (2, 3)),
        ((0, 5, 1), (5, 9)),
        ((), (4, 3)),
    ]
    ACCEPTED = [
        ((0, 1), (1, 0)),
        ((0, 5, 1), (5, 1, 0)),
        ((2, 7, 9), (7, 9, 2)),
        ((4, 3), (4, 3)),
        ((), ()),
    ]

    @pytest.mark.parametrize("a, b", REFUSED)
    def test_lcs_rejects(self, a, b):
        with pytest.raises(ValueError):
            lcs_length(a, b)
        with pytest.raises(ValueError):
            lcs_length(b, a)

    @pytest.mark.parametrize("a, b", REPEATS)
    def test_lcs_dp_rejects(self, a, b):
        with pytest.raises(ValueError):
            lcs_length_dp(a, b)

    @pytest.mark.parametrize("a, b", ACCEPTED)
    def test_lcs_accepts(self, a, b):
        lcs = lcs_length_dp(a, b)
        assert lcs_length(a, b) == lcs
        assert ulam_distance(a, b) == len(a) - lcs

    @pytest.mark.parametrize("a, b", REFUSED)
    def test_ulam_rejects(self, a, b):
        with pytest.raises(ValueError):
            ulam_distance(a, b)
        with pytest.raises(ValueError):
            ulam_distance(b, a)

    @given(
        st.lists(st.integers(0, 6), max_size=7),
        st.lists(st.integers(0, 6), max_size=7),
    )
    @example([2, 0, 1], [0, 1, 2])
    @settings(max_examples=300)
    def test_raises_exactly_on_invalid_strings(self, a, b):
        accepted = one_symbol_set(a, b)
        try:
            got = lcs_length(a, b)
        except ValueError:
            assert not accepted
        else:
            assert accepted and got == lcs_length_dp(a, b)
        try:
            d = ulam_distance(a, b)
        except ValueError:
            assert not accepted
        else:
            assert accepted and d == len(a) - got

    @given(mutated_permutations(), mutated_permutations())
    @example((0, 1), [True, 0])
    @example((1.0, 0), (0, 1))
    @example((-1, 0), (0, -1))
    @example((Index(0),), (Index(0),))
    @settings(max_examples=300)
    def test_accepts_exactly_one_symbol_set(self, a, b):
        # a bool or a float equal to an int is that int, as in a set; an
        # __index__ object is only itself
        if not one_symbol_set(a, b):
            for distance in (lcs_length, ulam_distance):
                with pytest.raises(ValueError):
                    distance(a, b)
            return
        lcs = lcs_length_dp(a, b)
        assert lcs_length(a, b) == lcs
        assert ulam_distance(a, b) == len(a) - lcs


class TestSubadditivity:
    @given(
        st.integers(2, 32).flatmap(
            lambda n: st.tuples(
                st.permutations(list(range(n))).map(tuple),
                st.permutations(list(range(n))).map(tuple),
                st.lists(st.integers(0, 3), min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=200)
    def test_partition_bound(self, triple):
        a, b, labels = triple
        parts = {}
        for sym, lab in zip(range(len(a)), labels):
            parts.setdefault(lab, set()).add(sym)
        total = sum(
            lcs_length(restrict(a, part), restrict(b, part)) for part in parts.values()
        )
        assert lcs_length(a, b) <= total


class TestRestrict:
    def test_example(self):
        assert restrict((3, 1, 8, 6, 4, 5, 0, 7, 2), {3, 6, 0}) == (3, 6, 0)

    def test_full_and_empty(self):
        assert restrict((0, 1, 2, 3), {0, 1, 2, 3}) == (0, 1, 2, 3)
        assert restrict((0, 1, 2, 3), set()) == ()

    def test_symbols_absent_from_string(self):
        assert restrict((5, 3), {3, 99}) == (3,)


class TestDigits:
    def test_examples(self):
        assert to_digits(5, 2, 3) == (1, 0, 1)
        assert to_digits(0, 3, 2) == (0, 0)
        assert to_digits(7, 3, 2) == (2, 1)

    def test_base_one(self):
        # a one-codeword shuffler code numbers its single message in base 1
        assert to_digits(0, 1, 3) == (0, 0, 0)
        assert from_digits((0, 0, 0), 1) == 0
        with pytest.raises(ValueError):
            to_digits(1, 1, 3)
        with pytest.raises(ValueError):
            from_digits((1,), 1)
        with pytest.raises(ValueError):
            to_digits(0, 0, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            to_digits(9, 3, 2)
        with pytest.raises(ValueError):
            to_digits(-1, 3, 2)
        with pytest.raises(ValueError):
            from_digits((3,), 3)

    @given(st.integers(2, 10), st.integers(1, 8), st.data())
    def test_round_trip(self, q, length, data):
        m = data.draw(st.integers(0, q**length - 1))
        assert from_digits(to_digits(m, q, length), q) == m


class TestPermutationBasics:
    def test_validate_permutation(self):
        for word in [(1, 0, 2), (), (0,)]:
            validate_permutation(word)
        # a gap, a repeat, a symbol out of range, and a symbol that is not
        # an int, even one equal to an int
        for word in [(0, 2), (0, 0, 1), (1, 2), (-1, 0),
                     (0, 0.5, 2), (0, 1.0, 2), (0, float("nan"), 2), (1.0,), (0, "1")]:
            with pytest.raises(ValueError, match="not a permutation"):
                validate_permutation(word)

    @given(mutated_permutations())
    @example(())
    @example((-1, 0))
    @example([1, True, 0])
    def test_validate_permutation_matches_the_integer_rule(self, word):
        # the one-pass check accepts exactly what the integer rule and
        # check_distinct accept, refuses with their message, and returns
        # the inverse on acceptance
        try:
            check_distinct(_check_ints(word, len(word)), "it")
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                validate_permutation(word)
            assert str(got.value) == f"permutation is not a permutation of [{len(word)}]: {exc}"
        else:
            assert validate_permutation(word) == inverse(word)

    def test_refusals_name_the_first_fault_not_the_word(self):
        big = list(range(100_001))
        big[-1] = 5
        for word, fault in [
            (big, "it repeats symbol 5 at positions 5 and 100000"),
            ((0, 1.0, 2), "symbol 1.0 is not an integer"),
            ((0, 3, 1), "symbol 3 out of range [0, 3)"),
        ]:
            with pytest.raises(ValueError) as exc:
                validate_permutation(word)
            assert str(exc.value) == f"permutation is not a permutation of [{len(word)}]: {fault}"
        for a, b, name in [(big, [0], "first"), ([0], big, "second")]:
            for lcs in (lcs_length, lcs_length_dp):
                with pytest.raises(ValueError) as exc:
                    lcs(a, b)
                assert str(exc.value) == f"{name} string repeats symbol 5 at positions 5 and 100000"

    def test_inverse(self):
        word = (2, 0, 1)
        inv = inverse(word)
        assert tuple(word[i] for i in inv) == (0, 1, 2)

    def test_identity_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            identity(0)


class TestTextFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "perms.txt"
        perms = [(0, 1, 2), (2, 0, 1)]
        write_int_rows(str(path), perms)
        assert path.read_bytes() == b"0 1 2\n2 0 1\n"
        assert read_permutations(str(path)) == perms

    @pytest.mark.parametrize(
        "text, line",
        [
            ("0 1 2\n\n2 x 0\n", 3),
            ("0 1 2\n0 0 1\n", 2),
            # int() reads these as 10 and 1, which would make line 1 a permutation
            ("0 1_0 2 3 4 5 6 7 8 9 +1\n", 1),
            ("1 0\n\n+1 0\n", 3),
            ("1 0\n0 1 2 3\u00a0\n", 2),
        ],
    )
    def test_read_names_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "perms.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ")):
            read_permutations(str(path))


def is_int_token(tok):
    """The token rule -?[0-9]+, written apart from the reader's regex."""
    body = tok[1:] if tok.startswith("-") else tok
    return body != "" and all(ch in "0123456789" for ch in body)


ROW_LINES = st.lists(
    st.lists(st.text("0123456789-+_xZ", min_size=1, max_size=3), max_size=4).map(" ".join),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(lines=ROW_LINES)
def test_read_int_rows_keeps_exactly_the_token_rule(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("rows") / "rows.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    rows = []
    for lineno, line in enumerate(lines, 1):
        tokens = line.split()
        if not all(map(is_int_token, tokens)):
            with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: ")):
                read_int_rows(str(path))
            return
        if tokens:
            rows.append(tuple(int(tok) for tok in tokens))
    assert read_int_rows(str(path)) == rows



# -- every integer the command line takes keeps the same token rule ----------

CLI_INSTANCE = ["--q", "4", "--ell", "2", "--ground-set", "xor:all", "--code", "gv:4,4,2"]


def run_cli(argv):
    """main(argv) with its output captured: (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def flag_reader(command, flag, dest, required):
    """The flag's parsed value for a text, or None when argparse refuses it (exit 2)."""
    def read(text):
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                args = cli.parse_args([command, *required, f"{flag}={text}"])
            except SystemExit as exc:
                assert exc.code == 2
                return None
        return getattr(args, dest)
    return read


def argparse_integer_flags():
    """A reader for every argparse flag that takes an integer, by (command, flag)."""
    parser = cli.build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    readers = {}
    for command, sub in commands.choices.items():
        flags = [a for a in sub._actions if a.option_strings]
        for action in flags:
            assert action.type is not int, (command, action.option_strings)
            if action.type is int_token:
                flag = action.option_strings[0]
                required = [
                    f"{a.option_strings[0]}=1" for a in flags if a.required and a is not action
                ]
                readers[f"{command} {flag}"] = flag_reader(command, flag, action.dest, required)
    return readers


def config_reader(key):
    def read(text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "instance.cfg"
            path.write_text(f"{key}={text}\n", encoding="utf-8")
            try:
                return cli.load_config_file(str(path))[key]
            except ParameterError:
                return None
    return read


def message_reader(argv_of, refusal):
    """
    Runs the CLI on argv_of(text); None when it refuses the text with the
    refusal message (exit 1), or as a flag value "--" (a usage error, exit
    2), True when the text is read (whatever follows).
    """
    def read(text):
        code, err = run_cli(argv_of(text))
        if err == f"error: {refusal.format(text=text)}\n":
            assert code == 1
            return None
        if err.endswith("\nulamcodes: error: '--' is not a flag value\n"):
            assert (code, text) == (2, "--")
            return None
        return True
    return read


CLI_INTEGER_INPUTS = {
    **argparse_integer_flags(),
    "config q": config_reader("q"),
    "config ell": config_reader("ell"),
    "ground-set descriptor": message_reader(
        lambda text: ["build", *CLI_INSTANCE, "--ground-set", f"bruteforce:{text}"],
        "descriptor 'bruteforce:{text}' does not match bruteforce:MAX_LCS[:TARGET_P]",
    ),
    "code descriptor": message_reader(
        lambda text: ["build", *CLI_INSTANCE, "--code", f"id:4,{text}"],
        "descriptor 'id:4,{text}' does not match id:ALPHABET,N",
    ),
    "encode --raw-shufflers": message_reader(
        lambda text: ["encode", f"--raw-shufflers={text}", "--q=2", "--ground-set=bruteforce:1"],
        "--raw-shufflers must be integers separated by spaces, commas and ';', got {text!r}",
    ),
    "encode --msg": message_reader(
        lambda text: ["encode", f"--msg={text}", *CLI_INSTANCE],
        "--msg must be an integer, got {text!r}",
    ),
    "sweep --t-list": message_reader(
        lambda text: ["sweep", f"--t-list={text}", "--trials", "1", "--seed", "1", *CLI_INSTANCE],
        "--t-list must be comma-separated integers, got {text!r}",
    ),
}


def test_every_cli_integer_input_is_listed():
    flags = {name for name in CLI_INTEGER_INPUTS if name.split()[0] in cli._COMMANDS}
    assert flags >= {
        "build --q", "build --ell", "gen-ground-set --q", "corrupt --t", "corrupt --seed",
        "audit --sample", "audit --seed", "sweep --trials", "sweep --seed",
    }


# digits, signs, the underscore int() allows between digits, a letter, and
# two non-ASCII digits int() reads (Arabic-Indic and fullwidth five)
INTEGER_TEXTS = st.text("0123456789-+_x\u0665\uff15", min_size=1, max_size=4)


@pytest.mark.parametrize("read", CLI_INTEGER_INPUTS.values(), ids=CLI_INTEGER_INPUTS.keys())
@settings(max_examples=60, deadline=None)
@given(text=INTEGER_TEXTS)
@example(text="--")
def test_cli_integer_input_keeps_exactly_the_token_rule(read, text):
    value = read(text)
    if not is_int_token(text):
        assert value is None
    else:
        assert value is True or value == int(text)
