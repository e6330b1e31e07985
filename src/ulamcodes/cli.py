"""
Command-line front end.

Subcommands: gen-ground-set, build, encode, decode, distance, corrupt,
audit, sweep. Instances are described by --q/--ell plus a ground-set
descriptor and a block-code descriptor. A flat key=value config file
(--config) fills the instance flags that were not given, so flags
override the file; '#' starts a comment and a repeated key is refused.
perm_core.read_lines reads it, as every file, so a fault names path:line.
build prints one set of derived parameters: key=value lines, or JSON with
the same keys under --json.

Ground-set descriptors:
    xor:gv:<d>        XOR construction from a greedy-GV binary code of
                      length log2(q) and min distance d
    xor:all           XOR construction from all binary words
    bruteforce:<max_lcs>[:<target_p>]
    file:<path>       ground-set file ("q p max_lcs" header)

Block-code descriptors:
    rs:<field>,<n>,<k>      Reed-Solomon
    gv:<alphabet>,<n>,<d>   greedy Gilbert-Varshamov search
    rep:<alphabet>,<n>      repetition
    id:<alphabet>,<n>       identity (rate 1, distance 1)
    concat:<outer>/<inner>  concatenation of two descriptors
    file:<path>             explicit-code file ("alphabet length size" header)

Every integer a flag, config value, descriptor field, shuffler string or
list takes must match -?[0-9]+, the token rule of the library's files, so
"+1", "1_0" and non-ASCII digits are refused; blanks around a separator
are allowed.

Exit status: 0 on success, 1 on domain failures (decoding failure,
invalid parameters), 2 on usage errors. Failure paths print one
"error: ..." line to stderr.
"""
from __future__ import annotations

import argparse
import sys

from . import block_codes, channel, ground_set, perm_core, ulam_code, verify
from .block_codes import BlockCode, DecodeFailure
from .errors import ParameterError
from .ground_set import GroundSet
from .perm_core import _at_least, int_token


# config-file keys, each the destination of its flag
_CONFIG_KEYS = ("q", "ell", "ground_set", "code")


def load_config_file(path: str) -> dict[str, int | str]:
    """The file's instance values, keyed by flag destination: key=value lines, '#' comments."""
    cfg = {}

    def read(line: str) -> None:
        text = line.split("#", 1)[0].strip()
        if not text:
            return
        if "=" not in text:
            raise ParameterError(f"config line is not key=value: {line.strip()!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ParameterError(f"unknown config key {key!r}")
        if key in cfg:
            raise ParameterError(f"repeated config key {key!r}")
        cfg[key] = _parse_flag(key, value, int_token, "an integer") if key in ("q", "ell") else value

    perm_core.read_lines(path, read)
    return cfg


def _descriptor_ints(desc: str, fields: list[str], shape: str, arities: tuple[int, ...]) -> list[int]:
    """The integer fields of a descriptor, or a ParameterError quoting it and its expected shape."""
    if len(fields) in arities:
        try:
            return [int_token(tok.strip()) for tok in fields]
        except ValueError:
            pass
    raise ParameterError(f"descriptor {desc!r} does not match {shape}")


def resolve_ground_set(desc: str, q: int) -> GroundSet:
    q = _at_least(q, 2, "q")
    kind, _, rest = desc.partition(":")
    if kind == "file":
        loaded = ground_set.load_ground_set(rest)
        if loaded.q != q:
            raise ParameterError(f"ground-set file is over [{loaded.q}], expected [{q}]")
        return loaded
    if kind == "xor":
        r = q.bit_length() - 1
        if q != 1 << r:
            raise ParameterError(f"xor ground set needs q a power of two, got {q}")
        # refused before the binary code of length log2(q) is built
        ground_set._check_size(q)
        if rest == "all":
            g = block_codes.identity_code(2, r)
        elif rest.startswith("gv:"):
            (d,) = _descriptor_ints(desc, [rest[3:]], "xor:gv:D", (1,))
            g = block_codes.greedy_gv_code(2, r, d)
        else:
            raise ParameterError(f"unknown xor sub-descriptor {rest!r}")
        return ground_set.xor_ground_set(q, g)
    if kind == "bruteforce":
        max_lcs, *target_p = _descriptor_ints(
            desc, rest.split(":"), "bruteforce:MAX_LCS[:TARGET_P]", (1, 2)
        )
        return ground_set.brute_force_ground_set(q, target_p[0] if target_p else None, max_lcs)
    raise ParameterError(f"unknown ground-set descriptor {desc!r}")


# kind -> (constructor, expected descriptor shape)
_INT_CODES = {
    "rs": (block_codes.rs_code, "rs:ORDER,N,K"),
    "gv": (block_codes.greedy_gv_code, "gv:ALPHABET,N,D"),
    "rep": (block_codes.repetition_code, "rep:ALPHABET,N"),
    "id": (block_codes.identity_code, "id:ALPHABET,N"),
}


def _parse_code(desc: str) -> BlockCode:
    kind, _, rest = desc.partition(":")
    if kind == "file":
        return block_codes.load_explicit_code(rest)
    if kind in _INT_CODES:
        build, shape = _INT_CODES[kind]
        arity = shape.count(",") + 1
        return build(*_descriptor_ints(desc, rest.split(","), shape, (arity,)))
    if kind == "concat":
        outer_desc, sep, inner_desc = rest.partition("/")
        if not sep:
            raise ParameterError("concat descriptor needs outer/inner")
        return block_codes.concat_code(_parse_code(outer_desc), _parse_code(inner_desc))
    raise ParameterError(f"unknown block-code descriptor {desc!r}")


def parse_shufflers(text: str) -> tuple[tuple[int, ...], ...]:
    """Stages separated by ';' or '/', symbols by spaces or commas."""
    stages = [s for s in text.replace("/", ";").split(";") if s.strip()]
    return tuple(
        tuple(map(int_token, stage.replace(",", " ").split())) for stage in stages
    )


def _parse_flag(flag: str, text: str, parse, shape: str):
    """parse(text), or a ParameterError naming the flag (or config key), its shape and the text."""
    try:
        return parse(text)
    except ValueError:
        raise ParameterError(f"{flag} must be {shape}, got {text!r}") from None


def _instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value instance config file")
    parser.add_argument("--q", type=int_token, help="group alphabet size")
    parser.add_argument("--ell", type=int_token, help="number of stages")
    parser.add_argument("--ground-set", help="ground-set descriptor")
    parser.add_argument("--code", help="block-code descriptor")


def _ground(args) -> GroundSet:
    if args.q is None:
        raise ParameterError("ground-set construction needs q")
    if args.ground_set is None:
        raise ParameterError("instance needs a ground-set descriptor")
    return resolve_ground_set(args.ground_set, args.q)


def _params(args) -> ulam_code.UlamCodeParams:
    if args.q is None or args.ell is None:
        raise ParameterError("instance needs q and ell (flags or config file)")
    _at_least(args.ell, 1, "ell")
    ground = _ground(args)
    if args.code is None:
        raise ParameterError("instance needs a block-code descriptor")
    # UlamCodeParams refuses a code whose alphabet or length does not fit
    return ulam_code.UlamCodeParams(args.q, args.ell, ground, _parse_code(args.code))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulamcodes",
        description="Permutation codes in the Ulam metric: build, encode, decode, audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-ground-set", help="construct and save a ground set")
    p.add_argument("--q", type=int_token, required=True)
    p.add_argument("--ground-set", required=True, help="descriptor to build")
    p.add_argument("--out", required=True, help="output ground-set file")

    p = sub.add_parser("build", help="validate an instance and print derived parameters")
    _instance_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("encode", help="encode a message (or raw shufflers) to a permutation")
    _instance_flags(p)
    p.add_argument("--msg", help="decimal message, any size")
    p.add_argument(
        "--raw-shufflers",
        help="explicit shuffler tuple, stages ';'-separated, e.g. '1 0 0 1; 1 1 1 0; 0 0 0 1'",
    )
    p.add_argument("--out", help="also write the permutation to this file")

    p = sub.add_parser("decode", help="decode a received permutation")
    _instance_flags(p)
    p.add_argument("--perm", required=True, help="permutation file (first line is used)")
    p.add_argument("--print-codeword", action="store_true")

    p = sub.add_parser("distance", help="Ulam distance between two permutation files")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("corrupt", help="apply t random relocations")
    p.add_argument("--perm", required=True)
    p.add_argument("--t", type=int_token, required=True)
    p.add_argument("--seed", type=int_token, required=True)
    p.add_argument("--trace-out", help="write the relocation trace here")

    p = sub.add_parser("audit", help="pairwise distance and injectivity audit")
    _instance_flags(p)
    p.add_argument(
        "--sample", type=int_token, help="number of sampled pairs (default: exhaustive)"
    )
    p.add_argument("--seed", type=int_token, help="required with --sample, refused without it")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sweep", help="decoder success-rate sweep under relocation noise")
    _instance_flags(p)
    p.add_argument("--t-list", required=True, help="comma-separated relocation counts")
    p.add_argument("--trials", type=int_token, default=100)
    p.add_argument("--seed", type=int_token, required=True)
    p.add_argument("--json", action="store_true")

    return parser


def _cmd_gen_ground_set(args) -> int:
    ground = _ground(args)
    ground_set.save_ground_set(args.out, ground)
    print(f"q={ground.q} p={ground.p} certified_max_lcs={ground.certified_max_lcs}")
    print(f"written to {args.out}")
    return 0


def _cmd_build(args) -> int:
    params = _params(args)
    rates = verify.rate_report(params)
    payload = {
        "q": params.q,
        "ell": params.ell,
        "n": params.n,
        "p": params.p,
        "code": repr(params.code),
        "code_size": params.code.size,
        "code_min_distance": params.code.min_distance,
        "code_decoding_radius": params.code.decoding_radius,
        "ground_max_lcs": params.ground.certified_max_lcs,
        "message_count": str(params.message_count),
        "distance_bound": params.distance_bound,
        "decode_guarantee": str(params.decode_guarantee),
        "lcs_upper": str(params.n - params.distance_bound),
        "dist_lower": str(params.distance_bound),
        "rate": rates.rate,
        "rate_lower": rates.rate_lower,
    }
    print(verify.payload_json(payload) if args.json else verify.payload_text(payload))
    return 0


def _cmd_encode(args) -> int:
    if (args.msg is None) == (args.raw_shufflers is None):
        raise ParameterError("encode needs exactly one of --msg or --raw-shufflers")
    if args.raw_shufflers is not None:
        shufflers = _parse_flag(
            "--raw-shufflers", args.raw_shufflers, parse_shufflers,
            "integers separated by spaces, commas and ';'",
        )
        if args.ell is not None and args.ell != len(shufflers):
            raise ParameterError(f"ell={args.ell} but --raw-shufflers has {len(shufflers)} stages")
        # a given code is checked as for --msg; the strings need not be its codewords
        args.ell = len(shufflers)
        ground = _ground(args) if args.code is None else _params(args).ground
        word = ulam_code.run_stages(shufflers, ground)
    else:
        params = _params(args)
        word = ulam_code.encode(_parse_flag("--msg", args.msg, int_token, "an integer"), params)
    print(perm_core.format_permutation(word))
    if args.out:
        perm_core.write_int_rows(args.out, [word])
    return 0


def _first_permutation(path: str) -> tuple[int, ...]:
    perms = perm_core.read_permutations(path)
    if not perms:
        raise ValueError(f"{path}: no permutation")
    return perms[0]


def _cmd_decode(args) -> int:
    params = _params(args)
    word = _first_permutation(args.perm)
    result = ulam_code.decode(word, params)
    if isinstance(result, DecodeFailure):
        print(f"error: decode failed: {result.reason}", file=sys.stderr)
        return 1
    print(result.message)
    if args.print_codeword:
        print(perm_core.format_permutation(result.codeword))
    return 0


def _cmd_distance(args) -> int:
    a = _first_permutation(args.a)
    b = _first_permutation(args.b)
    print(perm_core.ulam_distance(a, b))
    return 0


def _cmd_corrupt(args) -> int:
    word = _first_permutation(args.perm)
    corrupted, trace = channel.relocate(word, args.t, args.seed)
    print(perm_core.format_permutation(corrupted))
    if args.trace_out:
        channel.save_trace(args.trace_out, trace)
    return 0


def _cmd_audit(args) -> int:
    if args.sample is not None:
        _at_least(args.sample, 1, "--sample")
    params = _params(args)
    report = verify.audit_pairwise(params, sample_pairs=args.sample, seed=args.seed)
    # timings stay out of CLI output so identical inputs print identical bytes
    print(verify.report_json(report, timings=False) if args.json else report.as_text(timings=False))
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    _at_least(args.trials, 1, "--trials")
    params = _params(args)
    t_values = _parse_flag(
        "--t-list", args.t_list,
        lambda text: [int_token(tok.strip()) for tok in text.split(",") if tok.strip()],
        "comma-separated integers",
    )
    if not t_values:
        raise ParameterError(f"--t-list must hold at least one relocation count, got {args.t_list!r}")
    report = verify.decoder_sweep(params, t_values, args.trials, args.seed)
    print(verify.report_json(report, timings=False) if args.json else report.as_text(timings=False))
    return 0 if report.radius_violations == 0 else 1


_COMMANDS = {
    "gen-ground-set": _cmd_gen_ground_set,
    "build": _cmd_build,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "distance": _cmd_distance,
    "corrupt": _cmd_corrupt,
    "audit": _cmd_audit,
    "sweep": _cmd_sweep,
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The parsed command line; a usage error exits with status 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse (3.11) reads "--flag=--" as [] and calls no type on it
    if [] in vars(args).values():
        parser.error("'--' is not a flag value")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        if getattr(args, "config", None):
            for dest, value in load_config_file(args.config).items():
                if getattr(args, dest) is None:
                    setattr(args, dest, value)
        return _COMMANDS[args.command](args)
    except (ParameterError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
