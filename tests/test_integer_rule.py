"""
The integer rule (see the perm_core docstring), checked at every public
entry that takes a symbol, digit, message index or shuffler symbol, and
at every size parameter a public entry takes, whose refusals name it.
"""
import re

import pytest

import ulamcodes as uc
from ulamcodes import cli
from ulamcodes.block_codes import ExplicitCode, IdentityCode, ReedSolomonCode
from ulamcodes.fields import Field, factor_prime_power
from ulamcodes.perm_core import _at_least, validate_permutation

BINARY = uc.xor_ground_set(2, uc.identity_code(2, 1))  # both perms of [2]
GV_INSTANCE = uc.UlamCodeParams(
    q=4, ell=2, ground=uc.xor_ground_set(4, uc.identity_code(2, 2)),
    code=uc.greedy_gv_code(4, 4, 2),
)

# each entry maps one value v to the entry's output for an input holding v
ENTRIES = {
    "encode": lambda v: uc.encode(v, GV_INSTANCE),
    "message_to_shufflers": lambda v: uc.message_to_shufflers(v, GV_INSTANCE),
    "rs.encode_index": lambda v: uc.rs_code(4, 4, 2).encode_index(v),
    "gv.encode_index": lambda v: uc.greedy_gv_code(4, 4, 3).encode_index(v),
    "concat.encode_index":
        lambda v: uc.concat_code(uc.rs_code(4, 4, 2), uc.identity_code(2, 2)).encode_index(v),
    "repetition.encode_index": lambda v: uc.repetition_code(3, 4).encode_index(v),
    "identity.encode_index": lambda v: uc.identity_code(2, 3).encode_index(v),
    "ExplicitCode": lambda v: ExplicitCode(2, [(v, 0), (0, 0)]).words,
    "run_stages": lambda v: uc.run_stages(((v,),), BINARY),
    "apply_stage": lambda v: uc.apply_stage(uc.identity(4), 1, (v, 0), BINARY),
    "to_digits": lambda v: uc.to_digits(v, 2, 3),
    "from_digits": lambda v: uc.from_digits((v, 0), 2),
    "RelocationTrace.replay": lambda v: uc.RelocationTrace(((v, 2),)).replay(uc.identity(8)),
}


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_entry_keeps_the_integer_rule(entry):
    for bad in (1.0, 0.5, "1", None):
        with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not an integer")):
            entry(bad)
    # a bool is the int it stands for
    assert entry(True) == entry(1)


# each code factory with integer parameters that build, and the names of
# those parameters; every parameter in turn is given as a float, as in
# identity_code(2.0, 3), which used to return float symbols or escape as a
# TypeError
FACTORIES = {
    "identity_code": (uc.identity_code, (2, 3), ("alphabet_size", "block_length")),
    "repetition_code": (uc.repetition_code, (3, 2), ("alphabet_size", "block_length")),
    "rs_code": (uc.rs_code, (16, 8, 3), ("field order", "n", "k")),
    "greedy_gv_code": (uc.greedy_gv_code, (2, 3, 2), ("alphabet_size", "length", "min_distance")),
}


@pytest.mark.parametrize("factory, args, names", FACTORIES.values(), ids=FACTORIES.keys())
def test_code_factory_reads_parameters_by_the_integer_rule(factory, args, names):
    code = factory(*args)
    for i, (good, name) in enumerate(zip(args, names)):
        bad = float(good)
        message = re.escape(f"{name} {bad!r} is not an integer")
        with pytest.raises(uc.ParameterError, match=message):
            factory(*args[:i], bad, *args[i + 1:])
    assert all(type(s) is int for s in code.encode_index(1))


# the ground-set constructors and ExplicitCode read their integer
# parameters by the same rule, each refusal naming its keyword; as with
# FACTORIES, each is given in turn as a float, which used to escape as
# AttributeError or TypeError or build a set or code holding the float
CONSTRUCTORS = {
    "GroundSet": (uc.GroundSet, dict(q=2, perms=[(0, 1), (1, 0)])),
    "xor_ground_set": (uc.xor_ground_set, dict(q=8, code=uc.identity_code(2, 3))),
    "brute_force_ground_set": (uc.brute_force_ground_set, dict(q=4, target_p=2, max_lcs=2)),
    "brute_force_ground_set sampled": (
        uc.brute_force_ground_set, dict(q=4, target_p=2, max_lcs=2, seed=1, sample_budget=50)
    ),
    "ExplicitCode": (ExplicitCode, dict(alphabet_size=2, words=[(0, 1), (1, 0)])),
}


@pytest.mark.parametrize("constructor, kwargs", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
def test_constructor_reads_parameters_by_the_integer_rule(constructor, kwargs):
    constructor(**kwargs)
    for name, good in kwargs.items():
        if type(good) is not int or name == "seed":
            continue
        for bad in (float(good), good + 0.5):
            message = re.escape(f"{name} {bad!r} is not an integer")
            with pytest.raises(uc.ParameterError, match=message):
                constructor(**{**kwargs, name: bad})


class Half:
    """__index__ returns a non-int, so operator.index refuses it."""

    def __index__(self):
        return 1.5


class Refusing:
    """__index__ itself raises TypeError."""

    def __index__(self):
        raise TypeError("no integer here")


@pytest.mark.parametrize("bad", [Half(), Refusing()], ids=["Half", "Refusing"])
def test_a_value_whose_index_fails_is_named(bad):
    # such a value has __index__, which once let StopIteration escape
    with pytest.raises(uc.ParameterError, match=re.escape(f"count {bad!r} is not an integer")):
        _at_least(bad, 0, "count")
    with pytest.raises(ValueError, match=re.escape(f"symbol {bad!r} is not an integer")):
        validate_permutation((bad,))


def test_at_least_reads_a_bool_and_an_index_as_their_int():
    class Index:
        def __index__(self):
            return 3

    assert _at_least(True, 1, "n") == 1 and type(_at_least(True, 1, "n")) is int
    assert _at_least(Index(), 3, "n") == 3
    with pytest.raises(uc.ParameterError, match=re.escape("n must be >= 1, got 0")):
        _at_least(False, 1, "n")


# every size parameter a public entry takes: a call taking that parameter's
# value, the name its refusals give and its least accepted value. Before
# the one reader, a non-integer escaped as a bare TypeError, returned float
# output (to_digits, from_digits) or built a code of float size
# (IdentityCode), and several refusals named "parameter" or no parameter.
PARAMETERS = {
    "identity": (uc.identity, "n", 1),
    "to_digits base": (lambda v: uc.to_digits(0, v, 3), "base", 1),
    "to_digits length": (lambda v: uc.to_digits(0, 2, v), "length", 0),
    "from_digits base": (lambda v: uc.from_digits((0, 0), v), "base", 1),
    "Field": (Field, "field order", 2),
    "factor_prime_power": (factor_prime_power, "field order", 2),
    "rs_code": (lambda v: uc.rs_code(v, 2, 1), "field order", 2),
    "ReedSolomonCode": (lambda v: ReedSolomonCode(Field(16), v, 1), "n", 1),
    "ReedSolomonCode k": (lambda v: ReedSolomonCode(Field(16), 8, v), "k", 1),
    "ExplicitCode": (lambda v: ExplicitCode(v, [(0, 1), (1, 0)]), "alphabet_size", 2),
    "greedy_gv_code alphabet_size": (lambda v: uc.greedy_gv_code(v, 3, 2), "alphabet_size", 2),
    "greedy_gv_code length": (lambda v: uc.greedy_gv_code(2, v, 1), "length", 1),
    "greedy_gv_code min_distance": (lambda v: uc.greedy_gv_code(2, 3, v), "min_distance", 1),
    "IdentityCode": (lambda v: IdentityCode(v, 3), "alphabet_size", 2),
    "IdentityCode block_length": (lambda v: IdentityCode(2, v), "block_length", 1),
    "repetition_code alphabet_size": (lambda v: uc.repetition_code(v, 2), "alphabet_size", 2),
    "repetition_code block_length": (lambda v: uc.repetition_code(3, v), "block_length", 1),
    "GroundSet": (lambda v: uc.GroundSet(v, [(0, 1), (1, 0)]), "q", 2),
    "xor_ground_set": (lambda v: uc.xor_ground_set(v, uc.identity_code(2, 1)), "q", 2),
    "brute_force_ground_set q": (lambda v: uc.brute_force_ground_set(v, None, 1), "q", 2),
    "brute_force_ground_set target_p": (
        lambda v: uc.brute_force_ground_set(4, v, 2), "target_p", 1
    ),
    "brute_force_ground_set max_lcs": (
        lambda v: uc.brute_force_ground_set(4, None, v), "max_lcs", 0
    ),
    "brute_force_ground_set sample_budget": (
        lambda v: uc.brute_force_ground_set(4, None, 2, sample_budget=v), "sample_budget", 1
    ),
    "brute_force_ground_set sampled sample_budget": (
        lambda v: uc.brute_force_ground_set(4, None, 2, seed=1, sample_budget=v),
        "sample_budget", 1,
    ),
    "UlamCodeParams q": (
        lambda v: uc.UlamCodeParams(v, 1, BINARY, uc.identity_code(2, 1)), "q", 2
    ),
    "UlamCodeParams ell": (
        lambda v: uc.UlamCodeParams(2, v, BINARY, uc.identity_code(2, 1)), "ell", 1
    ),
    "apply_stage": (lambda v: uc.apply_stage(uc.identity(4), v, (0, 1), BINARY), "stage", 1),
    "relocate": (lambda v: uc.relocate(uc.identity(4), v, 1), "t", 0),
    "random_permutation": (lambda v: uc.random_permutation(v, 1), "n", 1),
    "audit_pairwise": (
        lambda v: uc.audit_pairwise(GV_INSTANCE, sample_pairs=v, seed=1), "sample_pairs", 1
    ),
    "decoder_sweep trials": (lambda v: uc.decoder_sweep(GV_INSTANCE, [1], v, 1), "trials", 1),
    "decoder_sweep t_values": (lambda v: uc.decoder_sweep(GV_INSTANCE, [1, v], 1, 1), "t", 0),
    "cli q": (lambda v: cli.resolve_ground_set("xor:all", v), "q", 2),
}


@pytest.mark.parametrize("call, name, low", PARAMETERS.values(), ids=PARAMETERS.keys())
def test_parameter_is_read_by_the_integer_rule(call, name, low):
    for bad in (float(low), low + 0.5, str(low)):
        with pytest.raises(uc.ParameterError, match=re.escape(f"{name} {bad!r} is not an integer")):
            call(bad)


@pytest.mark.parametrize("call, name, low", PARAMETERS.values(), ids=PARAMETERS.keys())
def test_parameter_has_a_named_lower_bound(call, name, low):
    call(low)
    with pytest.raises(uc.ParameterError) as exc:
        call(low - 1)
    assert str(exc.value) == f"{name} must be >= {low}, got {low - 1}"
