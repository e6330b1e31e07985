"""
The integer rule (see the perm_core docstring), checked at every public
entry that takes a symbol, digit, message index or shuffler symbol.
"""
import re

import pytest

import ulamcodes as uc
from ulamcodes.block_codes import ExplicitCode, IdentityCode, ReedSolomonCode
from ulamcodes.fields import Field
from ulamcodes.perm_core import _index_ints, validate_permutation

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


# each code factory with integer parameters that build; every parameter in
# turn is given as a float, as in identity_code(2.0, 3), which used to
# return float symbols or escape as a TypeError
FACTORIES = {
    "identity_code": (uc.identity_code, (2, 3)),
    "repetition_code": (uc.repetition_code, (3, 2)),
    "rs_code": (uc.rs_code, (16, 8, 3)),
    "greedy_gv_code": (uc.greedy_gv_code, (2, 3, 2)),
}


@pytest.mark.parametrize("factory, args", FACTORIES.values(), ids=FACTORIES.keys())
def test_code_factory_reads_parameters_by_the_integer_rule(factory, args):
    code = factory(*args)
    for i, good in enumerate(args):
        bad = float(good)
        message = re.escape(f"parameter {bad!r} is not an integer")
        with pytest.raises(uc.ParameterError, match=message):
            factory(*args[:i], bad, *args[i + 1:])
    assert all(type(s) is int for s in code.encode_index(1))


# the ground-set constructors and ExplicitCode read their integer
# parameters by the same rule; as with FACTORIES, each is given in turn as
# a float, which used to escape as AttributeError or TypeError or build a
# set or code holding the float
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
            message = re.escape(f"parameter {bad!r} is not an integer")
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
    with pytest.raises(uc.ParameterError, match=re.escape(f"parameter {bad!r} is not an integer")):
        _index_ints((1, bad))
    with pytest.raises(ValueError, match=re.escape(f"symbol {bad!r} is not an integer")):
        validate_permutation((bad,))


# every count, length, stage, base or order a public entry takes; each is
# given a non-integer in one parameter, which escaped as a bare TypeError,
# returned float output (to_digits, from_digits) or built a code of float
# size (IdentityCode)
PARAMETERS = {
    "identity": (lambda: uc.identity(4.0), 4.0),
    "random_permutation": (lambda: uc.random_permutation(4.0, 1), 4.0),
    "relocate": (lambda: uc.relocate(uc.identity(4), 2.0, 1), 2.0),
    "apply_stage": (lambda: uc.apply_stage(uc.identity(4), 1.0, (0, 1), BINARY), 1.0),
    "decoder_sweep t_values": (lambda: uc.decoder_sweep(GV_INSTANCE, [1.5], 2, 1), 1.5),
    "decoder_sweep trials": (lambda: uc.decoder_sweep(GV_INSTANCE, [1], 2.5, 1), 2.5),
    "audit_pairwise": (lambda: uc.audit_pairwise(GV_INSTANCE, sample_pairs=2.5, seed=1), 2.5),
    "Field": (lambda: Field(16.0), 16.0),
    "ReedSolomonCode": (lambda: ReedSolomonCode(Field(16), 16.0, 8), 16.0),
    "IdentityCode": (lambda: IdentityCode(2.0, 3), 2.0),
    "to_digits base": (lambda: uc.to_digits(5, 2.0, 3), 2.0),
    "to_digits length": (lambda: uc.to_digits(5, 2, 3.0), 3.0),
    "from_digits base": (lambda: uc.from_digits((1, 0, 1), 2.0), 2.0),
}


@pytest.mark.parametrize("call, bad", PARAMETERS.values(), ids=PARAMETERS.keys())
def test_parameter_is_read_by_the_integer_rule(call, bad):
    with pytest.raises(uc.ParameterError, match=re.escape(f"{bad!r} is not an integer")):
        call()
