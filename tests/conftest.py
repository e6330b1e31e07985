import pytest

import ulamcodes as uc


@pytest.fixture(scope="session")
def swap_instance():
    """Binary special case: q=p=2, three stages of pair swaps on [8]."""
    ground = uc.GroundSet(2, [(0, 1), (1, 0)])
    code = uc.greedy_gv_code(2, 4, 2)  # size 8, exact distance 2
    return uc.UlamCodeParams(q=2, ell=3, ground=ground, code=code)


@pytest.fixture(scope="session")
def q4_instance():
    """Fully enumerable audit instance: n=16, p=4, GV shuffler code."""
    ground = uc.xor_ground_set(4, uc.identity_code(2, 2))  # all 4 perms, max LCS 2
    code = uc.greedy_gv_code(4, 4, 2)  # size 64, exact distance 2
    return uc.UlamCodeParams(q=4, ell=2, ground=ground, code=code)


@pytest.fixture(scope="session")
def q8_instance():
    """Wide-radius instance: n=64, distance bound 30, decoding radius 7.5."""
    ground = uc.xor_ground_set(8, uc.greedy_gv_code(2, 3, 2))  # p=4, max LCS 2
    code = uc.greedy_gv_code(4, 8, 5)  # size 64, exact distance 5
    return uc.UlamCodeParams(q=8, ell=2, ground=ground, code=code)


@pytest.fixture(scope="session")
def concat_instance():
    """Concatenated shuffler code: n=64, C = RS(16,8,3) over identity inner."""
    ground = uc.xor_ground_set(4, uc.identity_code(2, 2))  # p=4, max LCS 2
    code = uc.concat_code(uc.rs_code(16, 8, 3), uc.identity_code(4, 2))
    return uc.UlamCodeParams(q=4, ell=3, ground=ground, code=code)
