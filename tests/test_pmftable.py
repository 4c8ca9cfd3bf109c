import itertools

import pytest

from fraccount.pmftable import _branch_table, _branch_transform


def untouched():
    # a branch that must not be evaluated
    raise AssertionError("branch of weight 0 was evaluated")
    yield


def stream(*head):
    return itertools.chain(head, itertools.repeat(0.0))


def test_table_mixes_in_the_shared_order():
    run, held, frac, rho = (0.5, 0.3, 0.2), (0.1, 0.6, 0.3), 0.4, 0.3
    got = _branch_table(stream(*run), stream(*held), frac, rho, 2)
    want = []
    for k in range(3):
        val = (1.0 - rho) * run[k]
        if k == 0:
            val += rho * (1.0 - frac)
        want.append(val + rho * frac * held[k])
    assert got.probs == tuple(want)


@pytest.mark.parametrize("frac, rho", [(0.0, 0.3), (0.4, 0.0), (0.0, 1.0)])
def test_table_never_reads_a_held_branch_of_weight_zero(frac, rho):
    got = _branch_table(stream(0.5, 0.3, 0.2), untouched(), frac, rho, 2)
    assert got.probs[1:] == ((1.0 - rho) * 0.3, (1.0 - rho) * 0.2)


def test_table_never_reads_a_running_branch_of_weight_zero():
    got = _branch_table(untouched(), stream(0.25, 0.75), 0.5, 1.0, 1)
    assert got.probs == (0.5 + 0.125, 0.375)


def test_table_held_none_reads_the_running_entries():
    # fully coupled at the horizon: the held branch is the running one
    got = _branch_table(stream(0.25, 0.75), None, 1.0, 1.0, 1)
    assert got.probs == (0.25, 0.75)
    two = _branch_table(stream(0.25, 0.75), None, 0.5, 0.4, 1)
    assert two.probs == (0.6 * 0.25 + 0.4 * 0.5 + 0.2 * 0.25, 0.6 * 0.75 + 0.2 * 0.75)


def test_transform_association_and_weight_zero_branches():
    def fail():
        raise AssertionError("branch of weight 0 was evaluated")

    run, held, frac, rho = 0.7, 0.2, 0.4, 0.3
    got = _branch_transform(lambda: run, lambda: held, frac, rho)
    assert got == (1.0 - rho) * run + (rho * (1.0 - frac) + rho * frac * held)
    assert _branch_transform(lambda: run, fail, 0.0, 0.3) == 0.7 * run + 0.3
    assert _branch_transform(fail, lambda: held, frac, 1.0) == (1.0 - frac) + frac * held
    assert _branch_transform(lambda: run, None, 1.0, 1.0) == run
