import numpy as np
import pytest

from dcckp.model import (
    BOUNDED_STRONGLY_CORRELATED,
    UNCORRELATED,
    Instance,
    InstanceFormatError,
    generate_instance,
    parse_instance,
    serialize_instance,
)


def test_generated_ranges_many_seeds():
    # Table-style ranges must hold for every item across many seeds
    for seed in range(1000):
        inst = generate_instance(UNCORRELATED, 8, 25, seed=seed)
        assert ((101 <= inst.weights) & (inst.weights <= 1100)).all()
        assert ((1 <= inst.profits) & (inst.profits <= 1000)).all()


def test_bounded_strongly_correlated_identity():
    inst = generate_instance("bsc", 5, 25, c_constant=100, seed=42)
    assert inst.kind == BOUNDED_STRONGLY_CORRELATED
    assert (inst.profits == (inst.weights - 100) + 100).all()


def test_generation_deterministic():
    a = generate_instance(UNCORRELATED, 30, 50, seed=7)
    b = generate_instance(UNCORRELATED, 30, 50, seed=7)
    assert a == b
    assert serialize_instance(a) == serialize_instance(b)
    c = generate_instance(UNCORRELATED, 30, 50, seed=8)
    assert a != c


def test_single_item_instance_ranges():
    inst = generate_instance(UNCORRELATED, 1, 25, seed=3)
    assert inst.n == 1
    assert 101 <= inst.weights[0] <= 1100
    assert 1 <= inst.profits[0] <= 1000


@pytest.mark.parametrize("kwargs, message", [
    (dict(kind=UNCORRELATED, n=0, delta=25), "n must be >= 1"),
    (dict(kind=UNCORRELATED, n=5, delta=0), "delta must be in"),
    (dict(kind=UNCORRELATED, n=5, delta=101), "delta must be in"),
    (dict(kind=UNCORRELATED, n=5, delta=25, c_constant=0), "c_constant must be >= 1"),
    (dict(kind="nope", n=5, delta=25), "unknown instance kind 'nope'"),
], ids=[f"kwargs{i}" for i in range(5)])
def test_generate_rejects_bad_arguments(kwargs, message):
    # each check's own message: a later check would raise ValueError anyway
    with pytest.raises(ValueError, match=message):
        generate_instance(seed=1, **kwargs)


def make_instance(profits, weights, kind=UNCORRELATED):
    return Instance(profits=profits, weights=weights, delta=25, kind=kind,
                    c_constant=100, seed=0)


def test_item_invariants():
    with pytest.raises(ValueError):
        make_instance([0], [200])
    with pytest.raises(ValueError):
        make_instance([5], [100])
    # a profit-1 item breaks only the weight rule
    with pytest.raises(ValueError, match="expected weight must be >= 101, got 100"):
        make_instance([1], [100])
    # the least profit and expected weight an item may have
    assert make_instance([1], [101]).profits.tolist() == [1]


@pytest.mark.parametrize("fields, message", [
    (dict(kind="nope"), "unknown kind 'nope'"),
    (dict(delta=0), "delta must be a positive integer"),
    (dict(delta=200), "delta=200 must stay below the smallest expected weight 200"),
], ids=["unknown_kind", "delta_below_1", "delta_at_least_min_weight"])
def test_instance_rejects_bad_fields(fields, message):
    with pytest.raises(ValueError, match=message):
        Instance(**{**dict(profits=[5, 7], weights=[200, 300], delta=25,
                           kind=UNCORRELATED, c_constant=100, seed=0), **fields})


def test_instance_rejects_broken_correlation():
    with pytest.raises(ValueError):
        make_instance([5, 7], [200, 300], kind=BOUNDED_STRONGLY_CORRELATED)


def test_instance_arrays_are_read_only_int64_copies():
    profits, weights = np.array([5, 7]), [200, 300]
    inst = make_instance(profits, weights)
    profits[0], weights[0] = 99, 999
    assert inst.profits.tolist() == [5, 7] and inst.weights.tolist() == [200, 300]
    for column in (inst.profits, inst.weights):
        assert column.dtype == np.int64
        with pytest.raises(ValueError):
            column[0] = 1
    gen = generate_instance(UNCORRELATED, 5, 25, seed=1)
    with pytest.raises(ValueError):
        gen.profits[0] = 1
    with pytest.raises(ValueError):
        gen.weights += 1


def test_instance_equality_compares_arrays_and_scalar_fields():
    a = make_instance([5, 7], [200, 300])
    assert a == make_instance(np.array([5, 7]), np.array([200, 300]))
    assert a != make_instance([5, 8], [200, 300])
    assert a != make_instance([5, 7], [200, 301])
    assert a != make_instance([5, 7, 1], [200, 300, 200])
    assert a != Instance(profits=[5, 7], weights=[200, 300], delta=25,
                         kind=UNCORRELATED, c_constant=100, seed=1)
    assert a != "not an instance"


@pytest.mark.parametrize("profits, weights", [([1], [200, 300]), ([], [])])
def test_instance_rejects_columns_of_unequal_or_zero_length(profits, weights):
    with pytest.raises(ValueError, match="of one length|at least one item"):
        make_instance(profits, weights)


@pytest.mark.parametrize("row, line, message", [
    ("0 200", 2, "item profit must be >= 1, got 0"),
    ("5 100", 2, "expected weight must be >= 101, got 100"),
    (f"{-2 ** 64} 200", 2, f"item profit must be >= 1, got {-2 ** 64}"),
    (f"{2 ** 63} 200", 1, f"profit total {2 ** 63 + 3} reaches 2**53"),
])
def test_parse_reports_the_line_of_a_bad_item(row, line, message):
    text = f"n 2 delta 25 kind uncorrelated c 100 seed 1\n{row}\n3 300\n"
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(text)
    assert err.value.line_no == line
    assert message in str(err.value)


@pytest.mark.parametrize("rows, ok", [
    ([f"{2 ** 53 - 1} 200"], True),
    ([f"{2 ** 53} 200"], False),
    ([f"{2 ** 52} 200", f"{2 ** 52} 200"], False),
    ([f"1 {2 ** 52}", f"1 {2 ** 52}"], False),
])
def test_parse_rejects_totals_float64_cannot_hold(rows, ok):
    text = "\n".join([f"n {len(rows)} delta 25 kind uncorrelated c 100 seed 1",
                      *rows]) + "\n"
    if ok:
        assert parse_instance(text).n == len(rows)
    else:
        with pytest.raises(ValueError, match="2\\*\\*53"):
            parse_instance(text)


def test_serialize_parse_round_trip():
    for kind in (UNCORRELATED, "bsc"):
        inst = generate_instance(kind, 10, 50, c_constant=37, seed=99)
        assert parse_instance(serialize_instance(inst)) == inst


def test_parse_rejects_item_count_mismatch():
    inst = generate_instance(UNCORRELATED, 3, 25, seed=5)
    text = serialize_instance(inst)
    lines = text.splitlines()
    truncated = "\n".join(lines[:-1]) + "\n"
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(truncated)
    assert "3 items" in str(err.value) and "2" in str(err.value)


def test_parse_rejects_empty_file():
    with pytest.raises(InstanceFormatError):
        parse_instance("")


def test_parse_reports_line_numbers():
    inst = generate_instance(UNCORRELATED, 3, 25, seed=5)
    lines = serialize_instance(inst).splitlines()
    for row, message in (("7 banana", "non-integer item fields"),
                         ("7 200 3", "expected 'profit expected_weight'")):
        lines[2] = row
        with pytest.raises(InstanceFormatError, match=message) as err:
            parse_instance("\n".join(lines) + "\n")
        assert err.value.line_no == 3


def test_parse_rejects_bad_header():
    for header, message in (
            ("n 2 delta x kind uncorrelated c 100 seed 1", "non-integer header field"),
            ("totally wrong header", "header must be 'n <int> delta <int> kind"),
            ("n 2 delta 25 kind nope c 100 seed 1", "unknown instance kind 'nope'")):
        with pytest.raises(InstanceFormatError, match=message) as err:
            parse_instance(f"{header}\n1 200\n2 300\n")
        assert err.value.line_no == 1
