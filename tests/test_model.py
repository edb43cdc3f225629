import pytest

from dcckp.model import (
    BOUNDED_STRONGLY_CORRELATED,
    UNCORRELATED,
    Instance,
    InstanceFormatError,
    Item,
    generate_instance,
    parse_instance,
    serialize_instance,
)


def test_generated_ranges_many_seeds():
    # Table-style ranges must hold for every item across many seeds
    for seed in range(1000):
        inst = generate_instance(UNCORRELATED, 8, 25, seed=seed)
        for it in inst.items:
            assert 101 <= it.expected_weight <= 1100
            assert 1 <= it.profit <= 1000


def test_bounded_strongly_correlated_identity():
    inst = generate_instance("bsc", 5, 25, c_constant=100, seed=42)
    assert inst.kind == BOUNDED_STRONGLY_CORRELATED
    for it in inst.items:
        assert it.profit == (it.expected_weight - 100) + 100


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
    assert 101 <= inst.items[0].expected_weight <= 1100
    assert 1 <= inst.items[0].profit <= 1000


@pytest.mark.parametrize("kwargs", [
    dict(kind=UNCORRELATED, n=0, delta=25),
    dict(kind=UNCORRELATED, n=5, delta=0),
    dict(kind=UNCORRELATED, n=5, delta=101),
    dict(kind=UNCORRELATED, n=5, delta=25, c_constant=0),
    dict(kind="nope", n=5, delta=25),
])
def test_generate_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        generate_instance(seed=1, **kwargs)


def test_item_invariants():
    with pytest.raises(ValueError):
        Item(profit=0, expected_weight=200)
    with pytest.raises(ValueError):
        Item(profit=5, expected_weight=100)


def test_instance_rejects_broken_correlation():
    items = (Item(5, 200), Item(7, 300))
    with pytest.raises(ValueError):
        Instance(items=items, delta=25, kind=BOUNDED_STRONGLY_CORRELATED,
                 c_constant=100, seed=0)


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
    lines[2] = "7 banana"
    with pytest.raises(InstanceFormatError) as err:
        parse_instance("\n".join(lines) + "\n")
    assert err.value.line_no == 3


def test_parse_rejects_bad_header():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance("n 2 delta x kind uncorrelated c 100 seed 1\n1 200\n2 300\n")
    assert err.value.line_no == 1
    with pytest.raises(InstanceFormatError):
        parse_instance("totally wrong header\n")
