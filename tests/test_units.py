"""Unit formatting and constants."""

import pytest

from repro.units import GB, GiB, KiB, MB, MiB, TB, fmt_bytes


def test_binary_and_decimal_prefixes_differ():
    assert MiB == 1024 * KiB
    assert MB == 1000**2
    assert GiB > GB
    assert TB == 1000**4


def test_fmt_bytes_picks_suffix():
    assert fmt_bytes(512) == "512B"
    assert fmt_bytes(4 * MiB) == "4.00MiB"
    assert fmt_bytes(3 * GiB) == "3.00GiB"


def test_fmt_bytes_terabytes_cap():
    assert fmt_bytes(5 * 1024 * GiB) == "5.00TiB"
    assert fmt_bytes(5000 * 1024 * GiB).endswith("TiB")


@pytest.mark.parametrize("value", [0, 1, 1023, 1024, 1024**2 - 1])
def test_fmt_bytes_monotone_readable(value):
    assert isinstance(fmt_bytes(value), str)
