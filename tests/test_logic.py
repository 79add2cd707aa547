"""Unit tests for the 4-valued logic."""

import pytest

from repro.logic import Logic


class TestLogic:
    def test_from_char_roundtrip(self):
        for ch, value in [("0", Logic.ZERO), ("1", Logic.ONE), ("x", Logic.X), ("Z", Logic.Z)]:
            assert Logic.from_char(ch) is value

    def test_from_char_rejects_garbage(self):
        with pytest.raises(ValueError):
            Logic.from_char("2")

    def test_from_int(self):
        assert Logic.from_int(0) is Logic.ZERO
        assert Logic.from_int(1) is Logic.ONE
        with pytest.raises(ValueError):
            Logic.from_int(2)

    def test_invert(self):
        assert Logic.ZERO.invert() is Logic.ONE
        assert Logic.ONE.invert() is Logic.ZERO
        assert Logic.X.invert() is Logic.X
        assert Logic.Z.invert() is Logic.X

    def test_is_known(self):
        assert Logic.ZERO.is_known and Logic.ONE.is_known
        assert not Logic.X.is_known and not Logic.Z.is_known

    def test_to_int(self):
        assert Logic.ONE.to_int() == 1
        assert Logic.ZERO.to_int() == 0
        with pytest.raises(ValueError):
            Logic.X.to_int()

    def test_and_truth_table(self):
        assert (Logic.ONE & Logic.ONE) is Logic.ONE
        assert (Logic.ZERO & Logic.X) is Logic.ZERO
        assert (Logic.X & Logic.ONE) is Logic.X
        assert (Logic.Z & Logic.ZERO) is Logic.ZERO

    def test_or_truth_table(self):
        assert (Logic.ZERO | Logic.ZERO) is Logic.ZERO
        assert (Logic.ONE | Logic.X) is Logic.ONE
        assert (Logic.X | Logic.ZERO) is Logic.X

    def test_xor_truth_table(self):
        assert (Logic.ONE ^ Logic.ZERO) is Logic.ONE
        assert (Logic.ONE ^ Logic.ONE) is Logic.ZERO
        assert (Logic.X ^ Logic.ONE) is Logic.X

    def test_str(self):
        assert str(Logic.ZERO) == "0"
        assert str(Logic.X) == "X"

