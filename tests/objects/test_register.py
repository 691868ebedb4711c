"""Tests for atomic registers."""

from __future__ import annotations

import pytest

from repro.errors import InvalidArgumentError
from repro.objects.register import BOTTOM, AtomicRegister, register_array


class TestAtomicRegister:
    def test_initial_is_bottom(self):
        register = AtomicRegister()
        assert register.invoke(0, register.read().operation) is BOTTOM

    def test_write_then_read(self):
        register = AtomicRegister()
        assert register.invoke(0, register.write(7).operation) is True
        assert register.invoke(1, register.read().operation) == 7

    def test_overwrite(self):
        register = AtomicRegister()
        register.invoke(0, register.write("a").operation)
        register.invoke(1, register.write("b").operation)
        assert register.invoke(0, register.read().operation) == "b"

    def test_custom_initial(self):
        register = AtomicRegister(initial=0)
        assert register.invoke(0, register.read().operation) == 0

    def test_named(self):
        register = AtomicRegister(name="R[3]")
        assert register.name == "R[3]"

    def test_write_arity_checked(self):
        register = AtomicRegister()
        from repro.spec.operation import Operation

        with pytest.raises(InvalidArgumentError):
            register.invoke(0, Operation("write", ()))

    def test_read_arity_checked(self):
        register = AtomicRegister()
        from repro.spec.operation import Operation

        with pytest.raises(InvalidArgumentError):
            register.invoke(0, Operation("read", (1,)))


class TestRegisterArrays:
    def test_array_sizes_and_names(self):
        array = register_array(3, prefix="R")
        assert len(array) == 3
        assert array[0].name == "R[0]"
        assert array[2].name == "R[2]"

    def test_array_registers_independent(self):
        array = register_array(2)
        array[0].invoke(0, array[0].write(1).operation)
        assert array[1].invoke(0, array[1].read().operation) is BOTTOM

    def test_empty_array(self):
        assert register_array(0) == []

    def test_negative_size_rejected(self):
        with pytest.raises(InvalidArgumentError):
            register_array(-1)
