"""Tests for thread operations."""

import pytest

from repro.sim.ops import (
    Fence, Free, Join, Load, LoopAccess, Malloc, Op, Spawn, Store, Work,
)


def test_load_store_defaults():
    load = Load(0x100)
    assert load.addr == 0x100 and load.size == 4
    store = Store(0x200, 8)
    assert store.addr == 0x200 and store.size == 8


def test_all_ops_are_ops():
    for op in (Load(0), Store(0), Work(1), LoopAccess(0, 4, 1), Spawn(str),
               Join(1), Malloc(8), Free(0), Fence()):
        assert isinstance(op, Op)


class TestLoopAccess:
    def test_total_accesses_read_write(self):
        op = LoopAccess(0, 4, 10, read=True, write=True)
        assert op.total_accesses == 20

    def test_total_accesses_read_only(self):
        op = LoopAccess(0, 4, 10, write=False)
        assert op.total_accesses == 10

    def test_total_accesses_with_repeat(self):
        op = LoopAccess(0, 4, 5, read=True, write=False, repeat=3)
        assert op.total_accesses == 15

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            LoopAccess(0, 4, -1)

    def test_negative_repeat_rejected(self):
        with pytest.raises(ValueError):
            LoopAccess(0, 4, 1, repeat=-2)

    def test_zero_count_is_legal_noop(self):
        assert LoopAccess(0, 4, 0).total_accesses == 0

    @pytest.mark.parametrize("work", [1.5, 2.0, -1, True, None])
    def test_work_must_be_non_negative_int(self, work):
        with pytest.raises(ValueError, match="work"):
            LoopAccess(0, 4, 2, work=work)


class TestWork:
    @pytest.mark.parametrize("cycles", [-5, 2.5, 3.0, True, "7"])
    def test_cycles_must_be_non_negative_int(self, cycles):
        with pytest.raises(ValueError, match="cycles"):
            Work(cycles)

    def test_zero_cycles_accepted(self):
        assert Work(0).cycles == 0


def test_malloc_callsite_optional():
    assert Malloc(16).callsite is None
    assert Malloc(16, "file.py:3").callsite == "file.py:3"


def test_spawn_holds_fn_and_args():
    def fn(api):
        yield
    op = Spawn(fn, (1, 2), name="worker")
    assert op.fn is fn and op.args == (1, 2) and op.name == "worker"
