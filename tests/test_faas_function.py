"""Tests for function instances."""

from repro.faas.function import FunctionInstance, FunctionState
from repro.utils.units import MIB


def make_instance(memory_mib: int = 1536, created_at: float = 0.0) -> FunctionInstance:
    return FunctionInstance(
        function_name="node-1",
        instance_id="node-1@0",
        memory_bytes=memory_mib * MIB,
        created_at=created_at,
    )


class TestFunctionInstance:
    def test_initial_state(self):
        instance = make_instance()
        assert instance.state is FunctionState.IDLE
        assert instance.is_alive
        assert instance.invocation_count == 0

    def test_derived_resources(self):
        instance = make_instance(1792)
        assert instance.bandwidth_bps > 0

    def test_mark_invoked_updates_idle_tracking(self):
        instance = make_instance(created_at=0.0)
        assert instance.idle_seconds(100.0) == 100.0
        instance.mark_invoked(50.0)
        assert instance.invocation_count == 1
        assert instance.idle_seconds(100.0) == 50.0

    def test_idle_seconds_never_negative(self):
        instance = make_instance()
        instance.mark_invoked(10.0)
        assert instance.idle_seconds(5.0) == 0.0

    def test_reclaim_destroys_state(self):
        instance = make_instance()
        instance.runtime_state["chunks"] = {"a": 1}
        instance.reclaim(42.0)
        assert instance.state is FunctionState.RECLAIMED
        assert not instance.is_alive
        assert instance.reclaimed_at == 42.0
        assert instance.runtime_state == {}

    def test_repr(self):
        assert "node-1@0" in repr(make_instance())
