"""The atomically() helper and timeout-policy plumbing."""

import pytest

from repro.core.atomicity import (
    INTERRUPT_DISABLE, TIMER_FORCE, TimeoutPolicy, atomically,
)

from tests.conftest import ScriptedApplication, run_app


class TestAtomically:
    def test_brackets_begin_and_end(self):
        states = []

        def body(rt):
            def inner():
                states.append(("inside", rt.in_atomic_section))
                yield 10
                return "value"
            return inner

        def script(app, rt, idx):
            states.append(("before", rt.in_atomic_section))
            result = yield from atomically(rt, body(rt))
            states.append(("after", rt.in_atomic_section))
            states.append(("result", result))

        run_app(ScriptedApplication(script), num_nodes=1,
                limit=1_000_000)
        assert ("before", False) in states
        assert ("inside", True) in states
        assert ("after", False) in states
        assert ("result", "value") in states

    def test_exits_section_when_body_raises(self):
        observed = []

        def script(app, rt, idx):
            def failing():
                yield 1
                raise RuntimeError("body blew up")

            try:
                yield from atomically(rt, failing)
            except RuntimeError:
                observed.append(rt.in_atomic_section)

        run_app(ScriptedApplication(script), num_nodes=1,
                limit=1_000_000)
        assert observed == [False]

    def test_custom_mask(self):
        seen = []

        def script(app, rt, idx):
            def body():
                seen.append(rt.ni.uac.timer_force)
                yield 1

            yield from atomically(rt, body, mask=TIMER_FORCE)
            seen.append(rt.ni.uac.timer_force)

        run_app(ScriptedApplication(script), num_nodes=1,
                limit=1_000_000)
        assert seen == [True, False]


class TestTimeoutPolicyEnum:
    def test_both_policies_exist(self):
        assert TimeoutPolicy.REVOKE.value == "revoke"
        assert TimeoutPolicy.WATCHDOG.value == "watchdog"

    def test_masks_are_disjoint_bits(self):
        assert INTERRUPT_DISABLE & TIMER_FORCE == 0
