"""Pinned cache keys: a planned run's ``spec_key`` never drifts.

Every golden artifact is replayed from the result cache under these
keys, so a change to how a run kind's parameters reach its spec (a
default, a name, which parameters join the key) must not move them.
The specs are taken from the CLI's own plans, with no simulation.
"""

import pytest

import repro.cli as cli
from repro.runner import EXECUTORS
from repro.runner.spec import spec_key
from repro.validate.artifacts import ARTIFACTS


class _Planned(Exception):
    """Stops a command once it has built its plan."""


def _plan(argv, monkeypatch):
    planned = []

    def capture(args, specs):
        planned.extend(specs)
        raise _Planned

    monkeypatch.setattr(cli, "_run_specs", capture)
    with pytest.raises(_Planned):
        cli.main(argv)
    return planned


_FAULTY_MAILBOX = ["mailbox", "--delivery", "damq", "--faults", "drop=0.01",
                   "--shards", "2"]

#: (command line, index into its plan, kind, pinned key).
PINNED = [
    (["table4"], 0, "fast_path", "cb6f14e4d47faef525cd9c72aebc1b6f"),
    (["table5"], 0, "buffered_path", "17e741c51805e3fec8bf5a2d97bdf9a0"),
    (["table6"], 0, "standalone", "fb245a8e4c5e102319c00cd2447b877f"),
    (["table6", "--faults", "stall=0.01"], 0, "standalone",
     "e3ff3992ee90eeaf3e49674b92dbacad"),
    (["fig7"], 0, "multiprog", "4be242af3f27ca7956e0bdabb8d56f27"),
    (["fig7", "--faults", "stall=0.01"], 0, "multiprog",
     "175aef23749f7602eeb1e6cb4ca23513"),
    (["fig9"], 0, "synth", "438faa6274add62e4ed41b212bc9df8a"),
    (["fig9", "--shards", "2"], 0, "synth",
     "5761b8411e422fb02ec2c25415a3768e"),
    (["fig10"], 0, "synth", "48e9f38097c80e6fdcb599ef7bb1b2bb"),
    (["ablations"], 0, "ablate_two_case",
     "9e2a3824c9d2a67b36d007cdb2c62b38"),
    (["ablations"], 2, "ablate_timeout",
     "ef1ae74117317129df9205ce41d28ed3"),
    (["ablations"], 5, "ablate_queue_depth",
     "e5ea46f67a80d1cad3b30e7b3149a032"),
    (["ablations"], 8, "ablate_architecture",
     "a35e1c3e688d170c369e42becd0d020d"),
    (["ablations"], 11, "ablate_bulk", "a92137c32a2b1c6887ed9c2c98a12889"),
    (["delivery"], 0, "ablate_delivery", "dad07c904463686433cc5833d630e381"),
    (["mailbox"], 0, "mailbox", "46bbd15f6a5d14ac985c7c77b3e11ccb"),
    (_FAULTY_MAILBOX, 0, "mailbox", "2539e07dd3762fdd2e54a618bf66dfb9"),
    (_FAULTY_MAILBOX, 1, "mailbox", "ee5cded40041050f35545df591e70001"),
    (["faultdemo"], 0, "faulted", "89aa86507b40cd8acdd51b2900f22d79"),
    (["faultdemo", "--delivery", "damq", "--no-retries"], 0, "faulted",
     "67d714424e08677a53967abc4f506757"),
]


@pytest.mark.parametrize("argv, index, kind, key", PINNED)
def test_planned_key_is_pinned(argv, index, kind, key, monkeypatch):
    spec = _plan(argv, monkeypatch)[index]
    assert spec.kind == kind
    assert spec_key(spec) == key, spec.describe()


def test_every_registered_kind_is_pinned():
    assert {kind for _argv, _index, kind, _key in PINNED} == set(EXECUTORS)


@pytest.mark.parametrize("artifact_id", ["table6", "fig7", "fig8"])
@pytest.mark.parametrize("plan", ["drop=0.01,seed=3", "duplicate=0.1",
                                  "reorder=50"])
def test_raw_udm_plans_reject_lossy_faults(artifact_id, plan):
    """A raw-UDM app waits forever for a lost message (``lu`` ran to its
    20G-cycle limit under ``drop=0.01``): the plan raises instead."""
    with pytest.raises(ValueError, match="lossless classes"):
        ARTIFACTS[artifact_id].runs(faults=plan)
