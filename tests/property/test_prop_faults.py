"""Property tests for fault injection, recovery and the checker.

The headline property is the ISSUE's acceptance criterion in
miniature: *any* random fault plan, run through the reliable all-pairs
workload with retries on, must finish with zero invariant violations —
the ack/retry layer repairs whatever the injector schedules, and the
checker proves it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.protocols.reliable import ReliableTransport
from repro.runner import bind_spec

from tests.conftest import (
    ScriptedApplication, collect_deliveries, run_faulted,
)

#: Random-but-survivable fault plans: probabilities stay moderate so
#: the retry budget always suffices and runs stay short.
plan_strategy = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=10_000),
    drop=st.floats(min_value=0.0, max_value=0.3),
    duplicate=st.floats(min_value=0.0, max_value=0.3),
    reorder=st.integers(min_value=0, max_value=400),
    spike=st.floats(min_value=0.0, max_value=0.2),
    spike_cycles=st.integers(min_value=100, max_value=3_000),
    stall=st.floats(min_value=0.0, max_value=0.2),
    stall_cycles=st.integers(min_value=50, max_value=800),
    expiries=st.integers(min_value=0, max_value=3),
    expiry_horizon=st.integers(min_value=1_000, max_value=30_000),
    page_fault_rate=st.floats(min_value=0.0, max_value=0.1),
)

#: Messy-but-valid ``pairs=`` spellings: whitespace, empty chunks and
#: duplicate entries, all of which __post_init__ must canonicalize.
_pair = st.tuples(st.integers(min_value=0, max_value=7),
                  st.integers(min_value=0, max_value=7))
pairs_strategy = st.one_of(
    st.just(""),
    st.just(" ; "),   # degenerate: only empty chunks
    st.tuples(
        st.lists(_pair, max_size=4),
        st.sampled_from(["", " "]),        # optional padding
        st.booleans(),                     # trailing separator
    ).map(lambda t: ";".join(
        f"{t[1]}{a}-{b}{t[1]}" for a, b in t[0] + t[0]   # duplicates
    ) + (";" if t[2] and t[0] else "")),
)

#: The *full* field product — every FaultPlan field, including the
#: ``pairs`` restriction and ``spare_kernel``, which the original
#: roundtrip property left uncovered.
full_plan_strategy = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=10_000),
    drop=st.floats(min_value=0.0, max_value=1.0),
    duplicate=st.floats(min_value=0.0, max_value=1.0),
    reorder=st.integers(min_value=0, max_value=5_000),
    spike=st.floats(min_value=0.0, max_value=1.0),
    spike_cycles=st.integers(min_value=0, max_value=50_000),
    stall=st.floats(min_value=0.0, max_value=1.0),
    stall_cycles=st.integers(min_value=0, max_value=50_000),
    expiries=st.integers(min_value=0, max_value=20),
    expiry_horizon=st.integers(min_value=0, max_value=5_000_000),
    page_fault_rate=st.floats(min_value=0.0, max_value=1.0),
    mailbox_crashes=st.integers(min_value=0, max_value=5),
    mailbox_crash_horizon=st.integers(min_value=0, max_value=5_000_000),
    pairs=pairs_strategy,
    spare_kernel=st.booleans(),
)


@given(plan=plan_strategy,
       seed=st.integers(min_value=1, max_value=50),
       num_nodes=st.integers(min_value=2, max_value=4))
@settings(max_examples=20, deadline=None)
def test_random_fault_plans_yield_zero_violations(plan, seed, num_nodes):
    """Retries on: every random plan ends clean (exactly-once holds)."""
    metrics, transport, violations, _machine = run_faulted(
        num_nodes=num_nodes, messages=4, seed=seed,
        faults=plan.describe(), retries=True,
    )
    assert violations == [], [str(v) for v in violations]
    assert metrics.invariant_violations == 0
    # Every node got exactly its expected arrivals, no extras.
    total = sum(len(transport.inbox[n]) for n in range(num_nodes))
    assert total == num_nodes * 4
    assert not transport.gave_up


@given(plan=full_plan_strategy)
@settings(max_examples=200, deadline=None)
def test_plan_describe_parse_roundtrip(plan):
    """describe() is a lossless canonical form (cache-key safety).

    Covers the *full* field product — including ``pairs`` restrictions
    (messy spellings canonicalized by ``__post_init__``), zero-rate
    entries and ``spare_kernel`` — not just the fabric-fault subset.
    """
    text = plan.describe()
    parsed = FaultPlan.parse(text)
    if text == "":
        assert parsed is None          # all-defaults plan: no faults
        assert plan == FaultPlan()
    else:
        assert parsed == plan
        # Canonical: re-describing the parse reproduces the string.
        assert parsed.describe() == text


def test_messy_pairs_spellings_canonicalize_and_roundtrip():
    """Regression: whitespace/duplicate/empty-chunk ``pairs`` used to
    describe to a string that parsed back to a *different* plan."""
    assert FaultPlan(pairs=" 0-1 ; ").pairs == "0-1"
    assert FaultPlan(pairs="2-0;0-1;2-0").pairs == "0-1;2-0"
    assert FaultPlan(pairs=" ; ").pairs == ""   # empty restriction
    for messy in (" 0-1 ;", "0-1;0-1", " ; ", "3-2 ; 0-1"):
        plan = FaultPlan(drop=0.5, pairs=messy)
        assert FaultPlan.parse(plan.describe()) == plan
    # The canonical form is order- and spelling-insensitive.
    assert FaultPlan(pairs="2-0; 0-1") == FaultPlan(pairs="0-1;2-0")


@given(plan=full_plan_strategy)
@settings(max_examples=50, deadline=None)
def test_faulted_and_fault_free_specs_never_collide(plan):
    """A plan in the spec always moves the cache key."""
    from repro.runner.spec import spec_key

    base = bind_spec("faulted", num_nodes=4, messages=8, seed=7,
                     faults="")
    faulty = bind_spec("faulted", num_nodes=4, messages=8, seed=7,
                       faults=plan.describe())
    if plan.describe() == "":
        assert spec_key(faulty) == spec_key(base)
    else:
        assert spec_key(faulty) != spec_key(base)


def test_fault_free_experiment_specs_keep_historical_keys():
    """faults="" adds no param: pre-existing cache entries stay valid."""
    from repro.runner.spec import spec_key

    def multiprog(faults):
        return bind_spec("multiprog", name="barrier", skew=0.05,
                         faults=faults)

    def standalone(faults):
        return bind_spec("standalone", name="barrier", faults=faults)

    for spec in (multiprog(""), standalone("")):
        assert "faults" not in spec.as_dict()
    for spec in (multiprog("drop=0.01"), standalone("drop=0.01")):
        assert spec.as_dict()["faults"] == "drop=0.01"
    assert spec_key(multiprog("")) != spec_key(multiprog("drop=0.01"))


#: (destination, pre-send delay) per message, per node.
NODES = 3
lossy_plan_strategy = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=NODES - 1),
            st.integers(min_value=0, max_value=300),
        ),
        max_size=5,
    ),
    min_size=NODES, max_size=NODES,
)


@given(plan=lossy_plan_strategy,
       fault_seed=st.integers(min_value=0, max_value=1_000))
@settings(max_examples=25, deadline=None)
def test_transport_exactly_once_fifo_per_pair_over_lossy_fabric(
        plan, fault_seed):
    """Random interleavings over drop+duplicate faults: the transport
    delivers everything exactly once, FIFO per (source, destination)
    pair."""
    from repro.experiments.config import SimulationConfig
    from repro.machine.machine import Machine

    config = SimulationConfig(num_nodes=NODES, seed=1).with_faults(
        f"seed={fault_seed},drop=0.15,duplicate=0.15")
    machine = Machine(config)
    transport = ReliableTransport(NODES)
    expected = {n: [] for n in range(NODES)}
    for src, sends in enumerate(plan):
        for seq, (dst, _delay) in enumerate(sends):
            expected[dst].append((src, seq))
    received, complete = collect_deliveries(
        transport, {n: len(sends) for n, sends in expected.items()})

    def script(app, rt, idx):
        for seq, (dst, delay) in enumerate(plan[idx]):
            if delay:
                yield delay
            yield from transport.send(rt, dst, (seq,))
        if len(received[idx]) < len(expected[idx]):
            yield complete[idx]

    app = ScriptedApplication(script)
    job = machine.add_job(app)
    checker = machine.enable_invariant_checker()
    machine.start()
    machine.run_until_job_done(job, limit=2_000_000_000)

    for node, msgs in received.items():
        # Exactly once: the same multiset as was sent to this node.
        assert sorted((src, seq) for src, (seq,) in msgs) == \
            sorted(expected[node])
        # FIFO per pair: each source's messages arrive in send order.
        for src in range(NODES):
            seqs = [seq for s, (seq,) in msgs if s == src]
            assert seqs == sorted(seqs)
    violations = checker.check(transports=[transport])
    assert violations == [], [str(v) for v in violations]
