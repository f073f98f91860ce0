"""Protocols built on UDM.

Section 3 positions UDM as "a building block for other protocols". The
one protocol the simulator runs is :mod:`repro.protocols.reliable`: a
sequenced, acknowledged transport with retransmission and duplicate
suppression, which keeps the mailbox and fault-injection runs exact
over a lossy fabric. It uses only the public UDM runtime API (inject,
handlers, dispose), so every message it exchanges enjoys two-case
delivery unchanged.
"""
