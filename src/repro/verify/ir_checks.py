"""Invariant verification for the compiled array-native IR.

:mod:`repro.ir.compiled` documents a contract every engine silently relies
on — level-major gate ids, the ``gate_output_slot[gid] == num_pis + gid``
net-slot layout, CSR fanin/fanout symmetry, sentinel-padded dense fanin,
the floating mask.  A lowering bug breaks that contract quietly and
surfaces levels away as a wrong arrival time or a crash inside one engine.

:func:`verify_compiled` asserts *every* documented invariant in one call and
raises :class:`IRVerificationError` naming each violated field, so an IR
regression is caught at the lowering boundary instead of being diagnosed
from scattered engine symptoms.  It runs in O(gates + nets + edges) and is
wired into ``Circuit.compiled(verify=True)``; the test suite enables it for
every lowering via the ``REPRO_VERIFY_IR`` environment variable.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional

import numpy as np

from repro.ir.compiled import CompiledCircuit
from repro.netlist.circuit import Circuit


class IRVerificationError(AssertionError):
    """A :class:`CompiledCircuit` violates its documented lowering contract.

    Subclasses :class:`AssertionError` because a failure here is always an
    internal bug (in the lowering or in code mutating the IR), never a user
    input problem.  ``problems`` carries one line per violated invariant.
    """

    def __init__(self, name: str, problems: List[str]) -> None:
        self.problems = list(problems)
        lines = "\n".join(f"  - {p}" for p in self.problems)
        super().__init__(
            f"compiled IR for {name!r} violates "
            f"{len(self.problems)} invariant(s):\n{lines}"
        )


def ir_problems(
    compiled: CompiledCircuit, circuit: Optional[Circuit] = None
) -> List[str]:
    """Every violated lowering invariant of ``compiled``, as message lines.

    When ``circuit`` is given, the lowering is additionally cross-checked
    against the source netlist (names, pin order, sizes, PI set).
    """
    p: List[str] = []
    ng, nn, npi = compiled.num_gates, compiled.num_nets, compiled.num_pis

    # -- counts and id bijections ---------------------------------------
    if ng != len(compiled.gate_names):
        p.append(f"num_gates={ng} != len(gate_names)={len(compiled.gate_names)}")
    if nn != len(compiled.net_names):
        p.append(f"num_nets={nn} != len(net_names)={len(compiled.net_names)}")
    if not 0 <= npi <= nn:
        p.append(f"num_pis={npi} outside [0, num_nets={nn}]")
    if len(set(compiled.gate_names)) != len(compiled.gate_names):
        p.append("gate_names contains duplicates")
    if len(set(compiled.net_names)) != len(compiled.net_names):
        p.append("net_names contains duplicates")
    if compiled.gate_index != {n: i for i, n in enumerate(compiled.gate_names)}:
        p.append("gate_index is not the inverse of gate_names")
    if compiled.net_index != {n: i for i, n in enumerate(compiled.net_names)}:
        p.append("net_index is not the inverse of net_names")

    # -- level contiguity ------------------------------------------------
    offsets = np.asarray(compiled.level_offsets)
    if len(offsets) != len(compiled.level_values) + 1:
        p.append(
            f"level_offsets has {len(offsets)} entries for "
            f"{len(compiled.level_values)} level values"
        )
    else:
        if len(offsets) and (offsets[0] != 0 or offsets[-1] != ng):
            p.append(
                f"level_offsets must span [0, num_gates]; got "
                f"[{offsets[0]}, {offsets[-1]}] for num_gates={ng}"
            )
        if np.any(np.diff(offsets) <= 0):
            p.append("level_offsets is not strictly increasing (empty level?)")
        if list(compiled.level_values) != sorted(set(compiled.level_values)):
            p.append("level_values is not strictly increasing")
        if len(compiled.gate_level) == ng:
            for li, level in enumerate(compiled.level_values):
                lo, hi = int(offsets[li]), int(offsets[li + 1])
                seg = compiled.gate_level[lo:hi]
                if np.any(seg != level):
                    p.append(
                        f"gate_level not contiguous: ids [{lo}, {hi}) should "
                        f"all be level {level}"
                    )
        else:
            p.append(f"gate_level has {len(compiled.gate_level)} entries")

    # -- net-slot layout -------------------------------------------------
    if len(compiled.gate_output_slot) != ng:
        p.append(f"gate_output_slot has {len(compiled.gate_output_slot)} entries")
    else:
        expected = np.arange(npi, npi + ng, dtype=np.intp)
        if np.any(compiled.gate_output_slot != expected):
            bad = int(np.argmax(compiled.gate_output_slot != expected))
            p.append(
                f"gate_output_slot[{bad}]={compiled.gate_output_slot[bad]} "
                f"breaks the num_pis+gid slot layout (expected {expected[bad]})"
            )
    floating_start = npi + ng
    if floating_start > nn:
        p.append(f"num_pis+num_gates={floating_start} exceeds num_nets={nn}")

    # -- floating mask -----------------------------------------------------
    mask, expect = compiled.floating_mask, np.arange(nn) >= floating_start
    if len(mask) != nn:
        p.append(f"floating_mask has {len(mask)} entries for {nn} nets")
    elif np.any(mask != expect):
        bad = int(np.argmax(mask != expect))
        p.append(f"floating_mask[{bad}] wrong for the documented slot layout")
    if compiled.floating != frozenset(compiled.net_names[floating_start:]):
        p.append("floating set does not match the floating net-name tail")

    # -- fanin CSR --------------------------------------------------------
    fi_ptr = np.asarray(compiled.fanin_indptr)
    if len(fi_ptr) != ng + 1 or (len(fi_ptr) and fi_ptr[0] != 0):
        p.append("fanin_indptr must have num_gates+1 entries starting at 0")
    elif np.any(np.diff(fi_ptr) < 0):
        p.append("fanin_indptr is not monotone")
    elif len(fi_ptr) and fi_ptr[-1] != len(compiled.fanin_slots):
        p.append(
            f"fanin_indptr[-1]={fi_ptr[-1]} != "
            f"len(fanin_slots)={len(compiled.fanin_slots)}"
        )
    if len(compiled.fanin_slots) and (
        compiled.fanin_slots.min() < 0 or compiled.fanin_slots.max() >= nn
    ):
        p.append(f"fanin_slots contains slots outside [0, {nn})")
    if len(compiled.fanin_counts) != ng or (
        len(fi_ptr) == ng + 1 and np.any(compiled.fanin_counts != np.diff(fi_ptr))
    ):
        p.append("fanin_counts disagrees with diff(fanin_indptr)")

    # -- dense fanin matrix ----------------------------------------------
    max_fanin = int(compiled.fanin_counts.max()) if ng else 0
    if compiled.fanin_matrix.shape != (ng, max_fanin):
        p.append(
            f"fanin_matrix shape {compiled.fanin_matrix.shape} != "
            f"({ng}, {max_fanin})"
        )
    elif (
        len(fi_ptr) == ng + 1
        and fi_ptr[-1] == len(compiled.fanin_slots)
        and len(compiled.fanin_counts) == ng
        and np.array_equal(compiled.fanin_counts, np.diff(fi_ptr))
    ):
        for gid in range(ng):
            lo, hi = int(fi_ptr[gid]), int(fi_ptr[gid + 1])
            row = compiled.fanin_matrix[gid]
            if np.any(row[: hi - lo] != compiled.fanin_slots[lo:hi]):
                p.append(f"fanin_matrix[{gid}] disagrees with the fanin CSR")
                break
            if np.any(row[hi - lo:] != nn):
                p.append(
                    f"fanin_matrix[{gid}] padding is not the sentinel "
                    f"slot {nn}"
                )
                break

    # -- fanout CSR and fanin/fanout symmetry ----------------------------
    fo_ptr = np.asarray(compiled.fanout_indptr)
    if len(fo_ptr) != nn + 1 or (len(fo_ptr) and fo_ptr[0] != 0):
        p.append("fanout_indptr must have num_nets+1 entries starting at 0")
    elif np.any(np.diff(fo_ptr) < 0):
        p.append("fanout_indptr is not monotone")
    elif len(fo_ptr) and fo_ptr[-1] != len(compiled.fanout_gates):
        p.append(
            f"fanout_indptr[-1]={fo_ptr[-1]} != "
            f"len(fanout_gates)={len(compiled.fanout_gates)}"
        )
    if len(compiled.fanout_gates) and (
        compiled.fanout_gates.min() < 0 or compiled.fanout_gates.max() >= ng
    ):
        p.append(f"fanout_gates contains gate ids outside [0, {ng})")
    csr_ok = (
        len(fi_ptr) == ng + 1
        and fi_ptr[-1] == len(compiled.fanin_slots)
        and len(fo_ptr) == nn + 1
        and fo_ptr[-1] == len(compiled.fanout_gates)
    )
    if csr_ok:
        fanin_edges = Counter()
        for gid in range(ng):
            for slot in compiled.fanin_slots[fi_ptr[gid]: fi_ptr[gid + 1]]:
                fanin_edges[(int(gid), int(slot))] += 1
        fanout_edges = Counter()
        for slot in range(nn):
            for gid in compiled.fanout_gates[fo_ptr[slot]: fo_ptr[slot + 1]]:
                fanout_edges[(int(gid), int(slot))] += 1
        if fanin_edges != fanout_edges:
            delta = (fanin_edges - fanout_edges) + (fanout_edges - fanin_edges)
            gid, slot = next(iter(delta))
            p.append(
                f"fanin/fanout CSRs are asymmetric (e.g. gate {gid} / "
                f"net slot {slot})"
            )

    # -- topological soundness of the id order ---------------------------
    if csr_ok and len(compiled.gate_level) == ng:
        for gid in range(ng):
            for slot in compiled.fanin_slots[fi_ptr[gid]: fi_ptr[gid + 1]]:
                if npi <= slot < floating_start:
                    driver = int(slot) - npi
                    if compiled.gate_level[driver] >= compiled.gate_level[gid]:
                        p.append(
                            f"gate {gid} (level {compiled.gate_level[gid]}) "
                            f"reads gate {driver} (level "
                            f"{compiled.gate_level[driver]}): id order is "
                            f"not topological"
                        )
                        break
            else:
                continue
            break

    # -- per-gate arrays --------------------------------------------------
    if len(compiled.cell_type_ids) != ng:
        p.append(f"cell_type_ids has {len(compiled.cell_type_ids)} entries")
    elif ng and (
        compiled.cell_type_ids.min() < 0
        or compiled.cell_type_ids.max() >= len(compiled.cell_types)
    ):
        p.append(
            f"cell_type_ids points outside the {len(compiled.cell_types)}-entry "
            f"cell_types vocabulary"
        )
    if len(compiled.size_index) != ng:
        p.append(f"size_index has {len(compiled.size_index)} entries")
    elif ng and compiled.size_index.min() < 0:
        p.append("size_index contains negative entries")
    if len(compiled.output_mask) != nn:
        p.append(f"output_mask has {len(compiled.output_mask)} entries for {nn} nets")

    # -- optional cross-check against the source netlist ------------------
    if circuit is not None:
        p.extend(_netlist_problems(compiled, circuit))
    return p


def _netlist_problems(compiled: CompiledCircuit, circuit: Circuit) -> List[str]:
    p: List[str] = []
    if compiled.name != circuit.name:
        p.append(f"compiled name {compiled.name!r} != circuit {circuit.name!r}")
    if set(compiled.gate_names) != set(circuit.gates):
        p.append("gate_names does not match the circuit's gate set")
        return p
    npi = compiled.num_pis
    if list(compiled.net_names[:npi]) != list(circuit.primary_inputs):
        p.append("net slots [0, num_pis) are not the primary inputs in order")
    outputs = {
        compiled.net_names[slot] for slot in np.flatnonzero(compiled.output_mask)
    }
    if outputs != set(circuit.primary_outputs) & set(compiled.net_index):
        p.append("output_mask does not mark the primary outputs")
    for gid, name in enumerate(compiled.gate_names):
        gate = circuit.gate(name)
        slot = int(compiled.gate_output_slot[gid])
        if slot >= compiled.num_nets or compiled.net_names[slot] != gate.output:
            p.append(f"gate {name!r} output slot does not hold {gate.output!r}")
            break
        slots = [int(s) for s in compiled.gate_fanin_slots(gid)]
        if any(not 0 <= s < compiled.num_nets for s in slots):
            p.append(f"gate {name!r} fanin slots point outside the net table")
            break
        pins = [compiled.net_names[s] for s in slots]
        if pins != list(gate.inputs):
            p.append(f"gate {name!r} fanin slots break pin order")
            break
        if int(compiled.size_index[gid]) != gate.size_index:
            p.append(
                f"gate {name!r} size_index {int(compiled.size_index[gid])} "
                f"stale (circuit has {gate.size_index})"
            )
            break
        cid = int(compiled.cell_type_ids[gid])
        if not 0 <= cid < len(compiled.cell_types) or (
            compiled.cell_types[cid] != gate.cell_type
        ):
            p.append(f"gate {name!r} cell type mismatch")
            break
    return p


def verify_compiled(
    compiled: CompiledCircuit, circuit: Optional[Circuit] = None
) -> CompiledCircuit:
    """Assert every documented lowering invariant of ``compiled``.

    Returns ``compiled`` unchanged on success so calls can be chained;
    raises :class:`IRVerificationError` listing every violation otherwise.
    Pass the source ``circuit`` to additionally cross-check the lowering
    against the netlist (names, pin order, sizes).
    """
    problems = ir_problems(compiled, circuit)
    if problems:
        raise IRVerificationError(compiled.name, problems)
    return compiled
