#!/usr/bin/env python3
"""Regenerate the bundled example circuits, stimuli, manifests and golden traces.

Run from the repository root after an editable install:

    python3 tools/build_bundled_circuits.py

The outputs land in src/cdnfi/data/ and are committed; the golden traces are
frozen there and only change when the circuits or stimuli change. The script
cross-checks the CRC pipeline's trace against an independent bitwise CRC
implementation before writing anything.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from cdnfi.netlist import FlipFlop, Gate, Netlist, serialize_netlist, validate
from cdnfi.simulator import Simulator, Stimulus, serialize_stimulus

DATA = Path(__file__).resolve().parent.parent / "src" / "cdnfi" / "data"

# ---------------------------------------------------------------------------
# crc8_pipeline: TX CRC unit -> loopback channel -> RX CRC unit -> comparator
#
# CRC-8, polynomial x^8 + x^2 + x + 1 (0x07), init 0x00, MSB first, absorbing
# one nibble (d3..d0, d3 = MSB) per enabled cycle. 'clear' tags the first
# nibble of a packet and zeroes the accumulator before absorption.


def _crc8_nibble_exprs():
    """Symbolic next-state of the CRC register after absorbing one nibble.

    Returns, per output bit, the set of symbols ('c0'..'c7', 'b3'..'b0')
    whose XOR forms it. Derived by running the bitwise definition over
    symbolic values, so the emitted gate network matches the reference
    algorithm by construction.
    """
    state = [frozenset({f"c{i}"}) for i in range(8)]
    for bit in ("b3", "b2", "b1", "b0"):
        fb = state[7] ^ frozenset({bit})
        state = [
            fb,
            state[0] ^ fb,
            state[1] ^ fb,
            state[2],
            state[3],
            state[4],
            state[5],
            state[6],
        ]
    return state


def crc8_reference(data: bytes) -> int:
    crc = 0
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
    return crc


def _xor_chain(gates, terms, nets, prefix, result_net):
    """Emit XOR2 gates reducing the given nets; BUF when only one term."""
    if len(terms) == 1:
        gates.append(Gate(f"g_{result_net}", "BUF", (nets[terms[0]],), result_net))
        return
    acc = nets[terms[0]]
    for k, term in enumerate(terms[1:], start=1):
        out = result_net if k == len(terms) - 1 else f"{prefix}_x{k}"
        gates.append(Gate(f"g_{out}", "XOR", (acc, nets[term]), out))
        acc = out


def _crc_unit(gates, ffs, prefix, data_nets, valid_net, clear_net):
    """One CRC-8 accumulator: clear mux, XOR update network, 8 flip-flops."""
    exprs = _crc8_nibble_exprs()
    symbol_net = {f"b{i}": data_nets[i] for i in range(4)}
    for j in range(8):
        gates.append(Gate(
            f"g_{prefix}_crc{j}_m", "MUX2",
            (f"{prefix}_crc{j}_q", "zero", clear_net),
            f"{prefix}_crc{j}_m",
        ))
        symbol_net[f"c{j}"] = f"{prefix}_crc{j}_m"
    sym_order = [f"c{j}" for j in range(8)] + [f"b{i}" for i in range(3, -1, -1)]
    for j in range(8):
        terms = [s for s in sym_order if s in exprs[j]]
        _xor_chain(gates, terms, symbol_net, f"{prefix}_crc{j}", f"{prefix}_crc{j}_d")
        ffs.append(FlipFlop(
            f"{prefix}.crc.{j}", f"{prefix}_crc{j}_d", f"{prefix}_crc{j}_q",
            valid_net, 0,
        ))


def build_crc8_pipeline() -> Netlist:
    gates: list[Gate] = []
    ffs: list[FlipFlop] = []

    # TX side: capture the nibble and the framing flags
    for i in range(4):
        ffs.append(FlipFlop(f"tx.data.{i}", f"d{i}", f"tx_data{i}_q", "valid", 0))
    ffs.append(FlipFlop("tx.valid", "valid", "tx_valid_q", None, 0))
    ffs.append(FlipFlop("tx.clear", "clear", "tx_clear_q", None, 0))

    gates.append(Gate("g_zero", "CONST0", (), "zero"))
    _crc_unit(
        gates, ffs, "tx",
        [f"tx_data{i}_q" for i in range(4)], "tx_valid_q", "tx_clear_q",
    )

    # loopback channel and RX side, one cycle behind TX
    for i in range(4):
        gates.append(Gate(f"g_chan{i}", "BUF", (f"tx_data{i}_q",), f"chan{i}"))
        ffs.append(FlipFlop(f"rx.data.{i}", f"chan{i}", f"rx_data{i}_q", "tx_valid_q", 0))
    ffs.append(FlipFlop("rx.valid", "tx_valid_q", "rx_valid_q", None, 0))
    ffs.append(FlipFlop("rx.clear", "tx_clear_q", "rx_clear_q", None, 0))
    _crc_unit(
        gates, ffs, "rx",
        [f"rx_data{i}_q" for i in range(4)], "rx_valid_q", "rx_clear_q",
    )

    # TX CRC delayed one cycle to line up with the RX accumulator
    for j in range(8):
        ffs.append(FlipFlop(f"cmp.crcd.{j}", f"tx_crc{j}_q", f"cmp_crcd{j}_q", None, 0))

    # equality comparator over the aligned CRC values
    for j in range(8):
        gates.append(Gate(f"g_eq{j}", "XNOR", (f"cmp_crcd{j}_q", f"rx_crc{j}_q"), f"eq{j}"))
    acc = "eq0"
    for j in range(1, 8):
        out = "match" if j == 7 else f"match_a{j}"
        gates.append(Gate(f"g_{out}", "AND", (acc, f"eq{j}"), out))
        acc = out

    for j in range(8):
        gates.append(Gate(f"g_crc_out{j}", "BUF", (f"rx_crc{j}_q",), f"crc_out{j}"))

    return Netlist.build(
        "crc8_pipeline",
        ["d3", "d2", "d1", "d0", "valid", "clear"],
        ["match"] + [f"crc_out{j}" for j in range(7, -1, -1)],
        gates,
        ffs,
    )


def _packet_vectors(packets: dict[int, bytes]) -> dict[int, dict[str, int]]:
    """Input assignments for packets of bytes sent as MSB-first nibbles."""
    idle = {"d3": 0, "d2": 0, "d1": 0, "d0": 0, "valid": 0, "clear": 0}
    vectors: dict[int, dict[str, int]] = {0: dict(idle)}
    for start, data in sorted(packets.items()):
        nibbles = []
        for byte in data:
            nibbles.append(byte >> 4)
            nibbles.append(byte & 0xF)
        for k, nib in enumerate(nibbles):
            vectors[start + k] = {
                "d3": (nib >> 3) & 1,
                "d2": (nib >> 2) & 1,
                "d1": (nib >> 1) & 1,
                "d0": nib & 1,
                "valid": 1,
                "clear": 1 if k == 0 else 0,
            }
        vectors[start + len(nibbles)] = dict(idle)
    return vectors


CRC_PACKETS = {
    10: bytes([0xA5, 0x3C, 0x7E]),
    20: bytes([0x01, 0xFF, 0x10, 0x88]),
    32: bytes([0xDE, 0xAD, 0xBE, 0xEF]),
    44: bytes([0x42, 0x99]),
}


def build_crc8_stimulus() -> Stimulus:
    n_cycles = 72
    sparse = _packet_vectors(CRC_PACKETS)
    expanded = []
    current: dict[str, int] = {}
    for cycle in range(n_cycles):
        if cycle in sparse:
            current = sparse[cycle]
        expanded.append(dict(current))
    monitors = ["match"] + [f"crc_out{j}" for j in range(7, -1, -1)]
    return Stimulus(n_cycles, tuple(expanded), (10, 57), tuple(monitors))


# ---------------------------------------------------------------------------
# lfsr_counter: XNOR-feedback shift register plus an enabled counter, with a
# dead-end probe flip-flop (read by nothing) and a rarely-enabled hold
# register to give campaigns both masked and failing outcomes.


def build_lfsr_counter() -> Netlist:
    gates: list[Gate] = []
    ffs: list[FlipFlop] = []

    gates.append(Gate("g_fb_a", "XNOR", ("lfsr7_q", "lfsr5_q"), "fb_a"))
    gates.append(Gate("g_fb_b", "XNOR", ("lfsr4_q", "lfsr3_q"), "fb_b"))
    gates.append(Gate("g_fb", "XNOR", ("fb_a", "fb_b"), "fb"))
    ffs.append(FlipFlop("lfsr.0", "fb", "lfsr0_q", None, 0))
    for i in range(1, 8):
        ffs.append(FlipFlop(f"lfsr.{i}", f"lfsr{i - 1}_q", f"lfsr{i}_q", None, 0))

    # 4-bit binary counter, advances while en_count is high
    gates.append(Gate("g_cnt0_d", "NOT", ("cnt0_q",), "cnt0_d"))
    gates.append(Gate("g_cnt1_d", "XOR", ("cnt1_q", "cnt0_q"), "cnt1_d"))
    gates.append(Gate("g_car01", "AND", ("cnt0_q", "cnt1_q"), "car01"))
    gates.append(Gate("g_cnt2_d", "XOR", ("cnt2_q", "car01"), "cnt2_d"))
    gates.append(Gate("g_car012", "AND", ("car01", "cnt2_q"), "car012"))
    gates.append(Gate("g_cnt3_d", "XOR", ("cnt3_q", "car012"), "cnt3_d"))
    for i in range(4):
        ffs.append(FlipFlop(f"cnt.{i}", f"cnt{i}_d", f"cnt{i}_q", "en_count", 0))

    gates.append(Gate("g_or_lo", "OR", ("cnt0_q", "cnt1_q"), "or_lo"))
    gates.append(Gate("g_or_hi", "OR", ("cnt2_q", "cnt3_q"), "or_hi"))
    gates.append(Gate("g_cnt_zero", "NOR", ("or_lo", "or_hi"), "cnt_zero"))

    # probe.tap's output drives nothing: upsets here can never propagate
    ffs.append(FlipFlop("probe.tap", "lfsr3_q", "probe_tap_q", None, 1))
    ffs.append(FlipFlop("hold.a", "lfsr6_q", "hold_a_q", "cnt_zero", 1))

    gates.append(Gate("g_lfsr_msb", "BUF", ("lfsr7_q",), "lfsr_msb"))
    gates.append(Gate("g_mix", "NAND", ("hold_a_q", "noise"), "mix"))
    gates.append(Gate("g_par", "XOR", ("lfsr0_q", "cnt3_q"), "par"))

    return Netlist.build(
        "lfsr_counter",
        ["en_count", "noise"],
        ["lfsr_msb", "cnt_zero", "mix", "par"],
        gates,
        ffs,
    )


def build_lfsr_stimulus() -> Stimulus:
    n_cycles = 56
    sparse = {
        0: {"en_count": 1, "noise": 0},
        6: {"en_count": 1, "noise": 1},
        9: {"en_count": 1, "noise": 0},
        12: {"en_count": 0, "noise": 0},
        16: {"en_count": 1, "noise": 0},
        22: {"en_count": 1, "noise": 1},
        30: {"en_count": 0, "noise": 0},
        34: {"en_count": 1, "noise": 1},
        40: {"en_count": 1, "noise": 0},
    }
    expanded = []
    current: dict[str, int] = {}
    for cycle in range(n_cycles):
        if cycle in sparse:
            current = sparse[cycle]
        expanded.append(dict(current))
    return Stimulus(n_cycles, tuple(expanded), (4, 43), ("lfsr_msb", "cnt_zero", "mix", "par"))


# ---------------------------------------------------------------------------


def manifest_for(netlist: Netlist) -> dict:
    return {
        "name": netlist.name,
        "ff_count": len(netlist.flipflops),
        "gate_count": len(netlist.gates),
        "net_count": len(netlist.nets),
        "input_count": len(netlist.inputs),
        "output_count": len(netlist.outputs),
        "ff_inits": {f.name: f.init for f in netlist.flipflops},
    }


def check_crc_pipeline(netlist: Netlist, stimulus: Stimulus, trace) -> None:
    """Golden trace must show the reference CRC after each packet drains."""
    crc_monitors = [f"crc_out{j}" for j in range(7, -1, -1)]
    idx = {m: stimulus.monitors.index(m) for m in crc_monitors}
    match_idx = stimulus.monitors.index("match")
    for row in trace.rows:
        assert row[match_idx] == 1, "loopback comparator must hold in a fault-free run"
    for start, data in CRC_PACKETS.items():
        expected = crc8_reference(data)
        settle = start + 2 * len(data) + 1  # last nibble cycle + 2
        row = trace.rows[settle]
        got = 0
        for j, m in zip(range(7, -1, -1), crc_monitors):
            got |= row[idx[m]] << j
        assert got == expected, (
            f"packet at cycle {start}: trace shows {got:#04x}, reference {expected:#04x}"
        )


def write(name: str, netlist: Netlist, stimulus: Stimulus) -> None:
    violations = validate(netlist)
    assert not violations, f"{name}: {[str(v) for v in violations]}"
    trace = Simulator(netlist).run(stimulus)
    if name == "crc8_pipeline":
        check_crc_pipeline(netlist, stimulus, trace)
    DATA.mkdir(parents=True, exist_ok=True)
    (DATA / f"{name}.json").write_text(serialize_netlist(netlist), encoding="utf-8")
    (DATA / f"{name}.stimulus.json").write_text(serialize_stimulus(stimulus), encoding="utf-8")
    (DATA / f"{name}.golden.csv").write_text(trace.to_csv(), encoding="utf-8")
    (DATA / f"{name}.manifest.json").write_text(
        json.dumps(manifest_for(netlist), indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"{name}: ffs={len(netlist.flipflops)} gates={len(netlist.gates)} "
        f"nets={len(netlist.nets)} cycles={stimulus.n_cycles}"
    )


def main() -> int:
    write("crc8_pipeline", build_crc8_pipeline(), build_crc8_stimulus())
    write("lfsr_counter", build_lfsr_counter(), build_lfsr_stimulus())
    fit = "cell_class,fit\nclock_buffer,59.17\nflipflop,161.75\n"
    (DATA / "fit_library.csv").write_text(fit, encoding="utf-8")
    print("fit_library.csv written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
