import pytest

from cdnfi.bundled import (
    CIRCUITS,
    data_path,
    fit_library_path,
    load_circuit,
    load_circuit_golden,
    load_circuit_stimulus,
    load_manifest,
)
from cdnfi.campaign import Classification, run_group
from cdnfi.faults import FaultKind, FaultSpec
from cdnfi.netlist import validate
from cdnfi.report import load_fit_library
from cdnfi.simulator import Simulator
from fractions import Fraction

from oracles import fault_free_checkpoints


def crc8_table():
    """Table-driven CRC-8 (polynomial x^8 + x^2 + x + 1, init 0, MSB first)."""
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07 if crc & 0x80 else crc << 1) & 0xFF
        table.append(crc)
    return table


def crc8(data, table=crc8_table()):
    crc = 0
    for byte in data:
        crc = table[crc ^ byte]
    return crc


def packets_in(stimulus):
    """Recover the byte packets from the raw input vectors."""
    packets = {}
    run_start, nibbles = None, []
    for cycle, vec in enumerate(stimulus.input_vectors):
        if vec.get("valid"):
            if run_start is None:
                run_start, nibbles = cycle, []
                assert vec["clear"] == 1, "packets must start with a clear"
            else:
                assert vec["clear"] == 0
            nibbles.append(vec["d3"] * 8 + vec["d2"] * 4 + vec["d1"] * 2 + vec["d0"])
        elif run_start is not None:
            assert len(nibbles) % 2 == 0
            packets[run_start] = bytes(
                (nibbles[k] << 4) | nibbles[k + 1] for k in range(0, len(nibbles), 2)
            )
            run_start = None
    assert run_start is None, "a packet must finish before the stimulus ends"
    return packets


def test_known_crc_values():
    # frozen cross-check of the test's own oracle
    assert crc8(b"\xa5\x3c\x7e") == 0xF0
    assert crc8(b"\x01\xff\x10\x88") == 0xDB
    assert crc8(b"") == 0
    assert crc8(b"\x00") == 0


@pytest.mark.parametrize("name", CIRCUITS)
def test_bundled_netlists_validate(name):
    assert validate(load_circuit(name)) == []


@pytest.mark.parametrize("name", CIRCUITS)
def test_manifest_matches_netlist(name):
    n = load_circuit(name)
    m = load_manifest(name)
    assert m["name"] == n.name == name
    assert m["ff_count"] == len(n.flipflops)
    assert m["gate_count"] == len(n.gates)
    assert m["net_count"] == len(n.nets)
    assert m["input_count"] == len(n.inputs)
    assert m["output_count"] == len(n.outputs)
    assert m["ff_inits"] == {f.name: f.init for f in n.flipflops}


@pytest.mark.parametrize("name", CIRCUITS)
def test_golden_reproduces_exactly(name):
    n = load_circuit(name)
    st = load_circuit_stimulus(name)
    golden = load_circuit_golden(name)
    trace = Simulator(n).run(st)
    assert trace == golden


def test_crc_golden_matches_table_oracle(crc8_stimulus, crc8_golden):
    packets = packets_in(crc8_stimulus)
    assert len(packets) == 4
    crc_cols = {
        j: crc8_stimulus.monitors.index(f"crc_out{j}") for j in range(8)
    }
    for start, data in packets.items():
        # the checksum needs two more edges after the last nibble to cross
        # the loopback register and the comparison copy
        settle = start + 2 * len(data) + 1
        row = crc8_golden.rows[settle]
        got = sum(row[crc_cols[j]] << j for j in range(8))
        assert got == crc8(data), f"packet at cycle {start}"


def test_match_monitor_holds_in_fault_free_run(crc8_stimulus, crc8_golden):
    match_idx = crc8_stimulus.monitors.index("match")
    assert all(row[match_idx] == 1 for row in crc8_golden.rows)
    assert len(crc8_golden.rows) == crc8_stimulus.n_cycles == 72


def test_deadend_probe_upsets_are_masked(lfsr, lfsr_stimulus):
    first, last = lfsr_stimulus.active_window
    sim = Simulator(lfsr)
    checkpoints = fault_free_checkpoints(sim, lfsr_stimulus)
    monitors = set(sim.slots(lfsr_stimulus.monitors))
    for cycle in (first, (first + last) // 2, last):
        [(record, _)] = run_group(
            sim, checkpoints, monitors, [FaultSpec(FaultKind.SEU, "probe.tap", cycle)],
        )
        assert record.classification is Classification.MASKED


def test_lfsr_upsets_do_fail_somewhere(lfsr, lfsr_stimulus):
    first, _ = lfsr_stimulus.active_window
    sim = Simulator(lfsr)
    [(record, _)] = run_group(
        sim, fault_free_checkpoints(sim, lfsr_stimulus), set(sim.slots(lfsr_stimulus.monitors)),
        [FaultSpec(FaultKind.SEU, "lfsr.7", first)],
    )
    assert record.classification is Classification.FUNCTIONAL_FAILURE


def test_fit_library_ships_reference_values():
    lib = load_fit_library(fit_library_path())
    assert lib.get("clock_buffer") == Fraction(5917, 100)
    assert lib.get("flipflop") == Fraction(647, 4)


def test_missing_data_file_is_a_clean_error():
    with pytest.raises(FileNotFoundError, match="no_such_thing"):
        data_path("no_such_thing.bin")
