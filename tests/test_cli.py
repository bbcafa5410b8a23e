import json
import math

import numpy as np
import pytest

from triqw import (
    ADJACENT_PARTITION,
    Statistics,
    entanglement_of_particles,
    geometric_measure,
    phi_scan,
    phi_state,
    snapshot,
    walk_scan,
)
from triqw.cli import _json, main
from triqw.scans import MAX_GRID_STEPS, MAX_TIME_SAMPLES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def assert_config_error(capsys, *argv):
    """Exit 2, nothing on stdout and a one-line ``error:`` message, returned."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


class TestChiCommand:
    def test_json_output(self, capsys):
        code, out = run_cli(capsys, "chi")
        assert code == 0
        record = json.loads(out)
        assert set(record) == {"eps_G", "eps_T"}
        assert record["eps_G"] == pytest.approx(math.sqrt(33.0) / 3.0 - 1.0, abs=1e-9)
        assert record["eps_T"] == 0.0

    def test_party_relabeling_changes_nothing(self, capsys):
        _, base = run_cli(capsys, "chi")
        _, permuted = run_cli(capsys, "chi", "--partition", "3|1|2")
        assert json.loads(base) == json.loads(permuted)

    def test_csv_output(self, capsys):
        code, out = run_cli(capsys, "chi", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "eps_G,eps_T"
        assert len(lines) == 2


class TestPhiScanCommand:
    def test_csv_structure_and_anchor_rows(self, capsys):
        code, out = run_cli(capsys, "phi-scan", "--alpha-steps", "5", "--beta-steps", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,beta,eps_T,eps_G"
        assert len(lines) == 1 + 25
        rows = [line.split(",") for line in lines[1:]]
        # (alpha=0, beta=pi/4) is the second row: a GHZ point
        assert float(rows[1][2]) == pytest.approx(1.0, abs=1e-9)
        # every alpha = pi/2 row vanishes
        for row in rows:
            if abs(float(row[0]) - math.pi / 2) < 1e-12:
                assert float(row[2]) <= 1e-12

    def test_json_row_count(self, capsys):
        code, out = run_cli(
            capsys, "phi-scan", "--alpha-steps", "3", "--beta-steps", "4",
            "--format", "json",
        )
        assert code == 0
        assert len(json.loads(out)) == 12

    def test_grid_must_have_two_steps(self, capsys):
        code, _ = run_cli(capsys, "phi-scan", "--alpha-steps", "1")
        assert code == 2
        assert_config_error(capsys, "phi-scan", "--beta-steps", "1")
        assert_config_error(capsys, "phi-scan", "--alpha-steps", str(MAX_GRID_STEPS + 1))
        assert_config_error(capsys, "phi-scan", "--beta-steps", str(MAX_GRID_STEPS + 1))

    def test_unequal_party_sizes_exit_two(self, capsys):
        assert_config_error(capsys, "phi-scan", "--partition", "1,2,3|4,5|6")


class TestWalkCommand:
    def test_csv_structure(self, capsys):
        code, out = run_cli(
            capsys, "walk", "--stats", "fermions", "--steps", "9", "--tau-max", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tau,P111,N_A-BC,N_B-AC,N_C-AB,TPN,eps_T"
        assert len(lines) == 10

    def test_initial_row_has_no_single_occupancy_weight(self, capsys):
        # adjacent partition puts two walkers in party A at tau = 0
        _, out = run_cli(capsys, "walk", "--steps", "3", "--tau-max", "1")
        first = out.strip().splitlines()[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0  # P111
        assert float(first[6]) == 0.0  # eps_T

    def test_deterministic_output(self, tmp_path):
        args = ["walk", "--steps", "25", "--tau-max", "7", "--stats", "bosons"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_onsite_energy_does_not_change_entanglement(self, capsys):
        _, base = run_cli(capsys, "walk", "--steps", "12", "--tau-max", "6")
        _, shifted = run_cli(
            capsys, "walk", "--steps", "12", "--tau-max", "6", "--onsite", "4.2",
        )
        for row_a, row_b in zip(base.splitlines()[1:], shifted.splitlines()[1:]):
            vals_a = [float(tok) for tok in row_a.split(",")]
            vals_b = [float(tok) for tok in row_b.split(",")]
            assert vals_a == pytest.approx(vals_b, abs=1e-10)

    def test_bad_partition_exits_two(self, capsys):
        code, _ = run_cli(capsys, "walk", "--partition", "1,2|3,4")
        assert code == 2
        code, _ = run_cli(capsys, "walk", "--partition", "1,2|2,3|4,5")
        assert code == 2
        code, _ = run_cli(capsys, "walk", "--partition", "1,2|3,4|5,9")
        assert code == 2

    def test_bad_steps_exits_two(self, capsys):
        code, _ = run_cli(capsys, "walk", "--steps", "0")
        assert code == 2
        assert_config_error(capsys, "walk", "--steps", "1")
        assert_config_error(capsys, "walk", "--steps", str(MAX_TIME_SAMPLES + 1))

    def test_non_finite_onsite_exits_two(self, capsys):
        assert_config_error(capsys, "walk", "--onsite", "nan")

    @pytest.mark.parametrize("tau_max", ["inf", "1e308"])
    def test_non_finite_or_overflowing_tau_exits_two(self, capsys, tau_max):
        assert "tau" in assert_config_error(capsys, "walk", "--tau-max", tau_max)


class TestSnapshotCommand:
    def test_json_record_schema(self, capsys):
        code, out = run_cli(capsys, "snapshot", "--tau", "8.7", "--stats", "fermions")
        assert code == 0
        record = json.loads(out)
        assert set(record) == {"tau", "stats", "rho", "Gamma", "g"}
        assert len(record["rho"]) == 6
        assert len(record["Gamma"]) == 6 and all(len(row) == 6 for row in record["Gamma"])
        assert len(record["g"]) == 6

    def test_density_is_statistics_blind(self, capsys):
        _, fer = run_cli(capsys, "snapshot", "--tau", "8.7", "--stats", "fermions")
        _, bos = run_cli(capsys, "snapshot", "--tau", "8.7", "--stats", "bosons")
        rho_f = json.loads(fer)["rho"]
        rho_b = json.loads(bos)["rho"]
        assert np.abs(np.array(rho_f) - np.array(rho_b)).max() <= 1e-12

    def test_initial_fermion_distance_histogram(self, capsys):
        _, out = run_cli(capsys, "snapshot", "--tau", "0", "--stats", "fermions")
        g = json.loads(out)["g"]
        assert np.abs(np.array(g) - [0, 2, 1, 0, 0, 0]).max() <= 1e-12

    def test_csv_row_count(self, capsys):
        code, out = run_cli(capsys, "snapshot", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 6 + 36 + 6

    def test_infinite_onsite_exits_two(self, capsys):
        assert_config_error(capsys, "snapshot", "--onsite", "inf")

    def test_overflowing_tau_exits_two(self, capsys):
        assert "tau" in assert_config_error(
            capsys, "snapshot", "--tau", "1e308", "--format", "csv"
        )

    def test_json_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            _json({"value": float("nan")})

    def test_fermion_peak_pair_is_adjacent_in_first_half(self, capsys):
        """Largest fermionic pair correlation at tau = 8.7 on a |r-s| = 1
        pair with r, s <= 3.

        KNOWN FAILING: the actual maximum of Gamma sits on the
        next-nearest pair (1, 3) = 0.4528, narrowly above the adjacent
        pairs (2, 3) = 0.4175 and (1, 2) = 0.4052.  All three dominant
        pairs do lie in the first half of the chain, but the literal
        adjacency claim does not hold for this model.
        """
        _, out = run_cli(capsys, "snapshot", "--tau", "8.7", "--stats", "fermions")
        gamma = np.array(json.loads(out)["Gamma"])
        r, s = np.unravel_index(np.argmax(gamma), gamma.shape)
        assert r + 1 <= 3 and s + 1 <= 3
        assert abs(int(r) - int(s)) == 1


class TestScanInternals:
    def test_phi_scan_matches_reference_path(self):
        """The batched grid kernels agree with the per-state functions."""
        scan = phi_scan(7, 7)
        for i in (0, 2, 3, 6):
            for j in (1, 3, 5):
                state = phi_state(scan.alphas[i], scan.betas[j])
                ref_t = entanglement_of_particles(state, ADJACENT_PARTITION).eps_t
                ref_g = geometric_measure(state, ADJACENT_PARTITION)
                assert scan.eps_t[i, j] == pytest.approx(ref_t, abs=1e-10)
                assert scan.eps_g[i, j] == pytest.approx(ref_g, abs=1e-10)

    def test_walk_scan_total_matches_sector_product(self):
        scan = walk_scan(Statistics.FERMIONS, ADJACENT_PARTITION, tau_max=5, steps=11)
        assert np.abs(scan.eps_t - scan.p111 * scan.tpn).max() <= 1e-12

    def test_snapshot_dict(self):
        record = snapshot(Statistics.BOSONS, 8.7)
        assert record["stats"] == "bosons"
        assert sum(record["rho"]) == pytest.approx(3.0, abs=1e-10)
        assert np.array(record["Gamma"]).sum() == pytest.approx(6.0, abs=1e-10)
