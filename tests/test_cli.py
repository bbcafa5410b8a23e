import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triqw import (
    ADJACENT_PARTITION,
    Statistics,
    chi_report,
    entanglement_of_particles,
    geometric_measure,
    phi_scan,
    phi_state,
    snapshot,
    walk_scan,
)
from triqw import cli, scans
from triqw.cli import _JSON_BLOCK, _csv, _json, _json_list, main
from triqw.scans import MAX_GRID_STEPS, MAX_TIME_SAMPLES
from triqw.states import phi_weights


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

    def test_partition_option_is_gone(self, capsys):
        # every relabelling of the single-mode parties gives the same report
        with pytest.raises(SystemExit) as exit_info:
            main(["chi", "--partition", "1|2|3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --partition 1|2|3" in capsys.readouterr().err

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
        assert_config_error(capsys, "phi-scan", "--alpha-steps", "502")

    def test_grid_cap_is_501_steps(self, capsys):
        code, out = run_cli(capsys, "phi-scan", "--alpha-steps", "501", "--beta-steps", "2")
        assert code == 0
        assert len(out.splitlines()) == 1 + 501 * 2

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
        assert_config_error(capsys, "walk", "--steps", "10001")

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


@pytest.mark.parametrize("command", ["walk", "snapshot"])
def test_onsite_option_is_gone(capsys, command):
    # the on-site energy G only sets a global phase, so there is no option for it
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--onsite", "0"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --onsite 0" in capsys.readouterr().err


PARTITION_TEXTS = st.sampled_from(
    ["1,2|3,4|5,6", "1,4|2,5|3,6", "1|2|3", "3|1|2", "1,2|3,4", "1,2|2,3|4,5", "1,2|3,4|5,9",
     "0,1|2,3|4,5", "1,2,3|4,5|6", "a|b|c", ""]
)
TAU_TEXTS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1.7e308", "1e300", "-1e1",
                     "2.5e-3", "-7e-2", "0", "-0.0", "x", ""]),
    st.floats(-30.0, 30.0).map(repr),
)
BAD_COUNTS = st.sampled_from(["-1", "0", "1", "1.5", "1e1", "x", ""])
STATS_TEXTS = st.sampled_from(["bosons", "fermions", "anyons"])


@st.composite
def cli_argv(draw):
    """argv for one command: options good or bad, in the ``--opt value`` or
    ``--opt=value`` form, with grids of at most 9 and walks of at most 40
    steps."""
    command = draw(st.sampled_from(["chi", "phi-scan", "walk", "snapshot"]))
    argv = [command]

    def option(name, values, always=False):
        if always or draw(st.booleans()):
            value = draw(values)
            argv.extend([f"{name}={value}"] if draw(st.booleans()) else [name, value])

    if command == "phi-scan":
        for name in ("--alpha-steps", "--beta-steps"):
            option(name, st.one_of(st.integers(2, 9).map(str), BAD_COUNTS, st.just("502")), True)
        option("--partition", PARTITION_TEXTS)
    elif command == "walk":
        option("--stats", STATS_TEXTS)
        option("--partition", PARTITION_TEXTS)
        option("--tau-max", TAU_TEXTS)
        option("--steps", st.one_of(st.integers(2, 40).map(str), BAD_COUNTS, st.just("10001")), True)
    elif command == "snapshot":
        option("--stats", STATS_TEXTS)
        option("--tau", TAU_TEXTS)
    else:
        option("--partition", PARTITION_TEXTS)  # chi takes none: a usage error
    option("--format", st.sampled_from(["csv", "json", "xml"]))
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=cli_argv())
def test_every_argv_exits_zero_or_two_with_an_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_info:
            code = exit_info.code
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        # argparse reports unrecognized arguments from the top-level parser
        last = err.getvalue().splitlines()[-1]
        assert last.startswith(("error: ", "triqw: error: ", f"triqw {argv[0]}: error: ")), last
    else:
        assert err.getvalue() == ""
        assert out.getvalue()


def _fmt(value: float) -> str:
    """One CSV number, formatted on its own: the per-cell reference."""
    return f"{float(value):.12g}"


def whole_csv(header, rows) -> str:
    """CSV text built in one piece, the reference for the streamed output."""
    lines = [[v if isinstance(v, str) else _fmt(v) for v in row] for row in rows]
    return "\n".join(",".join(line) for line in [header] + lines) + "\n"


def expected_table(command):
    """A command's argv, and the header, rows and JSON record (or None) it prints."""
    if command == "chi":
        report = chi_report()
        return ["chi"], ["eps_G", "eps_T"], [(report["eps_G"], report["eps_T"])], report
    if command == "phi-scan":
        scan = phi_scan(4, 3)
        rows = [
            (alpha, beta, scan.eps_t[i, j], scan.eps_g[i, j])
            for i, alpha in enumerate(scan.alphas)
            for j, beta in enumerate(scan.betas)
        ]
        argv = ["phi-scan", "--alpha-steps", "4", "--beta-steps", "3"]
        return argv, ["alpha", "beta", "eps_T", "eps_G"], rows, None
    if command == "walk":
        scan = walk_scan(Statistics.BOSONS, ADJACENT_PARTITION, tau_max=3.0, steps=5)
        header = ["tau", "P111", "N_A-BC", "N_B-AC", "N_C-AB", "TPN", "eps_T"]
        columns = (scan.taus, scan.p111, scan.n_a_bc, scan.n_b_ac, scan.n_c_ab, scan.tpn, scan.eps_t)
        argv = ["walk", "--stats", "bosons", "--tau-max", "3", "--steps", "5"]
        return argv, header, list(zip(*columns)), None
    record = snapshot(Statistics.BOSONS, 2.5)
    rows = [("rho", str(r + 1), "", v) for r, v in enumerate(record["rho"])]
    for r, line in enumerate(record["Gamma"]):
        rows += [("Gamma", str(r + 1), str(s + 1), v) for s, v in enumerate(line)]
    rows += [("g", str(delta), "", v) for delta, v in enumerate(record["g"])]
    argv = ["snapshot", "--stats", "bosons", "--tau", "2.5"]
    return argv, ["quantity", "r", "s", "value"], rows, record


class TestStreamedOutput:
    """Row-by-row output equals the text of the whole payload, byte for byte."""

    def cli_text(self, capsys, tmp_path, to_file, argv):
        if to_file:
            path = tmp_path / "out.txt"
            assert main(argv + ["--out", str(path)]) == 0
            assert capsys.readouterr().out == ""
            return path.read_bytes().decode("utf-8")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        return out

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["chi", "phi-scan", "walk", "snapshot"])
    def test_command(self, capsys, tmp_path, command, fmt, to_file):
        argv, header, rows, record = expected_table(command)
        if fmt == "csv":
            expected = whole_csv(header, rows)
        elif record is not None:
            expected = _json(record)
        else:
            expected = _json([dict(zip(header, row)) for row in rows])
        assert self.cli_text(capsys, tmp_path, to_file, argv + ["--format", fmt]) == expected

    @pytest.mark.parametrize("n", [0, 1, 2, _JSON_BLOCK, _JSON_BLOCK + 1, 2 * _JSON_BLOCK + 5])
    def test_json_list_matches_json_dumps(self, n):
        items = [{"b": k / 7, "a": [k, {"z": None}], "c": {}} for k in range(n)]
        assert "".join(_json_list(iter(items))) == _json(items)

    def test_json_list_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            "".join(_json_list([{"value": float("nan")}]))


# Cells whose 12-digit text is easy to get wrong: signed zero, the
# smallest subnormal, exponents of both signs, a sum with a long repr,
# more than 12 integer digits, and the non-finite values.
EDGE_CELLS = [-0.0, 5e-324, 1e-300, 1e22, 0.1 + 0.2, 123456789012.5, math.nan, math.inf, -math.inf]


class TestCsvWriter:
    """One format per table gives the bytes of formatting each cell alone."""

    @pytest.mark.parametrize("kind", [float, np.float64], ids=["float", "float64"])
    def test_number_cells_match_per_cell_reference(self, kind):
        cells = [kind(v) for v in EDGE_CELLS]
        rows = [tuple(cells[k:] + cells[:k])[:4] for k in range(len(cells))]
        header = ["w", "x", "y", "z"]
        assert "".join(_csv(header, rows)) == whole_csv(header, rows)

    def test_text_and_number_cells_match_per_cell_reference(self):
        rows = [("rho", "1", "", EDGE_CELLS[0])]
        rows += [("Gamma", str(r), str(r + 1), np.float64(v)) for r, v in enumerate(EDGE_CELLS)]
        rows += [("g", "0", "", float(v)) for v in EDGE_CELLS]
        header = ["quantity", "r", "s", "value"]
        assert "".join(_csv(header, rows)) == whole_csv(header, rows)

    def test_empty_table_is_the_header(self):
        assert "".join(_csv(["a", "b"], [])) == "a,b\n"

    @pytest.mark.parametrize("command", ["chi", "phi-scan", "walk", "snapshot"])
    def test_rows_keep_one_kind_per_column(self, monkeypatch, command):
        """The first row fixes the table's format, so every command must
        hand over tuples whose columns are all text or all numbers."""
        tables = []
        monkeypatch.setattr(
            cli, "_emit", lambda args, header, rows, record=None: tables.append((header, list(rows)))
        )
        assert main(expected_table(command)[0] + ["--format", "csv"]) == 0
        ((header, rows),) = tables
        assert all(type(row) is tuple and len(row) == len(header) for row in rows)
        kinds = {tuple(isinstance(v, str) for v in row) for row in rows}
        assert len(kinds) == 1
        assert all(isinstance(v, (str, float)) for row in rows for v in row)


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

    def test_phi_scan_takes_one_weight_call_per_alpha_row(self, monkeypatch):
        calls = []

        def counted(alpha, beta):
            calls.append(alpha)
            return phi_weights(alpha, beta)

        monkeypatch.setattr(scans, "phi_weights", counted)
        scan = phi_scan(5, 3)
        assert calls == list(scan.alphas)

    def test_phi_weights_of_an_array_match_scalar_formulas(self):
        betas = np.linspace(0.0, math.pi, 13)
        for alpha in (0.0, 0.4, math.pi / 2, math.pi):
            half, cos = math.sin(alpha) / math.sqrt(2.0), math.cos(alpha)
            rows = [[cos * math.cos(b), cos * math.sin(b), half, half] for b in betas]
            assert phi_weights(alpha, betas).tobytes() == np.array(rows, dtype=complex).tobytes()
            assert phi_weights(alpha, betas[5]).tobytes() == np.array(rows[5], dtype=complex).tobytes()

    @pytest.mark.parametrize(
        "alpha, beta, name",
        [(True, 0.0, "alpha"), (0.1, "1", "beta"), (1j, 0.0, "alpha"), (0.1, None, "beta")],
    )
    def test_phi_state_takes_real_phases_only(self, alpha, beta, name):
        # the first two used to build a state; 1j raised TypeError, and None
        # said "amplitudes must be finite"
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got"):
            phi_state(alpha, beta)

    @pytest.mark.parametrize(
        "alpha, beta, name",
        [(math.inf, 0.0, "alpha"), (math.nan, 0.0, "alpha"), (0.1, math.inf, "beta"),
         (0.1, math.nan, "beta")],
    )
    def test_phi_state_rejects_non_finite_phases_up_front(self, alpha, beta, name):
        # inf for alpha used to raise "math domain error", and for beta to
        # warn twice before "amplitudes must be finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                phi_state(alpha, beta)

    @pytest.mark.parametrize(
        "scan",
        [
            lambda: phi_scan(2.5, 5),
            lambda: phi_scan(5, 2.5),
            lambda: phi_scan("5", 5),
            lambda: phi_scan(True, 5),
            lambda: phi_scan(5, False),
            lambda: walk_scan(Statistics.FERMIONS, steps=2.5),
            lambda: walk_scan(Statistics.BOSONS, steps=None),
            lambda: walk_scan(Statistics.BOSONS, steps=True),
        ],
    )
    def test_scan_counts_must_be_integers(self, scan):
        with pytest.raises(ValueError, match="need between 2 and"):
            scan()

    def test_scan_counts_accept_numpy_integers(self):
        assert phi_scan(np.int64(2), np.int32(3)).eps_t.shape == (2, 3)
        assert walk_scan(Statistics.BOSONS, tau_max=1.0, steps=np.int64(2)).taus.shape == (2,)

    @pytest.mark.parametrize("stats", [Statistics.BOSONS, Statistics.FERMIONS])
    def test_two_particle_walk_has_no_single_occupancy_sector(self, stats):
        scan = walk_scan(stats, steps=40, init=(1, 1, 0, 0, 0, 0))
        assert scan.taus.shape == (40,)
        assert not scan.p111.any()
        assert not scan.eps_t.any()

    def test_time_sample_cap_is_10000(self):
        # a one-particle walk is cheap enough to run at the cap
        scan = walk_scan(Statistics.FERMIONS, steps=10_000, init=(1, 0, 0, 0, 0, 0))
        assert scan.taus.shape == (10_000,)

    def test_walk_scan_total_matches_sector_product(self):
        scan = walk_scan(Statistics.FERMIONS, ADJACENT_PARTITION, tau_max=5, steps=11)
        assert np.abs(scan.eps_t - scan.p111 * scan.tpn).max() <= 1e-12

    def test_snapshot_dict(self):
        record = snapshot(Statistics.BOSONS, 8.7)
        assert record["stats"] == "bosons"
        assert sum(record["rho"]) == pytest.approx(3.0, abs=1e-10)
        assert np.array(record["Gamma"]).sum() == pytest.approx(6.0, abs=1e-10)
