"""Command-line interface: formats, determinism, and exit codes."""

import csv
import io
import json
from fractions import Fraction

import pytest

import reconkernel.cli as cli
from reconkernel.cli import main
from reconkernel.exact import RatPoly
from reconkernel.recon import ReconstructionBasis
from reconkernel.vandermonde import CoeffTable
from reconkernel.weno import ErrorExpansion

SMOKE_COMMANDS = {
    "tau": ["tau", "--order", "6"],
    "vandermonde": ["vandermonde", "--stencil", "1", "1"],
    "basis": ["basis", "--stencil", "1", "1"],
    "face-coeffs": ["face-coeffs", "--stencil", "2", "2"],
    "error-poly": ["error-poly", "--stencil", "1", "1"],
    "lambda": ["lambda", "--stencil", "1", "1"],
    "weights": ["weights", "--stencil", "2", "2", "--levels", "2"],
    "poles": ["poles", "--stencil", "2", "2", "--levels", "2"],
    "positivity": ["positivity", "--extent", "2"],
    "beta": ["beta", "--stencil", "1", "1"],
    "converge": ["converge", "--stencil", "1", "1"],
    "check-noninterp": ["check-noninterp", "--stencil", "1", "1"],
}

CSV_HEADERS = {
    "tau": ["n", "tau"],
    "vandermonde": ["matrix", "row", "col", "value"],
    "basis": ["family", "offset", "c0", "c1", "c2"],
    "face-coeffs": ["offset", "coeff"],
    "lambda": ["order", "face_value", "c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"],
    "weights": ["k_s", "part", "c0", "c1", "c2", "c3", "c4", "c5", "c6"],
    "poles": ["k_s", "den_degree", "real_roots", "interval_lo", "interval_hi"],
    "positivity": ["m_minus", "m_plus", "levels", "in_condition", "all_positive"],
    "beta": ["row", "c0", "c1", "c2"],
    "converge": ["dx", "error", "fitted_order"],
    "check-noninterp": ["delta_x", "max_mismatch", "halving_slope"],
}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSmoke:
    @pytest.mark.parametrize("name", sorted(SMOKE_COMMANDS), ids=str)
    def test_json_output(self, name, capsys):
        code, out, err = run(SMOKE_COMMANDS[name], capsys)
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["schema"] == "recon-kernel/1"
        assert payload["command"] == name

    @pytest.mark.parametrize("name", sorted(SMOKE_COMMANDS), ids=str)
    def test_csv_output(self, name, capsys):
        code, out, err = run(SMOKE_COMMANDS[name] + ["--format", "csv"], capsys)
        assert code == 0
        assert err == ""
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) >= 2
        if name in CSV_HEADERS:
            assert rows[0] == CSV_HEADERS[name]
        else:
            assert rows[0][:2] == ["order", "c0"]

    @pytest.mark.parametrize(
        "name", ["basis", "weights", "converge", "positivity"], ids=str
    )
    def test_repeated_runs_are_byte_identical(self, name, capsys):
        argv = SMOKE_COMMANDS[name]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second
        _, first_csv, _ = run(argv + ["--format", "csv"], capsys)
        _, second_csv, _ = run(argv + ["--format", "csv"], capsys)
        assert first_csv == second_csv


class TestPayloads:
    def test_basis_structure(self, capsys):
        _, out, _ = run(["basis", "--stencil", "1", "1"], capsys)
        payload = json.loads(out)
        assert set(payload) == {
            "schema",
            "command",
            "stencil",
            "alpha_f",
            "alpha_h",
            "face_coeffs",
        }
        assert payload["stencil"] == [1, 1]
        assert payload["face_coeffs"] == ["-1/6", "5/6", "1/3"]
        assert payload["alpha_h"][1] == ["13/12", "0", "-1"]

    def test_tau_values_render_as_reduced_fractions(self, capsys):
        _, out, _ = run(["tau", "--order", "4", "--format", "csv"], capsys)
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1:] == [
            ["0", "1"],
            ["1", "0"],
            ["2", "-1/24"],
            ["3", "0"],
            ["4", "7/5760"],
        ]

    def test_tau_default_order(self, capsys):
        _, out, _ = run(["tau"], capsys)
        payload = json.loads(out)
        assert payload["n_max"] == 21
        assert len(payload["values"]) == 22

    def test_converge_row_floats_round_trip(self, capsys):
        _, out, _ = run(["converge", "--stencil", "1", "1"], capsys)
        payload = json.loads(out)
        assert abs(payload["fitted_order"] - 3) < 0.1
        _, out_csv, _ = run(
            ["converge", "--stencil", "1", "1", "--format", "csv"], capsys
        )
        rows = list(csv.reader(io.StringIO(out_csv)))
        assert float(rows[1][0]) == 2.0**-4
        assert float(rows[1][2]) == payload["fitted_order"]

    def test_positivity_booleans_are_lowercase(self, capsys):
        _, out, _ = run(["positivity", "--extent", "2", "--format", "csv"], capsys)
        rows = list(csv.reader(io.StringIO(out)))
        for row in rows[1:]:
            assert row[3] in ("true", "false")
            assert row[4] in ("true", "false")

    def test_weights_csv_carries_both_parts(self, capsys):
        _, out, _ = run(
            ["weights", "--stencil", "2", "2", "--levels", "2", "--format", "csv"],
            capsys,
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[1] for r in rows[1:]] == ["num", "den"] * 3

    def test_weights_json_face_values(self, capsys):
        _, out, _ = run(["weights", "--stencil", "2", "2", "--levels", "2"], capsys)
        payload = json.loads(out)
        assert [w["at_half"] for w in payload["weights"]] == ["1/10", "3/5", "3/10"]
        assert [w["k_s"] for w in payload["weights"]] == [0, 1, 2]

    def test_vandermonde_names_both_matrices(self, capsys):
        _, out, _ = run(
            ["vandermonde", "--stencil", "1", "1", "--format", "csv"], capsys
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert {r[0] for r in rows[1:]} == {"V", "V_inverse"}

    def test_check_noninterp_reports_a_positive_gap(self, capsys):
        _, out, _ = run(["check-noninterp", "--stencil", "1", "1"], capsys)
        payload = json.loads(out)
        assert payload["max_mismatch"] > 0
        assert abs(payload["halving_slope"] - 3) < 0.15


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["face-coeffs", "--stencil", "0", "-1"],
            ["weights", "--stencil", "1", "1", "--levels", "5"],
            ["error-poly", "--stencil", "1", "1", "--order", "2"],
            ["converge", "--stencil", "4", "4"],
            ["converge", "--stencil", "1", "1", "--levels", "2"],
            ["tau", "--order", "-1"],
            ["check-noninterp", "--stencil", "1", "1", "--halvings", "1100"],
            ["check-noninterp", "--stencil", "1", "1", "--dx", "1e300"],
            ["check-noninterp", "--stencil", "1", "1", "--dx", "1e-300", "--halvings", "40"],
            # size limits, one past each
            ["tau", "--order", "601"],
            ["vandermonde", "--stencil", "30", "31"],
            ["basis", "--stencil", "-3", "64"],
            ["face-coeffs", "--stencil", "701", "0"],
            ["error-poly", "--stencil", "20", "21"],
            ["error-poly", "--stencil", "1", "1", "--order", "151"],
            ["lambda", "--stencil", "30", "6"],
            ["lambda", "--stencil", "1", "1", "--order", "41"],
            ["weights", "--stencil", "9", "8", "--levels", "2"],
            ["poles", "--stencil", "9", "8"],
            ["beta", "--stencil", "61", "0"],
            ["converge", "--stencil", "30", "31"],
            ["converge", "--stencil", "1", "1", "--target", "derivative", "--levels", "1100"],
            ["check-noninterp", "--stencil", "12", "13"],
            ["check-noninterp", "--stencil", "1", "1", "--halvings", "41"],
        ],
        ids=lambda a: " ".join(a),
    )
    def test_validation_failures_exit_two(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_every_stencil_command_has_a_width_limit(self):
        stencil_commands = {name for name, _, _, options in cli._COMMANDS if cli._STENCIL in options}
        assert stencil_commands == set(cli.MAX_WIDTH)

    def test_limit_message_names_command_and_bound(self, capsys):
        code, out, err = run(["lambda", "--stencil", "1", "1", "--order", "41"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: lambda accepts orders up to 40, got 41\n"

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_runtime_guard_failure_exits_three(self, capsys, monkeypatch):
        right = cli.face_coeffs(cli.Stencil(1, 1))
        wrong = (right[0] + 1,) + right[1:]
        monkeypatch.setattr(cli, "face_coeffs", lambda s: wrong)
        code, out, err = run(["face-coeffs", "--stencil", "1", "1"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("invariant violated: ")

    @pytest.mark.parametrize(
        "tamper, message",
        [
            # moving weight between two cells keeps the sum at 1 but breaks
            # exactness on x, so the degree-1 equation must catch it
            (lambda c: (c[0] + 1, c[1] - 1) + c[2:],
             "face coefficients of (2,2) do not reproduce the face value of x^1"),
            (lambda c: c[:-1], "stencil (2,2) has 5 cells but 4 face coefficients"),
        ],
        ids=["sum-preserving", "short"],
    )
    def test_face_certificate_checks_more_than_the_sum(self, tamper, message, capsys, monkeypatch):
        wrong = tamper(cli.face_coeffs(cli.Stencil(2, 2)))
        monkeypatch.setattr(cli, "face_coeffs", lambda s: wrong)
        code, out, err = run(["face-coeffs", "--stencil", "2", "2"], capsys)
        assert code == 3
        assert out == ""
        assert err == f"invariant violated: {message}\n"

    @pytest.mark.parametrize(
        "tamper, power",
        [
            # a second difference keeps the sum and the x moment; a third
            # difference keeps the x^2 moment too
            (lambda c: (c[0] + 1, c[1] - 2, c[2] + 1) + c[3:], 2),
            (lambda c: (c[0] - 1, c[1] + 3, c[2] - 3, c[3] + 1) + c[4:], 3),
        ],
        ids=["second-difference", "third-difference"],
    )
    def test_face_certificate_names_the_first_missed_power(self, tamper, power, capsys, monkeypatch):
        wrong = tamper(cli.face_coeffs(cli.Stencil(2, 2)))
        monkeypatch.setattr(cli, "face_coeffs", lambda s: wrong)
        code, out, err = run(["face-coeffs", "--stencil", "2", "2"], capsys)
        assert (code, out) == (3, "")
        assert err == (
            "invariant violated: face coefficients of (2,2) do not reproduce "
            f"the face value of x^{power}\n"
        )

    @pytest.mark.parametrize("kind, code", [("h", 3), ("f", 0)])
    def test_lambda_face_values_are_checked_against_Lambda(self, kind, code, capsys, monkeypatch):
        exp = cli.error_expansion(cli.Stencil(1, 1), f"lambda-{kind}", 6)
        nudged = exp.terms[0][1] + RatPoly.constant(Fraction(1, 10**9))
        off = ErrorExpansion(exp.stencil, exp.kind, ((3, nudged),) + exp.terms[1:])
        monkeypatch.setattr(cli, "error_expansion", lambda *args: off)
        got, _, err = run(["lambda", "--stencil", "1", "1", "--kind", kind], capsys)
        assert got == code
        message = "invariant violated: lambda_h((1,1), 3) at 1/2 differs from Lambda((1,1), 3)\n"
        assert err == (message if code else "")

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda rows: [[rows[0][0] + 1] + rows[0][1:]] + rows[1:],
            lambda rows: [[r[1], r[0]] + r[2:] for r in rows],
            lambda rows: [r + [0] for r in rows],
        ],
        ids=["entry", "swapped-columns", "extra-zero-column"],
    )
    def test_tampered_inverse_exits_three(self, tamper, capsys, monkeypatch):
        right = cli.inv_vandermonde(cli.Stencil(2, 2))
        wrong = CoeffTable.of(tamper([list(r) for r in right.entries]))
        monkeypatch.setattr(cli, "inv_vandermonde", lambda s: wrong)
        code, out, err = run(["vandermonde", "--stencil", "2", "2"], capsys)
        assert code == 3
        assert out == ""
        assert err == "invariant violated: inverse check failed for stencil (2,2)\n"

    @pytest.mark.parametrize(
        "tamper, message",
        [
            # moving a cardinal between two members keeps the sum at 1 and
            # every degree at M
            (lambda f, h: (f[:2] + (f[2] + f[4], f[3] - f[4], f[4]), h),
             "alpha_f at offset 0 of (2,2) is not cardinal at node 2"),
            (lambda f, h: (f, h[:2] + (h[2] + h[4], h[3] - h[4], h[4])),
             "alpha_h at offset 0 of (2,2) is not cardinal at cell 2"),
            (lambda f, h: (f, (h[1], h[0]) + h[2:]),
             "alpha_h at offset -2 of (2,2) is not cardinal at cell -2"),
            # the interpolating family is cardinal at the nodes, not over the cells
            (lambda f, h: (f, f), "alpha_h at offset -2 of (2,2) is not cardinal at cell -2"),
            # the node polynomial keeps every node value, so only the degree catches it
            (lambda f, h: ((f[0] + RatPoly.of([0, 4, 0, -5, 0, 1]),) + f[1:], h),
             "alpha_f at offset -2 of (2,2) has degree above 4"),
        ],
        ids=["node", "cell", "swapped", "interpolating", "node-polynomial"],
    )
    def test_tampered_basis_exits_three(self, tamper, message, capsys, monkeypatch):
        right = cli.basis(cli.Stencil(2, 2))
        wrong = ReconstructionBasis(right.stencil, *tamper(right.alpha_f, right.alpha_h))
        monkeypatch.setattr(cli, "basis", lambda s: wrong)
        code, out, err = run(["basis", "--stencil", "2", "2"], capsys)
        assert (code, out) == (3, "")
        assert err == f"invariant violated: {message}\n"
