import json

import numpy as np
import pytest

from qmspace import (
    QuasiMetricSpace,
    TransportProblem,
    cd_check,
    entropy_nonlinearity,
    ghp_upper,
    wasserstein,
)
from qmspace.cli import main
from qmspace.io import (
    fmt,
    load_matrix_csv,
    load_problem,
    load_space,
    plan_triplets,
    save_matrix_csv,
    save_problem,
    save_space,
)


@pytest.fixture
def funk_file(tmp_path):
    path = tmp_path / "funk.json"
    assert main(["gen", "funk", "--dim", "2", "--grid", "0.3",
                 "--clip-r", "1", "-o", str(path)]) == 0
    return path


@pytest.fixture
def gauss_file(tmp_path):
    path = tmp_path / "gauss.json"
    assert main(["gen", "gaussian-line", "--K", "1", "--half-width", "2",
                 "--grid", "0.25", "-o", str(path)]) == 0
    return path


class TestIo:
    def test_space_roundtrip(self, tmp_path, funk_file):
        ms = load_space(str(funk_file))
        out = tmp_path / "copy.json"
        save_space(str(out), ms)
        again = load_space(str(out))
        assert np.array_equal(again.space.dist, ms.space.dist)
        assert np.array_equal(again.weights, ms.weights)
        assert again.basepoint == ms.basepoint

    def test_matrix_csv_roundtrip(self, tmp_path):
        space = QuasiMetricSpace(np.array([[0.0, 1.5], [2.0, 0.0]]))
        path = tmp_path / "m.csv"
        save_matrix_csv(str(path), space)
        again = load_matrix_csv(str(path))
        assert np.array_equal(again.dist, space.dist)

    def test_problem_roundtrip(self, tmp_path):
        space = QuasiMetricSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))
        prob = TransportProblem(space, [0.3, 0.7], [0.6, 0.4], 2.0)
        path = tmp_path / "p.json"
        save_problem(str(path), prob)
        again = load_problem(str(path))
        assert again.p == 2.0
        assert np.allclose(again.mu, [0.3, 0.7])

    def test_plan_triplets(self):
        plan = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert plan_triplets(plan) == [(0, 0, 0.5), (1, 1, 0.5)]

    def test_fmt_significant_digits(self):
        assert fmt(1 / 3) == "0.333333333333"
        assert fmt(np.inf) == "inf"
        assert fmt(True) == "true"


class TestGen:
    def test_funk_file_validates(self, funk_file):
        assert main(["validate", str(funk_file)]) == 0

    def test_torus_metadata_reversibility(self, tmp_path):
        path = tmp_path / "torus.json"
        assert main(["gen", "randers-torus", "--b", "0.5", "--grid", "1.0",
                     "-o", str(path)]) == 0
        meta = json.loads(path.read_text())["metadata"]
        assert meta["reversibility"] == pytest.approx(3.0, abs=1e-9)

    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["gen", "funk", "--strategy", "seeded-uniform", "--count",
                "40", "--seed", "11"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_randers_ball_drift(self, tmp_path):
        path = tmp_path / "rb.json"
        assert main(["gen", "randers-ball", "--a", "0.1", "0.2", "--grid",
                     "0.3", "-o", str(path)]) == 0
        assert json.loads(path.read_text())["metadata"]["a"] == [0.1, 0.2]
        assert main(["validate", str(path)]) == 0

    def test_randers_ball_drift_length_exit_2(self, tmp_path, capsys):
        path = tmp_path / "rb.json"
        assert main(["gen", "randers-ball", "--a", "0.1", "--grid", "0.3",
                     "-o", str(path)]) == 2
        assert "drift vector length must equal --dim" in capsys.readouterr().err
        assert not path.exists()

    def test_bad_params_exit_2(self, tmp_path):
        assert main(["gen", "randers-torus", "--b", "1.5", "--grid", "1.0",
                     "-o", str(tmp_path / "x.json")]) == 2


class TestValidate:
    def test_corrupted_triangle_exit_1(self, tmp_path, funk_file):
        obj = json.loads(funk_file.read_text())
        obj["dist"][0][3] = 1000.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["validate", str(bad)]) == 1

    def test_truncated_json_exit_2(self, tmp_path, funk_file):
        bad = tmp_path / "trunc.json"
        bad.write_text(funk_file.read_text()[:50])
        assert main(["validate", str(bad)]) == 2

    def test_missing_file_exit_2(self):
        assert main(["validate", "/does/not/exist.json"]) == 2

    def test_directory_exit_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestDist:
    def test_w_matches_library(self, tmp_path):
        d = np.array([[0.0, 1.0, 2.0], [1.5, 0.0, 1.0], [2.0, 1.0, 0.0]])
        space = QuasiMetricSpace(d)
        prob = TransportProblem(space, [0.5, 0.3, 0.2], [0.2, 0.3, 0.5], 2.0)
        pf = tmp_path / "prob.json"
        save_problem(str(pf), prob)
        out = tmp_path / "report.json"
        assert main(["dist", "w", str(pf), "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        want, _ = wasserstein(prob)
        assert rep["value"] == pytest.approx(want, rel=1e-10)
        assert rep["plan"]

    def test_gh_identical_zero_bracket(self, tmp_path, funk_file):
        out = tmp_path / "gh.json"
        assert main(["dist", "gh", str(funk_file), str(funk_file),
                     "--theta", "6", "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["lower"] == 0.0
        assert rep["upper"] == 0.0

    @pytest.mark.parametrize("text", ["5", "[1, 2]"])
    def test_w_non_object_exit_2(self, tmp_path, capsys, text):
        pf = tmp_path / "prob.json"
        pf.write_text(text)
        assert main(["dist", "w", str(pf)]) == 2
        assert "expected a JSON object" in capsys.readouterr().err

    def test_w_order_flag_is_usage_error(self, tmp_path):
        space = QuasiMetricSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))
        pf = tmp_path / "prob.json"
        save_problem(str(pf), TransportProblem(space, [0.3, 0.7], [0.6, 0.4]))
        assert main(["dist", "w", str(pf), "-p", "2"]) == 2

    def test_missing_theta_exit_2(self, funk_file):
        assert main(["dist", "gh", str(funk_file), str(funk_file)]) == 2

    def test_missing_second_file_exit_2(self, funk_file):
        assert main(["dist", "gh", str(funk_file), "--theta", "5"]) == 2

    def test_prokhorov_needs_same_space(self, funk_file, gauss_file):
        assert main(["dist", "prokhorov", str(funk_file),
                     str(gauss_file)]) == 2

    def test_prokhorov_same_file_zero(self, tmp_path, gauss_file):
        out = tmp_path / "p.json"
        assert main(["dist", "prokhorov", str(gauss_file), str(gauss_file),
                     "-o", str(out)]) == 0
        assert json.loads(out.read_text())["value"] == 0.0

    def test_hausdorff_one_file_matches_two_file(self, tmp_path, capsys):
        torus = tmp_path / "torus.json"
        assert main(["gen", "randers-torus", "--b", "0.5", "--grid",
                     repr(2 * np.pi / 5), "-o", str(torus)]) == 0  # 5 x 5
        sets = ["--set-a", "0", "1", "--set-b", "2", "3"]
        capsys.readouterr()
        assert main(["dist", "hausdorff", str(torus), *sets]) == 0
        one = capsys.readouterr().out
        assert main(["dist", "hausdorff", str(torus), str(torus), *sets]) == 0
        assert capsys.readouterr().out == one
        assert json.loads(one)["value"] == 2.51327412287

    def test_ghp_tori_matches_library(self, tmp_path):
        files = []
        for b in ("0.5", repr(1 / 3)):
            files.append(str(tmp_path / f"torus{len(files)}.json"))
            assert main(["gen", "randers-torus", "--b", b, "--grid",
                         repr(2 * np.pi / 3), "-o", files[-1]]) == 0  # 3 x 3
        out = tmp_path / "ghp.json"
        assert main(["dist", "ghp", *files, "--theta", "3",
                     "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        want = ghp_upper(load_space(files[0]), load_space(files[1]), 3.0)
        assert rep == {"kind": "ghp", "theta": 3.0, "upper": float(fmt(want))}

    @pytest.mark.parametrize("set_a", [["0", "99"], ["-1"]])
    def test_hausdorff_index_out_of_range_exit_2(self, funk_file, capsys, set_a):
        assert main(["dist", "hausdorff", str(funk_file),
                     "--set-a", *set_a, "--set-b", "0"]) == 2
        assert "out of range" in capsys.readouterr().err


class TestCdAndIneq:
    def test_flat_grid_all_pass(self, tmp_path, gauss_file):
        # K = 0 on any space is the weakest claim the checker makes
        out = tmp_path / "cd.json"
        code = main(["cd-check", str(gauss_file), "--K", "0", "--N", "inf",
                     "--U", "H", "-o", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert len(rep) == 3
        assert all(r["passed"] for r in rep)

    @pytest.mark.parametrize("U, N, name", [("U2", "2", "U_2"),
                                            ("P2", "inf", "Power_2")])
    def test_nonlinearity_flags(self, tmp_path, gauss_file, U, N, name):
        out = tmp_path / "cd.json"
        assert main(["cd-check", str(gauss_file), "--K", "0", "--N", N,
                     "--U", U, "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert [r["name"] for r in rep] == [
            f"cd[{name},K=0.0,N={float(N)},t={t}]" for t in (0.25, 0.5, 0.75)]

    def test_given_endpoint_measures(self, tmp_path, gauss_file):
        ms = load_space(str(gauss_file)).normalized()
        mu0 = np.linspace(1.0, 2.0, ms.n)
        mu0 /= mu0.sum()
        mu1 = mu0[::-1].copy()
        out = tmp_path / "cd.json"
        assert main(["cd-check", str(gauss_file), "--K", "0",
                     "--mu0", json.dumps(mu0.tolist()),
                     "--mu1", json.dumps(mu1.tolist()), "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        want = cd_check(ms, mu0, mu1, 0.0, np.inf, entropy_nonlinearity(),
                        [0.25, 0.5, 0.75])
        assert [r["lhs"] for r in rep] == [float(fmt(w.lhs)) for w in want]
        assert [r["rhs"] for r in rep] == [float(fmt(w.rhs)) for w in want]

    def test_bad_t_exit_2(self, gauss_file):
        assert main(["cd-check", str(gauss_file), "--K", "0",
                     "--ts", "0.5", "1.7"]) == 2

    def test_unknown_nonlinearity_exit_2(self, gauss_file):
        assert main(["cd-check", str(gauss_file), "--K", "0",
                     "--U", "bogus"]) == 2

    @pytest.mark.parametrize("flag", ["--mu0", "--mu1"])
    def test_one_endpoint_measure_exit_2(self, gauss_file, capsys, flag):
        n = len(json.loads(gauss_file.read_text())["dist"])
        weights = json.dumps([1.0 / n] * n)
        assert main(["cd-check", str(gauss_file), "--K", "0",
                     flag, weights]) == 2
        assert "--mu0 and --mu1 must be given together" in capsys.readouterr().err

    def test_ineq_gaussian_log_sobolev(self, tmp_path, gauss_file):
        out = tmp_path / "ineq.json"
        code = main(["ineq", str(gauss_file), "--K", "1",
                     "--log-sobolev", "--poincare", "-o", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert any("log_sobolev" in r["name"] for r in rep)

    def test_ineq_bad_curvature_flags_exit_2(self, gauss_file):
        assert main(["ineq", str(gauss_file), "--K", "-1",
                     "--poincare"]) == 2


class TestReport:
    def test_summary_fields(self, tmp_path, gauss_file):
        out = tmp_path / "r.json"
        assert main(["report", str(gauss_file), "-o", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["valid"] is True
        assert rep["reversibility"] == 1.0
        assert rep["total_mass"] == pytest.approx(1.0)

    def test_byte_identical_reruns(self, tmp_path, funk_file):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["report", str(funk_file), "-o", str(a)]) == 0
        assert main(["report", str(funk_file), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_seed_variable_exit_2(self, gauss_file, monkeypatch, capsys):
        monkeypatch.setenv("QMSPACE_SEED", "abc")
        assert main(["report", str(gauss_file)]) == 2
        assert "QMSPACE_SEED must be an integer" in capsys.readouterr().err

    def test_csv_format(self, tmp_path, gauss_file):
        out = tmp_path / "r.csv"
        assert main(["report", str(gauss_file), "--format", "csv",
                     "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert "valid" in lines[0]
