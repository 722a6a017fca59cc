import json
import os
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmspace import (
    MeasuredSpace,
    QuasiMetricSpace,
    TransportProblem,
    cd_check,
    entropy_nonlinearity,
    ghp_upper,
    wasserstein,
)
from qmspace import cli
from qmspace.cli import main
from qmspace.io import (
    _dumps,
    fmt,
    load_problem,
    load_space,
    plan_triplets,
    save_problem,
    save_space,
    write_atomic,
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

    def test_problem_roundtrip(self, tmp_path):
        space = QuasiMetricSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))
        prob = TransportProblem(space, [0.3, 0.7], [0.6, 0.4], 2.0)
        path = tmp_path / "p.json"
        save_problem(str(path), prob)
        again = load_problem(str(path))
        assert again.p == 2.0
        assert np.allclose(again.mu, [0.3, 0.7])

    @pytest.mark.parametrize("coords, weights, basepoint, metadata", [
        (False, False, None, None),
        (True, False, None, {}),
        (False, True, None, {"model": "funk", "n": 3}),
        (True, True, 2, {"model": "funk", "b": [0.5, -0.0],
                         "nested": {"x": [[1.0], []], "s": "a\nb\u00e9"}}),
        (True, True, 0, {"inf": np.inf, "nan": np.nan, "mix": [1.0, np.inf, 2],
                         "ints": [1, 2], "bools": [True, False], "none": None,
                         "empty": [], "tiny": [5e-324, -0.0, 1e300]}),
    ])
    def test_save_writes_what_json_dumps_writes(self, tmp_path, coords,
                                                 weights, basepoint, metadata):
        d = np.array([[0.0, 5e-324, 1e300], [-0.0, 0.0, 1 / 3], [2.0, 0.1, 0.0]])
        space = QuasiMetricSpace(d, np.arange(6.0).reshape(3, 2) / 7
                                 if coords else None)
        if weights:
            space = MeasuredSpace(space, [0.2, 0.3, 1e-17], basepoint)
        path = tmp_path / "s.json"
        save_space(str(path), space, metadata=metadata)
        want = {"n": 3, "dist": d.tolist()}
        if coords:
            want["coords"] = (np.arange(6.0).reshape(3, 2) / 7).tolist()
        if weights:
            want["weights"] = [0.2, 0.3, 1e-17]
            if basepoint is not None:
                want["basepoint"] = basepoint
        if metadata:
            want["metadata"] = metadata
        assert path.read_text() == json.dumps(want, indent=1) + "\n"

        prob = TransportProblem(QuasiMetricSpace(d), [0.1, 0.0, 0.9],
                                [1 / 3, 1 / 3, 1 / 3], 2.5)
        save_problem(str(path), prob)
        want = {"n": 3, "dist": d.tolist(), "mu": prob.mu.tolist(),
                "nu": prob.nu.tolist(), "p": 2.5}
        assert path.read_text() == json.dumps(want, indent=1) + "\n"

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
        | st.dictionaries(st.text() | st.integers() | st.floats(), inner),
        max_leaves=30))
    @settings(max_examples=200, deadline=None)
    def test_writer_matches_json_dumps(self, value):
        assert _dumps(value) == json.dumps(value, indent=1)

    def test_write_atomic_mode_follows_umask(self, tmp_path):
        path = tmp_path / "out.json"
        old = os.umask(0o027)
        try:
            write_atomic(str(path), "{}\n")
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o666 & ~0o027
        assert path.read_text() == "{}\n"

    def test_write_atomic_error_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(TypeError):
            write_atomic(str(tmp_path / "out.json"), b"not text")
        assert list(tmp_path.iterdir()) == []

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

    def test_torus_with_drift_near_one_validates(self, tmp_path):
        path = tmp_path / "torus.json"
        assert main(["gen", "randers-torus", "--b", "0.99", "--grid", "0.5",
                     "-o", str(path)]) == 0
        assert main(["validate", str(path)]) == 0

    def test_torus_radial_shells_exit_2(self, tmp_path, capsys):
        path = tmp_path / "torus.json"
        assert main(["gen", "randers-torus", "--strategy", "radial-shells",
                     "--count", "30", "-o", str(path)]) == 2
        assert "radial-shells" in capsys.readouterr().err
        assert not path.exists()

    def test_bad_params_exit_2(self, tmp_path):
        assert main(["gen", "randers-torus", "--b", "1.5", "--grid", "1.0",
                     "-o", str(tmp_path / "x.json")]) == 2


def write_json(path, obj):
    """Write obj as JSON; NaN and Infinity go out as JSON's extensions."""
    path.write_text(json.dumps(obj))
    return str(path)


#: the asymmetric 3-point space of the bad-input reproductions
D3 = [[0.0, 1.0, 2.0], [1.5, 0.0, 1.0], [2.0, 1.0, 0.0]]


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

    def test_negative_tol_exit_2(self, tmp_path, capsys):
        # it listed (0, 0, 0) and every diagonal entry as violations
        ok = write_json(tmp_path / "ok.json",
                        {"dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]})
        assert main(["validate", ok, "--tol=-1e-9"]) == 2
        assert "tolerance must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "report"])
    def test_nan_tol_exit_2(self, tmp_path, command):
        # a NaN tolerance called this broken matrix valid
        broken = write_json(tmp_path / "broken.json",
                            {"dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]})
        assert main([command, broken, "--tol", "nan"]) == 2

    def test_negative_max_listed_exit_2(self, tmp_path, capsys):
        # v[:-1] silently dropped the last violation
        broken = write_json(tmp_path / "broken.json",
                            {"dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]})
        assert main(["validate", broken, "--max-listed", "-1"]) == 2
        assert "--max-listed must be nonnegative" in capsys.readouterr().err


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

    def test_nan_theta_exit_2(self, funk_file):
        assert main(["dist", "gh", str(funk_file), str(funk_file),
                     "--theta", "nan"]) == 2

    def test_missing_second_file_exit_2(self, funk_file):
        assert main(["dist", "gh", str(funk_file), "--theta", "5"]) == 2

    def test_prokhorov_needs_same_space(self, funk_file, gauss_file):
        assert main(["dist", "prokhorov", str(funk_file),
                     str(gauss_file)]) == 2

    def test_prokhorov_nearly_equal_spaces_exit_2(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        d = rng.uniform(1.0, 2.0, size=(6, 6))
        np.fill_diagonal(d, 0.0)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_space(str(a), MeasuredSpace(QuasiMetricSpace(d), rng.random(6)))
        save_space(str(b), MeasuredSpace(QuasiMetricSpace(d * (1 + 5e-6)),
                                         rng.random(6)))
        assert main(["dist", "prokhorov", str(a), str(b)]) == 2
        assert "distance matrices differ" in capsys.readouterr().err

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

    @staticmethod
    def two_points(tmp_path, d):
        path = tmp_path / "two.json"
        save_space(str(path), MeasuredSpace(
            QuasiMetricSpace(np.array([[0.0, d], [d, 0.0]])), np.array([0.5, 0.5])))
        return str(path)

    def test_distortion_overflow_reports_inf(self, tmp_path):
        # beta(60) is about 1e-195 at K = -1, t = 1/2, and (r/beta)^2
        # overflows: the distorted side reads inf, which bounds anything
        out = tmp_path / "cd.json"
        assert main(["cd-check", self.two_points(tmp_path, 60.0), "--K", "-1",
                     "--U", "P2", "--mu0", "[1, 0]", "--mu1", "[0, 1]",
                     "--ts", "0.5", "-o", str(out)]) == 0
        [rep] = json.loads(out.read_text())
        assert (rep["lhs"], rep["rhs"]) == (1.0, "inf")
        assert rep["details"]["certificate"] == "consistent"

    @pytest.mark.parametrize("d, K, N", [(100.0, "1", "inf"),
                                         (2000.0, "-1", "3")])
    def test_distortion_overflow_exit_2(self, tmp_path, capsys, d, K, N):
        # exp(1250) and sinh(2000 / sqrt(2)) are past the float range:
        # math.exp and math.sinh raised OverflowError through main
        assert main(["cd-check", self.two_points(tmp_path, d), "--K", K,
                     "--N", N, "--mu0", "[1, 0]", "--mu1", "[0, 1]",
                     "--ts", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: distortion coefficient overflows at "
                              f"distance {d:g} (K={float(K)}, N={float(N)}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("U", ["H", "P2"])
    def test_distortion_underflow_exit_2(self, tmp_path, capsys, U):
        # beta(100) = exp(-1250) rounds to 0 at K = -1, t = 1/2
        assert main(["cd-check", self.two_points(tmp_path, 100.0), "--K", "-1",
                     "--U", U, "--mu0", "[1, 0]", "--mu1", "[0, 1]",
                     "--ts", "0.5"]) == 2
        assert ("distortion coefficient underflows to 0 at distance 100 "
                in capsys.readouterr().err)

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

    @pytest.mark.parametrize("args", [
        ["cd-check", "--K", "0", "--N", "nan"],  # exited 0, passed
        ["cd-check", "--K", "nan"],
        ["ineq", "--K", "nan", "--hwi"],  # exited 1, rhs NaN
        ["ineq", "--K", "1", "--N", "nan", "--hwi"],
    ])
    def test_nan_curvature_bounds_exit_2(self, gauss_file, capsys, args):
        assert main([args[0], str(gauss_file), *args[1:]]) == 2
        assert "must be" in capsys.readouterr().err


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

    def test_csv_format(self, tmp_path, gauss_file):
        out = tmp_path / "r.csv"
        assert main(["report", str(gauss_file), "--format", "csv",
                     "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert "valid" in lines[0]


class TestNonFiniteInput:
    """Each of these exited 0 with a number computed from the NaN."""

    def test_dist_w_nan_marginal_exit_2(self, tmp_path, capsys):
        prob = write_json(tmp_path / "prob.json", {
            "dist": D3, "mu": [float("nan"), 0.5, 0.5],
            "nu": [0.2, 0.3, 0.5], "p": 1.0})
        assert main(["dist", "w", prob]) == 2
        assert "mu must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("p", [float("inf"), float("nan")])
    def test_dist_w_non_finite_order_exit_2(self, tmp_path, capsys, p):
        # "p": Infinity printed "value": 1.0 and exited 0
        prob = write_json(tmp_path / "prob.json", {
            "dist": [[0.0, 0.5, 0.4], [0.3, 0.0, 0.2], [0.6, 0.1, 0.0]],
            "mu": [0.5, 0.5, 0.0], "nu": [0.0, 0.5, 0.5], "p": p})
        assert main(["dist", "w", prob]) == 2
        assert "order p must be finite" in capsys.readouterr().err

    def test_prokhorov_nan_weights_exit_2(self, tmp_path, capsys):
        f = write_json(tmp_path / "f.json",
                       {"dist": D3, "weights": [float("nan"), 1.0, 1.0]})
        assert main(["dist", "prokhorov", f, f]) == 2
        assert "weights must be finite and nonnegative" in capsys.readouterr().err

    def test_report_nan_weights_exit_2(self, tmp_path):
        f = write_json(tmp_path / "f.json",
                       {"dist": D3, "weights": [float("nan"), 1.0, 1.0]})
        assert main(["report", f]) == 2

    def test_cd_check_nan_endpoint_exit_2(self, tmp_path, capsys):
        line = tmp_path / "line.json"
        assert main(["gen", "gaussian-line", "--K", "1", "--half-width", "1",
                     "--grid", "0.25", "-o", str(line)]) == 0
        mu0 = "[NaN, 0, 0, 0, 0.5, 0, 0, 0, 0.5]"
        mu1 = "[0.5, 0, 0, 0, 0.5, 0, 0, 0, 0]"
        assert main(["cd-check", str(line), "--K", "1", "--mu0", mu0,
                     "--mu1", mu1]) == 2
        assert "mu must be finite and nonnegative" in capsys.readouterr().err


#: space and problem files whose values are no numbers, or not of the
#: shape they name; each ended in numpy's TypeError or IndexError
MEASURED = {"dist": D3, "weights": [0.2, 0.3, 0.5]}
MALFORMED_FILES = {
    "dist_dict": ["report", {"dist": {"a": 1}}],
    "dist_scalar": ["report", {"dist": 5}],
    "dist_null": ["report", {"dist": None}],
    "n_list": ["report", {**MEASURED, "n": [3]}],
    "weights_dict": ["report", {**MEASURED, "weights": {"a": 1}}],
    "basepoint_list": ["report", {**MEASURED, "basepoint": [0]}],
    "coords_dict": ["report", {**MEASURED, "coords": {"a": 1}}],
    "problem_p_list": ["dist", "w", {"dist": D3, "mu": [1, 0, 0],
                                     "nu": [0, 0, 1], "p": [2]}],
    "problem_mu_dict": ["dist", "w", {"dist": D3, "mu": {"a": 1},
                                      "nu": [0, 0, 1]}],
    "cd_mu1_dict": ["cd-check", MEASURED, "--K", "0", "--mu0", "[1, 0, 0]",
                    "--mu1", "{}"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_input_exit_2(tmp_path, capsys, case):
    argv = [write_json(tmp_path / "in.json", a) if isinstance(a, dict) else a
            for a in MALFORMED_FILES[case]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_reports_are_json_dumps_with_sorted_keys(tmp_path, funk_file,
                                                  gauss_file, monkeypatch):
    # every command's report, written by io._dumps, is the text
    # json.dumps(indent=1, sort_keys=True) writes
    reports = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda r, a: (reports.append(r), emit(r, a)))
    broken = json.loads(funk_file.read_text())
    broken["dist"][0][1] = 10.0
    broken = write_json(tmp_path / "broken.json", broken)
    prob = tmp_path / "prob.json"
    save_problem(str(prob), TransportProblem(QuasiMetricSpace(D3),
                                             [0.2, 0.3, 0.5], [0.5, 0.5, 0.0], 2.0))
    funk, gauss = str(funk_file), str(gauss_file)
    out = str(tmp_path / "out")
    runs = [
        ["validate", funk], ["validate", broken], ["report", funk],
        ["report", gauss], ["dist", "w", str(prob)],
        ["dist", "gh", funk, funk, "--theta", "3"],
        ["dist", "ghp", funk, funk, "--theta", "3"],
        ["dist", "prokhorov", gauss, gauss],
        ["dist", "hausdorff", funk, "--set-a", "0", "1", "--set-b", "2"],
        ["cd-check", gauss, "--K", "1"],
        ["ineq", gauss, "--K", "1", "--log-sobolev", "--hwi", "--poincare"],
    ]
    for argv in runs:
        assert main(argv + ["-o", out]) in (0, 1)
    assert len(reports) == len(runs)
    for report in reports:
        want = json.dumps(cli._jsonable(report), indent=1, sort_keys=True)
        assert cli._report_text(report, "json") == want + "\n"


def _readme_commands():
    """The lines of README.md's "Command line" block, without "qmspace"."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    assert lines and all(line.startswith("qmspace ") for line in lines)
    return [shlex.split(line)[1:] for line in lines]


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in _readme_commands():
        assert main(argv) == 0, argv
    assert "error" not in capsys.readouterr().err
