"""End-to-end CLI checks: artifacts, exit codes, and report formats."""

import json

import numpy as np
import pytest

import advaug.cli
import advaug.kernels
import advaug.training
from advaug.cli import ALPHA_GRID, main
from advaug.data import load_csv
from advaug.metrics import MetricsLog
from advaug.scenarios import build_scenario

TINY = """[run]
scenario = longtail
seed = 1

[data]
n_max = 80
imbalance_ratio = 10
test_per_class = 20
meta_per_class = 5

[model]
hidden = 16
feat_dim = 8

[training]
t1 = 5
t2 = 40
"""


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestRun:
    def test_artifacts_and_summary(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, TINY)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        for name in ("metrics.csv", "resolved_config.ini", "classifier.npz",
                     "perturb_net.npz", "summary.json"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == "longtail"
        assert summary["seed"] == 1
        assert summary["worst_group_accuracy"] is None
        assert 0.0 <= summary["accuracy"] <= 1.0
        assert len(summary["per_class_recall"]) == 5
        assert "aborted" not in summary
        assert "run complete" in capsys.readouterr().out
        log = MetricsLog.read_csv(str(out / "metrics.csv"))
        assert log.rows[-1]["iteration"] == 40

    @pytest.mark.parametrize("scenario", ["longtail", "subpop"])
    def test_the_defaults_train(self, tmp_path, capsys, scenario):
        # every trainer default is the presets' tuned value
        cfg = write_ini(tmp_path, f"[run]\nscenario = {scenario}\n")
        assert main(["run", "--config", cfg,
                     "--output", str(tmp_path / "o")]) == 0

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ADVAUG_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg = write_ini(tmp_path, TINY)
        assert main(["run", "--config", cfg]) == 0
        assert (tmp_path / "root" / "longtail_seed1" / "summary.json").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, TINY + "mystery_key = 1\n")
        assert main(["run", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_csv_exits_2(self, tmp_path, capsys):
        text = ("[run]\nscenario = custom-csv\n[data]\n"
                f"train_csv = {tmp_path}/absent.csv\n"
                f"meta_csv = {tmp_path}/absent.csv\n"
                f"test_csv = {tmp_path}/absent.csv\n")
        cfg = write_ini(tmp_path, text)
        assert main(["run", "--config", cfg, "--output", str(tmp_path / "o")]) == 2

    def test_invalid_hyperparameter_exits_2(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, TINY + "momentum = 1.0\n")
        assert main(["run", "--config", cfg,
                     "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "momentum" in err
        assert not (tmp_path / "o").exists()

    def test_negative_weight_decay_exits_2(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, TINY + "weight_decay = -1\n")
        assert main(["run", "--config", cfg,
                     "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "weight_decay" in err

    def test_negative_perturb_hidden_exits_2(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, TINY.replace(
            "feat_dim = 8\n", "feat_dim = 8\nperturb_hidden = -3\n"))
        assert main(["run", "--config", cfg,
                     "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "perturb_hidden" in err

    def test_negative_seed_exits_2_keeping_an_earlier_run(self, tmp_path,
                                                          capsys):
        # Refused when the file is parsed, before any artifact is removed;
        # a custom-csv run draws nothing from the seed before training.
        out, gen = tmp_path / "o", tmp_path / "gen"
        tiny = write_ini(tmp_path, TINY)
        assert main(["run", "--config", tiny, "--output", str(out)]) == 0
        assert main(["gen-data", "--config", tiny, "--output", str(gen)]) == 0
        earlier = {name: (out / name).read_bytes()
                   for name in advaug.cli.RUN_ARTIFACTS}
        custom = ("[run]\nscenario = custom-csv\nseed = -1\n[data]\n"
                  + "".join(f"{part}_csv = {gen / part}.csv\n"
                            for part in ("train", "meta", "test")))
        capsys.readouterr()
        for text in (TINY.replace("seed = 1", "seed = -1"), custom):
            cfg = write_ini(tmp_path, text)
            assert main(["run", "--config", cfg, "--output", str(out)]) == 2
            err = capsys.readouterr().err
            assert "config error: seed must be >= 0, got -1" in err
        assert {name: (out / name).read_bytes()
                for name in advaug.cli.RUN_ARTIFACTS} == earlier

    def test_divergence_exits_3(self, tmp_path, capsys):
        """The rows logged before the abort and a summary naming it are
        written; no checkpoints are."""
        cfg = write_ini(tmp_path, TINY.replace("t1 = 5", "t1 = 5\neta1 = 100000"))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical abort: non-finite train loss at iteration 6" in err
        log = MetricsLog.read_csv(str(out / "metrics.csv"))
        assert [row["iteration"] for row in log.rows] == [3]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["aborted"] == {"stage": "train", "iteration": 6,
                                      "value": "nan"}
        assert summary["epochs"] == 1
        assert summary["accuracy"] == log.rows[-1]["test_accuracy"]
        assert not (out / "classifier.npz").exists()
        assert not (out / "perturb_net.npz").exists()

    def test_divergence_removes_an_earlier_runs_checkpoints(self, tmp_path,
                                                            capsys):
        out = tmp_path / "o"
        cfg = write_ini(tmp_path, TINY)
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        assert (out / "classifier.npz").exists()
        cfg = write_ini(tmp_path, TINY.replace("t1 = 5", "t1 = 5\neta1 = 1e5"))
        assert main(["run", "--config", cfg, "--output", str(out)]) == 3
        assert "aborted" in json.loads((out / "summary.json").read_text())
        assert not (out / "classifier.npz").exists()
        assert not (out / "perturb_net.npz").exists()

    def test_divergence_before_the_first_epoch_row(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, TINY.replace("t1 = 5", "t1 = 5\neta1 = 1e300"))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 3
        assert MetricsLog.read_csv(str(out / "metrics.csv")).rows == []
        summary = json.loads((out / "summary.json").read_text())
        assert summary["aborted"] == {"stage": "warm-up", "iteration": 2,
                                      "value": "nan"}
        assert summary["epochs"] == 0
        assert summary["accuracy"] is None
        assert summary["per_class_recall"] == [None] * 5


class TestInterrupt:
    """A KeyboardInterrupt in training, raised from the k-th epoch row."""

    @staticmethod
    def interrupt_at(monkeypatch, k):
        epoch_row = advaug.training._epoch_row

        def raising(state, epoch, phase, eval_data):
            if epoch == k:
                raise KeyboardInterrupt
            return epoch_row(state, epoch, phase, eval_data)

        monkeypatch.setattr(advaug.training, "_epoch_row", raising)

    @staticmethod
    def main(argv):
        """`main`, failing the test if the interrupt escapes it."""
        try:
            return main(argv)
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped main")

    def test_run_writes_the_rows_logged_before_it(self, tmp_path, capsys,
                                                 monkeypatch):
        cfg = write_ini(tmp_path, TINY)
        whole = tmp_path / "whole"
        assert main(["run", "--config", cfg, "--output", str(whole)]) == 0
        self.interrupt_at(monkeypatch, 3)
        out = tmp_path / "o"
        assert self.main(["run", "--config", cfg, "--output", str(out)]) == 130
        rows = MetricsLog.read_csv(str(whole / "metrics.csv")).rows
        lines = (whole / "metrics.csv").read_text().splitlines(True)
        assert (out / "metrics.csv").read_text() == "".join(lines[:3])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["interrupted"] == rows[2]["iteration"]
        assert "aborted" not in summary
        assert summary["epochs"] == 2
        assert summary["accuracy"] == rows[1]["test_accuracy"]
        assert ((out / "resolved_config.ini").read_bytes()
                == (whole / "resolved_config.ini").read_bytes())
        assert not (out / "classifier.npz").exists()
        assert not (out / "perturb_net.npz").exists()
        err = capsys.readouterr().err
        assert f"interrupted at iteration {rows[2]['iteration']}" in err

    def test_run_removes_an_earlier_runs_checkpoints(self, tmp_path, capsys,
                                                     monkeypatch):
        cfg = write_ini(tmp_path, TINY)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        assert (out / "perturb_net.npz").exists()
        self.interrupt_at(monkeypatch, 2)
        assert self.main(["run", "--config", cfg, "--output", str(out)]) == 130
        assert json.loads((out / "summary.json").read_text())["interrupted"]
        assert not (out / "classifier.npz").exists()
        assert not (out / "perturb_net.npz").exists()

    def test_run_interrupted_before_the_first_iteration(self, tmp_path,
                                                         capsys, monkeypatch):
        def raising(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(advaug.training, "init_state", raising)
        cfg = write_ini(tmp_path, TINY)
        out = tmp_path / "o"
        assert self.main(["run", "--config", cfg, "--output", str(out)]) == 130
        header = ",".join(MetricsLog(5).columns) + "\n"
        assert (out / "metrics.csv").read_text() == header
        assert (out / "resolved_config.ini").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["interrupted"] == 0
        assert summary["epochs"] == 0 and summary["events"] == []
        assert not (out / "classifier.npz").exists()
        assert "interrupted at iteration 0" in capsys.readouterr().err

    def test_sweep_stops_with_130(self, tmp_path, capsys, monkeypatch):
        self.interrupt_at(monkeypatch, 1)
        cfg = write_ini(tmp_path, TINY)
        root = tmp_path / "sweep"
        assert self.main(["sweep", "--config", cfg,
                          "--output", str(root)]) == 130
        lines = (root / "sweep_summary.csv").read_text().strip().splitlines()
        assert lines == ["alpha,accuracy,worst_class_recall,test_loss"]
        summary = json.loads(
            (root / f"alpha_{ALPHA_GRID[0]}" / "summary.json").read_text())
        assert summary["epochs"] == 0 and summary["interrupted"] > 0
        assert not (root / f"alpha_{ALPHA_GRID[1]}" / "summary.json").exists()
        assert (f"alpha {ALPHA_GRID[0]} (exit 130)"
                in capsys.readouterr().err)

    def test_compare_refuses_an_interrupted_run(self, tmp_path, capsys,
                                                monkeypatch):
        cfg = write_ini(tmp_path, TINY)
        whole, cut = str(tmp_path / "whole"), str(tmp_path / "cut")
        assert main(["run", "--config", cfg, "--output", whole]) == 0
        self.interrupt_at(monkeypatch, 2)
        assert self.main(["run", "--config", cfg, "--output", cut]) == 130
        capsys.readouterr()
        assert main(["compare", "--baseline", whole,
                     "--candidate", cut]) == 2
        assert "cut holds an interrupted run" in capsys.readouterr().err


class TestInterruptedWrite:
    """A KeyboardInterrupt in a writer, on a rerun with other settings into
    a directory that holds a complete earlier run: exit 130, and no file of
    the earlier run remains, since a verb removes what it will write first."""

    WRITERS = {"write_csv": (MetricsLog, "write_csv"),
               "write_resolved": (advaug.cli, "write_resolved"),
               "save_checkpoint": (advaug.cli, "save_checkpoint"),
               "_write_json": (advaug.cli, "_write_json")}

    @staticmethod
    def rerun_interrupted(monkeypatch, writer, argv):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(*writer, interrupt)
        return TestInterrupt.main(argv)

    @staticmethod
    def files(root):
        return {path: path.read_bytes() for path in root.rglob("*")
                if path.is_file()}

    @staticmethod
    def assert_none_remains(earlier):
        for path, data in earlier.items():
            assert not path.exists() or path.read_bytes() != data, path

    @pytest.mark.parametrize("writer", WRITERS)
    def test_run(self, tmp_path, capsys, monkeypatch, writer):
        out = tmp_path / "o"
        argv = ["run", "--output", str(out), "--config"]
        assert main(argv + [write_ini(tmp_path, TINY)]) == 0
        earlier = self.files(out)
        assert len(earlier) == 5
        other = write_ini(tmp_path, TINY.replace("t2 = 40", "t2 = 30"))
        assert self.rerun_interrupted(monkeypatch, self.WRITERS[writer],
                                      argv + [other]) == 130
        self.assert_none_remains(earlier)
        capsys.readouterr()
        assert main(["compare", "--baseline", str(out),
                     "--candidate", str(out)]) == 2

    @pytest.mark.parametrize("writer", WRITERS)
    def test_sweep(self, tmp_path, capsys, monkeypatch, writer):
        root = tmp_path / "sweep"
        argv = ["sweep", "--output", str(root), "--config"]
        assert main(argv + [write_ini(tmp_path, TINY)]) == 0
        earlier = self.files(root)
        assert len(earlier) == 1 + 5 * len(ALPHA_GRID)
        other = write_ini(tmp_path, TINY.replace("t2 = 40", "t2 = 30"))
        assert self.rerun_interrupted(monkeypatch, self.WRITERS[writer],
                                      argv + [other]) == 130
        self.assert_none_remains(earlier)

    def test_gen_data(self, tmp_path, monkeypatch):
        noise = ("[run]\nscenario = noise\nseed = 0\n[data]\nper_class = 40\n"
                 "meta_per_class = 4\ntest_per_class = 10\n")
        out = tmp_path / "data"
        argv = ["gen-data", "--output", str(out), "--config"]
        assert main(argv + [write_ini(tmp_path, noise)]) == 0
        earlier = self.files(out)
        assert len(earlier) == 4
        other = write_ini(tmp_path, noise.replace("seed = 0", "seed = 1"))
        assert self.rerun_interrupted(monkeypatch, (advaug.cli, "save_csv"),
                                      argv + [other]) == 130
        self.assert_none_remains(earlier)


def write_table(path, labels, width, seed=0):
    rng = np.random.default_rng(seed)
    lines = [",".join([f"f{j}" for j in range(width)] + ["label"])]
    for label in labels:
        lines.append(",".join([repr(float(v)) for v in rng.normal(size=width)]
                              + [str(label)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestCustomCsv:
    """Custom CSVs that do not fit together are refused before training."""

    def run_custom(self, tmp_path, capsys, train=(0, 1, 2) * 8, meta=(0, 1, 2),
                   test=(0, 1, 2) * 3, meta_width=3, test_width=3,
                   empty=None):
        text = ("[run]\nscenario = custom-csv\n[data]\n"
                f"train_csv = {write_table(tmp_path / 'tr.csv', train, 3)}\n"
                f"meta_csv = {write_table(tmp_path / 'me.csv', meta, meta_width)}\n"
                f"test_csv = {write_table(tmp_path / 'te.csv', test, test_width)}\n"
                "[model]\nhidden = 4\nfeat_dim = 3\n"
                "[training]\nt1 = 2\nt2 = 6\nbatch_train = 8\n"
                "batch_meta = 3\n")
        if empty is not None:
            (tmp_path / empty).write_bytes(b"")
        code = main(["run", "--config", write_ini(tmp_path, text),
                     "--output", str(tmp_path / "o")])
        return code, capsys.readouterr().err

    def test_matching_csvs_run(self, tmp_path, capsys):
        code, _ = self.run_custom(tmp_path, capsys)
        assert code == 0

    def test_test_csv_lacking_a_class_writes_strict_json(self, tmp_path,
                                                         capsys):
        code, _ = self.run_custom(tmp_path, capsys, test=(0, 1) * 3)
        assert code == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        summary = json.loads((tmp_path / "o" / "summary.json").read_text(),
                             parse_constant=refuse)
        assert summary["per_class_recall"][2] is None
        assert all(0.0 <= r <= 1.0 for r in summary["per_class_recall"][:2])

    def test_meta_label_missing_from_train_exits_2(self, tmp_path, capsys):
        code, err = self.run_custom(tmp_path, capsys, meta=(0, 1, 2, 3))
        assert code == 2
        assert "config error" in err and "meta csv has label 3" in err

    def test_meta_width_mismatch_exits_2(self, tmp_path, capsys):
        code, err = self.run_custom(tmp_path, capsys, meta_width=4)
        assert code == 2
        assert "config error" in err and "meta csv has 4 features" in err

    def test_empty_train_class_exits_2(self, tmp_path, capsys):
        code, err = self.run_custom(tmp_path, capsys, train=(0, 2) * 8,
                                    meta=(0, 2), test=(0, 2))
        assert code == 2
        assert "config error" in err and "no rows of class 1" in err

    def test_header_only_meta_csv_exits_2(self, tmp_path, capsys):
        code, err = self.run_custom(tmp_path, capsys, meta=())
        assert code == 2
        assert "config error" in err and "me.csv has no rows" in err
        assert not (tmp_path / "o").exists()

    def test_zero_byte_test_csv_exits_2(self, tmp_path, capsys):
        code, err = self.run_custom(tmp_path, capsys, empty="te.csv")
        assert code == 2
        assert "config error" in err and "te.csv is empty" in err
        assert not (tmp_path / "o").exists()

    def test_test_width_mismatch_exits_2(self, tmp_path, capsys):
        code, err = self.run_custom(tmp_path, capsys, test_width=2)
        assert code == 2
        assert "config error" in err and "test csv has 2 features" in err
        assert not (tmp_path / "o").exists()


class TestAblationColumns:
    def run_and_read(self, tmp_path, extra):
        cfg = write_ini(tmp_path, TINY + extra)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        return MetricsLog.read_csv(str(out / "metrics.csv"))

    def test_beta_zero_zeroes_fairness_column(self, tmp_path):
        log = self.run_and_read(tmp_path, "\n[loss]\nbeta = 0\n")
        assert all(r["fair_term"] == 0.0 for r in log.rows)

    def test_alpha_zero_zeroes_generalization_column(self, tmp_path):
        log = self.run_and_read(tmp_path, "\n[loss]\nalpha = 0\n")
        assert all(r["gen_term"] == 0.0 for r in log.rows)

    def test_frozen_eps_zeroes_robustness_column(self, tmp_path):
        log = self.run_and_read(tmp_path, "freeze_eps = true\n")
        assert all(r["rob_term"] == 0.0 for r in log.rows)
        assert all(r[f"mean_eps_{c}"] == 0.0 for r in log.rows for c in range(5))


class TestSweep:
    def test_grid_runs_and_reports(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, TINY)
        root = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--output", str(root)]) == 0
        lines = (root / "sweep_summary.csv").read_text().strip().splitlines()
        assert lines[0] == "alpha,accuracy,worst_class_recall,test_loss"
        assert len(lines) == 1 + len(ALPHA_GRID)
        grid = [float(line.split(",")[0]) for line in lines[1:]]
        assert grid == list(ALPHA_GRID)
        for alpha in ALPHA_GRID:
            assert (root / f"alpha_{alpha}" / "summary.json").exists()
        assert "sweep complete" in capsys.readouterr().out

    def test_failing_alpha_keeps_finished_rows(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, TINY.replace("t1 = 5", "t1 = 5\neta1 = 100000"))
        root = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--output", str(root)]) == 3
        lines = (root / "sweep_summary.csv").read_text().strip().splitlines()
        assert lines == ["alpha,accuracy,worst_class_recall,test_loss"]
        assert f"alpha {ALPHA_GRID[0]}" in capsys.readouterr().err

    def test_stop_clears_the_members_it_did_not_run(self, tmp_path, capsys):
        root = tmp_path / "sweep"
        cfg = write_ini(tmp_path, TINY)
        assert main(["sweep", "--config", cfg, "--output", str(root)]) == 0
        cfg = write_ini(tmp_path, TINY.replace("t1 = 5", "t1 = 5\neta1 = 1e5"))
        assert main(["sweep", "--config", cfg, "--output", str(root)]) == 3
        stopped = root / f"alpha_{ALPHA_GRID[0]}"
        assert "aborted" in json.loads((stopped / "summary.json").read_text())
        for alpha in ALPHA_GRID[1:]:
            assert list((root / f"alpha_{alpha}").iterdir()) == []
        capsys.readouterr()
        later = [str(root / f"alpha_{alpha}") for alpha in ALPHA_GRID[1:3]]
        assert main(["compare", "--baseline", later[0],
                     "--candidate", later[1]]) == 2

    def test_builds_the_datasets_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(cfg):
            calls.append(cfg)
            return build_scenario(cfg)

        monkeypatch.setattr(advaug.cli, "build_scenario", counting)
        cfg = write_ini(tmp_path, TINY)
        assert main(["sweep", "--config", cfg,
                     "--output", str(tmp_path / "sweep")]) == 0
        assert len(calls) == 1

    def test_unbuildable_data_exits_2_before_any_output(self, tmp_path,
                                                        capsys):
        text = ("[run]\nscenario = custom-csv\n[data]\n"
                f"train_csv = {tmp_path}/absent.csv\n"
                f"meta_csv = {tmp_path}/absent.csv\n"
                f"test_csv = {tmp_path}/absent.csv\n")
        root = tmp_path / "sweep"
        assert main(["sweep", "--config", write_ini(tmp_path, text),
                     "--output", str(root)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not root.exists()


class TestCompare:
    def fake_run(self, tmp_path, name, seed, acc, wcr, wg=None, **extra):
        d = tmp_path / name
        d.mkdir(parents=True)
        payload = {"seed": seed, "accuracy": acc, "worst_class_recall": wcr,
                   "worst_group_accuracy": wg, "test_loss": 1.0, **extra}
        (d / "summary.json").write_text(json.dumps(payload))
        return str(d)

    def test_paired_report(self, tmp_path, capsys):
        b0 = self.fake_run(tmp_path, "b0", 0, 0.50, 0.10)
        b1 = self.fake_run(tmp_path, "b1", 1, 0.60, 0.20)
        c0 = self.fake_run(tmp_path, "c0", 0, 0.70, 0.40)
        c1 = self.fake_run(tmp_path, "c1", 1, 0.80, 0.60)
        report_path = tmp_path / "report.json"
        assert main(["compare", "--baseline", b0, b1,
                     "--candidate", c0, c1,
                     "--output", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "mean accuracy delta +0.2000" in out
        report = json.loads(report_path.read_text())
        assert report["worst_class_recall_delta"]["mean"] == pytest.approx(0.35)

    def test_seed_mismatch_exits_2(self, tmp_path, capsys):
        b0 = self.fake_run(tmp_path, "b0", 0, 0.5, 0.1)
        c1 = self.fake_run(tmp_path, "c1", 1, 0.7, 0.4)
        assert main(["compare", "--baseline", b0, "--candidate", c1]) == 2
        assert "seed sets differ" in capsys.readouterr().err

    def test_scenario_mismatch_exits_2(self, tmp_path, capsys):
        b0 = self.fake_run(tmp_path, "b0", 0, 0.5, 0.1, scenario="longtail")
        c0 = self.fake_run(tmp_path, "c0", 0, 0.7, 0.4, scenario="subpop")
        report = tmp_path / "report.json"
        assert main(["compare", "--baseline", b0, "--candidate", c0,
                     "--output", str(report)]) == 2
        assert "different scenarios" in capsys.readouterr().err
        assert not report.exists()

    def test_report_and_summaries_are_strict_json(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, TINY)
        runs = [str(tmp_path / name) for name in ("b", "c")]
        for out in runs:
            assert main(["run", "--config", cfg, "--output", out]) == 0
        report = tmp_path / "report.json"
        assert main(["compare", "--baseline", runs[0], "--candidate", runs[1],
                     "--output", str(report)]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        for path in (report, *(f"{out}/summary.json" for out in runs)):
            with open(path, encoding="utf-8") as fh:
                json.loads(fh.read(), parse_constant=refuse)
        parsed = json.loads(report.read_text(), parse_constant=refuse)
        assert parsed["worst_group_delta"] == {"mean": None, "std": None}

    def test_aborted_run_exits_2(self, tmp_path, capsys):
        b0 = self.fake_run(tmp_path, "b0", 0, 0.5, 0.1)
        c0 = self.fake_run(tmp_path, "c0", 0, 0.2, 0.0, aborted={
            "stage": "train", "iteration": 6, "value": "nan"})
        assert main(["compare", "--baseline", b0, "--candidate", c0]) == 2
        assert "c0 holds an aborted run" in capsys.readouterr().err


class TestVerify:
    def verify_fails(self, capsys, suite):
        """`verify` exits 1, and the line of `suite` reads FAIL."""
        assert main(["verify", "--seed", "0"]) == 1
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.split()[0] == suite]
        assert len(lines) == 1 and "FAIL" in lines[0]

    def test_all_suites_pass(self, capsys):
        assert main(["verify", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines] == [[name, "PASS"] for name
            in ("reduction", "jensen", "mgf", "convergence", "gradient",
                "hypergradient", "covariance-pooling")]

    def test_detects_planted_sign_error(self, capsys, monkeypatch):
        # Flipping the covariance term's sign in the training kernel must
        # break the bound check: the closed form would dip below the
        # Monte-Carlo estimate.
        real = advaug.kernels.quad
        monkeypatch.setattr(advaug.kernels, "quad",
                            lambda *args, **kwargs: -real(*args, **kwargs))
        self.verify_fails(capsys, "jensen")

    def test_detects_a_forward_that_drops_the_offset(self, capsys,
                                                     monkeypatch):
        # The kernel's loss at alpha = 0 is then not logit-adjusted CE.
        real = advaug.kernels.forward
        monkeypatch.setattr(advaug.kernels, "forward",
                            lambda phi, x, delta=None, offset=None, acts=None:
                            real(phi, x, delta, None, acts))
        self.verify_fails(capsys, "reduction")

    def test_detects_draw_counts_that_ignore_the_budget(self, capsys,
                                                        monkeypatch):
        # One draw per sample at every budget: the gaps stop shrinking.
        monkeypatch.setattr("advaug.oracles.draws_per_sample",
                            lambda budget, priors, labels: np.ones(4, int))
        self.verify_fails(capsys, "convergence")


class TestGenData:
    def test_longtail_files(self, tmp_path):
        cfg = write_ini(tmp_path, TINY)
        out = tmp_path / "data"
        assert main(["gen-data", "--config", cfg, "--output", str(out)]) == 0
        train = load_csv(out / "train.csv")
        meta = load_csv(out / "meta.csv")
        test = load_csv(out / "test.csv")
        assert train.class_counts[0] == 80
        assert meta.n == 25
        assert test.n == 100
        assert not (out / "noise_mask.csv").exists()

    def test_noise_mask_written(self, tmp_path):
        text = ("[run]\nscenario = noise\n[data]\nper_class = 40\n"
                "meta_per_class = 4\ntest_per_class = 10\n"
                "[training]\nt1 = 2\nt2 = 4\n")
        cfg = write_ini(tmp_path, text)
        out = tmp_path / "data"
        assert main(["gen-data", "--config", cfg, "--output", str(out)]) == 0
        train = load_csv(out / "train.csv")
        mask_lines = (out / "noise_mask.csv").read_text().strip().splitlines()
        assert mask_lines[0] == "noisy"
        flags = np.array([int(v) for v in mask_lines[1:]])
        assert flags.size == train.n
        # 40% flip noise on 200 samples, minus the held-out clean metadata
        assert 0.3 < flags.mean() < 0.55

    def test_removes_a_noise_mask_it_does_not_write(self, tmp_path):
        noise = ("[run]\nscenario = noise\n[data]\nper_class = 40\n"
                 "meta_per_class = 4\ntest_per_class = 10\n")
        out = tmp_path / "data"
        for text, mask in ((noise, True), (TINY, False)):
            assert main(["gen-data", "--config", write_ini(tmp_path, text),
                         "--output", str(out)]) == 0
            assert (out / "noise_mask.csv").exists() == mask
        assert load_csv(out / "train.csv").class_counts[0] == 80

    def test_subpop_meta_csv_has_no_group_column(self, tmp_path):
        text = ("[run]\nscenario = subpop\n[data]\nn_train = 200\n"
                "n_test = 40\nmeta_size = 20\n[training]\nt1 = 2\nt2 = 4\n")
        out = tmp_path / "data"
        assert main(["gen-data", "--config", write_ini(tmp_path, text),
                     "--output", str(out)]) == 0
        header = (out / "meta.csv").read_text().splitlines()[0]
        assert header == "f0,f1,f2,f3,label"
        assert load_csv(out / "train.csv").group_ids is not None


class TestUnusableInput:
    """An output path that is or lies under a file, or a negative `verify`
    seed, exits 2 with a message and no traceback, before any training."""

    @pytest.fixture(autouse=True)
    def nothing_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a refused verb trained or verified")

        monkeypatch.setattr(advaug.cli, "train", refuse)
        monkeypatch.setattr(advaug.cli, "run_all", refuse)

    @pytest.fixture
    def blocker(self, tmp_path):
        path = tmp_path / "taken"
        path.write_text("x")
        return path

    def refused(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    def test_run_output_is_a_file(self, tmp_path, capsys, blocker):
        cfg = write_ini(tmp_path, TINY)
        err = self.refused(capsys, ["run", "--config", cfg,
                                    "--output", str(blocker)])
        assert "File exists" in err
        assert blocker.read_text() == "x"

    def test_run_output_under_a_file(self, tmp_path, capsys, blocker):
        cfg = write_ini(tmp_path, TINY)
        err = self.refused(capsys, ["run", "--config", cfg,
                                    "--output", str(blocker / "out")])
        assert "Not a directory" in err

    def test_sweep_output_is_a_file(self, tmp_path, capsys, blocker):
        self.refused(capsys, ["sweep", "--config", write_ini(tmp_path, TINY),
                              "--output", str(blocker)])

    def test_sweep_makes_every_member_directory_first(self, tmp_path, capsys):
        root = tmp_path / "sweep"
        root.mkdir()
        (root / f"alpha_{ALPHA_GRID[-1]}").write_text("x")
        self.refused(capsys, ["sweep", "--config", write_ini(tmp_path, TINY),
                              "--output", str(root)])
        assert not (root / "sweep_summary.csv").exists()

    def test_gen_data_output_under_a_file(self, tmp_path, capsys, blocker):
        self.refused(capsys, ["gen-data", "--config", write_ini(tmp_path, TINY),
                              "--output", str(blocker / "data")])
        assert blocker.read_text() == "x"

    def test_compare_output_under_a_file(self, tmp_path, capsys, blocker):
        for name in ("b", "c"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "summary.json").write_text(json.dumps(
                {"seed": 0, "accuracy": 0.5, "worst_class_recall": 0.5,
                 "worst_group_accuracy": None, "test_loss": 1.0}))
        err = self.refused(capsys, [
            "compare", "--baseline", str(tmp_path / "b"),
            "--candidate", str(tmp_path / "c"),
            "--output", str(blocker / "report.json")])
        assert "Not a directory" in err

    def test_negative_verify_seed(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--seed", "-1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "seed must be >= 0, got -1" in err
        assert "Traceback" not in err
