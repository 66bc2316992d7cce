"""The python -m repro command-line interface."""

import json

import pytest

from repro.__main__ import main
from repro.xp import Claim, ExperimentSpec, PointSpec


def doubled(config):
    """Toy fleet point (module-level so it pickles by reference)."""
    return {"value": 2 * config["x"]}


#: A toy experiment whose second claim cannot hold.
BROKEN = ExperimentSpec(
    name="toy_claims", run=doubled,
    points=(PointSpec(name="a", config={"x": 1}),),
    code_roots=("repro/units.py",),
    claims=(Claim("value_is_even", 1, lambda p: p["a"]["value"] == 2),
            Claim("value_is_odd", 4, lambda p: p["a"]["value"] % 2 == 1)))


class TestCli:
    def test_roadmap(self, capsys):
        assert main(["roadmap", "--years", "2003:2005"]) == 0
        out = capsys.readouterr().out
        assert "2003" in out and "GFLOPS" in out

    def test_roadmap_scenario_choice_enforced(self):
        with pytest.raises(SystemExit):
            main(["roadmap", "--scenario", "wild"])

    def test_nodes(self, capsys):
        assert main(["nodes", "--year", "2006"]) == 0
        out = capsys.readouterr().out
        for architecture in ("conventional", "blade", "soc", "pim"):
            assert architecture in out

    def test_nodes_respects_availability(self, capsys):
        assert main(["nodes", "--year", "2003"]) == 0
        out = capsys.readouterr().out
        assert "pim" not in out

    def test_design(self, capsys):
        assert main(["design", "--budget", "2e6", "--year", "2005"]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out and "price" in out

    def test_interconnects(self, capsys):
        assert main(["interconnects", "--year", "2003"]) == 0
        out = capsys.readouterr().out
        assert "infiniband_4x" in out
        assert "infiniband_12x" not in out  # ships 2005

    def test_faults(self, capsys):
        assert main(["faults", "--nodes", "10000"]) == 0
        out = capsys.readouterr().out
        assert "Daly interval" in out

    def test_fabrics(self, capsys):
        assert main(["fabrics", "--hosts", "64"]) == 0
        out = capsys.readouterr().out
        assert "leaf-spine 1:1" in out
        assert "bisection" in out

    def test_procurement(self, capsys):
        assert main(["procurement", "--annual-budget", "1e6"]) == 0
        out = capsys.readouterr().out
        assert "rolling" in out and "forklift 3y" in out

    def test_fleet_list(self, capsys):
        assert main(["fleet", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("e20_fault_campaigns", "e21_detection_tradeoff",
                     "e22_jobs_service"):
            assert name in out
        assert "e09_checkpoint_ablation  (3 points, 8 claims)" in out
        assert "e23_gossip_membership  (7 points, 14 claims)" in out

    def test_fleet_unknown_experiment_exits_2(self, capsys):
        assert main(["fleet", "no_such_experiment", "--no-artifact"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_fleet_runs_selected_experiment(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        artifact = tmp_path / "BENCH_xp_fleet.json"
        assert main(["fleet", "e09_checkpoint_ablation",
                     "--cache-dir", str(cache_dir),
                     "--artifact", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "e09_checkpoint_ablation/n1000: ran" in out
        assert artifact.exists()
        # Warm: every point served from cache.
        assert main(["fleet", "e09_checkpoint_ablation",
                     "--cache-dir", str(cache_dir),
                     "--artifact", str(artifact), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "e09_checkpoint_ablation/n1000: cached" in out
        assert "3 cached (100%)" in out
        assert "8 claims checked, 0 broken" in out

    @pytest.mark.parametrize("cached", [False, True])
    def test_fleet_names_a_broken_claim(self, tmp_path, capsys,
                                        monkeypatch, cached):
        monkeypatch.setattr("repro.xp.cli.get_experiments",
                            lambda names: (BROKEN,))
        argv = ["fleet", "--cache-dir", str(tmp_path / "cache"),
                "--no-artifact"]
        if cached:
            main(argv)
            capsys.readouterr()
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "BROKEN CLAIM toy_claims/value_is_odd (paper claim 4)" in out
        assert "2 claims checked, 1 broken" in out
        assert "value_is_even" not in out
        assert main(argv + ["--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["claims_checked"] == 2
        assert doc["broken_claims"] == [{
            "experiment": "toy_claims", "claim": "value_is_odd",
            "paper_claim": 4}]

    def test_jobs(self, capsys):
        assert main(["jobs"]) == 0
        out = capsys.readouterr().out
        assert "12 completed" in out
        assert "violations=0" in out
        assert "byte-identical" in out
        assert "at-most-once: PROVEN" in out

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main([])
