"""Tests for the repro-mine command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import build_parser, main
from repro.cli.parsing import parse_pattern_spec
from repro.core import count
from repro.errors import PatternFormatError
from repro.graph import mico_like
from repro.pattern import (
    Pattern,
    are_isomorphic,
    generate_chain,
    generate_clique,
    generate_cycle,
    generate_star,
)
from repro.pattern.evaluation import pattern_p2, pattern_p7


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Invoke a subcommand, capturing its output stream."""
    parser = build_parser()
    args = parser.parse_args(argv)
    out = io.StringIO()
    code = args.func(args, out)
    return code, out.getvalue()


MICO = ["--dataset", "mico", "--scale", "0.05"]


# ----------------------------------------------------------------------
# Pattern spec parsing
# ----------------------------------------------------------------------


class TestPatternSpec:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("clique:3", generate_clique(3)),
            ("star:4", generate_star(4)),
            ("chain:4", generate_chain(4)),
            ("cycle:5", generate_cycle(5)),
            ("edges:0-1,1-2,2-0", generate_clique(3)),
        ],
    )
    def test_generated_specs(self, spec, expected):
        assert are_isomorphic(parse_pattern_spec(spec), expected)

    def test_figure9_specs(self):
        assert are_isomorphic(parse_pattern_spec("p2"), pattern_p2())
        p7 = parse_pattern_spec("p7")
        assert p7.num_anti_edges == pattern_p7().num_anti_edges

    def test_file_spec(self, tmp_path):
        from repro.pattern.io import save_patterns

        path = tmp_path / "pat.txt"
        save_patterns([generate_clique(3)], path)
        assert are_isomorphic(
            parse_pattern_spec(f"file:{path}"), generate_clique(3)
        )

    @pytest.mark.parametrize(
        "bad",
        ["", "clique", "clique:x", "edges:0", "edges:a-b", "nope:3", "p99"],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(PatternFormatError):
            parse_pattern_spec(bad)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


class TestSubcommands:
    def test_stats(self):
        code, out = run_cli(["stats", *MICO])
        assert code == 0
        assert "mico-like" in out

    def test_stats_requires_source(self):
        with pytest.raises(SystemExit):
            run_cli(["stats"])

    def test_count_matches_library(self):
        code, out = run_cli(["count", *MICO, "--pattern", "clique:3"])
        assert code == 0
        expected = count(mico_like(0.05), generate_clique(3))
        assert f"matches: {expected}" in out

    def test_count_profile_counters(self):
        code, out = run_cli(
            ["count", *MICO, "--pattern", "clique:3", "--profile"]
        )
        assert code == 0
        assert "canonicality_checks: 0" in out
        assert "isomorphism_checks: 0" in out

    def test_count_vertex_induced_differs(self):
        _, edge_out = run_cli(["count", *MICO, "--pattern", "chain:3"])
        _, vi_out = run_cli(
            ["count", *MICO, "--pattern", "chain:3", "--vertex-induced"]
        )
        edge_n = int(edge_out.split("matches: ")[1].split()[0])
        vi_n = int(vi_out.split("matches: ")[1].split()[0])
        assert vi_n <= edge_n

    def test_match_limit_and_total(self):
        code, out = run_cli(
            ["match", *MICO, "--pattern", "clique:3", "--limit", "2"]
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(lines) == 2
        assert "(printed first 2)" in out

    def test_match_output_file(self, tmp_path):
        path = tmp_path / "matches.txt"
        code, out = run_cli(
            ["match", *MICO, "--pattern", "clique:3", "--output", str(path)]
        )
        assert code == 0
        total = int(out.split("matches: ")[1].split()[0])
        assert len(path.read_text().splitlines()) == total

    def test_exists_exit_codes(self):
        code, out = run_cli(["exists", *MICO, "--pattern", "clique:3"])
        assert code == 0 and "found" in out
        code, out = run_cli(["exists", *MICO, "--pattern", "clique:12"])
        assert code == 1 and "not found" in out

    def test_motifs(self):
        code, out = run_cli(["motifs", *MICO, "--size", "3"])
        assert code == 0
        assert "census" in out

    def test_cliques_modes(self):
        code, out = run_cli(["cliques", *MICO, "-k", "3"])
        assert code == 0 and "3-cliques:" in out
        code, out = run_cli(["cliques", *MICO, "-k", "3", "--maximal"])
        assert code == 0 and "maximal" in out
        code, out = run_cli(
            ["cliques", *MICO, "-k", "3", "--list", "--limit", "3"]
        )
        assert code == 0

    def test_cliques_existence_negative(self):
        code, _ = run_cli(["cliques", *MICO, "-k", "12", "--existence"])
        assert code == 1

    def test_fsm_on_labeled_dataset(self):
        code, out = run_cli(
            ["fsm", *MICO, "--edges", "1", "--threshold", "1", "--verbose"]
        )
        assert code == 0
        assert "frequent 1-edge patterns" in out

    def test_fsm_rejects_unlabeled(self):
        with pytest.raises(SystemExit):
            run_cli(
                ["fsm", "--dataset", "orkut", "--scale", "0.05",
                 "--edges", "1", "--threshold", "1"]
            )

    def test_approx(self):
        code, out = run_cli(
            ["approx", *MICO, "--pattern", "clique:3",
             "--rel-err", "0.1", "--sample-seed", "7"]
        )
        assert code == 0
        assert "estimate:" in out and "CI [" in out and "stop:" in out

    def test_approx_with_budget(self):
        code, out = run_cli(
            ["approx", *MICO, "--pattern", "clique:3",
             "--max-samples", "200", "--sample-seed", "7"]
        )
        assert code == 0
        assert "estimate:" in out

    def test_count_approx(self):
        code, out = run_cli(
            ["count", *MICO, "--pattern", "clique:3",
             "--approx", "0.1", "--sample-seed", "7"]
        )
        assert code == 0
        assert "estimate:" in out and "CI [" in out

    def test_plan_shows_anti_vertex_checks(self):
        code, out = run_cli(["plan", "--pattern", "p7"])
        assert code == 0
        assert "anti-vertex checks" in out

    def test_generate_roundtrip(self, tmp_path):
        path = tmp_path / "g.edges"
        code, out = run_cli(
            ["generate", *MICO, "--output", str(path)]
        )
        assert code == 0
        code, out = run_cli(["stats", "--graph", str(path)])
        assert code == 0

    def test_generate_labels_roundtrip(self, tmp_path):
        epath, lpath = tmp_path / "g.edges", tmp_path / "g.labels"
        code, _ = run_cli(
            ["generate", *MICO, "--output", str(epath),
             "--label-output", str(lpath)]
        )
        assert code == 0
        code, out = run_cli(
            ["count", "--graph", str(epath), "--labels", str(lpath),
             "--pattern", "clique:3"]
        )
        assert code == 0

    def test_seed_override_changes_graph(self):
        _, a = run_cli(["stats", *MICO, "--seed", "1"])
        _, b = run_cli(["stats", *MICO, "--seed", "2"])
        assert a != b


# ----------------------------------------------------------------------
# main() wiring
# ----------------------------------------------------------------------


class TestMain:
    def test_main_returns_command_exit_code(self, capsys):
        assert main(["stats", *MICO]) == 0
        assert "mico-like" in capsys.readouterr().out

    def test_main_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro-mine" in capsys.readouterr().out


class TestNpzIntegration:
    def test_generate_and_load_npz(self, tmp_path):
        path = tmp_path / "g.npz"
        code, out = run_cli(["generate", *MICO, "--output", str(path)])
        assert code == 0
        code, out = run_cli(
            ["count", "--graph", str(path), "--pattern", "clique:3"]
        )
        assert code == 0
        expected = count(mico_like(0.05), generate_clique(3))
        assert f"matches: {expected}" in out

    def test_npz_embeds_labels(self, tmp_path):
        path = tmp_path / "g.npz"
        run_cli(["generate", *MICO, "--output", str(path)])
        code, out = run_cli(["stats", "--graph", str(path)])
        assert code == 0

    def test_npz_with_labels_flag_rejected(self, tmp_path):
        path = tmp_path / "g.npz"
        run_cli(["generate", *MICO, "--output", str(path)])
        with pytest.raises(SystemExit):
            run_cli(
                ["stats", "--graph", str(path), "--labels", "whatever.txt"]
            )


class TestGuardFlags:
    """--deadline / --max-matches / --guard on count, motifs and fsm."""

    def test_roomy_deadline_is_a_no_op(self):
        expected = count(mico_like(0.05), generate_clique(3))
        code, out = run_cli(
            ["count", *MICO, "--pattern", "clique:3", "--deadline", "3600"]
        )
        assert code == 0
        assert f"matches: {expected}" in out
        assert "truncated" not in out

    def test_elapsed_deadline_reports_truncated(self):
        code, out = run_cli(
            ["count", *MICO, "--pattern", "clique:4",
             "--deadline", "0.000001"]
        )
        assert code == 0
        assert "truncated: deadline" in out

    def test_max_matches_reports_truncated(self):
        expected = count(mico_like(0.05), generate_clique(3))
        code, out = run_cli(
            ["count", *MICO, "--pattern", "clique:3", "--engine",
             "reference", "--max-matches", "1"]
        )
        assert code == 0
        assert "truncated: matches" in out
        reported = int(out.splitlines()[0].split()[-1])
        assert reported < expected

    def test_refused_query_exits_nonzero(self, monkeypatch):
        from repro.runtime import guards

        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", 1.0)
        code, out = run_cli(
            ["count", *MICO, "--pattern", "clique:3", "--guard", "refuse"]
        )
        assert code == 3
        assert out.startswith("refused:")
        assert "matches:" not in out

    def test_downgraded_query_still_exact(self, monkeypatch):
        from repro.runtime import guards

        expected = count(mico_like(0.05), generate_clique(3))
        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", 1.0)
        code, out = run_cli(
            ["count", *MICO, "--pattern", "clique:3", "--guard", "downgrade"]
        )
        assert code == 0
        assert f"matches: {expected}" in out

    def test_max_matches_with_processes_rejected(self):
        with pytest.raises(SystemExit, match="max-matches"):
            run_cli(
                ["count", *MICO, "--pattern", "clique:3",
                 "--processes", "2", "--max-matches", "5"]
            )

    def test_elapsed_deadline_stops_a_uniform_process_run(self):
        # A uniform frontier drains through the same lease board as any
        # other, so a deadline cancels it and reports the truncation.
        code, out = run_cli(
            ["count", *MICO, "--pattern", "clique:3", "--processes",
             "2", "--deadline", "0.000001"]
        )
        assert code == 0
        assert "matches: 0" in out
        assert "truncated: cancelled" in out

    @pytest.mark.parametrize("verb", ["count", "explain", "motifs", "fsm"])
    def test_removed_accel_engine_is_not_a_choice(self, verb, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([verb, *MICO, "--engine", "accel"])
        assert info.value.code == 2
        assert "accel-batch" in capsys.readouterr().err

    def test_motifs_refused_exits_nonzero(self, monkeypatch):
        from repro.runtime import guards

        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", 1.0)
        code, out = run_cli(["motifs", *MICO, "--size", "3",
                             "--guard", "refuse"])
        assert code == 3
        assert "refused:" in out

    def test_motifs_elapsed_deadline_reports_truncated(self):
        code, out = run_cli(
            ["motifs", *MICO, "--size", "3", "--deadline", "0.000001"]
        )
        assert code == 0
        assert "truncated: deadline" in out

    def test_fsm_refused_exits_nonzero(self, monkeypatch):
        from repro.runtime import guards

        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", 1.0)
        code, out = run_cli(
            ["fsm", *MICO, "--threshold", "5", "--guard", "refuse"]
        )
        assert code == 3
        assert "refused:" in out


class TestExplain:
    """The explain verb; the dispatch policy is not a flag."""

    def test_explain_prints_estimate_and_plan(self):
        code, out = run_cli(["explain", *MICO, "--pattern", "clique:3"])
        assert code == 0
        assert "pattern: clique:3" in out
        assert "frontier:" in out
        assert "level-1 expansion:" in out
        assert "predicted partials:" in out
        assert "explosive: no" in out
        assert "plan: engine=" in out
        assert "schedule=" not in out
        # Every choice carries at least one reason line.
        assert any(line.startswith("  - ") for line in out.splitlines())

    def test_explain_runs_nothing(self):
        code, out = run_cli(["explain", *MICO, "--pattern", "clique:3"])
        assert code == 0
        assert "matches:" not in out
        assert "elapsed:" not in out

    def test_explain_respects_pinned_engine(self):
        code, out = run_cli(
            ["explain", *MICO, "--pattern", "clique:3",
             "--engine", "reference"]
        )
        assert code == 0
        assert "plan: engine=reference" in out
        assert "pinned" in out

    def test_explain_flags_explosive_queries(self, monkeypatch):
        from repro.runtime import guards

        monkeypatch.setattr(guards, "EXPLOSIVE_PARTIALS", 1.0)
        code, out = run_cli(["explain", *MICO, "--pattern", "clique:3"])
        assert code == 0  # explain never refuses; it reports
        assert "explosive: yes" in out

    def test_explain_pins_the_worker_count(self):
        code, out = run_cli(
            ["explain", *MICO, "--pattern", "clique:3", "--processes", "3"]
        )
        assert code == 0
        assert "workers=3" in out

    def test_count_has_no_plan_flag(self):
        with pytest.raises(SystemExit):
            run_cli(["count", *MICO, "--pattern", "clique:3", "--plan", "auto"])
