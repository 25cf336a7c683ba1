"""Tests for the one-call stability profile (repro.equilibria.diagnose)."""

import networkx as nx
import pytest

from repro.core.concepts import Concept
from repro.core.state import GameState
from repro.equilibria.certificates import validate_certificate
from repro.equilibria.diagnose import diagnose


class TestDiagnose:
    def test_star_stable_everywhere(self):
        reports = diagnose(GameState(nx.star_graph(6), 2))
        assert all(report.stable for report in reports.values())
        assert all(
            report.certificate is None for report in reports.values()
        )

    def test_path_unstable_with_certificates(self):
        state = GameState(nx.path_graph(8), 2)
        reports = diagnose(state)
        assert not reports[Concept.PS].stable
        assert validate_certificate(state, reports[Concept.PS].certificate)
        assert not reports[Concept.BAE].stable

    def test_ps_inherits_re_and_bae_breaks(self):
        state = GameState(nx.complete_graph(5), 10)
        reports = diagnose(state)
        assert not reports[Concept.RE].stable
        assert not reports[Concept.PS].stable

    def test_matches_individual_checkers(self):
        from repro.equilibria.registry import check

        for graph, alpha in (
            (nx.path_graph(6), 1),
            (nx.cycle_graph(6), 5),
            (nx.star_graph(5), 3),
        ):
            state = GameState(graph, alpha)
            reports = diagnose(state)
            for concept in (Concept.RE, Concept.BAE, Concept.PS,
                            Concept.BSWE, Concept.BGE):
                assert reports[concept].stable == check(state, concept)

    def test_budget_fallback_flags_non_exhaustive(self):
        """A 40-leaf star at alpha = 1/2 overflows the BNE budget; the
        probing fallback must label its verdict non-exhaustive."""
        from fractions import Fraction

        state = GameState(nx.star_graph(40), Fraction(1, 2))
        reports = diagnose(state, probe_samples=50)
        bne = reports[Concept.BNE]
        if bne.stable:
            assert not bne.exhaustive
            assert "budget" in bne.note
        else:
            assert validate_certificate(state, bne.certificate)

    def test_figure6_profile(self):
        """Figure 6's graph sits exactly between BNE and 2-BSE."""
        from repro.constructions.figures import figure6_bne_not_2bse

        fig = figure6_bne_not_2bse()
        state = GameState(fig.graph, fig.alpha)
        reports = diagnose(state, max_coalition_size=2)
        assert reports[Concept.BNE].stable
        assert not reports[Concept.BSE].stable  # 2-coalition breaks it
        assert validate_certificate(state, reports[Concept.BSE].certificate)


@pytest.mark.parametrize("size", (0, -2))
@pytest.mark.parametrize("entry", ("diagnose", "check", "execute_trial"))
def test_coalition_sizes_below_one_are_refused(entry, size):
    """A coalition has a member: a smaller bound searched nothing and
    called every state stable (every tree a k-BSE at k = 0)."""
    from repro.campaigns.runners import execute_trial
    from repro.equilibria.registry import check

    state = GameState(nx.path_graph(6), 1)
    calls = {
        "diagnose": lambda: diagnose(state, max_coalition_size=size),
        "check": lambda: check(state, Concept.BSE, k=size),
        "execute_trial": lambda: execute_trial(
            "tree_poa",
            {"n": 6, "alpha": 1, "concept": Concept.BSE, "k": size},
            base_seed=0,
        ),
    }
    with pytest.raises(ValueError, match="max_coalition_size"):
        calls[entry]()
