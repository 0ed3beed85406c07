"""The whole-paper smoke check: every headline claim must hold."""

from __future__ import annotations

from repro.claims import ALL_CLAIMS, verify_all


class TestClaims:
    def test_every_claim_holds(self):
        results = verify_all()
        failed = [
            f"{result.name}: {result.measured}"
            for result in results
            if not result.holds
        ]
        assert not failed, "claims failed:\n" + "\n".join(failed)

    def test_scorecard_covers_the_abstract(self):
        names = {check().name for check in ALL_CLAIMS[:0]} or {
            check.__name__ for check in ALL_CLAIMS
        }
        # The abstract's three differentiators plus Section V claims.
        assert "claim_setup_speed" in names
        assert "claim_traversal_latency" in names
        assert "claim_multicast" in names
        assert "claim_area" in names

    def test_main_returns_zero_on_success(self, capsys):
        from repro.claims import main

        assert main() == 0
        output = capsys.readouterr().out
        assert "7/7 claims reproduced" in output
