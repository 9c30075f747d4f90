"""Tier-1 chaos soak: seeded fault schedules stay loss-free on both runtimes.

Small editions of the ``repro.evaluation.chaos`` schedules run inside the
regular test suite, so every membership fault the harness can fire —
grows, shrinks, **arbitrary (non-suffix) worker removals**, replacements,
garbage floods, (simulated) loss windows — is exercised on every ``pytest``
run.  Each assertion message carries the failing seed and the exact
reproduction command, so a red run is replayable locally without digging
through CI logs::

    PYTHONPATH=src python -m repro.evaluation --table chaos --seed <seed>

The self-healing soak rides along: seeded schedules that wedge a worker
loop (and skew probes, flood garbage, open loss windows) mid-wave, where
the ``FailureDetector`` alone must quarantine, drain and replace the
victim — still loss-free and byte-exact.  Its repro command is
``--table heal --seed <seed>``.
"""

from __future__ import annotations

import pytest

from repro.evaluation.chaos import (
    DEFAULT_CHAOS_SEEDS,
    DEFAULT_HEAL_SEEDS,
    GARBAGE_PAYLOADS,
    run_chaos,
    run_chaos_once,
    run_heal,
    run_heal_once,
)
from repro.evaluation.tables import format_chaos, format_heal
from repro.network.sockets import loopback_available

live_only = pytest.mark.skipif(
    not loopback_available(), reason="loopback sockets unavailable in this environment"
)


def _repro(seed: int) -> str:
    return (
        f"seed {seed} failed — reproduce with "
        f"`PYTHONPATH=src python -m repro.evaluation --table chaos --seed {seed}`"
    )


@pytest.fixture(scope="module")
def seeded_results():
    """One chaos run (plus twin) per default seed, shared by the module —
    the per-seed assertions and the cross-seed coverage check must not
    each pay for their own sweep."""
    return {seed: run_chaos_once(seed=seed) for seed in DEFAULT_CHAOS_SEEDS}


class TestSimulatedSoak:
    @pytest.mark.parametrize("seed", DEFAULT_CHAOS_SEEDS)
    def test_seeded_schedule_is_loss_free_and_byte_exact(self, seeded_results, seed):
        """Acceptance: every client answered, nothing abandoned or
        unrouted, and the bytes equal the fixed-shard twin — per seed."""
        result = seeded_results[seed]
        assert result.completed == result.clients, _repro(seed)
        assert result.abandoned_sessions == 0, _repro(seed)
        assert result.unrouted == 0, _repro(seed)
        assert result.outputs_match_twin, _repro(seed)
        assert result.ok, _repro(seed)
        # The schedule did real damage: membership changed and garbage
        # flowed; the run was chaotic, not a quiet baseline.
        assert result.membership_ops >= 1, _repro(seed)
        assert result.garbage_sent >= len(GARBAGE_PAYLOADS), _repro(seed)

    def test_default_seeds_cover_arbitrary_removals(self, seeded_results):
        """The three default seeds together drain a non-suffix worker at
        least three times — the schedule generator must keep weighting
        the removals this harness exists to cover."""
        assert (
            sum(result.arbitrary_removals for result in seeded_results.values()) >= 3
        )

    def test_same_seed_same_schedule(self):
        """Determinism: one seed replays the identical event schedule and
        scaling timeline (this is what makes a failing seed reproducible)."""
        first = run_chaos_once(seed=11)
        second = run_chaos_once(seed=11)
        assert [(e.kind, e.detail) for e in first.events] == [
            (e.kind, e.detail) for e in second.events
        ]
        assert first.scale_events == second.scale_events
        assert first.garbage_sent == second.garbage_sent
        assert first.datagrams_dropped == second.datagrams_dropped

    def test_run_chaos_raises_with_failing_seed_in_message(self, monkeypatch):
        """A red sweep names the seed and the repro command."""
        import repro.evaluation.chaos as chaos_module

        real = chaos_module.run_chaos_once

        def sabotage(case=2, seed=7, **kwargs):
            result = real(case=case, seed=seed, **kwargs)
            if seed == 11:
                result.outputs_match_twin = False
            return result

        monkeypatch.setattr(chaos_module, "run_chaos_once", sabotage)
        with pytest.raises(RuntimeError) as excinfo:
            chaos_module.run_chaos(seeds=(7, 11))
        assert "seed 11" in str(excinfo.value)
        assert "--table chaos --seed 11" in str(excinfo.value)

    def test_configuration_errors_are_not_folded_into_seed_rows(self):
        """An unknown case or invalid pool size is the caller's bug:
        replaying a seed would reproduce the same misconfiguration, so the
        error propagates (the CLI turns the ValueError into its uniform
        `error:` exit) instead of printing a phantom failing-seed row."""
        from repro.core.errors import ConfigurationError

        with pytest.raises(ValueError, match="unknown case 9"):
            run_chaos(seeds=(7,), case=9, raise_on_failure=False)
        with pytest.raises(ConfigurationError):
            run_chaos(seeds=(7,), start_workers=0, raise_on_failure=False)

    def test_bad_timeouts_sampling_rates_and_names_fail_before_any_seed(self):
        """A zero timeout or budget, a sampling rate outside [0, 1] or an
        option the runner does not take is refused before a seed runs, on
        both sweeps: as a FAIL row, its printed seed-replay command (which
        runs the defaults) would pass."""
        from repro.core.errors import ConfigurationError

        for sweep, options in (
            (run_chaos, {"wave_timeout": 0}),
            (run_chaos, {"trace_sample": 5.0}),
            (run_heal, {"wave_timeout": 0}),
            (run_heal, {"detection_budget": 0}),
        ):
            with pytest.raises(ConfigurationError):
                sweep(seeds=(7,), raise_on_failure=False, **options)
        with pytest.raises(TypeError, match="detection_budget"):
            run_chaos(seeds=(7,), detection_budget=1.0, raise_on_failure=False)

    def test_crashed_run_becomes_a_failed_row_with_its_seed(self, monkeypatch):
        """A harness-level exception (a live drain-timeout EngineError,
        say) must fold into a failed row naming the seed — the failing-seed
        log cannot lose a red seed to a bare traceback."""
        import repro.evaluation.chaos as chaos_module

        def explode(case=2, seed=7, **kwargs):
            raise RuntimeError("drain wedged")

        monkeypatch.setattr(chaos_module, "run_chaos_once", explode)
        results = chaos_module.run_chaos(seeds=(11,), raise_on_failure=False)
        (row,) = results
        assert not row.ok
        assert row.seed == 11
        assert "RuntimeError: drain wedged" in row.failure_reason()
        assert row.as_row()["error"] is not None
        with pytest.raises(RuntimeError) as excinfo:
            chaos_module.run_chaos(seeds=(11,))
        assert "--table chaos --seed 11" in str(excinfo.value)

    def test_format_chaos_renders_rows_and_failures(self):
        results = run_chaos(seeds=(13,), raise_on_failure=False)
        text = format_chaos(results)
        assert "Seed" in text and "Bytes=twin" in text
        assert "chaos-case-2-seed-13" in text
        assert "All runs loss-free" in text
        results[0].outputs_match_twin = False
        text = format_chaos(results)
        assert "FAILED seed 13" in text and "--seed 13" in text


def _heal_repro(seed: int) -> str:
    return (
        f"seed {seed} failed — reproduce with "
        f"`PYTHONPATH=src python -m repro.evaluation --table heal --seed {seed}`"
    )


@pytest.fixture(scope="module")
def heal_results():
    """One self-healing run (plus twin) per default heal seed."""
    return {seed: run_heal_once(seed=seed) for seed in DEFAULT_HEAL_SEEDS}


class TestHealSoak:
    @pytest.mark.parametrize("seed", DEFAULT_HEAL_SEEDS)
    def test_wedges_healed_loss_free_and_byte_exact(self, heal_results, seed):
        """Acceptance: the detector alone replaces every wedged worker —
        no spurious replacements, no losses, bytes equal the twin."""
        result = heal_results[seed]
        assert result.wedges >= 1, _heal_repro(seed)
        assert result.replaces == result.wedges, _heal_repro(seed)
        assert len(result.detection_seconds) == result.wedges, _heal_repro(seed)
        assert all(
            detect <= result.detection_budget
            for detect in result.detection_seconds
        ), _heal_repro(seed)
        assert result.completed == result.clients, _heal_repro(seed)
        assert result.abandoned_sessions == 0, _heal_repro(seed)
        assert result.unrouted == 0, _heal_repro(seed)
        assert result.outputs_match_twin, _heal_repro(seed)
        assert result.ok, _heal_repro(seed)

    def test_detector_ledger_conserved_through_the_schedule(self, heal_results):
        """Probe accounting survives the churn the schedule causes."""
        for seed, result in heal_results.items():
            counters = result.detector_counters
            assert counters["replaces"] == result.replaces, _heal_repro(seed)
            # A replaced worker's probe history retires rather than leaks.
            assert counters["retired_probes"] > 0, _heal_repro(seed)
            assert counters["probes"] >= counters["bad_probes"], _heal_repro(seed)
            # Every replacement went through a FAILED trip first.
            assert counters["trips"] >= counters["replaces"], _heal_repro(seed)

    def test_same_seed_same_heal_schedule(self):
        """Determinism: one heal seed replays the identical fault schedule
        (victims, durations, fault kinds) and the identical outcome."""
        first = run_heal_once(seed=17)
        second = run_heal_once(seed=17)
        assert [(e.kind, e.detail) for e in first.events] == [
            (e.kind, e.detail) for e in second.events
        ]
        assert first.wedges == second.wedges
        assert first.skews == second.skews
        assert first.replaces == second.replaces
        assert first.garbage_sent == second.garbage_sent

    def test_run_heal_raises_with_failing_seed_in_message(self, monkeypatch):
        import repro.evaluation.chaos as chaos_module

        real = chaos_module.run_heal_once

        def sabotage(case=2, seed=5, **kwargs):
            result = real(case=case, seed=seed, **kwargs)
            if seed == 17:
                result.outputs_match_twin = False
            return result

        monkeypatch.setattr(chaos_module, "run_heal_once", sabotage)
        with pytest.raises(RuntimeError) as excinfo:
            chaos_module.run_heal(seeds=(5, 17))
        assert "seed 17" in str(excinfo.value)
        assert "--table heal --seed 17" in str(excinfo.value)

    def test_crashed_heal_run_becomes_a_failed_row(self, monkeypatch):
        import repro.evaluation.chaos as chaos_module

        def explode(case=2, seed=5, **kwargs):
            raise RuntimeError("controller thread died")

        monkeypatch.setattr(chaos_module, "run_heal_once", explode)
        results = chaos_module.run_heal(seeds=(17,), raise_on_failure=False)
        (row,) = results
        assert not row.ok
        assert row.seed == 17
        assert "RuntimeError: controller thread died" in row.failure_reason()

    def test_format_heal_renders_rows_and_failures(self):
        results = run_heal(seeds=(5,), raise_on_failure=False)
        text = format_heal(results)
        assert "Seed" in text and "Bytes=twin" in text
        assert "Wedged" in text and "Detect" in text
        assert "healed by the detector alone" in text
        results[0].outputs_match_twin = False
        text = format_heal(results)
        assert "FAILED seed 5" in text and "--seed 5" in text


@live_only
class TestLiveSoak:
    def test_live_schedule_is_loss_free_and_byte_exact(self):
        """The same fault schedule against real sockets: worker threads,
        blocking drains, garbage at real endpoints — still loss-free, and
        byte-identical to the deterministic simulated twin."""
        seed = DEFAULT_CHAOS_SEEDS[0]
        result = run_chaos_once(seed=seed, live=True)
        assert result.worker_errors == 0, _repro(seed)
        assert result.completed == result.clients, _repro(seed)
        assert result.abandoned_sessions == 0, _repro(seed)
        assert result.unrouted == 0, _repro(seed)
        assert result.outputs_match_twin, _repro(seed)
        assert result.ok, _repro(seed)
        assert result.membership_ops >= 1, _repro(seed)

    def test_live_wedge_and_loss_window_healed_loss_free(self):
        """The live heal schedule: a wedged worker thread replaced by the
        control-thread detector, then a seeded UDP loss window over real
        sockets — every client answered, bytes equal the simulated twin."""
        seed = DEFAULT_HEAL_SEEDS[0]
        result = run_heal_once(seed=seed, live=True)
        assert result.wedges >= 1, _heal_repro(seed)
        assert result.replaces == result.wedges, _heal_repro(seed)
        assert result.loss_windows >= 1, _heal_repro(seed)
        assert result.controller_errors == 0, _heal_repro(seed)
        assert result.worker_errors == 0, _heal_repro(seed)
        assert result.completed == result.clients, _heal_repro(seed)
        assert result.abandoned_sessions == 0, _heal_repro(seed)
        assert result.unrouted == 0, _heal_repro(seed)
        assert result.outputs_match_twin, _heal_repro(seed)
        assert result.ok, _heal_repro(seed)
