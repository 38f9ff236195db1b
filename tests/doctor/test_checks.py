"""Declarative-check tests: every shipped rule fires on a crafted
bundle and stays silent on a clean one; the linter rejects bad files."""

import pytest

from repro.doctor.checks import (
    DeclarativeCheck,
    default_checks_dir,
    lint_check,
    load_checks,
)
from repro.errors import DoctorError

from tests.doctor.conftest import make_evidence, make_snapshot


@pytest.fixture(scope="module")
def shipped():
    """name -> DeclarativeCheck for every shipped rule."""
    return {doc["name"]: DeclarativeCheck(doc)
            for doc in load_checks(default_checks_dir())}


def fires(check, evidence):
    return check.analyze(evidence)


class TestShippedChecksFireAndStaySilent:
    """One fire case + the shared silence case per shipped rule."""

    def test_at_least_eight_shipped_checks(self, shipped):
        assert len(shipped) >= 8

    def test_all_silent_on_clean_bundle(self, shipped, clean_evidence):
        for name, check in shipped.items():
            assert not fires(check, clean_evidence), \
                f"{name} fired on a clean bundle"

    def test_shm_slab_undersized(self, shipped):
        check = shipped["shm-slab-undersized"]
        dirty = make_evidence({"shm.fallback_inline": 5,
                               "shm.slots_leased": 20})
        found = fires(check, dirty)
        assert found and found[0].subsystem == "shm"
        assert found[0].evidence["ratio"] == pytest.approx(0.25)
        # below min_denominator the rule abstains even at a bad ratio
        sparse = make_evidence({"shm.fallback_inline": 4,
                                "shm.slots_leased": 5})
        assert not fires(check, sparse)

    def test_write_behind_degrading_trend(self, shipped):
        check = shipped["write-behind-degrading"]
        dirty = make_evidence(
            {"cache.flush_failures": 3},
            before=make_snapshot({"cache.flush_failures": 1}))
        found = fires(check, dirty)
        assert found and found[0].severity == "critical"
        assert found[0].evidence["cache.flush_failures.delta"] == 2
        # same counts, no movement -> silent
        flat = make_evidence({"cache.flush_failures": 3},
                             before=make_snapshot(
                                 {"cache.flush_failures": 3}))
        assert not fires(check, flat)
        # no before snapshot -> the trend rule abstains entirely
        single = make_evidence({"cache.flush_failures": 3})
        assert not fires(check, single)

    def test_write_behind_failing(self, shipped):
        found = fires(shipped["write-behind-failing"],
                      make_evidence({"cache.flush_failures": 1}))
        assert found and found[0].subsystem == "cache"

    def test_admission_misconfigured_gated_on_idle_host(self, shipped):
        check = shipped["admission-misconfigured"]
        idle_rejects = make_evidence(
            host={"loop#1": {"host.rejects": 4, "host.inflight": 0}})
        found = fires(check, idle_rejects)
        assert found and found[0].evidence["host.rejects"] == 4
        # rejects under genuine load are capacity, not misconfiguration
        busy_rejects = make_evidence(
            host={"loop#1": {"host.rejects": 4, "host.inflight": 30}})
        assert not fires(check, busy_rejects)

    def test_respawn_storm_is_per_container(self, shipped):
        check = shipped["respawn-storm"]
        dirty = make_evidence(scopes={"a.af": {"host.respawns": 3},
                                      "b.af": {"host.respawns": 1}})
        found = fires(check, dirty)
        assert [finding.scope for finding in found] == ["a.af"]
        assert found[0].severity == "critical"

    def test_span_buffer_overflow(self, shipped):
        # built via Evidence directly: the make_evidence helper's
        # ``spans`` kwarg is the span-record list, not this section
        from repro.doctor.engine import Evidence
        evidence = Evidence(make_snapshot(
            spans={"tracing": True, "buffered": 10, "dropped": 7}))
        found = fires(shipped["span-buffer-overflow"], evidence)
        assert found and found[0].evidence["spans.dropped"] == 7

    def test_close_errors(self, shipped):
        found = fires(shipped["close-errors"], make_evidence(
            transport={"totals": {"close_errors": 2}}))
        assert found and found[0].subsystem == "session"
        assert found[0].evidence["transport.close_errors"] == 2

    def test_transport_failures_ratio(self, shipped):
        check = shipped["transport-failures"]
        dirty = make_evidence(transport={"totals": {
            "requests_sent": 100, "requests_failed": 10}})
        assert fires(check, dirty)
        # 1 failure in 100 is under the 5% bound
        healthy = make_evidence(transport={"totals": {
            "requests_sent": 100, "requests_failed": 1}})
        assert not fires(check, healthy)
        # huge failure fraction but tiny volume: abstain
        sparse = make_evidence(transport={"totals": {
            "requests_sent": 4, "requests_failed": 3}})
        assert not fires(check, sparse)

    def test_readahead_ineffective_ratio(self, shipped):
        check = shipped["readahead-ineffective"]
        dirty = make_evidence(cache={"c": {"prefetch_issued": 20,
                                           "prefetch_used": 4}})
        found = fires(check, dirty)
        assert found and found[0].severity == "info"
        effective = make_evidence(cache={"c": {"prefetch_issued": 20,
                                               "prefetch_used": 18}})
        assert not fires(check, effective)

    def test_backpressure_stalls(self, shipped):
        found = fires(shipped["backpressure-stalls"], make_evidence(
            host={"af-loop#1": {"host.backpressure.stalls": 2}}))
        assert found and found[0].subsystem == "host"

    def test_fanout_slow_consumer(self, shipped):
        check = shipped["fanout-slow-consumer"]
        found = fires(check, make_evidence({"fanout.evicted": 1,
                                            "fanout.dropped": 65}))
        assert found and found[0].subsystem == "fanout"
        assert found[0].severity == "warning"
        # heavy but fully-delivered fan-out traffic is healthy
        busy = make_evidence({"fanout.published": 500,
                              "fanout.delivered": 5000})
        assert not fires(check, busy)

    def test_lease_invalidation_storm_ratio(self, shipped):
        check = shipped["lease-invalidation-storm"]
        dirty = make_evidence({"lease.granted": 10,
                               "lease.invalidated": 9})
        found = fires(check, dirty)
        assert found and found[0].subsystem == "fanout"
        assert found[0].evidence["ratio"] == pytest.approx(0.9)
        # push-installed writes keep leases alive: few revocations
        healthy = make_evidence({"lease.granted": 10,
                                 "lease.invalidated": 2})
        assert not fires(check, healthy)
        # below min_denominator the rule abstains even at a bad ratio
        sparse = make_evidence({"lease.granted": 4,
                                "lease.invalidated": 4})
        assert not fires(check, sparse)


class TestLinter:
    GOOD = {"name": "x", "type": "threshold", "metric": "shm.bytes",
            "above": 0, "message": "m"}

    def lint(self, **overrides):
        doc = {**self.GOOD, **overrides}
        for key, value in list(doc.items()):
            if value is None:
                del doc[key]
        return lint_check(doc, where="test.yaml")

    def test_good_check_passes(self):
        assert self.lint()["name"] == "x"

    def test_non_mapping_rejected(self):
        with pytest.raises(DoctorError, match="must be a mapping"):
            lint_check(["not", "a", "map"])

    def test_unknown_type_rejected(self):
        with pytest.raises(DoctorError, match="type must be one of"):
            self.lint(type="regex")

    def test_unknown_keys_rejected(self):
        with pytest.raises(DoctorError, match="unknown keys"):
            self.lint(treshold=5)  # the classic typo

    def test_unknown_metric_rejected(self):
        with pytest.raises(DoctorError, match="unknown metric"):
            self.lint(metric="shm.fallback_inlien")

    def test_unknown_metric_in_when_rejected(self):
        with pytest.raises(DoctorError, match="unknown metric"):
            self.lint(when={"metric": "host.infliht", "at_most": 2})

    def test_bad_severity_rejected(self):
        with pytest.raises(DoctorError, match="severity"):
            self.lint(severity="catastrophic")

    def test_missing_message_rejected(self):
        with pytest.raises(DoctorError, match="message"):
            self.lint(message=None)

    def test_two_comparators_rejected(self):
        with pytest.raises(DoctorError, match="exactly one"):
            self.lint(above=0, below=5)

    def test_no_comparator_rejected(self):
        with pytest.raises(DoctorError, match="exactly one"):
            self.lint(above=None)

    def test_non_numeric_bound_rejected(self):
        with pytest.raises(DoctorError, match="must be a number"):
            self.lint(above="lots")

    def test_ratio_requires_over(self):
        with pytest.raises(DoctorError, match="needs 'over'"):
            self.lint(type="ratio")

    def test_ratio_bad_min_denominator(self):
        with pytest.raises(DoctorError, match="min_denominator"):
            self.lint(type="ratio", over="shm.slots_leased",
                      min_denominator=0)

    def test_trend_needs_delta_comparator(self):
        with pytest.raises(DoctorError, match="exactly one"):
            self.lint(type="trend", above=None)

    def test_bad_scope_rejected(self):
        with pytest.raises(DoctorError, match="scope"):
            self.lint(scope="galaxy")

    def test_ratio_is_global_only(self):
        with pytest.raises(DoctorError, match="global-only"):
            self.lint(type="ratio", over="shm.slots_leased",
                      scope="container")


class TestLoadChecks:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(DoctorError, match="does not exist"):
            load_checks(str(tmp_path / "ghost"))

    def test_loads_and_sorts_custom_dir(self, tmp_path):
        (tmp_path / "b.yaml").write_text(
            "name: bee\ntype: threshold\nmetric: shm.bytes\n"
            "above: 0\nmessage: m\n")
        (tmp_path / "a.yaml").write_text(
            "name: ay\ntype: threshold\nmetric: shm.bytes\n"
            "above: 0\nmessage: m\n")
        (tmp_path / "notes.txt").write_text("ignored")
        names = [doc["name"] for doc in load_checks(str(tmp_path))]
        assert names == ["ay", "bee"]

    def test_duplicate_names_rejected(self, tmp_path):
        body = ("name: same\ntype: threshold\nmetric: shm.bytes\n"
                "above: 0\nmessage: m\n")
        (tmp_path / "a.yaml").write_text(body)
        (tmp_path / "b.yaml").write_text(body)
        with pytest.raises(DoctorError, match="duplicate check name"):
            load_checks(str(tmp_path))

    def test_parse_error_names_the_file(self, tmp_path):
        (tmp_path / "broken.yaml").write_text("\tname: tabbed\n")
        with pytest.raises(DoctorError, match="broken.yaml"):
            load_checks(str(tmp_path))

    def test_lint_error_names_the_file(self, tmp_path):
        (tmp_path / "typo.yaml").write_text(
            "name: t\ntype: threshold\nmetric: no.such.metric\n"
            "above: 0\nmessage: m\n")
        with pytest.raises(DoctorError, match="typo.yaml"):
            load_checks(str(tmp_path))

    def test_shipped_checks_all_lint(self):
        docs = load_checks(default_checks_dir())
        assert len(docs) >= 8
