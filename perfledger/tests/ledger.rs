//! The ledger's own tests: a small-scale run of every workload through
//! every output check, the negative cases showing each check fires, and
//! the armed-thread allocation counter.

use std::path::PathBuf;

use perfledger::alloc;
use perfledger::checks;
use perfledger::ledger::{self, Options, PER_LAYER};
use perfledger::passes;
use perfledger::trace::Tracer;
use perfledger::workload::{self, Setup, Workload};
use simnet::intern::TenantId;
use testbed::{PipelineBuilder, ServiceConfig, ServiceHandle, ServiceSnapshot};

/// Small enough for a test, large enough that every layer sees work and
/// the detection-quality bounds hold.
const SCALE: f64 = 0.05;
const SEED: u64 = workload::DEFAULT_SEED;

const END_TO_END: [&str; 5] = [
    "setup_s",
    "inline_rps",
    "service_rps",
    "peak_rss_mb",
    "snapshot_bytes",
];

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: SEED,
        seconds: 0.0,
        trace,
        scale: SCALE,
        setups: 1,
        span_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfledger-spans"),
    }
}

fn small(workload: Workload) -> Setup {
    workload::set_up(workload, SEED, SCALE)
}

#[test]
fn every_workload_passes_every_check_untraced() {
    for w in Workload::ALL {
        let out = ledger::run(&options(w, false));
        assert!(out.correct(), "{}: {:?}", w.name(), out.problems);
        assert_eq!(out.failed, 0);
        assert_eq!(out.rounds, 1);
        // inline twice, sharded, service twice, restart.
        assert_eq!(out.attempted, 6);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END);
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        let line = out.to_json();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":6,\"failed\":0,\"metrics\":{"));
        assert_eq!(out.fingerprint.seed, SEED);
        assert!(out.fingerprint.records > 0);
    }
}

#[test]
fn every_workload_passes_every_check_traced() {
    for w in Workload::ALL {
        let out = ledger::run(&options(w, true));
        assert!(out.correct(), "{}: {:?}", w.name(), out.problems);
        assert_eq!(out.failed, 0);
        // inline, traced inline, sharded, service, restart.
        assert_eq!(out.attempted, 5);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        for m in &out.metrics {
            assert!(
                m.value.is_finite(),
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        let spans = std::fs::read_to_string(out.span_file.expect("traced runs write spans"))
            .expect("span file readable");
        let parsed = serde_json::from_str(&spans).expect("span file is JSON");
        assert_eq!(parsed.get("fingerprint").get("seed").as_u64(), Some(SEED));
        for layer in [
            "symbolize",
            "filter",
            "tagger",
            "correlate",
            "respond",
            "rescope",
            "ingest",
        ] {
            assert!(
                spans.contains(&format!("\"name\":\"{layer}\"")),
                "{layer} span missing"
            );
        }
        for codec in ["snapshot", "encode", "decode", "restore"] {
            assert!(
                spans.contains(&format!("\"name\":\"{codec}\"")),
                "{codec} span missing"
            );
        }
    }
}

#[test]
fn traced_drive_reproduces_the_inline_stream() {
    let setup = small(Workload::Noisy);
    let inline = passes::inline(&setup);
    let mut t = Tracer::new();
    let traced = perfledger::trace::traced_inline(&setup, setup.records.clone(), &mut t);
    assert_eq!(
        checks::stream_text(&traced.report.notifications),
        checks::stream_text(&inline.report.notifications)
    );
    assert_eq!(traced.report.stats, inline.report.stats);
    assert!(!inline.report.notifications.is_empty());
    // The drive ends with the executor's flush.
    assert!(t.spans().iter().any(|s| s.name == "flush"));
}

#[test]
fn truncated_notification_stream_is_caught() {
    let setup = small(Workload::Campaign);
    let inline = passes::inline(&setup);
    let mut truncated = passes::inline(&setup).report;
    assert!(checks::same_stream("copy", &inline.report, &truncated).is_ok());
    truncated
        .notifications
        .pop()
        .expect("the campaign raises notifications");
    let err = checks::accounting("truncated", &truncated, setup.records.len()).unwrap_err();
    assert!(err.contains("notifications"), "{err}");
    assert!(checks::same_notifications(
        "truncated",
        &inline.report.notifications,
        &truncated.notifications
    )
    .is_err());
}

#[test]
fn miscounted_records_and_retention_are_caught() {
    let setup = small(Workload::Campaign);
    let mut report = passes::inline(&setup).report;
    let n = setup.records.len();
    assert!(checks::accounting("inline", &report, n).is_ok());
    assert!(checks::accounting("inline", &report, n + 1).is_err());
    report.alerts_discarded += 1;
    assert!(checks::accounting("inline", &report, n).is_err());
}

fn snapshot_of(setup: &Setup) -> ServiceSnapshot {
    let (cfg, model) = (setup.cfg.clone(), setup.model.clone());
    let svc = ServiceHandle::spawn(ServiceConfig::default(), move |_, scope| {
        PipelineBuilder::from_config(&cfg, model.clone())
            .scope(scope)
            .build()
    });
    let tenant = TenantId(1);
    let half = &setup.records[..setup.records.len() / 2];
    for chunk in half.chunks(passes::SERVICE_CHUNK) {
        svc.ingest(tenant, chunk.to_vec()).expect("worker alive");
    }
    let snap = svc.snapshot(tenant).expect("live tenant");
    svc.shutdown();
    snap
}

#[test]
fn altered_snapshot_field_is_caught() {
    let setup = small(Workload::Restart);
    let snap = snapshot_of(&setup);
    let text = snap.to_json();
    let decode = |t: &str| ServiceSnapshot::from_json(t).expect("wire text decodes");
    assert!(checks::round_trip(&snap, &decode(&text)).is_ok());
    // Alter one field of the wire text: the admitted-alert counter.
    let field = format!("\"admitted\": {}", snap.stats.admitted);
    assert!(text.contains(&field), "wire text carries {field}");
    let altered = text.replacen(
        &field,
        &format!("\"admitted\": {}", snap.stats.admitted + 1),
        1,
    );
    let err = checks::round_trip(&snap, &decode(&altered)).unwrap_err();
    assert!(err.contains("!= s"), "{err}");
}

#[test]
fn dropped_detection_in_ground_truth_scoring_is_caught() {
    let setup = small(Workload::Campaign);
    let report = passes::inline(&setup).report;
    let score = checks::score(&report.notifications, &setup.truth);
    let eval = testbed::evaluate_campaign(&report, &setup.truth);
    checks::detection_quality(Workload::Campaign, &eval, score).expect("the run is correct");

    // Drop every notification of one preempted session's entities from
    // the stream the evaluation scores.
    let session = setup
        .truth
        .sessions
        .iter()
        .find(|s| {
            !s.decoy
                && report
                    .notifications
                    .iter()
                    .any(|n| s.entity_keys.contains(&n.entity))
        })
        .expect("a detected session");
    let mut dropped = passes::inline(&setup).report;
    dropped
        .notifications
        .retain(|n| !session.entity_keys.contains(&n.entity));
    let eval = testbed::evaluate_campaign(&dropped, &setup.truth);
    let err = checks::detection_quality(Workload::Campaign, &eval, score).unwrap_err();
    assert!(err.contains("ground-truth scoring"), "{err}");
}

#[test]
fn preemption_floor_is_enforced() {
    let setup = small(Workload::Campaign);
    let report = passes::inline(&setup).report;
    let eval = testbed::evaluate_campaign(&report, &setup.truth);
    let none = checks::score(&[], &setup.truth);
    let mut blind = eval.clone();
    blind.overall.detected = none.detected;
    blind.overall.preempted = none.preempted;
    let err = checks::detection_quality(Workload::Campaign, &blind, none).unwrap_err();
    assert!(err.contains("floor"), "{err}");
}

#[test]
fn only_armed_threads_count_allocations() {
    let (allocs, _) = alloc::counted(|| {
        // Another thread allocating while this one is armed is not counted.
        std::thread::spawn(|| {
            let v: Vec<Vec<u8>> = (0..1000).map(|i| vec![0u8; i + 1]).collect();
            v.len()
        })
        .join()
        .expect("helper thread")
    });
    // Spawning and joining allocate on this thread; the helper's 1001
    // allocations must not appear.
    assert!(allocs < 100, "{allocs} allocations counted");
    let (allocs, v) = alloc::counted(|| (0..10).map(|i| vec![i; 4]).collect::<Vec<_>>());
    assert_eq!(v.len(), 10);
    assert_eq!(allocs, 11);
    let before = alloc::thread_allocations();
    let unarmed = std::hint::black_box(Box::new([1u8; 64]));
    drop(unarmed);
    assert_eq!(alloc::thread_allocations(), before);
}

#[test]
fn span_self_time_excludes_children() {
    let mut t = Tracer::new();
    let outer = t.begin("outer");
    t.span("inner", 3, || {
        std::thread::sleep(std::time::Duration::from_millis(5))
    });
    t.end(outer, 1);
    let inner = t.totals("inner");
    let outer = t.totals("outer");
    assert_eq!(inner.items, 3);
    assert!(inner.self_ns >= 5_000_000);
    assert!(outer.self_ns < inner.self_ns);
    assert_eq!(t.spans()[1].parent, Some(0));
}
