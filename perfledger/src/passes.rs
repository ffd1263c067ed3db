//! The untraced executor passes, each timed from outside the program.
//!
//! Every timing window excludes pipeline assembly (`build()`) and the
//! copy of the input: the records are cloned and the service batches cut
//! before the clock starts.

use std::time::Instant;

use simnet::intern::TenantId;
use telemetry::record::LogRecord;
use testbed::{
    OperatorNotification, ServiceConfig, ServiceError, ServiceHandle, ServiceSnapshot, StreamReport,
};

use crate::checks;
use crate::trace::Tracer;
use crate::workload::Setup;
use crate::PassError;

/// Records per service `ingest` call.
pub const SERVICE_CHUNK: usize = 4_096;
/// The tenant every service pass feeds.
pub const TENANT: TenantId = TenantId(7);
/// A tenant that never exists: a snapshot request for it returns
/// `UnknownTenant` once the worker has drained everything queued before
/// it, which makes it a queue barrier.
const BARRIER: TenantId = TenantId(u32::MAX);

/// One executor pass: its wall time and report.
pub struct Pass {
    pub secs: f64,
    pub report: StreamReport,
}

pub fn inline(setup: &Setup) -> Pass {
    let pipeline = setup.builder().build();
    let input = setup.records.clone();
    let t0 = Instant::now();
    let report = pipeline.run_inline(input);
    Pass {
        secs: t0.elapsed().as_secs_f64(),
        report,
    }
}

/// The sharded executor with its default shard count.
pub fn sharded(setup: &Setup) -> Pass {
    let pipeline = setup.builder().build();
    let input = setup.records.clone();
    let t0 = Instant::now();
    let report = pipeline.run_sharded(input);
    Pass {
        secs: t0.elapsed().as_secs_f64(),
        report,
    }
}

fn spawn_service(setup: &Setup) -> ServiceHandle {
    let cfg = setup.cfg.clone();
    let model = setup.model.clone();
    ServiceHandle::spawn(ServiceConfig::default(), move |_, scope| {
        testbed::PipelineBuilder::from_config(&cfg, model.clone())
            .scope(scope)
            .build()
    })
}

fn cut(records: &[LogRecord]) -> Vec<Vec<LogRecord>> {
    records
        .chunks(SERVICE_CHUNK)
        .map(<[LogRecord]>::to_vec)
        .collect()
}

/// Run `f`, as a span called `name` over `items` when tracing, and
/// return its result with its wall time in seconds.
fn step<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    items: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let t0 = Instant::now();
    let out = match tracer.as_deref_mut() {
        Some(t) => t.span(name, items, f),
        None => f(),
    };
    (out, t0.elapsed().as_secs_f64())
}

/// Feed `batches` to the tenant; when tracing, each call is an `ingest`
/// span (the caller's time blocked on the bounded queue).
fn feed(
    svc: &ServiceHandle,
    batches: Vec<Vec<LogRecord>>,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), ServiceError> {
    for b in batches {
        let n = b.len() as u64;
        step(&mut tracer, "ingest", n, || svc.ingest(TENANT, b)).0?;
    }
    Ok(())
}

fn final_report(svc: ServiceHandle) -> Result<StreamReport, ServiceError> {
    svc.shutdown()
        .into_iter()
        .find(|(t, _)| *t == TENANT)
        .map(|(_, r)| r)
        .ok_or(ServiceError::UnknownTenant(TENANT))
}

/// One tenant, from the first `ingest` to `shutdown` returning.
pub fn service(setup: &Setup, tracer: Option<&mut Tracer>) -> Result<Pass, ServiceError> {
    let svc = spawn_service(setup);
    let batches = cut(&setup.records);
    let t0 = Instant::now();
    feed(&svc, batches, tracer)?;
    let report = final_report(svc)?;
    Ok(Pass {
        secs: t0.elapsed().as_secs_f64(),
        report,
    })
}

/// Costs of one snapshot → JSON → decode → restore cycle.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    /// Snapshot request (on a drained queue) to JSON text.
    pub snapshot_s: f64,
    /// JSON text to a restored session.
    pub restore_s: f64,
    pub bytes: usize,
}

/// A service pass restarted `restarts` times at evenly spaced points.
pub struct Restarted {
    /// Notifications of every service lifetime, in order.
    pub notifications: Vec<OperatorNotification>,
    /// The last lifetime's report (cumulative counters).
    pub last: StreamReport,
    pub cycles: Vec<Cycle>,
}

/// Feed the stream to one tenant; at each restart point snapshot it,
/// encode the snapshot, shut the service down, decode the text (checking
/// `from_json(to_json(s)) == s`) and restore it into a fresh service.
/// When tracing, the codec steps are `snapshot`, `encode`, `decode` and
/// `restore` spans over the snapshot's bytes.
pub fn restarted(
    setup: &Setup,
    restarts: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Restarted, PassError> {
    let n = setup.records.len();
    let segments = restarts + 1;
    let mut notifications = Vec::new();
    let mut cycles = Vec::with_capacity(restarts);
    // The last snapshot, its wire text, and how long taking both took.
    let mut carried: Option<(ServiceSnapshot, String, f64)> = None;
    for k in 0..segments {
        let svc = spawn_service(setup);
        if let Some((snapshot, text, snapshot_s)) = carried.take() {
            let bytes = text.len() as u64;
            let (decoded, decode_s) = step(&mut tracer, "decode", bytes, || {
                ServiceSnapshot::from_json(&text)
            });
            let decoded = decoded
                .map_err(|e| PassError::Wrong(format!("restart {k}: snapshot decode: {e}")))?;
            checks::round_trip(&snapshot, &decoded)
                .map_err(|e| PassError::Wrong(format!("restart {k}: {e}")))?;
            let (restored, restore_s) =
                step(&mut tracer, "restore", bytes, || svc.restore(decoded));
            restored?;
            cycles.push(Cycle {
                snapshot_s,
                restore_s: decode_s + restore_s,
                bytes: text.len(),
            });
        }
        let (lo, hi) = (n * k / segments, n * (k + 1) / segments);
        feed(&svc, cut(&setup.records[lo..hi]), None)?;
        if k + 1 < segments {
            match svc.snapshot(BARRIER) {
                Err(ServiceError::UnknownTenant(_)) => {}
                other => {
                    return Err(PassError::Wrong(format!(
                        "queue barrier answered {other:?}"
                    )))
                }
            }
            let (snapshot, take_s) = step(&mut tracer, "snapshot", 0, || svc.snapshot(TENANT));
            let snapshot = snapshot?;
            let (text, encode_s) = step(&mut tracer, "encode", 0, || snapshot.to_json());
            if let Some(t) = tracer.as_deref_mut() {
                t.set_last_items(&["snapshot", "encode"], text.len() as u64);
            }
            carried = Some((snapshot, text, take_s + encode_s));
        }
        let report = final_report(svc)?;
        notifications.extend(report.notifications.iter().cloned());
        if k + 1 == segments {
            return Ok(Restarted {
                notifications,
                last: report,
                cycles,
            });
        }
    }
    unreachable!("the last segment returns")
}
