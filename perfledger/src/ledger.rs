//! One benchmark run: set-up, whole rounds of passes for the requested
//! time, output checks, and the metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::checks::{self, Check};
use crate::passes::{self, Pass, SERVICE_CHUNK};
use crate::trace::{self, Tracer};
use crate::workload::{self, Setup, Workload};
use crate::PassError;
use testbed::StreamReport;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement time; rounds start until it has passed.
    pub seconds: f64,
    /// Run the traced, per-layer drive instead of the timed passes.
    pub trace: bool,
    /// Workload size factor (1.0 is the ledger's size).
    pub scale: f64,
    /// Set-ups per run: each is timed (`setup_s` is their median) and
    /// the last one is measured.
    pub setups: usize,
    /// Where the traced run writes its span file.
    pub span_dir: PathBuf,
}

/// The host and build a run's figures belong to.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub cores: usize,
    pub rustc: &'static str,
    pub profile: &'static str,
    pub workload: &'static str,
    pub seed: u64,
    pub records: usize,
}

impl Fingerprint {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\":{},\"rustc\":\"{}\",\"profile\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"records\":{}}}",
            self.cores, self.rustc, self.profile, self.workload, self.seed, self.records
        )
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    pub fingerprint: Fingerprint,
    /// Sample distribution lines: `name n min p25 median p75 max`.
    pub spread: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check violations; empty when the run is correct.
    pub problems: Vec<String>,
    /// Detection quality of the first inline pass.
    pub quality: Option<String>,
    pub rounds: usize,
    pub metrics: Vec<Metric>,
    pub span_file: Option<PathBuf>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Samples and bookkeeping accumulated over a run's rounds.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// The first inline pass's notification stream: later rounds must
    /// reproduce it.
    reference: Option<String>,
    /// The first inline pass's detection quality, for the run's output.
    quality: Option<String>,
}

impl Ledger {
    fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn check(&mut self, c: Check) {
        if let Err(e) = c {
            self.problems.push(e);
        }
    }

    /// Count one operation; `None` when it failed or came out wrong.
    fn op<T>(&mut self, r: Result<T, PassError>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(PassError::Failed(e)) => {
                self.failed += 1;
                eprintln!("operation failed: {e}");
                None
            }
            Err(PassError::Wrong(e)) => {
                self.problems.push(e);
                None
            }
        }
    }

    fn series(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[][..], Vec::as_slice)
    }

    fn median(&self, name: &str) -> f64 {
        median(self.series(name))
    }

    /// Total work over total time for per-pass rates of equal-sized
    /// passes: the harmonic mean.
    fn rate(&self, name: &str) -> f64 {
        let v = self.series(name);
        v.len() as f64 / v.iter().map(|r| 1.0 / r).sum::<f64>()
    }

    fn max(&self, name: &str) -> f64 {
        self.series(name).iter().copied().fold(f64::NAN, f64::max)
    }
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs`, interpolating linearly between order
/// statistics; NaN when `xs` is empty.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn run(opts: &Options) -> Outcome {
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..opts.setups.max(1) {
        drop(setup.take());
        let s = workload::set_up(opts.workload, opts.seed, opts.scale);
        setup_s.push(s.setup_s);
        generate_s.push(s.generate_s);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let n = setup.records.len();
    let fingerprint = Fingerprint {
        cores: std::thread::available_parallelism().map_or(1, |c| c.get()),
        rustc: env!("PERFLEDGER_RUSTC"),
        profile: env!("PERFLEDGER_PROFILE"),
        workload: opts.workload.name(),
        seed: opts.seed,
        records: n,
    };

    let mut ledger = Ledger::default();
    let mut last_tracer = None;
    let mut rounds = 0;
    let mut peak_rss = f64::NAN;
    let t0 = Instant::now();
    while rounds == 0 || t0.elapsed().as_secs_f64() < opts.seconds {
        if opts.trace {
            last_tracer = Some(traced_round(&setup, &mut ledger));
        } else {
            timed_round(&setup, &mut ledger);
        }
        rounds += 1;
        if rounds == 1 {
            // Set-up plus one pass of every path. Later rounds only add
            // allocator fragmentation from the passes' short-lived
            // threads, which varies from run to run.
            peak_rss = peak_rss_mb();
        }
        if !ledger.problems.is_empty() {
            break;
        }
    }

    for (s, g) in setup_s.iter().zip(&generate_s) {
        ledger.sample("setup_s", *s);
        ledger.sample("scenario.generate_ns_per_record", g * 1e9 / n as f64);
    }
    let metrics = if opts.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| metric(name, ledger.median(name), unit))
            .collect()
    } else {
        // Pass times on a shared host are often bimodal (other tenants
        // come and go within seconds), and a median flips between the
        // modes as their mix shifts; totals over the run do not.
        vec![
            metric("setup_s", ledger.median("setup_s"), "s"),
            metric("inline_rps", ledger.rate("inline_rps"), "records/s"),
            metric("service_rps", ledger.rate("service_rps"), "records/s"),
            metric("peak_rss_mb", peak_rss, "MB"),
            metric("snapshot_bytes", ledger.max("snapshot_bytes"), "bytes"),
        ]
    };
    let span_file = last_tracer.map(|t| {
        let path = opts
            .span_dir
            .join(format!("spans-{}-{}.json", opts.workload.name(), opts.seed));
        t.write_json(&path, &fingerprint.to_json())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        path
    });
    let spread = ledger
        .samples
        .iter()
        .map(|(name, v)| {
            let q = |p| quantile(v, p);
            format!(
                "{name} n={} min={:.6e} p25={:.6e} median={:.6e} p75={:.6e} max={:.6e}",
                v.len(),
                q(0.0),
                q(0.25),
                q(0.5),
                q(0.75),
                q(1.0)
            )
        })
        .collect();
    Outcome {
        fingerprint,
        spread,
        attempted: ledger.attempted,
        failed: ledger.failed,
        problems: ledger.problems,
        quality: ledger.quality,
        rounds,
        metrics,
        span_file,
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The untraced inline pass every round starts with, checked on its own
/// and against the run's first inline pass; on the first round also
/// scored against the generator's ground truth.
fn reference_pass(setup: &Setup, l: &mut Ledger) -> Option<Pass> {
    let inline = l.op(Ok(passes::inline(setup)))?;
    l.check(checks::accounting(
        "inline",
        &inline.report,
        setup.records.len(),
    ));
    let text = checks::stream_text(&inline.report.notifications);
    match &l.reference {
        Some(first) if *first != text => {
            l.problems
                .push("inline: notification stream changed between rounds".into());
        }
        Some(_) => {}
        None => {
            let eval = testbed::evaluate_campaign(&inline.report, &setup.truth);
            let score = checks::score(&inline.report.notifications, &setup.truth);
            l.check(checks::detection_quality(setup.workload, &eval, score));
            l.quality = Some(format!(
                "preempted {}/{} attack sessions, {} detections, {:.1} background false positives per million",
                score.preempted,
                score.attack_sessions,
                inline.report.stats.detections,
                eval.fp_per_million_background
            ));
            l.reference = Some(text);
        }
    }
    Some(inline)
}

fn check_pass(
    l: &mut Ledger,
    label: &str,
    reference: &StreamReport,
    report: &StreamReport,
    records: usize,
) {
    l.check(checks::accounting(label, report, records));
    l.check(checks::same_stream(label, reference, report));
}

fn check_restarted(l: &mut Ledger, reference: &StreamReport, r: &passes::Restarted) {
    l.check(checks::same_notifications(
        "restart",
        &reference.notifications,
        &r.notifications,
    ));
    if r.last.stats != reference.stats {
        l.problems.push(format!(
            "restart: cumulative stats {:?} differ from the inline pass's {:?}",
            r.last.stats, reference.stats
        ));
    }
}

/// Timed samples per path and round. One pass per path is too few on a
/// shared host: a pass's time varies by 10-20% with the load the host's
/// other tenants put on it.
const SAMPLES_PER_ROUND: usize = 2;

/// Inline and service passes (timed), a sharded pass (checked; its time
/// is printed with the samples but is not a metric), and a restart pass.
fn timed_round(setup: &Setup, l: &mut Ledger) {
    let n = setup.records.len();
    let Some(inline) = reference_pass(setup, l) else {
        return;
    };
    l.sample("inline_rps", n as f64 / inline.secs);
    if let Some(p) = l.op(Ok(passes::sharded(setup))) {
        check_pass(l, "sharded", &inline.report, &p.report, n);
        l.sample("sharded_rps", n as f64 / p.secs);
    }
    for k in 0..SAMPLES_PER_ROUND {
        if k > 0 {
            if let Some(p) = l.op(Ok(passes::inline(setup))) {
                check_pass(l, "inline", &inline.report, &p.report, n);
                l.sample("inline_rps", n as f64 / p.secs);
            }
        }
        if let Some(p) = l.op(passes::service(setup, None).map_err(PassError::from)) {
            check_pass(l, "service", &inline.report, &p.report, n);
            l.sample("service_rps", n as f64 / p.secs);
        }
    }
    if let Some(r) = l.op(passes::restarted(setup, setup.workload.restarts(), None)) {
        check_restarted(l, &inline.report, &r);
        for c in &r.cycles {
            l.sample("snapshot_s", c.snapshot_s);
            l.sample("restore_s", c.restore_s);
            l.sample("snapshot_bytes", c.bytes as f64);
        }
    }
}

/// The traced run's metrics and units, in report order.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("scenario.generate_ns_per_record", "ns/record"),
    ("telemetry.rescope_ns_per_record", "ns/record"),
    ("telemetry.rescope_allocs_per_record", "allocs/record"),
    ("alertlib.symbolize_ns_per_record", "ns/record"),
    ("alertlib.symbolize_allocs_per_record", "allocs/record"),
    ("alertlib.symbolize_alerts_per_record", "alerts/record"),
    ("alertlib.filter_ns_per_alert", "ns/alert"),
    ("alertlib.filter_admitted_per_alert", "ratio"),
    ("detect.tagger_ns_per_alert", "ns/alert"),
    ("detect.tagger_allocs_per_alert", "allocs/alert"),
    ("detect.tagger_resident_entities", "count"),
    ("detect.correlate_ns_per_outcome", "ns/outcome"),
    ("detect.correlate_allocs_per_outcome", "allocs/outcome"),
    ("detect.correlate_promotions", "count"),
    ("testbed.respond_ns_per_detection", "ns/detection"),
    ("bhr.blocks", "count"),
    ("testbed.inline_overhead_ns_per_record", "ns/record"),
    ("testbed.sharded_overhead_ns_per_record", "ns/record"),
    ("testbed.sharded_rps", "records/s"),
    ("testbed.trace_overhead_ns_per_record", "ns/record"),
    ("service.ingest_blocked_ns_per_record", "ns/record"),
    ("service.snapshot_s", "s"),
    ("service.restore_s", "s"),
    ("service.snapshot_ns_per_byte", "ns/byte"),
    ("service.encode_ns_per_byte", "ns/byte"),
    ("service.decode_ns_per_byte", "ns/byte"),
    ("service.restore_ns_per_byte", "ns/byte"),
];

const LAYERS: [&str; 5] = ["symbolize", "filter", "tagger", "correlate", "respond"];

/// The traced drive of every layer, plus the untraced inline and sharded
/// passes its executor-overhead figures are read against.
fn traced_round(setup: &Setup, l: &mut Ledger) -> Tracer {
    let n = setup.records.len();
    let n_f = n as f64;
    let mut t = Tracer::new();
    let Some(inline) = reference_pass(setup, l) else {
        return t;
    };
    let input = setup.records.clone();
    let traced = l.op(Ok(trace::traced_inline(setup, input, &mut t)));
    let sharded = l.op(Ok(passes::sharded(setup)));
    trace::traced_rescope(&setup.records, SERVICE_CHUNK, &mut t);
    let service = l.op(passes::service(setup, Some(&mut t)).map_err(PassError::from));
    let restarted = l.op(passes::restarted(
        setup,
        setup.workload.restarts(),
        Some(&mut t),
    ));

    let layers_ns: f64 = LAYERS
        .iter()
        .map(|name| t.totals(name).self_ns as f64)
        .sum();
    if let Some(tr) = &traced {
        check_pass(l, "traced inline", &inline.report, &tr.report, n);
        let stats = tr.report.stats;
        let sym = t.totals("symbolize");
        let filter = t.totals("filter");
        let tagger = t.totals("tagger");
        let correlate = t.totals("correlate");
        let respond = t.totals("respond");
        let per = |num: f64, den: u64| num / den.max(1) as f64;
        l.sample(
            "alertlib.symbolize_ns_per_record",
            per(sym.self_ns as f64, stats.records),
        );
        l.sample(
            "alertlib.symbolize_allocs_per_record",
            per(sym.allocs as f64, stats.records),
        );
        l.sample(
            "alertlib.symbolize_alerts_per_record",
            per(stats.alerts as f64, stats.records),
        );
        l.sample(
            "alertlib.filter_ns_per_alert",
            per(filter.self_ns as f64, stats.alerts),
        );
        l.sample(
            "alertlib.filter_admitted_per_alert",
            per(stats.admitted as f64, stats.alerts),
        );
        l.sample(
            "detect.tagger_ns_per_alert",
            per(tagger.self_ns as f64, stats.admitted),
        );
        l.sample(
            "detect.tagger_allocs_per_alert",
            per(tagger.allocs as f64, stats.admitted),
        );
        l.sample(
            "detect.tagger_resident_entities",
            tr.resident_entities as f64,
        );
        l.sample(
            "detect.correlate_ns_per_outcome",
            per(correlate.self_ns as f64, correlate.items),
        );
        l.sample(
            "detect.correlate_allocs_per_outcome",
            per(correlate.allocs as f64, correlate.items),
        );
        l.sample(
            "detect.correlate_promotions",
            tr.report.correlated_promotions as f64,
        );
        l.sample(
            "testbed.respond_ns_per_detection",
            per(respond.self_ns as f64, stats.detections),
        );
        l.sample("bhr.blocks", tr.report.blocked_sources as f64);
        l.sample(
            "testbed.inline_overhead_ns_per_record",
            (inline.secs * 1e9 - layers_ns) / n_f,
        );
        l.sample(
            "testbed.trace_overhead_ns_per_record",
            (t.wall_s("inline_pass") - inline.secs) * 1e9 / n_f,
        );
    }
    if let Some(p) = &sharded {
        check_pass(l, "sharded", &inline.report, &p.report, n);
        l.sample(
            "testbed.sharded_overhead_ns_per_record",
            (p.secs * 1e9 - layers_ns) / n_f,
        );
        l.sample("testbed.sharded_rps", n_f / p.secs);
    }
    let rescope = t.totals("rescope");
    l.sample(
        "telemetry.rescope_ns_per_record",
        rescope.self_ns as f64 / rescope.items.max(1) as f64,
    );
    l.sample(
        "telemetry.rescope_allocs_per_record",
        rescope.allocs as f64 / rescope.items.max(1) as f64,
    );
    if let Some(p) = &service {
        check_pass(l, "service", &inline.report, &p.report, n);
        let ingest = t.totals("ingest");
        l.sample(
            "service.ingest_blocked_ns_per_record",
            ingest.self_ns as f64 / n_f,
        );
    }
    if let Some(r) = &restarted {
        check_restarted(l, &inline.report, r);
        for c in &r.cycles {
            l.sample("service.snapshot_s", c.snapshot_s);
            l.sample("service.restore_s", c.restore_s);
        }
        for (name, metric) in [
            ("snapshot", "service.snapshot_ns_per_byte"),
            ("encode", "service.encode_ns_per_byte"),
            ("decode", "service.decode_ns_per_byte"),
            ("restore", "service.restore_ns_per_byte"),
        ] {
            let x = t.totals(name);
            l.sample(metric, x.self_ns as f64 / x.items.max(1) as f64);
        }
    }
    t
}
