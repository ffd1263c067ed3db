//! Spans and the traced, layer-by-layer drive of the inline pipeline.
//!
//! A [`Tracer`] records spans (name, start, end, parent, allocations,
//! work items) in memory; nothing is written until the run ends. The
//! traced drive assembles the Fig. 4 stages from their public
//! constructors exactly as `PipelineBuilder::build` does, feeds them
//! batch by batch through their public adapter entry points, and ends
//! with the same end-of-stream flush as the inline executor — so it is
//! the same program, and the run checks that by requiring the untraced
//! inline notification stream byte for byte.

use std::io::Write as _;
use std::time::Instant;

use alertlib::alert::Alert;
use alertlib::filter::ScanFilter;
use alertlib::symbolize::Symbolizer;
use bhr::api::BhrHandle;
use detect::correlate::CampaignCorrelator;
use detect::AttackTagger;
use simnet::intern::{SymScope, TenantId, TenantSymbols};
use telemetry::record::LogRecord;
use testbed::stage::adapters::{
    DetectOutcome, DetectorStage, FilterStage, ResponseStage, SymbolizeStage,
};
use testbed::stage::{AlertRetention, Stage};
use testbed::{OperatorNotification, StreamReport, StreamStats};

use crate::alloc;
use crate::workload::Setup;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Allocations made on the tracing thread inside the span.
    pub allocs: u64,
    /// Work items the span handled (records, alerts, outcomes, bytes).
    pub items: u64,
}

/// Per-name totals over a tracer's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Self time: span durations minus their children's.
    pub self_ns: u64,
    pub allocs: u64,
    pub items: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that encloses later spans; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            allocs: 0,
            items: 0,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: u32, items: u64) {
        let end_ns = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.items = items;
    }

    /// Run `f` as a leaf span, counting its allocations on this thread.
    pub fn span<T>(&mut self, name: &'static str, items: u64, f: impl FnOnce() -> T) -> T {
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        let (allocs, out) = alloc::counted(f);
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            allocs,
            items,
        });
        out
    }

    /// Set the work items of the most recent span of each name (for
    /// spans whose size is known only after a later step).
    pub fn set_last_items(&mut self, names: &[&str], items: u64) {
        for name in names {
            if let Some(s) = self.spans.iter_mut().rev().find(|s| s.name == *name) {
                s.items = items;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals of every span called `name`.
    pub fn totals(&self, name: &str) -> Totals {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut t = Totals::default();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            if s.name == name {
                t.self_ns += (s.end_ns - s.start_ns).saturating_sub(*child);
                t.allocs += s.allocs;
                t.items += s.items;
            }
        }
        t
    }

    /// Wall time of the first span called `name`, in seconds.
    pub fn wall_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// Write `{"fingerprint": .., "spans": [..]}` (span id = position).
    pub fn write_json(&self, path: &std::path::Path, fingerprint: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"fingerprint\":{fingerprint},\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"allocs\":{},\"items\":{}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.allocs, s.items
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// The inline stage composition, driven layer by layer.
struct Drive {
    symbolize: SymbolizeStage,
    filter: FilterStage,
    detect: DetectorStage,
    correlate: Option<CampaignCorrelator>,
    response: ResponseStage,
    retention: AlertRetention,
    stats: StreamStats,
    notes: Vec<OperatorNotification>,
    alerts: Vec<Alert>,
    admitted: Vec<Alert>,
    outcomes: Vec<DetectOutcome>,
}

impl Drive {
    /// Assemble the stages the way `PipelineBuilder::from_config(..).build()`
    /// does for a global-scope pipeline without faults or overrides.
    fn assemble(setup: &Setup) -> Drive {
        let cfg = &setup.cfg;
        let mut symbolizer_cfg = cfg.symbolizer.clone();
        for c2 in &cfg.c2_feed {
            symbolizer_cfg.c2_addresses.insert(*c2);
        }
        let mut detect =
            DetectorStage::tagger(AttackTagger::new(setup.model.clone(), cfg.tagger.clone()));
        if let Some(temporal) = &cfg.tuning.temporal {
            detect.apply_temporal(temporal);
        }
        if cfg.tuning.detect_max_entities != 0 {
            detect.apply_entity_budget(cfg.tuning.detect_max_entities);
        }
        let correlate = detect.build_correlator();
        let response = ResponseStage::new(
            BhrHandle::new(),
            cfg.block_on_detection,
            cfg.detection_block_ttl,
            detect.source(),
        )
        .with_retry(cfg.tuning.retry.clone(), cfg.seed);
        Drive {
            symbolize: SymbolizeStage::new(Symbolizer::new(symbolizer_cfg)),
            filter: FilterStage::new(ScanFilter::new(cfg.filter.clone())),
            detect,
            correlate,
            response,
            retention: AlertRetention::new(cfg.tuning.alert_retention),
            stats: StreamStats::default(),
            notes: Vec::new(),
            alerts: Vec::with_capacity(64),
            admitted: Vec::with_capacity(64),
            outcomes: Vec::with_capacity(64),
        }
    }

    fn batch(&mut self, t: &mut Tracer, records: &[LogRecord]) {
        self.stats.records += records.len() as u64;
        self.alerts.clear();
        let (symbolize, alerts) = (&mut self.symbolize, &mut self.alerts);
        t.span("symbolize", records.len() as u64, || {
            symbolize.process_batch(records, alerts)
        });
        self.stats.alerts += self.alerts.len() as u64;
        self.tail(t);
    }

    /// Filter → detect → correlate → respond → retain over `alerts`.
    fn tail(&mut self, t: &mut Tracer) {
        self.admitted.clear();
        let (filter, alerts, admitted) = (&mut self.filter, &mut self.alerts, &mut self.admitted);
        t.span("filter", alerts.len() as u64, || {
            filter.admit_drain(alerts, admitted)
        });
        self.stats.admitted += self.admitted.len() as u64;
        self.outcomes.clear();
        let (detect, admitted, outcomes) =
            (&mut self.detect, &mut self.admitted, &mut self.outcomes);
        t.span("tagger", admitted.len() as u64, || {
            detect.process_drain(admitted, outcomes)
        });
        self.finish(t);
    }

    fn finish(&mut self, t: &mut Tracer) {
        let outcomes = &mut self.outcomes;
        if let Some(c) = self.correlate.as_mut() {
            t.span("correlate", outcomes.len() as u64, || {
                for o in outcomes.iter_mut() {
                    c.observe(&o.alert, o.attack_score, &mut o.detection);
                }
            });
        }
        let detections = outcomes.iter().filter(|o| o.detection.is_some()).count() as u64;
        let (response, notes) = (&mut self.response, &mut self.notes);
        t.span("respond", detections, || {
            response.respond(None, outcomes, notes)
        });
        self.stats.detections += detections;
        for o in outcomes.drain(..) {
            self.retention.push(o.alert);
        }
    }

    /// End-of-stream drain, step for step the inline executor's flush.
    fn flush(&mut self, t: &mut Tracer) {
        self.alerts.clear();
        let (symbolize, alerts) = (&mut self.symbolize, &mut self.alerts);
        t.span("symbolize", 0, || symbolize.flush(alerts));
        self.stats.alerts += self.alerts.len() as u64;
        self.tail(t);
        self.admitted.clear();
        let (filter, admitted) = (&mut self.filter, &mut self.admitted);
        t.span("filter", 0, || filter.flush(admitted));
        self.stats.admitted += self.admitted.len() as u64;
        self.outcomes.clear();
        let (detect, admitted, outcomes) =
            (&mut self.detect, &mut self.admitted, &mut self.outcomes);
        t.span("tagger", admitted.len() as u64, || {
            detect.process_drain(admitted, outcomes);
            detect.flush(outcomes);
        });
        self.finish(t);
        let (response, notes) = (&mut self.response, &mut self.notes);
        t.span("respond", 0, || response.flush(notes));
    }

    fn into_report(self) -> StreamReport {
        let (campaigns, correlated_promotions, correlated_confirmations) = match &self.correlate {
            Some(c) => (c.summaries(), c.promotions(), c.tagger_confirmations()),
            None => (Vec::new(), 0, 0),
        };
        StreamReport {
            stats: self.stats,
            filter: self.filter.stats(),
            notifications: self.notes,
            alerts_dropped: self.retention.dropped(),
            alerts_discarded: self.retention.discarded(),
            blocked_sources: self.response.blocked_sources(),
            duplicates_suppressed: self.detect.duplicates_suppressed(),
            blocks_retried: self.response.blocks_retried(),
            blocks_abandoned: self.response.blocks_abandoned(),
            notifications_retried: self.response.notifications_retried(),
            notifications_abandoned: self.response.notifications_abandoned(),
            fault: None,
            campaigns,
            correlated_promotions,
            correlated_confirmations,
            retained_alerts: self.retention.into_vec(),
        }
    }
}

/// What the traced inline drive leaves behind besides its report.
pub struct TracedInline {
    pub report: StreamReport,
    /// Entities the tagger holds state for at end of stream.
    pub resident_entities: usize,
}

/// Drive the inline pipeline batch by batch under `t`: one `inline_pass`
/// span holding a `batch` span per record batch and a `flush` span, each
/// holding one leaf span per layer. Records are consumed the way the
/// inline executor consumes them (moved into a batch buffer), so traced
/// minus untraced pass time is the cost of the spans.
pub fn traced_inline(setup: &Setup, input: Vec<LogRecord>, t: &mut Tracer) -> TracedInline {
    let mut d = Drive::assemble(setup);
    let batch = setup.cfg.tuning.batch_size.max(1);
    let mut buf: Vec<LogRecord> = Vec::with_capacity(batch);
    let pass = t.begin("inline_pass");
    let mut records = 0u64;
    let mut run = |d: &mut Drive, t: &mut Tracer, buf: &mut Vec<LogRecord>| {
        let b = t.begin("batch");
        d.batch(t, buf);
        t.end(b, buf.len() as u64);
        records += buf.len() as u64;
        buf.clear();
    };
    for r in input {
        buf.push(r);
        if buf.len() >= batch {
            run(&mut d, t, &mut buf);
        }
    }
    if !buf.is_empty() {
        run(&mut d, t, &mut buf);
    }
    let f = t.begin("flush");
    d.flush(t);
    t.end(f, 0);
    t.end(pass, records);
    let resident_entities = d.detect.as_tagger().map_or(0, |tg| tg.tracked_entities());
    TracedInline {
        report: d.into_report(),
        resident_entities,
    }
}

/// Re-mint every record into a fresh tenant universe, batch by batch, the
/// way the service's ingest path does (`rescope` spans).
pub fn traced_rescope(records: &[LogRecord], chunk: usize, t: &mut Tracer) -> usize {
    let symbols = TenantSymbols::new();
    let scope = symbols.scope(TenantId(1));
    let global = SymScope::global();
    let mut minted = 0;
    for batch in records.chunks(chunk) {
        let scoped: Vec<LogRecord> = t.span("rescope", batch.len() as u64, || {
            batch.iter().map(|r| r.rescope(&global, &scope)).collect()
        });
        minted += scoped.len();
    }
    minted
}
