//! Output checks. Each compares the program's outputs against a property
//! or an independent computation made in the same run — never against a
//! stored copy — and returns a description of the first violation.

use std::collections::HashMap;
use std::fmt::Write as _;

use scenario::mutate::CampaignGroundTruth;
use simnet::time::SimTime;
use testbed::{EvalReport, OperatorNotification, ServiceSnapshot, StreamReport};

use crate::workload::Workload;

pub type Check = Result<(), String>;

/// Canonical text of a notification stream: every field, scores in
/// shortest round-trip form, one line per notification. Two streams are
/// byte-identical iff their texts are equal.
pub fn stream_text(notes: &[OperatorNotification]) -> String {
    let mut s = String::new();
    for n in notes {
        let d = &n.detection;
        let _ = writeln!(
            s,
            "{}|{}|{}|{}|{}|{}|{:?}|{}|{}",
            n.ts, n.entity, n.source, d.ts, d.alert_index, d.trigger, d.score, d.stage, n.message
        );
    }
    s
}

/// Counter invariants every pass must satisfy on its own.
pub fn accounting(label: &str, report: &StreamReport, records_fed: usize) -> Check {
    let s = &report.stats;
    if s.records != records_fed as u64 {
        return Err(format!(
            "{label}: stats.records {} != {records_fed} records fed",
            s.records
        ));
    }
    let kept =
        report.retained_alerts.len() as u64 + report.alerts_dropped + report.alerts_discarded;
    if kept != s.admitted {
        return Err(format!(
            "{label}: retained + dropped + discarded = {kept} != {} admitted",
            s.admitted
        ));
    }
    if s.detections != report.notifications.len() as u64 {
        return Err(format!(
            "{label}: {} detections but {} notifications",
            s.detections,
            report.notifications.len()
        ));
    }
    Ok(())
}

/// A pass must reproduce the reference pass: the same notification
/// stream byte for byte, and the same stream counters.
pub fn same_stream(label: &str, reference: &StreamReport, report: &StreamReport) -> Check {
    if report.stats != reference.stats {
        return Err(format!(
            "{label}: stats {:?} differ from the inline pass's {:?}",
            report.stats, reference.stats
        ));
    }
    same_notifications(label, &reference.notifications, &report.notifications)
}

/// Notification streams equal byte for byte.
pub fn same_notifications(
    label: &str,
    reference: &[OperatorNotification],
    notes: &[OperatorNotification],
) -> Check {
    let (a, b) = (stream_text(reference), stream_text(notes));
    if a == b {
        return Ok(());
    }
    let line = a
        .lines()
        .zip(b.lines())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.lines().count().min(b.lines().count()));
    Err(format!(
        "{label}: notification stream differs from the inline pass's at line {line} \
         ({} vs {} notifications)",
        notes.len(),
        reference.len()
    ))
}

/// A snapshot decoded from its wire text must equal the snapshot:
/// `from_json(to_json(s)) == s`.
pub fn round_trip(snapshot: &ServiceSnapshot, decoded: &ServiceSnapshot) -> Check {
    if decoded != snapshot {
        return Err("from_json(to_json(s)) != s".into());
    }
    Ok(())
}

/// Preemption counts scored directly from a notification stream and the
/// generator's ground truth, independently of `testbed::eval`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Score {
    pub attack_sessions: usize,
    pub detected: usize,
    pub preempted: usize,
}

/// A session is detected when any of its entities was notified, and
/// preempted when the earliest such detection precedes its first damage
/// step (or it has none).
pub fn score(notes: &[OperatorNotification], truth: &CampaignGroundTruth) -> Score {
    let mut first: HashMap<&str, SimTime> = HashMap::new();
    for n in notes {
        let e = first.entry(n.entity.as_str()).or_insert(n.detection.ts);
        *e = (*e).min(n.detection.ts);
    }
    let mut s = Score {
        attack_sessions: 0,
        detected: 0,
        preempted: 0,
    };
    for session in truth.sessions.iter().filter(|s| !s.decoy) {
        s.attack_sessions += 1;
        let det = session
            .entity_keys
            .iter()
            .filter_map(|k| first.get(k.as_str()))
            .min();
        if let Some(&det) = det {
            s.detected += 1;
            if session.damage_ts.is_none_or(|damage| det < damage) {
                s.preempted += 1;
            }
        }
    }
    s
}

/// The evaluation harness must agree with the independent score, and the
/// run must meet the workload's preemption floor and false-positive
/// ceiling.
pub fn detection_quality(workload: Workload, eval: &EvalReport, independent: Score) -> Check {
    let o = &eval.overall;
    if (o.sessions, o.detected, o.preempted)
        != (
            independent.attack_sessions,
            independent.detected,
            independent.preempted,
        )
    {
        return Err(format!(
            "ground-truth scoring: eval says {}/{}/{} sessions/detected/preempted, \
             independent score says {}/{}/{}",
            o.sessions,
            o.detected,
            o.preempted,
            independent.attack_sessions,
            independent.detected,
            independent.preempted
        ));
    }
    let (floor, ceiling) = workload.quality_bounds();
    let rate = independent.preempted as f64 / independent.attack_sessions.max(1) as f64;
    if rate < floor {
        return Err(format!("preemption {rate:.3} below the {floor} floor"));
    }
    if eval.fp_per_million_background > ceiling {
        return Err(format!(
            "{:.1} background false positives per million above the {ceiling} ceiling",
            eval.fp_per_million_background
        ));
    }
    Ok(())
}
