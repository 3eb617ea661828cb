//! Critical-path attribution over recorded spans and flow edges.
//!
//! Answers the question the paper's Figs. 9–11 timelines answer by
//! eyeball — *which rank and which phase dominated the step* — from
//! the executed trace itself:
//!
//! * **Per-step critical path**: for each step index, the rank with
//!   the most *busy* time — its `worker-step` span minus the union of
//!   its communication intervals — is the step's critical path. Raw
//!   span length cannot identify the critical rank in a lockstep
//!   world: the ring collectives are barriers, so every rank's step
//!   stretches to the slowest member's and all spans measure nearly
//!   equal. The rank that was *computing* while the others sat blocked
//!   in receives is the one the step actually waited on.
//! * **Straggler share**: how much of the total straggle
//!   (`critical − median`, summed over steps) each rank is
//!   responsible for, plus a flow-edge cross-check: every ring
//!   send→recv arrow attributes the receiver's blocked wait to the
//!   *sender*, so a straggler also shows up as the rank that caused
//!   the most peer wait.
//! * **Phase breakdown & ordering**: child spans of the critical
//!   rank's steps classified into the Fig. 9 phase classes
//!   (forward / backward / communication / io), with the measured
//!   ordering available to cross-check against
//!   `frontier-sim`'s simulated step timeline.

use crate::trace::{pids, FlowEvent, FlowPhase, TraceEvent};
use std::collections::BTreeMap;

/// The Fig. 9 phase classes (mirrors `frontier-sim`'s `PhaseKind`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PhaseClass {
    /// Forward compute.
    Forward,
    /// Backward compute.
    Backward,
    /// Exposed communication (ring collectives).
    Communication,
    /// Optimizer update / checkpoint / data movement.
    Io,
}

impl PhaseClass {
    /// Human label.
    pub fn label(self) -> &'static str {
        match self {
            PhaseClass::Forward => "forward",
            PhaseClass::Backward => "backward",
            PhaseClass::Communication => "communication",
            PhaseClass::Io => "io",
        }
    }
}

/// Classify a span name into a phase class (`None` for containers
/// like `worker-step` and anything unrecognised). Tensor-parallel
/// allreduces and pipeline boundary hops are communication too, even
/// where they nest inside a forward or backward span.
pub fn classify(name: &str) -> Option<PhaseClass> {
    match name {
        "forward" => Some(PhaseClass::Forward),
        "backward" => Some(PhaseClass::Backward),
        n if n.starts_with("ring.")
            || n.starts_with("pipe.")
            || n.starts_with("allgather")
            || n.starts_with("allreduce")
            || n.starts_with("reduce-scatter") =>
        {
            Some(PhaseClass::Communication)
        }
        "optimizer" | "checkpoint" | "rollback" | "reshard" => Some(PhaseClass::Io),
        _ => None,
    }
}

/// One step's critical-path row. All durations are *busy* time: the
/// `worker-step` span minus the union of the rank's communication
/// intervals, i.e. the time the rank spent off the barrier.
#[derive(Clone, Debug)]
pub struct StepPath {
    /// Step index (position of the `worker-step` span on each track).
    pub index: usize,
    /// Rank with the most busy time — the critical rank.
    pub critical_rank: u64,
    /// The critical rank's busy milliseconds.
    pub critical_ms: f64,
    /// Median busy milliseconds across ranks.
    pub median_ms: f64,
    /// `critical_ms − median_ms`: the straggle this step paid.
    pub straggle_ms: f64,
    /// Every rank's busy milliseconds.
    pub per_rank_ms: Vec<(u64, f64)>,
}

/// One rank's aggregate attribution.
#[derive(Clone, Debug)]
pub struct RankShare {
    /// Data-parallel rank.
    pub rank: u64,
    /// Fraction of total straggle attributed to this rank (its share
    /// of `straggle_ms` over the steps where it was critical).
    pub straggle_share: f64,
    /// Time peers spent blocked on receives *from* this rank,
    /// milliseconds (from flow edges — a straggler's signature).
    pub caused_wait_ms: f64,
    /// Time this rank spent blocked on its own receives, milliseconds.
    pub wait_ms: f64,
}

/// The full attribution report.
#[derive(Clone, Debug, Default)]
pub struct CriticalPathReport {
    /// Per-step rows, in step order.
    pub steps: Vec<StepPath>,
    /// Per-rank aggregates, sorted by rank.
    pub ranks: Vec<RankShare>,
    /// Milliseconds per phase class on the critical ranks' steps.
    pub phase_ms: Vec<(PhaseClass, f64)>,
    /// Phase classes ordered by their mean start offset within the
    /// critical step — the measured Fig. 9 ordering.
    pub phase_order: Vec<PhaseClass>,
    /// Send→recv flow edges resolved across ranks.
    pub flow_edges: usize,
}

impl CriticalPathReport {
    /// The rank with the largest straggle share, if any step straggled.
    pub fn straggler(&self) -> Option<u64> {
        self.ranks
            .iter()
            .filter(|r| r.straggle_share > 0.0)
            .max_by(|a, b| a.straggle_share.total_cmp(&b.straggle_share))
            .map(|r| r.rank)
    }

    /// Total critical-path milliseconds across all steps.
    pub fn critical_total_ms(&self) -> f64 {
        self.steps.iter().map(|s| s.critical_ms).sum()
    }
}

/// Reduce a phase sequence to its first-appearance order (the shape
/// compared against `frontier-sim`'s Fig. 9 timeline).
pub fn dedup_order(classes: impl IntoIterator<Item = PhaseClass>) -> Vec<PhaseClass> {
    let mut out = Vec::new();
    for c in classes {
        if !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

/// Rank parsed from a `"rank N"` (or `"rank N (victim)"`) track label.
fn rank_of_label(label: &str) -> Option<u64> {
    label
        .strip_prefix("rank ")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Run the attribution pass over recorded events, flow edges, and
/// track labels. Only `pid == pids::PARALLEL` tracks whose label names
/// a rank (`"rank N"`) participate; the i-th `worker-step` span on a
/// track is step i. Returns an empty report when fewer than two ranks
/// recorded steps.
pub fn analyze(
    events: &[TraceEvent],
    flows: &[FlowEvent],
    track_names: &[((u64, u64), String)],
) -> CriticalPathReport {
    // tid -> rank, from the track labels
    let rank_of: BTreeMap<u64, u64> = track_names
        .iter()
        .filter(|((pid, _), _)| *pid == pids::PARALLEL)
        .filter_map(|((_, tid), label)| rank_of_label(label).map(|r| (*tid, r)))
        .collect();
    if rank_of.len() < 2 {
        return CriticalPathReport::default();
    }

    // per-rank worker-step spans in time order
    let mut steps_by_rank: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        if e.pid == pids::PARALLEL && e.name == "worker-step" {
            if let Some(&rank) = rank_of.get(&e.tid) {
                steps_by_rank.entry(rank).or_default().push(e);
            }
        }
    }
    for spans in steps_by_rank.values_mut() {
        spans.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    }
    let n_steps = steps_by_rank.values().map(Vec::len).min().unwrap_or(0);
    if n_steps == 0 || steps_by_rank.len() < 2 {
        return CriticalPathReport::default();
    }

    let mut steps = Vec::with_capacity(n_steps);
    let mut straggle_by_rank: BTreeMap<u64, f64> = BTreeMap::new();
    let mut phase_ms: BTreeMap<PhaseClass, f64> = BTreeMap::new();
    let mut phase_offsets: BTreeMap<PhaseClass, (f64, usize)> = BTreeMap::new();
    for i in 0..n_steps {
        // busy time per rank: span duration minus the union of its
        // communication intervals. The union (not the sum) because the
        // per-hop `ring.send`/`ring.recv` slices nest inside the
        // collective spans that contain them.
        let per_rank_ms: Vec<(u64, f64)> = steps_by_rank
            .iter()
            .map(|(&rank, spans)| {
                let span = spans[i];
                let (lo, hi) = (span.ts_us, span.ts_us + span.dur_us);
                let mut comm: Vec<(f64, f64)> = events
                    .iter()
                    .filter(|e| {
                        e.tid == span.tid
                            && e.ts_us >= lo
                            && e.ts_us <= hi
                            && classify(&e.name) == Some(PhaseClass::Communication)
                    })
                    .map(|e| (e.ts_us, (e.ts_us + e.dur_us).min(hi)))
                    .collect();
                comm.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut comm_us = 0.0;
                let mut covered = f64::NEG_INFINITY;
                for (s, t) in comm {
                    if t > covered {
                        comm_us += t - s.max(covered);
                        covered = t;
                    }
                }
                (rank, (span.dur_us - comm_us).max(0.0) / 1e3)
            })
            .collect();
        let &(critical_rank, critical_ms) = per_rank_ms
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least two ranks");
        let mut durs: Vec<f64> = per_rank_ms.iter().map(|(_, d)| *d).collect();
        durs.sort_by(f64::total_cmp);
        let median_ms = if durs.len() % 2 == 1 {
            durs[durs.len() / 2]
        } else {
            (durs[durs.len() / 2 - 1] + durs[durs.len() / 2]) / 2.0
        };
        let straggle_ms = (critical_ms - median_ms).max(0.0);
        *straggle_by_rank.entry(critical_rank).or_default() += straggle_ms;

        // phase breakdown inside the critical rank's step window
        let crit_span = steps_by_rank[&critical_rank][i];
        let (lo, hi) = (crit_span.ts_us, crit_span.ts_us + crit_span.dur_us);
        for e in events {
            if e.tid != crit_span.tid || e.ts_us < lo || e.ts_us > hi || e.name == "worker-step" {
                continue;
            }
            if let Some(class) = classify(&e.name) {
                *phase_ms.entry(class).or_default() += e.dur_us / 1e3;
                let entry = phase_offsets.entry(class).or_default();
                entry.0 += e.ts_us - lo;
                entry.1 += 1;
            }
        }

        steps.push(StepPath {
            index: i,
            critical_rank,
            critical_ms,
            median_ms,
            straggle_ms,
            per_rank_ms,
        });
    }

    // flow edges: recv wait attributed to the sender
    let mut starts: BTreeMap<u64, &FlowEvent> = BTreeMap::new();
    let mut finishes: BTreeMap<u64, &FlowEvent> = BTreeMap::new();
    for f in flows {
        match f.phase {
            FlowPhase::Start => {
                starts.entry(f.id).or_insert(f);
            }
            FlowPhase::Finish => {
                finishes.entry(f.id).or_insert(f);
            }
            FlowPhase::Step => {}
        }
    }
    let mut wait_by_rank: BTreeMap<u64, f64> = BTreeMap::new();
    let mut caused_by_rank: BTreeMap<u64, f64> = BTreeMap::new();
    let mut flow_edges = 0usize;
    for (id, s) in &starts {
        let Some(f) = finishes.get(id) else { continue };
        let (Some(&src), Some(&dst)) = (rank_of.get(&s.tid), rank_of.get(&f.tid)) else {
            continue;
        };
        flow_edges += 1;
        // the recv slice encloses the finish point; its duration is
        // the receiver's blocked wait on this edge
        // the tightest enclosing communication slice on the receiver's
        // track is the blocked wait for this edge (0 when none encloses)
        let wait_ms = events
            .iter()
            .filter(|e| e.tid == f.tid && e.ts_us <= f.ts_us && f.ts_us <= e.ts_us + e.dur_us)
            .filter(|e| classify(&e.name) == Some(PhaseClass::Communication))
            .map(|e| e.dur_us / 1e3)
            .fold(0.0_f64, |acc, d| if acc == 0.0 { d } else { acc.min(d) });
        *wait_by_rank.entry(dst).or_default() += wait_ms;
        *caused_by_rank.entry(src).or_default() += wait_ms;
    }

    let total_straggle: f64 = straggle_by_rank.values().sum();
    let ranks = steps_by_rank
        .keys()
        .map(|&rank| RankShare {
            rank,
            straggle_share: if total_straggle > 0.0 {
                straggle_by_rank.get(&rank).copied().unwrap_or(0.0) / total_straggle
            } else {
                0.0
            },
            caused_wait_ms: caused_by_rank.get(&rank).copied().unwrap_or(0.0),
            wait_ms: wait_by_rank.get(&rank).copied().unwrap_or(0.0),
        })
        .collect();

    let mut order: Vec<(PhaseClass, f64)> = phase_offsets
        .iter()
        .map(|(&c, &(sum, n))| (c, sum / n.max(1) as f64))
        .collect();
    order.sort_by(|a, b| a.1.total_cmp(&b.1));

    CriticalPathReport {
        steps,
        ranks,
        phase_ms: phase_ms.into_iter().collect(),
        phase_order: order.into_iter().map(|(c, _)| c).collect(),
        flow_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_span(tid: u64, ts: f64, dur: f64) -> TraceEvent {
        TraceEvent::complete(pids::PARALLEL, tid, "parallel", "worker-step", ts, dur)
    }

    fn child(tid: u64, name: &str, ts: f64, dur: f64) -> TraceEvent {
        TraceEvent::complete(pids::PARALLEL, tid, "parallel", name, ts, dur)
    }

    fn tracks(n: u64) -> Vec<((u64, u64), String)> {
        (0..n)
            .map(|r| ((pids::PARALLEL, 100 + r), format!("rank {r}")))
            .collect()
    }

    #[test]
    fn every_parallel_axis_wire_is_communication() {
        for name in [
            "reduce-scatter",
            "allgather-params",
            "allreduce",
            "pipe.recv",
            "ring.send",
        ] {
            assert_eq!(classify(name), Some(PhaseClass::Communication), "{name}");
        }
        assert_eq!(classify("worker-step"), None);
    }

    #[test]
    fn identifies_the_straggler_rank() {
        // 3 ranks, 4 steps; rank 2 is 3x slower on every step
        let mut events = Vec::new();
        for step in 0..4 {
            let t0 = step as f64 * 1000.0;
            events.push(step_span(100, t0, 100.0));
            events.push(step_span(101, t0, 110.0));
            events.push(step_span(102, t0, 300.0));
        }
        let report = analyze(&events, &[], &tracks(3));
        assert_eq!(report.steps.len(), 4);
        assert_eq!(report.straggler(), Some(2));
        let r2 = report.ranks.iter().find(|r| r.rank == 2).unwrap();
        assert!(r2.straggle_share > 0.99);
        // 4 steps × 300 µs critical = 1.2 ms
        assert!((report.critical_total_ms() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn phase_order_follows_measured_offsets() {
        // one step, rank 1 critical (busy 105 vs 90), with
        // fig-9-shaped children
        let events = vec![
            step_span(100, 0.0, 90.0),
            step_span(101, 0.0, 120.0),
            child(101, "forward", 0.0, 30.0),
            child(101, "backward", 30.0, 50.0),
            child(101, "reduce-scatter", 80.0, 15.0),
            child(101, "optimizer", 95.0, 5.0),
        ];
        let report = analyze(&events, &[], &tracks(2));
        assert_eq!(
            report.phase_order,
            vec![
                PhaseClass::Forward,
                PhaseClass::Backward,
                PhaseClass::Communication,
                PhaseClass::Io
            ]
        );
        let comm: f64 = report
            .phase_ms
            .iter()
            .find(|(c, _)| *c == PhaseClass::Communication)
            .map(|(_, ms)| *ms)
            .unwrap();
        assert!((comm - 0.015).abs() < 1e-9, "15 us = 0.015 ms, got {comm}");
    }

    #[test]
    fn barrier_equalized_spans_attribute_by_busy_time() {
        // the collectives are barriers: both ranks' steps measure the
        // same 300 µs, but rank 1 computed for 280 of them while rank 0
        // sat blocked in a 200 µs receive — rank 1 is the straggler
        let mut events = Vec::new();
        for step in 0..3 {
            let t0 = step as f64 * 1000.0;
            events.push(step_span(100, t0, 300.0));
            events.push(step_span(101, t0, 300.0));
            events.push(child(100, "reduce-scatter", t0 + 90.0, 200.0));
            // nested per-hop slice must not double-count (union, not sum)
            events.push(child(100, "ring.recv", t0 + 100.0, 180.0));
            events.push(child(101, "reduce-scatter", t0 + 270.0, 20.0));
        }
        let report = analyze(&events, &[], &tracks(2));
        assert_eq!(report.straggler(), Some(1));
        let step0 = &report.steps[0];
        assert_eq!(step0.critical_rank, 1);
        assert!((step0.critical_ms - 0.28).abs() < 1e-9, "280 µs busy");
        let r0_busy = step0.per_rank_ms.iter().find(|(r, _)| *r == 0).unwrap().1;
        assert!((r0_busy - 0.1).abs() < 1e-9, "300 − 200 µs union = 100 µs");
    }

    #[test]
    fn flow_edges_attribute_wait_to_sender() {
        let events = vec![
            step_span(100, 0.0, 100.0),
            step_span(101, 0.0, 100.0),
            child(100, "ring.send", 10.0, 1.0),
            child(101, "ring.recv", 5.0, 40.0), // long blocked wait
        ];
        let flows = vec![
            FlowEvent::at(
                FlowPhase::Start,
                pids::PARALLEL,
                100,
                "ring",
                "hop",
                7,
                10.0,
            ),
            FlowEvent::at(
                FlowPhase::Finish,
                pids::PARALLEL,
                101,
                "ring",
                "hop",
                7,
                45.0,
            ),
        ];
        let report = analyze(&events, &flows, &tracks(2));
        assert_eq!(report.flow_edges, 1);
        let r0 = report.ranks.iter().find(|r| r.rank == 0).unwrap();
        let r1 = report.ranks.iter().find(|r| r.rank == 1).unwrap();
        assert!((r0.caused_wait_ms - 0.04).abs() < 1e-12);
        assert!((r1.wait_ms - 0.04).abs() < 1e-12);
    }

    #[test]
    fn too_few_ranks_yields_empty_report() {
        let events = vec![step_span(100, 0.0, 10.0)];
        let report = analyze(&events, &[], &tracks(1));
        assert!(report.steps.is_empty());
        assert!(report.straggler().is_none());
    }
}
