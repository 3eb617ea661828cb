//! Executed fault tolerance for data-parallel training.
//!
//! `frontier_sim::faults` *models* failure-prone training; this module
//! *executes* it on the grid coordinator ([`super::topology`]), which
//! every threaded run shares. A seeded [`FaultPlan`] kills or stalls
//! specific worker threads at specific steps, mirroring the MTBF and
//! straggler distributions of [`matgpt_frontier_sim::faults::FaultModel`].
//! The run survives through three mechanisms:
//!
//! * **Detection** — ring collectives are bounded
//!   ([`super::CollectiveError`]): a survivor's receive from a dead peer
//!   disconnects immediately, a silent peer times out. Each worker also
//!   beats a per-rank heartbeat at every phase boundary; the coordinator
//!   declares a rank dead when it stops responding *and* its heartbeat
//!   goes stale — the heartbeat alone distinguishes a slow-but-alive
//!   worker (deadline extended) from a wedged one (declared dead).
//! * **Recovery** — every `snapshot_every` committed steps the
//!   coordinator consolidates an ordinary in-memory v2 MGPT checkpoint
//!   (weights, merged [`matgpt_optim::OptimizerState`], loader cursor,
//!   loss curves). On failure it tears the worker pool down, rolls the
//!   dataset cursor back, and restarts from the snapshot. Post-recovery
//!   training is **bit-identical** to an uninterrupted
//!   [`DataParallel::resume`] from the same image.
//! * **Elastic re-shard** — under [`RecoveryPolicy::Shrink`] the pool
//!   restarts with the survivors only: a fresh deterministic
//!   [`super::ShardPlan`] for N−1 ranks, and each new worker imports its
//!   slice of the consolidated optimizer state
//!   ([`matgpt_optim::OptimizerState::shard`], the inverse of
//!   `merge_shards`). The continuation is bit-identical to a fresh
//!   (N−1)-worker resume from the same snapshot.
//!
//! Every recovery increments `parallel_faults_total{kind}`, observes
//! `parallel_recovery_ms` and adds to `parallel_lost_work_tokens` in the
//! global metrics registry, under `fault-detect`/`rollback`/`reshard`
//! spans. The `ext_resilience` bench sweeps `snapshot_every` under a
//! model-derived plan and checks the measured goodput optimum against
//! `FaultModel::daly_interval_s` — the executed-vs-predicted claim.

use super::topology::Failure;
use super::{DataParallel, ParallelOutcome, ResumeError};
use crate::recipes::PretrainConfig;
use matgpt_frontier_sim::faults::FaultModel;
use matgpt_obs::{pids, Histogram, Registry, Span};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Fault plan: which worker dies or stalls, and when.
// ---------------------------------------------------------------------------

/// What an injected fault does to its worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker thread dies at the start of the step, its wires
    /// dropped before its first send — peers observe a vanished rank.
    Kill,
    /// The worker sleeps `ms` before its collective — a transient
    /// straggler if shorter than the collective timeout, operationally
    /// indistinguishable from a dead rank if longer.
    Stall {
        /// Sleep duration, milliseconds.
        ms: u64,
    },
}

/// One planned fault: `kind` strikes `rank` the first time it executes
/// global step `step`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedFault {
    /// Worker rank the fault strikes (in the rank numbering current at
    /// fire time; entries beyond the live world size never fire).
    pub rank: usize,
    /// Global training step the fault fires at.
    pub step: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded schedule of worker faults, consumed one-shot: each entry
/// fires the *first* time its `(rank, step)` executes, so steps
/// re-executed after a rollback are not re-struck and recovery always
/// makes progress.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<PlannedFault>,
    fired: Vec<AtomicBool>,
}

impl Clone for FaultPlan {
    fn clone(&self) -> Self {
        Self {
            faults: self.faults.clone(),
            fired: self
                .fired
                .iter()
                .map(|f| AtomicBool::new(f.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

impl FaultPlan {
    /// No faults: resilient training degenerates to the plain executor
    /// plus snapshot overhead.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan from an explicit fault list.
    pub fn new(faults: Vec<PlannedFault>) -> Self {
        let fired = faults.iter().map(|_| AtomicBool::new(false)).collect();
        Self { faults, fired }
    }

    /// Convenience: kill `rank` at `step`.
    pub fn kill(rank: usize, step: usize) -> Self {
        Self::new(vec![PlannedFault {
            rank,
            step,
            kind: FaultKind::Kill,
        }])
    }

    /// Convenience: stall `rank` at `step` for `ms` milliseconds.
    pub fn stall(rank: usize, step: usize, ms: u64) -> Self {
        Self::new(vec![PlannedFault {
            rank,
            step,
            kind: FaultKind::Stall { ms },
        }])
    }

    /// Builder: append one more fault.
    pub fn with(mut self, fault: PlannedFault) -> Self {
        self.faults.push(fault);
        self.fired.push(AtomicBool::new(false));
        self
    }

    /// Sample a plan from the simulator's failure process: exponential
    /// kill arrivals at the job MTBF
    /// ([`FaultModel::sample_failure_schedule`]) plus per-(step, rank)
    /// transient stragglers at `straggler_prob`, each stalling for the
    /// model's slowdown over one `step_s`-second step. Fully determined
    /// by `model.seed` — the same process the analytic goodput model
    /// replays, which is what makes executed-vs-predicted sweeps
    /// comparable.
    pub fn from_model(
        model: &FaultModel,
        workers: usize,
        horizon_steps: usize,
        step_s: f64,
    ) -> Self {
        let mut faults: Vec<PlannedFault> = model
            .sample_failure_schedule(workers, horizon_steps, step_s)
            .into_iter()
            .map(|(step, rank)| PlannedFault {
                rank,
                step,
                kind: FaultKind::Kill,
            })
            .collect();
        if model.straggler_prob > 0.0 {
            let stall_ms = ((model.straggler_slowdown - 1.0) * step_s * 1e3).max(1.0) as u64;
            let mut rng = ChaCha8Rng::seed_from_u64(model.seed ^ 0x057a_11e5);
            for step in 0..horizon_steps {
                for rank in 0..workers {
                    if rng.gen_bool(model.straggler_prob.clamp(0.0, 1.0)) {
                        faults.push(PlannedFault {
                            rank,
                            step,
                            kind: FaultKind::Stall { ms: stall_ms },
                        });
                    }
                }
            }
        }
        faults.sort_by_key(|f| (f.step, f.rank));
        Self::new(faults)
    }

    /// Consume the fault for `(rank, step)` if one is planned and has
    /// not fired yet.
    pub fn take(&self, rank: usize, step: usize) -> Option<FaultKind> {
        for (i, f) in self.faults.iter().enumerate() {
            if f.rank == rank
                && f.step == step
                && self.fired[i]
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return Some(f.kind);
            }
        }
        None
    }

    /// The planned faults, in order.
    pub fn planned(&self) -> &[PlannedFault] {
        &self.faults
    }

    /// How many faults have fired so far.
    pub fn fired(&self) -> usize {
        self.fired
            .iter()
            .filter(|f| f.load(Ordering::Relaxed))
            .count()
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no faults are planned.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Heartbeats: the liveness board failure detection reads.
// ---------------------------------------------------------------------------

/// Per-rank last-progress timestamps (milliseconds since pool start).
/// Workers store at every phase boundary; the coordinator reads ages to
/// tell a slow worker (recent beat → keep waiting) from a dead or
/// wedged one (stale beat → declare lost).
pub(crate) struct Heartbeats {
    t0: Instant,
    cells: Vec<AtomicU64>,
}

impl Heartbeats {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            t0: Instant::now(),
            cells: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Record progress for `rank` (stored as elapsed-ms + 1 so zero
    /// means "never beat").
    pub(crate) fn beat(&self, rank: usize) {
        self.cells[rank].store(self.t0.elapsed().as_millis() as u64 + 1, Ordering::Relaxed);
    }

    /// Milliseconds since `rank` last beat; `None` if it never has.
    pub(crate) fn age_ms(&self, rank: usize) -> Option<u64> {
        let v = self.cells[rank].load(Ordering::Relaxed);
        (v > 0).then(|| (self.t0.elapsed().as_millis() as u64 + 1).saturating_sub(v))
    }
}

// ---------------------------------------------------------------------------
// Configuration and reporting.
// ---------------------------------------------------------------------------

/// What to do with the pool after a rank is declared dead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Rebuild the full N-worker pool from the snapshot — a spare
    /// replaces the dead rank. Post-recovery training is bit-identical
    /// to an uninterrupted N-worker resume from the same snapshot.
    Respawn,
    /// Continue with the survivors: rebuild the [`super::ShardPlan`]
    /// for the shrunken world and redistribute the consolidated
    /// optimizer state across it. Falls back to [`Self::Respawn`] when
    /// the global batch does not divide by the shrunken world (or no
    /// rank can be identified) — shrinking would break the micro-batch
    /// split, and completing the run beats dying.
    Shrink,
}

/// Resilient-training knobs.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Take an in-memory snapshot every this many committed steps
    /// (clamped to ≥ 1). Smaller = less lost work per failure, more
    /// snapshot overhead — the Young/Daly tradeoff, executed.
    pub snapshot_every: usize,
    /// The injected faults.
    pub faults: FaultPlan,
    /// Respawn at N or shrink to the survivors.
    pub policy: RecoveryPolicy,
    /// Ring receive bound, ms: how long a worker waits on a silent peer
    /// before reporting [`CollectiveError::Timeout`](super::CollectiveError::Timeout).
    pub collective_timeout_ms: u64,
    /// Heartbeat age, ms, beyond which a non-responding rank is
    /// declared dead rather than slow.
    pub heartbeat_stale_ms: u64,
    /// How long the coordinator keeps draining survivor reports after
    /// the first failure signal before deciding who died, ms.
    pub grace_ms: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            snapshot_every: 4,
            faults: FaultPlan::none(),
            policy: RecoveryPolicy::Shrink,
            collective_timeout_ms: 2_000,
            heartbeat_stale_ms: 1_500,
            grace_ms: 400,
        }
    }
}

/// Why a step failed, as the coordinator classified it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureCause {
    /// A peer's ring endpoints disconnected — the thread died.
    RankLost,
    /// A peer went silent past the bounded waits but its thread never
    /// visibly exited — a stall treated as death.
    Stalled,
}

/// One detected failure and what recovery did about it.
#[derive(Clone, Debug)]
pub struct RecoveryEvent {
    /// Global step being attempted when the failure was detected.
    pub detected_at_step: usize,
    /// Ranks declared dead (empty when every rank responded but the
    /// step still failed — recovered by full respawn).
    pub dead_ranks: Vec<usize>,
    /// How the failure presented.
    pub cause: FailureCause,
    /// Snapshot step training rolled back to (0 = job start).
    pub rolled_back_to: usize,
    /// World size before the failure.
    pub workers_before: usize,
    /// World size after recovery (smaller under [`RecoveryPolicy::Shrink`]).
    pub workers_after: usize,
    /// Committed-then-discarded steps: work done since the snapshot.
    pub lost_steps: usize,
    /// Detection-to-rollback-complete wall time, ms (worker respawn
    /// overlaps the next epoch and is excluded).
    pub recovery_ms: f64,
}

/// Aggregate resilience accounting for one run.
#[derive(Clone, Debug, Default)]
pub struct ResilienceReport {
    /// Faults the plan held.
    pub faults_planned: usize,
    /// Faults that actually fired.
    pub faults_fired: usize,
    /// Every detected failure, in order.
    pub recoveries: Vec<RecoveryEvent>,
    /// Snapshots consolidated (including the final-step one).
    pub snapshots_taken: usize,
    /// Step attempts fanned out, committed or not — re-executed steps
    /// count again, so `steps_executed − cfg.steps` is the re-done work.
    pub steps_executed: usize,
    /// Total committed-then-discarded steps across all rollbacks.
    pub lost_steps: usize,
    /// `lost_steps × global-batch tokens` — the work failures destroyed.
    pub lost_work_tokens: u64,
    /// World size at completion.
    pub final_workers: usize,
    /// Shrink requests that fell back to respawn (indivisible batch or
    /// unidentifiable rank).
    pub respawn_fallbacks: usize,
    /// Flight-recorder postmortem bundles, one per detected failure —
    /// the victim's final collective events, survivors' state, and a
    /// metrics snapshot. Persisted under `$MATGPT_POSTMORTEM_DIR`
    /// (subdirectory `recovery-<i>`) when that variable is set.
    pub postmortems: Vec<matgpt_obs::flight::Postmortem>,
}

/// A resilient run's result: the ordinary [`ParallelOutcome`] (its
/// `checkpoints` are the snapshots, so callers can replay or resume any
/// of them) plus the resilience accounting.
pub struct ResilientOutcome {
    /// The trained bundle and executor accounting. When the world
    /// shrank mid-run, `report.measured_allreduce_bytes_per_step`
    /// blends epochs at different N while the formula describes the
    /// final world size.
    pub outcome: ParallelOutcome,
    /// What the faults cost and how recovery handled them.
    pub resilience: ResilienceReport,
}

// ---------------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------------

impl DataParallel {
    /// Train under injected faults, surviving them: bounded-timeout
    /// detection, snapshot rollback, and (policy-dependent) elastic
    /// re-shard to the survivors. See the [module docs](self) for the
    /// contract and `PARALLELISM.md` for the state machine.
    ///
    /// The returned outcome's `checkpoints` are the in-memory snapshots
    /// `(step, v2 image)` the run consolidated; post-recovery segments
    /// are bit-identical to [`DataParallel::resume`] runs from those
    /// images at the post-recovery world size.
    pub fn train_resilient(
        &self,
        documents: &[String],
        cfg: &PretrainConfig,
        res: ResilienceConfig,
    ) -> ResilientOutcome {
        let mut run = self
            .run_grid(documents, cfg, None, None, Some(res))
            .unwrap_or_else(|e: ResumeError| unreachable!("no resume image: {e}"));
        let resilience = std::mem::take(&mut run.resilience);
        ResilientOutcome {
            outcome: self.outcome(run, cfg),
            resilience,
        }
    }
}

/// Account for one detected failure and decide the next world size:
/// bump the fault metrics, dump a flight-recorder postmortem, charge
/// the lost work back to the `rolled_back_to` snapshot, and apply
/// `policy` to the `n`-worker pool. Returns the world size the next
/// pool runs at.
pub(super) fn recover(
    report: &mut ResilienceReport,
    failure: Failure,
    policy: RecoveryPolicy,
    n: usize,
    rolled_back_to: usize,
    cfg: &PretrainConfig,
) -> usize {
    let _roll = Span::enter(pids::PARALLEL, "dp", "rollback");
    let Failure {
        at_step,
        dead,
        cause,
        detected,
        ..
    } = failure;
    let reg = Registry::global();
    match cause {
        FailureCause::RankLost => reg.counter_with(
            "parallel_faults_total",
            &[("kind", "rank_lost")],
            "detected worker failures: dead ranks",
        ),
        FailureCause::Stalled => reg.counter_with(
            "parallel_faults_total",
            &[("kind", "stalled")],
            "detected worker failures: stalls past the bounded waits",
        ),
    }
    .inc();
    // Black-box dump the moment the failure is classified: the
    // victim's last collective events are still in its flight ring
    // (the registry keeps dead threads' rings readable).
    let victims: Vec<u64> = dead.iter().map(|&r| r as u64).collect();
    let pm = matgpt_obs::flight::Postmortem::capture(
        &format!("{cause:?} at step {at_step} (dead ranks {dead:?})"),
        &victims,
        256,
        &[Registry::global()],
    );
    if let Ok(dir) = std::env::var("MATGPT_POSTMORTEM_DIR") {
        let path = std::path::Path::new(&dir).join(format!("recovery-{}", report.recoveries.len()));
        if let Err(e) = pm.write_to(&path) {
            eprintln!("postmortem write to {} failed: {e}", path.display());
        }
    }
    report.postmortems.push(pm);
    let lost_steps = at_step - rolled_back_to;
    let lost_tokens = (lost_steps * cfg.batch_seqs * cfg.seq) as u64;
    reg.counter(
        "parallel_lost_work_tokens",
        "training tokens discarded by failure rollbacks",
    )
    .add(lost_tokens);
    report.lost_steps += lost_steps;
    report.lost_work_tokens += lost_tokens;

    let target = match policy {
        RecoveryPolicy::Respawn => n,
        RecoveryPolicy::Shrink => {
            let t = n.saturating_sub(dead.len());
            if !dead.is_empty() && t >= 1 && cfg.batch_seqs.is_multiple_of(t) {
                t
            } else {
                report.respawn_fallbacks += 1;
                n
            }
        }
    };
    if target != n {
        let _reshard = Span::enter(pids::PARALLEL, "dp", "reshard");
    }

    let recovery_ms = detected.elapsed().as_secs_f64() * 1e3;
    reg.histogram(
        "parallel_recovery_ms",
        "failure detection to rollback-complete wall time",
        &Histogram::LATENCY_MS_BOUNDS,
    )
    .observe(recovery_ms);
    report.recoveries.push(RecoveryEvent {
        detected_at_step: at_step,
        dead_ranks: dead,
        cause,
        rolled_back_to,
        workers_before: n,
        workers_after: target,
        lost_steps,
        recovery_ms,
    });
    target
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_entries_fire_exactly_once() {
        let plan = FaultPlan::kill(1, 3).with(PlannedFault {
            rank: 0,
            step: 3,
            kind: FaultKind::Stall { ms: 7 },
        });
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.take(1, 2), None);
        assert_eq!(plan.take(1, 3), Some(FaultKind::Kill));
        // one-shot: the re-executed step after a rollback is spared
        assert_eq!(plan.take(1, 3), None);
        assert_eq!(plan.take(0, 3), Some(FaultKind::Stall { ms: 7 }));
        assert_eq!(plan.fired(), 2);
    }

    #[test]
    fn fault_plan_from_model_is_seed_deterministic() {
        let fm = FaultModel {
            node_mtbf_hours: 0.05, // fail fast so the plan is non-empty
            gcds_per_node: 1,
            ..FaultModel::default()
        };
        let a = FaultPlan::from_model(&fm, 4, 64, 1.0);
        let b = FaultPlan::from_model(&fm, 4, 64, 1.0);
        assert_eq!(a.planned(), b.planned());
        assert!(!a.is_empty());
        for f in a.planned() {
            assert!(f.rank < 4 && f.step < 64);
        }
    }

    #[test]
    fn heartbeats_age_from_none_to_fresh() {
        let hb = Heartbeats::new(2);
        assert_eq!(hb.age_ms(0), None);
        hb.beat(0);
        assert!(hb.age_ms(0).expect("beaten") < 1_000);
        assert_eq!(hb.age_ms(1), None);
    }
}
