//! Executed data-parallel training with a ZeRO-1 sharded optimizer.
//!
//! Where [`crate::pretrain::Trainer`] advances one replica,
//! [`DataParallel`] runs **N worker replicas on OS threads**, each
//! holding a full [`ParamStore`] copy and computing gradients on a
//! disjoint micro-batch of the coordinator-sampled global batch. The
//! replicas synchronize with a hand-rolled **ring allreduce** over
//! in-process channels — chunked reduce-scatter followed by allgather,
//! exactly the schedule RCCL rings execute on Frontier, so the measured
//! per-worker traffic lands on the paper's `2(N−1)/N · M` closed form
//! ([`matgpt_frontier_sim::collectives::wire_bytes`]).
//!
//! There is one threaded executor: `DataParallel` is the
//! [`topology`] grid at `Topology::new(N, 1, 1)`, the same workers and
//! coordinator that run tensor and pipeline parallelism. This module
//! keeps the data-parallel surface (config, report, shard plan, the
//! sequential reference) and its thin entry points.
//!
//! Two synchronization modes:
//!
//! * **Replicated** ([`ParallelConfig::replicated`]) — classic DP:
//!   reduce-scatter the gradients, average, allgather them back, every
//!   worker applies the identical full optimizer step.
//! * **ZeRO-1** ([`ParallelConfig::zero1`]) — each worker owns a
//!   contiguous, tensor-aligned ~1/N shard of the flattened parameter
//!   space, keeps Adam/LAMB moments **only for its shard**
//!   ([`matgpt_optim::Optimizer::step_masked`]), and publishes updated parameters with
//!   an allgather. Optimizer-state memory per worker drops ~N×, at the
//!   same wire volume (reduce-scatter + allgather ≙ allreduce).
//!
//! # Determinism and equivalence
//!
//! f32 addition is not associative, so "DP equals single-worker
//! training on the concatenated batch" is only meaningful under a fixed
//! reduction order. The ring fixes one: chunk `c` accumulates
//! contributions in ring order starting from rank `c+1` (the rank that
//! injects chunk `c` first). [`ring_fold`] is that order as a pure
//! sequential function; [`DataParallel::train_reference`] is a
//! single-replica executor that uses it, and defines the equivalence
//! target. The guarantees, proven by `tests/parallelism.rs`:
//!
//! * threaded DP×N (replicated **and** ZeRO-1) is **bit-identical** to
//!   the sequential reference at the same N — thread scheduling never
//!   leaks into the numerics;
//! * DP×1 is **bit-identical** to [`crate::pretrain::Trainer`];
//! * replicated and ZeRO-1 are **bit-identical to each other** at any N
//!   (shard-aligned reduction buckets, whole-tensor LAMB trust ratios,
//!   and a tensor-order global-norm fold make the masked update exact);
//! * checkpoints are ordinary v2 MGPT images (ZeRO-1 shards are merged
//!   back with [`matgpt_optim::OptimizerState::merge_shards`]), so
//!   [`crate::pretrain::pretrain_resume`] composes with DP runs.
//!
//! # Fault tolerance
//!
//! The [`resilience`] submodule executes training under injected worker
//! failures: a seeded [`resilience::FaultPlan`] kills or stalls ranks at
//! specific steps, the ring detects the loss through bounded-timeout
//! collectives ([`CollectiveError`]) plus per-rank heartbeats, and
//! [`DataParallel::train_resilient`] recovers by rolling back to an
//! in-memory v2 snapshot — optionally **elastically re-sharding** from N
//! to N−1 survivors. See `PARALLELISM.md` for the state machine and the
//! determinism contract.

pub mod collective;
pub mod resilience;
pub mod topology;

use crate::pretrain::{
    build_model, build_optimizer, decode_resume, train_tokenizer, validation_loss_on, LossCurves,
    Pretrained, ResumeError, ResumeState,
};
use crate::recipes::PretrainConfig;
use matgpt_corpus::{Batch, TokenDataset};
use matgpt_frontier_sim::collectives::{wire_bytes, Collective as CollKind};
use matgpt_model::GptModel;
use matgpt_obs::{pids, Span};
use matgpt_optim::{CosineSchedule, LrSchedule};
use matgpt_tensor::precision::with_compute_precision;
use matgpt_tensor::{ParamStore, Tape};
use resilience::ResilienceConfig;
use std::ops::Range;
use std::time::{Duration, Instant};
use topology::{drive, Driven, RunError, RunSpec};

use collective::DEFAULT_RING_TIMEOUT;
pub use collective::{
    ring_allgather_rank_bytes, ring_allreduce_rank_bytes, ring_allreduce_sum,
    ring_reduce_scatter_rank_bytes, Collective, CollectiveError, PipeDir, PipeLink, RingComm,
};
/// Re-exported from `matgpt_tensor`, where the fold order now lives so
/// the tape's sequential-reference TP ops share it.
pub use matgpt_tensor::ring_fold;
pub use topology::{
    reference_topology, train_topology, MsgBin, Topology, TopologyError, TopologyOutcome,
    TopologyReport, WireAudit,
};

/// How many workers, and how they keep optimizer state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker replica count N (≥ 1). The global batch must divide by it.
    pub workers: usize,
    /// ZeRO-1: shard optimizer state across workers instead of
    /// replicating it.
    pub zero1: bool,
}

impl ParallelConfig {
    /// Classic replicated data parallelism over `workers` replicas.
    pub fn replicated(workers: usize) -> Self {
        Self {
            workers,
            zero1: false,
        }
    }

    /// Data parallelism with a ZeRO-1 sharded optimizer.
    pub fn zero1(workers: usize) -> Self {
        Self {
            workers,
            zero1: true,
        }
    }
}

/// Per-run accounting the executor reports next to the trained model.
#[derive(Clone, Debug)]
pub struct ParallelReport {
    /// Worker count the run used.
    pub workers: usize,
    /// Whether optimizer state was ZeRO-1 sharded.
    pub zero1: bool,
    /// Optimizer steps executed by this run.
    pub steps_run: usize,
    /// Flattened parameter count M (scalars).
    pub param_scalars: usize,
    /// Owned scalars per worker (the ZeRO-1 shard sizes; sums to
    /// `param_scalars`).
    pub shard_scalars: Vec<usize>,
    /// Measured gradient-sync traffic: mean bytes sent per worker per
    /// step (reduce-scatter + allgather, counted on the channels).
    pub measured_allreduce_bytes_per_step: f64,
    /// The analytic `2(N−1)/N · 4M` per-rank allreduce volume the paper
    /// profiles — the mean measured traffic must land on it exactly.
    pub formula_allreduce_bytes_per_step: f64,
    /// Σ over steps of the slowest worker's gradient-compute time — the
    /// bulk-synchronous critical path's compute term.
    pub critical_compute_ms: f64,
    /// Total gradient-compute time per worker.
    pub total_compute_ms: Vec<f64>,
    /// Synchronization cost: reduction/fold time (reference executor)
    /// or time blocked on ring channels (threaded workers), per worker.
    pub comm_ms: Vec<f64>,
    /// Per-step serial remainder (grad load, clip, optimizer update) on
    /// the critical path, summed over steps.
    pub post_ms: f64,
    /// Optimizer-state bytes held by each worker after training
    /// ([`matgpt_optim::Optimizer::state_bytes`] accounting).
    pub opt_state_bytes: Vec<usize>,
}

impl ParallelReport {
    /// The bulk-synchronous critical path: slowest-worker compute plus
    /// synchronization plus the serial per-step remainder. On a machine
    /// with ≥ N cores this is the step wall-clock; measuring the terms
    /// contention-free keeps the ratio portable to single-core CI.
    pub fn critical_path_ms(&self) -> f64 {
        let comm = self.comm_ms.iter().cloned().fold(0.0, f64::max);
        self.critical_compute_ms + comm + self.post_ms
    }

    /// Largest per-worker optimizer-state footprint in bytes.
    pub fn max_opt_state_bytes(&self) -> usize {
        self.opt_state_bytes.iter().copied().max().unwrap_or(0)
    }
}

/// What a data-parallel run returns.
pub struct ParallelOutcome {
    /// The trained bundle, identical in shape to [`fn@crate::pretrain::pretrain`]'s.
    pub pretrained: Pretrained,
    /// Executor accounting (traffic, timings, memory).
    pub report: ParallelReport,
    /// `(steps_completed, bytes)` checkpoints when periodic
    /// checkpointing was requested; empty otherwise.
    pub checkpoints: Vec<(usize, Vec<u8>)>,
}

// ---------------------------------------------------------------------------
// Shard plan: tensor-aligned contiguous partition of the flat space.
// ---------------------------------------------------------------------------

/// The partition both ring collectives and ZeRO-1 ownership use: rank
/// `r` owns a contiguous run of whole tensors, balanced by scalar
/// count. Using the same bounds for reduction chunks and optimizer
/// shards is what makes ZeRO-1 bit-identical to replicated DP.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Per-rank scalar ranges in the flat layout.
    pub flat: Vec<Range<usize>>,
    /// Per-rank tensor-index ranges.
    pub tensors: Vec<Range<usize>>,
    /// Flat offset of each tensor (prefix sums of the sizes).
    pub offsets: Vec<usize>,
    /// Total scalar count M.
    pub total: usize,
}

/// Typed failure for [`ShardPlan::try_new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardPlanError {
    /// Zero ranks cannot partition anything.
    NoRanks,
}

impl std::fmt::Display for ShardPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardPlanError::NoRanks => write!(f, "shard plan needs at least one rank"),
        }
    }
}

impl std::error::Error for ShardPlanError {}

impl ShardPlan {
    /// Partition tensors of the given sizes across `n` ranks.
    ///
    /// Panics when `n == 0` ([`ShardPlan::try_new`] is the
    /// non-panicking form). Degenerate inputs are clamped, never
    /// implicit:
    /// * **more ranks than tensors** (or than scalars) leaves the
    ///   surplus ranks with empty shards — they own nothing and move
    ///   zero-length ring chunks;
    /// * **zero-length tensors** are owned by the rank whose tensor
    ///   range contains them (trailing ones by the last rank), so
    ///   [`ShardPlan::owners`] covers every tensor;
    /// * **`n == 1`** degenerates to one rank owning the whole flat
    ///   space.
    pub fn new(sizes: &[usize], n: usize) -> Self {
        Self::try_new(sizes, n).expect("need at least one rank")
    }

    /// As [`ShardPlan::new`], returning a typed error instead of
    /// panicking on a zero-rank request.
    pub fn try_new(sizes: &[usize], n: usize) -> Result<Self, ShardPlanError> {
        if n == 0 {
            return Err(ShardPlanError::NoRanks);
        }
        let mut offsets = Vec::with_capacity(sizes.len() + 1);
        let mut acc = 0usize;
        for &s in sizes {
            offsets.push(acc);
            acc += s;
        }
        let total = acc;
        // Snap the ideal equal cuts to tensor boundaries: shard r covers
        // tensors [b_r, b_{r+1}) where b_r is the boundary nearest to
        // r·M/n (rounding to the nearest boundary rather than always up
        // halves the worst-case skew a large tensor can induce). The
        // outer cuts are pinned so the partition always covers all
        // tensors, including zero-length ones at offset 0 or M.
        let cut = |i: usize| -> usize {
            if i == 0 {
                return 0;
            }
            if i >= n {
                return sizes.len();
            }
            let ideal = i * total / n;
            let hi = offsets.partition_point(|&off| off < ideal);
            if hi == 0 {
                return 0;
            }
            let hi_off = offsets.get(hi).copied().unwrap_or(total);
            let lo_off = offsets[hi - 1];
            if ideal - lo_off < hi_off - ideal {
                hi - 1
            } else {
                hi
            }
        };
        let mut tensors = Vec::with_capacity(n);
        let mut flat = Vec::with_capacity(n);
        let mut prev = 0usize;
        for r in 0..n {
            // clamp keeps the boundaries monotone when duplicate offsets
            // (zero-length tensors) make nearest-rounding ambiguous
            let a = prev;
            let b = cut(r + 1).clamp(a, sizes.len());
            prev = b;
            tensors.push(a..b);
            let start = offsets.get(a).copied().unwrap_or(total);
            let end = offsets.get(b).copied().unwrap_or(total);
            flat.push(start..end);
        }
        offsets.push(total);
        Ok(Self {
            flat,
            tensors,
            offsets,
            total,
        })
    }

    /// Ownership mask over tensors for `rank` (the
    /// [`matgpt_optim::Optimizer::step_masked`] argument).
    pub fn owned_mask(&self, rank: usize) -> Vec<bool> {
        let n_tensors = self.offsets.len() - 1;
        (0..n_tensors)
            .map(|t| self.tensors[rank].contains(&t))
            .collect()
    }

    /// For every tensor, the rank that owns it (the
    /// [`matgpt_optim::OptimizerState::merge_shards`] argument).
    pub fn owners(&self) -> Vec<usize> {
        let n_tensors = self.offsets.len() - 1;
        (0..n_tensors)
            .map(|t| {
                self.tensors
                    .iter()
                    .position(|r| r.contains(&t))
                    .expect("every tensor has an owner")
            })
            .collect()
    }

    /// Scalar count owned by each rank.
    pub fn shard_scalars(&self) -> Vec<usize> {
        self.flat.iter().map(|r| r.len()).collect()
    }
}

// ---------------------------------------------------------------------------
// Shared numerics (coordinator, workers and reference must agree bitwise).
// ---------------------------------------------------------------------------

/// Rank-order left-fold mean — the one loss-averaging order every
/// executor uses so recorded curves agree bitwise.
fn fold_mean(losses: &[f32]) -> f32 {
    losses.iter().copied().fold(0.0f32, |a, b| a + b) / losses.len() as f32
}

/// Split the coordinator's global batch into per-rank micro-batches of
/// `rows` rows each (contiguous row blocks, rank order).
fn split_batch(batch: &Batch, n: usize) -> Vec<Batch> {
    assert!(batch.batch.is_multiple_of(n), "batch divides over workers");
    let rows = batch.batch / n;
    let stride = rows * batch.seq;
    (0..n)
        .map(|r| Batch {
            inputs: batch.inputs[r * stride..(r + 1) * stride].to_vec(),
            targets: batch.targets[r * stride..(r + 1) * stride].to_vec(),
            batch: rows,
            seq: batch.seq,
        })
        .collect()
}

/// One replica's gradient computation for one micro-batch: zero grads,
/// forward and backward on the compute-precision weights. Returns the
/// micro loss. The sequential reference's twin of a grid worker's
/// step.
fn micro_grads(
    cfg: &PretrainConfig,
    model: &GptModel,
    store: &mut ParamStore,
    micro: &Batch,
) -> f32 {
    store.zero_grads();
    with_compute_precision(store, cfg.precision, |store| {
        let mut tape = Tape::new();
        let loss = {
            let _s = Span::enter(pids::PARALLEL, "dp", "forward");
            model.loss(
                &mut tape,
                store,
                &micro.inputs,
                &micro.targets,
                micro.batch,
                micro.seq,
            )
        };
        let _s = Span::enter(pids::PARALLEL, "dp", "backward");
        tape.backward(loss);
        tape.accumulate_param_grads(store);
        tape.value(loss).item()
    })
}

/// Scale `buf[own]` by 1/n — the gradient-averaging step, applied by
/// each chunk's owner right after the reduce-scatter so every element
/// is scaled exactly once. Skipped at n = 1 to keep DP×1 bit-identical
/// to the plain [`crate::pretrain::Trainer`] (which never averages).
fn scale_owned(buf: &mut [f32], own: &Range<usize>, n: usize) {
    if n > 1 {
        let inv = 1.0f32 / n as f32;
        for x in &mut buf[own.clone()] {
            *x *= inv;
        }
    }
}

// ---------------------------------------------------------------------------
// The data-parallel entry points.
// ---------------------------------------------------------------------------

/// The data-parallel training executor. See the module docs for the
/// synchronization modes and equivalence guarantees.
///
/// # Examples
///
/// ```
/// use matgpt_core::parallel::{DataParallel, ParallelConfig};
/// use matgpt_core::{OptChoice, PretrainConfig, SizeRole};
/// use matgpt_corpus::{build_corpus, CorpusConfig};
/// use matgpt_model::ArchKind;
/// use matgpt_tokenizer::TokenizerKind;
///
/// let documents = build_corpus(&CorpusConfig {
///     n_materials: 8,
///     total_docs: 24,
///     offtopic_fraction: 0.2,
///     seed: 5,
/// })
/// .documents;
/// let cfg = PretrainConfig {
///     steps: 2,
///     batch_seqs: 4,
///     seq: 16,
///     ..PretrainConfig::scaled(
///         ArchKind::Llama,
///         TokenizerKind::Hf,
///         300,
///         OptChoice::Adam,
///         SizeRole::Base,
///     )
/// };
///
/// // Two replicas with a ZeRO-1 sharded optimizer.
/// let outcome = DataParallel::new(ParallelConfig::zero1(2)).train(&documents, &cfg);
/// assert_eq!(outcome.report.workers, 2);
/// assert!(outcome.pretrained.curves.final_train().is_finite());
/// // Each worker held roughly half the optimizer state.
/// let max_shard = outcome.report.max_opt_state_bytes();
/// let replicated: usize = 8 + 2 * 4 * outcome.report.param_scalars;
/// assert!(max_shard < replicated);
/// ```
pub struct DataParallel {
    cfg: ParallelConfig,
}

impl DataParallel {
    /// An executor for the given worker/sharding configuration.
    pub fn new(cfg: ParallelConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        Self { cfg }
    }

    /// Train `cfg` on `documents` across the configured workers.
    pub fn train(&self, documents: &[String], cfg: &PretrainConfig) -> ParallelOutcome {
        let run = self
            .run_grid(documents, cfg, None, None, None)
            .expect("fresh runs cannot fail to resume");
        self.outcome(run, cfg)
    }

    /// As [`DataParallel::train`], checkpointing every `every` steps
    /// (and at the final step). The images are ordinary v2 MGPT
    /// checkpoints: [`crate::pretrain::pretrain_resume`] accepts them.
    pub fn train_with_checkpoints(
        &self,
        documents: &[String],
        cfg: &PretrainConfig,
        every: usize,
    ) -> ParallelOutcome {
        let run = self
            .run_grid(documents, cfg, Some(every.max(1)), None, None)
            .expect("fresh runs cannot fail to resume");
        self.outcome(run, cfg)
    }

    /// Resume a checkpointed run (from [`DataParallel`] or a
    /// single-worker [`crate::pretrain::Trainer`]) and finish it under
    /// data parallelism.
    pub fn resume(
        &self,
        documents: &[String],
        cfg: &PretrainConfig,
        bytes: &[u8],
    ) -> Result<ParallelOutcome, ResumeError> {
        let restore = decode_resume(cfg, bytes)?;
        let run = self.run_grid(documents, cfg, None, Some(restore), None)?;
        Ok(self.outcome(run, cfg))
    }

    /// The sequential reference executor: one replica, one thread,
    /// micro-batch gradients combined with [`ring_fold`] — the
    /// deterministic-reduction definition of "single-worker training on
    /// the concatenated batch" that the threaded executor must (and
    /// does) match bit-for-bit. Also the contention-free way to measure
    /// per-worker compute on machines with fewer cores than workers.
    pub fn train_reference(
        documents: &[String],
        cfg: &PretrainConfig,
        workers: usize,
    ) -> ParallelOutcome {
        assert!(workers >= 1, "need at least one worker");
        assert!(
            cfg.batch_seqs.is_multiple_of(workers),
            "global batch {} must divide across {workers} workers",
            cfg.batch_seqs
        );
        let tokenizer = train_tokenizer(cfg.tokenizer, cfg.vocab, documents);
        let vocab = tokenizer.vocab_size();
        let (model, mut store) = build_model(cfg, vocab);
        let mut dataset = TokenDataset::new(documents, tokenizer.as_ref(), 0.08, cfg.seed ^ 0xda7a);
        let val_batches = dataset.val_batches(2, cfg.seq);
        let mut opt = build_optimizer(cfg);
        let schedule = CosineSchedule::paper(cfg.lr, cfg.steps);
        let plan = ShardPlan::new(&store.tensor_sizes(), workers);
        let eval_every = (cfg.steps / 10).max(1);

        let mut train_curve = Vec::new();
        let mut val_curve = Vec::new();
        let mut critical_ms = 0.0f64;
        let mut total_compute = vec![0.0f64; workers];
        let mut fold_ms = 0.0f64;
        let mut post_ms = 0.0f64;

        for step in 0..cfg.steps {
            let batch = dataset.sample_batch(cfg.batch_seqs, cfg.seq);
            let micros = split_batch(&batch, workers);
            let mut losses = Vec::with_capacity(workers);
            let mut parts = Vec::with_capacity(workers);
            let mut slowest = 0.0f64;
            for (r, micro) in micros.iter().enumerate() {
                let t0 = Instant::now();
                losses.push(micro_grads(cfg, &model, &mut store, micro));
                parts.push(store.flat_grads());
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                total_compute[r] += ms;
                slowest = slowest.max(ms);
            }
            critical_ms += slowest;

            let t1 = Instant::now();
            let mut reduced = if workers == 1 {
                parts.pop().expect("one part")
            } else {
                ring_fold(&parts, &plan.flat)
            };
            for r in 0..workers {
                scale_owned(&mut reduced, &plan.flat[r], workers);
            }
            fold_ms += t1.elapsed().as_secs_f64() * 1e3;

            let t2 = Instant::now();
            store.load_flat_grads(&reduced);
            let lr = schedule.lr(step);
            store.clip_grad_norm(1.0);
            opt.step(&mut store, lr);
            post_ms += t2.elapsed().as_secs_f64() * 1e3;

            if step.is_multiple_of(eval_every) || step + 1 == cfg.steps {
                train_curve.push((step, fold_mean(&losses)));
                val_curve.push((step, validation_loss_on(&model, &store, &val_batches)));
            }
        }

        let formula = wire_bytes(CollKind::AllReduce, (plan.total * 4) as f64, workers);
        let report = ParallelReport {
            workers,
            zero1: false,
            steps_run: cfg.steps,
            param_scalars: plan.total,
            shard_scalars: plan.shard_scalars(),
            measured_allreduce_bytes_per_step: formula,
            formula_allreduce_bytes_per_step: formula,
            critical_compute_ms: critical_ms,
            total_compute_ms: total_compute,
            comm_ms: vec![fold_ms],
            post_ms,
            opt_state_bytes: vec![opt.state_bytes()],
        };
        ParallelOutcome {
            pretrained: Pretrained {
                model,
                store,
                tokenizer,
                curves: LossCurves {
                    label: cfg.label(),
                    train: train_curve,
                    val: val_curve,
                },
                config: cfg.clone(),
            },
            report,
            checkpoints: Vec::new(),
        }
    }

    /// Run this executor's `N × 1 × 1` grid. Plain runs bound every
    /// ring receive by [`DEFAULT_RING_TIMEOUT`], resilient runs by
    /// their `collective_timeout_ms`.
    fn run_grid(
        &self,
        documents: &[String],
        cfg: &PretrainConfig,
        checkpoint_every: Option<usize>,
        restore: Option<ResumeState>,
        resilience: Option<ResilienceConfig>,
    ) -> Result<Driven, ResumeError> {
        let timeout = resilience.as_ref().map_or(DEFAULT_RING_TIMEOUT, |r| {
            Duration::from_millis(r.collective_timeout_ms.max(1))
        });
        let spec = RunSpec {
            topo: Topology {
                timeout,
                ..Topology::new(self.cfg.workers, 1, 1)
            },
            zero1: self.cfg.zero1,
            checkpoint_every,
            restore,
            resilience,
        };
        match drive(documents, cfg, spec) {
            Ok(run) => Ok(run),
            Err(RunError::Resume(e)) => Err(e),
            Err(RunError::Topology(e)) => panic!("data-parallel run failed: {e}"),
        }
    }

    /// Package a finished grid run as the data-parallel outcome.
    fn outcome(&self, run: Driven, cfg: &PretrainConfig) -> ParallelOutcome {
        let n = run.topo.dp;
        let plan = ShardPlan::new(&run.store.tensor_sizes(), n);
        let acct = run.acct;
        ParallelOutcome {
            report: ParallelReport {
                workers: n,
                zero1: self.cfg.zero1,
                steps_run: run.steps_run,
                param_scalars: plan.total,
                shard_scalars: plan.shard_scalars(),
                measured_allreduce_bytes_per_step: acct.dp_bytes as f64
                    / acct.worker_steps.max(1) as f64,
                formula_allreduce_bytes_per_step: wire_bytes(
                    CollKind::AllReduce,
                    (plan.total * 4) as f64,
                    n,
                ),
                critical_compute_ms: acct.critical_ms,
                total_compute_ms: acct.compute_ms,
                comm_ms: acct.comm_ms,
                post_ms: 0.0,
                opt_state_bytes: acct.opt_bytes,
            },
            pretrained: Pretrained {
                model: run.model,
                store: run.store,
                tokenizer: run.tokenizer,
                curves: LossCurves {
                    label: cfg.label(),
                    train: run.train_curve,
                    val: run.val_curve,
                },
                config: cfg.clone(),
            },
            checkpoints: run.checkpoints,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_covers_and_aligns() {
        let sizes = vec![100, 3, 50, 50, 7, 90];
        for n in 1..=4 {
            let plan = ShardPlan::new(&sizes, n);
            assert_eq!(plan.total, 300);
            assert_eq!(plan.flat.len(), n);
            // contiguous cover of the flat space
            assert_eq!(plan.flat[0].start, 0);
            assert_eq!(plan.flat[n - 1].end, 300);
            for w in plan.flat.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            // every bound is a tensor boundary
            for r in &plan.flat {
                assert!(plan.offsets.contains(&r.start));
                assert!(plan.offsets.contains(&r.end));
            }
            // ownership is a partition
            let owners = plan.owners();
            assert_eq!(owners.len(), sizes.len());
            for (t, &o) in owners.iter().enumerate() {
                assert!(plan.owned_mask(o)[t]);
            }
        }
    }

    #[test]
    fn shard_plan_more_ranks_than_tensors_leaves_empty_shards() {
        let sizes = vec![8, 4];
        let plan = ShardPlan::new(&sizes, 5);
        assert_eq!(plan.flat.len(), 5);
        assert_eq!(plan.shard_scalars().iter().sum::<usize>(), 12);
        // coverage is contiguous even through the empty shards
        assert_eq!(plan.flat[0].start, 0);
        assert_eq!(plan.flat[4].end, 12);
        for w in plan.flat.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        let owners = plan.owners();
        assert_eq!(owners.len(), 2);
        for (t, &o) in owners.iter().enumerate() {
            assert!(plan.owned_mask(o)[t]);
        }
        assert!(
            plan.shard_scalars().contains(&0),
            "surplus ranks own nothing"
        );
    }

    #[test]
    fn shard_plan_zero_length_tensors_are_always_owned() {
        // zero-length tensors at the head, middle and tail — every one
        // must still have exactly one owner, whatever the rank count
        let sizes = vec![0, 5, 0, 7, 0, 0];
        for n in 1..=5 {
            let plan = ShardPlan::new(&sizes, n);
            assert_eq!(plan.total, 12);
            let owners = plan.owners();
            assert_eq!(owners.len(), sizes.len());
            for (t, &o) in owners.iter().enumerate() {
                assert!(plan.owned_mask(o)[t], "tensor {t} owned at n={n}");
            }
            assert_eq!(plan.flat[0].start, 0);
            assert_eq!(plan.flat[n - 1].end, 12);
        }
    }

    #[test]
    fn shard_plan_degenerate_all_zero_and_empty_inputs() {
        for sizes in [vec![], vec![0, 0, 0]] {
            for n in 1..=3 {
                let plan = ShardPlan::new(&sizes, n);
                assert_eq!(plan.total, 0);
                assert_eq!(plan.owners().len(), sizes.len());
                assert!(plan.flat.iter().all(|r| r.is_empty()));
            }
        }
    }

    #[test]
    fn shard_plan_single_worker_owns_everything() {
        let plan = ShardPlan::new(&[3, 0, 9], 1);
        assert_eq!(plan.flat, vec![0..12]);
        assert_eq!(plan.tensors, vec![0..3]);
        assert_eq!(plan.owners(), vec![0, 0, 0]);
    }

    #[test]
    fn shard_plan_zero_ranks_is_a_typed_error() {
        assert!(matches!(
            ShardPlan::try_new(&[4], 0),
            Err(ShardPlanError::NoRanks)
        ));
    }

    #[test]
    fn fold_mean_of_single_loss_is_identity() {
        let l = 2.3456789f32;
        assert_eq!(fold_mean(&[l]).to_bits(), l.to_bits());
    }

    #[test]
    fn split_batch_partitions_rows_in_rank_order() {
        let batch = Batch {
            inputs: (0..12).collect(),
            targets: (100..112).collect(),
            batch: 4,
            seq: 3,
        };
        let micros = split_batch(&batch, 2);
        assert_eq!(micros[0].inputs, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(micros[1].inputs, vec![6, 7, 8, 9, 10, 11]);
        assert_eq!(micros[1].targets, vec![106, 107, 108, 109, 110, 111]);
        assert_eq!(micros[0].batch, 2);
        assert_eq!(micros[0].seq, 3);
    }
}
