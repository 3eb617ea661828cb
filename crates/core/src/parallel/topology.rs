//! The one threaded training executor: a `dp × tp × pp` grid of worker
//! threads — the executed (not simulated) 3-D parallel topology of the
//! paper's Sec. 4.
//!
//! One worker thread runs per grid coordinate `(d, s, r)` — data
//! replica `d`, pipeline stage `s`, tensor rank `r` — at flat index
//! `i = (d·pp + s)·tp + r`, and every wire between workers is a
//! [`Collective`](super::Collective) ring or a [`PipeLink`], so one
//! fallible, byte-audited communication layer carries every axis:
//!
//! * **TP** — each `(d, s)` pair owns a `tp`-rank ring; the four
//!   Megatron sync points per layer (`f` after each norm on the way
//!   back, `g` after each row-parallel matmul on the way forward) run
//!   as real ring allreduces through a [`RingComm`] tape hook, in
//!   ring-fold order so the result is bitwise reproducible.
//! * **PP** — each `(d, r)` column owns `pp − 1` [`PipeLink`]s; the
//!   per-step schedule is 1F1B (warm-up of `min(chunks, pp − 1 − s)`
//!   forwards, then alternating forward/backward, then cool-down),
//!   with boundary activations and gradients as p2p transfers.
//! * **DP** — each `(s, r)` pair owns a `dp`-rank ring that
//!   reduce-scatters the shard-store gradient and scales the owned
//!   chunk by `1/dp`. Replicated DP allgathers the average back; under
//!   **ZeRO-1** each rank keeps optimizer moments for its own chunk
//!   only ([`matgpt_optim::Optimizer::step_masked`]) and the same ring
//!   allgathers the per-tensor squared norms, then the updated
//!   parameters.
//! * **Grad-norm** — global clipping needs one scalar across the whole
//!   grid; each replica `d` owns a `pp·tp`-member ring that allgathers
//!   per-tensor squared norms, folded in one canonical order (stages
//!   ascending, tensors in registration order, sharded tensors summed
//!   over tp ranks, replicated tensors counted once from rank 0).
//!
//! Weights are rounded to `cfg.precision`'s grid for each step's
//! forward and backward passes, with fp32 masters kept for the update
//! ([`with_compute_precision`]).
//!
//! # Coordinator
//!
//! [`train_topology`] and every [`DataParallel`](super::DataParallel)
//! entry point drive one coordinator (`DataParallel` is the `N × 1 × 1`
//! grid). It samples the global batch, sends one `Step` command per
//! worker, and collects the replies under a bounded deadline:
//! heartbeats tell a slow worker from a dead one, and a reported wire
//! failure starts a grace drain, after which whoever never replied is
//! dead. On full-replica grids (`tp = pp = 1`) it also consolidates v2
//! checkpoints (ZeRO-1 shards merged, worker 0 writes the image) and,
//! for resilient runs, rolls back to the newest one after a failure —
//! see [`super::resilience`] and `PARALLELISM.md`.
//!
//! # Observability
//!
//! Every worker labels its flight ring and trace track `rank {i}` and
//! wraps each step in a `worker-step` span whose children are the
//! `forward`/`backward` pass of each chunk, the collectives and the
//! `optimizer` update. Worker 0 validates in its own `validation` span
//! after the step. The `parallel_steps_total`,
//! `parallel_allreduce_bytes_total` and `parallel_step_sync_wait_ms`
//! families count per worker under `worker="{i}"`.
//!
//! [`reference_topology`] replays the identical arithmetic on a single
//! thread — one tape per micro-batch chunk spanning all stages and
//! ranks ([`matgpt_model::tp::reference_loss`]), [`ring_fold`] in place
//! of the threaded rings — so `train ≡ reference` is a bitwise test,
//! not a tolerance test. Every worker also audits its wire bytes
//! against closed forms and logs a per-collective message-size
//! histogram for comparison against the simulator's Fig. 11 model.

use super::collective::{
    ring_allgather_rank_bytes, ring_allreduce_rank_bytes, ring_reduce_scatter_rank_bytes,
    CollectiveError, PipeDir, PipeLink, Ring, RingComm,
};
use super::resilience::{
    recover, FailureCause, FaultKind, FaultPlan, Heartbeats, ResilienceConfig, ResilienceReport,
};
use super::{fold_mean, scale_owned, split_batch, ShardPlan, DEFAULT_RING_TIMEOUT};
use crate::pretrain::{
    build_model, build_optimizer, checkpoint_sections, decode_resume, train_tokenizer,
    validation_loss_on, ResumeError, ResumeState,
};
use crate::recipes::PretrainConfig;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use matgpt_corpus::{Batch, TokenDataset};
use matgpt_frontier_sim::collectives::{wire_bytes, Collective as CollKind};
use matgpt_model::tp::{
    accumulate_staged_grads, consolidate_shards, reference_loss, shard_model, stage_ranges,
    validate_plan, ShardModel, StageForward, StageInput, TpPlanError,
};
use matgpt_model::GptModel;
use matgpt_obs::{flight, pids, thread_tid, Histogram, Recorder, Registry, Span};
use matgpt_optim::{CosineSchedule, LrSchedule, OptimizerState};
use matgpt_tensor::precision::{restore_masters, round_for_compute, with_compute_precision};
use matgpt_tensor::{
    checkpoint, ring_chunks, ring_fold, CommHook, ParamStore, Tape, TapeComm, Tensor, Var,
};
use matgpt_tokenizer::Tokenizer;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A `dp × tp × pp` device grid plus the micro-batch chunk count for
/// the 1F1B pipeline schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Data-parallel replicas.
    pub dp: usize,
    /// Tensor-parallel ranks per replica-stage.
    pub tp: usize,
    /// Pipeline stages.
    pub pp: usize,
    /// Micro-batch chunks per step (1F1B schedule width). Defaults to
    /// `pp`; more chunks shrink the pipeline bubble
    /// `(pp−1)/(pp−1+chunks)`.
    pub chunks: usize,
    /// Deadline on every ring/link receive — a lost or wedged worker
    /// surfaces as a typed [`CollectiveError`], never a hang.
    pub timeout: Duration,
}

impl Topology {
    /// A grid with `chunks = pp` and the default receive deadline.
    pub fn new(dp: usize, tp: usize, pp: usize) -> Self {
        assert!(
            dp >= 1 && tp >= 1 && pp >= 1,
            "degenerate axes are 1, not 0"
        );
        Topology {
            dp,
            tp,
            pp,
            chunks: pp,
            timeout: DEFAULT_RING_TIMEOUT,
        }
    }

    /// Override the micro-batch chunk count.
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        assert!(chunks >= 1, "need at least one chunk");
        self.chunks = chunks;
        self
    }

    /// Total worker count `dp · tp · pp`.
    pub fn world(&self) -> usize {
        self.dp * self.tp * self.pp
    }

    /// Compact label for reports and CI logs, e.g. `dp2-tp2-pp1c1`
    /// (`c` is the chunk count).
    pub fn describe(&self) -> String {
        format!("dp{}-tp{}-pp{}c{}", self.dp, self.tp, self.pp, self.chunks)
    }

    /// Flat worker index of grid coordinate `(d, s, r)`.
    fn index(&self, d: usize, s: usize, r: usize) -> usize {
        (d * self.pp + s) * self.tp + r
    }

    /// Grid coordinate `(d, s, r)` of flat worker index `i`.
    fn coords(&self, i: usize) -> (usize, usize, usize) {
        (
            i / (self.pp * self.tp),
            (i / self.tp) % self.pp,
            i % self.tp,
        )
    }
}

/// Why a topology run could not start or finish.
#[derive(Debug)]
pub enum TopologyError {
    /// The model does not divide across the requested grid.
    Plan(TpPlanError),
    /// The optimizer update is not elementwise (LAMB's per-tensor
    /// trust ratio), so per-shard updates would diverge from the
    /// assembled-tensor update under TP.
    Optimizer {
        /// The requested tensor-parallel width.
        tp: usize,
    },
    /// The global batch does not divide across `dp` replicas.
    Batch {
        /// Global batch (sequences).
        batch: usize,
        /// Data-parallel replicas.
        dp: usize,
    },
    /// More chunks than micro-batch rows — some chunks would be empty.
    Chunks {
        /// Requested chunk count.
        chunks: usize,
        /// Rows per replica.
        rows: usize,
    },
    /// A collective failed mid-step on one worker; the step did not
    /// commit anywhere (peers observe the loss and abort too).
    Step {
        /// Training step that failed.
        step: usize,
        /// Data replica of the reporting worker.
        d: usize,
        /// Pipeline stage of the reporting worker.
        stage: usize,
        /// Tensor rank of the reporting worker.
        tp_rank: usize,
        /// The underlying wire failure.
        err: CollectiveError,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Plan(e) => write!(f, "topology plan: {e}"),
            TopologyError::Optimizer { tp } => write!(
                f,
                "optimizer update is not elementwise; cannot shard across tp={tp}"
            ),
            TopologyError::Batch { batch, dp } => {
                write!(f, "global batch {batch} does not divide across dp={dp}")
            }
            TopologyError::Chunks { chunks, rows } => {
                write!(
                    f,
                    "{chunks} chunks over {rows} rows leaves empty micro-batches"
                )
            }
            TopologyError::Step {
                step,
                d,
                stage,
                tp_rank,
                err,
            } => write!(
                f,
                "step {step} failed at (d={d}, stage={stage}, tp={tp_rank}): {err}"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

impl From<TpPlanError> for TopologyError {
    fn from(e: TpPlanError) -> Self {
        TopologyError::Plan(e)
    }
}

/// One worker's measured wire bytes next to the closed forms the
/// ring/link algorithms imply — equality is exact, not approximate.
#[derive(Clone, Copy, Debug)]
pub struct WireAudit {
    /// Data replica.
    pub d: usize,
    /// Pipeline stage.
    pub stage: usize,
    /// Tensor rank.
    pub tp_rank: usize,
    /// Bytes this worker sent on its TP activation ring.
    pub tp_bytes: u64,
    /// Closed form: `steps · Σ_chunks 4·layers_s ·` per-rank ring
    /// allreduce bytes over `rows_j·seq·hidden` scalars.
    pub tp_expected: u64,
    /// Bytes sent on the DP gradient ring.
    pub dp_bytes: u64,
    /// Closed form: per-rank reduce-scatter + allgather bytes over the
    /// shard store's tensor-aligned chunk bounds.
    pub dp_expected: u64,
    /// Bytes sent on the grad-norm allgather ring.
    pub norm_bytes: u64,
    /// Closed form: per-member allgather bytes over the per-tensor
    /// squared-norm segments.
    pub norm_expected: u64,
    /// Bytes sent over pipeline boundary links (both directions).
    pub pipe_bytes: u64,
    /// Closed form: `steps · dirs · Σ_chunks 4·rows_j·seq·hidden`.
    pub pipe_expected: u64,
}

impl WireAudit {
    /// Did every measured counter hit its closed form exactly?
    pub fn exact(&self) -> bool {
        self.tp_bytes == self.tp_expected
            && self.dp_bytes == self.dp_expected
            && self.norm_bytes == self.norm_expected
            && self.pipe_bytes == self.pipe_expected
    }
}

/// One bin of the executed message-size histogram: a distinct
/// (collective kind, logical buffer bytes, group size) with its
/// group-level call count — the executed twin of the simulator's
/// Fig. 11 message-size breakdown.
#[derive(Clone, Copy, Debug)]
pub struct MsgBin {
    /// Collective kind.
    pub kind: CollKind,
    /// Logical buffer size in bytes (the full tensor, not per-rank
    /// wire traffic).
    pub bytes: u64,
    /// Participating ranks.
    pub group: usize,
    /// Group-level calls across the run.
    pub calls: u64,
}

/// What a topology run measured about its own communication.
#[derive(Clone, Debug)]
pub struct TopologyReport {
    /// The grid that ran.
    pub topo: Topology,
    /// Optimizer steps executed.
    pub steps_run: usize,
    /// Full-model scalar count.
    pub param_scalars: usize,
    /// Per-worker wire audit, `(d, s, r)` lexicographic. Empty for the
    /// sequential reference (nothing crosses a wire there).
    pub wire: Vec<WireAudit>,
    /// Executed message-size histogram.
    pub msg_bins: Vec<MsgBin>,
}

impl TopologyReport {
    /// True when every worker's bytes match the closed forms exactly.
    pub fn wire_exact(&self) -> bool {
        self.wire.iter().all(|w| w.exact())
    }

    /// Each bin's share of total wire traffic (bin wire bytes =
    /// per-call [`wire_bytes`] formula × calls), for comparison against
    /// the simulator's message-size shares.
    pub fn message_shares(&self) -> Vec<(CollKind, u64, f64)> {
        let weights: Vec<f64> = self
            .msg_bins
            .iter()
            .map(|b| wire_bytes(b.kind, b.bytes as f64, b.group) * b.calls as f64)
            .collect();
        let total: f64 = weights.iter().sum();
        self.msg_bins
            .iter()
            .zip(&weights)
            .map(|(b, w)| (b.kind, b.bytes, if total > 0.0 { w / total } else { 0.0 }))
            .collect()
    }
}

/// A finished topology run: the consolidated full model plus curves
/// and the communication report.
pub struct TopologyOutcome {
    /// The full (unsharded) model description.
    pub model: GptModel,
    /// Consolidated full parameter store.
    pub store: ParamStore,
    /// `(step, loss)` at eval points — the dp-mean of per-replica
    /// chunk-weighted losses.
    pub train_curve: Vec<(usize, f32)>,
    /// Validation loss of the consolidated model after the last step.
    pub final_val: f32,
    /// Wire audit and message histogram.
    pub report: TopologyReport,
}

/// No-op tape hook for `tp == 1`: the sync ops degenerate to
/// identity and push nothing onto the tape.
struct NullComm;

impl TapeComm for NullComm {
    fn allreduce(&self, _buf: &mut [f32]) {}
    fn take_error(&self) -> Option<String> {
        None
    }
    fn group(&self) -> usize {
        1
    }
}

/// Canonical fold of the allgathered per-tensor squared norms into the
/// global grad norm: stages ascending, tensors in registration order;
/// a sharded tensor sums its `tp` partial norms in rank order, a
/// replicated tensor is counted once, from rank 0. Both the threaded
/// executor and the sequential reference fold in exactly this order,
/// so the clip scale — and therefore every weight — matches bitwise.
fn fold_grad_norm(
    buf: &[f32],
    counts: &[usize],
    flags: &[Vec<bool>],
    tp: usize,
    bounds: &[Range<usize>],
) -> f32 {
    let mut total = 0.0f32;
    for (s, &cnt) in counts.iter().enumerate() {
        for i in 0..cnt {
            if flags[s][i] {
                for r in 0..tp {
                    total += buf[bounds[s * tp + r].start + i];
                }
            } else {
                total += buf[bounds[s * tp].start + i];
            }
        }
    }
    total.sqrt()
}

/// Where each grad-norm ring member's per-tensor squared norms sit in
/// the allgathered buffer: member `(s, r)` gets `counts[s]` slots,
/// members in `(stage, rank)` order.
fn norm_layout(counts: &[usize], tp: usize) -> Vec<Range<usize>> {
    let mut bounds = Vec::with_capacity(counts.len() * tp);
    let mut off = 0usize;
    for &count in counts {
        for _r in 0..tp {
            bounds.push(off..off + count);
            off += count;
        }
    }
    bounds
}

/// Squared norms of the tensors in `tensors` (registration indices;
/// zero elsewhere) read from a flat gradient buffer laid out by `plan`
/// — each computed exactly like `Tensor::sq_norm`, so clipping on them
/// matches [`ParamStore::clip_grad_norm`] bitwise.
fn sq_norms(flat: &[f32], plan: &ShardPlan, tensors: Range<usize>) -> Vec<f32> {
    let mut out = vec![0.0f32; plan.offsets.len() - 1];
    for t in tensors {
        out[t] = flat[plan.offsets[t]..plan.offsets[t + 1]]
            .iter()
            .map(|x| x * x)
            .sum();
    }
    out
}

/// Scale the flat gradient in place when the canonical norm exceeds
/// the clip ceiling — same condition and scale as
/// [`ParamStore::clip_grad_norm`] at `max_norm = 1.0`.
fn clip_flat(flat: &mut [f32], norm: f32) {
    if norm > 1.0 {
        let s = 1.0 / norm;
        for v in flat.iter_mut() {
            *v *= s;
        }
    }
}

fn chunk_weight(rows_j: usize, rows: usize) -> f32 {
    rows_j as f32 / rows as f32
}

/// Shared validation for the threaded grid and its sequential replay.
/// Returns `(rows_per_replica, stage layer ranges)`.
fn validate_topology(
    cfg: &PretrainConfig,
    model: &GptModel,
    topo: &Topology,
) -> Result<(usize, Vec<Range<usize>>), TopologyError> {
    validate_plan(&model.cfg, topo.tp, topo.pp)?;
    if !cfg.batch_seqs.is_multiple_of(topo.dp) {
        return Err(TopologyError::Batch {
            batch: cfg.batch_seqs,
            dp: topo.dp,
        });
    }
    let rows = cfg.batch_seqs / topo.dp;
    if topo.chunks > rows {
        return Err(TopologyError::Chunks {
            chunks: topo.chunks,
            rows,
        });
    }
    if topo.tp > 1 && !build_optimizer(cfg).elementwise() {
        return Err(TopologyError::Optimizer { tp: topo.tp });
    }
    Ok((rows, stage_ranges(model.cfg.layers, topo.pp)))
}

// ---------------------------------------------------------------------------
// Worker protocol.
// ---------------------------------------------------------------------------

/// Coordinator → worker.
#[derive(Debug)]
enum Cmd {
    /// Run one training step on this replica's micro-batch. `eval`
    /// asks worker 0 to validate afterwards when it holds a full
    /// replica.
    Step {
        step: usize,
        lr: f32,
        eval: bool,
        batch: Batch,
    },
    /// Reply with the optimizer state (the owned shard under ZeRO-1).
    ExportOpt,
    /// Worker 0: wrap the weights and these sections into a v2 image.
    Assemble(Vec<(String, Vec<u8>)>),
    /// Hand the shard back and exit.
    Finish,
}

/// Worker → coordinator.
enum Reply {
    Done(StepDone),
    /// A wire failed under worker `i`: it reports the typed error and
    /// exits — the coordinator decides who actually died.
    Failed {
        i: usize,
        err: CollectiveError,
    },
    Opt(usize, OptimizerState),
    Image(Vec<u8>),
}

/// One worker's account of a committed step.
struct StepDone {
    i: usize,
    d: usize,
    /// The replica's chunk-weighted loss (last stage, tensor rank 0).
    loss: Option<f32>,
    /// Validation loss (worker 0 at eval points, full replicas only).
    val: Option<f32>,
    /// Step wall time not spent blocked on receives.
    compute_ms: f64,
    /// Step time blocked on receives, every wire.
    comm_ms: f64,
    /// Bytes sent on the dp ring this step.
    dp_bytes: u64,
    opt_bytes: usize,
}

/// Everything one worker thread owns: its shard, its wires, and its
/// command/reply channels.
struct Seat {
    i: usize,
    shard: ShardModel,
    store: ParamStore,
    tp_ring: Option<Ring>,
    dp_ring: Option<Ring>,
    norm_ring: Option<Ring>,
    prev: Option<PipeLink>,
    next: Option<PipeLink>,
    cmd: Receiver<Cmd>,
    out: Sender<Reply>,
}

/// What every worker of one pool reads.
struct Shared<'a> {
    cfg: &'a PretrainConfig,
    topo: Topology,
    zero1: bool,
    /// The full model description: at `tp = pp = 1` a shard store has
    /// its layout, so worker 0 validates with it.
    model: &'a GptModel,
    val_batches: &'a [Batch],
    /// Grad-norm fold layout (see [`fold_grad_norm`]).
    counts: Vec<usize>,
    flags: Vec<Vec<bool>>,
    norm_bounds: Vec<Range<usize>>,
    /// Consolidated optimizer state to start from (full replicas).
    opt_restore: Option<&'a OptimizerState>,
    faults: &'a FaultPlan,
    beats: Heartbeats,
}

/// A worker's wires, opened per thread (the tape hook is `Rc`).
struct Wires {
    tp: Option<Rc<RingComm>>,
    dp: Option<Ring>,
    norm: Option<Ring>,
    prev: Option<PipeLink>,
    next: Option<PipeLink>,
}

impl Wires {
    /// Tag every wire's flow events with the current step.
    fn set_step(&mut self, step: usize) {
        let step = step as u64;
        if let Some(c) = &self.tp {
            c.set_step(step);
        }
        for ring in [&mut self.dp, &mut self.norm].into_iter().flatten() {
            ring.step = step;
        }
        for link in [&mut self.prev, &mut self.next].into_iter().flatten() {
            link.step = step;
        }
    }

    /// Milliseconds blocked on receives so far, over every wire.
    fn wait_ms(&self) -> f64 {
        self.tp.as_ref().map_or(0.0, |c| c.wait_ms())
            + [&self.dp, &self.norm]
                .into_iter()
                .flatten()
                .map(|g| g.wait_ms)
                .sum::<f64>()
            + [&self.prev, &self.next]
                .into_iter()
                .flatten()
                .map(PipeLink::wait_ms)
                .sum::<f64>()
    }

    fn dp_bytes(&self) -> u64 {
        self.dp.as_ref().map_or(0, |g| g.sent_bytes)
    }
}

/// What a worker hands back after `Finish`: its shard (for
/// consolidation), its message log, and its wire audit.
struct WorkerReturn {
    shard: ShardModel,
    store: ParamStore,
    msg_log: Vec<(CollKind, u64, usize)>,
    audit: WireAudit,
}

#[allow(clippy::too_many_lines)]
fn grid_worker(seat: Seat, sh: &Shared<'_>) -> Option<WorkerReturn> {
    let Seat {
        i,
        shard,
        mut store,
        tp_ring,
        dp_ring,
        norm_ring,
        prev,
        next,
        cmd,
        out,
    } = seat;
    let Topology {
        dp, tp, pp, chunks, ..
    } = sh.topo;
    let (d, s, r) = sh.topo.coords(i);
    let mut wires = Wires {
        tp: tp_ring.map(|ring| Rc::new(RingComm::new(ring))),
        dp: dp_ring,
        norm: norm_ring,
        prev,
        next,
    };
    let hook = match &wires.tp {
        Some(c) => CommHook::new(c.clone() as Rc<dyn TapeComm>),
        None => CommHook::new(Rc::new(NullComm)),
    };

    // Identify this thread everywhere observability looks: the flight
    // ring (postmortems flag the victim by rank), and the global
    // recorder's track names (critical-path attribution parses them).
    flight::label_thread(format!("rank {i}"), Some(i as u64));
    Recorder::global().set_track_name(pids::PARALLEL, thread_tid(), format!("rank {i}"));
    let label = i.to_string();
    let labels = [("worker", label.as_str())];
    let reg = Registry::global();
    let bytes_total = reg.counter_with(
        "parallel_allreduce_bytes_total",
        &labels,
        "gradient-sync bytes this worker sent on the ring",
    );
    let sync_wait = reg.histogram_with(
        "parallel_step_sync_wait_ms",
        &labels,
        "per-step time blocked on ring receives",
        &Histogram::LATENCY_MS_BOUNDS,
    );
    let steps_total = reg.counter_with(
        "parallel_steps_total",
        &labels,
        "data-parallel steps this worker executed",
    );

    let plan = ShardPlan::new(&store.tensor_sizes(), dp);
    let mask = plan.owned_mask(d);
    let mut opt = build_optimizer(sh.cfg);
    if let Some(full) = sh.opt_restore {
        opt.import_state(if sh.zero1 {
            full.shard(&mask)
        } else {
            full.clone()
        });
    }
    let rows = sh.cfg.batch_seqs / dp;
    let seq = sh.cfg.seq;
    let h = shard.cfg.hidden;
    let row_bounds = ring_chunks(rows, chunks);
    let member = s * tp + r;
    let norm_total = sh.norm_bounds.last().map_or(0, |b| b.end);
    let full_replica = tp == 1 && pp == 1;
    let mut msg_log: Vec<(CollKind, u64, usize)> = Vec::new();
    let mut steps_run = 0u64;

    // Per-step closed forms, multiplied by steps_run for the audit.
    let layers_s = shard.layer_range.len();
    let exp_tp_step: u64 = if tp > 1 {
        row_bounds
            .iter()
            .map(|b| (4 * layers_s) as u64 * ring_allreduce_rank_bytes(b.len() * seq * h, tp, r))
            .sum()
    } else {
        0
    };
    // ZeRO-1 swaps the gradient allgather for a parameter allgather of
    // the same size and adds one of the per-tensor squared norms.
    let exp_dp_step: u64 = if dp > 1 {
        ring_reduce_scatter_rank_bytes(&plan.flat, d)
            + ring_allgather_rank_bytes(&plan.flat, d)
            + if sh.zero1 {
                ring_allgather_rank_bytes(&plan.tensors, d)
            } else {
                0
            }
    } else {
        0
    };
    let exp_norm_step: u64 = if pp * tp > 1 {
        ring_allgather_rank_bytes(&sh.norm_bounds, member)
    } else {
        0
    };
    let exp_pipe_step: u64 = {
        let per_dir: u64 = row_bounds
            .iter()
            .map(|b| (4 * b.len() * seq * h) as u64)
            .sum();
        ((s + 1 < pp) as u64 + (s > 0) as u64) * per_dir
    };

    while let Ok(msg) = cmd.recv() {
        let (step, lr, eval, batch) = match msg {
            Cmd::Step {
                step,
                lr,
                eval,
                batch,
            } => (step, lr, eval, batch),
            Cmd::ExportOpt => {
                if out.send(Reply::Opt(d, opt.export_state())).is_err() {
                    return None;
                }
                continue;
            }
            Cmd::Assemble(sections) => {
                let _s = Span::enter(pids::PARALLEL, "dp", "checkpoint");
                let image = checkpoint::save_with_sections(&store, &sections).to_vec();
                if out.send(Reply::Image(image)).is_err() {
                    return None;
                }
                continue;
            }
            Cmd::Finish => break,
        };
        sh.beats.beat(i);
        wires.set_step(step);
        let step_span = Span::enter(pids::PARALLEL, "dp", "worker-step");
        match sh.faults.take(i, step) {
            // Die before the first send: the wires drop with the
            // thread, and peers observe exactly what a vanished node
            // looks like.
            Some(FaultKind::Kill) => return None,
            Some(FaultKind::Stall { ms }) => std::thread::sleep(Duration::from_millis(ms)),
            None => {}
        }
        let dp_before = wires.dp_bytes();
        let wait_before = wires.wait_ms();
        let t0 = Instant::now();

        let stepped = (|| -> Result<Option<f32>, CollectiveError> {
            store.zero_grads();
            let loss = with_compute_precision(
                &mut store,
                sh.cfg.precision,
                |store| -> Result<f32, CollectiveError> {
                    let mut loss_acc = 0.0f32;
                    let mut pending: VecDeque<(Tape, StageForward, Option<Var>)> = VecDeque::new();
                    // 1F1B: warm-up forwards, steady 1F1B pairs, cool-down
                    // backwards. Backwards drain the queue in FIFO chunk order.
                    let warmup = chunks.min(pp - 1 - s);
                    let mut sched: Vec<(bool, usize)> = Vec::with_capacity(2 * chunks);
                    for j in 0..warmup {
                        sched.push((true, j));
                    }
                    for j in warmup..chunks {
                        sched.push((true, j));
                        sched.push((false, j - warmup));
                    }
                    for j in (chunks - warmup)..chunks {
                        sched.push((false, j));
                    }

                    for (is_fwd, j) in sched {
                        let b = &row_bounds[j];
                        let rows_j = b.len();
                        if is_fwd {
                            let _s = Span::enter(pids::PARALLEL, "dp", "forward");
                            let mut tape = Tape::new();
                            let input = if shard.first_stage {
                                StageInput::Tokens(&batch.inputs[b.start * seq..b.end * seq])
                            } else {
                                let data = wires
                                    .prev
                                    .as_mut()
                                    .expect("non-first stage has a prev link")
                                    .recv(j, PipeDir::Forward)?;
                                StageInput::Activation(Tensor::from_vec(&[rows_j * seq, h], data))
                            };
                            let targets: Option<&[u32]> = shard
                                .last_stage
                                .then(|| &batch.targets[b.start * seq..b.end * seq]);
                            let sf = shard.stage_forward(
                                &mut tape, store, input, targets, &hook, rows_j, seq,
                            );
                            if let Some(err) = wires.tp.as_ref().and_then(|c| c.take_failure()) {
                                return Err(err);
                            }
                            let root = if shard.last_stage {
                                let w = chunk_weight(rows_j, rows);
                                loss_acc += w * tape.value(sf.out).item();
                                Some(if chunks > 1 {
                                    tape.scale(sf.out, w)
                                } else {
                                    sf.out
                                })
                            } else {
                                let act = tape.value(sf.out).data().to_vec();
                                msg_log.push((CollKind::P2p, (4 * act.len()) as u64, 2));
                                wires
                                    .next
                                    .as_mut()
                                    .expect("non-last stage has a next link")
                                    .send(act, j, PipeDir::Forward)?;
                                None
                            };
                            pending.push_back((tape, sf, root));
                        } else {
                            let _s = Span::enter(pids::PARALLEL, "dp", "backward");
                            let (mut tape, sf, root) = pending.pop_front().expect("1F1B queue");
                            match root {
                                Some(v) => tape.backward(v),
                                None => {
                                    let g = wires
                                        .next
                                        .as_mut()
                                        .expect("non-last stage has a next link")
                                        .recv(j, PipeDir::Backward)?;
                                    let shape = tape.value(sf.out).shape().to_vec();
                                    tape.backward_from(sf.out, Tensor::from_vec(&shape, g));
                                }
                            }
                            if let Some(err) = wires.tp.as_ref().and_then(|c| c.take_failure()) {
                                return Err(err);
                            }
                            if let Some(input) = sf.input {
                                let g = tape
                                    .grad(input)
                                    .expect("boundary input grad")
                                    .data()
                                    .to_vec();
                                msg_log.push((CollKind::P2p, (4 * g.len()) as u64, 2));
                                wires
                                    .prev
                                    .as_mut()
                                    .expect("non-first stage has a prev link")
                                    .send(g, j, PipeDir::Backward)?;
                            }
                            accumulate_staged_grads(&tape, &sf.staged, store);
                        }
                    }
                    Ok(loss_acc)
                },
            )?;
            sh.beats.beat(i);

            // DP gradient sync: reduce-scatter, scale the owned chunk by
            // 1/dp, then allgather the averaged gradient back — or, under
            // ZeRO-1, keep only the owned chunk.
            let mut flat = store.flat_grads();
            if let Some(ring) = &mut wires.dp {
                {
                    let _s = Span::enter(pids::PARALLEL, "dp", "reduce-scatter");
                    ring.reduce_scatter(&mut flat, &plan.flat)?;
                }
                sh.beats.beat(i);
                scale_owned(&mut flat, &plan.flat[d], dp);
                if !sh.zero1 {
                    let _s = Span::enter(pids::PARALLEL, "dp", "allgather-grads");
                    ring.allgather(&mut flat, &plan.flat)?;
                }
                // one allreduce's worth of bytes either way: ZeRO-1's
                // parameter allgather replaces the gradient allgather
                if d == 0 {
                    msg_log.push((CollKind::AllReduce, (4 * flat.len()) as u64, dp));
                }
            }

            // Per-tensor squared norms of the averaged gradient. A ZeRO-1
            // rank holds reduced values for its own tensors only, so the
            // dp ring allgathers the rest.
            let sq = if sh.zero1 {
                let mut sq = sq_norms(&flat, &plan, plan.tensors[d].clone());
                if let Some(ring) = &mut wires.dp {
                    let _s = Span::enter(pids::PARALLEL, "dp", "allgather-norms");
                    ring.allgather(&mut sq, &plan.tensors)?;
                }
                sq
            } else {
                sq_norms(&flat, &plan, 0..plan.offsets.len() - 1)
            };
            // Global grad norm: allgather the squared norms across the
            // replica's pp·tp members, fold canonically.
            let norm = if pp * tp > 1 {
                let mut buf = vec![0f32; norm_total];
                buf[sh.norm_bounds[member].clone()].copy_from_slice(&sq);
                {
                    let _s = Span::enter(pids::PARALLEL, "dp", "allgather-norms");
                    wires
                        .norm
                        .as_mut()
                        .expect("multi-member grid has a norm ring")
                        .allgather(&mut buf, &sh.norm_bounds)?;
                }
                if member == 0 {
                    msg_log.push((CollKind::AllGather, (4 * norm_total) as u64, pp * tp));
                }
                fold_grad_norm(&buf, &sh.counts, &sh.flags, tp, &sh.norm_bounds)
            } else {
                sq.iter().sum::<f32>().sqrt()
            };
            // ZeRO-1 updates, so only clips, its own chunk.
            let owned = if sh.zero1 {
                plan.flat[d].clone()
            } else {
                0..flat.len()
            };
            clip_flat(&mut flat[owned], norm);
            store.load_flat_grads(&flat);
            {
                let _s = Span::enter(pids::PARALLEL, "dp", "optimizer");
                if sh.zero1 {
                    opt.step_masked(&mut store, lr, &mask);
                } else {
                    opt.step(&mut store, lr);
                }
            }
            sh.beats.beat(i);
            if sh.zero1 {
                if let Some(ring) = &mut wires.dp {
                    let mut vals = store.flat_values();
                    {
                        let _s = Span::enter(pids::PARALLEL, "dp", "allgather-params");
                        ring.allgather(&mut vals, &plan.flat)?;
                    }
                    store.load_flat_values(&vals);
                }
            }
            Ok((shard.last_stage && r == 0).then_some(loss))
        })();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let loss = match stepped {
            Ok(loss) => loss,
            Err(err) => {
                // Best-effort report (the coordinator may already be
                // tearing down); exiting drops the wires, which wakes
                // any peer still blocked on this worker.
                let _ = out.send(Reply::Failed { i, err });
                return None;
            }
        };
        sh.beats.beat(i);
        steps_run += 1;

        // The training step proper ends here. Validation is worker-0
        // bookkeeping no peer waits on within this step, so it gets its
        // own slice instead of padding the step's critical path.
        drop(step_span);
        let val = (eval && i == 0 && full_replica).then(|| {
            let _s = Span::enter(pids::PARALLEL, "dp", "validation");
            validation_loss_on(sh.model, &store, sh.val_batches)
        });

        let dp_bytes = wires.dp_bytes() - dp_before;
        let waited = wires.wait_ms() - wait_before;
        bytes_total.add(dp_bytes);
        sync_wait.observe(waited);
        steps_total.inc();
        let done = StepDone {
            i,
            d,
            loss,
            val,
            compute_ms: (wall_ms - waited).max(0.0),
            comm_ms: waited,
            dp_bytes,
            opt_bytes: opt.state_bytes(),
        };
        if out.send(Reply::Done(done)).is_err() {
            return None;
        }
    }

    // TP allreduces are logged group-level from rank 0 of each ring.
    if r == 0 {
        if let Some(c) = &wires.tp {
            msg_log.extend(c.drain_log().into_iter().map(|(k, b)| (k, b, tp)));
        }
    }
    let audit = WireAudit {
        d,
        stage: s,
        tp_rank: r,
        tp_bytes: wires.tp.as_ref().map_or(0, |c| c.sent_bytes()),
        tp_expected: exp_tp_step * steps_run,
        dp_bytes: wires.dp_bytes(),
        dp_expected: exp_dp_step * steps_run,
        norm_bytes: wires.norm.as_ref().map_or(0, |g| g.sent_bytes),
        norm_expected: exp_norm_step * steps_run,
        pipe_bytes: wires.prev.as_ref().map_or(0, PipeLink::sent_bytes)
            + wires.next.as_ref().map_or(0, PipeLink::sent_bytes),
        pipe_expected: exp_pipe_step * steps_run,
    };
    Some(WorkerReturn {
        shard,
        store,
        msg_log,
        audit,
    })
}

// ---------------------------------------------------------------------------
// Coordinator.
// ---------------------------------------------------------------------------

/// What a run asks of the coordinator. Crate-internal: ZeRO-1,
/// checkpoints, resume and fault tolerance reach the grid here, so no
/// public config struct carries them.
pub(super) struct RunSpec {
    pub(super) topo: Topology,
    pub(super) zero1: bool,
    /// Consolidate a v2 checkpoint every this many steps and at the
    /// last step (full replicas only).
    pub(super) checkpoint_every: Option<usize>,
    /// Start from this decoded checkpoint instead of fresh weights.
    pub(super) restore: Option<ResumeState>,
    /// Inject `faults` and survive failures by rolling back to the last
    /// snapshot. `None`: a failed step fails the run.
    pub(super) resilience: Option<ResilienceConfig>,
}

/// Why [`drive`] stopped short.
pub(super) enum RunError {
    /// The grid cannot run this config, or a step failed with recovery
    /// off.
    Topology(TopologyError),
    /// The resume image does not fit the model.
    Resume(ResumeError),
}

/// A step that did not commit, as the coordinator classified it.
pub(super) struct Failure {
    pub(super) at_step: usize,
    /// Workers that never answered — declared dead.
    pub(super) dead: Vec<usize>,
    pub(super) cause: FailureCause,
    /// The first typed error a worker reported, if any did.
    first: Option<(usize, CollectiveError)>,
    pub(super) detected: Instant,
}

impl Failure {
    /// The typed error a run without recovery returns: the first
    /// reported wire failure, else the loss of the first dead worker.
    fn into_error(self, topo: Topology) -> TopologyError {
        let (i, err) = self.first.unwrap_or_else(|| {
            let rank = self.dead.first().copied().unwrap_or(0);
            (rank, CollectiveError::RankLost { rank })
        });
        let (d, stage, tp_rank) = topo.coords(i);
        TopologyError::Step {
            step: self.at_step,
            d,
            stage,
            tp_rank,
            err,
        }
    }
}

/// Run accounting over committed steps, summed across pools.
#[derive(Default)]
pub(super) struct Acct {
    /// Step attempts fanned out, committed or not.
    pub(super) steps_executed: usize,
    /// Committed worker-steps (the per-worker averaging denominator).
    pub(super) worker_steps: u64,
    /// Bytes sent on dp rings.
    pub(super) dp_bytes: u64,
    /// Σ over steps of the slowest worker's compute.
    pub(super) critical_ms: f64,
    /// Per worker, indexed by flat index.
    pub(super) compute_ms: Vec<f64>,
    pub(super) comm_ms: Vec<f64>,
    /// Optimizer-state bytes per worker after the last committed step.
    pub(super) opt_bytes: Vec<usize>,
}

/// The coordinator's cross-pool state.
struct Run<'a> {
    cfg: &'a PretrainConfig,
    model: GptModel,
    zero1: bool,
    dataset: TokenDataset,
    val_batches: Vec<Batch>,
    faults: FaultPlan,
    heartbeat_stale_ms: u64,
    grace: Duration,
    checkpoint_every: Option<usize>,
    train_curve: Vec<(usize, f32)>,
    val_curve: Vec<(usize, f32)>,
    checkpoints: Vec<(usize, Vec<u8>)>,
    acct: Acct,
}

/// A finished run: the consolidated model plus everything recorded.
pub(super) struct Driven {
    pub(super) tokenizer: Box<dyn Tokenizer>,
    pub(super) model: GptModel,
    pub(super) store: ParamStore,
    pub(super) val_batches: Vec<Batch>,
    pub(super) train_curve: Vec<(usize, f32)>,
    pub(super) val_curve: Vec<(usize, f32)>,
    pub(super) checkpoints: Vec<(usize, Vec<u8>)>,
    /// The grid the run finished on (smaller after an elastic shrink).
    pub(super) topo: Topology,
    /// Steps this run was asked for (`cfg.steps` less a resume point).
    pub(super) steps_run: usize,
    pub(super) acct: Acct,
    /// Last pool's wire audit and message log.
    pub(super) wire: Vec<WireAudit>,
    pub(super) msg_bins: Vec<MsgBin>,
    pub(super) resilience: ResilienceReport,
}

/// Train `cfg` on the grid `spec` describes: the one coordinator every
/// threaded entry point drives. Each pool (worker-pool lifetime) runs
/// until the last step or a failure; with recovery on, a failure rolls
/// back to the last snapshot — elastically re-sharded to the survivors
/// under [`RecoveryPolicy::Shrink`](super::resilience::RecoveryPolicy::Shrink)
/// — and a new pool carries on.
pub(super) fn drive(
    documents: &[String],
    cfg: &PretrainConfig,
    spec: RunSpec,
) -> Result<Driven, RunError> {
    let RunSpec {
        mut topo,
        zero1,
        checkpoint_every,
        mut restore,
        resilience,
    } = spec;
    let policy = resilience.as_ref().map(|r| r.policy);
    let res = resilience.unwrap_or_default();
    let tokenizer = train_tokenizer(cfg.tokenizer, cfg.vocab, documents);
    let vocab = tokenizer.vocab_size();
    let (model, mut weights) = build_model(cfg, vocab);
    validate_topology(cfg, &model, &topo).map_err(RunError::Topology)?;
    if let Some(r) = &restore {
        r.restore_weights(&mut weights).map_err(RunError::Resume)?;
    }
    let checkpoint_every = match policy {
        Some(_) => Some(res.snapshot_every.max(1)),
        None => checkpoint_every.map(|e| e.max(1)),
    };
    assert!(
        topo.tp * topo.pp == 1 || (checkpoint_every.is_none() && restore.is_none()),
        "checkpoints, resume and recovery need full replicas (tp = pp = 1)"
    );
    let dataset = TokenDataset::new(documents, tokenizer.as_ref(), 0.08, cfg.seed ^ 0xda7a);
    let initial_cursor = dataset.cursor();
    let val_batches = dataset.val_batches(2, cfg.seq);
    let world = topo.world();
    let mut run = Run {
        cfg,
        model,
        zero1,
        dataset,
        val_batches,
        faults: res.faults,
        heartbeat_stale_ms: res.heartbeat_stale_ms,
        grace: Duration::from_millis(res.grace_ms.max(1)),
        checkpoint_every,
        train_curve: Vec::new(),
        val_curve: Vec::new(),
        checkpoints: Vec::new(),
        acct: Acct {
            compute_ms: vec![0.0; world],
            comm_ms: vec![0.0; world],
            ..Acct::default()
        },
    };
    let mut report = ResilienceReport {
        faults_planned: run.faults.len(),
        ..ResilienceReport::default()
    };
    let steps_run = cfg
        .steps
        .saturating_sub(restore.as_ref().map_or(0, |r| r.step));

    let mut weights = Some(weights);
    let returns = loop {
        // (Re)start from the restore point: reposition the loader and
        // truncate the curves to the checkpoint's.
        let start = match &restore {
            Some(r) => {
                run.dataset.seek(r.cursor);
                run.train_curve.clone_from(&r.train_curve);
                run.val_curve.clone_from(&r.val_curve);
                r.step
            }
            None => {
                run.dataset.seek(initial_cursor);
                run.train_curve.clear();
                run.val_curve.clear();
                0
            }
        };
        let pool_weights = weights.take().unwrap_or_else(|| {
            let (_, mut w) = build_model(cfg, vocab);
            if let Some(r) = &restore {
                r.restore_weights(&mut w)
                    .expect("a self-produced snapshot covers the model");
            }
            w
        });
        match run_pool(&mut run, topo, pool_weights, restore.as_ref(), start) {
            Ok(returns) => break returns,
            Err(failure) => {
                let Some(policy) = policy else {
                    return Err(RunError::Topology(failure.into_error(topo)));
                };
                // Roll back to the newest snapshot (or the restore
                // point, or the job start).
                if let Some((_, image)) = run.checkpoints.last() {
                    restore =
                        Some(decode_resume(cfg, image).expect("a self-produced snapshot decodes"));
                }
                let rolled_back_to = restore.as_ref().map_or(0, |r| r.step);
                topo.dp = recover(&mut report, failure, policy, topo.dp, rolled_back_to, cfg);
            }
        }
    };
    report.faults_fired = run.faults.fired();
    report.final_workers = topo.dp;
    report.steps_executed = run.acct.steps_executed;
    report.snapshots_taken = run.checkpoints.len();

    let mut bins: HashMap<(CollKind, u64, usize), u64> = HashMap::new();
    let mut wire = Vec::with_capacity(returns.len());
    for ret in &returns {
        for &(kind, bytes, group) in &ret.msg_log {
            *bins.entry((kind, bytes, group)).or_insert(0) += 1;
        }
        wire.push(ret.audit);
    }
    let mut msg_bins: Vec<MsgBin> = bins
        .into_iter()
        .map(|((kind, bytes, group), calls)| MsgBin {
            kind,
            bytes,
            group,
            calls,
        })
        .collect();
    msg_bins.sort_by_key(|b| (b.kind.name(), b.bytes, b.group));

    // At tp = pp = 1 replica 0's store is the full model; otherwise
    // replica 0's shards are stitched back together.
    let store = if topo.tp * topo.pp == 1 {
        returns.into_iter().next().expect("replica 0").store
    } else {
        let (_, mut full) = build_model(cfg, vocab);
        let stages: Vec<Vec<(&ShardModel, &ParamStore)>> = (0..topo.pp)
            .map(|s| {
                (0..topo.tp)
                    .map(|r| {
                        let ret = &returns[topo.index(0, s, r)];
                        (&ret.shard, &ret.store)
                    })
                    .collect()
            })
            .collect();
        consolidate_shards(&run.model, &mut full, &stages);
        full
    };
    Ok(Driven {
        tokenizer,
        model: run.model,
        store,
        val_batches: run.val_batches,
        train_curve: run.train_curve,
        val_curve: run.val_curve,
        checkpoints: run.checkpoints,
        topo,
        steps_run,
        acct: run.acct,
        wire,
        msg_bins,
        resilience: report,
    })
}

/// One worker-pool lifetime: carve the replicas from `weights`, spawn a
/// worker per grid coordinate, and run steps from `start` until the
/// run completes (every worker's return) or a step fails (the failure,
/// after the pool is torn down).
#[allow(clippy::too_many_lines)]
fn run_pool(
    run: &mut Run<'_>,
    topo: Topology,
    weights: ParamStore,
    restore: Option<&ResumeState>,
    start: usize,
) -> Result<Vec<WorkerReturn>, Failure> {
    let cfg = run.cfg;
    let Topology { dp, tp, pp, .. } = topo;
    let world = topo.world();
    let ranges = stage_ranges(run.model.cfg.layers, pp);

    // Carve every worker's shard from the one weight image, so all
    // replicas start from identical bits. On a full-replica grid the
    // image itself becomes the last replica: one model copy fewer.
    let full_replicas = tp * pp == 1;
    let carved = if full_replicas { world - 1 } else { world };
    let mut shards: Vec<(ShardModel, ParamStore)> = (0..carved)
        .map(|i| {
            let (_, s, r) = topo.coords(i);
            shard_model(
                &run.model,
                &weights,
                tp,
                r,
                ranges[s].clone(),
                s == 0,
                s + 1 == pp,
            )
        })
        .collect();
    if full_replicas {
        shards.push((ShardModel::whole(&run.model), weights));
    } else {
        drop(weights);
    }

    // Grad-norm fold layout: member (s, r) contributes one squared
    // norm per tensor of stage s's shard store.
    let stage0 = |s: usize| &shards[topo.index(0, s, 0)];
    let counts: Vec<usize> = (0..pp).map(|s| stage0(s).1.len()).collect();
    let flags: Vec<Vec<bool>> = (0..pp)
        .map(|s| {
            let (m, st) = stage0(s);
            m.sharded_flags(st)
        })
        .collect();
    let owners = ShardPlan::new(&stage0(0).1.tensor_sizes(), dp).owners();
    let norm_bounds = norm_layout(&counts, tp);

    // Wires.
    let mut tp_rings: Vec<Option<Ring>> = (0..world).map(|_| None).collect();
    if tp > 1 {
        for d in 0..dp {
            for s in 0..pp {
                for (r, ring) in Ring::build(tp, topo.timeout).into_iter().enumerate() {
                    tp_rings[topo.index(d, s, r)] = Some(ring);
                }
            }
        }
    }
    let mut dp_rings: Vec<Option<Ring>> = (0..world).map(|_| None).collect();
    if dp > 1 {
        for s in 0..pp {
            for r in 0..tp {
                for (d, ring) in Ring::build(dp, topo.timeout).into_iter().enumerate() {
                    dp_rings[topo.index(d, s, r)] = Some(ring);
                }
            }
        }
    }
    let mut norm_rings: Vec<Option<Ring>> = (0..world).map(|_| None).collect();
    if pp * tp > 1 {
        for d in 0..dp {
            for (m, ring) in Ring::build(pp * tp, topo.timeout).into_iter().enumerate() {
                norm_rings[topo.index(d, m / tp, m % tp)] = Some(ring);
            }
        }
    }
    let mut prev_links: Vec<Option<PipeLink>> = (0..world).map(|_| None).collect();
    let mut next_links: Vec<Option<PipeLink>> = (0..world).map(|_| None).collect();
    for d in 0..dp {
        for r in 0..tp {
            for b in 0..pp.saturating_sub(1) {
                let (earlier, later) = PipeLink::pair(topo.timeout);
                next_links[topo.index(d, b, r)] = Some(earlier);
                prev_links[topo.index(d, b + 1, r)] = Some(later);
            }
        }
    }

    let (out_tx, out_rx) = unbounded::<Reply>();
    let mut cmds: Vec<Sender<Cmd>> = Vec::with_capacity(world);
    let mut seats: Vec<Seat> = Vec::with_capacity(world);
    for (i, (shard, store)) in shards.into_iter().enumerate() {
        let (cmd_tx, cmd_rx) = unbounded::<Cmd>();
        cmds.push(cmd_tx);
        seats.push(Seat {
            i,
            shard,
            store,
            tp_ring: tp_rings[i].take(),
            dp_ring: dp_rings[i].take(),
            norm_ring: norm_rings[i].take(),
            prev: prev_links[i].take(),
            next: next_links[i].take(),
            cmd: cmd_rx,
            out: out_tx.clone(),
        });
    }
    drop(out_tx);

    let shared = Shared {
        cfg,
        topo,
        zero1: run.zero1,
        model: &run.model,
        val_batches: &run.val_batches,
        counts,
        flags,
        norm_bounds,
        opt_restore: restore.map(|r| &r.opt_state),
        faults: &run.faults,
        beats: Heartbeats::new(world),
    };
    let schedule = CosineSchedule::paper(cfg.lr, cfg.steps);
    let eval_every = (cfg.steps / 10).max(1);
    let budget = topo.timeout + Duration::from_millis(run.heartbeat_stale_ms.max(1) + 1_000);
    let liveness = (budget, run.heartbeat_stale_ms, run.grace);
    let dataset = &mut run.dataset;
    let acct = &mut run.acct;
    let (train_curve, val_curve) = (&mut run.train_curve, &mut run.val_curve);
    let checkpoints = &mut run.checkpoints;
    let (zero1, checkpoint_every) = (run.zero1, run.checkpoint_every);

    std::thread::scope(|scope| {
        let handles: Vec<_> = seats
            .into_iter()
            .map(|seat| {
                let shared = &shared;
                scope.spawn(move || grid_worker(seat, shared))
            })
            .collect();
        // Tear the pool down after a failure: dropping the command
        // channels ends idle workers; joins drain the rest (a stalled
        // worker finishes its sleep, hits a dead wire, and exits).
        let teardown = |cmds: Vec<Sender<Cmd>>, handles: Vec<_>| {
            drop(cmds);
            for h in handles {
                let _: Result<_, _> = std::thread::ScopedJoinHandle::join(h);
            }
        };

        for step in start..cfg.steps {
            let lr = schedule.lr(step);
            let eval = step.is_multiple_of(eval_every) || step + 1 == cfg.steps;
            let batch = dataset.sample_batch(cfg.batch_seqs, cfg.seq);
            let micros = split_batch(&batch, dp);
            acct.steps_executed += 1;
            let unreachable: Vec<usize> = (0..world)
                .filter(|&i| {
                    let (d, _, _) = topo.coords(i);
                    let cmd = Cmd::Step {
                        step,
                        lr,
                        eval,
                        batch: micros[d].clone(),
                    };
                    cmds[i].send(cmd).is_err()
                })
                .collect();
            let replies = if unreachable.is_empty() {
                collect_step(&out_rx, step, world, &shared.beats, liveness)
            } else {
                let _detect = Span::enter(pids::PARALLEL, "dp", "fault-detect");
                Err(Failure {
                    at_step: step,
                    dead: unreachable,
                    cause: FailureCause::RankLost,
                    first: None,
                    detected: Instant::now(),
                })
            };
            let replies = match replies {
                Ok(replies) => replies,
                Err(failure) => {
                    teardown(cmds, handles);
                    return Err(failure);
                }
            };

            // Committed: fold the step into the run accounting.
            let mut losses = vec![0.0f32; dp];
            let mut val = None;
            let mut slowest = 0.0f64;
            acct.opt_bytes = vec![0; world];
            for done in &replies {
                if let Some(l) = done.loss {
                    losses[done.d] = l;
                }
                val = val.or(done.val);
                slowest = slowest.max(done.compute_ms);
                acct.dp_bytes += done.dp_bytes;
                acct.compute_ms[done.i] += done.compute_ms;
                acct.comm_ms[done.i] += done.comm_ms;
                acct.opt_bytes[done.i] = done.opt_bytes;
            }
            acct.critical_ms += slowest;
            acct.worker_steps += world as u64;
            if eval {
                train_curve.push((step, fold_mean(&losses)));
                val_curve.extend(val.map(|v| (step, v)));
            }

            let completed = step + 1;
            if checkpoint_every
                .is_some_and(|every| completed.is_multiple_of(every) || completed == cfg.steps)
            {
                let _snap = Span::enter(pids::PARALLEL, "dp", "snapshot");
                let cursor = dataset.cursor();
                let image = consolidate_checkpoint(&cmds, &out_rx, &owners, zero1, |opt| {
                    checkpoint_sections(cfg, opt, completed, cursor, train_curve, val_curve)
                });
                checkpoints.push((completed, image));
            }
        }

        for tx in &cmds {
            let _ = tx.send(Cmd::Finish);
        }
        Ok(handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("grid worker panicked")
                    .expect("every worker finishes a clean pool")
            })
            .collect())
    })
}

/// Collect one step's replies under a bounded deadline. A missing
/// worker whose heartbeat is fresh extends the wait (a slow worker is
/// not a dead one); a stale heartbeat, a disconnect, or a reported
/// error starts the grace drain, after which whoever never replied is
/// dead.
fn collect_step(
    rx: &Receiver<Reply>,
    step: usize,
    world: usize,
    beats: &Heartbeats,
    (budget, stale_ms, grace): (Duration, u64, Duration),
) -> Result<Vec<StepDone>, Failure> {
    let mut replies: Vec<StepDone> = Vec::with_capacity(world);
    let mut responded = vec![false; world];
    let mut failures: Vec<(usize, CollectiveError)> = Vec::new();
    let mut first_bad: Option<Instant> = None;
    let mut deadline = Instant::now() + budget;
    while replies.len() + failures.len() < world {
        let limit = match first_bad {
            Some(t0) => {
                let waited = t0.elapsed();
                if waited >= grace {
                    break;
                }
                Instant::now() + (grace - waited)
            }
            None => deadline,
        };
        match rx.recv_deadline(limit) {
            Ok(Reply::Done(done)) => {
                responded[done.i] = true;
                replies.push(done);
            }
            Ok(Reply::Failed { i, err }) => {
                responded[i] = true;
                failures.push((i, err));
                first_bad.get_or_insert_with(Instant::now);
            }
            Ok(_) => unreachable!("only step replies during a step"),
            // Every worker dropped its reply channel: nobody left to
            // wait for.
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                if first_bad.is_some() {
                    break;
                }
                let stale = (0..world)
                    .any(|i| !responded[i] && beats.age_ms(i).unwrap_or(u64::MAX) > stale_ms);
                if stale {
                    // silent death: nobody will speak for it
                    break;
                }
                // everyone missing is still beating — extend
                deadline = Instant::now() + Duration::from_millis(stale_ms.max(250));
            }
        }
    }
    if replies.len() == world {
        return Ok(replies);
    }
    let _detect = Span::enter(pids::PARALLEL, "dp", "fault-detect");
    let dead: Vec<usize> = (0..world).filter(|&i| !responded[i]).collect();
    let cause = if failures
        .iter()
        .any(|(_, e)| matches!(e, CollectiveError::RankLost { .. }))
        || !dead.is_empty() && failures.is_empty()
    {
        FailureCause::RankLost
    } else {
        FailureCause::Stalled
    };
    Err(Failure {
        at_step: step,
        dead,
        cause,
        first: failures.first().copied(),
        detected: Instant::now(),
    })
}

/// Ask every worker for its optimizer state, merge the ZeRO-1 shards,
/// and have worker 0 wrap its weights plus the training-state sections
/// into a v2 image — byte-compatible with
/// [`crate::pretrain::Trainer::checkpoint`]. Full replicas only.
fn consolidate_checkpoint(
    cmds: &[Sender<Cmd>],
    rx: &Receiver<Reply>,
    owners: &[usize],
    zero1: bool,
    sections: impl FnOnce(&OptimizerState) -> Vec<(String, Vec<u8>)>,
) -> Vec<u8> {
    for tx in cmds {
        tx.send(Cmd::ExportOpt).expect("worker alive");
    }
    let mut shards: Vec<Option<OptimizerState>> = (0..cmds.len()).map(|_| None).collect();
    for _ in 0..cmds.len() {
        match rx.recv().expect("worker alive") {
            Reply::Opt(d, state) => shards[d] = Some(state),
            _ => unreachable!("only Opt replies during consolidation"),
        }
    }
    let shards: Vec<OptimizerState> = shards.into_iter().map(|s| s.expect("all ranks")).collect();
    let merged = if zero1 {
        OptimizerState::merge_shards(&shards, owners)
            .expect("shards cover every parameter consistently")
    } else {
        shards.into_iter().next().expect("worker 0 state")
    };
    cmds[0]
        .send(Cmd::Assemble(sections(&merged)))
        .expect("worker alive");
    match rx.recv().expect("worker alive") {
        Reply::Image(bytes) => bytes,
        _ => unreachable!("only an Image reply after Assemble"),
    }
}

/// Train on an executed `dp × tp × pp` grid of worker threads, then
/// consolidate replica 0's shards back into one full model.
///
/// Bitwise contract: for any grid and chunk count this produces the
/// same weights and losses as [`reference_topology`], and at
/// `{dp,1,1}×1` both match
/// [`DataParallel::train_reference`](super::DataParallel::train_reference)
/// — the TP sync ops and pipeline boundaries degenerate to the plain
/// single-tape graph.
pub fn train_topology(
    documents: &[String],
    cfg: &PretrainConfig,
    topo: Topology,
) -> Result<TopologyOutcome, TopologyError> {
    let spec = RunSpec {
        topo,
        zero1: false,
        checkpoint_every: None,
        restore: None,
        resilience: None,
    };
    let run = match drive(documents, cfg, spec) {
        Ok(run) => run,
        Err(RunError::Topology(e)) => return Err(e),
        Err(RunError::Resume(e)) => unreachable!("no resume image: {e}"),
    };
    let final_val = validation_loss_on(&run.model, &run.store, &run.val_batches);
    let param_scalars = run.store.num_scalars();
    Ok(TopologyOutcome {
        model: run.model,
        store: run.store,
        train_curve: run.train_curve,
        final_val,
        report: TopologyReport {
            topo,
            steps_run: cfg.steps,
            param_scalars,
            wire: run.wire,
            msg_bins: run.msg_bins,
        },
    })
}

/// The sequential single-thread replay of [`train_topology`]: identical
/// shard stores, identical chunking, precision rounding and fold
/// orders, zero wires. Every grid's threaded run must match this
/// bitwise.
pub fn reference_topology(
    documents: &[String],
    cfg: &PretrainConfig,
    topo: Topology,
) -> Result<TopologyOutcome, TopologyError> {
    let (dp, tp, pp, chunks) = (topo.dp, topo.tp, topo.pp, topo.chunks);
    let tokenizer = train_tokenizer(cfg.tokenizer, cfg.vocab, documents);
    let vocab = tokenizer.vocab_size();
    let (model, mut store) = build_model(cfg, vocab);
    let (rows, ranges) = validate_topology(cfg, &model, &topo)?;
    let mut dataset = TokenDataset::new(documents, tokenizer.as_ref(), 0.08, cfg.seed ^ 0xda7a);
    let val_batches = dataset.val_batches(2, cfg.seq);
    let schedule = CosineSchedule::paper(cfg.lr, cfg.steps);
    let eval_every = (cfg.steps / 10).max(1);
    let row_bounds = ring_chunks(rows, chunks);
    let seq = cfg.seq;

    // One (stage, rank) shard grid shared by all dp replicas, plus one
    // optimizer per shard (threaded replicas hold bitwise-identical
    // moments, so one copy stands for all dp of them).
    let mut grid: Vec<Vec<(ShardModel, ParamStore)>> = (0..pp)
        .map(|s| {
            (0..tp)
                .map(|r| {
                    shard_model(
                        &model,
                        &store,
                        tp,
                        r,
                        ranges[s].clone(),
                        s == 0,
                        s + 1 == pp,
                    )
                })
                .collect()
        })
        .collect();
    let mut opts: Vec<Vec<_>> = (0..pp)
        .map(|_| (0..tp).map(|_| build_optimizer(cfg)).collect::<Vec<_>>())
        .collect();
    let plans: Vec<ShardPlan> = (0..pp)
        .map(|s| ShardPlan::new(&grid[s][0].1.tensor_sizes(), dp))
        .collect();
    let counts: Vec<usize> = (0..pp).map(|s| grid[s][0].1.len()).collect();
    let flags: Vec<Vec<bool>> = (0..pp)
        .map(|s| grid[s][0].0.sharded_flags(&grid[s][0].1))
        .collect();
    let norm_bounds = norm_layout(&counts, tp);
    let norm_total = norm_bounds.last().map_or(0, |b| b.end);

    let mut train_curve: Vec<(usize, f32)> = Vec::new();
    for step in 0..cfg.steps {
        let batch = dataset.sample_batch(cfg.batch_seqs, cfg.seq);
        let micros = split_batch(&batch, dp);
        let lr = schedule.lr(step);

        // Per replica: accumulate chunk gradients into the shard grid,
        // snapshot the flats, weight the chunk losses.
        let mut parts: Vec<Vec<Vec<Vec<f32>>>> =
            (0..pp).map(|_| vec![Vec::with_capacity(dp); tp]).collect();
        let mut losses = Vec::with_capacity(dp);
        let masters: Vec<Vec<_>> = grid
            .iter_mut()
            .map(|row| {
                row.iter_mut()
                    .map(|(_m, st)| round_for_compute(st, cfg.precision))
                    .collect()
            })
            .collect();
        for micro in &micros {
            for row in grid.iter_mut() {
                for (_m, st) in row.iter_mut() {
                    st.zero_grads();
                }
            }
            let mut loss_acc = 0.0f32;
            for b in &row_bounds {
                let rows_j = b.len();
                let mut tape = Tape::new();
                let (loss, staged) = {
                    let view: Vec<Vec<(&ShardModel, &ParamStore)>> = grid
                        .iter()
                        .map(|row| row.iter().map(|(m, st)| (m, st)).collect())
                        .collect();
                    reference_loss(
                        &view,
                        &mut tape,
                        &micro.inputs[b.start * seq..b.end * seq],
                        &micro.targets[b.start * seq..b.end * seq],
                        rows_j,
                        seq,
                    )
                };
                let w = chunk_weight(rows_j, rows);
                loss_acc += w * tape.value(loss).item();
                let root = if chunks > 1 {
                    tape.scale(loss, w)
                } else {
                    loss
                };
                tape.backward(root);
                for (s, row) in grid.iter_mut().enumerate() {
                    for (r, (_m, st)) in row.iter_mut().enumerate() {
                        accumulate_staged_grads(&tape, &staged[s][r], st);
                    }
                }
            }
            losses.push(loss_acc);
            for (s, row) in grid.iter().enumerate() {
                for (r, (_m, st)) in row.iter().enumerate() {
                    parts[s][r].push(st.flat_grads());
                }
            }
        }
        for (row, row_masters) in grid.iter_mut().zip(masters) {
            for ((_m, st), m) in row.iter_mut().zip(row_masters) {
                restore_masters(st, m);
            }
        }

        // DP fold per shard (ring order), then the canonical grad-norm
        // fold and clip, then one optimizer step per shard.
        let mut reduced: Vec<Vec<Vec<f32>>> = Vec::with_capacity(pp);
        for (s, row) in parts.into_iter().enumerate() {
            let mut per_rank = Vec::with_capacity(tp);
            for mut p in row {
                let mut flat = if dp > 1 {
                    ring_fold(&p, &plans[s].flat)
                } else {
                    p.pop().expect("one replica part")
                };
                if dp > 1 {
                    for d in 0..dp {
                        scale_owned(&mut flat, &plans[s].flat[d], dp);
                    }
                }
                per_rank.push(flat);
            }
            reduced.push(per_rank);
        }
        let norm = {
            let mut buf = vec![0f32; norm_total];
            for s in 0..pp {
                for r in 0..tp {
                    let sq = sq_norms(&reduced[s][r], &plans[s], 0..counts[s]);
                    buf[norm_bounds[s * tp + r].clone()].copy_from_slice(&sq);
                }
            }
            fold_grad_norm(&buf, &counts, &flags, tp, &norm_bounds)
        };
        for s in 0..pp {
            for r in 0..tp {
                clip_flat(&mut reduced[s][r], norm);
                grid[s][r].1.load_flat_grads(&reduced[s][r]);
                opts[s][r].step(&mut grid[s][r].1, lr);
            }
        }

        if step.is_multiple_of(eval_every) || step + 1 == cfg.steps {
            train_curve.push((step, fold_mean(&losses)));
        }
    }

    let stages_view: Vec<Vec<(&ShardModel, &ParamStore)>> = grid
        .iter()
        .map(|row| row.iter().map(|(m, st)| (m, st)).collect())
        .collect();
    consolidate_shards(&model, &mut store, &stages_view);
    drop(stages_view);

    let final_val = validation_loss_on(&model, &store, &val_batches);
    let param_scalars = store.num_scalars();
    Ok(TopologyOutcome {
        model,
        store,
        train_curve,
        final_val,
        report: TopologyReport {
            topo,
            steps_run: cfg.steps,
            param_scalars,
            wire: Vec::new(),
            msg_bins: Vec::new(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_defaults_chunks_to_pp() {
        let t = Topology::new(2, 1, 3);
        assert_eq!(t.chunks, 3);
        assert_eq!(t.world(), 6);
        assert_eq!(t.describe(), "dp2-tp1-pp3c3");
        assert_eq!(Topology::new(1, 2, 1).with_chunks(4).chunks, 4);
    }

    #[test]
    fn fold_grad_norm_counts_replicated_once_and_shards_across_ranks() {
        // Two stages, tp=2. Stage 0 has one sharded tensor, stage 1
        // one replicated tensor.
        let counts = vec![1usize, 1];
        let flags = vec![vec![true], vec![false]];
        let bounds = vec![0..1, 1..2, 2..3, 3..4];
        // sharded partials 9 + 16 = 25; replicated 4 (rank-1 copy 4 is
        // skipped); total 29.
        let buf = vec![9.0, 16.0, 4.0, 4.0];
        let got = fold_grad_norm(&buf, &counts, &flags, 2, &bounds);
        assert_eq!(got, 29.0f32.sqrt());
    }

    #[test]
    fn sq_norms_follow_the_plan_layout() {
        let flat = vec![1.0, 2.0, 3.0, 4.0];
        let plan = ShardPlan::new(&[1, 3], 2);
        assert_eq!(sq_norms(&flat, &plan, 0..2), vec![1.0, 4.0 + 9.0 + 16.0]);
        // a ZeRO-1 rank computes its own tensors only
        assert_eq!(
            sq_norms(&flat, &plan, plan.tensors[1].clone()),
            vec![0.0, 29.0]
        );
    }

    #[test]
    fn clip_flat_only_fires_above_one() {
        let mut a = vec![2.0f32];
        clip_flat(&mut a, 0.5);
        assert_eq!(a, vec![2.0]);
        clip_flat(&mut a, 2.0);
        assert_eq!(a, vec![1.0]);
    }

    #[test]
    fn message_shares_weight_by_wire_bytes() {
        let report = TopologyReport {
            topo: Topology::new(1, 2, 1),
            steps_run: 1,
            param_scalars: 0,
            wire: Vec::new(),
            msg_bins: vec![
                MsgBin {
                    kind: CollKind::AllReduce,
                    bytes: 1000,
                    group: 2,
                    calls: 3,
                },
                MsgBin {
                    kind: CollKind::P2p,
                    bytes: 500,
                    group: 2,
                    calls: 2,
                },
            ],
        };
        let shares = report.message_shares();
        assert_eq!(shares.len(), 2);
        let total: f64 = shares.iter().map(|(_, _, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
