//! Megatron-style tensor-parallel shards of [`crate::GptModel`], plus
//! the sequential-reference graph builder that defines their bitwise
//! equivalence target.
//!
//! The shard layout follows GPT-NeoX-20B / Megatron-LM:
//!
//! * **column-parallel** — `wq`/`wk`/`wv` (by contiguous head blocks),
//!   `w1`/`w3` (MLP up/gate) and their biases: each rank holds a column
//!   slice and computes a disjoint slice of the output features;
//! * **row-parallel** — `wo`, `w2` (the projections back to the
//!   residual stream): each rank holds the row block matching its
//!   column slice and produces a *partial sum* of the full output,
//!   combined by an allreduce (the Megatron "g" point);
//! * **replicated** — embeddings, norms, the output biases `bo`/`b2`
//!   (added after the allreduce), and `lm_head`: identical on every
//!   rank, kept in lockstep because every gradient that reaches them
//!   has already been allreduced (the Megatron "f" point).
//!
//! Equivalence contract: a threaded TP×t run is bit-identical to the
//! sequential reference built by [`reference_loss`], which folds the
//! per-rank partials with the exact ring reduction order
//! ([`matgpt_tensor::ring_fold`]); at `t = 1, pp = 1` the reference
//! graph degenerates node-for-node to [`crate::GptModel::loss`].

use crate::config::{ArchKind, GptConfig};
use crate::gpt::{GptModel, LayerIds};
use matgpt_tensor::{CommHook, ParamId, ParamStore, Tape, Tensor, Var};
use std::ops::Range;

/// Why a `(tp, pp)` layout cannot shard this model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TpPlanError {
    /// Attention heads don't divide across the TP group.
    Heads {
        /// Head count.
        heads: usize,
        /// Requested TP degree.
        tp: usize,
    },
    /// Key/value heads don't divide across the TP group.
    KvHeads {
        /// KV head count.
        kv_heads: usize,
        /// Requested TP degree.
        tp: usize,
    },
    /// The MLP inner width doesn't divide across the TP group.
    MlpWidth {
        /// MLP inner width.
        mlp: usize,
        /// Requested TP degree.
        tp: usize,
    },
    /// More pipeline stages than layers.
    Stages {
        /// Layer count.
        layers: usize,
        /// Requested PP degree.
        pp: usize,
    },
}

impl std::fmt::Display for TpPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TpPlanError::Heads { heads, tp } => {
                write!(f, "{heads} attention heads do not divide across TP={tp}")
            }
            TpPlanError::KvHeads { kv_heads, tp } => {
                write!(f, "{kv_heads} kv heads do not divide across TP={tp}")
            }
            TpPlanError::MlpWidth { mlp, tp } => {
                write!(f, "MLP width {mlp} does not divide across TP={tp}")
            }
            TpPlanError::Stages { layers, pp } => {
                write!(f, "{layers} layers cannot fill PP={pp} stages")
            }
        }
    }
}

impl std::error::Error for TpPlanError {}

/// Validate that `cfg` shards across `tp` tensor ranks and `pp` stages.
pub fn validate_plan(cfg: &GptConfig, tp: usize, pp: usize) -> Result<(), TpPlanError> {
    assert!(tp >= 1 && pp >= 1, "degrees start at one");
    if !cfg.heads.is_multiple_of(tp) {
        return Err(TpPlanError::Heads {
            heads: cfg.heads,
            tp,
        });
    }
    if !cfg.kv_head_count().is_multiple_of(tp) {
        return Err(TpPlanError::KvHeads {
            kv_heads: cfg.kv_head_count(),
            tp,
        });
    }
    if !cfg.mlp_hidden().is_multiple_of(tp) {
        return Err(TpPlanError::MlpWidth {
            mlp: cfg.mlp_hidden(),
            tp,
        });
    }
    if pp > cfg.layers {
        return Err(TpPlanError::Stages {
            layers: cfg.layers,
            pp,
        });
    }
    Ok(())
}

/// Contiguous layer ranges for `p` pipeline stages: sizes differ by at
/// most one, remainder layers land on the **earliest** stages (so the
/// first stage is the busiest — the convention
/// `matgpt_frontier_sim::parallel::TrainSetup::stage_layers` prices).
/// 33 layers over 2 stages split 17 + 16.
pub fn stage_ranges(layers: usize, p: usize) -> Vec<Range<usize>> {
    assert!(p >= 1, "need at least one stage");
    let q = layers / p;
    let rem = layers % p;
    let mut out = Vec::with_capacity(p);
    let mut start = 0usize;
    for s in 0..p {
        let len = q + usize::from(s < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Is this parameter tensor sharded under TP (true) or replicated
/// (false)? Classified by the registration-name suffix.
pub fn is_sharded_name(name: &str) -> bool {
    let suffix = name.rsplit('.').next().unwrap_or(name);
    matches!(
        suffix,
        "wq" | "bq" | "wk" | "bk" | "wv" | "bv" | "w1" | "b1" | "w3" | "wo" | "w2"
    )
}

/// Does a sharded tensor split by rows (`wo`, `w2`) rather than columns?
fn is_row_sharded(name: &str) -> bool {
    let suffix = name.rsplit('.').next().unwrap_or(name);
    matches!(suffix, "wo" | "w2")
}

fn col_slice(t: &Tensor, cols: &Range<usize>) -> Tensor {
    assert_eq!(t.rank(), 2, "column slice of a 2-D tensor");
    let (rows, c) = (t.dim(0), t.dim(1));
    let w = cols.len();
    let mut data = Vec::with_capacity(rows * w);
    for r in 0..rows {
        data.extend_from_slice(&t.data()[r * c + cols.start..r * c + cols.end]);
    }
    Tensor::from_vec(&[rows, w], data)
}

fn row_slice(t: &Tensor, rows: &Range<usize>) -> Tensor {
    assert_eq!(t.rank(), 2, "row slice of a 2-D tensor");
    let c = t.dim(1);
    Tensor::from_vec(
        &[rows.len(), c],
        t.data()[rows.start * c..rows.end * c].to_vec(),
    )
}

fn vec_slice(t: &Tensor, r: &Range<usize>) -> Tensor {
    Tensor::from_vec(&[r.len()], t.data()[r.clone()].to_vec())
}

/// One rank's stage of the model: the owned layer span sharded across
/// `tp` ranks, plus the replicated stage-boundary pieces (embedding on
/// the first stage, final norm + head on the last).
pub struct ShardModel {
    /// Architecture configuration (full, unsharded dimensions).
    pub cfg: GptConfig,
    /// TP group size.
    pub tp: usize,
    /// This shard's TP rank.
    pub rank: usize,
    /// Global layer indices this stage owns.
    pub layer_range: Range<usize>,
    /// First pipeline stage (owns the token embedding).
    pub first_stage: bool,
    /// Last pipeline stage (owns the final norm, head and loss).
    pub last_stage: bool,
    tok_emb: Option<ParamId>,
    layers: Vec<LayerIds>,
    lnf_g: Option<ParamId>,
    lnf_b: Option<ParamId>,
    lm_head: Option<ParamId>,
}

/// Carve rank `(rank of tp)`'s shard of `layer_range` out of a fully
/// initialised model. The shard store registers tensors under the same
/// names, in the same relative order, as the full store — values are
/// exact slices, so `t = 1, pp = 1` reproduces the full store bitwise.
pub fn shard_model(
    full: &GptModel,
    full_store: &ParamStore,
    tp: usize,
    rank: usize,
    layer_range: Range<usize>,
    first_stage: bool,
    last_stage: bool,
) -> (ShardModel, ParamStore) {
    let cfg = full.cfg.clone();
    validate_plan(&cfg, tp, 1).expect("validated layout");
    assert!(rank < tp, "rank within group");
    let h = cfg.hidden;
    let m = cfg.mlp_hidden();
    let kvd = cfg.kv_head_count() * cfg.head_dim();
    let hcols = rank * h / tp..(rank + 1) * h / tp;
    let kvcols = rank * kvd / tp..(rank + 1) * kvd / tp;
    let mcols = rank * m / tp..(rank + 1) * m / tp;

    let mut store = ParamStore::new();
    let copy = |store: &mut ParamStore, id: ParamId| {
        store.add(full_store.name(id), full_store.value(id).clone())
    };
    let col = |store: &mut ParamStore, id: ParamId, cols: &Range<usize>| {
        let v = full_store.value(id);
        let sliced = if v.rank() == 2 {
            col_slice(v, cols)
        } else {
            vec_slice(v, cols)
        };
        store.add(full_store.name(id), sliced)
    };
    let row = |store: &mut ParamStore, id: ParamId, rows: &Range<usize>| {
        store.add(full_store.name(id), row_slice(full_store.value(id), rows))
    };

    let tok_emb = first_stage.then(|| copy(&mut store, full.tok_emb));
    let mut layers = Vec::with_capacity(layer_range.len());
    for l in layer_range.clone() {
        let src = &full.layers[l];
        layers.push(LayerIds {
            ln1_g: copy(&mut store, src.ln1_g),
            ln1_b: src.ln1_b.map(|id| copy(&mut store, id)),
            wq: col(&mut store, src.wq, &hcols),
            bq: src.bq.map(|id| col(&mut store, id, &hcols)),
            wk: col(&mut store, src.wk, &kvcols),
            bk: src.bk.map(|id| col(&mut store, id, &kvcols)),
            wv: col(&mut store, src.wv, &kvcols),
            bv: src.bv.map(|id| col(&mut store, id, &kvcols)),
            wo: row(&mut store, src.wo, &hcols),
            bo: src.bo.map(|id| copy(&mut store, id)),
            ln2_g: copy(&mut store, src.ln2_g),
            ln2_b: src.ln2_b.map(|id| copy(&mut store, id)),
            w1: col(&mut store, src.w1, &mcols),
            b1: src.b1.map(|id| col(&mut store, id, &mcols)),
            w2: row(&mut store, src.w2, &mcols),
            b2: src.b2.map(|id| copy(&mut store, id)),
            w3: src.w3.map(|id| col(&mut store, id, &mcols)),
        });
    }
    let lnf_g = last_stage.then(|| copy(&mut store, full.lnf_g));
    let lnf_b = full
        .lnf_b
        .filter(|_| last_stage)
        .map(|id| copy(&mut store, id));
    let lm_head = last_stage.then(|| copy(&mut store, full.lm_head));

    (
        ShardModel {
            cfg,
            tp,
            rank,
            layer_range,
            first_stage,
            last_stage,
            tok_emb,
            layers,
            lnf_g,
            lnf_b,
            lm_head,
        },
        store,
    )
}

/// What flows into a stage's forward pass.
pub enum StageInput<'a> {
    /// First stage: the token ids of this micro-batch chunk.
    Tokens(&'a [u32]),
    /// Later stages: the boundary activation received from the
    /// previous stage, laid out `[rows, hidden]`.
    Activation(Tensor),
}

/// The tape handles a stage forward leaves behind for the backward
/// half-step.
pub struct StageForward {
    /// Stage output: the boundary hidden states — or, on the last
    /// stage when targets were supplied, the scalar loss.
    pub out: Var,
    /// The boundary input var (present iff the input was an
    /// activation); its gradient is what flows back to the previous
    /// stage.
    pub input: Option<Var>,
    /// `(param, staged var)` pairs, for gradient accumulation into the
    /// shard store.
    pub staged: Vec<(ParamId, Var)>,
}

impl ShardModel {
    /// The whole model as its own single shard (`tp = 1`, one stage):
    /// the full store already has the shard layout, so it serves as the
    /// shard store as is — no tensor is copied.
    pub fn whole(full: &GptModel) -> ShardModel {
        ShardModel {
            cfg: full.cfg.clone(),
            tp: 1,
            rank: 0,
            layer_range: 0..full.cfg.layers,
            first_stage: true,
            last_stage: true,
            tok_emb: Some(full.tok_emb),
            layers: full.layers.clone(),
            lnf_g: Some(full.lnf_g),
            lnf_b: full.lnf_b,
            lm_head: Some(full.lm_head),
        }
    }

    /// Per-tensor TP-sharded flags in this shard store's registration
    /// order (false = replicated; count it once across the group).
    pub fn sharded_flags(&self, store: &ParamStore) -> Vec<bool> {
        store
            .ids()
            .map(|id| is_sharded_name(store.name(id)))
            .collect()
    }

    fn stage_param(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        staged: &mut Vec<(ParamId, Var)>,
        id: ParamId,
    ) -> Var {
        let v = tape.param(store, id);
        staged.push((id, v));
        v
    }

    fn norm(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        staged: &mut Vec<(ParamId, Var)>,
        x: Var,
        g: ParamId,
        b: Option<ParamId>,
    ) -> Var {
        let gv = self.stage_param(tape, store, staged, g);
        match self.cfg.arch {
            ArchKind::NeoX => {
                let bv = self.stage_param(tape, store, staged, b.expect("NeoX LayerNorm beta"));
                tape.layernorm(x, gv, bv, self.cfg.norm_eps)
            }
            ArchKind::Llama => tape.rmsnorm(x, gv, self.cfg.norm_eps),
        }
    }

    fn proj(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        staged: &mut Vec<(ParamId, Var)>,
        x: Var,
        w: ParamId,
        b: Option<ParamId>,
    ) -> Var {
        let wv = self.stage_param(tape, store, staged, w);
        let y = tape.matmul(x, wv);
        match b {
            Some(b) => {
                let bv = self.stage_param(tape, store, staged, b);
                tape.add_bias(y, bv)
            }
            None => y,
        }
    }

    /// This rank's attention partial for local layer `li`: from the
    /// (synced) norm output to the row-parallel `wo` product — the
    /// pre-allreduce partial sum, no output bias.
    #[allow(clippy::too_many_arguments)]
    fn attn_partial(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        staged: &mut Vec<(ParamId, Var)>,
        li: usize,
        n1s: Var,
        batch: usize,
        seq: usize,
    ) -> Var {
        let layer = &self.layers[li];
        let heads = self.cfg.heads / self.tp;
        let kv_heads = self.cfg.kv_head_count() / self.tp;
        let d = self.cfg.head_dim();
        let q = self.proj(tape, store, staged, n1s, layer.wq, layer.bq);
        let k = self.proj(tape, store, staged, n1s, layer.wk, layer.bk);
        let v = self.proj(tape, store, staged, n1s, layer.wv, layer.bv);
        let q = tape.split_heads(q, batch, seq, heads, d);
        let k = tape.split_heads(k, batch, seq, kv_heads, d);
        let v = tape.split_heads(v, batch, seq, kv_heads, d);
        let q = tape.rotary(q, seq, d, self.cfg.rope_base);
        let k = tape.rotary(k, seq, d, self.cfg.rope_base);
        let (k, v) = if kv_heads < heads {
            (
                crate::gpt::expand_kv_heads(tape, k, batch, seq, heads, kv_heads, d),
                crate::gpt::expand_kv_heads(tape, v, batch, seq, heads, kv_heads, d),
            )
        } else {
            (k, v)
        };
        let att = tape.causal_attention(q, k, v, batch * heads, seq, d);
        let att = tape.merge_heads(att, batch, seq, heads, d);
        let att = tape.reshape(att, &[batch * seq, heads * d]);
        let wv = self.stage_param(tape, store, staged, layer.wo);
        tape.matmul(att, wv)
    }

    /// This rank's MLP partial for local layer `li`: from the (synced)
    /// norm output to the row-parallel `w2` product — the pre-allreduce
    /// partial sum, no output bias.
    fn mlp_partial(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        staged: &mut Vec<(ParamId, Var)>,
        li: usize,
        n2s: Var,
    ) -> Var {
        let layer = &self.layers[li];
        match self.cfg.arch {
            ArchKind::NeoX => {
                let a = self.proj(tape, store, staged, n2s, layer.w1, layer.b1);
                let a = tape.gelu(a);
                let wv = self.stage_param(tape, store, staged, layer.w2);
                tape.matmul(a, wv)
            }
            ArchKind::Llama => {
                let gate = self.proj(tape, store, staged, n2s, layer.w1, None);
                let gate = tape.silu(gate);
                let up = self.proj(tape, store, staged, n2s, layer.w3.expect("llama w3"), None);
                let a = tape.mul(gate, up);
                let wv = self.stage_param(tape, store, staged, layer.w2);
                tape.matmul(a, wv)
            }
        }
    }

    /// One rank's threaded forward over its stage span. TP sync points
    /// go through `comm` ([`Tape::sync_grad`] before each sharded
    /// block, [`Tape::sync_sum`] after each row-parallel product); a
    /// group of one makes both no-ops and the graph degenerates to
    /// [`crate::GptModel`]'s. With `targets` on the last stage the
    /// output is the scalar loss, otherwise the boundary hidden states.
    #[allow(clippy::too_many_arguments)]
    pub fn stage_forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        input: StageInput<'_>,
        targets: Option<&[u32]>,
        comm: &CommHook,
        batch: usize,
        seq: usize,
    ) -> StageForward {
        let mut staged = Vec::new();
        let (mut x, input_var) = match input {
            StageInput::Tokens(tokens) => {
                assert!(self.first_stage, "tokens enter at the first stage");
                assert_eq!(tokens.len(), batch * seq, "token layout");
                let emb = self.stage_param(tape, store, &mut staged, self.tok_emb.expect("emb"));
                (tape.embedding(emb, tokens), None)
            }
            StageInput::Activation(act) => {
                assert!(!self.first_stage, "activations enter at later stages");
                let v = tape.input(act);
                (v, Some(v))
            }
        };
        for li in 0..self.layers.len() {
            let layer = &self.layers[li];
            let n1 = self.norm(tape, store, &mut staged, x, layer.ln1_g, layer.ln1_b);
            let n1s = tape.sync_grad(n1, comm);
            let part = self.attn_partial(tape, store, &mut staged, li, n1s, batch, seq);
            let mut y = tape.sync_sum(part, comm);
            if let Some(bo) = layer.bo {
                let bv = self.stage_param(tape, store, &mut staged, bo);
                y = tape.add_bias(y, bv);
            }
            x = tape.add(x, y);
            let n2 = self.norm(tape, store, &mut staged, x, layer.ln2_g, layer.ln2_b);
            let n2s = tape.sync_grad(n2, comm);
            let part = self.mlp_partial(tape, store, &mut staged, li, n2s);
            let mut y = tape.sync_sum(part, comm);
            if let Some(b2) = layer.b2 {
                let bv = self.stage_param(tape, store, &mut staged, b2);
                y = tape.add_bias(y, bv);
            }
            x = tape.add(x, y);
        }
        let out = if self.last_stage {
            let hid = self.norm(
                tape,
                store,
                &mut staged,
                x,
                self.lnf_g.expect("lnf"),
                self.lnf_b,
            );
            match targets {
                Some(targets) => {
                    let head =
                        self.stage_param(tape, store, &mut staged, self.lm_head.expect("head"));
                    let logits = tape.matmul(hid, head);
                    tape.cross_entropy(logits, targets)
                }
                None => hid,
            }
        } else {
            x
        };
        StageForward {
            out,
            input: input_var,
            staged,
        }
    }
}

/// Add each staged parameter's tape gradient into its store slot —
/// the multi-store-safe twin of [`Tape::accumulate_param_grads`]
/// (parameter ids from different shard stores share one id space, so
/// the reference tracks `(id, var)` pairs explicitly).
pub fn accumulate_staged_grads(tape: &Tape, staged: &[(ParamId, Var)], store: &mut ParamStore) {
    for &(pid, var) in staged {
        if let Some(g) = tape.grad(var) {
            store.grad_mut(pid).add_assign(g);
        }
    }
}

/// One micro-batch chunk's loss on the **sequential reference** graph:
/// all `pp × tp` shards drive a single tape, with
/// [`Tape::tp_branches`] / [`Tape::ring_sum`] standing in for the
/// threaded sync points (same ring-fold reduction order) and stage
/// boundaries flowing through directly (a threaded boundary transfers
/// the same bits). Replicated segments are computed once, against TP
/// rank 0's copies — the copies every consolidation reads.
///
/// Returns the loss and the staged `(param, var)` pairs per
/// `[stage][tp rank]`, for accumulation into the matching shard store.
#[allow(clippy::type_complexity)]
pub fn reference_loss(
    stages: &[Vec<(&ShardModel, &ParamStore)>],
    tape: &mut Tape,
    inputs: &[u32],
    targets: &[u32],
    batch: usize,
    seq: usize,
) -> (Var, Vec<Vec<Vec<(ParamId, Var)>>>) {
    let t = stages[0].len();
    let mut staged: Vec<Vec<Vec<(ParamId, Var)>>> =
        stages.iter().map(|s| vec![Vec::new(); s.len()]).collect();

    let (m0, s0) = stages[0][0];
    assert!(m0.first_stage && stages.last().expect("stages")[0].0.last_stage);
    let mut x = {
        let emb = m0.stage_param(tape, s0, &mut staged[0][0], m0.tok_emb.expect("emb"));
        tape.embedding(emb, inputs)
    };
    for (si, stage) in stages.iter().enumerate() {
        let (lead, lead_store) = stage[0];
        for li in 0..lead.layers.len() {
            // --- attention block
            let n1 = lead.norm(
                tape,
                lead_store,
                &mut staged[si][0],
                x,
                lead.layers[li].ln1_g,
                lead.layers[li].ln1_b,
            );
            let branches = tape.tp_branches(n1, t);
            let parts: Vec<Var> = (0..t)
                .map(|r| {
                    let (m, s) = stage[r];
                    m.attn_partial(tape, s, &mut staged[si][r], li, branches[r], batch, seq)
                })
                .collect();
            let mut y = tape.ring_sum(&parts);
            if let Some(bo) = lead.layers[li].bo {
                let bv = lead.stage_param(tape, lead_store, &mut staged[si][0], bo);
                y = tape.add_bias(y, bv);
            }
            x = tape.add(x, y);
            // --- mlp block
            let n2 = lead.norm(
                tape,
                lead_store,
                &mut staged[si][0],
                x,
                lead.layers[li].ln2_g,
                lead.layers[li].ln2_b,
            );
            let branches = tape.tp_branches(n2, t);
            let parts: Vec<Var> = (0..t)
                .map(|r| {
                    let (m, s) = stage[r];
                    m.mlp_partial(tape, s, &mut staged[si][r], li, branches[r])
                })
                .collect();
            let mut y = tape.ring_sum(&parts);
            if let Some(b2) = lead.layers[li].b2 {
                let bv = lead.stage_param(tape, lead_store, &mut staged[si][0], b2);
                y = tape.add_bias(y, bv);
            }
            x = tape.add(x, y);
        }
    }
    let last = stages.len() - 1;
    let (ml, sl) = stages[last][0];
    let hid = ml.norm(
        tape,
        sl,
        &mut staged[last][0],
        x,
        ml.lnf_g.expect("lnf"),
        ml.lnf_b,
    );
    let head = ml.stage_param(tape, sl, &mut staged[last][0], ml.lm_head.expect("head"));
    let logits = tape.matmul(hid, head);
    let loss = tape.cross_entropy(logits, targets);
    (loss, staged)
}

/// Write one dp-replica's shard grid back into `full_store`: column
/// shards re-concatenate along columns, row shards along rows,
/// replicated tensors copy from TP rank 0. Shapes decide the slice
/// geometry; names decide the kind ([`is_sharded_name`]).
pub fn consolidate_shards(
    full: &GptModel,
    full_store: &mut ParamStore,
    stages: &[Vec<(&ShardModel, &ParamStore)>],
) {
    for stage in stages {
        for (r, &(model, store)) in stage.iter().enumerate() {
            let mut full_ids = stage_param_ids(full, model);
            full_ids.reverse(); // pop from the front in order
            for sid in store.ids() {
                let fid = full_ids.pop().expect("shard store mirrors the stage span");
                let name = store.name(sid);
                debug_assert_eq!(name, full_store.name(fid), "aligned registration order");
                let shard = store.value(sid);
                if !is_sharded_name(name) {
                    if r == 0 {
                        *full_store.value_mut(fid) = shard.clone();
                    }
                } else if is_row_sharded(name) {
                    let c = shard.dim(1);
                    let rows = shard.dim(0);
                    let dst = full_store.value_mut(fid);
                    dst.data_mut()[r * rows * c..(r + 1) * rows * c].copy_from_slice(shard.data());
                } else if shard.rank() == 2 {
                    let (rows, w) = (shard.dim(0), shard.dim(1));
                    let dst = full_store.value_mut(fid);
                    let full_c = dst.numel() / rows;
                    for row in 0..rows {
                        dst.data_mut()[row * full_c + r * w..row * full_c + (r + 1) * w]
                            .copy_from_slice(&shard.data()[row * w..(row + 1) * w]);
                    }
                } else {
                    let w = shard.numel();
                    let dst = full_store.value_mut(fid);
                    dst.data_mut()[r * w..(r + 1) * w].copy_from_slice(shard.data());
                }
            }
        }
    }
}

/// The full-store parameter ids covered by `shard`'s stage span, in
/// registration order — the walk [`consolidate_shards`] aligns against.
fn stage_param_ids(full: &GptModel, shard: &ShardModel) -> Vec<ParamId> {
    let mut ids = Vec::new();
    if shard.first_stage {
        ids.push(full.tok_emb);
    }
    for l in shard.layer_range.clone() {
        let lay = &full.layers[l];
        ids.push(lay.ln1_g);
        ids.extend(lay.ln1_b);
        ids.push(lay.wq);
        ids.extend(lay.bq);
        ids.push(lay.wk);
        ids.extend(lay.bk);
        ids.push(lay.wv);
        ids.extend(lay.bv);
        ids.push(lay.wo);
        ids.extend(lay.bo);
        ids.push(lay.ln2_g);
        ids.extend(lay.ln2_b);
        ids.push(lay.w1);
        ids.extend(lay.b1);
        ids.push(lay.w2);
        ids.extend(lay.b2);
        ids.extend(lay.w3);
    }
    if shard.last_stage {
        ids.push(full.lnf_g);
        ids.extend(full.lnf_b);
        ids.push(full.lm_head);
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgpt_tensor::init;

    fn full(arch: ArchKind) -> (GptModel, ParamStore) {
        let mut store = ParamStore::new();
        let mut rng = init::rng(7);
        let cfg = GptConfig {
            vocab_size: 40,
            max_seq: 16,
            ..GptConfig::tiny(arch, 40)
        };
        let model = GptModel::new(cfg, &mut store, &mut rng);
        (model, store)
    }

    #[test]
    fn stage_ranges_cover_with_heavy_front() {
        assert_eq!(stage_ranges(33, 2), vec![0..17, 17..33]);
        assert_eq!(stage_ranges(4, 2), vec![0..2, 2..4]);
        assert_eq!(stage_ranges(5, 3), vec![0..2, 2..4, 4..5]);
        let r = stage_ranges(7, 7);
        assert_eq!(r.len(), 7);
        assert!(r.iter().all(|x| x.len() == 1));
    }

    #[test]
    fn shard_then_consolidate_is_identity() {
        for arch in [ArchKind::NeoX, ArchKind::Llama] {
            for (tp, pp) in [(1, 1), (2, 1), (1, 2), (2, 2), (4, 1)] {
                let (model, store) = full(arch);
                let ranges = stage_ranges(model.cfg.layers, pp);
                let grid: Vec<Vec<(ShardModel, ParamStore)>> = ranges
                    .iter()
                    .enumerate()
                    .map(|(s, range)| {
                        (0..tp)
                            .map(|r| {
                                shard_model(
                                    &model,
                                    &store,
                                    tp,
                                    r,
                                    range.clone(),
                                    s == 0,
                                    s == pp - 1,
                                )
                            })
                            .collect()
                    })
                    .collect();
                let mut rebuilt = ParamStore::new();
                let mut rng = init::rng(99);
                let probe = GptModel::new(model.cfg.clone(), &mut rebuilt, &mut rng);
                let view: Vec<Vec<(&ShardModel, &ParamStore)>> = grid
                    .iter()
                    .map(|st| st.iter().map(|(m, s)| (m, s)).collect())
                    .collect();
                consolidate_shards(&probe, &mut rebuilt, &view);
                for (a, b) in store.ids().zip(rebuilt.ids()) {
                    assert_eq!(store.name(a), rebuilt.name(b));
                    let (va, vb) = (store.value(a), rebuilt.value(b));
                    assert_eq!(va.shape(), vb.shape(), "{}", store.name(a));
                    let bits =
                        |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(va),
                        bits(vb),
                        "{arch:?} tp={tp} pp={pp} {}",
                        store.name(a)
                    );
                }
            }
        }
    }

    #[test]
    fn plan_validation_catches_bad_layouts() {
        let cfg = GptConfig::tiny(ArchKind::NeoX, 40); // 4 heads, 2 layers
        assert!(validate_plan(&cfg, 2, 2).is_ok());
        assert_eq!(
            validate_plan(&cfg, 3, 1),
            Err(TpPlanError::Heads { heads: 4, tp: 3 })
        );
        assert_eq!(
            validate_plan(&cfg, 1, 3),
            Err(TpPlanError::Stages { layers: 2, pp: 3 })
        );
    }

    #[test]
    fn sharded_names_classify_the_layout() {
        assert!(is_sharded_name("layer0.wq"));
        assert!(is_sharded_name("layer11.w2"));
        assert!(is_sharded_name("layer2.b1"));
        assert!(!is_sharded_name("layer0.bo"));
        assert!(!is_sharded_name("layer0.b2"));
        assert!(!is_sharded_name("layer0.ln1.g"));
        assert!(!is_sharded_name("tok_emb"));
        assert!(!is_sharded_name("lm_head"));
        assert!(!is_sharded_name("lnf.g"));
    }
}
