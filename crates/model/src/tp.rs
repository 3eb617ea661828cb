//! The GPT training graph, written once, and its Megatron-style
//! tensor-parallel and pipeline shards.
//!
//! One per-stage layer loop builds every GPT training graph: a pipeline
//! stage's span of pre-norm blocks (`x += attn(norm1(x))`, then
//! `x += mlp(norm2(x))`) over the stage's tensor-parallel shards. Its
//! callers differ only in how a TP group meets at the two Megatron sync
//! points:
//!
//! * **threaded** ([`ShardModel::stage_forward`]) — one rank per tape,
//!   its peers reached through a [`CommHook`]: [`Tape::sync_grad`]
//!   entering each sharded block, [`Tape::sync_sum`] after each
//!   row-parallel product;
//! * **sequential** ([`reference_loss`]) — every rank of every stage on
//!   one tape, joined by [`Tape::tp_branches`] / [`Tape::ring_sum`] with
//!   the ring's reduction order ([`matgpt_tensor::ring_fold`]).
//!
//! Equivalence contract: a threaded TP×t run is bit-identical to the
//! sequential reference, and the reference on a 1 × 1 grid
//! ([`ShardModel::whole`]) *is* [`crate::GptModel::loss`] — `GptModel`'s
//! `hidden_states`, `logits` and `loss` are built by the same loop.
//!
//! **Shard rule** (GPT-NeoX-20B / Megatron-LM). A tensor's registration
//! name decides its kind, its own shape the geometry: rank `r` of `t`
//! holds `r·n/t..(r+1)·n/t` of the split dimension's `n`.
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
//! [`shard_model`] carves shards by that rule and [`consolidate_shards`]
//! places them back by it, both along one registration-order walk of a
//! stage's parameters.

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

/// Rows × columns of a parameter's 2-D view (a vector is one row).
type Block = (Range<usize>, Range<usize>);

/// The shard rule: TP rank `rank` of `tp`'s block of the full tensor
/// `name` of `shape`. The name decides the kind — replicated (the whole
/// tensor), row- or column-parallel — and the shape the geometry.
fn shard_block(name: &str, shape: &[usize], tp: usize, rank: usize) -> Block {
    let (rows, cols) = match *shape {
        [n] => (1, n),
        [r, c] => (r, c),
        _ => panic!("parameters are vectors or matrices"),
    };
    let part = |n: usize| rank * n / tp..(rank + 1) * n / tp;
    if !is_sharded_name(name) {
        (0..rows, 0..cols)
    } else if is_row_sharded(name) {
        (part(rows), 0..cols)
    } else {
        (0..rows, part(cols))
    }
}

/// Copy `block` out of `t`, keeping its rank.
fn carve(t: &Tensor, (rows, cols): &Block) -> Tensor {
    let c = *t.shape().last().expect("parameter shape");
    let mut data = Vec::with_capacity(rows.len() * cols.len());
    for r in rows.clone() {
        data.extend_from_slice(&t.data()[r * c + cols.start..r * c + cols.end]);
    }
    if t.rank() == 1 {
        Tensor::from_vec(&[cols.len()], data)
    } else {
        Tensor::from_vec(&[rows.len(), cols.len()], data)
    }
}

/// Write `shard` into `block` of `dst`: the inverse of [`carve`].
fn place(dst: &mut Tensor, shard: &Tensor, (rows, cols): &Block) {
    let c = *dst.shape().last().expect("parameter shape");
    let w = cols.len();
    for (i, r) in rows.clone().enumerate() {
        dst.data_mut()[r * c + cols.start..r * c + cols.end]
            .copy_from_slice(&shard.data()[i * w..(i + 1) * w]);
    }
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
/// initialised model by the shard rule. The shard store registers
/// tensors under the same names, in the same relative order, as the
/// full store — values are exact slices, so `t = 1, pp = 1` reproduces
/// the full store bitwise.
pub fn shard_model(
    full: &GptModel,
    full_store: &ParamStore,
    tp: usize,
    rank: usize,
    layer_range: Range<usize>,
    first_stage: bool,
    last_stage: bool,
) -> (ShardModel, ParamStore) {
    validate_plan(&full.cfg, tp, 1).expect("validated layout");
    assert!(rank < tp, "rank within group");
    let mut store = ParamStore::new();
    let shard = ShardModel::span(full, layer_range, first_stage, last_stage).map_ids(|id| {
        let (name, value) = (full_store.name(id), full_store.value(id));
        store.add(
            name,
            carve(value, &shard_block(name, value.shape(), tp, rank)),
        )
    });
    (ShardModel { tp, rank, ..shard }, store)
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
        Self::span(full, 0..full.cfg.layers, true, true)
    }

    /// `full`'s own parameter handles for one pipeline stage (`tp = 1`).
    fn span(
        full: &GptModel,
        layer_range: Range<usize>,
        first_stage: bool,
        last_stage: bool,
    ) -> ShardModel {
        ShardModel {
            cfg: full.cfg.clone(),
            tp: 1,
            rank: 0,
            tok_emb: first_stage.then_some(full.tok_emb),
            layers: full.layers[layer_range.clone()].to_vec(),
            lnf_g: last_stage.then_some(full.lnf_g),
            lnf_b: full.lnf_b.filter(|_| last_stage),
            lm_head: last_stage.then_some(full.lm_head),
            layer_range,
            first_stage,
            last_stage,
        }
    }

    /// This stage with every parameter handle `id` replaced by `f(id)`,
    /// called in registration order: the one walk [`shard_model`]
    /// registers along and [`consolidate_shards`] aligns against.
    fn map_ids(&self, mut f: impl FnMut(ParamId) -> ParamId) -> ShardModel {
        ShardModel {
            tok_emb: self.tok_emb.map(&mut f),
            layers: self.layers.iter().map(|l| l.map(&mut f)).collect(),
            lnf_g: self.lnf_g.map(&mut f),
            lnf_b: self.lnf_b.map(&mut f),
            lm_head: self.lm_head.map(&mut f),
            cfg: self.cfg.clone(),
            layer_range: self.layer_range.clone(),
            ..*self
        }
    }

    /// Every parameter handle, in registration order.
    fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = Vec::new();
        self.map_ids(|id| {
            ids.push(id);
            id
        });
        ids
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
        // grouped-query attention: share each kv head across its group
        let (k, v) = if kv_heads < heads {
            (
                expand_kv_heads(tape, k, batch, seq, heads, kv_heads, d),
                expand_kv_heads(tape, v, batch, seq, heads, kv_heads, d),
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

    /// One rank's threaded forward over its stage span: the stage graph
    /// with the TP group met through `comm` (a group of one makes both
    /// sync points no-ops). With `targets` on the last stage the output
    /// is the scalar loss, otherwise the boundary hidden states.
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
        let (entry, input) = match input {
            StageInput::Tokens(tokens) => (Entry::Tokens(tokens), None),
            StageInput::Activation(act) => {
                let v = tape.input(act);
                (Entry::Hidden(v), Some(v))
            }
        };
        let head = targets.map_or(Head::Hidden, Head::Loss);
        let mut staged = [Vec::new()];
        let out = stage_graph(
            tape,
            &[(self, store)],
            &mut staged,
            Some(comm),
            entry,
            head,
            batch,
            seq,
        );
        let [staged] = staged;
        StageForward { out, input, staged }
    }
}

/// Where a stage graph's residual stream starts.
pub(crate) enum Entry<'a> {
    /// Token ids, embedded by the first stage.
    Tokens(&'a [u32]),
    /// The previous stage's boundary hidden states.
    Hidden(Var),
}

/// What the last stage's graph ends in.
pub(crate) enum Head<'a> {
    /// The final norm's output, `[B*T, h]`.
    Hidden,
    /// Logits, `[B*T, vocab]`.
    Logits,
    /// Next-token cross-entropy against these targets.
    Loss(&'a [u32]),
}

/// One pipeline stage of the GPT graph on `tape` — the only place the
/// block is written. `ranks` are the stage's TP shards on this tape,
/// each with its own `staged` list: one threaded rank whose group meets
/// through `comm`, or (`comm = None`) all `t` ranks of the group, forked
/// and summed on the tape itself. Replicated pieces (embedding, norms,
/// output biases, final norm, head) are computed once, against rank 0's
/// copies — the copies every consolidation reads. A stage that is not
/// last returns its residual stream; the last ends in `head`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stage_graph(
    tape: &mut Tape,
    ranks: &[(&ShardModel, &ParamStore)],
    staged: &mut [Vec<(ParamId, Var)>],
    comm: Option<&CommHook>,
    entry: Entry<'_>,
    head: Head<'_>,
    batch: usize,
    seq: usize,
) -> Var {
    assert!(
        comm.is_none() || ranks.len() == 1,
        "one threaded rank per tape"
    );
    let (lead, lead_store) = ranks[0];
    let mut x = match entry {
        Entry::Tokens(tokens) => {
            assert!(lead.first_stage, "tokens enter at the first stage");
            assert_eq!(tokens.len(), batch * seq, "token layout");
            let emb = lead.tok_emb.expect("emb");
            let emb = lead.stage_param(tape, lead_store, &mut staged[0], emb);
            tape.embedding(emb, tokens)
        }
        Entry::Hidden(x) => {
            assert!(!lead.first_stage, "activations enter at later stages");
            x
        }
    };
    for (li, layer) in lead.layers.iter().enumerate() {
        // the pre-norm block: x += attn(norm1(x)), then x += mlp(norm2(x))
        for (g, b, out_bias, mlp) in [
            (layer.ln1_g, layer.ln1_b, layer.bo, false),
            (layer.ln2_g, layer.ln2_b, layer.b2, true),
        ] {
            let n = lead.norm(tape, lead_store, &mut staged[0], x, g, b);
            // Megatron "f": every rank reads `n`; their gradients sum
            let inputs = match comm {
                Some(comm) => vec![tape.sync_grad(n, comm)],
                None => tape.tp_branches(n, ranks.len()),
            };
            let parts: Vec<Var> = ranks
                .iter()
                .zip(staged.iter_mut())
                .zip(inputs)
                .map(|((&(m, s), st), n)| {
                    if mlp {
                        m.mlp_partial(tape, s, st, li, n)
                    } else {
                        m.attn_partial(tape, s, st, li, n, batch, seq)
                    }
                })
                .collect();
            // Megatron "g": the row-parallel partials sum
            let mut y = match comm {
                Some(comm) => tape.sync_sum(parts[0], comm),
                None => tape.ring_sum(&parts),
            };
            if let Some(bias) = out_bias {
                let bv = lead.stage_param(tape, lead_store, &mut staged[0], bias);
                y = tape.add_bias(y, bv);
            }
            x = tape.add(x, y);
        }
    }
    if !lead.last_stage {
        return x;
    }
    let lnf_g = lead.lnf_g.expect("lnf");
    let hid = lead.norm(tape, lead_store, &mut staged[0], x, lnf_g, lead.lnf_b);
    if let Head::Hidden = head {
        return hid;
    }
    let lm_head = lead.lm_head.expect("head");
    let w = lead.stage_param(tape, lead_store, &mut staged[0], lm_head);
    let logits = tape.matmul(hid, w);
    match head {
        Head::Loss(targets) => tape.cross_entropy(logits, targets),
        _ => logits,
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
/// all `pp × tp` shards drive a single tape, stage after stage through
/// the stage graph, with [`Tape::tp_branches`] / [`Tape::ring_sum`]
/// standing in for the threaded sync points (same ring-fold reduction
/// order) and stage boundaries flowing through directly (a threaded
/// boundary transfers the same bits).
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
    assert!(
        stages.last().expect("stages")[0].0.last_stage,
        "the last stage ends in the loss"
    );
    let mut staged: Vec<Vec<Vec<(ParamId, Var)>>> =
        stages.iter().map(|s| vec![Vec::new(); s.len()]).collect();
    let mut x = None;
    for (stage, st) in stages.iter().zip(&mut staged) {
        let entry = x.map_or(Entry::Tokens(inputs), Entry::Hidden);
        let head = Head::Loss(targets);
        x = Some(stage_graph(tape, stage, st, None, entry, head, batch, seq));
    }
    (x.expect("stages"), staged)
}

/// Write one dp-replica's shard grid back into `full_store` by the
/// shard rule: each sharded tensor's block goes back where
/// [`shard_model`] carved it from; replicated tensors copy from TP
/// rank 0.
pub fn consolidate_shards(
    full: &GptModel,
    full_store: &mut ParamStore,
    stages: &[Vec<(&ShardModel, &ParamStore)>],
) {
    for stage in stages {
        for (r, &(model, store)) in stage.iter().enumerate() {
            let span = ShardModel::span(
                full,
                model.layer_range.clone(),
                model.first_stage,
                model.last_stage,
            );
            let full_ids = span.param_ids();
            assert_eq!(
                store.len(),
                full_ids.len(),
                "shard store mirrors the stage span"
            );
            for (sid, fid) in store.ids().zip(full_ids) {
                let name = store.name(sid);
                debug_assert_eq!(name, full_store.name(fid), "aligned registration order");
                if r == 0 || is_sharded_name(name) {
                    let block = shard_block(name, full_store.value(fid).shape(), stage.len(), r);
                    place(full_store.value_mut(fid), store.value(sid), &block);
                }
            }
        }
    }
}

/// Repeat each of `kv_heads` key/value heads `heads / kv_heads` times so a
/// `[B*Hkv, T, D]` tensor becomes `[B*H, T, D]` (gradient flows back as a
/// sum over the group, which is exactly GQA's backward).
fn expand_kv_heads(
    tape: &mut Tape,
    x: Var,
    batch: usize,
    seq: usize,
    heads: usize,
    kv_heads: usize,
    d: usize,
) -> Var {
    let group = heads / kv_heads;
    let x2d = tape.reshape(x, &[batch * kv_heads * seq, d]);
    let mut idx = Vec::with_capacity(batch * heads * seq);
    for b in 0..batch {
        for hq in 0..heads {
            let hkv = hq / group;
            for t in 0..seq {
                idx.push(((b * kv_heads + hkv) * seq + t) as u32);
            }
        }
    }
    let gathered = tape.index_select(x2d, &idx);
    tape.reshape(gathered, &[batch * heads, seq, d])
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
