//! Decoder-only GPT models: the NeoX and LLaMA variants of Fig. 2.
//!
//! Both share the identical attention block (rotary embeddings, causal
//! multi-head attention); they differ exactly where the paper says they do:
//! the normalisation (LayerNorm + biases vs RMSNorm, no biases) and the MLP
//! (2-matrix GELU at 4h vs 3-matrix SwiGLU at 8h/3).

use crate::config::{ArchKind, GptConfig};
use crate::tp::{stage_graph, Entry, Head, ShardModel};
use matgpt_tensor::{init, ParamId, ParamStore, Tape, Tensor, Var};
use rand::Rng;

/// Per-layer parameter handles. Fields are crate-visible so the
/// tape-free inference path (`crate::infer`) can read the same weights.
#[derive(Clone, Copy)]
pub(crate) struct LayerIds {
    pub(crate) ln1_g: ParamId,
    pub(crate) ln1_b: Option<ParamId>,
    pub(crate) wq: ParamId,
    pub(crate) bq: Option<ParamId>,
    pub(crate) wk: ParamId,
    pub(crate) bk: Option<ParamId>,
    pub(crate) wv: ParamId,
    pub(crate) bv: Option<ParamId>,
    pub(crate) wo: ParamId,
    pub(crate) bo: Option<ParamId>,
    pub(crate) ln2_g: ParamId,
    pub(crate) ln2_b: Option<ParamId>,
    pub(crate) w1: ParamId,
    pub(crate) b1: Option<ParamId>,
    pub(crate) w2: ParamId,
    pub(crate) b2: Option<ParamId>,
    /// SwiGLU up-projection (LLaMA only).
    pub(crate) w3: Option<ParamId>,
}

impl LayerIds {
    /// The same layer with every handle `id` replaced by `f(id)`, called
    /// in registration order (the field order above).
    pub(crate) fn map(&self, mut f: impl FnMut(ParamId) -> ParamId) -> LayerIds {
        LayerIds {
            ln1_g: f(self.ln1_g),
            ln1_b: self.ln1_b.map(&mut f),
            wq: f(self.wq),
            bq: self.bq.map(&mut f),
            wk: f(self.wk),
            bk: self.bk.map(&mut f),
            wv: f(self.wv),
            bv: self.bv.map(&mut f),
            wo: f(self.wo),
            bo: self.bo.map(&mut f),
            ln2_g: f(self.ln2_g),
            ln2_b: self.ln2_b.map(&mut f),
            w1: f(self.w1),
            b1: self.b1.map(&mut f),
            w2: f(self.w2),
            b2: self.b2.map(&mut f),
            w3: self.w3.map(&mut f),
        }
    }
}

/// A GPT model: configuration plus parameter handles into a store.
pub struct GptModel {
    /// The architecture configuration.
    pub cfg: GptConfig,
    pub(crate) tok_emb: ParamId,
    pub(crate) layers: Vec<LayerIds>,
    pub(crate) lnf_g: ParamId,
    pub(crate) lnf_b: Option<ParamId>,
    pub(crate) lm_head: ParamId,
}

impl GptModel {
    /// Create a model, registering all parameters in `store`.
    pub fn new<R: Rng>(cfg: GptConfig, store: &mut ParamStore, rng: &mut R) -> Self {
        let h = cfg.hidden;
        let m = cfg.mlp_hidden();
        let v = cfg.vocab_size;
        let std = 0.02f32;
        let resid_std = std / (2.0 * cfg.layers as f32).sqrt();
        let bias = cfg.has_biases();

        let kv_dim = cfg.kv_head_count() * cfg.head_dim();
        let tok_emb = store.add("tok_emb", init::randn(&[v, h], std, rng));
        let mut layers = Vec::with_capacity(cfg.layers);
        for l in 0..cfg.layers {
            let p = |n: &str| format!("layer{l}.{n}");
            let norm_bias = |store: &mut ParamStore, n: &str| {
                if bias {
                    Some(store.add(p(n), Tensor::zeros(&[h])))
                } else {
                    None
                }
            };
            let lin_bias = |store: &mut ParamStore, n: &str, d: usize| {
                if bias {
                    Some(store.add(p(n), Tensor::zeros(&[d])))
                } else {
                    None
                }
            };
            let ln1_g = store.add(p("ln1.g"), Tensor::full(&[h], 1.0));
            let ln1_b = norm_bias(store, "ln1.b");
            let wq = store.add(p("wq"), init::randn(&[h, h], std, rng));
            let bq = lin_bias(store, "bq", h);
            let wk = store.add(p("wk"), init::randn(&[h, kv_dim], std, rng));
            let bk = lin_bias(store, "bk", kv_dim);
            let wv = store.add(p("wv"), init::randn(&[h, kv_dim], std, rng));
            let bv = lin_bias(store, "bv", kv_dim);
            let wo = store.add(p("wo"), init::randn(&[h, h], resid_std, rng));
            let bo = lin_bias(store, "bo", h);
            let ln2_g = store.add(p("ln2.g"), Tensor::full(&[h], 1.0));
            let ln2_b = norm_bias(store, "ln2.b");
            let w1 = store.add(p("w1"), init::randn(&[h, m], std, rng));
            let b1 = lin_bias(store, "b1", m);
            let w2 = store.add(p("w2"), init::randn(&[m, h], resid_std, rng));
            let b2 = lin_bias(store, "b2", h);
            let w3 = match cfg.arch {
                ArchKind::Llama => Some(store.add(p("w3"), init::randn(&[h, m], std, rng))),
                ArchKind::NeoX => None,
            };
            layers.push(LayerIds {
                ln1_g,
                ln1_b,
                wq,
                bq,
                wk,
                bk,
                wv,
                bv,
                wo,
                bo,
                ln2_g,
                ln2_b,
                w1,
                b1,
                w2,
                b2,
                w3,
            });
        }
        let lnf_g = store.add("lnf.g", Tensor::full(&[h], 1.0));
        let lnf_b = if bias {
            Some(store.add("lnf.b", Tensor::zeros(&[h])))
        } else {
            None
        };
        let lm_head = store.add("lm_head", init::randn(&[h, v], std, rng));
        Self {
            cfg,
            tok_emb,
            layers,
            lnf_g,
            lnf_b,
            lm_head,
        }
    }

    /// Forward to final hidden states: `[B*T, h]`.
    pub fn hidden_states(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        tokens: &[u32],
        batch: usize,
        seq: usize,
    ) -> Var {
        self.graph(tape, store, tokens, Head::Hidden, batch, seq)
    }

    /// Forward to logits: `[B*T, vocab]`.
    pub fn logits(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        tokens: &[u32],
        batch: usize,
        seq: usize,
    ) -> Var {
        self.graph(tape, store, tokens, Head::Logits, batch, seq)
    }

    /// Next-token cross-entropy loss for a `[B, T]` batch of inputs with
    /// aligned targets.
    pub fn loss(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        inputs: &[u32],
        targets: &[u32],
        batch: usize,
        seq: usize,
    ) -> Var {
        self.graph(tape, store, inputs, Head::Loss(targets), batch, seq)
    }

    /// The whole model as the 1 × 1 stage graph of [`crate::tp`]: the
    /// one GPT training graph, which TP ranks and pipeline stages shard.
    fn graph(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        tokens: &[u32],
        head: Head<'_>,
        batch: usize,
        seq: usize,
    ) -> Var {
        assert!(seq <= self.cfg.max_seq, "sequence too long");
        let whole = ShardModel::whole(self);
        stage_graph(
            tape,
            &[(&whole, store)],
            &mut [Vec::new()],
            None,
            Entry::Tokens(tokens),
            head,
            batch,
            seq,
        )
    }

    /// Total log-probability of `tokens[pos]` given the prefix, summed over
    /// `pos ∈ [start, tokens.len())`. The scoring primitive behind the
    /// zero/few-shot harness (length-normalise externally if desired).
    /// Only the last `max_seq` tokens are read: a longer input drops its
    /// head, and with it any scored position before the second kept
    /// token, so at most `max_seq - 1` positions are scored.
    pub fn score_span(&self, store: &ParamStore, tokens: &[u32], start: usize) -> f64 {
        assert!(start >= 1 && start <= tokens.len(), "span start");
        // cap the context to the model window from the left
        let drop = tokens.len().saturating_sub(self.cfg.max_seq);
        let (tokens, start) = (&tokens[drop..], start.saturating_sub(drop).max(1));
        let seq = tokens.len() - 1;
        if seq == 0 {
            return 0.0;
        }
        let mut tape = Tape::new();
        let logits = self.logits(&mut tape, store, &tokens[..seq], 1, seq);
        let lv = tape.value(logits);
        let v = self.cfg.vocab_size;
        let mut total = 0.0f64;
        for pos in start..tokens.len() {
            let row = &lv.data()[(pos - 1) * v..pos * v];
            let lse = matgpt_tensor::kernels::softmax::logsumexp(row) as f64;
            total += row[tokens[pos] as usize] as f64 - lse;
        }
        total
    }

    /// Mean-pooled final-hidden-state embedding of a token sequence.
    pub fn embed(&self, store: &ParamStore, tokens: &[u32]) -> Vec<f32> {
        let seq = tokens.len().min(self.cfg.max_seq);
        let mut tape = Tape::new();
        let hid = self.hidden_states(&mut tape, store, &tokens[..seq], 1, seq);
        let pooled = tape.group_mean_rows(hid, seq);
        tape.value(pooled).data().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgpt_tensor::init;

    fn tiny(arch: ArchKind) -> (GptModel, ParamStore) {
        let mut store = ParamStore::new();
        let mut rng = init::rng(0);
        let cfg = GptConfig {
            vocab_size: 50,
            hidden: 16,
            layers: 2,
            heads: 2,
            max_seq: 16,
            ..GptConfig::tiny(arch, 50)
        };
        let model = GptModel::new(cfg, &mut store, &mut rng);
        (model, store)
    }

    #[test]
    fn registered_params_match_counting_module() {
        for arch in [ArchKind::NeoX, ArchKind::Llama] {
            let (model, store) = tiny(arch);
            let expected = crate::count::total_params(&model.cfg);
            assert_eq!(store.num_scalars(), expected, "{arch}");
        }
    }

    #[test]
    fn forward_shapes() {
        for arch in [ArchKind::NeoX, ArchKind::Llama] {
            let (model, store) = tiny(arch);
            let tokens: Vec<u32> = (0..2 * 8).map(|i| (i % 50) as u32).collect();
            let mut tape = Tape::new();
            let logits = model.logits(&mut tape, &store, &tokens, 2, 8);
            assert_eq!(tape.value(logits).shape(), &[2 * 8, 50]);
        }
    }

    #[test]
    fn loss_is_near_uniform_at_init() {
        for arch in [ArchKind::NeoX, ArchKind::Llama] {
            let (model, store) = tiny(arch);
            let tokens: Vec<u32> = (0..16).map(|i| (i * 3 % 50) as u32).collect();
            let targets: Vec<u32> = (0..16).map(|i| ((i * 3 + 1) % 50) as u32).collect();
            let mut tape = Tape::new();
            let loss = model.loss(&mut tape, &store, &tokens, &targets, 1, 16);
            let l = tape.value(loss).item();
            let uniform = (50f32).ln();
            assert!(
                (l - uniform).abs() < 0.5,
                "{arch}: loss {l} vs ln(V) {uniform}"
            );
        }
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        for arch in [ArchKind::NeoX, ArchKind::Llama] {
            let (model, mut store) = tiny(arch);
            let tokens: Vec<u32> = (0..16).map(|i| (i % 5) as u32).collect();
            let targets: Vec<u32> = (0..16).map(|i| ((i + 1) % 5) as u32).collect();
            let loss_at = |store: &ParamStore| {
                let mut tape = Tape::new();
                let l = model.loss(&mut tape, store, &tokens, &targets, 1, 16);
                tape.value(l).item()
            };
            let before = loss_at(&store);
            for _ in 0..5 {
                store.zero_grads();
                let mut tape = Tape::new();
                let l = model.loss(&mut tape, &store, &tokens, &targets, 1, 16);
                tape.backward(l);
                tape.accumulate_param_grads(&mut store);
                // plain SGD inline to avoid a dev-dependency cycle
                store.for_each_param(|_, value, grad| {
                    for (w, g) in value.data_mut().iter_mut().zip(grad.data()) {
                        *w -= 0.5 * g;
                    }
                });
            }
            let after = loss_at(&store);
            assert!(after < before, "{arch}: {before} -> {after}");
        }
    }

    #[test]
    fn causality_score_unaffected_by_future() {
        let (model, store) = tiny(ArchKind::Llama);
        // score of position 1..3 must not depend on tokens after position 3
        let a = [1u32, 5, 9, 12, 20];
        let b = [1u32, 5, 9, 12, 40];
        let sa = model.score_span(&store, &a[..4], 1);
        let sb = model.score_span(&store, &b[..4], 1);
        assert!((sa - sb).abs() < 1e-9);
    }

    #[test]
    fn embeddings_have_hidden_dim_and_differ_by_input() {
        let (model, store) = tiny(ArchKind::NeoX);
        let e1 = model.embed(&store, &[1, 2, 3]);
        let e2 = model.embed(&store, &[4, 5, 6]);
        assert_eq!(e1.len(), model.cfg.hidden);
        assert_ne!(e1, e2);
    }

    #[test]
    fn gqa_param_count_and_forward() {
        let mut store = ParamStore::new();
        let mut rng = init::rng(4);
        let cfg = GptConfig {
            vocab_size: 40,
            hidden: 16,
            layers: 2,
            heads: 4,
            kv_heads: Some(2),
            max_seq: 16,
            ..GptConfig::tiny(ArchKind::Llama, 40)
        };
        let model = GptModel::new(cfg.clone(), &mut store, &mut rng);
        assert_eq!(store.num_scalars(), crate::count::total_params(&cfg));
        // fewer params than full multi-head attention
        let full = crate::count::total_params(&GptConfig {
            kv_heads: None,
            ..cfg.clone()
        });
        assert!(crate::count::total_params(&cfg) < full);
        // forward works and trains
        let tokens: Vec<u32> = (0..8).map(|i| i % 40).collect();
        let targets: Vec<u32> = (0..8).map(|i| (i + 1) % 40).collect();
        let mut tape = Tape::new();
        let loss = model.loss(&mut tape, &store, &tokens, &targets, 1, 8);
        assert!(tape.value(loss).item().is_finite());
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        assert!(store.grad_norm() > 0.0);
    }

    #[test]
    fn gqa_shrinks_kv_cache() {
        let full = GptConfig::paper_6_7b(ArchKind::Llama, 52_000);
        let gqa = GptConfig {
            kv_heads: Some(8),
            ..full.clone()
        };
        assert_eq!(
            gqa.kv_cache_bytes_per_token() * 4,
            full.kv_cache_bytes_per_token()
        );
    }

    #[test]
    fn score_span_is_negative_log_domain() {
        let (model, store) = tiny(ArchKind::Llama);
        let s = model.score_span(&store, &[1, 2, 3, 4], 1);
        assert!(s < 0.0, "log-prob must be negative: {s}");
    }
}
