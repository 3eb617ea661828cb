//! Embedding extraction from trained language models.
//!
//! The paper's scientific downstream task feeds the LLM embedding of a
//! material's formula into a GNN (Fig. 3). [`Embedder`] abstracts over the
//! GPT variants and the BERT surrogate so the analysis and fusion code is
//! model-agnostic.

use matgpt_model::{BertModel, GptModel};
use matgpt_tensor::ParamStore;
use matgpt_tokenizer::Tokenizer;

/// Anything that can embed a text into a fixed-size vector.
pub trait Embedder: Sync {
    /// Model label for tables/figures.
    fn label(&self) -> String;
    /// Embedding dimension.
    fn dim(&self) -> usize;
    /// Embed a text (mean-pooled last hidden states).
    fn embed(&self, text: &str) -> Vec<f32>;
}

/// GPT-based embedder.
pub struct GptEmbedder<'a> {
    /// Model.
    pub model: &'a GptModel,
    /// Weights.
    pub store: &'a ParamStore,
    /// Tokenizer used at pre-training time.
    pub tokenizer: &'a dyn Tokenizer,
    /// Display label.
    pub name: String,
}

impl Embedder for GptEmbedder<'_> {
    fn label(&self) -> String {
        self.name.clone()
    }

    fn dim(&self) -> usize {
        self.model.cfg.hidden
    }

    fn embed(&self, text: &str) -> Vec<f32> {
        let mut tokens = self.tokenizer.encode(text);
        if tokens.is_empty() {
            tokens.push(matgpt_tokenizer::special::UNK);
        }
        self.model.embed(self.store, &tokens)
    }
}

/// BERT-based embedder (the MatSciBERT surrogate).
pub struct BertEmbedder<'a> {
    /// Model.
    pub model: &'a BertModel,
    /// Weights.
    pub store: &'a ParamStore,
    /// Tokenizer.
    pub tokenizer: &'a dyn Tokenizer,
    /// Display label.
    pub name: String,
}

impl Embedder for BertEmbedder<'_> {
    fn label(&self) -> String {
        self.name.clone()
    }

    fn dim(&self) -> usize {
        self.model.cfg.hidden
    }

    fn embed(&self, text: &str) -> Vec<f32> {
        let mut tokens = self.tokenizer.encode(text);
        if tokens.is_empty() {
            tokens.push(matgpt_tokenizer::special::UNK);
        }
        self.model.embed(self.store, &tokens)
    }
}

/// Embed a batch of formulas.
pub fn embed_all(embedder: &dyn Embedder, texts: &[String]) -> Vec<Vec<f32>> {
    texts.iter().map(|t| embedder.embed(t)).collect()
}

/// A *knowledge probe*: instead of a raw hidden state, read the LM's
/// textual knowledge out explicitly as a small feature vector —
/// the normalised likelihoods of each class continuation after a
/// statement prompt, plus a grid-expectation over value continuations.
///
/// Features are derived purely from the pre-trained LM (no ground-truth
/// access); at small scale they carry the corpus knowledge far more
/// cleanly than a 64-dim mean-pooled hidden state (see EXPERIMENTS.md,
/// Table V note).
pub struct GptKnowledgeProbe<'a> {
    /// Model.
    pub model: &'a GptModel,
    /// Weights.
    pub store: &'a ParamStore,
    /// Tokenizer.
    pub tokenizer: &'a dyn Tokenizer,
    /// Prompt built as `format!("{prefix}{text}{infix}")` then scored
    /// against each of `classes` as a continuation.
    pub class_prompt: (String, String),
    /// Class continuations (e.g. conductor/semiconductor/insulator).
    pub classes: Vec<String>,
    /// Value prompt `(prefix, suffix)`: continuation is `"{v:.1}{suffix}"`.
    pub value_prompt: (String, String),
    /// Value grid for the expectation feature.
    pub value_grid: Vec<f32>,
    /// Display label.
    pub name: String,
}

impl GptKnowledgeProbe<'_> {
    /// The standard band-gap probe matching the corpus templates.
    pub fn band_gap<'a>(
        model: &'a GptModel,
        store: &'a ParamStore,
        tokenizer: &'a dyn Tokenizer,
        name: String,
    ) -> GptKnowledgeProbe<'a> {
        GptKnowledgeProbe {
            model,
            store,
            tokenizer,
            class_prompt: ("Our results show that ".into(), " is a ".into()),
            classes: vec![
                "conductor".into(),
                "semiconductor".into(),
                "insulator".into(),
            ],
            value_prompt: (
                "Measurements reveal that {} has a band gap of approximately ".into(),
                " eV".into(),
            ),
            value_grid: (0..10).map(|i| 0.5 + i as f32 * 0.9).collect(),
            name,
        }
    }

    fn mean_logprob(&self, prompt: &str, continuation: &str) -> f32 {
        let ptoks = self.tokenizer.encode(prompt);
        let full = self.tokenizer.encode(&format!("{prompt}{continuation}"));
        if full.len() < 2 {
            return 0.0;
        }
        let start = crate::harness::continuation_start(&ptoks, &full);
        crate::harness::mean_span_logprob(self.model, self.store, &full, start) as f32
    }
}

fn softmax_inplace(v: &mut [f32]) {
    let m = v.iter().cloned().fold(f32::MIN, f32::max);
    let mut z = 0.0;
    for x in v.iter_mut() {
        *x = (*x - m).exp();
        z += *x;
    }
    for x in v.iter_mut() {
        *x /= z;
    }
}

impl Embedder for GptKnowledgeProbe<'_> {
    fn label(&self) -> String {
        self.name.clone()
    }

    fn dim(&self) -> usize {
        self.classes.len() + 1
    }

    fn embed(&self, text: &str) -> Vec<f32> {
        let prompt = format!("{}{}{}", self.class_prompt.0, text, self.class_prompt.1);
        let mut class_probs: Vec<f32> = self
            .classes
            .iter()
            .map(|c| self.mean_logprob(&prompt, c))
            .collect();
        softmax_inplace(&mut class_probs);

        let vprompt = self.value_prompt.0.replace("{}", text);
        let mut weights: Vec<f32> = self
            .value_grid
            .iter()
            .map(|v| self.mean_logprob(&vprompt, &format!("{v:.1}{}", self.value_prompt.1)))
            .collect();
        softmax_inplace(&mut weights);
        let scale = self
            .value_grid
            .iter()
            .cloned()
            .fold(f32::MIN, f32::max)
            .max(1.0);
        let expected: f32 = self
            .value_grid
            .iter()
            .zip(&weights)
            .map(|(v, w)| v * w)
            .sum::<f32>()
            / scale;
        let mut out = class_probs;
        out.push(expected);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgpt_model::{ArchKind, BertConfig, GptConfig};
    use matgpt_tensor::init;
    use matgpt_tokenizer::BpeTokenizer;

    #[test]
    fn gpt_and_bert_embedders_produce_dim_vectors() {
        let corpus = vec!["BaTiO3 is an insulator".to_string()];
        let tok = BpeTokenizer::train(&corpus, 280);
        let mut store = ParamStore::new();
        let mut rng = init::rng(0);
        let gcfg = GptConfig {
            vocab_size: tok.vocab_size(),
            hidden: 16,
            layers: 1,
            heads: 2,
            max_seq: 32,
            ..GptConfig::tiny(ArchKind::Llama, tok.vocab_size())
        };
        let gpt = GptModel::new(gcfg, &mut store, &mut rng);
        let ge = GptEmbedder {
            model: &gpt,
            store: &store,
            tokenizer: &tok,
            name: "gpt".into(),
        };
        let v = ge.embed("BaTiO3");
        assert_eq!(v.len(), ge.dim());
        assert!(v.iter().any(|x| *x != 0.0));

        let mut bstore = ParamStore::new();
        let bcfg = BertConfig {
            vocab_size: tok.vocab_size(),
            hidden: 16,
            layers: 1,
            heads: 2,
            max_seq: 32,
            norm_eps: 1e-5,
            mask_prob: 0.15,
        };
        let bert = BertModel::new(bcfg, &mut bstore, &mut rng);
        let be = BertEmbedder {
            model: &bert,
            store: &bstore,
            tokenizer: &tok,
            name: "bert".into(),
        };
        let v = be.embed("BaTiO3");
        assert_eq!(v.len(), 16);
    }

    #[test]
    fn knowledge_probe_outputs_are_probabilities() {
        let corpus = vec!["BaTiO3 is an insulator with a band gap of 4.1 eV".to_string()];
        let tok = BpeTokenizer::train(&corpus, 300);
        let mut store = ParamStore::new();
        let mut rng = init::rng(2);
        let gcfg = GptConfig {
            vocab_size: tok.vocab_size(),
            hidden: 16,
            layers: 1,
            heads: 2,
            max_seq: 160,
            ..GptConfig::tiny(ArchKind::Llama, tok.vocab_size())
        };
        let gpt = GptModel::new(gcfg, &mut store, &mut rng);
        let probe = GptKnowledgeProbe::band_gap(&gpt, &store, &tok, "probe".into());
        let v = probe.embed("BaTiO3");
        assert_eq!(v.len(), probe.dim());
        assert_eq!(v.len(), 4);
        let class_sum: f32 = v[..3].iter().sum();
        assert!((class_sum - 1.0).abs() < 1e-4, "class probs {v:?}");
        assert!(v[..3].iter().all(|p| (0.0..=1.0).contains(p)));
        // expected-value feature normalised by the grid max
        assert!((0.0..=1.0).contains(&v[3]), "{}", v[3]);
    }

    #[test]
    fn knowledge_probe_scores_prompts_longer_than_the_window() {
        let corpus = vec!["BaTiO3 is an insulator with a band gap of 4.1 eV".to_string()];
        let tok = BpeTokenizer::train(&corpus, 300);
        let mut store = ParamStore::new();
        let mut rng = init::rng(2);
        let gcfg = GptConfig {
            vocab_size: tok.vocab_size(),
            hidden: 16,
            layers: 1,
            heads: 2,
            max_seq: 64,
            ..GptConfig::tiny(ArchKind::Llama, tok.vocab_size())
        };
        let gpt = GptModel::new(gcfg, &mut store, &mut rng);
        let probe = GptKnowledgeProbe::band_gap(&gpt, &store, &tok, "probe".into());
        let vprompt = probe.value_prompt.0.replace("{}", "BaTiO3");
        let full = format!("{vprompt}4.1{}", probe.value_prompt.1);
        assert!(
            tok.encode(&full).len() > 64,
            "the value prompt outgrows the window"
        );
        let v = probe.embed("BaTiO3");
        assert_eq!(v.len(), probe.dim());
        assert!(
            v.iter().all(|p| p.is_finite() && (0.0..=1.0).contains(p)),
            "{v:?}"
        );
    }

    #[test]
    fn empty_text_does_not_panic() {
        let corpus = vec!["a b c".to_string()];
        let tok = BpeTokenizer::train(&corpus, 270);
        let mut store = ParamStore::new();
        let mut rng = init::rng(1);
        let gcfg = GptConfig {
            vocab_size: tok.vocab_size(),
            hidden: 16,
            layers: 1,
            heads: 2,
            max_seq: 16,
            ..GptConfig::tiny(ArchKind::NeoX, tok.vocab_size())
        };
        let gpt = GptModel::new(gcfg, &mut store, &mut rng);
        let ge = GptEmbedder {
            model: &gpt,
            store: &store,
            tokenizer: &tok,
            name: "gpt".into(),
        };
        assert_eq!(ge.embed("").len(), 16);
    }
}
