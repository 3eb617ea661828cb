//! The zero/few-shot evaluation harness — the lm-evaluation-harness
//! substitute.
//!
//! Each choice is scored as a continuation of the prompt by total
//! log-likelihood normalised by token count (acc_norm-style); the argmax
//! choice is the prediction. Few-shot prepends `k` solved examples from a
//! disjoint pool.

use crate::tasks::{QaItem, TaskKind};
use matgpt_model::GptModel;
use matgpt_tensor::ParamStore;
use matgpt_tokenizer::Tokenizer;
use serde::{Deserialize, Serialize};

/// Accuracy with its standard error.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TaskScore {
    /// Fraction correct.
    pub accuracy: f64,
    /// Binomial standard error.
    pub std_err: f64,
    /// Number of items evaluated.
    pub n: usize,
}

/// First index where the tokenization of the full text diverges from the
/// tokenization of the prompt alone. Scoring must start there: a prompt
/// ending in whitespace tokenizes differently once the continuation is
/// appended (the space glues to the next word), so `prompt.len()` would
/// mis-align the span.
pub fn continuation_start(prompt_tokens: &[u32], full_tokens: &[u32]) -> usize {
    let lcp = prompt_tokens
        .iter()
        .zip(full_tokens.iter())
        .take_while(|(a, b)| a == b)
        .count();
    lcp.clamp(1, full_tokens.len().saturating_sub(1).max(1))
}

/// Mean log-probability of `tokens[start..]` given the prefix: the
/// acc_norm-style score. [`GptModel::score_span`] keeps only the last
/// `max_seq` tokens, so it scores at most `max_seq - 1` positions, and
/// the count divides by the same number.
pub(crate) fn mean_span_logprob(
    model: &GptModel,
    store: &ParamStore,
    tokens: &[u32],
    start: usize,
) -> f64 {
    let n = (tokens.len() - start).min(model.cfg.max_seq - 1).max(1);
    model.score_span(store, tokens, start) / n as f64
}

/// Score one item: returns the predicted choice index.
pub fn predict(
    model: &GptModel,
    store: &ParamStore,
    tok: &dyn Tokenizer,
    prefix: &str,
    item: &QaItem,
) -> usize {
    let mut best = (f64::NEG_INFINITY, 0usize);
    for (ci, choice) in item.choices.iter().enumerate() {
        let prompt_text = format!("{prefix}{}", item.prompt);
        let prompt_tokens = tok.encode(&prompt_text);
        let full_tokens = tok.encode(&format!("{prompt_text}{choice}"));
        let start = continuation_start(&prompt_tokens, &full_tokens);
        if full_tokens.len() < 2 {
            continue;
        }
        let lp = mean_span_logprob(model, store, &full_tokens, start);
        if lp > best.0 {
            best = (lp, ci);
        }
    }
    best.1
}

/// Evaluate a set of items with `k` few-shot examples drawn from `pool`
/// (use an empty pool for zero-shot).
pub fn evaluate(
    model: &GptModel,
    store: &ParamStore,
    tok: &dyn Tokenizer,
    items: &[QaItem],
    pool: &[QaItem],
    k: usize,
) -> TaskScore {
    assert!(k == 0 || pool.len() >= k, "few-shot pool too small");
    let prefix: String = pool
        .iter()
        .take(k)
        .map(|ex| format!("{} ", ex.solved()))
        .collect();
    let correct = items
        .iter()
        .filter(|item| predict(model, store, tok, &prefix, item) == item.answer)
        .count();
    let n = items.len().max(1);
    let acc = correct as f64 / n as f64;
    TaskScore {
        accuracy: acc,
        std_err: (acc * (1.0 - acc) / n as f64).sqrt(),
        n,
    }
}

/// A full benchmark sweep result for one model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepResult {
    /// Model label (e.g. "LLaMA-1.7B-HF-52K").
    pub model: String,
    /// Shots used.
    pub shots: usize,
    /// Per-task scores in `TaskKind::all()` order.
    pub scores: Vec<(String, TaskScore)>,
}

/// Run all nine families.
#[allow(clippy::too_many_arguments)]
pub fn sweep(
    model: &GptModel,
    store: &ParamStore,
    tok: &dyn Tokenizer,
    label: &str,
    materials: &[matgpt_corpus::Material],
    items_per_task: usize,
    shots: usize,
    seed: u64,
) -> SweepResult {
    let mut scores = Vec::new();
    for kind in TaskKind::all() {
        let items = crate::tasks::generate(kind, materials, items_per_task, seed);
        let pool = crate::tasks::generate(kind, materials, shots.max(1), seed ^ 0xfeed);
        let s = evaluate(model, store, tok, &items, &pool, shots);
        scores.push((kind.label().to_string(), s));
    }
    SweepResult {
        model: label.to_string(),
        shots,
        scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{generate, TaskKind};
    use matgpt_corpus::MaterialGenerator;
    use matgpt_model::{ArchKind, GptConfig};
    use matgpt_tensor::init;
    use matgpt_tokenizer::BpeTokenizer;

    fn tiny_model(vocab: usize) -> (GptModel, ParamStore) {
        let mut store = ParamStore::new();
        let mut rng = init::rng(3);
        let cfg = GptConfig {
            vocab_size: vocab,
            hidden: 16,
            layers: 1,
            heads: 2,
            max_seq: 96,
            ..GptConfig::tiny(ArchKind::NeoX, vocab)
        };
        (GptModel::new(cfg, &mut store, &mut rng), store)
    }

    #[test]
    fn predict_returns_valid_index() {
        let mats = MaterialGenerator::new(1).generate(20);
        let tok = BpeTokenizer::train(
            &mats.iter().map(|m| m.formula.clone()).collect::<Vec<_>>(),
            280,
        );
        let (model, store) = tiny_model(tok.vocab_size());
        let items = generate(TaskKind::SciQ, &mats, 5, 1);
        for item in &items {
            let p = predict(&model, &store, &tok, "", item);
            assert!(p < item.choices.len());
        }
    }

    #[test]
    fn untrained_model_is_near_chance() {
        let mats = MaterialGenerator::new(2).generate(30);
        let tok = BpeTokenizer::train(
            &mats.iter().map(|m| m.formula.clone()).collect::<Vec<_>>(),
            280,
        );
        let (model, store) = tiny_model(tok.vocab_size());
        let items = generate(TaskKind::Piqa, &mats, 30, 2);
        let s = evaluate(&model, &store, &tok, &items, &[], 0);
        // 2 choices: anywhere between 0.2 and 0.8 is "near chance" at n=30
        assert!(
            (0.2..=0.8).contains(&s.accuracy),
            "untrained acc {}",
            s.accuracy
        );
    }

    #[test]
    fn few_shot_prefix_is_built_from_pool() {
        let mats = MaterialGenerator::new(3).generate(20);
        let tok = BpeTokenizer::train(
            &mats.iter().map(|m| m.formula.clone()).collect::<Vec<_>>(),
            280,
        );
        let (model, store) = tiny_model(tok.vocab_size());
        let items = generate(TaskKind::SciQ, &mats, 3, 3);
        let pool = generate(TaskKind::SciQ, &mats, 5, 99);
        // must not panic with k = 3; k > pool is an assert
        let s = evaluate(&model, &store, &tok, &items, &pool, 3);
        assert_eq!(s.n, 3);
    }

    #[test]
    fn continuation_start_handles_trailing_space_retokenization() {
        // identical prefixes
        assert_eq!(continuation_start(&[1, 2, 3], &[1, 2, 3, 4, 5]), 3);
        // prompt's trailing token differs once the continuation merges in
        assert_eq!(continuation_start(&[1, 2, 9], &[1, 2, 7, 8]), 2);
        // degenerate cases stay within bounds
        assert_eq!(continuation_start(&[5], &[9, 9]), 1);
        assert_eq!(continuation_start(&[], &[3]), 1);
    }

    #[test]
    fn std_err_is_zero_at_extremes() {
        let s = TaskScore {
            accuracy: 1.0,
            std_err: 0.0,
            n: 10,
        };
        assert_eq!(s.std_err, 0.0);
        // and the formula agrees
        let acc: f64 = 1.0;
        assert_eq!((acc * (1.0 - acc) / 10.0f64).sqrt(), 0.0);
    }
}
