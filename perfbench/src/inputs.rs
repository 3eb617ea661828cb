//! Seeded workload inputs: the corpus and training recipe, the serving
//! model, and the request streams. Everything here is a pure function
//! of the workload seed, so one seed always replays the same inputs.

use matgpt_core::{OptChoice, PretrainConfig, SizeRole};
use matgpt_corpus::CorpusConfig;
use matgpt_model::{ArchKind, GptConfig, GptModel};
use matgpt_tensor::{init, ParamStore};
use matgpt_tokenizer::TokenizerKind;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Full size for recorded results, or a tiny size for the benchmark's
/// own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workloads are defined at.
    Full,
    /// Shapes small enough for a unit test.
    Smoke,
}

/// Derive an independent sub-seed for one use of the workload seed.
pub fn subseed(seed: u64, salt: u64) -> u64 {
    ChaCha8Rng::seed_from_u64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)).gen()
}

/// The synthetic materials corpus the training workloads read.
pub fn corpus_config(seed: u64, scale: Scale) -> CorpusConfig {
    let seed = subseed(seed, 1);
    match scale {
        Scale::Full => CorpusConfig {
            seed,
            ..CorpusConfig::default()
        },
        Scale::Smoke => CorpusConfig {
            n_materials: 60,
            total_docs: 120,
            offtopic_fraction: 0.2,
            seed,
        },
    }
}

/// Steps the training schedule spans. The timed loop runs only the
/// first part of it, so the cosine schedule and the `Trainer`'s eval
/// cadence (every `steps / 10` steps) are the same on every host.
pub const TRAIN_HORIZON: usize = 100;

/// Steps of the timed `train_dp2` run, whatever `--seconds` is, so its
/// cosine schedule and eval cadence (every `steps / 10` = 3 steps) are
/// fixed: p50 and p90 of its step times each sit inside one kind of
/// step.
pub const DP_STEPS: usize = 30;

/// The training recipe: `SizeRole::Large` (h 128, 4 layers), BPE with a
/// 2000-token vocabulary budget, LAMB, 16 sequences of 64 tokens.
pub fn train_config(arch: ArchKind, seed: u64, steps: usize, scale: Scale) -> PretrainConfig {
    let base = PretrainConfig::scaled(
        arch,
        TokenizerKind::Hf,
        2000,
        OptChoice::Lamb,
        SizeRole::Large,
    );
    let cfg = PretrainConfig {
        batch_seqs: 16,
        seq: 64,
        steps,
        seed: subseed(seed, 2),
        ..base
    };
    match scale {
        Scale::Full => cfg,
        Scale::Smoke => PretrainConfig {
            vocab: 300,
            batch_seqs: 4,
            seq: 16,
            size: SizeRole::Base,
            ..cfg
        },
    }
}

/// The model `Trainer` and `DataParallel` build for `cfg` (the same
/// construction, from public pieces), so a traced replay of a training
/// step starts from exactly the same weights.
pub fn training_model(cfg: &PretrainConfig, vocab: usize) -> (GptModel, ParamStore) {
    let model_cfg = match cfg.size {
        SizeRole::Base => GptConfig::tiny(cfg.arch, vocab),
        SizeRole::Large => GptConfig::small(cfg.arch, vocab),
    };
    let model_cfg = GptConfig {
        max_seq: (cfg.seq * 4).max(model_cfg.max_seq),
        ..model_cfg
    };
    let mut store = ParamStore::new();
    let model = GptModel::new(model_cfg, &mut store, &mut init::rng(cfg.seed));
    (model, store)
}

/// Shapes of the serving workloads.
#[derive(Clone, Debug)]
pub struct ServeShape {
    /// The served model.
    pub model: GptConfig,
    /// Tokens in each of the four chat system prompts.
    pub system_len: usize,
    /// Chat user-turn length range (inclusive).
    pub user_len: (usize, usize),
    /// Chat output length range (inclusive).
    pub chat_out: (usize, usize),
    /// Decode prompt length range (inclusive).
    pub decode_prompt: (usize, usize),
    /// Decode output length range (inclusive).
    pub decode_out: (usize, usize),
}

impl ServeShape {
    /// The shapes for `scale`. At full size the model is a LLaMA with
    /// h 256, 6 layers, vocab 4096 and a 1024-token window: ~27 MB of
    /// f32 weights, more than L2 and well inside L3.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                model: GptConfig {
                    hidden: 256,
                    layers: 6,
                    heads: 8,
                    max_seq: 1024,
                    ..GptConfig::small(ArchKind::Llama, 4096)
                },
                system_len: 192,
                user_len: (16, 48),
                chat_out: (16, 32),
                decode_prompt: (8, 32),
                decode_out: (64, 192),
            },
            Scale::Smoke => Self {
                model: GptConfig {
                    hidden: 32,
                    layers: 1,
                    heads: 4,
                    max_seq: 128,
                    ..GptConfig::tiny(ArchKind::Llama, 256)
                },
                system_len: 24,
                user_len: (2, 6),
                chat_out: (2, 4),
                decode_prompt: (2, 6),
                decode_out: (4, 12),
            },
        }
    }

    /// Build the served model with seeded weights.
    pub fn build(&self, seed: u64) -> (GptModel, ParamStore) {
        let mut store = ParamStore::new();
        let model = GptModel::new(
            self.model.clone(),
            &mut store,
            &mut init::rng(subseed(seed, 3)),
        );
        (model, store)
    }
}

/// One generation request of a serving workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Prompt token ids.
    pub prompt: Vec<u32>,
    /// Tokens to generate (there is no stop token, so exactly this many).
    pub max_new: usize,
    /// Greedy (temperature 0) or sampled (temperature 0.8).
    pub greedy: bool,
    /// The request's sampling seed.
    pub seed: u64,
}

fn tokens(rng: &mut ChaCha8Rng, n: usize, vocab: usize) -> Vec<u32> {
    (0..n).map(|_| rng.gen_range(1..vocab as u32)).collect()
}

/// Chat traffic: each prompt is one of four system prompts followed by
/// a random user turn; half the requests are greedy. An endless seeded
/// stream; the client takes the next request whenever one of its slots
/// frees up.
pub struct ChatTraffic {
    rng: ChaCha8Rng,
    systems: Vec<Vec<u32>>,
    shape: ServeShape,
}

impl ChatTraffic {
    /// The stream for `seed`.
    pub fn new(seed: u64, shape: &ServeShape) -> Self {
        let (rng, systems) = chat_systems(seed, shape);
        Self {
            rng,
            systems,
            shape: shape.clone(),
        }
    }
}

impl Iterator for ChatTraffic {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let s = &self.shape;
        let rng = &mut self.rng;
        let mut prompt = self.systems[rng.gen_range(0..self.systems.len())].clone();
        let user = rng.gen_range(s.user_len.0..=s.user_len.1);
        prompt.extend(tokens(rng, user, s.model.vocab_size));
        Some(Request {
            prompt,
            max_new: rng.gen_range(s.chat_out.0..=s.chat_out.1),
            greedy: rng.gen_bool(0.5),
            seed: rng.gen(),
        })
    }
}

/// The chat stream's generator and its four system prompts.
fn chat_systems(seed: u64, shape: &ServeShape) -> (ChaCha8Rng, Vec<Vec<u32>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(subseed(seed, 4));
    let systems = (0..4)
        .map(|_| tokens(&mut rng, shape.system_len, shape.model.vocab_size))
        .collect();
    (rng, systems)
}

/// Requests that bring a chat engine to its steady state before the
/// timed window: each system prompt twice, with the longest user turn
/// and output, all at once. The prefix cache then holds every system
/// prompt, and a full batch of the largest requests has touched the KV
/// pages, as on a server that has been running.
pub fn chat_warmup(seed: u64, shape: &ServeShape) -> Vec<Request> {
    let (mut rng, systems) = chat_systems(seed, shape);
    let mut rng = ChaCha8Rng::seed_from_u64(rng.gen::<u64>() ^ 0x3a11);
    systems
        .iter()
        .chain(&systems)
        .map(|system| {
            let mut prompt = system.clone();
            prompt.extend(tokens(&mut rng, shape.user_len.1, shape.model.vocab_size));
            Request {
                prompt,
                max_new: shape.chat_out.1,
                greedy: true,
                seed: 0,
            }
        })
        .collect()
}

/// Closed-loop decode traffic: short unshared prompts, long outputs,
/// three quarters greedy. An endless seeded stream; the client takes
/// the next request whenever one of its slots frees up.
pub struct DecodeTraffic {
    rng: ChaCha8Rng,
    shape: ServeShape,
}

impl DecodeTraffic {
    /// The stream for `seed`.
    pub fn new(seed: u64, shape: &ServeShape) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(subseed(seed, 5)),
            shape: shape.clone(),
        }
    }
}

impl Iterator for DecodeTraffic {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let s = &self.shape;
        let len = self.rng.gen_range(s.decode_prompt.0..=s.decode_prompt.1);
        let prompt = tokens(&mut self.rng, len, s.model.vocab_size);
        Some(Request {
            prompt,
            max_new: self.rng.gen_range(s.decode_out.0..=s.decode_out.1),
            greedy: self.rng.gen_bool(0.75),
            seed: self.rng.gen(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgpt_corpus::{build_corpus, TokenDataset};

    #[test]
    fn same_seed_same_requests() {
        let shape = ServeShape::new(Scale::Full);
        let chat = |seed| ChatTraffic::new(seed, &shape).take(20).collect::<Vec<_>>();
        assert_eq!(chat(7), chat(7));
        assert_ne!(chat(7), chat(8));
        let decode = |seed| {
            DecodeTraffic::new(seed, &shape)
                .take(20)
                .collect::<Vec<_>>()
        };
        assert_eq!(decode(7), decode(7));
        assert_ne!(decode(7), decode(8));
        assert_eq!(chat_warmup(7, &shape), chat_warmup(7, &shape));
    }

    #[test]
    fn requests_have_the_specified_shape() {
        let shape = ServeShape::new(Scale::Full);
        let chat: Vec<_> = ChatTraffic::new(3, &shape).take(400).collect();
        // four shared system prompts of 192 tokens
        let mut systems: Vec<&[u32]> = chat.iter().map(|r| &r.prompt[..192]).collect();
        systems.sort();
        systems.dedup();
        assert_eq!(systems.len(), 4);
        for r in &chat {
            assert!((192 + 16..=192 + 48).contains(&r.prompt.len()));
            assert!((16..=32).contains(&r.max_new));
            assert!(r.prompt.iter().all(|&t| t > 0 && t < 4096));
        }
        let greedy = chat.iter().filter(|r| r.greedy).count() as f64 / 400.0;
        assert!((0.4..0.6).contains(&greedy), "greedy share {greedy}");
        let decode: Vec<_> = DecodeTraffic::new(3, &shape).take(400).collect();
        for r in &decode {
            assert!((8..=32).contains(&r.prompt.len()));
            assert!((64..=192).contains(&r.max_new));
        }
        let greedy = decode.iter().filter(|r| r.greedy).count() as f64 / 400.0;
        assert!((0.68..0.82).contains(&greedy), "greedy share {greedy}");
    }

    #[test]
    fn same_seed_same_batch_sequence() {
        let docs = build_corpus(&corpus_config(11, Scale::Smoke)).documents;
        let cfg = train_config(ArchKind::NeoX, 11, 10, Scale::Smoke);
        let tok = matgpt_core::train_tokenizer(cfg.tokenizer, cfg.vocab, &docs);
        let mut a = TokenDataset::new(&docs, tok.as_ref(), 0.08, cfg.seed);
        let mut b = TokenDataset::new(&docs, tok.as_ref(), 0.08, cfg.seed);
        for _ in 0..5 {
            let (x, y) = (a.sample_batch(4, 16), b.sample_batch(4, 16));
            assert_eq!((x.inputs, x.targets), (y.inputs, y.targets));
        }
        let other = build_corpus(&corpus_config(12, Scale::Smoke)).documents;
        assert_ne!(docs, other);
        assert_ne!(
            cfg.seed,
            train_config(ArchKind::NeoX, 12, 10, Scale::Smoke).seed
        );
    }
}
