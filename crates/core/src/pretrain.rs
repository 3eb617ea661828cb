//! The pre-training driver: a controlled, end-to-end run producing the
//! train/validation loss curves of Fig. 13 at CPU scale.
//!
//! Training is structured around a resumable [`Trainer`] so runs can
//! checkpoint periodically and restart after a failure with
//! **bit-identical** results — the discipline the paper's Frontier runs
//! (and GPT-NeoX-20B before them) rely on to survive node failures.
//! [`pretrain`] drives an uninterrupted run; [`Trainer::checkpoint`]
//! emits a v2 MGPT checkpoint carrying weights, optimizer moments, the
//! LR-schedule step, and the data-loader RNG cursor; [`pretrain_resume`]
//! picks such a run back up and finishes it.

use crate::recipes::{OptChoice, PretrainConfig, SizeRole};
use matgpt_corpus::{Batch, TokenDataset};
use matgpt_model::{GptConfig, GptModel};
use matgpt_obs::{pids, Counter, Gauge, Registry, Span};
use matgpt_optim::{Adam, AdamConfig, CosineSchedule, Lamb, LrSchedule, Optimizer, OptimizerState};
use matgpt_tensor::checkpoint::{self, CheckpointError};
use matgpt_tensor::precision::with_compute_precision;
use matgpt_tensor::{init, ParamStore, Tape};
use matgpt_tokenizer::{BpeTokenizer, Tokenizer, TokenizerKind, UnigramTokenizer};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Recorded loss curves of one experiment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LossCurves {
    /// Legend label (`size-arch-tokenizer-vocab-optimizer-batch`).
    pub label: String,
    /// (step, train loss).
    pub train: Vec<(usize, f32)>,
    /// (step, validation loss).
    pub val: Vec<(usize, f32)>,
}

impl LossCurves {
    /// Final validation loss (the Fig. 13 comparison point).
    pub fn final_val(&self) -> f32 {
        self.val.last().map(|&(_, l)| l).unwrap_or(f32::NAN)
    }

    /// Final train loss.
    pub fn final_train(&self) -> f32 {
        self.train.last().map(|&(_, l)| l).unwrap_or(f32::NAN)
    }
}

/// A trained model bundle.
pub struct Pretrained {
    /// The model.
    pub model: GptModel,
    /// Its weights.
    pub store: ParamStore,
    /// The tokenizer it was trained with.
    pub tokenizer: Box<dyn Tokenizer>,
    /// Loss curves.
    pub curves: LossCurves,
    /// The configuration.
    pub config: PretrainConfig,
}

/// Train a tokenizer of the requested family on the documents.
pub fn train_tokenizer(
    kind: TokenizerKind,
    vocab: usize,
    documents: &[String],
) -> Box<dyn Tokenizer> {
    match kind {
        TokenizerKind::Hf => Box::new(BpeTokenizer::train(documents, vocab)),
        TokenizerKind::Spm => Box::new(UnigramTokenizer::train(documents, vocab)),
    }
}

/// Run one controlled pre-training experiment on `documents`.
pub fn pretrain(documents: &[String], cfg: &PretrainConfig) -> Pretrained {
    let tokenizer = train_tokenizer(cfg.tokenizer, cfg.vocab, documents);
    pretrain_with_tokenizer(documents, cfg, tokenizer)
}

/// As [`pretrain`], but with a caller-provided tokenizer (so several
/// experiments can share one, as the paper's controlled comparisons do).
pub fn pretrain_with_tokenizer(
    documents: &[String],
    cfg: &PretrainConfig,
    tokenizer: Box<dyn Tokenizer>,
) -> Pretrained {
    let mut trainer = Trainer::with_tokenizer(documents, cfg, tokenizer);
    trainer.run_to_end();
    trainer.finish()
}

/// As [`pretrain`], but writing a checkpoint every `every` steps (and
/// one at the final step). Returns the finished bundle plus the
/// `(steps_completed, bytes)` checkpoints, newest last — the periodic-
/// checkpointing loop a fault-tolerant launcher drives.
///
/// # Examples
///
/// Interrupt a run at its midpoint checkpoint and resume it; the
/// resumed curves are bit-identical to the uninterrupted ones:
///
/// ```
/// use matgpt_core::{pretrain_resume, pretrain_with_checkpoints};
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
///     steps: 4,
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
/// let (full, checkpoints) = pretrain_with_checkpoints(&documents, &cfg, 2);
/// let (mid_step, image) = &checkpoints[0];
/// assert_eq!(*mid_step, 2);
/// let resumed = pretrain_resume(&documents, &cfg, image).unwrap();
/// assert_eq!(resumed.curves.train, full.curves.train);
/// ```
pub fn pretrain_with_checkpoints(
    documents: &[String],
    cfg: &PretrainConfig,
    every: usize,
) -> (Pretrained, Vec<(usize, Vec<u8>)>) {
    let every = every.max(1);
    let mut trainer = Trainer::new(documents, cfg);
    let mut checkpoints = Vec::new();
    while !trainer.is_done() {
        trainer.step_once();
        if trainer.steps_completed().is_multiple_of(every) || trainer.is_done() {
            checkpoints.push((trainer.steps_completed(), trainer.checkpoint()));
        }
    }
    (trainer.finish(), checkpoints)
}

/// Resume a run from a [`Trainer::checkpoint`] image and finish it. The
/// resulting [`LossCurves`] are bit-identical to what the uninterrupted
/// run would have produced.
pub fn pretrain_resume(
    documents: &[String],
    cfg: &PretrainConfig,
    checkpoint_bytes: &[u8],
) -> Result<Pretrained, ResumeError> {
    let mut trainer = Trainer::resume(documents, cfg, checkpoint_bytes)?;
    trainer.run_to_end();
    Ok(trainer.finish())
}

/// Why a checkpoint could not be turned back into a [`Trainer`].
#[derive(Debug)]
pub enum ResumeError {
    /// The container failed to decode (truncated, corrupt, wrong magic).
    Checkpoint(CheckpointError),
    /// A required training-state section is absent (e.g. a bare v1
    /// weights-only checkpoint).
    MissingSection(&'static str),
    /// A section was present but undecodable.
    Corrupt(&'static str),
    /// The checkpoint was written by a differently-configured run.
    ConfigMismatch {
        /// Label of the config the caller is resuming with.
        expected: String,
        /// Label recorded in the checkpoint.
        found: String,
    },
    /// The parameter table does not cover the freshly built model.
    ParamMismatch {
        /// Parameters restored by name+shape matching.
        restored: usize,
        /// Parameters the model defines.
        expected: usize,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Checkpoint(e) => write!(f, "checkpoint undecodable: {e}"),
            ResumeError::MissingSection(s) => write!(f, "checkpoint lacks section `{s}`"),
            ResumeError::Corrupt(s) => write!(f, "checkpoint section `{s}` is corrupt"),
            ResumeError::ConfigMismatch { expected, found } => {
                write!(f, "checkpoint is for `{found}`, not `{expected}`")
            }
            ResumeError::ParamMismatch { restored, expected } => {
                write!(f, "only {restored}/{expected} parameters restored")
            }
        }
    }
}

impl std::error::Error for ResumeError {}

// Section names inside the v2 checkpoint container. `crate::parallel`
// writes and reads the same format through `checkpoint_sections` and
// `decode_resume`.
const SEC_LABEL: &str = "label";
const SEC_OPT: &str = "opt_state";
const SEC_STEP: &str = "lr_step";
const SEC_CURSOR: &str = "data_cursor";
const SEC_CURVES: &str = "curves";

/// Build the (scaled-down) model and parameter store a pre-training
/// config describes, seeded deterministically. Shared between
/// [`Trainer`] and the per-worker replicas of [`crate::parallel`], so a
/// data-parallel worker starts from exactly the single-worker weights.
pub(crate) fn build_model(cfg: &PretrainConfig, vocab: usize) -> (GptModel, ParamStore) {
    let model_cfg = match cfg.size {
        SizeRole::Base => GptConfig::tiny(cfg.arch, vocab),
        SizeRole::Large => GptConfig::small(cfg.arch, vocab),
    };
    // the context window is 4x the training length so few-shot prompts
    // (Fig. 15) fit; rotary positions extrapolate beyond trained offsets
    let model_cfg = GptConfig {
        max_seq: (cfg.seq * 4).max(model_cfg.max_seq),
        ..model_cfg
    };
    let mut rng = init::rng(cfg.seed);
    let mut store = ParamStore::new();
    let model = GptModel::new(model_cfg, &mut store, &mut rng);
    (model, store)
}

/// The optimizer a pre-training config selects (paper Table III recipes).
pub(crate) fn build_optimizer(cfg: &PretrainConfig) -> Box<dyn Optimizer> {
    match cfg.optimizer {
        OptChoice::Adam => Box::new(Adam::new(AdamConfig::paper_adam())),
        OptChoice::Lamb => Box::new(Lamb::new(AdamConfig::paper_lamb())),
    }
}

/// Cached handles into the global metrics [`Registry`]: the trainer's
/// exported gauges/counters, resolved once at construction so the step
/// loop never takes the registry lock. Values go to the process-wide
/// registry on purpose — concurrent trainers report last-write-wins
/// gauges, which is the honest semantics for "current loss / LR".
struct StepTelemetry {
    loss: Gauge,
    lr: Gauge,
    tokens_per_sec: Gauge,
    steps: Counter,
    tokens: Counter,
}

impl StepTelemetry {
    fn new() -> Self {
        let reg = Registry::global();
        Self {
            loss: reg.gauge("trainer_loss", "training loss of the last step's batch"),
            lr: reg.gauge("trainer_lr", "learning rate applied at the last step"),
            tokens_per_sec: reg.gauge(
                "trainer_tokens_per_sec",
                "training throughput over the last step",
            ),
            steps: reg.counter("trainer_steps_total", "optimizer steps completed"),
            tokens: reg.counter("trainer_tokens_total", "training tokens consumed"),
        }
    }
}

/// A resumable pre-training run: the model, optimizer, data loader and
/// recorded curves, advanced one optimizer step at a time.
///
/// The training loop is exactly the one [`pretrain`] always ran; the
/// struct form exists so the loop can be interrupted between any two
/// steps, serialised with [`Trainer::checkpoint`], and continued later
/// with [`Trainer::resume`] — producing bit-identical curves either way.
///
/// # Examples
///
/// Drive the loop one step at a time:
///
/// ```
/// use matgpt_core::{OptChoice, PretrainConfig, SizeRole, Trainer};
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
///         ArchKind::NeoX,
///         TokenizerKind::Hf,
///         300,
///         OptChoice::Adam,
///         SizeRole::Base,
///     )
/// };
///
/// let mut trainer = Trainer::new(&documents, &cfg);
/// while !trainer.is_done() {
///     trainer.step_once();
/// }
/// let done = trainer.finish();
/// assert_eq!(done.curves.train.len(), cfg.steps);
/// ```
pub struct Trainer {
    cfg: PretrainConfig,
    model: GptModel,
    store: ParamStore,
    dataset: TokenDataset,
    tokenizer: Box<dyn Tokenizer>,
    opt: Box<dyn Optimizer>,
    schedule: CosineSchedule,
    step: usize,
    train_curve: Vec<(usize, f32)>,
    val_curve: Vec<(usize, f32)>,
    telemetry: StepTelemetry,
}

impl Trainer {
    /// Build a fresh run, training a tokenizer on `documents` first.
    pub fn new(documents: &[String], cfg: &PretrainConfig) -> Self {
        let tokenizer = train_tokenizer(cfg.tokenizer, cfg.vocab, documents);
        Self::with_tokenizer(documents, cfg, tokenizer)
    }

    /// Build a fresh run around a caller-provided tokenizer.
    pub fn with_tokenizer(
        documents: &[String],
        cfg: &PretrainConfig,
        tokenizer: Box<dyn Tokenizer>,
    ) -> Self {
        let vocab = tokenizer.vocab_size();
        let (model, store) = build_model(cfg, vocab);
        let dataset = TokenDataset::new(documents, tokenizer.as_ref(), 0.08, cfg.seed ^ 0xda7a);
        let opt = build_optimizer(cfg);
        let schedule = CosineSchedule::paper(cfg.lr, cfg.steps);
        Self {
            cfg: cfg.clone(),
            model,
            store,
            dataset,
            tokenizer,
            opt,
            schedule,
            step: 0,
            train_curve: Vec::new(),
            val_curve: Vec::new(),
            telemetry: StepTelemetry::new(),
        }
    }

    /// Optimizer steps completed so far.
    pub fn steps_completed(&self) -> usize {
        self.step
    }

    /// Whether the configured step budget has been exhausted.
    pub fn is_done(&self) -> bool {
        self.step >= self.cfg.steps
    }

    /// Execute one optimizer step (no-op once done). Each phase runs
    /// under a trace span on [`pids::TRAINER`] and the step's headline
    /// numbers land in the global metrics registry — both free while
    /// the global recorder is disabled.
    pub fn step_once(&mut self) {
        if self.is_done() {
            return;
        }
        let started = Instant::now();
        let _step_span = Span::enter(pids::TRAINER, "train", "step");
        let step = self.step;
        let cfg = &self.cfg;
        let eval_every = (cfg.steps / 10).max(1);

        let batch = {
            let _s = Span::enter(pids::TRAINER, "train", "data-load");
            self.dataset.sample_batch(cfg.batch_seqs, cfg.seq)
        };
        self.store.zero_grads();
        let model = &self.model;
        let train_loss = with_compute_precision(&mut self.store, cfg.precision, |store| {
            let mut tape = Tape::new();
            let loss = {
                let _s = Span::enter(pids::TRAINER, "train", "forward");
                model.loss(
                    &mut tape,
                    store,
                    &batch.inputs,
                    &batch.targets,
                    batch.batch,
                    batch.seq,
                )
            };
            let _s = Span::enter(pids::TRAINER, "train", "backward");
            tape.backward(loss);
            tape.accumulate_param_grads(store);
            tape.value(loss).item()
        });
        let lr = self.schedule.lr(step);
        {
            let _s = Span::enter(pids::TRAINER, "train", "optimizer");
            self.store.clip_grad_norm(1.0);
            self.opt.step(&mut self.store, lr);
        }

        if step.is_multiple_of(eval_every) || step + 1 == cfg.steps {
            let _s = Span::enter(pids::TRAINER, "train", "eval");
            self.train_curve.push((step, train_loss));
            self.val_curve.push((
                step,
                validation_loss(&self.model, &self.store, &self.dataset, cfg.seq),
            ));
        }
        self.step += 1;

        let tokens = (cfg.batch_seqs * cfg.seq) as u64;
        self.telemetry.loss.set(train_loss as f64);
        self.telemetry.lr.set(lr as f64);
        self.telemetry.steps.inc();
        self.telemetry.tokens.add(tokens);
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            self.telemetry.tokens_per_sec.set(tokens as f64 / elapsed);
        }
    }

    /// Run the remaining steps.
    pub fn run_to_end(&mut self) {
        while !self.is_done() {
            self.step_once();
        }
    }

    /// Serialise the complete training state as a v2 MGPT checkpoint:
    /// weights in the parameter table, plus sections for the config
    /// label, optimizer moments, LR-schedule step, data-loader RNG
    /// cursor and the curves recorded so far.
    pub fn checkpoint(&self) -> Vec<u8> {
        let _span = Span::enter(pids::TRAINER, "train", "checkpoint");
        let sections = checkpoint_sections(
            &self.cfg,
            &self.opt.export_state(),
            self.step,
            self.dataset.cursor(),
            &self.train_curve,
            &self.val_curve,
        );
        checkpoint::save_with_sections(&self.store, &sections).to_vec()
    }

    /// Rebuild a mid-run trainer from a [`Trainer::checkpoint`] image,
    /// retraining the tokenizer on `documents`.
    pub fn resume(
        documents: &[String],
        cfg: &PretrainConfig,
        bytes: &[u8],
    ) -> Result<Self, ResumeError> {
        let tokenizer = train_tokenizer(cfg.tokenizer, cfg.vocab, documents);
        Self::resume_with_tokenizer(documents, cfg, tokenizer, bytes)
    }

    /// As [`Trainer::resume`] with a caller-provided tokenizer (which
    /// must be the one the checkpointed run trained with).
    pub fn resume_with_tokenizer(
        documents: &[String],
        cfg: &PretrainConfig,
        tokenizer: Box<dyn Tokenizer>,
        bytes: &[u8],
    ) -> Result<Self, ResumeError> {
        let state = decode_resume(cfg, bytes)?;
        let mut t = Self::with_tokenizer(documents, cfg, tokenizer);
        state.restore_weights(&mut t.store)?;
        t.opt.import_state(state.opt_state);
        t.step = state.step;
        t.dataset.seek(state.cursor);
        t.train_curve = state.train_curve;
        t.val_curve = state.val_curve;
        Ok(t)
    }

    /// Consume the trainer into the trained bundle.
    pub fn finish(self) -> Pretrained {
        let curves = LossCurves {
            label: self.cfg.label(),
            train: self.train_curve,
            val: self.val_curve,
        };
        Pretrained {
            model: self.model,
            store: self.store,
            tokenizer: self.tokenizer,
            curves,
            config: self.cfg,
        }
    }
}

/// The training-state sections of a v2 checkpoint (everything but the
/// weights): config label, optimizer moments, LR-schedule step,
/// data-loader cursor and the curves so far.
pub(crate) fn checkpoint_sections(
    cfg: &PretrainConfig,
    opt: &OptimizerState,
    step: usize,
    cursor: u128,
    train_curve: &[(usize, f32)],
    val_curve: &[(usize, f32)],
) -> Vec<(String, Vec<u8>)> {
    vec![
        (SEC_LABEL.to_string(), cfg.label().into_bytes()),
        (SEC_OPT.to_string(), opt.to_bytes()),
        (SEC_STEP.to_string(), (step as u64).to_le_bytes().to_vec()),
        (SEC_CURSOR.to_string(), cursor.to_le_bytes().to_vec()),
        (
            SEC_CURVES.to_string(),
            encode_curves(train_curve, val_curve),
        ),
    ]
}

/// The training state a v2 checkpoint carries, decoded and checked
/// against the config it is resumed under.
pub(crate) struct ResumeState {
    pub(crate) weights: ParamStore,
    pub(crate) opt_state: OptimizerState,
    pub(crate) step: usize,
    pub(crate) cursor: u128,
    pub(crate) train_curve: Vec<(usize, f32)>,
    pub(crate) val_curve: Vec<(usize, f32)>,
}

impl ResumeState {
    /// Copy the checkpointed weights into a freshly built `store`;
    /// every tensor must be covered.
    pub(crate) fn restore_weights(&self, store: &mut ParamStore) -> Result<(), ResumeError> {
        let restored = checkpoint::restore_into(store, &self.weights);
        if restored != store.len() {
            return Err(ResumeError::ParamMismatch {
                restored,
                expected: store.len(),
            });
        }
        Ok(())
    }
}

/// Decode a [`Trainer::checkpoint`] image (or a data-parallel one,
/// which has the same layout) for a resume under `cfg`.
pub(crate) fn decode_resume(
    cfg: &PretrainConfig,
    bytes: &[u8],
) -> Result<ResumeState, ResumeError> {
    let ck = checkpoint::load_full(bytes).map_err(ResumeError::Checkpoint)?;
    let label = ck
        .section(SEC_LABEL)
        .ok_or(ResumeError::MissingSection(SEC_LABEL))?;
    let expected = cfg.label();
    if label != expected.as_bytes() {
        return Err(ResumeError::ConfigMismatch {
            expected,
            found: String::from_utf8_lossy(label).into_owned(),
        });
    }
    let opt_state = OptimizerState::from_bytes(
        ck.section(SEC_OPT)
            .ok_or(ResumeError::MissingSection(SEC_OPT))?,
    )
    .ok_or(ResumeError::Corrupt(SEC_OPT))?;
    let step = u64::from_le_bytes(
        ck.section(SEC_STEP)
            .ok_or(ResumeError::MissingSection(SEC_STEP))?
            .try_into()
            .map_err(|_| ResumeError::Corrupt(SEC_STEP))?,
    ) as usize;
    let cursor = u128::from_le_bytes(
        ck.section(SEC_CURSOR)
            .ok_or(ResumeError::MissingSection(SEC_CURSOR))?
            .try_into()
            .map_err(|_| ResumeError::Corrupt(SEC_CURSOR))?,
    );
    let (train_curve, val_curve) = decode_curves(
        ck.section(SEC_CURVES)
            .ok_or(ResumeError::MissingSection(SEC_CURVES))?,
    )
    .ok_or(ResumeError::Corrupt(SEC_CURVES))?;
    Ok(ResumeState {
        weights: ck.store,
        opt_state,
        step,
        cursor,
        train_curve,
        val_curve,
    })
}

/// Binary-encode curves: `n u32 | (step u64, loss-bits u32)…` twice.
/// f32 values travel as raw bits so restart reproduces them exactly.
fn encode_curves(train: &[(usize, f32)], val: &[(usize, f32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 12 * (train.len() + val.len()));
    for curve in [train, val] {
        out.extend_from_slice(&(curve.len() as u32).to_le_bytes());
        for &(step, loss) in curve {
            out.extend_from_slice(&(step as u64).to_le_bytes());
            out.extend_from_slice(&loss.to_bits().to_le_bytes());
        }
    }
    out
}

#[allow(clippy::type_complexity)]
fn decode_curves(mut bytes: &[u8]) -> Option<(Vec<(usize, f32)>, Vec<(usize, f32)>)> {
    fn take<const N: usize>(b: &mut &[u8]) -> Option<[u8; N]> {
        if b.len() < N {
            return None;
        }
        let (head, rest) = b.split_at(N);
        *b = rest;
        head.try_into().ok()
    }
    let mut curves = Vec::with_capacity(2);
    for _ in 0..2 {
        let n = u32::from_le_bytes(take::<4>(&mut bytes)?) as usize;
        let mut curve = Vec::with_capacity(n.min(bytes.len() / 12));
        for _ in 0..n {
            let step = u64::from_le_bytes(take::<8>(&mut bytes)?) as usize;
            let loss = f32::from_bits(u32::from_le_bytes(take::<4>(&mut bytes)?));
            curve.push((step, loss));
        }
        curves.push(curve);
    }
    let val = curves.pop()?;
    let train = curves.pop()?;
    Some((train, val))
}

/// Mean validation loss over (up to) 8 deterministic batches.
pub fn validation_loss(
    model: &GptModel,
    store: &ParamStore,
    dataset: &TokenDataset,
    seq: usize,
) -> f32 {
    validation_loss_on(model, store, &dataset.val_batches(2, seq))
}

/// As [`validation_loss`], on pre-sampled validation batches. The
/// data-parallel executor evaluates on worker replicas that have no
/// dataset of their own, so the batches travel to them precomputed —
/// evaluating here keeps the result bit-identical to [`validation_loss`].
pub fn validation_loss_on(model: &GptModel, store: &ParamStore, batches: &[Batch]) -> f32 {
    let take = batches.len().min(8);
    if take == 0 {
        return f32::NAN;
    }
    let mut total = 0.0f32;
    for b in batches.iter().take(take) {
        let mut tape = Tape::new();
        let loss = model.loss(&mut tape, store, &b.inputs, &b.targets, b.batch, b.seq);
        total += tape.value(loss).item();
    }
    total / take as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgpt_corpus::{build_corpus, CorpusConfig};
    use matgpt_model::ArchKind;

    fn docs() -> Vec<String> {
        build_corpus(&CorpusConfig {
            n_materials: 50,
            total_docs: 150,
            offtopic_fraction: 0.2,
            seed: 5,
        })
        .documents
    }

    fn quick(arch: ArchKind, opt: OptChoice) -> PretrainConfig {
        PretrainConfig {
            steps: 30,
            batch_seqs: if opt == OptChoice::Lamb { 8 } else { 2 },
            ..PretrainConfig::scaled(arch, TokenizerKind::Hf, 400, opt, SizeRole::Base)
        }
    }

    #[test]
    fn pretraining_reduces_loss() {
        let documents = docs();
        let p = pretrain(&documents, &quick(ArchKind::Llama, OptChoice::Adam));
        let first = p.curves.train.first().unwrap().1;
        let last = p.curves.final_train();
        assert!(
            last < first * 0.8,
            "training should reduce loss: {first} -> {last}"
        );
        assert!(p.curves.final_val() < first, "val should also improve");
    }

    #[test]
    fn both_architectures_and_optimizers_train() {
        let documents = docs();
        for arch in [ArchKind::NeoX, ArchKind::Llama] {
            for opt in [OptChoice::Adam, OptChoice::Lamb] {
                let mut cfg = quick(arch, opt);
                cfg.steps = 15;
                let p = pretrain(&documents, &cfg);
                assert!(p.curves.final_train().is_finite(), "{arch} {opt}");
                assert!(
                    p.curves.final_train() < p.curves.train[0].1,
                    "{arch} {opt} did not improve"
                );
            }
        }
    }

    #[test]
    fn label_matches_paper_format() {
        let cfg = quick(ArchKind::Llama, OptChoice::Lamb);
        assert_eq!(cfg.label(), "1.7B-LLaMA-HF-400-LAMB-4M");
    }

    #[test]
    fn runs_are_deterministic() {
        let documents = docs();
        let cfg = quick(ArchKind::NeoX, OptChoice::Adam);
        let a = pretrain(&documents, &cfg);
        let b = pretrain(&documents, &cfg);
        assert_eq!(a.curves.train, b.curves.train);
        assert_eq!(a.curves.val, b.curves.val);
    }

    #[test]
    fn interrupted_resume_is_bit_identical() {
        let documents = docs();
        let mut cfg = quick(ArchKind::Llama, OptChoice::Adam);
        cfg.steps = 12;
        let baseline = pretrain(&documents, &cfg);

        // run 5 steps, checkpoint, "crash", resume from bytes
        let mut trainer = Trainer::new(&documents, &cfg);
        for _ in 0..5 {
            trainer.step_once();
        }
        let bytes = trainer.checkpoint();
        drop(trainer);
        let resumed = pretrain_resume(&documents, &cfg, &bytes).expect("resume");

        // bit-identical: compare exact f32 values, curves and weights
        assert_eq!(baseline.curves.train, resumed.curves.train);
        assert_eq!(baseline.curves.val, resumed.curves.val);
        for (a, b) in baseline.store.ids().zip(resumed.store.ids()) {
            let (ta, tb) = (baseline.store.value(a), resumed.store.value(b));
            let bits_a: Vec<u32> = ta.data().iter().map(|v| v.to_bits()).collect();
            let bits_b: Vec<u32> = tb.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "weights diverged after resume");
        }
    }

    #[test]
    fn steps_emit_trainer_spans_and_metrics() {
        let documents = docs();
        let mut cfg = quick(ArchKind::Llama, OptChoice::Adam);
        cfg.steps = 2;
        let rec = matgpt_obs::Recorder::global();
        rec.enable();
        let mut trainer = Trainer::new(&documents, &cfg);
        trainer.run_to_end();
        let _ = trainer.checkpoint();
        matgpt_obs::flush_thread();

        let events = rec.snapshot();
        let mine: Vec<_> = events.iter().filter(|e| e.pid == pids::TRAINER).collect();
        for phase in [
            "step",
            "data-load",
            "forward",
            "backward",
            "optimizer",
            "checkpoint",
        ] {
            assert!(
                mine.iter().any(|e| e.name == phase),
                "missing trainer span `{phase}`"
            );
        }
        assert!(mine.iter().filter(|e| e.name == "step").count() >= 2);

        let names = Registry::global().names();
        for metric in [
            "trainer_loss",
            "trainer_lr",
            "trainer_tokens_per_sec",
            "trainer_steps_total",
            "trainer_tokens_total",
        ] {
            assert!(
                names.iter().any(|(n, _)| n == metric),
                "missing trainer metric `{metric}`"
            );
        }
        assert!(Registry::global().counter("trainer_steps_total", "").get() >= 2);
    }

    #[test]
    fn resume_rejects_bad_inputs() {
        let documents = docs();
        let mut cfg = quick(ArchKind::Llama, OptChoice::Adam);
        cfg.steps = 6;
        let mut trainer = Trainer::new(&documents, &cfg);
        trainer.step_once();
        let bytes = trainer.checkpoint();

        // garbage container
        assert!(matches!(
            pretrain_resume(&documents, &cfg, b"not a checkpoint"),
            Err(ResumeError::Checkpoint(_))
        ));
        // truncated container
        assert!(pretrain_resume(&documents, &cfg, &bytes[..bytes.len() / 2]).is_err());
        // config mismatch
        let other = quick(ArchKind::NeoX, OptChoice::Adam);
        assert!(matches!(
            pretrain_resume(&documents, &other, &bytes),
            Err(ResumeError::ConfigMismatch { .. })
        ));
        // a weights-only checkpoint lacks training state
        let weights_only = checkpoint::save(&trainer.store).to_vec();
        assert!(matches!(
            pretrain_resume(&documents, &cfg, &weights_only),
            Err(ResumeError::MissingSection(_))
        ));
    }
}
