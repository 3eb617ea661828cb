//! The training workloads (`train`, `train_dp2`) and their traced
//! replays.

use crate::inputs::{corpus_config, train_config, training_model, Scale, DP_STEPS, TRAIN_HORIZON};
use crate::stats::{median, percentile};
use crate::{Outcome, Tracer};
use matgpt_core::{
    train_tokenizer, validation_loss, DataParallel, ParallelConfig, ParallelOutcome, Trainer,
};
use matgpt_corpus::{build_corpus, TokenDataset};
use matgpt_frontier_sim::collectives::{wire_bytes, Collective};
use matgpt_model::{count, ArchKind};
use matgpt_obs::Registry;
use matgpt_optim::{AdamConfig, CosineSchedule, Lamb, LrSchedule, Optimizer};
use matgpt_tensor::Tape;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run and the median reported.
pub const SETUP_REPEATS: usize = 5;
/// Steps the timed `train` loop runs at least, after its warm-up step.
const MIN_TIMED_STEPS: usize = 10;
/// `train_loss` is the loss of this step (0-based), reached on every run.
const LOSS_STEP: usize = 10;
/// A training step meets its objective within this wall time.
pub const STEP_LIMIT_MS: f64 = 1500.0;
/// Steps the traced replay of `train` runs.
const TRACE_STEPS: usize = 8;
/// Steps the traced `train_dp2` run executes.
const TRACE_DP_STEPS: usize = 6;
/// The `Trainer` splits a validation tail of this share off the token
/// stream, with this seed salt; the traced replay of `train` rebuilds
/// its dataset with them, and its bit-identical losses check the copy.
const VAL_FRACTION: f64 = 0.08;
const DATA_SEED_SALT: u64 = 0xda7a;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Step-latency metrics shared by both training workloads: the unit of
/// work is one optimizer step.
fn step_metrics(
    out: &mut Outcome,
    setup_s: &[f64],
    tokens_per_step: usize,
    step_ms: &[f64],
    tok_s: f64,
) {
    let met = step_ms.iter().filter(|&&t| t <= STEP_LIMIT_MS).count();
    out.metric("setup_s", median(setup_s), "s");
    out.metric("tok_s", tok_s, "tok/s");
    out.metric("latency_ms_p50", percentile(step_ms, 0.5), "ms");
    out.metric("latency_ms_p90", percentile(step_ms, 0.9), "ms");
    out.metric(
        "slo_attain",
        met as f64 / step_ms.len().max(1) as f64,
        "frac",
    );
    out.line(format!(
        "train_tok_s {tok_s:.1} tok/s; step_ms p50 {:.1} p90 {:.1} over {} timed steps of {tokens_per_step} tokens",
        percentile(step_ms, 0.5),
        percentile(step_ms, 0.9),
        step_ms.len()
    ));
}

/// `train`: the single-replica `Trainer::step_once` loop on NeoX.
pub fn timed_train(seed: u64, secs: f64, scale: Scale) -> Outcome {
    let cfg = train_config(ArchKind::NeoX, seed, TRAIN_HORIZON, scale);
    let mut setup_s = Vec::new();
    let mut trainer = None;
    for _ in 0..SETUP_REPEATS {
        drop(trainer.take());
        let t = Instant::now();
        let docs = build_corpus(&corpus_config(seed, scale)).documents;
        trainer = Some(Trainer::new(&docs, &cfg));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut trainer = trainer.expect("set up at least once");
    // the trainer publishes each step's loss on this gauge
    let loss_gauge = Registry::global().gauge("trainer_loss", "");

    // warm-up: step 0 pays first-touch costs and the first evaluation
    trainer.step_once();
    let mut losses = vec![loss_gauge.get()];
    let mut step_ms = Vec::new();
    let start = Instant::now();
    while (start.elapsed().as_secs_f64() < secs || step_ms.len() < MIN_TIMED_STEPS)
        && !trainer.is_done()
    {
        let t = Instant::now();
        trainer.step_once();
        step_ms.push(ms(t.elapsed()));
        losses.push(loss_gauge.get());
    }

    let tokens = cfg.batch_seqs * cfg.seq;
    let tok_s = (step_ms.len() * tokens) as f64 / (step_ms.iter().sum::<f64>() * 1e-3);
    let mut out = Outcome {
        attempted: losses.len() as u64,
        failed: losses.iter().filter(|l| !l.is_finite()).count() as u64,
        ..Outcome::default()
    };
    step_metrics(&mut out, &setup_s, tokens, &step_ms, tok_s);
    let train_loss = losses[LOSS_STEP];
    out.line(format!("train_loss {train_loss} (step {LOSS_STEP})"));
    out.check(out.failed == 0, || "non-finite training loss".into());
    out.check(train_loss < losses[0], || {
        format!("loss did not fall: {} -> {train_loss}", losses[0])
    });
    out
}

/// Run the ZeRO-1 executor over two replicas, timing each optimizer
/// step from outside: rank 0 counts its steps on the public
/// `parallel_steps_total` counter, which this thread polls. Returns the
/// end of each step, in seconds since `start`.
fn dp_run(
    docs: &[String],
    cfg: &matgpt_core::PretrainConfig,
    start: Instant,
) -> (ParallelOutcome, Vec<f64>) {
    let counter = Registry::global().counter_with("parallel_steps_total", &[("worker", "0")], "");
    let mut seen = counter.get();
    std::thread::scope(|s| {
        let run = s.spawn(|| DataParallel::new(ParallelConfig::zero1(2)).train(docs, cfg));
        let mut ends = Vec::new();
        let mut poll = |seen: &mut u64| {
            let now = counter.get();
            while *seen < now {
                ends.push(start.elapsed().as_secs_f64());
                *seen += 1;
            }
        };
        while !run.is_finished() {
            poll(&mut seen);
            std::thread::sleep(Duration::from_millis(1));
        }
        poll(&mut seen);
        (run.join().expect("data-parallel run panicked"), ends)
    })
}

/// Build the corpus and run the executor on it, returning the run and
/// its step ends in seconds since the corpus build began.
fn dp_from_scratch(
    seed: u64,
    cfg: &matgpt_core::PretrainConfig,
    scale: Scale,
) -> (ParallelOutcome, Vec<f64>) {
    let start = Instant::now();
    let docs = build_corpus(&corpus_config(seed, scale)).documents;
    dp_run(&docs, cfg, start)
}

/// Check the executor's accounting, recording each result in `out`.
fn check_dp(out: &mut Outcome, dp: &ParallelOutcome, steps: usize) {
    let r = &dp.report;
    out.check(r.steps_run == steps, || {
        format!("ran {} of {steps} steps", r.steps_run)
    });
    let curves = &dp.pretrained.curves;
    out.check(
        curves
            .train
            .iter()
            .chain(&curves.val)
            .all(|(_, l)| l.is_finite()),
        || "non-finite data-parallel loss".into(),
    );
    // ring allreduce of the gradients, plus (ZeRO-1) the allgather of one
    // squared norm per tensor for global-norm clipping
    let tensors = dp.pretrained.store.tensor_sizes().len();
    let expected = r.formula_allreduce_bytes_per_step
        + wire_bytes(Collective::AllGather, (tensors * 4) as f64, r.workers);
    out.check(r.measured_allreduce_bytes_per_step == expected, || {
        format!(
            "allreduce bytes/step {} != formula {} + norm allgather",
            r.measured_allreduce_bytes_per_step, r.formula_allreduce_bytes_per_step
        )
    });
    let replicated = 8 + 2 * 4 * r.param_scalars;
    out.check(r.max_opt_state_bytes() < replicated, || {
        format!("optimizer state {} not sharded", r.max_opt_state_bytes())
    });
}

/// `train_dp2`: `DataParallel` with a ZeRO-1 optimizer over two
/// replicas of a LLaMA model, same corpus, size and batch as `train`.
///
/// Set-up is what the executor itself does before its first step
/// (tokenizer, dataset, probe model, shard plan, rings, replicas), plus
/// the corpus: the time from building the corpus to the end of rank 0's
/// first step, less a later step of the same kind (one that evaluates,
/// as step 0 does). `SETUP_REPEATS - 1` one-step runs and the timed run
/// each give one sample.
pub fn timed_dp2(seed: u64, scale: Scale) -> Outcome {
    let mut first_step_end = Vec::new();
    let probe = train_config(ArchKind::Llama, seed, 1, scale);
    for _ in 1..SETUP_REPEATS {
        let (_, ends) = dp_from_scratch(seed, &probe, scale);
        first_step_end.extend(ends.first());
    }
    let cfg = train_config(ArchKind::Llama, seed, DP_STEPS, scale);
    let (dp, ends) = dp_from_scratch(seed, &cfg, scale);
    first_step_end.extend(ends.first());
    // step_ms[k - 1] is step k
    let step_ms: Vec<f64> = ends.windows(2).map(|w| (w[1] - w[0]) * 1e3).collect();
    let eval_every = (DP_STEPS / 10).max(1);
    let eval_ms: Vec<f64> = (1..ends.len())
        .filter(|&k| k % eval_every == 0 || k + 1 == DP_STEPS)
        .map(|k| step_ms[k - 1])
        .collect();
    let setup_s: Vec<f64> = first_step_end
        .iter()
        .map(|t| t - median(&eval_ms) * 1e-3)
        .collect();

    let tokens = cfg.batch_seqs * cfg.seq;
    let tok_s = (step_ms.len() * tokens) as f64 / (step_ms.iter().sum::<f64>() * 1e-3);
    let mut out = Outcome {
        attempted: DP_STEPS as u64,
        failed: DP_STEPS.saturating_sub(dp.report.steps_run) as u64,
        ..Outcome::default()
    };
    check_dp(&mut out, &dp, DP_STEPS);
    out.check(
        ends.len() == DP_STEPS && first_step_end.len() == SETUP_REPEATS,
        || format!("timed {} of {DP_STEPS} steps", ends.len()),
    );
    step_metrics(&mut out, &setup_s, tokens, &step_ms, tok_s);
    out.line(format!(
        "setup_s samples {setup_s:.3?}: first step ends {first_step_end:.3?} s, \
         less the median evaluating step {:.1} ms",
        median(&eval_ms)
    ));
    out.line(format!(
        "train_loss {} (step {})",
        dp.pretrained.curves.final_train(),
        DP_STEPS - 1
    ));
    out
}

/// Traced replay of `train`: set-up layer by layer, the `Trainer` run
/// untraced, then the same steps rebuilt from public pieces with a span
/// around each layer call. The rebuilt losses must equal the
/// `Trainer`'s bit for bit.
pub fn traced_train(seed: u64, scale: Scale, out: &mut Outcome) {
    let cfg = train_config(ArchKind::NeoX, seed, TRAIN_HORIZON, scale);
    let steps = if scale == Scale::Smoke {
        3
    } else {
        TRACE_STEPS
    };
    let mut tr = Tracer::default();
    let docs = tr.time("corpus.build", None, || {
        build_corpus(&corpus_config(seed, scale)).documents
    });
    let tokenizer = tr.time("tokenizer.train", None, || {
        train_tokenizer(cfg.tokenizer, cfg.vocab, &docs)
    });
    let mut dataset = tr.time("corpus.dataset_encode", None, || {
        TokenDataset::new(
            &docs,
            tokenizer.as_ref(),
            VAL_FRACTION,
            cfg.seed ^ DATA_SEED_SALT,
        )
    });

    let loss_gauge = Registry::global().gauge("trainer_loss", "");
    let mut trainer = Trainer::new(&docs, &cfg);
    let mut reference = Vec::new();
    let mut untraced_ms = Vec::new();
    for _ in 0..steps {
        let t = Instant::now();
        trainer.step_once();
        untraced_ms.push(ms(t.elapsed()));
        reference.push(loss_gauge.get());
    }
    drop(trainer);

    let (model, mut store) = training_model(&cfg, tokenizer.vocab_size());
    let mut opt = Lamb::new(AdamConfig::paper_lamb());
    let schedule = CosineSchedule::paper(cfg.lr, cfg.steps);
    let eval_every = (cfg.steps / 10).max(1);
    let mut losses = Vec::new();
    let mut coverage = Vec::new();
    let mut traced_ms = Vec::new();
    for step in 0..steps {
        let s = tr.open("core.step", None);
        let batch = tr.time("corpus.sample_batch", Some(s), || {
            dataset.sample_batch(cfg.batch_seqs, cfg.seq)
        });
        store.zero_grads();
        let mut tape = Tape::new();
        let loss = tr.time("model.loss_fwd", Some(s), || {
            model.loss(
                &mut tape,
                &store,
                &batch.inputs,
                &batch.targets,
                batch.batch,
                batch.seq,
            )
        });
        losses.push(tape.value(loss).item());
        tr.time("tensor.tape_backward", Some(s), || tape.backward(loss));
        tr.time("tensor.accumulate_grads", Some(s), || {
            tape.accumulate_param_grads(&mut store)
        });
        drop(tape);
        let lr = schedule.lr(step);
        tr.time("optim.step", Some(s), || {
            store.clip_grad_norm(1.0);
            opt.step(&mut store, lr);
        });
        if step.is_multiple_of(eval_every) || step + 1 == cfg.steps {
            tr.time("core.validation_loss", Some(s), || {
                validation_loss(&model, &store, &dataset, cfg.seq)
            });
        }
        let wall = tr.close(s);
        coverage.push(tr.children_s(s) / wall);
        traced_ms.push(wall * 1e3);
    }
    // two more evaluations, so its time is a median of three
    for _ in 0..2 {
        tr.time("core.validation_loss", None, || {
            validation_loss(&model, &store, &dataset, cfg.seq)
        });
    }

    out.attempted += steps as u64;
    for (i, (&traced, &want)) in losses.iter().zip(&reference).enumerate() {
        let same = f64::from(traced).to_bits() == want.to_bits();
        out.check(same, || {
            format!("step {i}: traced loss {traced} != Trainer {want}")
        });
    }
    for (i, c) in coverage.iter().enumerate() {
        out.check((0.9..=1.1).contains(c), || {
            format!("step {i}: timed parts cover {:.1}% of the step", c * 100.0)
        });
    }
    // per-step medians skip step 0, which pays warm-up costs
    let steady = |name: &str| median(&tr.durations_ms(name)[1..]);
    let step_p50 = median(&untraced_ms[1..]);
    let gflop = count::train_flops_per_step(&model.cfg, cfg.batch_seqs, cfg.seq) * 1e-9;
    let spans = |name: &str| tr.durations_ms(name)[0] * 1e-3;
    out.metric("corpus.build.s", spans("corpus.build"), "s");
    out.metric("tokenizer.train.s", spans("tokenizer.train"), "s");
    out.metric(
        "corpus.dataset_encode.s",
        spans("corpus.dataset_encode"),
        "s",
    );
    out.metric(
        "corpus.sample_batch.ms",
        steady("corpus.sample_batch"),
        "ms",
    );
    out.metric("model.loss_fwd.ms", steady("model.loss_fwd"), "ms");
    out.metric(
        "tensor.tape_backward.ms",
        steady("tensor.tape_backward"),
        "ms",
    );
    out.metric(
        "tensor.accumulate_grads.ms",
        steady("tensor.accumulate_grads"),
        "ms",
    );
    out.metric("optim.step.ms", steady("optim.step"), "ms");
    out.metric("optim.state_bytes", opt.state_bytes() as f64, "bytes");
    out.metric(
        "core.validation_loss.ms",
        median(&tr.durations_ms("core.validation_loss")),
        "ms",
    );
    out.metric("core.step_ms.p50", step_p50, "ms");
    out.metric("core.train_loss", f64::from(losses[steps - 1]), "nats");
    out.metric("model.train_gflops", gflop / (step_p50 * 1e-3), "GFLOP/s");
    out.metric(
        "trace.overhead_frac",
        median(&traced_ms[1..]) / step_p50 - 1.0,
        "frac",
    );
    out.metric("trace.step_coverage", median(&coverage), "frac");
    out.line(format!(
        "traced train: {steps} steps, losses bit-identical to Trainer: {}",
        losses
            .iter()
            .zip(&reference)
            .all(|(&a, &b)| f64::from(a).to_bits() == b.to_bits())
    ));
}

/// Traced `train_dp2`: a short ZeRO-1 run and the executor's own
/// accounting of compute, communication and optimizer state.
pub fn traced_dp2(seed: u64, scale: Scale, out: &mut Outcome) {
    let steps = if scale == Scale::Smoke {
        2
    } else {
        TRACE_DP_STEPS
    };
    let cfg = train_config(ArchKind::Llama, seed, steps, scale);
    let (dp, _) = dp_from_scratch(seed, &cfg, scale);
    out.attempted += steps as u64;
    check_dp(out, &dp, steps);
    let r = &dp.report;
    let n = r.steps_run.max(1) as f64;
    let comm = r.comm_ms.iter().copied().fold(0.0, f64::max);
    out.metric(
        "parallel.compute_ms_per_step",
        r.critical_compute_ms / n,
        "ms",
    );
    out.metric("parallel.comm_ms_per_step", comm / n, "ms");
    out.metric("parallel.comm_frac", comm / r.critical_path_ms(), "frac");
    out.metric(
        "parallel.allreduce_bytes_per_step",
        r.measured_allreduce_bytes_per_step,
        "bytes",
    );
    out.metric(
        "parallel.opt_state_bytes_max",
        r.max_opt_state_bytes() as f64,
        "bytes",
    );
}
