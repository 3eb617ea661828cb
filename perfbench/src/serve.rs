//! The serving workloads (`serve_chat`, `serve_decode`), their traced
//! replays, and the solo model probes on the served model.

use crate::inputs::{chat_warmup, ChatTraffic, DecodeTraffic, Request, Scale, ServeShape};
use crate::stats::{median, percentile, tpot_ms};
use crate::train::SETUP_REPEATS;
use crate::Outcome;
use crossbeam::channel::TryRecvError;
use matgpt_model::{
    generate, speculative_step, DraftState, GptModel, QuantizedParamStore, SampleOptions,
};
use matgpt_serve::{
    DecodeMode, Engine, EngineConfig, EngineError, FinishReason, GenRequest, KvBackend,
    KvBlockConfig, MetricsSnapshot, Response, ResponseHandle,
};
use matgpt_tensor::ParamStore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// Clients of each closed loop, and the engines' `max_batch`: every
/// answered request's slot is refilled at once, so the batch stays full
/// and admission runs whenever a request retires.
pub const CLIENTS: usize = 8;
/// The serving objective, about ten times the uncontended medians on
/// the reference host so that only a real regression misses it: first
/// token within 250 ms of submission, then at most 40 ms per token.
const SLO_MS: (f64, f64) = (250.0, 40.0);
/// Sampling temperature of the non-greedy requests.
const TEMPERATURE: f32 = 0.8;
/// Requests the traced run replays per serving workload.
const TRACE_CHAT_REQUESTS: usize = 36;
const TRACE_DECODE_REQUESTS: usize = 16;

/// Which serving workload: its traffic and engine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `serve_chat`: paged KV with prefix sharing, plain decode.
    Chat,
    /// `serve_decode`: contiguous KV, int8 self-draft speculative
    /// decode with k = 4.
    Decode,
}

fn engine_config(kind: Kind, scale: Scale) -> EngineConfig {
    match kind {
        Kind::Chat => EngineConfig {
            max_batch: CLIENTS,
            max_queue: 256,
            kv_backend: KvBackend::Paged(KvBlockConfig {
                block_size: 16,
                num_blocks: if scale == Scale::Smoke { 64 } else { 256 },
            }),
            decode: DecodeMode::Plain,
            ..EngineConfig::default()
        },
        Kind::Decode => EngineConfig {
            max_batch: CLIENTS,
            max_queue: 64,
            kv_backend: KvBackend::Contiguous,
            decode: DecodeMode::Speculative { k: 4 },
            ..EngineConfig::default()
        },
    }
}

fn options(req: &Request) -> SampleOptions {
    SampleOptions {
        temperature: if req.greedy { 0.0 } else { TEMPERATURE },
        top_k: 0,
        max_new_tokens: req.max_new,
        stop_token: None,
    }
}

/// Build the model and an engine over it, and wait until the engine
/// has answered one request (its int8 draft, if any, is then built).
fn start_engine(kind: Kind, seed: u64, shape: &ServeShape, scale: Scale) -> Engine {
    let (model, store) = shape.build(seed);
    let engine = Engine::new(model, store, engine_config(kind, scale));
    let warm = SampleOptions {
        temperature: 0.0,
        top_k: 0,
        max_new_tokens: 1,
        stop_token: None,
    };
    let ready = engine.submit(&[1, 2, 3], warm).map(|h| h.wait());
    assert!(
        matches!(ready, Ok(Some(_))),
        "engine failed its warm-up request"
    );
    engine
}

/// Set up `SETUP_REPEATS` times, keeping the last engine; returns it
/// with the median set-up time in seconds.
fn setup(kind: Kind, seed: u64, shape: &ServeShape, scale: Scale) -> (Engine, f64) {
    let mut times = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPEATS {
        drop(engine.take());
        let t = Instant::now();
        engine = Some(start_engine(kind, seed, shape, scale));
        times.push(t.elapsed().as_secs_f64());
    }
    (engine.expect("set up at least once"), median(&times))
}

/// One request per decode slot with the longest prompt and output, so
/// a full batch of the largest caches exists before the timed window.
fn decode_warmup(traffic: &mut DecodeTraffic, shape: &ServeShape) -> Vec<Request> {
    traffic
        .take(CLIENTS)
        .map(|r| Request {
            prompt: r
                .prompt
                .iter()
                .cycle()
                .take(shape.decode_prompt.1)
                .copied()
                .collect(),
            max_new: shape.decode_out.1,
            ..r
        })
        .collect()
}

/// What happened to one request.
struct Served {
    req: Request,
    /// When `submit` returned, or `None` if it was rejected.
    sent: Option<Instant>,
    /// The engine's answer, if one arrived.
    resp: Option<Response>,
}

fn submit(engine: &Engine, req: &Request) -> Result<ResponseHandle, EngineError> {
    engine.submit_request(GenRequest {
        prompt: req.prompt.clone(),
        opts: options(req),
        deadline: None,
        seed: req.seed,
    })
}

/// Keep [`CLIENTS`] requests from `traffic` in flight, each client
/// sending its next request as soon as its previous one is answered,
/// until `secs` have passed or `max_requests` were sent; then drain.
/// Returns every request and the wall time from the first submission
/// to the last answer.
fn closed_loop(
    engine: &Engine,
    traffic: &mut impl Iterator<Item = Request>,
    secs: f64,
    max_requests: usize,
) -> (Vec<Served>, f64) {
    let start = Instant::now();
    let mut sent_count = 0;
    let mut inflight: Vec<(Request, Instant, ResponseHandle)> = Vec::new();
    let mut done = Vec::new();
    loop {
        while inflight.len() < CLIENTS
            && sent_count < max_requests
            && start.elapsed().as_secs_f64() < secs
        {
            let req = traffic.next().expect("endless stream");
            sent_count += 1;
            match submit(engine, &req) {
                Ok(h) => inflight.push((req, Instant::now(), h)),
                Err(_) => done.push(Served {
                    req,
                    sent: None,
                    resp: None,
                }),
            }
        }
        if inflight.is_empty() {
            return (done, start.elapsed().as_secs_f64());
        }
        let before = inflight.len();
        let mut i = 0;
        while i < inflight.len() {
            let resp = match inflight[i].2.try_wait() {
                Ok(r) => Some(r),
                Err(TryRecvError::Disconnected) => None,
                Err(TryRecvError::Empty) => {
                    i += 1;
                    continue;
                }
            };
            let (req, sent, _) = inflight.swap_remove(i);
            done.push(Served {
                req,
                sent: Some(sent),
                resp,
            });
        }
        if inflight.len() == before {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Whether a response is what the request asked for: the prompt, then
/// exactly `max_new` in-vocabulary tokens.
fn well_formed(s: &Served, vocab: usize) -> bool {
    s.resp.as_ref().is_some_and(|r| {
        r.finish == FinishReason::Length
            && r.generated == s.req.max_new
            && r.tokens.len() == s.req.prompt.len() + s.req.max_new
            && r.tokens.starts_with(&s.req.prompt)
            && r.tokens.iter().all(|&t| (t as usize) < vocab)
    })
}

/// End-to-end serving metrics over `served`, which the closed loop
/// answered in `wall_s` seconds. The latency a user of each workload
/// waits on is time to first token for chat and time per output token
/// for decode.
fn serve_metrics(
    kind: Kind,
    out: &mut Outcome,
    served: &[Served],
    wall_s: f64,
    setup_s: f64,
    vocab: usize,
) {
    let rejected = served.iter().filter(|s| s.sent.is_none()).count();
    let ok: Vec<&Served> = served.iter().filter(|s| well_formed(s, vocab)).collect();
    let failed = served.len() - rejected - ok.len();
    let mut ttft = Vec::new();
    let mut tpot = Vec::new();
    let mut met = 0;
    let mut generated = 0;
    for s in &ok {
        let r = s.resp.as_ref().expect("well-formed responses exist");
        let first = r.ttft.as_secs_f64() * 1e3;
        let per_token = tpot_ms(r.total.as_secs_f64() * 1e3, first, r.generated);
        ttft.push(first);
        tpot.extend(per_token);
        if first <= SLO_MS.0 && per_token.is_none_or(|t| t <= SLO_MS.1) {
            met += 1;
        }
        generated += r.generated;
    }
    let tok_s = generated as f64 / wall_s;
    out.attempted += served.len() as u64;
    out.failed += (failed + rejected) as u64;
    out.metric("setup_s", setup_s, "s");
    out.metric("tok_s", tok_s, "tok/s");
    let latency = match kind {
        Kind::Chat => &ttft,
        Kind::Decode => &tpot,
    };
    out.metric("latency_ms_p50", percentile(latency, 0.5), "ms");
    out.metric("latency_ms_p90", percentile(latency, 0.9), "ms");
    out.metric("slo_attain", met as f64 / served.len() as f64, "frac");
    out.line(format!(
        "output_tok_s {tok_s:.1} tok/s; ttft_ms p50 {:.2} p90 {:.2}; tpot_ms p50 {:.3} p90 {:.3}; \
         slo_attain {:.4} (ttft <= {} ms, tpot <= {} ms)",
        percentile(&ttft, 0.5),
        percentile(&ttft, 0.9),
        percentile(&tpot, 0.5),
        percentile(&tpot, 0.9),
        met as f64 / served.len() as f64,
        SLO_MS.0,
        SLO_MS.1
    ));
    out.line(format!(
        "sent {} succeeded {} failed {failed} rejected {rejected} fail_frac {:.4}",
        served.len() - rejected,
        ok.len(),
        (failed + rejected) as f64 / served.len() as f64
    ));
    out.check(failed == 0, || {
        format!("{failed} malformed or failed responses")
    });
}

/// Send the workload's warm-up traffic at once and wait for every
/// answer, outside any timed window; returns the traffic its closed loop
/// sends.
fn warm_up(
    engine: &Engine,
    kind: Kind,
    seed: u64,
    shape: &ServeShape,
) -> Box<dyn Iterator<Item = Request>> {
    let (warm, traffic): (_, Box<dyn Iterator<Item = Request>>) = match kind {
        Kind::Chat => (
            chat_warmup(seed, shape),
            Box::new(ChatTraffic::new(seed, shape)),
        ),
        Kind::Decode => {
            let mut traffic = DecodeTraffic::new(seed, shape);
            (decode_warmup(&mut traffic, shape), Box::new(traffic))
        }
    };
    let handles: Vec<_> = warm.iter().filter_map(|r| submit(engine, r).ok()).collect();
    for h in handles {
        h.wait();
    }
    traffic
}

/// A timed serving run: `serve_chat` or `serve_decode`.
pub fn timed(kind: Kind, seed: u64, secs: f64, scale: Scale) -> Outcome {
    let shape = ServeShape::new(scale);
    let (engine, setup_s) = setup(kind, seed, &shape, scale);
    let mut traffic = warm_up(&engine, kind, seed, &shape);
    let (served, wall_s) = closed_loop(&engine, &mut traffic, secs, usize::MAX);
    engine.shutdown();
    let mut out = Outcome::default();
    serve_metrics(
        kind,
        &mut out,
        &served,
        wall_s,
        setup_s,
        shape.model.vocab_size,
    );
    out
}

/// Generate every answered request again, alone, on a second copy of
/// the weights. Greedy answers must match token for token. Returns the
/// summed solo time in seconds.
fn solo_replay(out: &mut Outcome, served: &[Served], model: &GptModel, store: &ParamStore) -> f64 {
    let mut solo_s = 0.0;
    for s in served {
        let Some(resp) = &s.resp else { continue };
        let mut rng = ChaCha8Rng::seed_from_u64(s.req.seed);
        let t = Instant::now();
        let tokens = generate(model, store, &s.req.prompt, &options(&s.req), &mut rng);
        solo_s += t.elapsed().as_secs_f64();
        out.attempted += 1;
        if s.req.greedy {
            out.check(tokens == resp.tokens, || {
                format!("greedy response {} differs from solo generate", resp.id)
            });
        }
    }
    solo_s
}

/// Engine busy time in seconds, from its own throughput accounting.
fn busy_s(m: &MetricsSnapshot) -> f64 {
    if m.tokens_per_sec > 0.0 {
        m.generated_tokens as f64 / m.tokens_per_sec
    } else {
        0.0
    }
}

/// The engine's accounting of the replayed requests alone: its
/// cumulative counters differenced across the closed loop.
struct LoopMetrics {
    busy_s: f64,
    kv_block_allocs: u64,
    kv_block_shares: u64,
    preemptions: u64,
    kv_blocks_evicted: u64,
    spec_drafted: u64,
    spec_accepted: u64,
    /// High-water marks, restarted when the closed loop began.
    queue_depth_peak: usize,
    kv_bytes_peak: u64,
}

impl LoopMetrics {
    fn between(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Self {
        Self {
            busy_s: busy_s(after) - busy_s(before),
            kv_block_allocs: after.kv_block_allocs - before.kv_block_allocs,
            kv_block_shares: after.kv_block_shares - before.kv_block_shares,
            preemptions: after.preemptions - before.preemptions,
            kv_blocks_evicted: after.kv_blocks_evicted - before.kv_blocks_evicted,
            spec_drafted: after.spec_drafted - before.spec_drafted,
            spec_accepted: after.spec_accepted - before.spec_accepted,
            queue_depth_peak: after.queue_depth_peak,
            kv_bytes_peak: after.kv_bytes_peak,
        }
    }
}

/// Restart the engine's lifetime high-water marks, through its public
/// metric registry, so that they cover only what follows. The engine
/// must be idle: its scheduler raises them again from the first
/// iteration after.
fn restart_peaks(engine: &Engine) {
    for peak in ["serve_queue_depth_peak", "serve_kv_bytes_peak"] {
        engine.registry().gauge(peak, "").set(0.0);
    }
}

/// Serve `n` requests of a workload's traffic in its closed loop, after
/// its warm-up, then generate each again alone. Returns the engine's
/// accounting of the closed loop alone, the loop's wall time, and the
/// summed solo time.
fn replay(
    kind: Kind,
    seed: u64,
    scale: Scale,
    n: usize,
    out: &mut Outcome,
) -> (LoopMetrics, f64, f64) {
    let shape = ServeShape::new(scale);
    let engine = start_engine(kind, seed, &shape, scale);
    let mut traffic = warm_up(&engine, kind, seed, &shape);
    restart_peaks(&engine);
    let before = engine.metrics();
    let (served, wall_s) = closed_loop(&engine, &mut traffic, f64::INFINITY, n);
    engine.shutdown();
    let m = LoopMetrics::between(&before, &engine.metrics());
    let vocab = shape.model.vocab_size;
    out.check(served.iter().all(|s| well_formed(s, vocab)), || {
        format!("malformed {kind:?} response in the traced run")
    });
    let (model, store) = shape.build(seed);
    let solo_s = solo_replay(out, &served, &model, &store);
    (m, wall_s, solo_s)
}

/// Traced replay of `serve_chat`: the engine's own queue and KV
/// accounting, and every greedy answer checked against a solo run.
pub fn traced_chat(seed: u64, scale: Scale, out: &mut Outcome) {
    let (m, wall_s, _) = replay(Kind::Chat, seed, scale, TRACE_CHAT_REQUESTS, out);
    let blocks = (m.kv_block_allocs + m.kv_block_shares).max(1) as f64;
    out.metric("serve.busy_frac", m.busy_s / wall_s, "frac");
    out.metric("serve.queue_depth_peak", m.queue_depth_peak as f64, "count");
    out.metric(
        "serve.kv.prefix_share_frac",
        m.kv_block_shares as f64 / blocks,
        "frac",
    );
    out.metric("serve.kv.bytes_peak", m.kv_bytes_peak as f64, "bytes");
    out.metric("serve.kv.preemptions", m.preemptions as f64, "count");
    out.metric("serve.kv.evicted", m.kv_blocks_evicted as f64, "count");
}

/// Traced replay of `serve_decode`: the ratio of the summed solo time
/// to the engine's busy time is what batching already gains.
pub fn traced_decode(seed: u64, scale: Scale, out: &mut Outcome) {
    let (m, _, solo_s) = replay(Kind::Decode, seed, scale, TRACE_DECODE_REQUESTS, out);
    out.metric(
        "serve.spec.acceptance",
        m.spec_accepted as f64 / m.spec_drafted.max(1) as f64,
        "frac",
    );
    out.metric("serve.solo_over_busy", solo_s / m.busy_s, "x");
}

/// Solo probes of `model::infer` on the served model: prefill over the
/// chat prompts, one-row decode steps, and int8 self-draft speculation
/// on the greedy decode prompts.
pub fn model_probes(seed: u64, scale: Scale, out: &mut Outcome) {
    let shape = ServeShape::new(scale);
    let (model, store) = shape.build(seed);
    let v = shape.model.vocab_size;

    let (mut tokens, mut secs) = (0usize, 0.0f64);
    for req in ChatTraffic::new(seed, &shape).take(8) {
        let mut cache = model.new_cache();
        let t = Instant::now();
        std::hint::black_box(model.forward_cached(&store, &req.prompt, &mut cache));
        secs += t.elapsed().as_secs_f64();
        tokens += req.prompt.len();
    }
    out.metric("model.prefill.tok_s", tokens as f64 / secs, "tok/s");

    let decode: Vec<Request> = DecodeTraffic::new(seed, &shape)
        .filter(|r| r.greedy)
        .take(4)
        .collect();
    let mut step_ms = Vec::new();
    let mut cache = model.new_cache();
    let logits = model.forward_cached(&store, &decode[0].prompt, &mut cache);
    let mut next = generate::argmax(&logits[logits.len() - v..]) as u32;
    for _ in 0..64 {
        let t = Instant::now();
        let row = model.decode_step(&store, next, &mut cache);
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        next = generate::argmax(&row) as u32;
    }
    out.metric("model.decode_step.ms", median(&step_ms), "ms");

    let draft = QuantizedParamStore::for_draft(&model, &store);
    let (mut drafted, mut accepted, mut verifies, mut emitted) = (0, 0, 0, 0);
    for req in &decode {
        let mut cache = model.new_cache();
        let logits = model.forward_cached(&store, &req.prompt, &mut cache);
        let mut row = logits[logits.len() - v..].to_vec();
        let mut state = DraftState::new(&model, &req.prompt);
        let mut done = 0;
        while done < req.max_new {
            let step = speculative_step(
                &model,
                &store,
                &draft,
                4,
                &mut cache,
                &mut state,
                &mut row,
                req.max_new - done,
            );
            drafted += step.drafted;
            accepted += step.accepted;
            verifies += 1;
            done += step.tokens.len();
        }
        emitted += done;
    }
    out.metric(
        "model.spec.acceptance",
        accepted as f64 / drafted.max(1) as f64,
        "frac",
    );
    out.metric(
        "model.spec.tokens_per_verify",
        emitted as f64 / verifies as f64,
        "tok",
    );
}
