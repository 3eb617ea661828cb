//! The repository benchmark.
//!
//! Four seeded workloads drive the program through its public APIs
//! (`core::Trainer`, `core::DataParallel`, `serve::Engine`, and the
//! `model`/`tensor`/`optim`/`corpus` functions):
//!
//! * `train` — the single-replica training step loop;
//! * `train_dp2` — two-replica ZeRO-1 data-parallel training;
//! * `serve_chat` — closed-loop, prefill-heavy chat traffic over a paged
//!   KV cache with shared system prompts;
//! * `serve_decode` — closed-loop, decode-heavy traffic with int8
//!   self-draft speculative decoding.
//!
//! A timed run (`--trace 0`) measures one workload and reports its
//! end-to-end metrics. A traced run (`--trace 1`) times the calls into
//! every layer from outside, replays the workloads' outputs against
//! solo references, and reports the per-layer metrics. See `README.md`
//! in this directory for every metric and the layer-to-workload map.

pub mod host;
pub mod inputs;
pub mod layers;
pub mod serve;
pub mod stats;
pub mod train;

use inputs::Scale;
use std::fmt::Write as _;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `Trainer::step_once` loop, NeoX.
    Train,
    /// `DataParallel` ZeRO-1 over two replicas, LLaMA.
    TrainDp2,
    /// Closed-loop chat traffic on the paged engine.
    ServeChat,
    /// Closed-loop decode traffic on the speculative engine.
    ServeDecode,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Train,
        Workload::TrainDp2,
        Workload::ServeChat,
        Workload::ServeDecode,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Train => "train",
            Workload::TrainDp2 => "train_dp2",
            Workload::ServeChat => "serve_chat",
            Workload::ServeDecode => "serve_decode",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (steps, requests, or checked replays).
    pub attempted: u64,
    /// Operations that failed or were rejected.
    pub failed: u64,
    /// Metrics for the final JSON line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub lines: Vec<String>,
    /// Correctness checks that failed; empty means correct.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Add a metric for the final JSON line.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Add a line of human-readable detail.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Record the result of a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of a timed (end-to-end) run.
    pub trace: bool,
    /// Problem size: `Full` from the command line; the benchmark's own
    /// tests build `Args` with `Smoke` directly.
    pub scale: Scale,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut args = args.into_iter();
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
                "--seconds" => {
                    seconds = Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(String::new())),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds: f64 = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds must be in (0, 120], got {seconds}"));
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
            scale: Scale::Full,
        })
    }
}

/// Run one timed or traced benchmark run.
pub fn run(args: &Args) -> Outcome {
    let probe = || {
        host::roofline(match args.scale {
            Scale::Full => host::ProbeSizes::FULL,
            Scale::Smoke => host::ProbeSizes::SMOKE,
        })
    };
    let (mut out, roofline) = if args.trace {
        let roofline = probe();
        (
            layers::run(args.workload, args.seed, args.scale, &roofline),
            roofline,
        )
    } else {
        let mut out = match args.workload {
            Workload::Train => train::timed_train(args.seed, args.seconds, args.scale),
            Workload::TrainDp2 => train::timed_dp2(args.seed, args.scale),
            Workload::ServeChat => {
                serve::timed(serve::Kind::Chat, args.seed, args.seconds, args.scale)
            }
            Workload::ServeDecode => {
                serve::timed(serve::Kind::Decode, args.seed, args.seconds, args.scale)
            }
        };
        // read before the roofline probe, whose buffers would otherwise
        // set the high-water mark
        out.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
        (out, probe())
    };
    out.line(format!(
        "host {}",
        host::Fingerprint::read().to_json(&roofline)
    ));
    out
}

/// Spans recorded by the benchmark around its calls into each layer:
/// name, parent, start and duration. Kept in memory for the run and
/// summarised (or written out) at the end.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call the span covers, e.g. `model.loss_fwd`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in seconds since the tracer was created.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start_s: self.origin.elapsed().as_secs_f64(),
            dur_s: 0.0,
        });
        self.spans.len() - 1
    }

    /// Close span `id`, returning its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.dur_s = self.origin.elapsed().as_secs_f64() - span.start_s;
        span.dur_s
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let value = f();
        self.close(id);
        value
    }

    /// Durations, in milliseconds, of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s * 1e3)
            .collect()
    }

    /// Summed duration in seconds of the direct children of span `id`.
    pub fn children_s(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.dur_s)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve_chat --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeChat);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(args("--workload nope --seed 3").is_err());
        assert!(args("--workload train").is_err());
        assert!(args("--workload train --seed 1 --trace 2").is_err());
        assert!(args("--workload train --seed 1 --seconds 0").is_err());
        assert!(args("--workload train --seed 1 --smoke").is_err());
        assert_eq!(
            args("--workload train --seed 1").unwrap().scale,
            Scale::Full
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metric("setup_s", 0.25, "s");
        out.metric("tok_s", 1234.5, "tok/s");
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"tok_s\": {\"value\": 1234.5, \"unit\": \"tok/s\"}}}"
        );
        out.check(false, || "boom".into());
        assert!(!out.correct());
        assert!(out.json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn tracer_sums_children() {
        let mut t = Tracer::default();
        let step = t.open("step", None);
        t.time("a", Some(step), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("b", Some(step), || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        let wall = t.close(step);
        let parts = t.children_s(step);
        assert!(parts <= wall && parts >= 0.005, "{parts} of {wall}");
        assert_eq!(t.durations_ms("a").len(), 1);
    }
}
