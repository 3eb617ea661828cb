//! Host fingerprint and roofline probe.
//!
//! Absolute numbers only mean something next to the machine that
//! produced them, so every result carries the CPU model, core count,
//! cache sizes, compiler, source commit, and the measured ceilings that
//! the kernels' `*.roofline_frac` metrics divide by: fused multiply-add
//! throughput and streaming read bandwidth from L2-, L3- and
//! DRAM-sized working sets, all on every core at once (the kernels run
//! on a pool of one worker per core).

use std::hint::black_box;
use std::time::Instant;

/// What the probe measured, in GFLOP/s and GB/s over all cores.
#[derive(Clone, Copy, Debug)]
pub struct Roofline {
    /// f32 fused multiply-add throughput (2 FLOPs per FMA).
    pub fma_gflops: f64,
    /// Read bandwidth with a 1 MiB set per core.
    pub l2_gbs: f64,
    /// Read bandwidth with a 64 MiB set in total.
    pub l3_gbs: f64,
    /// Read bandwidth with a 512 MiB set in total.
    pub dram_gbs: f64,
}

/// Working-set sizes of the probe; `smoke` shrinks them for tests.
#[derive(Clone, Copy, Debug)]
pub struct ProbeSizes {
    l2_per_core: usize,
    l3_total: usize,
    dram_total: usize,
    secs: f64,
}

impl ProbeSizes {
    /// The sizes every recorded result uses.
    pub const FULL: ProbeSizes = ProbeSizes {
        l2_per_core: 1 << 20,
        l3_total: 64 << 20,
        dram_total: 512 << 20,
        secs: 0.12,
    };
    /// Tiny sets for the benchmark's own tests.
    pub const SMOKE: ProbeSizes = ProbeSizes {
        l2_per_core: 64 << 10,
        l3_total: 1 << 20,
        dram_total: 4 << 20,
        secs: 0.01,
    };
}

/// Worker threads the probes use: one per available core.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Measure the roofline of this host.
pub fn roofline(sizes: ProbeSizes) -> Roofline {
    let threads = cores();
    Roofline {
        fma_gflops: fma_gflops(threads, sizes.secs),
        l2_gbs: stream_gbs(sizes.l2_per_core * threads, threads, sizes.secs),
        l3_gbs: stream_gbs(sizes.l3_total, threads, sizes.secs),
        dram_gbs: stream_gbs(sizes.dram_total, threads, sizes.secs),
    }
}

/// Run `work` on `threads` scoped threads at once; each returns
/// `(units done, seconds taken)`. Gives total units per second.
fn all_cores(threads: usize, work: impl Fn(usize) -> (f64, f64) + Sync) -> f64 {
    let results: Vec<(f64, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let work = &work;
                s.spawn(move || work(t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    results.iter().map(|(units, secs)| units / secs).sum()
}

fn fma_gflops(threads: usize, secs: f64) -> f64 {
    // 128 independent accumulators: enough vector FMA chains in flight
    // to cover the instruction latency on every FMA port
    const LANES: usize = 128;
    const BATCH: usize = 1 << 16;
    all_cores(threads, |_| {
        let (x, y) = (black_box(0.999_9f32), black_box(1e-4f32));
        let mut acc = [1.0f32; LANES];
        let mut iters = 0usize;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < secs {
            for _ in 0..BATCH {
                for v in acc.iter_mut() {
                    *v = v.mul_add(x, y);
                }
            }
            iters += BATCH;
            acc = black_box(acc);
        }
        let secs = start.elapsed().as_secs_f64();
        black_box(acc);
        ((iters * LANES * 2) as f64 * 1e-9, secs)
    })
}

fn stream_gbs(total_bytes: usize, threads: usize, secs: f64) -> f64 {
    let per_thread = (total_bytes / threads / 4).max(64);
    all_cores(threads, |_| {
        let buf = vec![1.0f32; per_thread];
        black_box(read_pass(&buf)); // warm the set into its cache level
        let mut bytes = 0usize;
        let start = Instant::now();
        while bytes == 0 || start.elapsed().as_secs_f64() < secs {
            black_box(read_pass(black_box(&buf)));
            bytes += per_thread * 4;
        }
        (bytes as f64 * 1e-9, start.elapsed().as_secs_f64())
    })
}

fn read_pass(buf: &[f32]) -> f32 {
    let mut acc = [0.0f32; 64];
    let chunks = buf.chunks_exact(64);
    let tail: f32 = chunks.remainder().iter().sum();
    for c in chunks {
        for (a, &v) in acc.iter_mut().zip(c) {
            *a += v;
        }
    }
    acc.iter().sum::<f32>() + tail
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The machine and build a result came from.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// CPU model name.
    pub cpu: String,
    /// Cores available to this process.
    pub cores: usize,
    /// Cache sizes of core 0, e.g. `L1d 48K, L2 2048K, L3 307200K`.
    pub caches: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Source commit, when the checkout carries its git metadata.
    pub commit: String,
}

impl Fingerprint {
    /// Read the fingerprint of this host and checkout.
    pub fn read() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            cpu,
            cores: cores(),
            caches: caches(),
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            commit: commit(),
        }
    }

    /// One JSON object holding the fingerprint and the roofline.
    pub fn to_json(&self, r: &Roofline) -> String {
        format!(
            "{{\"cpu\": {:?}, \"cores\": {}, \"caches\": {:?}, \"rustc\": {:?}, \
             \"commit\": {:?}, \"host.fma_gflops\": {}, \"host.stream_gbs.l2\": {}, \
             \"host.stream_gbs.l3\": {}, \"host.stream_gbs.dram\": {}}}",
            self.cpu,
            self.cores,
            self.caches,
            self.rustc,
            self.commit,
            r.fma_gflops,
            r.l2_gbs,
            r.l3_gbs,
            r.dram_gbs
        )
    }
}

fn caches() -> String {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let read = |p: String| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("{base}/index{i}");
        let (Some(level), Some(kind), Some(size)) = (
            read(format!("{dir}/level")),
            read(format!("{dir}/type")),
            read(format!("{dir}/size")),
        ) else {
            continue;
        };
        let tag = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{level}{tag} {size}"));
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(", ")
    }
}

/// The commit `.git/HEAD` names, read from the working directory only.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs").and_then(|packed| {
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
