//! The repository benchmark: end-to-end and per-layer metrics of the
//! Browsix reproduction on three delay-free workloads.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--source <id>]
//! ```
//!
//! With `--trace 0` the run splits `--seconds` over seven rounds; each round
//! sets the workload up afresh, then runs operations back to back, and the
//! run prints the median over rounds of every end-to-end metric.  With
//! `--trace 1` untraced and traced rounds alternate (two of each), and the
//! run prints every per-layer metric.  Either way the last
//! line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `README.md` next to this crate for what each metric means.

mod rng;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use browsix_browser::PlatformConfig;

use workloads::{stats_delta, Samples, Workload};

/// Rounds per end-to-end run, each with its own set-up.
const ROUNDS: usize = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    source: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut source = String::from("unknown");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            "--source" => source = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {:?}", workloads::NAMES));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        source,
    })
}

// ---- measurement helpers -------------------------------------------------------------

/// Process CPU time (user + system, all threads).
fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Confines the process to one of the CPUs it may run on, the
/// highest-numbered (CPU 0 usually takes the most device interrupts), and
/// returns that CPU.  Threads started afterwards inherit the mask, so every
/// kernel, guest and client thread shares it.
///
/// `shell_pipeline` runs this way.  Spread over the two vCPUs of a small
/// shared virtual machine, it measured the host more than the program: a
/// vCPU the host preempts stalls every pipe handoff waiting on it, so a few
/// percent of steal time moved its latency by a fifth or more.  Its stages
/// take turns anyway (CPU time per run equals latency), so one CPU costs it
/// nothing.  `latex_build` and `httpd_mix` are not pinned: their operations
/// are short, and on one CPU the order in which the scheduler runs their
/// few threads split latency into two modes whose shares shifted from round
/// to round, so the median jumped between them.
fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is writable and as large as the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("sched_getaffinity returned no CPU")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is readable and as large as the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

/// The process's high-water resident set, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Metrics in the order they are printed: `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

/// Timed phases: the samples plus the wall and CPU time they took and the
/// kernel counters they moved, summed over the rounds they came from.
#[derive(Default)]
struct Phase {
    samples: Samples,
    wall: Duration,
    cpu: Duration,
    stats: browsix_core::KernelStats,
    http_bytes_fetched: u64,
    http_cache_hits: u64,
    http_pages_fetched: u64,
}

fn timed_phase(workload: &mut dyn Workload, seconds: f64) -> Phase {
    let before = workload.kernel().stats();
    let http_before = workload.http_fs_stats().unwrap_or_default();
    let cpu0 = cpu_time();
    let start = Instant::now();
    let samples = workload.run(start + Duration::from_secs_f64(seconds));
    let wall = start.elapsed();
    let cpu = cpu_time() - cpu0;
    let stats = stats_delta(&workload.kernel().stats(), &before);
    let http_after = workload.http_fs_stats().unwrap_or_default();
    Phase {
        samples,
        wall,
        cpu,
        stats,
        http_bytes_fetched: http_after.bytes_fetched - http_before.bytes_fetched,
        http_cache_hits: http_after.cache_hits - http_before.cache_hits,
        http_pages_fetched: http_after.pages_fetched - http_before.pages_fetched,
    }
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.samples.absorb(other.samples);
        self.wall += other.wall;
        self.cpu += other.cpu;
        self.stats.merge(&other.stats);
        self.http_bytes_fetched += other.http_bytes_fetched;
        self.http_cache_hits += other.http_cache_hits;
        self.http_pages_fetched += other.http_pages_fetched;
    }

    fn ops(&self) -> f64 {
        self.samples.attempted.max(1) as f64
    }

    fn sorted_latencies(&self) -> Vec<u64> {
        let mut v = self.samples.latencies_ns.clone();
        v.sort_unstable();
        v
    }

    fn p50_ms(&self) -> f64 {
        percentile(&self.sorted_latencies(), 50.0) as f64 / 1e6
    }
}

/// The modelled browser transport cost: Chrome's `postMessage` latency per
/// crossing (framed batches up, messages down) plus its structured-clone
/// cost per copied byte.  Ring doorbells are free in the model.
fn browser_ms(stats: &browsix_core::KernelStats) -> f64 {
    let chrome = PlatformConfig::chrome();
    let crossings = (stats.batches + stats.messages_to_workers) as f64;
    let clone_ns = chrome.structured_clone_ns_per_byte as f64 * stats.bytes_copied as f64;
    crossings * chrome.post_message_latency.as_secs_f64() * 1e3 + clone_ns / 1e6
}

/// What a run's rounds produced: set-up times, each untraced round's timed
/// phase, and the traced rounds' phases pooled.
#[derive(Default)]
struct Rounds {
    setup_s: Vec<f64>,
    plain: Vec<Phase>,
    traced: Phase,
    totals: Option<trace::TraceTotals>,
}

/// Runs one round per entry of `traced`, splitting `seconds` evenly: each
/// round sets the workload up afresh (timed), measures it, and shuts its
/// kernel down.  Fresh kernels per round keep one unlucky thread placement
/// from deciding a whole run.
fn run_rounds(args: &Args, traced: &[bool]) -> Rounds {
    let seconds = args.seconds / traced.len() as f64;
    let mut rounds = Rounds::default();
    for &with_trace in traced {
        let start = Instant::now();
        let mut workload = workloads::set_up(&args.workload, args.seed, with_trace);
        rounds.setup_s.push(start.elapsed().as_secs_f64());
        if with_trace {
            trace::reset_totals();
        }
        let phase = timed_phase(workload.as_mut(), seconds);
        // Read the aggregates before shutdown, whose calls are not timed work.
        let totals = with_trace.then(trace::totals);
        drop(workload);
        if let Some(totals) = totals {
            match &mut rounds.totals {
                Some(all) => all.absorb(totals),
                None => rounds.totals = Some(totals),
            }
            rounds.traced.absorb(phase);
        } else {
            rounds.plain.push(phase);
        }
    }
    rounds
}

// ---- the two modes -----------------------------------------------------------------------

fn end_to_end(args: &Args) -> (Metrics, Samples, String) {
    let rounds = run_rounds(args, &[false; ROUNDS]);
    // Every metric is the median of its per-round values: a burst of
    // contention from outside the process that hits one or two rounds
    // cannot move it.
    let median_of = |f: &dyn Fn(&Phase) -> f64| median_f64(&rounds.plain.iter().map(f).collect::<Vec<_>>());
    let op_ms = |p: f64| median_of(&|r: &Phase| percentile(&r.sorted_latencies(), p) as f64 / 1e6);
    let metrics: Metrics = vec![
        ("setup_s".into(), median_f64(&rounds.setup_s), "s"),
        ("op_p50_ms".into(), op_ms(50.0), "ms"),
        ("op_p90_ms".into(), op_ms(90.0), "ms"),
        (
            "ops_per_s".into(),
            median_of(&|r| (r.samples.attempted - r.samples.failed) as f64 / r.wall.as_secs_f64()),
            "ops/s",
        ),
        (
            "cpu_ms_per_op".into(),
            median_of(&|r| r.cpu.as_secs_f64() * 1e3 / r.ops()),
            "ms",
        ),
        ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
    ];
    // Reported but not bounded: on a shared 2-vCPU host the tail follows
    // contention from outside the process more than the program.
    let op_p99_ms = op_ms(99.0);
    let browser_model_ms = median_of(&|r| browser_ms(&r.stats) / r.ops());
    let p50_rounds: Vec<f64> = rounds.plain.iter().map(Phase::p50_ms).collect();
    let mut all = Phase::default();
    for round in rounds.plain {
        all.absorb(round);
    }
    let sorted = all.sorted_latencies();
    let n = sorted.len();
    let beyond = |p: f64| n - n.min((p * n as f64).ceil() as usize);
    let detail = format!(
        "\"samples\": {n}, \"beyond_p90_per_round\": {}, \"beyond_p99_per_round\": {}, \"op_p99_ms\": {op_p99_ms}, \"browser_model_ms_per_op\": {browser_model_ms}, \"setup_s_rounds\": {:?}, \"op_p50_ms_rounds\": {p50_rounds:?}, \"timed_s\": {}",
        beyond(0.9) / ROUNDS,
        beyond(0.99) / ROUNDS,
        rounds.setup_s,
        all.wall.as_secs_f64()
    );
    (metrics, all.samples, detail)
}

fn traced(args: &Args) -> (Metrics, Samples, String) {
    // Untraced and traced rounds alternate, so drift in the host's speed
    // does not show up as tracing overhead.
    let rounds = run_rounds(args, &[false, true, false, true]);
    let mut untraced = Phase::default();
    for round in rounds.plain {
        untraced.absorb(round);
    }
    let phase = rounds.traced;
    let totals = rounds.totals.expect("traced rounds ran");

    let ops = phase.ops();
    let s = &phase.stats;
    let per_op = |v: u64| v as f64 / ops;
    let kib_per_op = |v: u64| v as f64 / 1024.0 / ops;
    let us_p50 = |durations: &[u64]| {
        let mut d = durations.to_vec();
        d.sort_unstable();
        percentile(&d, 50.0) as f64 / 1e3
    };
    let page_cache_ratio = if args.workload == "latex_build" {
        ratio(
            phase.http_cache_hits as f64,
            (phase.http_cache_hits + phase.http_pages_fetched) as f64,
        )
    } else {
        ratio(
            s.page_cache_hits as f64,
            (s.page_cache_hits + s.page_cache_misses) as f64,
        )
    };
    let runtime_calls: u64 = totals.runtime.iter().map(|t| t.calls).sum();
    let runtime_errors: u64 = totals.runtime.iter().map(|t| t.errors).sum();

    let mut metrics: Metrics = vec![
        (
            "host.spawn_us_p50".into(),
            us_p50(&totals.host_spawn.durations_ns),
            "us",
        ),
        (
            "browser.posts_per_op".into(),
            per_op(s.batches + s.messages_to_workers),
            "count",
        ),
        ("browser.clone_kb_per_op".into(), kib_per_op(s.bytes_copied), "KiB"),
        (
            "browser.net_kb_per_op".into(),
            kib_per_op(phase.http_bytes_fetched),
            "KiB",
        ),
        ("runtime.calls_per_op".into(), per_op(runtime_calls), "count"),
        ("runtime.errors_per_op".into(), per_op(runtime_errors), "count"),
    ];
    for (class, t) in trace::CLASSES.iter().zip(&totals.runtime) {
        metrics.push((format!("runtime.{class}.us_p50"), us_p50(&t.durations_ns), "us"));
        metrics.push((format!("runtime.{class}.ms_per_op"), t.busy_ns as f64 / 1e6 / ops, "ms"));
    }
    let framed_calls = s.total_syscalls - s.sq_polled;
    metrics.extend([
        ("core.kernel.syscalls_per_op".into(), per_op(s.total_syscalls), "count"),
        ("core.kernel.batches_per_op".into(), per_op(s.batches), "count"),
        (
            "core.kernel.calls_per_batch".into(),
            ratio(framed_calls as f64, s.batches as f64),
            "count",
        ),
        ("core.kernel.spawns_per_op".into(), per_op(s.processes_spawned), "count"),
        ("core.ring.sqes_per_op".into(), per_op(s.sq_polled), "count"),
        ("core.ring.doorbells_per_op".into(), per_op(s.doorbells), "count"),
        ("core.ring.cqes_per_op".into(), per_op(s.cq_posted), "count"),
        (
            "core.ring.sqes_per_doorbell".into(),
            ratio(s.sq_polled as f64, s.doorbells as f64),
            "count",
        ),
        ("core.waitq.parks_per_op".into(), per_op(s.waiters_parked), "count"),
        ("core.waitq.wakeups_per_op".into(), per_op(s.wakeups), "count"),
        (
            "core.waitq.spurious_ratio".into(),
            ratio(s.spurious_wakeups as f64, (s.wakeups + s.spurious_wakeups) as f64),
            "ratio",
        ),
        ("core.waitq.eagain_per_op".into(), per_op(s.eagain_returns), "count"),
        (
            "core.streams.sendfile_kb_per_op".into(),
            kib_per_op(s.sendfile_bytes),
            "KiB",
        ),
        (
            "core.streams.zero_copy_pages_per_op".into(),
            per_op(s.zero_copy_pages),
            "count",
        ),
        ("core.shard.msgs_per_op".into(), per_op(s.shard_msgs_sent), "count"),
        ("core.shard.steals_per_op".into(), per_op(s.steals), "count"),
        (
            "core.shard.cross_wakeups_per_op".into(),
            per_op(s.cross_shard_wakeups),
            "count",
        ),
        ("fs.calls_per_op".into(), per_op(totals.fs.calls), "count"),
        ("fs.busy_ms_per_op".into(), totals.fs.busy_ns as f64 / 1e6 / ops, "ms"),
        ("fs.read_kb_per_op".into(), kib_per_op(totals.fs.read_bytes), "KiB"),
        ("fs.write_kb_per_op".into(), kib_per_op(totals.fs.write_bytes), "KiB"),
        (
            "fs.dentry_hit_ratio".into(),
            ratio(
                s.dentry_cache_hits as f64,
                (s.dentry_cache_hits + s.dentry_cache_misses) as f64,
            ),
            "ratio",
        ),
        ("fs.page_cache_hit_ratio".into(), page_cache_ratio, "ratio"),
        (
            "trace.overhead_pct".into(),
            (ratio(phase.p50_ms(), untraced.p50_ms()) - 1.0) * 100.0,
            "%",
        ),
    ]);

    let spans_path = std::path::PathBuf::from(".bench_out").join(format!("spans-{}.jsonl", args.workload));
    let spans = match trace::write_spans(&spans_path) {
        Ok((kept, dropped)) => format!(
            "\"spans\": \"{}\", \"spans_kept\": {kept}, \"spans_dropped\": {dropped}",
            spans_path.display()
        ),
        Err(e) => format!("\"spans_error\": \"{e}\""),
    };
    let detail = format!(
        "\"browser_model_ms_per_op\": {}, \"samples_untraced\": {}, \"samples_traced\": {}, \"p50_ms_untraced\": {}, \"p50_ms_traced\": {}, {spans}",
        browser_ms(&phase.stats) / ops,
        untraced.samples.attempted,
        phase.samples.attempted,
        untraced.p50_ms(),
        phase.p50_ms()
    );
    let mut samples = untraced.samples;
    samples.absorb(phase.samples);
    (metrics, samples, detail)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--source <id>]");
            return ExitCode::from(2);
        }
    };
    let shape = workloads::shape(&args.workload);
    // Read before pinning, which narrows what this reports to one CPU.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned_cpu = match shape.one_cpu.then(pin_to_one_cpu).transpose() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("perfbench: cannot pin to one CPU: {e}");
            return ExitCode::from(2);
        }
    };
    let (metrics, samples, detail) = if args.trace { traced(&args) } else { end_to_end(&args) };

    // The configuration the numbers were taken in, next to them.
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"mode\": \"{}\", \"nproc\": {nproc}, \"pinned_cpu\": {}, \"shards\": {}, \"convention\": \"{}\", \"clients\": {}, \"platform\": \"PlatformConfig::fast (no injected delays)\", \"profile\": \"ExecutionProfile::instant\", \"network\": \"NetworkProfile::instant\", \"build_profile\": \"{}\", \"source\": \"{}\", \"error_rate\": {}, {detail}}}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "end_to_end" },
        pinned_cpu.map_or("null".into(), |c| c.to_string()),
        shape.shards,
        shape.convention,
        shape.clients,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.source,
        ratio(samples.failed as f64, samples.attempted as f64),
    );
    for (name, value, unit) in &metrics {
        println!("{name:<40} {value:>14.4} {unit}");
    }
    if samples.failed > 0 {
        println!(
            "FAILED: {} of {} operations; first failure: {}",
            samples.failed,
            samples.attempted,
            samples.first_failure.as_deref().unwrap_or("?")
        );
    }

    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        samples.failed == 0 && samples.attempted > 0,
        samples.attempted,
        samples.failed
    );
    ExitCode::SUCCESS
}
