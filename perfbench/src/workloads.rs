//! The three workloads: set-up, seeded inputs, one operation, output check.
//!
//! Every kernel here is delay-free — `PlatformConfig::fast()`,
//! `ExecutionProfile::instant(..)` and `NetworkProfile::instant()` — so the
//! time measured is the Rust program's own work, and every kernel pins its
//! shard count explicitly so `BROWSIX_SHARDS` cannot change a workload.

use std::sync::Arc;
use std::time::{Duration, Instant};

use browsix_apps::latex::{
    bibtex_program, make_with_fork_support, pdflatex_program, sample_project, texlive_distribution,
};
use browsix_browser::{NetworkProfile, PlatformConfig, RemoteEndpoint};
use browsix_core::{BootConfig, ExecutableRegistry, Kernel, KernelStats};
use browsix_fs::{FileSystem, HttpFs, HttpFsStats, MemFs, MountedFs};
use browsix_http::{HttpRequest, Method};
use browsix_runtime::{
    EmscriptenLauncher, EmscriptenMode, ExecutionProfile, GuestFactory, NodeLauncher, SyscallConvention,
};

use crate::rng::Rng;
use crate::trace;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["shell_pipeline", "latex_build", "httpd_mix"];

/// How long one operation may take before it counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// What one workload's timed phase produced.
#[derive(Debug, Default)]
pub struct Samples {
    /// Latency of every attempted operation, failed ones included.
    pub latencies_ns: Vec<u64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// The first failure's description, for the report.
    pub first_failure: Option<String>,
}

impl Samples {
    fn record(&mut self, elapsed: Duration, outcome: Result<(), String>) {
        self.latencies_ns.push(elapsed.as_nanos() as u64);
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }

    /// Adds `other`'s samples and counts to these.
    pub fn absorb(&mut self, other: Samples) {
        self.latencies_ns.extend(other.latencies_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// The configuration a workload runs in, printed next to its metrics.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Kernel shards.
    pub shards: usize,
    /// Guest system-call convention.
    pub convention: &'static str,
    /// Host threads issuing operations.
    pub clients: usize,
    /// Whether the whole process runs on one CPU; see `pin_to_one_cpu` in
    /// `main.rs` for which workloads and why.
    pub one_cpu: bool,
}

/// A set-up workload, ready for its timed phase.
pub trait Workload {
    /// The kernel under test.
    fn kernel(&self) -> &Kernel;
    /// Runs operations back to back until `until`.
    fn run(&mut self, until: Instant) -> Samples;
    /// The TeX Live mount's counters, where there is one.
    fn http_fs_stats(&self) -> Option<HttpFsStats> {
        None
    }
}

/// The shard count, convention, client count and CPU pinning of workload
/// `name`.
pub fn shape(name: &str) -> Shape {
    match name {
        "shell_pipeline" => Shape {
            shards: SHARDS,
            convention: "async",
            clients: 1,
            one_cpu: true,
        },
        "latex_build" => Shape {
            shards: SHARDS,
            convention: "sync",
            clients: 1,
            one_cpu: false,
        },
        "httpd_mix" => Shape {
            shards: SHARDS,
            convention: "async",
            clients: HTTPD_CLIENTS,
            one_cpu: false,
        },
        _ => panic!("unknown workload {name}"),
    }
}

/// Boots workload `name` from `seed`, with the tracing decorators installed
/// when `traced`.
pub fn set_up(name: &str, seed: u64, traced: bool) -> Box<dyn Workload> {
    match name {
        "shell_pipeline" => Box::new(Pipeline::set_up(seed, traced)),
        "latex_build" => Box::new(LatexBuild::set_up(seed, traced)),
        "httpd_mix" => Box::new(HttpdMix::set_up(seed, traced)),
        _ => panic!("unknown workload {name}"),
    }
}

// ---- shared set-up ---------------------------------------------------------------

/// `factory`, behind the tracing decorator when `traced`.
fn wrap(factory: GuestFactory, traced: bool) -> GuestFactory {
    if traced {
        trace::traced_factory(factory)
    } else {
        factory
    }
}

/// An in-memory file system, with the backend decorated when `traced`.
fn mem_backend(traced: bool) -> Arc<dyn FileSystem> {
    let memfs: Arc<dyn FileSystem> = Arc::new(MemFs::new());
    if traced {
        Arc::new(trace::TracedFs::new(memfs))
    } else {
        memfs
    }
}

/// Kernel shards, for every workload.
const SHARDS: usize = 1;

fn boot(root: Arc<MountedFs>, registry: ExecutableRegistry) -> Kernel {
    let config = BootConfig::in_memory()
        .with_fs(root)
        .with_registry(registry)
        .with_platform(PlatformConfig::fast())
        .with_shards(SHARDS);
    let kernel = Kernel::boot(config);
    for dir in ["/home", "/tmp", "/usr", "/usr/bin", "/bin"] {
        let _ = kernel.fs().mkdir(dir);
    }
    kernel
}

fn async_profile() -> ExecutionProfile {
    ExecutionProfile::instant(SyscallConvention::Async)
}

/// Registers the coreutils (Node.js runtime) and the shell (Emterpreter),
/// both on the asynchronous convention.
fn register_shell_and_utils(registry: &ExecutableRegistry, traced: bool) {
    for (name, factory) in browsix_utils::all_utilities() {
        let launcher = NodeLauncher::new(name, wrap(factory, traced)).with_profile(async_profile());
        registry.register(&format!("/usr/bin/{name}"), Arc::new(launcher));
    }
    let shell = EmscriptenLauncher::new(
        "dash",
        wrap(browsix_shell::shell_program(), traced),
        EmscriptenMode::Emterpreter,
    )
    .with_profile(async_profile());
    registry.register("/bin/sh", Arc::new(shell));
}

/// Times a host call into the kernel when tracing, runs it plainly otherwise.
fn host<T, E>(traced: bool, name: &'static str, call: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
    if traced {
        trace::host_call(name, call)
    } else {
        call()
    }
}

/// Spawns `argv` through the host API, waits for it and returns its
/// standard output, or why it failed.
fn run_to_exit(kernel: &Kernel, traced: bool, path: &str, argv: &[&str]) -> Result<String, String> {
    let handle =
        host(traced, "host.spawn", || kernel.spawn(path, argv, &[])).map_err(|e| format!("spawn {path}: {e}"))?;
    let status = host(traced, "host.wait", || handle.wait_timeout(OP_TIMEOUT).ok_or(()))
        .map_err(|()| format!("{path} timed out after {OP_TIMEOUT:?}"))?;
    if !status.success() {
        return Err(format!("{path} exited with {status:?}: {}", handle.stderr_string()));
    }
    Ok(handle.stdout_string())
}

/// Runs `op` back to back, one operation at a time, until `until`.
fn run_serially(until: Instant, mut op: impl FnMut() -> Result<(), String>) -> Samples {
    let mut samples = Samples::default();
    while Instant::now() < until {
        let start = Instant::now();
        let outcome = op();
        samples.record(start.elapsed(), outcome);
    }
    samples
}

// ---- shell_pipeline ------------------------------------------------------------------

/// Size of the generated pipeline input.
const PIPELINE_TEXT_BYTES: usize = 2 * 1024 * 1024;
const PIPELINE_INPUT: &str = "/home/bench/input.txt";

/// `cat F | grep P | sort | wc -l` over seeded text.
struct Pipeline {
    kernel: Kernel,
    traced: bool,
    command: String,
    expected: usize,
    next_op: u64,
}

/// Seeded text: lines of words over the letters `a`..`p`, a fifth of them
/// carrying the pattern, which alone uses `z` so it matches nothing else.
/// Returns the text, the pattern and how many lines contain it, counted
/// from the text itself.
fn pipeline_text(seed: u64) -> (Vec<u8>, String, usize) {
    let mut rng = Rng::new(seed ^ 0x7069_7065);
    let pattern: String = std::iter::once('z')
        .chain((0..5).map(|_| (b'a' + rng.below(16) as u8) as char))
        .collect();
    let vocabulary: Vec<String> = (0..512)
        .map(|_| {
            let len = 3 + rng.below(7) as usize;
            (0..len).map(|_| (b'a' + rng.below(16) as u8) as char).collect()
        })
        .collect();
    let mut text = String::with_capacity(PIPELINE_TEXT_BYTES + 128);
    while text.len() < PIPELINE_TEXT_BYTES {
        let words = 4 + rng.below(8) as usize;
        let hit_at = (rng.below(5) == 0).then(|| rng.below(words as u64) as usize);
        for i in 0..words {
            if i > 0 {
                text.push(' ');
            }
            if Some(i) == hit_at {
                text.push_str(&pattern);
            } else {
                text.push_str(&vocabulary[rng.below(vocabulary.len() as u64) as usize]);
            }
        }
        text.push('\n');
    }
    let matching = text.lines().filter(|line| line.contains(&pattern)).count();
    (text.into_bytes(), pattern, matching)
}

impl Pipeline {
    fn set_up(seed: u64, traced: bool) -> Pipeline {
        let registry = ExecutableRegistry::new();
        register_shell_and_utils(&registry, traced);
        let kernel = boot(Arc::new(MountedFs::new(mem_backend(traced))), registry);
        let (text, pattern, expected) = pipeline_text(seed);
        kernel.fs().mkdir("/home/bench").expect("mkdir /home/bench");
        kernel
            .fs()
            .write_file(PIPELINE_INPUT, &text)
            .expect("stage pipeline input");
        let mut pipeline = Pipeline {
            kernel,
            traced,
            command: format!("cat {PIPELINE_INPUT} | grep {pattern} | sort | wc -l"),
            expected,
            next_op: 0,
        };
        for _ in 0..2 {
            pipeline.op().expect("warm-up pipeline run");
        }
        pipeline
    }

    fn op(&mut self) -> Result<(), String> {
        self.next_op += 1;
        trace::set_current_op(self.next_op);
        let out = run_to_exit(&self.kernel, self.traced, "/bin/sh", &["sh", "-c", &self.command])?;
        let count: usize = out
            .split_whitespace()
            .next()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("wc printed {out:?}"))?;
        if count != self.expected {
            return Err(format!("pipeline counted {count} lines, expected {}", self.expected));
        }
        Ok(())
    }
}

impl Workload for Pipeline {
    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn run(&mut self, until: Instant) -> Samples {
        run_serially(until, || self.op())
    }
}

// ---- latex_build -------------------------------------------------------------------

const PROJECT: &str = "/home/paper";
/// Packages in the TeX Live distribution, as in the case study.
const PACKAGES: usize = 60;

/// The §5.2 editor: edit `main.tex`, delete the PDF, click Build.
struct LatexBuild {
    kernel: Kernel,
    texlive: Arc<HttpFs>,
    traced: bool,
    rng: Rng,
    seed: u64,
    next_op: u64,
}

/// A document citing the bibliography, using `packages` and carrying
/// `marker` in its body.
fn latex_document(packages: &[usize], marker: &str) -> String {
    let mut tex = String::from("\\documentclass{article}\n");
    for p in packages {
        tex.push_str(&format!("\\usepackage{{pkg{p:03}}}\n"));
    }
    tex.push_str(&format!(
        "\\begin{{document}}\n\\title{{Browsix}}\n\\maketitle\n{marker}: a single page with a citation~\\cite{{browsix}}.\n\\bibliographystyle{{plain}}\n\\bibliography{{main}}\n\\end{{document}}\n"
    ));
    tex
}

impl LatexBuild {
    fn set_up(seed: u64, traced: bool) -> LatexBuild {
        let (files, manifest) = texlive_distribution(PACKAGES);
        let endpoint = RemoteEndpoint::with_static_files(files, NetworkProfile::instant());
        let texlive = Arc::new(HttpFs::new(endpoint, manifest));
        let texlive_mount: Arc<dyn FileSystem> = if traced {
            Arc::new(trace::TracedFs::new(Arc::clone(&texlive) as Arc<dyn FileSystem>))
        } else {
            Arc::clone(&texlive) as Arc<dyn FileSystem>
        };
        let root = Arc::new(MountedFs::new(mem_backend(traced)));
        root.mkdir("/usr").expect("mkdir /usr");
        root.mount("/usr/texlive", texlive_mount).expect("mount texlive");

        // asm.js builds of the TeX tools: the synchronous convention over the
        // shared-memory rings.  Make has no fork there and spawns directly.
        let registry = ExecutableRegistry::new();
        let profile = ExecutionProfile::instant(SyscallConvention::Sync);
        for (path, name, factory) in [
            ("/usr/bin/pdflatex", "pdflatex", pdflatex_program()),
            ("/usr/bin/bibtex", "bibtex", bibtex_program()),
            ("/usr/bin/make", "make", make_with_fork_support()),
        ] {
            let launcher = EmscriptenLauncher::new(name, wrap(factory, traced), EmscriptenMode::AsmJs)
                .with_profile(profile.clone());
            registry.register(path, Arc::new(launcher));
        }
        let kernel = boot(root, registry);
        sample_project(kernel.fs().as_ref(), PROJECT);

        let mut latex = LatexBuild {
            kernel,
            texlive,
            traced,
            rng: Rng::new(seed ^ 0x006c_6174_6578),
            seed,
            next_op: 0,
        };
        // The cold TeX Live fetch: one build that uses every package faults
        // the whole distribution into the page cache.
        let all: Vec<usize> = (0..PACKAGES).collect();
        latex.build(&all).expect("warm-up build with every package");
        for _ in 0..2 {
            latex.op().expect("warm-up build");
        }
        latex
    }

    /// A seeded edit: 4 to 12 distinct packages.
    fn edit(&mut self) -> Vec<usize> {
        let mut packages: Vec<usize> = Vec::new();
        let want = 4 + self.rng.below(9) as usize;
        while packages.len() < want {
            let p = self.rng.below(PACKAGES as u64) as usize;
            if !packages.contains(&p) {
                packages.push(p);
            }
        }
        packages
    }

    fn op(&mut self) -> Result<(), String> {
        let packages = self.edit();
        self.build(&packages)
    }

    /// Writes the edited document, removes the PDF, runs `make` and checks
    /// the PDF it produced.
    fn build(&mut self, packages: &[usize]) -> Result<(), String> {
        self.next_op += 1;
        trace::set_current_op(self.next_op);
        let marker = format!("benchedit-{}-{}", self.seed, self.next_op);
        let fs = self.kernel.fs();
        fs.write_file(
            &format!("{PROJECT}/main.tex"),
            latex_document(packages, &marker).as_bytes(),
        )
        .map_err(|e| format!("write main.tex: {e}"))?;
        let pdf_path = format!("{PROJECT}/main.pdf");
        let _ = fs.unlink(&pdf_path);
        let out = run_to_exit(&self.kernel, self.traced, "/usr/bin/make", &["make", "-C", PROJECT])?;
        let pdf = fs.read_file(&pdf_path).map_err(|e| format!("read main.pdf: {e}"))?;
        if !pdf.starts_with(b"%PDF") {
            return Err("main.pdf does not start with %PDF".into());
        }
        let body = String::from_utf8_lossy(&pdf);
        if !body.contains(&marker) {
            return Err(format!("main.pdf lacks this edit's marker {marker}"));
        }
        if !body.contains("\\bibitem{browsix}") || !out.contains("Citations resolved: true") {
            return Err("citations were not resolved".into());
        }
        Ok(())
    }
}

impl Workload for LatexBuild {
    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn run(&mut self, until: Instant) -> Samples {
        run_serially(until, || self.op())
    }

    fn http_fs_stats(&self) -> Option<HttpFsStats> {
        Some(self.texlive.stats())
    }
}

// ---- httpd_mix -----------------------------------------------------------------------

const HTTPD_PORT: u16 = 8000;
/// Host threads in the closed loop.  With two, about half the requests wait
/// behind the other client's and the median sits on the jump between the
/// two latency modes, so it flips between runs; one client has one mode.
pub const HTTPD_CLIENTS: usize = 1;
/// Requests each client makes while the workload warms up.
const WARM_UP_REQUESTS: u64 = 500;

/// One `httpd` and a closed loop of host clients over a seeded path mix.
struct HttpdMix {
    kernel: Kernel,
    traced: bool,
    seed: u64,
    files: Vec<(String, Vec<u8>)>,
    next_op: Arc<std::sync::atomic::AtomicU64>,
}

impl HttpdMix {
    fn set_up(seed: u64, traced: bool) -> HttpdMix {
        let registry = ExecutableRegistry::new();
        let launcher =
            NodeLauncher::new("httpd", wrap(browsix_apps::httpd_program(), traced)).with_profile(async_profile());
        registry.register("/usr/bin/httpd", Arc::new(launcher));
        let kernel = boot(Arc::new(MountedFs::new(mem_backend(traced))), registry);
        browsix_apps::stage_httpd_root(kernel.fs().as_ref());
        let files = ["/hello.txt", "/payload.bin"]
            .iter()
            .map(|p| {
                (
                    p.to_string(),
                    kernel.fs().read_file(&format!("/srv{p}")).expect("staged file"),
                )
            })
            .collect();
        host(traced, "host.spawn", || {
            kernel.spawn("/usr/bin/httpd", &["httpd", "--port", &HTTPD_PORT.to_string()], &[])
        })
        .expect("start httpd");
        assert!(
            kernel.wait_for_port(HTTPD_PORT, Duration::from_secs(10)),
            "httpd never listened"
        );
        let httpd = HttpdMix {
            kernel,
            traced,
            seed,
            files,
            next_op: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        };
        // Warm-up: a fixed number of requests from every client.
        let far = Instant::now() + OP_TIMEOUT;
        let warm = httpd.drive(far, WARM_UP_REQUESTS, seed ^ 0x5741_524d);
        assert_eq!(warm.failed, 0, "warm-up request failed: {:?}", warm.first_failure);
        httpd
    }

    /// One closed-loop client: the next request goes out when the previous
    /// one has been answered.
    fn client(&self, until: Instant, max_requests: u64, mut rng: Rng) -> Samples {
        let mut samples = Samples::default();
        while samples.attempted < max_requests && Instant::now() < until {
            let op = self.next_op.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            trace::set_current_op(op);
            // 80% the small page, 15% the 32 KiB payload (sendfile), 5% missing.
            let roll = rng.below(100);
            let (path, expected) = if roll < 80 {
                (self.files[0].0.clone(), Some(&self.files[0].1))
            } else if roll < 95 {
                (self.files[1].0.clone(), Some(&self.files[1].1))
            } else {
                (format!("/missing-{}.txt", rng.below(1000)), None)
            };
            let start = Instant::now();
            let result = host(self.traced, "host.http_request", || {
                self.kernel
                    .http_request(HTTPD_PORT, HttpRequest::new(Method::Get, &path), OP_TIMEOUT)
            });
            let outcome = match (result, expected) {
                (Err(e), _) => Err(format!("GET {path}: {e}")),
                (Ok(r), Some(body)) if r.status == 200 && &r.body == body => Ok(()),
                (Ok(r), None) if r.status == 404 => Ok(()),
                (Ok(r), _) => Err(format!(
                    "GET {path}: status {} with {} body bytes",
                    r.status,
                    r.body.len()
                )),
            };
            samples.record(start.elapsed(), outcome);
        }
        samples
    }

    /// Runs every client until `until` or until each has made
    /// `max_requests` requests.
    fn drive(&self, until: Instant, max_requests: u64, seed: u64) -> Samples {
        let mut all = Samples::default();
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..HTTPD_CLIENTS as u64)
                .map(|c| {
                    let rng = Rng::new(seed ^ (c + 1).wrapping_mul(0x9e37_79b9));
                    scope.spawn(move || self.client(until, max_requests, rng))
                })
                .collect();
            for client in clients {
                all.absorb(client.join().expect("client thread"));
            }
        });
        all
    }
}

impl Workload for HttpdMix {
    fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    fn run(&mut self, until: Instant) -> Samples {
        self.drive(until, u64::MAX, self.seed)
    }
}

/// The counters the benchmark reads, as `after - before`.
pub fn stats_delta(after: &KernelStats, before: &KernelStats) -> KernelStats {
    macro_rules! sub {
        ($($field:ident),*) => {
            KernelStats { $($field: after.$field - before.$field,)* ..KernelStats::default() }
        };
    }
    sub!(
        total_syscalls,
        async_syscalls,
        sync_syscalls,
        batches,
        bytes_copied,
        processes_spawned,
        messages_to_workers,
        dentry_cache_hits,
        dentry_cache_misses,
        page_cache_hits,
        page_cache_misses,
        waiters_parked,
        wakeups,
        spurious_wakeups,
        eagain_returns,
        sq_polled,
        doorbells,
        cq_posted,
        sendfile_bytes,
        zero_copy_pages,
        shard_msgs_sent,
        steals,
        cross_shard_wakeups
    )
}
