//! Criterion bench for gathered writes: a pipe/write-heavy workload issued
//! as one syscall per line versus one `write_vectored`, under both transport
//! conventions.
//!
//! The producer pushes `LINES` small lines through a pipe to a consumer.
//! The per-call variant pays the full transport cost (postMessage latency +
//! structured clone, or shared-heap wake) once per line; the `*_batched`
//! variants gather all the lines with `write_vectored` into one `write` and
//! pay it once.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use browsix_browser::PlatformConfig;
use browsix_core::{BootConfig, Kernel};
use browsix_runtime::{
    guest, EmscriptenLauncher, EmscriptenMode, ExecutionProfile, NodeLauncher, RuntimeEnv, SpawnStdio,
    SyscallConvention,
};

/// Number of writes the producer issues.
const LINES: usize = 256;
/// One line of payload (64 bytes + newline).
const LINE: &[u8] = b"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcde\n";

/// Registers producer/consumer pairs and boots a kernel with realistic
/// Chrome-like transport costs.  `sync` picks the transport convention,
/// `batched` picks the producer's write strategy.
fn boot(sync: bool, batched: bool) -> Kernel {
    let convention = if sync {
        SyscallConvention::Sync
    } else {
        SyscallConvention::Async
    };
    let profile = ExecutionProfile::instant(convention);
    let producer = guest("producer", move |env: &mut dyn RuntimeEnv| {
        // Write through a dup of stdout so the per-call variant bypasses the
        // runtime's stdout buffering: both variants then move the same bytes
        // through the same pipe, differing only in submissions.
        if env.dup2(1, 3).is_err() {
            return 1;
        }
        if batched {
            let bufs: Vec<&[u8]> = std::iter::repeat_n(LINE, LINES).collect();
            if env.write_vectored(3, &bufs).unwrap_or(0) != LINES * LINE.len() {
                return 1;
            }
        } else {
            for _ in 0..LINES {
                if env.write(3, LINE).unwrap_or(0) != LINE.len() {
                    return 1;
                }
            }
        }
        0
    });
    let consumer = guest("consumer", |env: &mut dyn RuntimeEnv| {
        let (read_fd, write_fd) = env.pipe().unwrap();
        let child = env
            .spawn(
                "/usr/bin/producer",
                &["producer".to_string()],
                SpawnStdio {
                    stdout: Some(write_fd),
                    ..SpawnStdio::default()
                },
            )
            .unwrap();
        env.close(write_fd).unwrap();
        let mut received = 0;
        loop {
            let chunk = env.read(read_fd, 64 * 1024).unwrap_or_default();
            if chunk.is_empty() {
                break;
            }
            received += chunk.len();
        }
        let _ = env.wait(child as i32);
        if received == LINES * LINE.len() {
            0
        } else {
            1
        }
    });
    let config = BootConfig::in_memory().with_platform(PlatformConfig::chrome());
    let register = |path: &str, program| {
        let launcher: Arc<dyn browsix_core::ProgramLauncher> = if sync {
            Arc::new(EmscriptenLauncher::new("bench", program, EmscriptenMode::AsmJs).with_profile(profile.clone()))
        } else {
            Arc::new(NodeLauncher::new("bench", program).with_profile(profile.clone()))
        };
        config.registry.register(path, launcher);
    };
    register("/usr/bin/producer", producer);
    register("/usr/bin/consumer", consumer);
    Kernel::boot(config)
}

fn bench_batching(c: &mut Criterion) {
    let mut group = c.benchmark_group("syscall_batching");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .throughput(Throughput::Bytes((LINES * LINE.len()) as u64));
    for (name, sync, batched) in [
        ("async_per_call", false, false),
        ("async_batched", false, true),
        ("sync_per_call", true, false),
        ("sync_batched", true, true),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let kernel = boot(sync, batched);
                let handle = kernel.spawn("/usr/bin/consumer", &["consumer"], &[]).unwrap();
                assert!(handle.wait().success(), "{name} pipeline failed");
                kernel.shutdown();
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batching);
criterion_main!(benches);
