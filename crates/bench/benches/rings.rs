//! Criterion bench for the persistent shared-memory syscall rings: what one
//! synchronous submission costs.
//!
//! The guest creates a pipe and issues 256 *individual* small writes (no
//! batching — each is its own submission), then reads everything back.  The
//! client writes each entry into the shared-heap submission queue in place
//! and rings the doorbell (an `Atomics.notify`, which the platform model
//! charges nothing for) only when the kernel has parked.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use browsix_browser::PlatformConfig;
use browsix_core::{BootConfig, Kernel};
use browsix_runtime::{guest, EmscriptenLauncher, EmscriptenMode, ExecutionProfile, RuntimeEnv, SyscallConvention};

/// Number of individual writes the guest issues.
const WRITES: usize = 256;
/// One line of payload (64 bytes + newline).
const LINE: &[u8] = b"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcde\n";

/// Boots a kernel with realistic Chrome-like transport costs and one guest
/// that pumps [`WRITES`] individual writes through a pipe and reads them
/// back.
fn boot() -> Kernel {
    let profile = ExecutionProfile::instant(SyscallConvention::Sync);
    let writer = guest("ringwriter", |env: &mut dyn RuntimeEnv| {
        let Ok((read_fd, write_fd)) = env.pipe() else {
            return 1;
        };
        for _ in 0..WRITES {
            if env.write(write_fd, LINE).unwrap_or(0) != LINE.len() {
                return 1;
            }
        }
        if env.close(write_fd).is_err() {
            return 1;
        }
        let mut received = 0;
        loop {
            let chunk = env.read(read_fd, 64 * 1024).unwrap_or_default();
            if chunk.is_empty() {
                break;
            }
            received += chunk.len();
        }
        if received == WRITES * LINE.len() {
            0
        } else {
            1
        }
    });
    let config = BootConfig::in_memory().with_platform(PlatformConfig::chrome());
    config.registry.register(
        "/usr/bin/ringwriter",
        Arc::new(EmscriptenLauncher::new("bench", writer, EmscriptenMode::AsmJs).with_profile(profile)),
    );
    Kernel::boot(config)
}

fn bench_rings(c: &mut Criterion) {
    let kernel = boot();
    let mut group = c.benchmark_group("rings");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .throughput(Throughput::Elements(WRITES as u64));
    group.bench_function("ring_submit_256", |b| {
        b.iter(|| {
            let handle = kernel.spawn("/usr/bin/ringwriter", &["ringwriter"], &[]).unwrap();
            assert!(handle.wait().success(), "ring_submit_256 guest failed");
        })
    });
    group.finish();
    kernel.shutdown();
}

criterion_group!(benches, bench_rings);
criterion_main!(benches);
