//! End-to-end tests for `write_vectored`: a guest gathering ~20k short lines
//! (about 1 MiB, more than the 64 KiB pipe and the 256 KiB sync staging
//! area) into one `writev` must deliver them in order, byte for byte, with a
//! handful of system calls rather than one per line — under both the
//! asynchronous (Node) and the synchronous (asm.js over the rings)
//! conventions.

use std::sync::Arc;

use browsix_core::{BootConfig, Kernel, ProgramLauncher};
use browsix_runtime::{
    guest, EmscriptenLauncher, EmscriptenMode, ExecutionProfile, GuestFactory, NodeLauncher, RuntimeEnv, SpawnStdio,
    SyscallConvention,
};

/// Number of lines the writer gathers into one `write_vectored`.
const LINES: usize = 20_000;

/// Upper bound on the system calls of a whole run (both processes, spawn
/// to exit).  Writing one call per line would cost ~20k.
const MAX_SYSCALLS: u64 = 64;

fn line(i: usize) -> String {
    format!("{i:08} the quick brown fox jumps over the lazy dog\n")
}

fn expected() -> Vec<u8> {
    (0..LINES).flat_map(|i| line(i).into_bytes()).collect()
}

fn writer() -> GuestFactory {
    guest("writer", |env: &mut dyn RuntimeEnv| {
        let lines: Vec<String> = (0..LINES).map(line).collect();
        let bufs: Vec<&[u8]> = lines.iter().map(|l| l.as_bytes()).collect();
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        match env.write_vectored(1, &bufs) {
            Ok(n) if n == total => 0,
            _ => 1,
        }
    })
}

fn reader() -> GuestFactory {
    guest("reader", |env: &mut dyn RuntimeEnv| {
        let (r, w) = env.pipe().unwrap();
        let child = env
            .spawn(
                "/usr/bin/writer",
                &["writer".to_string()],
                SpawnStdio {
                    stdout: Some(w),
                    ..SpawnStdio::default()
                },
            )
            .unwrap();
        env.close(w).unwrap();
        let mut received = Vec::new();
        loop {
            let chunk = env.read(r, 64 * 1024).unwrap();
            if chunk.is_empty() {
                break;
            }
            received.extend_from_slice(&chunk);
        }
        if env.wait(child as i32).unwrap().exit_code != Some(0) {
            return 2;
        }
        if received != expected() {
            return 3;
        }
        0
    })
}

/// System calls, `write`s and ring SQEs the kernel counted over one run.
struct RunCounts {
    syscalls: u64,
    writes: u64,
    sqes: u64,
}

/// Boots a kernel with the writer/reader pair as asm.js over the rings
/// (`sync`) or as Node programs, runs the reader to completion and returns
/// what the kernel counted for the run.
fn run(sync: bool) -> RunCounts {
    let config = BootConfig::in_memory();
    for (name, program) in [("writer", writer()), ("reader", reader())] {
        let launcher: Arc<dyn ProgramLauncher> = if sync {
            let profile = ExecutionProfile::instant(SyscallConvention::Sync);
            Arc::new(EmscriptenLauncher::new(name, program, EmscriptenMode::AsmJs).with_profile(profile))
        } else {
            let profile = ExecutionProfile::instant(SyscallConvention::Async);
            Arc::new(NodeLauncher::new(name, program).with_profile(profile))
        };
        config.registry.register(&format!("/usr/bin/{name}"), launcher);
    }
    let kernel = Kernel::boot(config);
    let before = kernel.stats();
    let handle = kernel.spawn("/usr/bin/reader", &["reader"], &[]).unwrap();
    let status = handle.wait();
    let after = kernel.stats();
    kernel.shutdown();
    assert!(
        status.success(),
        "status: {status:?}, stderr: {}",
        handle.stderr_string()
    );
    let counts = RunCounts {
        syscalls: after.total_syscalls - before.total_syscalls,
        writes: after.count("write") - before.count("write"),
        sqes: after.sq_polled - before.sq_polled,
    };
    assert!(
        counts.syscalls < MAX_SYSCALLS,
        "{} syscalls ({} writes) for one gathered write; bound {MAX_SYSCALLS}",
        counts.syscalls,
        counts.writes
    );
    counts
}

#[test]
fn write_vectored_is_one_gathered_write_on_the_async_convention() {
    let counts = run(false);
    assert_eq!(counts.writes, 1, "async writes are never split");
}

#[test]
fn write_vectored_is_one_gathered_write_over_the_sync_rings() {
    let counts = run(true);
    // 1 MiB leaves the 256 KiB staging area in a few pieces, not per line.
    assert!(counts.writes <= 8, "{} writes", counts.writes);
    assert!(counts.sqes > 0, "no SQEs were drained — rings never engaged");
}
