//! End-to-end tests for the persistent syscall rings and the zero-copy data
//! path: `httpd` serving a large file over `sendfile` without the bytes ever
//! entering guest memory, and synchronous processes whose every system call
//! rides the shared-memory submission/completion rings — including calls
//! whose frames are too large for a ring slot and spill into the registered
//! buffers.

use std::sync::Arc;
use std::time::Duration;

use browsix_core::{BootConfig, Kernel, KernelStats};
use browsix_fs::{FileSystem, OpenFlags};
use browsix_http::{HttpRequest, Method};
use browsix_runtime::{
    guest, EmscriptenLauncher, EmscriptenMode, ExecutionProfile, GuestFactory, NodeLauncher, PollFd, RuntimeEnv,
    SyscallConvention,
};

fn instant(convention: SyscallConvention) -> ExecutionProfile {
    ExecutionProfile::instant(convention)
}

// ---- sendfile: zero-copy file serving ----------------------------------------

/// One megabyte served end-to-end over `sendfile`: the body must arrive
/// intact, the kernel must account a full megabyte of zero-copy transfer
/// (256 pages), and — the point of the exercise — the guest's data-path
/// `read`/`write` traffic must NOT scale with the body.  The server touches
/// the request line and the response header; the 1 MiB of payload moves
/// page cache → socket entirely inside the kernel.
#[test]
fn httpd_serves_one_mebibyte_over_sendfile_with_zero_data_path_syscalls() {
    const BODY: usize = 1024 * 1024;
    let config = browsix_apps::default_config();
    config.registry.register(
        "/usr/bin/httpd",
        Arc::new(
            NodeLauncher::new("httpd", browsix_apps::httpd_program()).with_profile(instant(SyscallConvention::Async)),
        ),
    );
    let kernel = browsix_apps::boot_standard_kernel(config, instant(SyscallConvention::Async));
    browsix_apps::stage_httpd_root(kernel.fs().as_ref());
    let payload: Vec<u8> = (0..BODY).map(|i| (i % 241) as u8).collect();
    kernel
        .fs()
        .write_file(&format!("{}/big.bin", browsix_apps::HTTPD_ROOT), &payload)
        .expect("stage big.bin");

    let server = kernel.spawn("/usr/bin/httpd", &["httpd"], &[]).expect("start httpd");
    assert!(kernel.wait_for_port(browsix_apps::HTTPD_PORT, Duration::from_secs(10)));

    // Settle, then snapshot: everything after `before` belongs to one request.
    let before = kernel.stats();
    let response = kernel
        .http_request(
            browsix_apps::HTTPD_PORT,
            HttpRequest::new(Method::Get, "/big.bin"),
            Duration::from_secs(30),
        )
        .expect("big.bin request");
    assert!(response.is_success());
    assert_eq!(response.body.len(), BODY);
    assert_eq!(response.body, payload, "sendfile corrupted the body");
    let after = kernel.stats();

    // The megabyte moved over sendfile, page by page, inside the kernel.
    assert!(after.count("sendfile") > before.count("sendfile"), "no sendfile issued");
    assert!(
        after.sendfile_bytes - before.sendfile_bytes >= BODY as u64,
        "sendfile moved {} bytes, expected at least {BODY}",
        after.sendfile_bytes - before.sendfile_bytes
    );
    assert!(
        after.zero_copy_pages - before.zero_copy_pages >= (BODY / 4096) as u64,
        "zero-copy page count did not cover the body: {}",
        after.zero_copy_pages - before.zero_copy_pages
    );

    // Zero data-path read/write syscalls: the guest read the request line and
    // wrote the header — a handful of calls — but nothing proportional to the
    // 1 MiB body (the copy path would need ≥ 16 round trips at 64 KiB each,
    // each a read AND a write).
    let reads = after.count("read") - before.count("read");
    let writes = after.count("write") - before.count("write");
    assert!(reads <= 4, "data-path reads leaked into the guest: {reads} reads");
    assert!(writes <= 4, "data-path writes leaked into the guest: {writes} writes");

    let _ = kernel.kill(server.pid, browsix_core::Signal::SIGKILL);
    kernel.shutdown();
}

/// `--copy` is the control: same request, classic read-then-write loop.  The
/// body still arrives intact but the zero-copy counters stay flat — proving
/// the sendfile test above is measuring the mechanism, not noise.
#[test]
fn httpd_copy_mode_serves_the_same_bytes_without_zero_copy() {
    let config = browsix_apps::default_config();
    config.registry.register(
        "/usr/bin/httpd",
        Arc::new(
            NodeLauncher::new("httpd", browsix_apps::httpd_program()).with_profile(instant(SyscallConvention::Async)),
        ),
    );
    let kernel = browsix_apps::boot_standard_kernel(config, instant(SyscallConvention::Async));
    browsix_apps::stage_httpd_root(kernel.fs().as_ref());
    let server = kernel
        .spawn("/usr/bin/httpd", &["httpd", "--copy"], &[])
        .expect("start httpd --copy");
    assert!(kernel.wait_for_port(browsix_apps::HTTPD_PORT, Duration::from_secs(10)));

    let before = kernel.stats();
    let response = kernel
        .http_request(
            browsix_apps::HTTPD_PORT,
            HttpRequest::new(Method::Get, "/payload.bin"),
            Duration::from_secs(30),
        )
        .expect("payload request");
    assert!(response.is_success());
    assert_eq!(response.body.len(), 32 * 1024);
    let after = kernel.stats();

    assert_eq!(
        after.sendfile_bytes, before.sendfile_bytes,
        "--copy must not use sendfile"
    );
    assert!(
        after.count("write") - before.count("write") >= 1,
        "copy mode serves the body through write"
    );

    let _ = kernel.kill(server.pid, browsix_core::Signal::SIGKILL);
    kernel.shutdown();
}

// ---- rings: the shell pipeline as transport workout --------------------------

/// Registers `program` at `/usr/bin/<name>` as an asm.js build running the
/// synchronous convention.
fn register_sync(config: &BootConfig, name: &'static str, program: GuestFactory) {
    config.registry.register(
        &format!("/usr/bin/{name}"),
        Arc::new(
            EmscriptenLauncher::new(name, program, EmscriptenMode::AsmJs)
                .with_profile(instant(SyscallConvention::Sync)),
        ),
    );
}

/// Boots a kernel whose shell, coreutils and `extra` guests are asm.js
/// builds running the synchronous convention — the only configuration where
/// processes get a shared heap, and therefore the one where the persistent
/// rings engage.  (The standard registrations use Emterpreter/Node
/// launchers, which are async-only, exactly as in the paper.)
fn boot_sync_world_with(extra: Vec<(&'static str, GuestFactory)>) -> Kernel {
    let config = browsix_apps::default_config();
    let shell = Arc::new(
        EmscriptenLauncher::new("dash", browsix_shell::shell_program(), EmscriptenMode::AsmJs)
            .with_profile(instant(SyscallConvention::Sync)),
    );
    config
        .registry
        .register("/bin/sh", shell.clone() as Arc<dyn browsix_core::ProgramLauncher>);
    config
        .registry
        .register("/bin/dash", shell as Arc<dyn browsix_core::ProgramLauncher>);
    for (name, factory) in browsix_utils::all_utilities().into_iter().chain(extra) {
        register_sync(&config, name, factory);
    }
    let kernel = Kernel::boot(config);
    for dir in ["/home", "/tmp", "/usr", "/usr/bin", "/bin"] {
        let _ = kernel.fs().mkdir(dir);
    }
    kernel
}

fn boot_sync_world() -> Kernel {
    boot_sync_world_with(Vec::new())
}

/// Every kernel syscall of a synchronous process is a ring entry except its
/// one asynchronous `ring_setup`: no other batch ever reaches the kernel.
fn assert_only_ring_traffic(stats: &KernelStats) {
    assert_eq!(
        stats.batches,
        stats.count("ring_setup"),
        "a synchronous process submitted a batch besides ring_setup"
    );
    assert!(stats.sq_polled > 0, "no SQEs were drained");
}

/// Runs `sh -c script` in `kernel` and returns its stdout, asserting it
/// exits 0.
fn run_sh(kernel: &Kernel, script: &str, env: &[(&str, &str)]) -> String {
    let handle = kernel.spawn("/bin/sh", &["sh", "-c", script], env).expect("spawn sh");
    let status = handle
        .wait_timeout(Duration::from_secs(30))
        .expect("script must finish");
    assert_eq!(status.code, Some(0), "stderr: {}", handle.stderr_string());
    handle.stdout_string()
}

/// A directory of 300 files: its listing (~5 KiB of entries) is a
/// completion too large for a ring slot.
fn sync_world_with_300_files() -> Kernel {
    let kernel = boot_sync_world();
    kernel.fs().mkdir("/tmp/many").unwrap();
    for i in 0..300 {
        kernel
            .fs()
            .write_file(&format!("/tmp/many/file-{i:03}.txt"), b"x")
            .unwrap();
    }
    kernel
}

/// A real shell pipeline under the Sync convention: every process sets up a
/// ring at startup and submits its system calls through it.  The pipeline's
/// output must be correct AND the kernel's ring counters must show the
/// transport actually carried the traffic (SQEs drained, doorbells rung,
/// CQEs posted).
#[test]
fn shell_pipeline_runs_over_the_ring_transport() {
    let kernel = boot_sync_world();
    let handle = kernel
        .spawn("/bin/sh", &["sh", "-c", "echo over the ring | cat"], &[])
        .expect("spawn pipeline");
    let status = handle
        .wait_timeout(Duration::from_secs(30))
        .expect("pipeline must finish");
    assert_eq!(status.code, Some(0), "stderr: {}", handle.stderr_string());
    assert_eq!(handle.stdout_string(), "over the ring\n");

    let stats = kernel.stats();
    assert!(stats.sq_polled > 0, "no SQEs were drained — rings never engaged");
    assert!(stats.cq_posted > 0, "no CQEs were posted");
    assert!(stats.doorbells > 0, "no doorbells were rung");
    // The shell, echo and cat all submitted real work through the rings: far
    // more entries than the handful of ring_setup calls themselves.
    assert!(
        stats.sq_polled > stats.count("ring_setup"),
        "rings carried only their own setup traffic"
    );
    assert_only_ring_traffic(&stats);
    kernel.shutdown();
}

// ---- spills: frames larger than a ring slot -----------------------------------

#[test]
fn ls_of_a_300_file_directory_spills_its_listing() {
    let kernel = sync_world_with_300_files();
    let out = run_sh(&kernel, "ls /tmp/many", &[]);
    for i in 0..300 {
        assert!(out.contains(&format!("file-{i:03}.txt")), "ls lost file-{i:03}.txt");
    }
    assert_only_ring_traffic(&kernel.stats());
    kernel.shutdown();
}

#[test]
fn shell_glob_over_a_300_file_directory() {
    let kernel = sync_world_with_300_files();
    let out = run_sh(&kernel, "echo /tmp/many/file-*.txt", &[]);
    assert_eq!(out.split_whitespace().count(), 300, "glob expanded to: {out}");
    assert!(out.contains("/tmp/many/file-299.txt"));
    assert_only_ring_traffic(&kernel.stats());
    kernel.shutdown();
}

/// The shell passes its 4 KiB environment to `wc` in the `spawn` entry, a
/// submission too large for a slot.
#[test]
fn spawn_with_a_4_kib_environment_spills_its_submission() {
    let kernel = boot_sync_world();
    let big = "e".repeat(4096);
    let out = run_sh(&kernel, "echo $BIG | wc -c", &[("BIG", &big)]);
    assert_eq!(out.trim(), "4097");
    assert!(kernel.stats().count("spawn") >= 1);
    assert_only_ring_traffic(&kernel.stats());
    kernel.shutdown();
}

/// `poll` on 40 descriptors is a 249-byte submission, one over the slot.
#[test]
fn poll_on_40_fds_spills_its_submission() {
    let kernel = boot_sync_world_with(vec![(
        "poll40",
        guest("poll40", |env: &mut dyn RuntimeEnv| {
            let pipes = env.pipe_many(20).unwrap();
            for &(_, w) in pipes.iter().skip(1).step_by(2) {
                env.write(w, b"x").unwrap();
            }
            let mut fds: Vec<PollFd> = pipes
                .iter()
                .flat_map(|&(r, w)| [PollFd::readable(r), PollFd::writable(w)])
                .collect();
            assert_eq!(fds.len(), 40);
            // 10 readable read ends plus 20 writable write ends.
            let ready = env.poll(&mut fds, 0).unwrap();
            let readable: Vec<bool> = fds.iter().step_by(2).map(PollFd::is_readable).collect();
            let expected: Vec<bool> = (0..20).map(|i| i % 2 == 1).collect();
            if ready == 30 && readable == expected {
                0
            } else {
                env.eprint(&format!("ready={ready} readable={readable:?}\n"));
                1
            }
        }),
    )]);
    let handle = kernel.spawn("/usr/bin/poll40", &["poll40"], &[]).unwrap();
    let status = handle.wait_timeout(Duration::from_secs(30)).expect("poll40 finishes");
    assert_eq!(status.code, Some(0), "stderr: {}", handle.stderr_string());
    assert_only_ring_traffic(&kernel.stats());
    kernel.shutdown();
}

/// A synchronous `read(fd, 600 KiB)` is larger than one completion can
/// carry: it returns short (POSIX allows it), the rest follows on the next
/// read, and the kernel keeps serving the process afterwards.
#[test]
fn oversized_sync_read_is_short_and_the_kernel_keeps_serving() {
    const SIZE: usize = 600 * 1024;
    fn content() -> Vec<u8> {
        (0..SIZE).map(|i| (i % 251) as u8).collect()
    }
    let kernel = boot_sync_world_with(vec![(
        "bigread",
        guest("bigread", |env: &mut dyn RuntimeEnv| {
            let expected = content();
            let Ok(fd) = env.open("/tmp/big.bin", OpenFlags::read_only()) else {
                return 2;
            };
            let (Ok(first), Ok(rest)) = (env.read(fd, SIZE), env.read(fd, SIZE)) else {
                env.eprint("read failed\n");
                return 3;
            };
            let size = env.stat("/tmp/big.bin").map(|m| m.size);
            let tail = env.pread(fd, 16, (SIZE - 16) as u64);
            let whole = [first.as_slice(), rest.as_slice()].concat();
            if first.len() < SIZE
                && whole == expected
                && size == Ok(SIZE as u64)
                && tail == Ok(expected[SIZE - 16..].to_vec())
            {
                env.print(&format!("{}\n", first.len()));
                0
            } else {
                env.eprint(&format!("first={} rest={} size={size:?}\n", first.len(), rest.len()));
                1
            }
        }),
    )]);
    kernel.fs().write_file("/tmp/big.bin", &content()).unwrap();
    let handle = kernel.spawn("/usr/bin/bigread", &["bigread"], &[]).unwrap();
    let status = handle.wait_timeout(Duration::from_secs(30)).expect("bigread finishes");
    assert_eq!(status.code, Some(0), "stderr: {}", handle.stderr_string());
    let geo = browsix_core::ring::RingGeometry::standard(0);
    assert_eq!(handle.stdout_string().trim(), geo.max_read_bytes().to_string());
    assert_only_ring_traffic(&kernel.stats());
    kernel.shutdown();
}
