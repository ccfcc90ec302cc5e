//! The traced run's instrumentation, kept entirely in the benchmark.
//!
//! Three decorators record spans at the layer boundaries the benchmark can
//! reach from outside the program:
//!
//! * [`traced_factory`] wraps a guest program so that every [`RuntimeEnv`]
//!   call it makes goes through [`TracedEnv`] (the runtime layer, seen from
//!   the guest);
//! * [`TracedFs`] / [`TracedHandle`] wrap each file-system backend the
//!   benchmark mounts (the `browsix-fs` layer, called by the kernel);
//! * [`host_call`] times calls the host makes into the kernel
//!   (`Kernel::spawn`, `Kernel::http_request`, ...).
//!
//! Every span carries the id of the operation that was current when it
//! started ([`set_current_op`]).  Spans stay in memory and are written out
//! once, when the run ends ([`write_spans`]).  Nothing here is installed
//! while the end-to-end metrics are measured.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use browsix_core::{Errno, SigAction, SigSet, Signal};
use browsix_fs::{DirEntry, FileHandle, FileSystem, FsResult, IoStats, Metadata, OpenFlags};
use browsix_runtime::env::Fd;
use browsix_runtime::{
    ExecutionProfile, GuestFactory, GuestProgram, MappedRegion, PollFd, RuntimeEnv, SpawnStdio, WaitedChild,
};

/// At most this many spans are kept for the span file; the per-layer
/// aggregates below count every call regardless.
const SPAN_CAPACITY: usize = 100_000;

/// The runtime call classes the per-layer metrics are split by.
pub const CLASSES: [&str; 4] = ["io", "meta", "proc", "net"];

/// One timed call at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call`, e.g. `runtime.read` or `fs.handle.read_at`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The operation that was current when the span started.
    pub op: u64,
}

/// Aggregates for one layer (or one runtime class).
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// Calls made.
    pub calls: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Sum of call durations, in nanoseconds.
    pub busy_ns: u64,
    /// Every call's duration, in nanoseconds (for percentiles).
    pub durations_ns: Vec<u64>,
    /// Bytes read through the layer.
    pub read_bytes: u64,
    /// Bytes written through the layer.
    pub write_bytes: u64,
}

impl LayerTotals {
    fn absorb(&mut self, other: LayerTotals) {
        self.calls += other.calls;
        self.errors += other.errors;
        self.busy_ns += other.busy_ns;
        self.durations_ns.extend(other.durations_ns);
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
    }

    fn record(&mut self, ns: u64, ok: bool) {
        self.calls += 1;
        self.busy_ns += ns;
        self.durations_ns.push(ns);
        if !ok {
            self.errors += 1;
        }
    }
}

#[derive(Default)]
struct TraceData {
    spans: Vec<Span>,
    dropped: u64,
    /// Indexed like [`CLASSES`].
    runtime: [LayerTotals; 4],
    fs: LayerTotals,
    host_spawn: LayerTotals,
}

/// The process-wide span recorder.
struct Tracer {
    epoch: Instant,
    current_op: AtomicU64,
    data: Mutex<TraceData>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        current_op: AtomicU64::new(0),
        data: Mutex::new(TraceData::default()),
    })
}

/// Marks `op` as the operation later spans belong to.
pub fn set_current_op(op: u64) {
    tracer().current_op.store(op, Ordering::Relaxed);
}

/// Where a finished span's aggregates go.
#[derive(Clone, Copy)]
enum Sink {
    Runtime(usize),
    Fs { read: u64, write: u64 },
    HostSpawn,
    SpanOnly,
}

struct Timer {
    start: Instant,
    op: u64,
}

fn start() -> Timer {
    Timer {
        start: Instant::now(),
        op: tracer().current_op.load(Ordering::Relaxed),
    }
}

fn finish(timer: Timer, name: &'static str, sink: Sink, ok: bool) {
    let end = Instant::now();
    let t = tracer();
    let ns = end.duration_since(timer.start).as_nanos() as u64;
    let mut data = t.data.lock().expect("a traced call panicked while recording");
    match sink {
        Sink::Runtime(class) => data.runtime[class].record(ns, ok),
        Sink::Fs { read, write } => {
            data.fs.record(ns, ok);
            data.fs.read_bytes += read;
            data.fs.write_bytes += write;
        }
        Sink::HostSpawn => data.host_spawn.record(ns, ok),
        Sink::SpanOnly => {}
    }
    if data.spans.len() < SPAN_CAPACITY {
        data.spans.push(Span {
            name,
            start_ns: timer.start.duration_since(t.epoch).as_nanos() as u64,
            end_ns: end.duration_since(t.epoch).as_nanos() as u64,
            op: timer.op,
        });
    } else {
        data.dropped += 1;
    }
}

/// A snapshot of the per-layer aggregates.
pub struct TraceTotals {
    /// Runtime calls, indexed like [`CLASSES`].
    pub runtime: [LayerTotals; 4],
    /// File-system backend and handle calls.
    pub fs: LayerTotals,
    /// `Kernel::spawn` calls made by the host.
    pub host_spawn: LayerTotals,
}

impl TraceTotals {
    /// Adds another round's aggregates to these.
    pub fn absorb(&mut self, other: TraceTotals) {
        for (mine, theirs) in self.runtime.iter_mut().zip(other.runtime) {
            mine.absorb(theirs);
        }
        self.fs.absorb(other.fs);
        self.host_spawn.absorb(other.host_spawn);
    }
}

/// Clears the aggregates (not the spans), so a measurement phase starts
/// from zero after set-up and warm-up.
pub fn reset_totals() {
    let mut data = tracer().data.lock().expect("a traced call panicked while recording");
    data.runtime = Default::default();
    data.fs = LayerTotals::default();
    data.host_spawn = LayerTotals::default();
}

/// The aggregates recorded since the last [`reset_totals`].
pub fn totals() -> TraceTotals {
    let data = tracer().data.lock().expect("a traced call panicked while recording");
    TraceTotals {
        runtime: data.runtime.clone(),
        fs: data.fs.clone(),
        host_spawn: data.host_spawn.clone(),
    }
}

/// Writes every kept span as one JSON object per line; returns
/// `(kept, dropped)`.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<(usize, u64)> {
    let data = tracer().data.lock().expect("a traced call panicked while recording");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &data.spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    out.flush()?;
    Ok((data.spans.len(), data.dropped))
}

/// Times one host call into the kernel.  `Kernel::spawn` calls (named
/// `host.spawn`) also feed the `host.spawn_us_p50` aggregate.
pub fn host_call<T, E>(name: &'static str, call: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
    let timer = start();
    let result = call();
    let sink = if name == "host.spawn" {
        Sink::HostSpawn
    } else {
        Sink::SpanOnly
    };
    finish(timer, name, sink, result.is_ok());
    result
}

// ---- runtime layer -------------------------------------------------------------

/// Wraps a guest program so each instance runs against a [`TracedEnv`].
pub fn traced_factory(inner: GuestFactory) -> GuestFactory {
    Arc::new(move || Box::new(TracedProgram { inner: inner() }) as Box<dyn GuestProgram>)
}

struct TracedProgram {
    inner: Box<dyn GuestProgram>,
}

impl GuestProgram for TracedProgram {
    fn run(&mut self, env: &mut dyn RuntimeEnv) -> i32 {
        self.inner.run(&mut TracedEnv { inner: env })
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A [`RuntimeEnv`] that times every call it forwards.
///
/// It forwards every method the Browsix environment implements itself, so
/// the guest issues exactly the system calls it would untraced; the
/// convenience helpers (`read_file`, `print`, ...) keep their trait defaults
/// and are therefore recorded as the calls they are made of.
pub struct TracedEnv<'a> {
    inner: &'a mut dyn RuntimeEnv,
}

const IO: usize = 0;
const META: usize = 1;
const PROC: usize = 2;
const NET: usize = 3;

/// Forwards one fallible call, recording it under `class`.
macro_rules! timed {
    ($class:expr, $name:literal, $call:expr) => {{
        let timer = start();
        let result = $call;
        finish(timer, concat!("runtime.", $name), Sink::Runtime($class), result.is_ok());
        result
    }};
}

/// Forwards one infallible call, recording it under `class`.
macro_rules! timed_ok {
    ($class:expr, $name:literal, $call:expr) => {{
        let timer = start();
        let result = $call;
        finish(timer, concat!("runtime.", $name), Sink::Runtime($class), true);
        result
    }};
}

impl RuntimeEnv for TracedEnv<'_> {
    fn args(&self) -> Vec<String> {
        self.inner.args()
    }
    fn env_vars(&self) -> Vec<(String, String)> {
        self.inner.env_vars()
    }
    fn getpid(&mut self) -> u32 {
        timed_ok!(PROC, "getpid", self.inner.getpid())
    }
    fn getppid(&mut self) -> u32 {
        timed_ok!(PROC, "getppid", self.inner.getppid())
    }
    fn getrusage(&mut self) -> Result<Vec<(String, u64)>, Errno> {
        timed!(PROC, "getrusage", self.inner.getrusage())
    }
    fn getcwd(&mut self) -> String {
        timed_ok!(META, "getcwd", self.inner.getcwd())
    }
    fn chdir(&mut self, path: &str) -> Result<(), Errno> {
        timed!(META, "chdir", self.inner.chdir(path))
    }
    fn open(&mut self, path: &str, flags: OpenFlags) -> Result<Fd, Errno> {
        timed!(META, "open", self.inner.open(path, flags))
    }
    fn close(&mut self, fd: Fd) -> Result<(), Errno> {
        timed!(IO, "close", self.inner.close(fd))
    }
    fn read(&mut self, fd: Fd, len: usize) -> Result<Vec<u8>, Errno> {
        timed!(IO, "read", self.inner.read(fd, len))
    }
    fn write(&mut self, fd: Fd, data: &[u8]) -> Result<usize, Errno> {
        timed!(IO, "write", self.inner.write(fd, data))
    }
    fn write_vectored(&mut self, fd: Fd, bufs: &[&[u8]]) -> Result<usize, Errno> {
        timed!(IO, "write_vectored", self.inner.write_vectored(fd, bufs))
    }
    fn flush_stdout(&mut self) -> Result<(), Errno> {
        timed!(IO, "flush_stdout", self.inner.flush_stdout())
    }
    fn pread(&mut self, fd: Fd, len: usize, offset: u64) -> Result<Vec<u8>, Errno> {
        timed!(IO, "pread", self.inner.pread(fd, len, offset))
    }
    fn pwrite(&mut self, fd: Fd, data: &[u8], offset: u64) -> Result<usize, Errno> {
        timed!(IO, "pwrite", self.inner.pwrite(fd, data, offset))
    }
    fn seek(&mut self, fd: Fd, offset: i64, whence: u32) -> Result<u64, Errno> {
        timed!(IO, "seek", self.inner.seek(fd, offset, whence))
    }
    fn dup2(&mut self, from: Fd, to: Fd) -> Result<(), Errno> {
        timed!(IO, "dup2", self.inner.dup2(from, to))
    }
    fn fstat(&mut self, fd: Fd) -> Result<Metadata, Errno> {
        timed!(META, "fstat", self.inner.fstat(fd))
    }
    fn fsync(&mut self, fd: Fd) -> Result<(), Errno> {
        timed!(IO, "fsync", self.inner.fsync(fd))
    }
    fn sendfile(&mut self, out_fd: Fd, in_fd: Fd, offset: i64, len: u64) -> Result<u64, Errno> {
        timed!(IO, "sendfile", self.inner.sendfile(out_fd, in_fd, offset, len))
    }
    fn splice(&mut self, fd_in: Fd, fd_out: Fd, len: u64) -> Result<u64, Errno> {
        timed!(IO, "splice", self.inner.splice(fd_in, fd_out, len))
    }
    fn poll(&mut self, fds: &mut [PollFd], timeout_ms: i32) -> Result<usize, Errno> {
        timed!(NET, "poll", self.inner.poll(fds, timeout_ms))
    }
    fn set_nonblocking(&mut self, fd: Fd, nonblocking: bool) -> Result<(), Errno> {
        timed!(NET, "set_nonblocking", self.inner.set_nonblocking(fd, nonblocking))
    }
    fn close_many(&mut self, fds: &[Fd]) -> Result<(), Errno> {
        timed!(IO, "close_many", self.inner.close_many(fds))
    }
    fn pipe_many(&mut self, count: usize) -> Result<Vec<(Fd, Fd)>, Errno> {
        timed!(IO, "pipe_many", self.inner.pipe_many(count))
    }
    fn stat(&mut self, path: &str) -> Result<Metadata, Errno> {
        timed!(META, "stat", self.inner.stat(path))
    }
    fn stat_many(&mut self, paths: &[&str]) -> Vec<Result<Metadata, Errno>> {
        timed_ok!(META, "stat_many", self.inner.stat_many(paths))
    }
    fn readdir(&mut self, path: &str) -> Result<Vec<DirEntry>, Errno> {
        timed!(META, "readdir", self.inner.readdir(path))
    }
    fn mkdir(&mut self, path: &str) -> Result<(), Errno> {
        timed!(META, "mkdir", self.inner.mkdir(path))
    }
    fn rmdir(&mut self, path: &str) -> Result<(), Errno> {
        timed!(META, "rmdir", self.inner.rmdir(path))
    }
    fn unlink(&mut self, path: &str) -> Result<(), Errno> {
        timed!(META, "unlink", self.inner.unlink(path))
    }
    fn rename(&mut self, from: &str, to: &str) -> Result<(), Errno> {
        timed!(META, "rename", self.inner.rename(from, to))
    }
    fn truncate(&mut self, path: &str, size: u64) -> Result<(), Errno> {
        timed!(META, "truncate", self.inner.truncate(path, size))
    }
    fn access(&mut self, path: &str) -> Result<(), Errno> {
        timed!(META, "access", self.inner.access(path))
    }
    fn utimes(&mut self, path: &str, atime_ms: u64, mtime_ms: u64) -> Result<(), Errno> {
        timed!(META, "utimes", self.inner.utimes(path, atime_ms, mtime_ms))
    }
    fn spawn(&mut self, path: &str, args: &[String], stdio: SpawnStdio) -> Result<u32, Errno> {
        timed!(PROC, "spawn", self.inner.spawn(path, args, stdio))
    }
    fn wait(&mut self, pid: i32) -> Result<WaitedChild, Errno> {
        timed!(PROC, "wait", self.inner.wait(pid))
    }
    fn wait_nohang(&mut self, pid: i32) -> Result<Option<WaitedChild>, Errno> {
        timed!(PROC, "wait_nohang", self.inner.wait_nohang(pid))
    }
    fn wait_options(&mut self, pid: i32, options: u32) -> Result<Option<WaitedChild>, Errno> {
        timed!(PROC, "wait_options", self.inner.wait_options(pid, options))
    }
    fn pipe(&mut self) -> Result<(Fd, Fd), Errno> {
        timed!(IO, "pipe", self.inner.pipe())
    }
    fn kill(&mut self, pid: u32, signal: Signal) -> Result<(), Errno> {
        timed!(PROC, "kill", self.inner.kill(pid, signal))
    }
    fn kill_group(&mut self, pgid: u32, signal: Signal) -> Result<(), Errno> {
        timed!(PROC, "kill_group", self.inner.kill_group(pgid, signal))
    }
    fn register_signal_handler(&mut self, signal: Signal) -> Result<(), Errno> {
        timed!(
            PROC,
            "register_signal_handler",
            self.inner.register_signal_handler(signal)
        )
    }
    fn sigaction(&mut self, signal: Signal, action: SigAction) -> Result<(), Errno> {
        timed!(PROC, "sigaction", self.inner.sigaction(signal, action))
    }
    fn sigprocmask(&mut self, how: u32, mask: SigSet) -> Result<SigSet, Errno> {
        timed!(PROC, "sigprocmask", self.inner.sigprocmask(how, mask))
    }
    fn setpgid(&mut self, pid: u32, pgid: u32) -> Result<(), Errno> {
        timed!(PROC, "setpgid", self.inner.setpgid(pid, pgid))
    }
    fn getpgid(&mut self, pid: u32) -> Result<u32, Errno> {
        timed!(PROC, "getpgid", self.inner.getpgid(pid))
    }
    fn tcsetpgrp(&mut self, pgid: u32) -> Result<(), Errno> {
        timed!(PROC, "tcsetpgrp", self.inner.tcsetpgrp(pgid))
    }
    fn pending_signals(&mut self) -> Vec<Signal> {
        timed_ok!(PROC, "pending_signals", self.inner.pending_signals())
    }
    fn fork(&mut self, image: Vec<u8>) -> Result<u32, Errno> {
        timed!(PROC, "fork", self.inner.fork(image))
    }
    fn fork_image(&self) -> Option<Vec<u8>> {
        self.inner.fork_image()
    }
    fn exit(&mut self, code: i32) {
        timed_ok!(PROC, "exit", self.inner.exit(code))
    }
    fn socket(&mut self) -> Result<Fd, Errno> {
        timed!(NET, "socket", self.inner.socket())
    }
    fn bind(&mut self, fd: Fd, port: u16) -> Result<u16, Errno> {
        timed!(NET, "bind", self.inner.bind(fd, port))
    }
    fn listen(&mut self, fd: Fd, backlog: u32) -> Result<(), Errno> {
        timed!(NET, "listen", self.inner.listen(fd, backlog))
    }
    fn accept(&mut self, fd: Fd) -> Result<Fd, Errno> {
        timed!(NET, "accept", self.inner.accept(fd))
    }
    fn connect(&mut self, fd: Fd, port: u16) -> Result<(), Errno> {
        timed!(NET, "connect", self.inner.connect(fd, port))
    }
    fn ftruncate(&mut self, fd: Fd, size: u64) -> Result<(), Errno> {
        timed!(IO, "ftruncate", self.inner.ftruncate(fd, size))
    }
    fn mmap(&mut self, addr: u64, len: u64, prot: u32, flags: u32, fd: Fd, offset: u64) -> Result<MappedRegion, Errno> {
        timed!(IO, "mmap", self.inner.mmap(addr, len, prot, flags, fd, offset))
    }
    fn munmap(&mut self, addr: u64, len: u64) -> Result<(), Errno> {
        timed!(IO, "munmap", self.inner.munmap(addr, len))
    }
    fn msync(&mut self, addr: u64, len: u64) -> Result<(), Errno> {
        timed!(IO, "msync", self.inner.msync(addr, len))
    }
    fn mprotect(&mut self, addr: u64, len: u64, prot: u32) -> Result<(), Errno> {
        timed!(IO, "mprotect", self.inner.mprotect(addr, len, prot))
    }
    fn shm_open(&mut self, name: &str, flags: OpenFlags, mode: u32) -> Result<Fd, Errno> {
        timed!(META, "shm_open", self.inner.shm_open(name, flags, mode))
    }
    fn shm_unlink(&mut self, name: &str) -> Result<(), Errno> {
        timed!(META, "shm_unlink", self.inner.shm_unlink(name))
    }
    fn vm_read(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, Errno> {
        timed!(IO, "vm_read", self.inner.vm_read(addr, len))
    }
    fn vm_write(&mut self, addr: u64, data: &[u8]) -> Result<(), Errno> {
        timed!(IO, "vm_write", self.inner.vm_write(addr, data))
    }
    fn charge_compute(&mut self, units: u64) {
        self.inner.charge_compute(units)
    }
    fn profile(&self) -> &ExecutionProfile {
        self.inner.profile()
    }
}

// ---- file-system layer -----------------------------------------------------------

/// Forwards one file-system call, recording it with the bytes it moved.
macro_rules! fs_timed {
    ($name:literal, $call:expr, $read:expr, $write:expr) => {{
        let timer = start();
        let result = $call;
        let read: fn(&_) -> u64 = $read;
        let sink = Sink::Fs {
            read: read(&result),
            write: $write,
        };
        finish(timer, concat!("fs.", $name), sink, result.is_ok());
        result
    }};
    ($name:literal, $call:expr) => {
        fs_timed!($name, $call, |_| 0, 0)
    };
}

/// A [`FileSystem`] backend decorator that times every call and wraps the
/// handles it opens in [`TracedHandle`].
pub struct TracedFs {
    inner: Arc<dyn FileSystem>,
}

impl TracedFs {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn FileSystem>) -> TracedFs {
        TracedFs { inner }
    }
}

impl FileSystem for TracedFs {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
    fn read_only(&self) -> bool {
        self.inner.read_only()
    }
    fn stat(&self, path: &str) -> FsResult<Metadata> {
        fs_timed!("stat", self.inner.stat(path))
    }
    fn read_dir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        fs_timed!("read_dir", self.inner.read_dir(path))
    }
    fn mkdir(&self, path: &str) -> FsResult<()> {
        fs_timed!("mkdir", self.inner.mkdir(path))
    }
    fn rmdir(&self, path: &str) -> FsResult<()> {
        fs_timed!("rmdir", self.inner.rmdir(path))
    }
    fn create(&self, path: &str, mode: u32) -> FsResult<()> {
        fs_timed!("create", self.inner.create(path, mode))
    }
    fn unlink(&self, path: &str) -> FsResult<()> {
        fs_timed!("unlink", self.inner.unlink(path))
    }
    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        fs_timed!("rename", self.inner.rename(from, to))
    }
    fn open_handle(&self, path: &str, flags: OpenFlags) -> FsResult<Arc<dyn FileHandle>> {
        let handle = fs_timed!("open_handle", self.inner.open_handle(path, flags))?;
        Ok(Arc::new(TracedHandle { inner: handle }))
    }
    fn read_at(&self, path: &str, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        fs_timed!("read_at", self.inner.read_at(path, offset, len), |r| read_len(r), 0)
    }
    fn write_at(&self, path: &str, offset: u64, data: &[u8]) -> FsResult<usize> {
        fs_timed!(
            "write_at",
            self.inner.write_at(path, offset, data),
            |_| 0,
            data.len() as u64
        )
    }
    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        fs_timed!("truncate", self.inner.truncate(path, size))
    }
    fn set_times(&self, path: &str, atime_ms: u64, mtime_ms: u64) -> FsResult<()> {
        fs_timed!("set_times", self.inner.set_times(path, atime_ms, mtime_ms))
    }
    fn chmod(&self, path: &str, mode: u32) -> FsResult<()> {
        fs_timed!("chmod", self.inner.chmod(path, mode))
    }
    fn exists(&self, path: &str) -> bool {
        let timer = start();
        let found = self.inner.exists(path);
        finish(timer, "fs.exists", Sink::Fs { read: 0, write: 0 }, true);
        found
    }
    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }
    fn read_file(&self, path: &str) -> FsResult<Vec<u8>> {
        fs_timed!("read_file", self.inner.read_file(path), |r| read_len(r), 0)
    }
    fn write_file(&self, path: &str, data: &[u8]) -> FsResult<()> {
        fs_timed!(
            "write_file",
            self.inner.write_file(path, data),
            |_| 0,
            data.len() as u64
        )
    }
}

fn read_len(result: &FsResult<Vec<u8>>) -> u64 {
    result.as_ref().map_or(0, |d| d.len() as u64)
}

/// A [`FileHandle`] decorator that times every call.
pub struct TracedHandle {
    inner: Arc<dyn FileHandle>,
}

impl FileHandle for TracedHandle {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
    fn metadata(&self) -> FsResult<Metadata> {
        fs_timed!("handle.metadata", self.inner.metadata())
    }
    fn read_at(&self, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        fs_timed!("handle.read_at", self.inner.read_at(offset, len), |r| read_len(r), 0)
    }
    fn write_at(&self, offset: u64, data: &[u8]) -> FsResult<usize> {
        fs_timed!(
            "handle.write_at",
            self.inner.write_at(offset, data),
            |_| 0,
            data.len() as u64
        )
    }
    fn append(&self, data: &[u8]) -> FsResult<u64> {
        fs_timed!("handle.append", self.inner.append(data), |_| 0, data.len() as u64)
    }
    fn truncate(&self, size: u64) -> FsResult<()> {
        fs_timed!("handle.truncate", self.inner.truncate(size))
    }
    fn fsync(&self) -> FsResult<()> {
        fs_timed!("handle.fsync", self.inner.fsync())
    }
    fn map_page(&self, page_index: u64, page_size: usize) -> FsResult<Arc<Vec<u8>>> {
        fs_timed!(
            "handle.map_page",
            self.inner.map_page(page_index, page_size),
            |r: &FsResult<Arc<Vec<u8>>>| r.as_ref().map_or(0, |p| p.len() as u64),
            0
        )
    }
}
