//! The kernel proper: state, event loop, process lifecycle and system-call
//! dispatch.
//!
//! The kernel runs on its own thread (the analogue of the main browser
//! thread) and owns every piece of shared state: the task table, the mounted
//! file system, streams (pipes and socket connections), sockets and the
//! wait queues of blocked system calls.  Everything else in the crate
//! funnels into `KernelState::run`.

mod dispatch_fs;
mod dispatch_proc;
mod dispatch_sock;
mod dispatch_vm;
mod poll;
pub mod shard;
pub mod waitq;

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use browsix_browser::{BlobRegistry, Message, PlatformConfig, Worker, WorkerScope};
use browsix_fs::{Errno, MountedFs};

use crate::events::{HostRequest, KernelEvent, OutputSink};
use crate::exec::{resolve_executable, ExecutableRegistry, ForkImage, LaunchContext, ProgramLauncher};
use crate::fd::{Fd, FileKind, OpenFile, SocketSide};
use crate::ring::{PushError, Ring, RingGeometry};
use crate::signals::{SigAction, Signal, SignalDisposition};
use crate::socket::{Connection, ConnectionId, SocketTable};
use crate::stats::KernelStats;
use crate::streams::{StreamId, StreamTable};
use crate::syscall::{encode_wait_status, Completion, CompletionBatch, SysResult, Syscall, Transport};
use crate::task::{InflightBatch, Pid, Task, TaskState};
use crate::wire::Reader;

pub(crate) use shard::{RemoteRevents, RouterState, ShardMsg};
pub(crate) use waitq::{HttpClientState, WaitKind, Waiter};
pub use waitq::{WaitChannel, WaitTable, WaiterId};

/// Where a system call's result belongs.
///
/// Asynchronous batch entries complete into the task's [`InflightBatch`]
/// (the reply sequence number lives there) and are delivered together.
/// Ring entries — every synchronous call — complete individually: each one
/// becomes a completion-queue entry tagged with the submitter's `user_data`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyTo {
    /// The slot of the entry within the asynchronous batch it arrived in.
    Batch {
        /// Index of the entry within its submission batch.
        index: u32,
    },
    /// An entry submitted through the task's persistent ring.
    Ring {
        /// The submitter's cookie, echoed on the completion entry.
        user_data: u32,
    },
}

/// Clamps a read's length to what one ring completion carries (a short
/// read, which POSIX allows); every other call passes through unchanged.
fn clamp_read(call: Syscall, max: u32) -> Syscall {
    match call {
        Syscall::Read { fd, len } => Syscall::Read { fd, len: len.min(max) },
        Syscall::Pread { fd, len, offset } => Syscall::Pread {
            fd,
            len: len.min(max),
            offset,
        },
        call => call,
    }
}

/// The outcome of dispatching a system call.
pub(crate) enum Outcome {
    /// The call finished; send this result.
    Complete(SysResult),
    /// The call blocked; a [`Waiter`] has been parked on its wait queue(s).
    Blocked,
    /// The call finished but no reply should be sent (`exit`).
    NoReply,
}

/// What a pending remote operation was, so its reply installs the right
/// state on the submitting shard.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RemoteKind {
    /// A read from a foreign stream.
    Read,
    /// A write to a foreign stream.
    Write,
    /// A connect to a listener on a foreign shard; the reply turns `fd`
    /// into the client side of the connection.
    Connect { fd: Fd },
}

/// A syscall parked on this shard while a foreign shard executes it; keyed
/// by the token the reply will carry.  Removing the entry on completion or
/// cancellation is what makes delivery exactly-once: a late or duplicate
/// reply finds no entry and is dropped.
pub(crate) struct PendingRemote {
    pub pid: Pid,
    pub reply: ReplyTo,
    pub kind: RemoteKind,
    /// The shard executing the op (receives `CancelOp` on EINTR/death).
    pub owner: usize,
}

/// Configuration captured at boot time and owned by the kernel thread.
pub(crate) struct KernelConfig {
    pub platform: PlatformConfig,
    pub fs: Arc<MountedFs>,
    pub registry: ExecutableRegistry,
    pub default_env: Vec<(String, String)>,
}

/// All kernel state of one shard.  Owned exclusively by that shard's
/// thread; the only state shared between shards is the [`RouterState`].
pub(crate) struct KernelState {
    config: PlatformConfig,
    fs: Arc<MountedFs>,
    registry: ExecutableRegistry,
    blobs: BlobRegistry,
    default_env: Vec<(String, String)>,

    /// This shard's index (`pid % nshards` names the owner of a task).
    shard_id: usize,
    nshards: usize,
    /// Every shard's event queue, `peers[shard_id]` being this shard's own
    /// (cross-shard messages and local re-submissions share one ordering).
    peers: Vec<Sender<KernelEvent>>,
    /// The global registries shared by all shards (never touched while
    /// bytes move on the data path).
    router: Arc<RouterState>,

    events_tx: Sender<KernelEvent>,
    tasks: HashMap<Pid, Task>,
    streams: StreamTable,
    sockets: SocketTable,
    /// Blocked system calls (and kernel HTTP clients), parked on the wait
    /// queues of exactly the resources they wait for.
    waiters: WaitTable<Waiter>,
    /// Channels whose wakeup is queued while another wake is draining.
    wake_queue: VecDeque<WaitChannel>,
    /// Re-entrancy guard for [`KernelState::wake`].
    waking: bool,
    /// `(deadline, waiter)` pairs for parked `poll`s with timeouts.
    poll_deadlines: Vec<(Instant, WaiterId)>,
    http_clients: Vec<HttpClientState>,

    /// Monotonic token counter for cross-shard operations this shard
    /// submits (tokens are only ever interpreted by the shard that minted
    /// them, so plain per-shard counters cannot collide).
    next_remote_token: u64,
    /// Syscalls executing on a foreign shard, keyed by token.
    remote_ops: HashMap<u64, PendingRemote>,
    /// Wait statuses of exited children that lived on foreign shards (the
    /// cross-shard form of a zombie, shipped here for this shard's wait4).
    remote_zombies: HashMap<Pid, i32>,
    /// Stop signals of remotely-stopped children not yet reported by a
    /// `WUNTRACED` wait.
    remote_stops: HashMap<Pid, Signal>,
    /// Endpoint contributions received from each peer shard: references
    /// their descriptor tables hold to streams this shard owns.
    remote_contribs: HashMap<usize, HashMap<StreamId, (u32, u32)>>,
    /// The last endpoint snapshot sent to each peer (dedup so recomputes
    /// only message peers whose view actually changed).
    sent_contribs: HashMap<usize, Vec<(StreamId, u32, u32)>>,
    /// Connections owned by other shards that local descriptors reference
    /// (purged when the last local reference disappears).
    remote_connections: HashMap<ConnectionId, Connection>,
    /// Latest readiness snapshots of foreign streams local `poll`s watch.
    remote_revents_cache: HashMap<StreamId, RemoteRevents>,
    /// Connections created by a remote `connect` whose client endpoints are
    /// pinned here until the connecting shard acks its endpoint snapshot.
    remote_client_pins: HashSet<ConnectionId>,
    /// stdio of in-flight cross-shard spawns, pinned (and counted as
    /// endpoints) until the owning shard acks the task exists.
    pinned_files: HashMap<u64, Vec<Arc<OpenFile>>>,

    exit_watchers: HashMap<Pid, Vec<Sender<i32>>>,
    exit_records: HashMap<Pid, i32>,

    stats: KernelStats,
}

impl KernelState {
    pub(crate) fn new(
        config: KernelConfig,
        shard_id: usize,
        router: Arc<RouterState>,
        peers: Vec<Sender<KernelEvent>>,
    ) -> KernelState {
        let events_tx = peers[shard_id].clone();
        KernelState {
            config: config.platform,
            fs: config.fs,
            registry: config.registry,
            blobs: BlobRegistry::new(),
            default_env: config.default_env,
            shard_id,
            nshards: router.nshards(),
            peers,
            router,
            events_tx,
            tasks: HashMap::new(),
            streams: StreamTable::new_for_shard(shard_id),
            sockets: SocketTable::new_for_shard(shard_id),
            waiters: WaitTable::new(),
            wake_queue: VecDeque::new(),
            waking: false,
            poll_deadlines: Vec::new(),
            http_clients: Vec::new(),
            next_remote_token: 1,
            remote_ops: HashMap::new(),
            remote_zombies: HashMap::new(),
            remote_stops: HashMap::new(),
            remote_contribs: HashMap::new(),
            sent_contribs: HashMap::new(),
            remote_connections: HashMap::new(),
            remote_revents_cache: HashMap::new(),
            remote_client_pins: HashSet::new(),
            pinned_files: HashMap::new(),
            exit_watchers: HashMap::new(),
            exit_records: HashMap::new(),
            stats: KernelStats::default(),
        }
    }

    /// The kernel's main loop: process events until shutdown.
    ///
    /// Every state change wakes exactly the wait queues it affects as part
    /// of handling the event, so the loop itself does no retry work; the
    /// only timer-driven duty left is expiring `poll` deadlines, which bound
    /// the sleep.
    pub(crate) fn run(mut self, events: Receiver<KernelEvent>) {
        loop {
            let timeout = self
                .next_poll_deadline()
                .map(|deadline| deadline.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(20))
                .min(Duration::from_millis(20));
            match events.recv_timeout(timeout) {
                Ok(KernelEvent::Shutdown) => break,
                Ok(event) => self.handle_event(event),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            // Backstop drain of every persistent ring: submissions normally
            // arrive via a doorbell event, but entries published while the
            // kernel was busy (doorbell suppressed by a clear NEED_WAKEUP
            // flag) are picked up here before the loop sleeps again.
            self.drain_rings();
            self.expire_poll_deadlines();
            // With the `scavenger` feature, prove the wait queues lost no
            // wakeup: retrying every parked waiter must complete none.
            #[cfg(feature = "scavenger")]
            self.scavenge();
            #[cfg(feature = "scavenger")]
            self.scavenge_rings();
        }
        // Terminate every remaining worker so their threads exit.
        for task in self.tasks.values_mut() {
            if let Some(worker) = task.worker.take() {
                worker.terminate();
            }
        }
    }

    fn handle_event(&mut self, event: KernelEvent) {
        match event {
            KernelEvent::Syscall { pid, transport } => self.handle_syscall(pid, transport),
            KernelEvent::RegisterSyncHeap { pid, sab } => {
                if let Some(task) = self.tasks.get_mut(&pid) {
                    task.sync_heap = Some(sab);
                }
            }
            KernelEvent::Doorbell { pid } => {
                self.stats.doorbells += 1;
                self.drain_ring(pid);
            }
            KernelEvent::Host(request) => self.handle_host_request(request),
            KernelEvent::Shard(msg) => self.handle_shard_msg(msg),
            KernelEvent::Shutdown => {}
        }
    }

    // ---- cross-shard messaging -----------------------------------------------

    /// Sends a message to a peer shard (its event queue preserves the order
    /// of everything this shard sent it).
    pub(crate) fn send_shard(&mut self, shard: usize, msg: ShardMsg) {
        self.stats.shard_msgs_sent += 1;
        let _ = self.peers[shard].send(KernelEvent::Shard(msg));
    }

    /// Mints a token for a cross-shard operation.
    pub(crate) fn next_remote_token(&mut self) -> u64 {
        let token = self.next_remote_token;
        self.next_remote_token += 1;
        token
    }

    /// This shard's index.
    pub(crate) fn shard_id(&self) -> usize {
        self.shard_id
    }

    /// The number of shards in the fleet.
    pub(crate) fn nshards(&self) -> usize {
        self.nshards
    }

    /// Whether a stream id belongs to another shard.
    pub(crate) fn stream_is_remote(&self, stream: StreamId) -> bool {
        shard::stream_shard(stream) != self.shard_id
    }

    /// Resolves a connection: this shard's socket table, else the cache of
    /// remotely-owned connections local descriptors reference.
    pub(crate) fn connection_info(&self, id: ConnectionId) -> Option<Connection> {
        self.sockets
            .connection(id)
            .or_else(|| self.remote_connections.get(&id).copied())
    }

    /// A cached readiness snapshot of a foreign stream (for `poll`).
    pub(crate) fn remote_revents(&self, stream: StreamId) -> Option<RemoteRevents> {
        self.remote_revents_cache.get(&stream).copied()
    }

    /// Submits a read of a foreign stream to its owner; the syscall parks in
    /// `remote_ops` until [`ShardMsg::RemoteOpDone`] comes back.
    pub(crate) fn remote_read(
        &mut self,
        pid: Pid,
        reply: ReplyTo,
        stream: StreamId,
        len: usize,
        nonblocking: bool,
    ) -> Outcome {
        let owner = shard::stream_shard(stream);
        let token = self.next_remote_token();
        self.remote_ops.insert(
            token,
            PendingRemote {
                pid,
                reply,
                kind: RemoteKind::Read,
                owner,
            },
        );
        self.send_shard(
            owner,
            ShardMsg::RemoteRead {
                token,
                from_shard: self.shard_id,
                pid,
                stream,
                len,
                nonblocking,
            },
        );
        Outcome::Blocked
    }

    /// Submits a write to a foreign stream to its owner.
    pub(crate) fn remote_write(
        &mut self,
        pid: Pid,
        reply: ReplyTo,
        stream: StreamId,
        data: Vec<u8>,
        nonblocking: bool,
    ) -> Outcome {
        let owner = shard::stream_shard(stream);
        let token = self.next_remote_token();
        self.remote_ops.insert(
            token,
            PendingRemote {
                pid,
                reply,
                kind: RemoteKind::Write,
                owner,
            },
        );
        self.send_shard(
            owner,
            ShardMsg::RemoteWrite {
                token,
                from_shard: self.shard_id,
                pid,
                stream,
                data,
                nonblocking,
            },
        );
        Outcome::Blocked
    }

    /// Owner-side immediate read attempt against an owned stream.  `None`
    /// means the stream exists with a live writer and no data (park).
    pub(crate) fn try_remote_read(&mut self, stream: StreamId, len: usize) -> Option<SysResult> {
        let Some(s) = self.streams.get_mut(stream) else {
            // The stream is gone: its endpoints all closed, which reads as EOF.
            return Some(SysResult::Data(Vec::new()));
        };
        if !s.is_empty() {
            let data = s.pop(len);
            self.wake(WaitChannel::StreamWritable(stream));
            return Some(SysResult::Data(data));
        }
        if s.write_end_closed() {
            return Some(SysResult::Data(Vec::new()));
        }
        None
    }

    /// Owner-side immediate write attempt: bytes accepted, or `EPIPE`.
    /// Raw — the *submitting* shard raises SIGPIPE, preserving the local
    /// signal-then-error ordering for the writer.
    pub(crate) fn try_remote_write(&mut self, stream: StreamId, data: &[u8]) -> Result<usize, Errno> {
        let Some(s) = self.streams.get_mut(stream) else {
            return Err(Errno::EPIPE);
        };
        if s.read_end_closed() {
            return Err(Errno::EPIPE);
        }
        let written = s.push(data);
        if written > 0 {
            self.wake(WaitChannel::StreamReadable(stream));
        }
        Ok(written)
    }

    /// Submits a `connect` to the shard owning the target port's listener;
    /// the caller's descriptor is upgraded when the reply arrives.  Connect
    /// ops are exempt from `EINTR` cancellation (the reply installs the
    /// connection; abandoning it would leak the server-side streams), so
    /// they only ever resolve via [`ShardMsg::ConnectReply`] or task death.
    pub(crate) fn remote_connect(&mut self, pid: Pid, reply: ReplyTo, fd: Fd, owner: usize, port: u16) -> Outcome {
        let token = self.next_remote_token();
        self.remote_ops.insert(
            token,
            PendingRemote {
                pid,
                reply,
                kind: RemoteKind::Connect { fd },
                owner,
            },
        );
        self.send_shard(
            owner,
            ShardMsg::Connect {
                token,
                from_shard: self.shard_id,
                port,
            },
        );
        Outcome::Blocked
    }

    fn handle_shard_msg(&mut self, msg: ShardMsg) {
        match msg {
            ShardMsg::SpawnTask {
                token,
                origin,
                pid,
                ppid,
                pgid,
                name,
                path,
                cwd,
                args,
                env,
                launcher,
                file_bytes,
                stdio,
            } => {
                let blob_url = file_bytes.map(|bytes| self.blobs.create_url(bytes));
                let stdio: [Arc<OpenFile>; 3] = stdio;
                self.install_task(
                    pid, ppid, pgid, &name, &path, &cwd, args, env, stdio, blob_url, None, launcher,
                );
                self.recompute_endpoints();
                self.send_shard(origin, ShardMsg::SpawnAck { token });
            }
            ShardMsg::SpawnAck { token } => {
                self.pinned_files.remove(&token);
                self.recompute_endpoints();
            }
            ShardMsg::ChildExited { pid, ppid, status } => {
                if self.tasks.get(&ppid).map(|t| !t.is_zombie()).unwrap_or(false) {
                    self.remote_zombies.insert(pid, status);
                    let _ = self.send_signal(ppid, Signal::SIGCHLD);
                    self.wake(WaitChannel::ChildOf(ppid));
                }
                // Parent died concurrently: the child's shard already
                // dropped the task and recorded the exit status for host
                // watchers; nothing to reap here.
            }
            ShardMsg::ChildStopped { pid, ppid, signal } => {
                if self.tasks.get(&ppid).map(|t| !t.is_zombie()).unwrap_or(false) {
                    self.remote_stops.insert(pid, signal);
                    let _ = self.send_signal(ppid, Signal::SIGCHLD);
                    self.wake(WaitChannel::ChildOf(ppid));
                }
            }
            ShardMsg::ChildContinued { pid, .. } => {
                self.remote_stops.remove(&pid);
            }
            ShardMsg::Reparent { child } => {
                if let Some(task) = self.tasks.get_mut(&child) {
                    task.ppid = 0;
                    if task.is_zombie() {
                        self.tasks.remove(&child);
                    }
                }
            }
            ShardMsg::SignalPid { pid, signal } => {
                let _ = self.send_signal(pid, signal);
            }
            ShardMsg::SetPgid { pid, pgid } => {
                if let Some(task) = self.tasks.get_mut(&pid) {
                    task.pgid = pgid;
                }
            }
            ShardMsg::RemoteRead {
                token,
                from_shard,
                pid,
                stream,
                len,
                nonblocking,
            } => {
                self.stats.steals += 1;
                match self.try_remote_read(stream, len) {
                    Some(result) => self.send_shard(
                        from_shard,
                        ShardMsg::RemoteOpDone {
                            token,
                            result,
                            raise_sigpipe: false,
                        },
                    ),
                    None if nonblocking => {
                        self.stats.eagain_returns += 1;
                        self.send_shard(
                            from_shard,
                            ShardMsg::RemoteOpDone {
                                token,
                                result: SysResult::Err(Errno::EAGAIN),
                                raise_sigpipe: false,
                            },
                        );
                    }
                    None => self.park_waiter_one(
                        WaitChannel::StreamReadable(stream),
                        Waiter {
                            pid,
                            reply: None,
                            kind: WaitKind::RemoteRead {
                                stream,
                                len,
                                token,
                                from_shard,
                            },
                        },
                    ),
                }
            }
            ShardMsg::RemoteWrite {
                token,
                from_shard,
                pid,
                stream,
                data,
                nonblocking,
            } => {
                self.stats.steals += 1;
                match self.try_remote_write(stream, &data) {
                    Err(errno) => self.send_shard(
                        from_shard,
                        ShardMsg::RemoteOpDone {
                            token,
                            result: SysResult::Err(errno),
                            raise_sigpipe: errno == Errno::EPIPE,
                        },
                    ),
                    Ok(written) if written == data.len() => self.send_shard(
                        from_shard,
                        ShardMsg::RemoteOpDone {
                            token,
                            result: SysResult::Int(written as i64),
                            raise_sigpipe: false,
                        },
                    ),
                    Ok(written) if nonblocking => {
                        let result = if written > 0 {
                            SysResult::Int(written as i64)
                        } else {
                            self.stats.eagain_returns += 1;
                            SysResult::Err(Errno::EAGAIN)
                        };
                        self.send_shard(
                            from_shard,
                            ShardMsg::RemoteOpDone {
                                token,
                                result,
                                raise_sigpipe: false,
                            },
                        );
                    }
                    Ok(written) => self.park_waiter_one(
                        WaitChannel::StreamWritable(stream),
                        Waiter {
                            pid,
                            reply: None,
                            kind: WaitKind::RemoteWrite {
                                stream,
                                data,
                                written,
                                token,
                                from_shard,
                            },
                        },
                    ),
                }
            }
            ShardMsg::RemoteOpDone {
                token,
                result,
                raise_sigpipe,
            } => {
                // Exactly-once: a token cancelled by EINTR or death has
                // left the table, and this late reply is dropped.
                let Some(op) = self.remote_ops.remove(&token) else {
                    return;
                };
                if raise_sigpipe {
                    let _ = self.send_signal(op.pid, Signal::SIGPIPE);
                }
                self.complete(op.pid, op.reply, result);
            }
            ShardMsg::CancelOp { token } => {
                drop(self.waiters.take_matching(|w| {
                    matches!(
                        &w.kind,
                        WaitKind::RemoteRead { token: t, .. } | WaitKind::RemoteWrite { token: t, .. }
                        if *t == token
                    )
                }));
            }
            ShardMsg::Connect {
                token,
                from_shard,
                port,
            } => {
                self.stats.steals += 1;
                if !self.sockets.port_in_use(port) {
                    self.send_shard(
                        from_shard,
                        ShardMsg::ConnectReply {
                            token,
                            result: Err(Errno::ECONNREFUSED),
                        },
                    );
                    return;
                }
                let client_to_server = self.streams.create();
                let server_to_client = self.streams.create();
                match self.sockets.connect(port, client_to_server, server_to_client) {
                    Ok(id) => {
                        // Pin the client endpoints until the connecting
                        // shard records its descriptor and acks; otherwise
                        // the server could observe a half-closed stream in
                        // the gap between the two shards' recounts.
                        self.remote_client_pins.insert(id);
                        let conn = self.sockets.connection(id).expect("connection just created");
                        self.wake(WaitChannel::Listener(port));
                        self.recompute_endpoints();
                        self.send_shard(
                            from_shard,
                            ShardMsg::ConnectReply {
                                token,
                                result: Ok((id, conn)),
                            },
                        );
                    }
                    Err(errno) => {
                        self.streams.remove(client_to_server);
                        self.streams.remove(server_to_client);
                        self.send_shard(
                            from_shard,
                            ShardMsg::ConnectReply {
                                token,
                                result: Err(errno),
                            },
                        );
                    }
                }
            }
            ShardMsg::ConnectReply { token, result } => {
                let op = self.remote_ops.remove(&token);
                match result {
                    Ok((id, conn)) => {
                        let mut installed = false;
                        if let Some(op) = &op {
                            if let RemoteKind::Connect { fd } = op.kind {
                                if let Ok(file) = self
                                    .tasks
                                    .get(&op.pid)
                                    .map(|t| t.files.get(fd))
                                    .unwrap_or(Err(Errno::EBADF))
                                {
                                    file.set_kind(FileKind::SocketStream {
                                        connection: id,
                                        side: SocketSide::Client,
                                    });
                                    installed = true;
                                }
                            }
                        }
                        self.remote_connections.insert(id, conn);
                        if let Some(op) = op {
                            let result = if installed {
                                SysResult::Ok
                            } else {
                                SysResult::Err(Errno::EBADF)
                            };
                            self.complete(op.pid, op.reply, result);
                        }
                        // The recount records the client endpoints and ships
                        // the snapshot to the owner; FIFO ordering makes it
                        // land before the ack that drops the owner's pin.
                        self.recompute_endpoints();
                        self.send_shard(shard::connection_shard(id), ShardMsg::ConnectAck { connection: id });
                    }
                    Err(errno) => {
                        if let Some(op) = op {
                            self.complete(op.pid, op.reply, SysResult::Err(errno));
                        }
                    }
                }
            }
            ShardMsg::ConnectAck { connection } => {
                self.remote_client_pins.remove(&connection);
                self.recompute_endpoints();
            }
            ShardMsg::PollQuery { stream, from_shard } => {
                let answer = match self.streams.get(stream) {
                    None => ShardMsg::PollAnswer {
                        stream,
                        readable: false,
                        eof: false,
                        writable: false,
                        epipe: false,
                        gone: true,
                    },
                    Some(s) => ShardMsg::PollAnswer {
                        stream,
                        readable: !s.is_empty(),
                        eof: s.write_end_closed(),
                        writable: s.space() > 0,
                        epipe: s.read_end_closed(),
                        gone: false,
                    },
                };
                self.send_shard(from_shard, answer);
            }
            ShardMsg::PollAnswer {
                stream,
                readable,
                eof,
                writable,
                epipe,
                gone,
            } => {
                let revents = RemoteRevents {
                    readable,
                    eof,
                    writable,
                    epipe,
                    gone,
                };
                // Wake local pollers of this stream only when the snapshot
                // *changed*: an unconditional wake would re-query on repark
                // and ping-pong with the owner forever, while a silent cache
                // update would be a lost wakeup (the scavenger would find a
                // completable poll nobody woke).  A retry triggered by a
                // change either completes or reparks; the repark's re-query
                // returns the same snapshot, so the exchange terminates.
                let changed = self.remote_revents_cache.insert(stream, revents).map(|old| {
                    (old.readable, old.eof, old.writable, old.epipe, old.gone) != (readable, eof, writable, epipe, gone)
                });
                if changed.unwrap_or(true) {
                    self.stats.cross_shard_wakeups += 1;
                    self.wake(WaitChannel::StreamReadable(stream));
                    self.wake(WaitChannel::StreamWritable(stream));
                }
            }
            ShardMsg::RemoteEndpoints { from_shard, snapshot } => {
                let contrib: HashMap<StreamId, (u32, u32)> =
                    snapshot.into_iter().map(|(id, r, w)| (id, (r, w))).collect();
                self.remote_contribs.insert(from_shard, contrib);
                self.recompute_endpoints();
            }
        }
    }

    // ---- syscall rings -------------------------------------------------------

    /// Registers a persistent ring pair for `pid`, validating the geometry
    /// against the shared heap the task registered earlier.
    fn sys_ring_setup(&mut self, pid: Pid, geo: RingGeometry) -> Outcome {
        let Some(task) = self.tasks.get_mut(&pid) else {
            return Outcome::Complete(SysResult::Err(Errno::ESRCH));
        };
        let Some(heap) = task.sync_heap.as_ref() else {
            return Outcome::Complete(SysResult::Err(Errno::EINVAL));
        };
        if !geo.validate(heap.len()) {
            return Outcome::Complete(SysResult::Err(Errno::EINVAL));
        }
        task.ring = Some(Ring::new(heap.clone(), geo));
        Outcome::Complete(SysResult::Ok)
    }

    /// Drains every live task's submission queue (the per-iteration backstop).
    fn drain_rings(&mut self) {
        let pids: Vec<Pid> = self
            .tasks
            .values()
            .filter(|t| t.is_alive() && t.ring.is_some())
            .map(|t| t.pid)
            .collect();
        for pid in pids {
            self.drain_ring(pid);
        }
    }

    /// Drains one task's submission queue dry, dispatching each entry and
    /// posting its completion (or parking a waiter) as it goes, then parks
    /// the queue by setting `NEED_WAKEUP`.
    ///
    /// The park re-checks for entries that raced in after the flag was set:
    /// their submitter saw the flag still clear and suppressed its doorbell,
    /// so they must be consumed by this pass — this loop is what guarantees
    /// a non-empty queue never goes undrained.
    ///
    /// A task that is not running consumes nothing: a stopped task's
    /// entries stay in its queue (the queue is its stash) until
    /// [`KernelState::continue_task`] drains it.  A corrupt ring carries
    /// nothing further.
    fn drain_ring(&mut self, pid: Pid) {
        let Some(ring) = self.tasks.get(&pid).and_then(|t| t.ring.clone()) else {
            return;
        };
        self.flush_pending_cqes(pid, &ring);
        if ring.is_corrupt() {
            return;
        }
        let max_read = ring.geometry().max_read_bytes();
        loop {
            while self.tasks.get(&pid).is_some_and(Task::is_running) {
                let Some((user_data, frame)) = ring.pop_sqe() else {
                    break;
                };
                self.stats.sq_polled += 1;
                let call = frame.ok().and_then(|f| Syscall::decode_from(&mut Reader::new(&f)));
                let Some(call) = call else {
                    self.post_ring_completion(pid, user_data, SysResult::Err(Errno::EINVAL));
                    continue;
                };
                self.stats.record_syscall(call.name(), call.class(), true);
                if let Some(task) = self.tasks.get_mut(&pid) {
                    task.syscall_count += 1;
                }
                let reply = ReplyTo::Ring { user_data };
                match self.dispatch(pid, reply, clamp_read(call, max_read)) {
                    Outcome::Complete(result) => self.post_ring_completion(pid, user_data, result),
                    Outcome::Blocked => {}
                    // `exit` tears the task down; nothing further to drain.
                    Outcome::NoReply => return,
                }
            }
            if !self.tasks.get(&pid).is_some_and(Task::is_running) {
                return;
            }
            ring.set_need_wakeup();
            if ring.sq_is_empty() {
                break;
            }
            ring.clear_need_wakeup();
        }
    }

    /// Scavenger-mode enforcement that a non-empty submission queue never
    /// goes undrained: re-drain every ring until it is observed empty.
    ///
    /// An entry visible here either arrived after this iteration's backstop
    /// drain (its doorbell may still be in flight — consuming it early is
    /// harmless) or would have been lost; the loop guarantees neither
    /// survives to the next sleep.  No flag/emptiness assertion is made
    /// against shared state: submitters publish entries and consult the
    /// doorbell flag in two separate steps, so a transient
    /// "non-empty with `NEED_WAKEUP` set" is legal mid-publish.  The strict
    /// single-threaded invariant (a drained queue is empty with the flag
    /// set) is asserted by the deterministic ring model property test.
    /// A stopped task's queue legitimately holds entries until SIGCONT.
    #[cfg(feature = "scavenger")]
    fn scavenge_rings(&mut self) {
        let pids: Vec<Pid> = self
            .tasks
            .values()
            .filter(|t| t.is_running() && t.ring.is_some())
            .map(|t| t.pid)
            .collect();
        for pid in pids {
            loop {
                let Some(ring) = self.tasks.get(&pid).and_then(|t| t.ring.clone()) else {
                    break;
                };
                if ring.sq_is_empty() {
                    break;
                }
                self.drain_ring(pid);
                if !self.tasks.get(&pid).is_some_and(Task::is_running) {
                    break;
                }
            }
        }
    }

    /// Posts one ring completion, spilling to the task's overflow queue when
    /// the completion queue is full or no registered buffer is free.
    fn post_ring_completion(&mut self, pid: Pid, user_data: u32, result: SysResult) {
        let Some(ring) = self.tasks.get(&pid).and_then(|t| t.ring.clone()) else {
            return;
        };
        // Preserve completion order across overflow: new completions queue
        // behind any that are still waiting for a slot or buffer.
        let had_pending = self
            .tasks
            .get(&pid)
            .map(|t| !t.pending_cqes.is_empty())
            .unwrap_or(false);
        if had_pending {
            if let Some(task) = self.tasks.get_mut(&pid) {
                task.pending_cqes.push_back((user_data, result));
            }
            self.flush_pending_cqes(pid, &ring);
            return;
        }
        if let Err(result) = self.try_post_cqe(&ring, user_data, result) {
            if let Some(task) = self.tasks.get_mut(&pid) {
                task.pending_cqes.push_back((user_data, result));
            }
        }
    }

    /// Retries overflowed completions in FIFO order until one still fails.
    fn flush_pending_cqes(&mut self, pid: Pid, ring: &Ring) {
        loop {
            let Some((user_data, result)) = self.tasks.get_mut(&pid).and_then(|t| t.pending_cqes.pop_front()) else {
                return;
            };
            if let Err(result) = self.try_post_cqe(ring, user_data, result) {
                if let Some(task) = self.tasks.get_mut(&pid) {
                    task.pending_cqes.push_front((user_data, result));
                }
                return;
            }
        }
    }

    /// Encodes one result into a completion-queue entry and publishes it.
    /// A frame too large for a slot spills into registered buffers (see
    /// [`Ring`]); one larger than the whole buffer table is replaced by
    /// `EOVERFLOW`.
    ///
    /// # Errors
    ///
    /// Returns the result back when it cannot be posted right now (queue
    /// full, or no run of registered buffers free); the caller keeps it in
    /// the task's overflow queue.
    fn try_post_cqe(&mut self, ring: &Ring, user_data: u32, result: SysResult) -> Result<(), SysResult> {
        let mut frame = Vec::with_capacity(16);
        result.encode_into(&mut frame);
        match ring.push_cqe(user_data, &frame) {
            Ok(()) => {
                self.stats.cq_posted += 1;
                Ok(())
            }
            Err(PushError::TooBig) => self.try_post_cqe(ring, user_data, SysResult::Err(Errno::EOVERFLOW)),
            Err(PushError::Full | PushError::Corrupt) => Err(result),
        }
    }

    // ---- system-call entry ---------------------------------------------------

    fn handle_syscall(&mut self, pid: Pid, transport: Transport) {
        let seq = transport.seq;
        match self.tasks.get_mut(&pid) {
            None => return,
            Some(task) if task.is_stopped() => {
                // A stopped process's system calls are not serviced: stash
                // the batch and replay it (in order) when SIGCONT arrives.
                // The worker blocks awaiting the reply, which is exactly the
                // "frozen at a syscall boundary" stop semantics.
                task.stashed_transports.push(transport);
                return;
            }
            Some(_) => {}
        }
        let Some(batch) = transport.decode_batch() else {
            // An undecodable frame (corruption, codec-version skew) must
            // still produce a reply, or its process waits forever.
            let error = CompletionBatch {
                completions: vec![Completion {
                    index: 0,
                    result: SysResult::Err(Errno::EINVAL),
                }],
            };
            self.deliver_payload(pid, seq, error.encode());
            return;
        };
        if batch.is_empty() {
            return;
        }
        self.stats.record_batch(batch.len(), transport.payload.len());
        if let Some(task) = self.tasks.get_mut(&pid) {
            task.inflight = Some(InflightBatch {
                seq,
                total: batch.len() as u32,
                completions: Vec::with_capacity(batch.len()),
            });
        }
        for (index, call) in batch.entries.into_iter().enumerate() {
            // A mid-batch self-stop keeps dispatching the remaining entries:
            // abandoning them would leave the batch incomplete and hang the
            // worker even after SIGCONT.  Only exit (which consumes the batch
            // via `NoReply`) ends it early.
            if !self.tasks.get(&pid).map(Task::is_alive).unwrap_or(false) {
                return;
            }
            self.stats.record_syscall(call.name(), call.class(), false);
            if let Some(task) = self.tasks.get_mut(&pid) {
                task.syscall_count += 1;
            }
            let reply = ReplyTo::Batch { index: index as u32 };
            match self.dispatch(pid, reply, call) {
                Outcome::Complete(result) => self.record_completion(pid, reply, result),
                // Blocked entries peel off into the pending list and complete
                // individually; `exit` consumes the rest of the batch.
                Outcome::Blocked => {}
                Outcome::NoReply => return,
            }
        }
        self.maybe_deliver_batch(pid);
    }

    // ---- reply paths ---------------------------------------------------------

    /// Completes one entry (used by the pending list when a blocked entry
    /// finally finishes): a batch entry files into the in-flight batch and
    /// delivers it if it was the last one; a ring entry posts straight to
    /// the submitter's completion queue.
    pub(crate) fn complete(&mut self, pid: Pid, reply: ReplyTo, result: SysResult) {
        match reply {
            ReplyTo::Batch { .. } => {
                self.record_completion(pid, reply, result);
                self.maybe_deliver_batch(pid);
            }
            ReplyTo::Ring { user_data } => self.post_ring_completion(pid, user_data, result),
        }
    }

    /// Files an entry's result into the task's in-flight batch.
    fn record_completion(&mut self, pid: Pid, reply: ReplyTo, result: SysResult) {
        let ReplyTo::Batch { index } = reply else { return };
        let Some(task) = self.tasks.get_mut(&pid) else { return };
        let Some(inflight) = task.inflight.as_mut() else { return };
        inflight.completions.push(Completion { index, result });
    }

    /// Delivers the task's in-flight batch once every entry has completed:
    /// one response message carrying the encoded [`CompletionBatch`] frame.
    /// The receiving client places each completion by its index, so no
    /// ordering is imposed here.
    fn maybe_deliver_batch(&mut self, pid: Pid) {
        let Some(task) = self.tasks.get_mut(&pid) else { return };
        if !task.inflight.as_ref().map(InflightBatch::is_complete).unwrap_or(false) {
            return;
        }
        let inflight = task.inflight.take().expect("checked above");
        let payload = CompletionBatch {
            completions: inflight.completions,
        }
        .encode();
        self.deliver_payload(pid, inflight.seq, payload);
    }

    /// Posts an encoded [`CompletionBatch`] frame as the reply to batch `seq`.
    fn deliver_payload(&mut self, pid: Pid, seq: u64, payload: Vec<u8>) {
        let msg = Message::map()
            .with("type", "syscall-response")
            .with("seq", seq as i64)
            .with("completions", payload);
        self.post_to_worker(pid, msg);
    }

    /// Posts a message to a process's worker, recording the copy cost.
    pub(crate) fn post_to_worker(&mut self, pid: Pid, msg: Message) {
        let bytes = msg.byte_size();
        if let Some(task) = self.tasks.get(&pid) {
            if let Some(worker) = &task.worker {
                if worker.post_message(msg).is_ok() {
                    self.stats.record_message_to_worker(bytes);
                }
            }
        }
    }

    // ---- host API ------------------------------------------------------------

    fn handle_host_request(&mut self, request: HostRequest) {
        match request {
            HostRequest::Spawn {
                path,
                args,
                env,
                cwd,
                stdout,
                stderr,
                reply,
            } => {
                let result = self.host_spawn(&path, args, env, &cwd, stdout, stderr);
                let _ = reply.send(result);
            }
            HostRequest::Kill { pid, signal, reply } => {
                let result = self.send_signal(pid, signal);
                let _ = reply.send(result);
            }
            HostRequest::SignalForeground { signal, reply } => {
                let result = self.signal_foreground(signal);
                let _ = reply.send(result);
            }
            HostRequest::WatchExit { pid, reply } => {
                if let Some(&status) = self.exit_records.get(&pid) {
                    let _ = reply.send(status);
                } else if self.tasks.get(&pid).map(|t| t.wait_status()).unwrap_or(None).is_some() {
                    let status = self.tasks[&pid].wait_status().unwrap_or(0);
                    let _ = reply.send(status);
                } else if self.tasks.contains_key(&pid) {
                    self.exit_watchers.entry(pid).or_default().push(reply);
                } else {
                    // Unknown pid: report a generic failure status so callers
                    // do not hang.
                    let _ = reply.send(encode_wait_status(Some(127), None));
                }
            }
            HostRequest::HttpRequest { port, request, reply } => {
                self.host_http_request(port, request, reply);
            }
            HostRequest::SubscribePortListen { listener } => {
                self.router.subscribe_port_listen(listener);
            }
            HostRequest::ListeningPorts { reply } => {
                let _ = reply.send(self.router.claimed_ports());
            }
            HostRequest::ReadStats { reply } => {
                // Raw per-shard snapshot: the host merges all shards and then
                // attaches the (shared) VFS cache counters exactly once.
                let _ = reply.send(self.stats.clone());
            }
            HostRequest::ListTasks { reply } => {
                let mut tasks: Vec<(Pid, Pid, String, String)> = self
                    .tasks
                    .values()
                    .map(|t| {
                        let state = match t.state {
                            TaskState::Running => "running".to_owned(),
                            TaskState::Stopped { .. } => "stopped".to_owned(),
                            TaskState::Zombie { .. } => "zombie".to_owned(),
                        };
                        (t.pid, t.ppid, t.name.clone(), state)
                    })
                    .collect();
                tasks.sort_by_key(|(pid, ..)| *pid);
                let _ = reply.send(tasks);
            }
        }
    }

    fn host_spawn(
        &mut self,
        path: &str,
        args: Vec<String>,
        env: Vec<(String, String)>,
        cwd: &str,
        stdout: OutputSink,
        stderr: OutputSink,
    ) -> Result<Pid, Errno> {
        let stdout_fd = self.new_host_sink(stdout);
        let stderr_fd = self.new_host_sink(stderr);
        // Host-started processes read from the controlling terminal, which
        // is what routes SIGTTIN to background readers.
        let stdin = OpenFile::new(FileKind::Tty);
        let mut merged_env = self.default_env.clone();
        for (k, v) in env {
            merged_env.retain(|(existing, _)| existing != &k);
            merged_env.push((k, v));
        }
        self.spawn_process(
            0,
            path,
            args,
            merged_env,
            cwd,
            [stdin, stdout_fd, stderr_fd],
            None,
            None,
        )
    }

    /// Creates a host-sink open file: writes are forwarded to the callback.
    /// Sinks live in the router so a descriptor inherited by a process on
    /// another shard still resolves.
    pub(crate) fn new_host_sink(&mut self, sink: OutputSink) -> Arc<OpenFile> {
        let id = self.router.new_sink(sink);
        OpenFile::new(FileKind::HostSink { stream: id })
    }

    pub(crate) fn host_sink(&self, id: u64) -> Option<OutputSink> {
        self.router.sink(id)
    }

    // ---- process lifecycle -----------------------------------------------------

    /// Creates a task and its worker, returning the new pid.
    ///
    /// Placement: forks stay on the parent's shard (the copied descriptor
    /// table and COW image stay local); everything else round-robins across
    /// shards via the router, deterministically in spawn order.  A
    /// cross-shard spawn resolves the executable here (the mount table is
    /// shared), pre-allocates the pid, pins the stdio descriptors until the
    /// owner acks, and returns the pid immediately — exactly like a local
    /// spawn, whose worker also has not run yet when `spawn` returns.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn_process(
        &mut self,
        ppid: Pid,
        path: &str,
        mut args: Vec<String>,
        env: Vec<(String, String)>,
        cwd: &str,
        stdio: [Arc<OpenFile>; 3],
        fork_image: Option<ForkImage>,
        forced_launcher: Option<Arc<dyn ProgramLauncher>>,
    ) -> Result<Pid, Errno> {
        let keep_local = fork_image.is_some() || forced_launcher.is_some();
        let (launcher, file_bytes) = match forced_launcher {
            Some(launcher) => (launcher, None),
            None => {
                let resolved = resolve_executable(self.fs.as_ref(), &self.registry, path)?;
                if !resolved.prepend_args.is_empty() {
                    let mut new_args = resolved.prepend_args.clone();
                    new_args.extend(args.into_iter().skip(1));
                    args = new_args;
                }
                (resolved.launcher, resolved.file_bytes)
            }
        };

        let target = if keep_local || self.nshards == 1 {
            self.shard_id
        } else {
            self.router.place_spawn()
        };
        let pid = self.router.allocate_pid(target);
        // Children join their parent's process group; host-started processes
        // lead a fresh group of their own.
        let pgid = self.tasks.get(&ppid).map(|p| p.pgid).unwrap_or(pid);
        self.router.register_process(pid, target, pgid);
        let name = browsix_fs::path::basename(path);

        if target == self.shard_id {
            let blob_url = file_bytes.map(|bytes| self.blobs.create_url(bytes));
            self.install_task(
                pid, ppid, pgid, &name, path, cwd, args, env, stdio, blob_url, fork_image, launcher,
            );
            if let Some(parent) = self.tasks.get_mut(&ppid) {
                parent.children.push(pid);
            }
            self.recompute_endpoints();
        } else {
            let token = self.next_remote_token();
            // Pin the stdio descriptions: the endpoint recount treats them
            // as live references until the owner has installed the child.
            self.pinned_files.insert(token, stdio.to_vec());
            self.send_shard(
                target,
                ShardMsg::SpawnTask {
                    token,
                    origin: self.shard_id,
                    pid,
                    ppid,
                    pgid,
                    name,
                    path: path.to_owned(),
                    cwd: cwd.to_owned(),
                    args,
                    env,
                    launcher,
                    file_bytes,
                    stdio,
                },
            );
            if let Some(parent) = self.tasks.get_mut(&ppid) {
                parent.children.push(pid);
            }
            self.recompute_endpoints();
        }
        Ok(pid)
    }

    /// Installs a fully-resolved task on this shard: task-table entry,
    /// worker thread and init message.  The caller pushes the child onto
    /// its parent's `children` (the parent may live on another shard) and
    /// recomputes endpoints.
    #[allow(clippy::too_many_arguments)]
    fn install_task(
        &mut self,
        pid: Pid,
        ppid: Pid,
        pgid: Pid,
        name: &str,
        path: &str,
        cwd: &str,
        args: Vec<String>,
        env: Vec<(String, String)>,
        stdio: [Arc<OpenFile>; 3],
        blob_url: Option<String>,
        fork_image: Option<ForkImage>,
        launcher: Arc<dyn ProgramLauncher>,
    ) {
        let mut task = Task::new(pid, ppid, name, path, cwd);
        task.pgid = pgid;
        task.args = args.clone();
        task.env = env.clone();
        task.launcher = Some(Arc::clone(&launcher));
        for (i, file) in stdio.into_iter().enumerate() {
            task.files.insert_at(i as Fd, file);
        }

        // The worker script: hand the scope and kernel channel to the
        // launcher, which will wait for the init message before running
        // main.  The channel is *this shard's* queue, so every syscall and
        // doorbell of the process lands on its owning shard directly.
        let kernel_tx = self.events_tx.clone();
        let config = self.config.clone();
        let launcher_for_worker = Arc::clone(&launcher);
        let worker = Worker::spawn(
            &self.config,
            &format!("pid{pid}-{name}"),
            Box::new(move |scope: WorkerScope| {
                let ctx = LaunchContext {
                    pid,
                    config,
                    kernel: kernel_tx,
                    scope,
                };
                launcher_for_worker.launch(ctx);
            }),
        );
        task.worker = Some(worker);
        self.tasks.insert(pid, task);
        self.stats.processes_spawned += 1;

        // Init message: argument vector, environment, cwd, blob URL and (for
        // fork) the guest memory snapshot.
        let env_msgs: Vec<Message> = env
            .iter()
            .map(|(k, v)| Message::Array(vec![Message::from(k.as_str()), Message::from(v.as_str())]))
            .collect();
        let mut init = Message::map()
            .with("type", "init")
            .with("args", Message::from(args))
            .with("env", Message::Array(env_msgs))
            .with("cwd", cwd);
        if let Some(url) = blob_url {
            init = init.with("blob_url", url.as_str());
        }
        if let Some(image) = fork_image {
            init = init
                .with("fork_image", image.image)
                .with("fork_resume", image.resume_point as i64);
        }
        self.post_to_worker(pid, init);
    }

    /// Marks a task as exited: zombie state, worker termination, descriptor
    /// cleanup, SIGCHLD, exit notifications and wait-queue wakeups.
    pub(crate) fn finish_task(&mut self, pid: Pid, status: i32) {
        let Some(task) = self.tasks.get_mut(&pid) else { return };
        if task.is_zombie() {
            return;
        }
        task.state = TaskState::Zombie { status };
        if let Some(worker) = task.worker.take() {
            worker.terminate();
        }
        // The ring dies with the process: nobody is left to consume its
        // completion queue.
        task.ring = None;
        task.pending_cqes.clear();
        task.files.clear();
        // Tear down the address space: COW pages shared with live siblings
        // survive (their Arc count stays positive); sole-owner pages are
        // freed, and the scavenger feature asserts both directions.
        task.address_space.release();
        let ppid = task.ppid;
        let children: Vec<Pid> = task.children.clone();
        self.stats.processes_exited += 1;
        self.exit_records.insert(pid, status);
        // A finished pid disappears from the router registry: signals and
        // getpgid from any shard now report ESRCH, matching the local
        // zombie rules.
        self.router.remove_process(pid);

        // The dead process's own blocked system calls have nobody left to
        // receive their completions: drop them before any wakeups run.
        self.drop_waiters_of(pid);

        // Close any listeners the process owned, waking their accept queues
        // so foreign waiters (dup'd listeners) retry against the closed port.
        let owned_ports: Vec<u16> = self
            .sockets
            .listening_ports()
            .into_iter()
            .filter(|port| self.sockets.listener_owner(*port) == Some(pid))
            .collect();
        for port in owned_ports {
            self.sockets.close_listener(port);
            self.router.release_port(port, self.shard_id);
            self.wake(WaitChannel::Listener(port));
        }

        // Reparent children to the kernel (pid 0) and reap any that are
        // already zombies — there is no init process to do it.  Children on
        // other shards get an explicit reparent message; their shipped
        // zombie/stop records die with this parent.
        for child in children {
            if shard::shard_of(child, self.nshards) == self.shard_id {
                if let Some(child_task) = self.tasks.get_mut(&child) {
                    child_task.ppid = 0;
                    if child_task.is_zombie() {
                        self.tasks.remove(&child);
                    }
                }
            } else if self.router.process_shard(child).is_some() {
                self.send_shard(shard::shard_of(child, self.nshards), ShardMsg::Reparent { child });
            }
            self.remote_zombies.remove(&child);
            self.remote_stops.remove(&child);
        }

        // Wake host watchers.
        if let Some(watchers) = self.exit_watchers.remove(&pid) {
            for watcher in watchers {
                let _ = watcher.send(status);
            }
        }

        // Notify the parent.
        let parent_shard = if ppid == 0 {
            None
        } else {
            Some(shard::shard_of(ppid, self.nshards))
        };
        match parent_shard {
            Some(s) if s != self.shard_id => {
                // Remote parent: ship the zombie.  The wait status travels
                // in the message and the parent's shard reaps from its
                // `remote_zombies` table; this shard is done with the task
                // either way (a dead remote parent just drops the record —
                // the exit status survives in `exit_records`).
                self.tasks.remove(&pid);
                self.send_shard(s, ShardMsg::ChildExited { pid, ppid, status });
            }
            Some(_) if self.tasks.contains_key(&ppid) => {
                let _ = self.send_signal(ppid, Signal::SIGCHLD);
            }
            _ => {
                // Host-owned process (or local parent already gone): nobody
                // will call wait4, reap immediately.
                self.tasks.remove(&pid);
            }
        }

        // Dropping the descriptor table may have closed stream endpoints;
        // the recount wakes exactly the streams whose EOF/EPIPE state
        // changed.  A parent blocked in wait4 parks on its own ChildOf
        // queue, so only that queue is woken for the exit itself.
        self.recompute_endpoints();
        if parent_shard == Some(self.shard_id) {
            self.wake(WaitChannel::ChildOf(ppid));
        }
    }

    /// Sends `signal` to `target`: the single entry point for every signal
    /// in the system — `kill(2)` from processes, the host API, kernel-raised
    /// SIGPIPE/SIGCHLD/SIGTTIN, and terminal job control all arrive here.
    ///
    /// A signal blocked by the target's `sigprocmask` parks in its pending
    /// set and is dispatched (exactly once) when unblocked; everything else
    /// dispatches immediately.
    ///
    /// # Errors
    ///
    /// [`Errno::ESRCH`] if the target does not exist or has already exited.
    pub(crate) fn send_signal(&mut self, target: Pid, signal: Signal) -> Result<(), Errno> {
        let Some(task) = self.tasks.get_mut(&target) else {
            return Err(Errno::ESRCH);
        };
        if task.is_zombie() {
            return Err(Errno::ESRCH);
        }
        self.stats.signals_sent += 1;
        // Stop signals and SIGCONT discard each other from the pending set.
        let mut resumes = false;
        match signal.default_disposition() {
            SignalDisposition::Stop => task.signals.discard_pending_continue(),
            SignalDisposition::Continue => {
                task.signals.discard_pending_stops();
                resumes = true;
            }
            _ => {}
        }
        let admitted = task.signals.admit(signal);
        if resumes {
            // SIGCONT resumes a stopped process even when blocked, ignored
            // or caught (POSIX); only its *delivery* to a handler obeys the
            // mask and disposition.  Without this, a stopped job that had
            // blocked SIGCONT could never be resumed — not even to unblock.
            self.continue_task(target);
        }
        if !admitted {
            // Blocked: parked in the pending set, delivered on unblock.
            return Ok(());
        }
        self.dispatch_signal(target, signal);
        Ok(())
    }

    /// Sends `signal` to every live member of process group `pgid`.
    ///
    /// # Errors
    ///
    /// [`Errno::ESRCH`] if the group has no live members.
    pub(crate) fn signal_pgroup(&mut self, pgid: Pid, signal: Signal) -> Result<(), Errno> {
        if self.nshards == 1 {
            let targets: Vec<Pid> = self
                .tasks
                .values()
                .filter(|t| t.is_alive() && t.pgid == pgid)
                .map(|t| t.pid)
                .collect();
            if targets.is_empty() {
                return Err(Errno::ESRCH);
            }
            for pid in targets {
                let _ = self.send_signal(pid, signal);
            }
            return Ok(());
        }
        // The group may span shards: the router registry (live processes
        // only) is the membership authority; remote members get the signal
        // by message, in deterministic pid order.
        let members = self.router.group_members(pgid);
        if members.is_empty() {
            return Err(Errno::ESRCH);
        }
        for (pid, shard) in members {
            if shard == self.shard_id {
                let _ = self.send_signal(pid, signal);
            } else {
                self.send_shard(shard, ShardMsg::SignalPid { pid, signal });
            }
        }
        Ok(())
    }

    /// Sends `signal` to the foreground process group of the controlling
    /// terminal (what `Ctrl-C`/`Ctrl-Z` do).
    ///
    /// # Errors
    ///
    /// [`Errno::ESRCH`] if no foreground group is set or it has no members.
    pub(crate) fn signal_foreground(&mut self, signal: Signal) -> Result<(), Errno> {
        match self.router.foreground_pgid() {
            Some(pgid) => self.signal_pgroup(pgid, signal),
            None => Err(Errno::ESRCH),
        }
    }

    /// The foreground process group, if one has been set with `tcsetpgrp`.
    /// There is a single controlling terminal for the whole fleet, so the
    /// group lives in the router.
    pub(crate) fn foreground_pgid(&self) -> Option<Pid> {
        self.router.foreground_pgid()
    }

    pub(crate) fn set_foreground_pgid(&mut self, pgid: Option<Pid>) {
        self.router.set_foreground_pgid(pgid);
    }

    /// Applies an unblocked (or never-blocked) signal to its target: runs the
    /// installed handler's delivery, or the default disposition.
    pub(crate) fn dispatch_signal(&mut self, target: Pid, signal: Signal) {
        let Some(task) = self.tasks.get_mut(&target) else {
            return;
        };
        if task.is_zombie() {
            return;
        }
        match task.signals.action(signal) {
            SigAction::Ignore => return,
            SigAction::Handler { restart } => {
                self.stats.signals_delivered += 1;
                // A caught SIGCONT still resumes a stopped process before the
                // handler observes it, as on Linux.
                if signal == Signal::SIGCONT {
                    self.continue_task(target);
                }
                let msg = Message::map()
                    .with("type", "signal")
                    .with("signal", signal.number() as i64)
                    .with("name", signal.name());
                self.post_to_worker(target, msg);
                if !restart {
                    // The handler interrupts the process's blocked system
                    // calls with EINTR; SA_RESTART leaves them parked, which
                    // is this kernel's restart.
                    self.interrupt_waiters_of(target);
                    // A signal that should interrupt a parked waiter must
                    // never leave one parked.
                    #[cfg(feature = "scavenger")]
                    debug_assert_eq!(
                        self.waiters.count_matching(|w| w.pid == target),
                        0,
                        "signal delivery left a waiter of pid {target} parked without SA_RESTART"
                    );
                }
                return;
            }
            SigAction::Default => {}
        }
        match signal.default_disposition() {
            SignalDisposition::Ignore => {}
            SignalDisposition::Terminate => {
                self.stats.signals_delivered += 1;
                self.finish_task(target, encode_wait_status(None, Some(signal)));
            }
            SignalDisposition::Stop => {
                self.stats.signals_delivered += 1;
                self.stop_task(target, signal);
            }
            SignalDisposition::Continue => {
                self.stats.signals_delivered += 1;
                self.continue_task(target);
            }
        }
    }

    /// Completes every blocked system call of `target` with `EINTR` (the
    /// wait-queue side of signal delivery).  A parked write or `sendfile`
    /// that already moved bytes completes with that count instead, as POSIX
    /// `write(2)` does, so a caller that retries on `EINTR` never resends
    /// them.  Kernel-internal HTTP clients run as pid 0 and are never
    /// signalled, so they cannot match.
    pub(crate) fn interrupt_waiters_of(&mut self, target: Pid) {
        debug_assert_ne!(target, 0, "pid 0 is reserved for kernel-internal waiters");
        for waiter in self.waiters.take_matching(|w| w.pid == target) {
            self.stats.eintr_wakeups += 1;
            let result = match waiter.kind {
                WaitKind::Write { written, .. } if written > 0 => SysResult::Int(written as i64),
                WaitKind::Sendfile { sent, .. } if sent > 0 => SysResult::Int(sent as i64),
                _ => SysResult::Err(Errno::EINTR),
            };
            if let Some(reply) = waiter.reply {
                self.complete(target, reply, result);
            }
        }
        // Reads/writes executing on foreign shards take EINTR too: cancel
        // at the owner (a racing completion finds no token and is dropped)
        // and complete here.  A cross-shard write reports EINTR even when
        // the owner already moved some of its bytes, because `CancelOp`
        // carries no count back.  Connects are exempt — their reply installs
        // the connection, and abandoning it would leak the server-side
        // streams the owner already created.
        let tokens: Vec<u64> = self
            .remote_ops
            .iter()
            .filter(|(_, op)| op.pid == target && !matches!(op.kind, RemoteKind::Connect { .. }))
            .map(|(&token, _)| token)
            .collect();
        for token in tokens {
            let Some(op) = self.remote_ops.remove(&token) else {
                continue;
            };
            self.stats.eintr_wakeups += 1;
            self.send_shard(op.owner, ShardMsg::CancelOp { token });
            self.complete(op.pid, op.reply, SysResult::Err(Errno::EINTR));
        }
    }

    /// Suspends a running task (default disposition of the stop signals):
    /// the parent gets SIGCHLD and its `WUNTRACED` waiters wake.
    fn stop_task(&mut self, target: Pid, signal: Signal) {
        let Some(task) = self.tasks.get_mut(&target) else {
            return;
        };
        if !task.is_running() {
            return;
        }
        task.state = TaskState::Stopped { signal };
        task.stop_reported = false;
        let ppid = task.ppid;
        if ppid != 0 && shard::shard_of(ppid, self.nshards) != self.shard_id {
            if self.router.process_shard(ppid).is_some() {
                self.send_shard(
                    shard::shard_of(ppid, self.nshards),
                    ShardMsg::ChildStopped {
                        pid: target,
                        ppid,
                        signal,
                    },
                );
            }
        } else if ppid != 0 && self.tasks.contains_key(&ppid) {
            let _ = self.send_signal(ppid, Signal::SIGCHLD);
            self.wake(WaitChannel::ChildOf(ppid));
        }
    }

    /// Resumes a stopped task (SIGCONT): replays the asynchronous batches
    /// stashed while it was suspended, in arrival order, and drains the
    /// ring entries that queued up meanwhile.
    fn continue_task(&mut self, target: Pid) {
        let Some(task) = self.tasks.get_mut(&target) else {
            return;
        };
        if !task.is_stopped() {
            return;
        }
        task.state = TaskState::Running;
        task.stop_reported = false;
        let ppid = task.ppid;
        let stashed = std::mem::take(&mut task.stashed_transports);
        // A remote parent's not-yet-reported stop record is withdrawn (the
        // local equivalent is the running state clearing `stop_signal`).
        if ppid != 0
            && shard::shard_of(ppid, self.nshards) != self.shard_id
            && self.router.process_shard(ppid).is_some()
        {
            self.send_shard(
                shard::shard_of(ppid, self.nshards),
                ShardMsg::ChildContinued { pid: target, ppid },
            );
        }
        for transport in stashed {
            self.handle_syscall(target, transport);
        }
        self.drain_ring(target);
    }

    // ---- shared helpers --------------------------------------------------------

    pub(crate) fn task(&self, pid: Pid) -> Result<&Task, Errno> {
        self.tasks.get(&pid).ok_or(Errno::ESRCH)
    }

    pub(crate) fn task_mut(&mut self, pid: Pid) -> Result<&mut Task, Errno> {
        self.tasks.get_mut(&pid).ok_or(Errno::ESRCH)
    }

    pub(crate) fn fs(&self) -> &MountedFs {
        self.fs.as_ref()
    }

    pub(crate) fn streams_mut(&mut self) -> &mut StreamTable {
        &mut self.streams
    }

    pub(crate) fn streams(&self) -> &StreamTable {
        &self.streams
    }

    pub(crate) fn sockets_mut(&mut self) -> &mut SocketTable {
        &mut self.sockets
    }

    pub(crate) fn sockets(&self) -> &SocketTable {
        &self.sockets
    }

    pub(crate) fn notify_port_listen(&mut self, port: u16) {
        self.router.notify_port_listen(port);
    }

    /// Resolves a path relative to a task's working directory.
    pub(crate) fn resolve_path(&self, pid: Pid, path: &str) -> String {
        let cwd = self.tasks.get(&pid).map(|t| t.cwd.as_str()).unwrap_or("/");
        browsix_fs::path::resolve(cwd, path)
    }

    /// Recomputes every stream's reader/writer endpoint counts by scanning
    /// all live descriptor tables (plus the kernel's internal HTTP clients).
    /// This is the reference counting that decides EOF and EPIPE — and the
    /// EOF/EPIPE *transitions* it discovers wake exactly the wait queues of
    /// the streams that changed (readers of a stream whose last writer
    /// closed, writers of a stream whose last reader closed).
    ///
    /// With multiple shards the scan is local but the count is global: local
    /// descriptors that refer to a *foreign* stream are accumulated per owner
    /// shard and published as a [`ShardMsg::RemoteEndpoints`] snapshot (only
    /// when it changed), while contributions previously received from peers
    /// about *our* streams are folded into the local totals.  Every shard
    /// therefore converges on the true global endpoint counts without any
    /// shared lock on the data path.
    pub(crate) fn recompute_endpoints(&mut self) {
        let before = self.streams.endpoint_snapshot();
        self.streams.reset_endpoint_counts();
        let mut seen: std::collections::HashSet<usize> = std::collections::HashSet::new();
        let mut kinds: Vec<FileKind> = Vec::new();
        for task in self.tasks.values() {
            // Stopped tasks still hold their descriptors: a stopped job's
            // pipes must not report EOF/EPIPE while it is suspended.
            if task.is_zombie() {
                continue;
            }
            for (_, file) in task.files.iter() {
                let key = Arc::as_ptr(file) as usize;
                if seen.insert(key) {
                    kinds.push(file.kind());
                }
            }
        }
        // Stdio descriptors shipped with a not-yet-acked cross-shard spawn:
        // the child will hold them, so they must keep their streams alive in
        // the gap.  Same dedup set — a descriptor the parent also holds
        // counts once, exactly as a shared open-file description should.
        for files in self.pinned_files.values() {
            for file in files {
                let key = Arc::as_ptr(file) as usize;
                if seen.insert(key) {
                    kinds.push(file.kind());
                }
            }
        }
        let mut adjustments: Vec<(crate::streams::StreamId, bool)> = Vec::new(); // (stream, is_reader)
        let mut referenced: HashSet<ConnectionId> = HashSet::new();
        for kind in kinds {
            match kind {
                FileKind::PipeReader { stream } => adjustments.push((stream, true)),
                FileKind::PipeWriter { stream } => adjustments.push((stream, false)),
                FileKind::SocketStream { connection, side } => {
                    referenced.insert(connection);
                    let conn = self
                        .sockets
                        .connection(connection)
                        .or_else(|| self.remote_connections.get(&connection).copied());
                    if let Some(conn) = conn {
                        match side {
                            crate::fd::SocketSide::Client => {
                                adjustments.push((conn.client_to_server, false));
                                adjustments.push((conn.server_to_client, true));
                            }
                            crate::fd::SocketSide::Server => {
                                adjustments.push((conn.client_to_server, true));
                                adjustments.push((conn.server_to_client, false));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        // The kernel's own XHR-like clients hold the client side of their
        // connection until the response has been parsed.  (HTTP requests are
        // routed to the port owner's shard, so these are always local.)
        for client in &self.http_clients {
            referenced.insert(client.connection);
            if let Some(conn) = self.sockets.connection(client.connection) {
                adjustments.push((conn.client_to_server, false));
                adjustments.push((conn.server_to_client, true));
            }
        }
        // Connections sitting in a listener's backlog have no server-side
        // descriptor yet; count the future endpoint so clients do not see a
        // spurious EOF before the server calls accept.
        for pending in self.sockets.pending_connections() {
            if let Some(conn) = self.sockets.connection(pending) {
                adjustments.push((conn.client_to_server, true));
                adjustments.push((conn.server_to_client, false));
            }
        }
        // Remotely-initiated connections whose client descriptor has not been
        // installed on the peer yet (pinned until its ConnectAck): count the
        // client endpoints so the server does not observe EOF in the gap.
        for &id in &self.remote_client_pins {
            if let Some(conn) = self.sockets.connection(id) {
                adjustments.push((conn.client_to_server, false));
                adjustments.push((conn.server_to_client, true));
            }
        }
        let mut outgoing: HashMap<usize, HashMap<StreamId, (u32, u32)>> = HashMap::new();
        for (stream_id, is_reader) in adjustments {
            if shard::stream_shard(stream_id) == self.shard_id {
                if let Some(stream) = self.streams.get_mut(stream_id) {
                    if is_reader {
                        stream.readers += 1;
                    } else {
                        stream.writers += 1;
                    }
                }
            } else {
                let entry = outgoing
                    .entry(shard::stream_shard(stream_id))
                    .or_default()
                    .entry(stream_id)
                    .or_insert((0u32, 0u32));
                if is_reader {
                    entry.0 += 1;
                } else {
                    entry.1 += 1;
                }
            }
        }
        // Endpoint contributions peers have reported for our streams.
        for contrib in self.remote_contribs.values() {
            for (&stream_id, &(readers, writers)) in contrib {
                if let Some(stream) = self.streams.get_mut(stream_id) {
                    stream.readers += readers as usize;
                    stream.writers += writers as usize;
                }
            }
        }
        // Forget cached info about foreign connections no local descriptor
        // refers to any more.
        self.remote_connections.retain(|id, _| referenced.contains(id));
        for removed in self.streams.collect_garbage() {
            self.wake(WaitChannel::StreamReadable(removed));
            self.wake(WaitChannel::StreamWritable(removed));
        }
        // Wake exactly the queues whose EOF/EPIPE state flipped.
        for (id, (readers_before, writers_before)) in before {
            let (wake_readable, wake_writable) = match self.streams.get(id) {
                // Removed by the GC above (already woken) or explicitly.
                None => (true, true),
                Some(stream) => (
                    // EOF: blocked readers (and polls) must see it.
                    writers_before > 0 && stream.write_end_closed(),
                    // EPIPE: blocked writers must fail (and get SIGPIPE).
                    readers_before > 0 && stream.read_end_closed(),
                ),
            };
            if wake_readable {
                self.wake(WaitChannel::StreamReadable(id));
            }
            if wake_writable {
                self.wake(WaitChannel::StreamWritable(id));
            }
        }
        // Publish our endpoint contributions to each owner shard, but only
        // when they changed since the last publish (including shrinking back
        // to empty — that is how a peer learns our last descriptor closed).
        for peer in 0..self.nshards {
            if peer == self.shard_id {
                continue;
            }
            let mut snapshot: Vec<(StreamId, u32, u32)> = outgoing
                .remove(&peer)
                .map(|m| m.into_iter().map(|(id, (r, w))| (id, r, w)).collect())
                .unwrap_or_default();
            snapshot.sort_unstable();
            let changed = match self.sent_contribs.get(&peer) {
                Some(prev) => prev != &snapshot,
                None => !snapshot.is_empty(),
            };
            if changed {
                self.sent_contribs.insert(peer, snapshot.clone());
                self.send_shard(
                    peer,
                    ShardMsg::RemoteEndpoints {
                        from_shard: self.shard_id,
                        snapshot,
                    },
                );
            }
        }
    }

    /// Removes a task from the table entirely (used when a zombie is reaped).
    pub(crate) fn remove_task_impl(&mut self, pid: Pid) {
        self.tasks.remove(&pid);
    }
}

include!(concat!(env!("OUT_DIR"), "/dispatch_gen.rs"));
