//! Events processed by the kernel's main loop.
//!
//! Everything that happens to the kernel arrives as a [`KernelEvent`] on a
//! single queue, mirroring the way every interaction with the real Browsix
//! kernel arrives as a `postMessage` on the main browser thread: system calls
//! from processes, registrations of shared heaps, and calls made by the
//! embedding web application through the host API.

use std::sync::Arc;

use crossbeam::channel::Sender;

use browsix_browser::SharedArrayBuffer;
use browsix_fs::Errno;
use browsix_http::{HttpRequest, HttpResponse};

use crate::signals::Signal;
use crate::stats::KernelStats;
use crate::syscall::Transport;
use crate::task::Pid;

/// A callback the embedding application supplies for a process's standard
/// output or standard error (the `logStdout`/`logStderr` parameters of
/// `kernel.system` in Figure 4 of the paper).
pub type OutputSink = Arc<dyn Fn(&[u8]) + Send + Sync>;

/// A host-API request, carried to the kernel thread with a reply channel.
pub enum HostRequest {
    /// Start a process on behalf of the web application.
    Spawn {
        /// Path of the executable.
        path: String,
        /// Argument vector.
        args: Vec<String>,
        /// Environment variables (merged over the boot-time defaults).
        env: Vec<(String, String)>,
        /// Working directory.
        cwd: String,
        /// Callback receiving the process's standard output.
        stdout: OutputSink,
        /// Callback receiving the process's standard error.
        stderr: OutputSink,
        /// Receives the new pid, or the reason the spawn failed.
        reply: Sender<Result<Pid, Errno>>,
    },
    /// Deliver a signal to a process (the host-side `kill`).
    Kill {
        /// Target process.
        pid: Pid,
        /// Signal to deliver.
        signal: Signal,
        /// Receives whether the signal was delivered.
        reply: Sender<Result<(), Errno>>,
    },
    /// Deliver a signal to the foreground process group of the controlling
    /// terminal (what the terminal UI sends for `Ctrl-C`/`Ctrl-Z`).
    SignalForeground {
        /// Signal to deliver (typically SIGINT or SIGTSTP).
        signal: Signal,
        /// Receives whether a foreground group existed and was signalled.
        reply: Sender<Result<(), Errno>>,
    },
    /// Ask to be told when a process exits (used by the host-side `wait`).
    WatchExit {
        /// The process to watch.
        pid: Pid,
        /// Receives the wait status; fires immediately if the process has
        /// already exited.
        reply: Sender<i32>,
    },
    /// Issue an HTTP request to an in-Browsix server (the paper's
    /// `XMLHttpRequest`-like API).
    HttpRequest {
        /// The loopback port the server is listening on.
        port: u16,
        /// The request to send.
        request: HttpRequest,
        /// Receives the parsed response.
        reply: Sender<Result<HttpResponse, Errno>>,
    },
    /// Subscribe to socket notifications: the channel receives the port
    /// number every time a process starts listening.
    SubscribePortListen {
        /// Receives port numbers as listeners appear.
        listener: Sender<u16>,
    },
    /// Fetch the ports that currently have listening sockets.
    ListeningPorts {
        /// Receives the sorted port list.
        reply: Sender<Vec<u16>>,
    },
    /// Fetch a snapshot of kernel statistics.
    ReadStats {
        /// Receives the snapshot.
        reply: Sender<KernelStats>,
    },
    /// List the live tasks as `(pid, ppid, name, state)` tuples, for the
    /// terminal's `ps`-like inspection of kernel state.
    ListTasks {
        /// Receives the task list.
        reply: Sender<Vec<(Pid, Pid, String, String)>>,
    },
}

impl std::fmt::Debug for HostRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            HostRequest::Spawn { path, .. } => return write!(f, "Spawn({path})"),
            HostRequest::Kill { pid, signal, .. } => return write!(f, "Kill({pid}, {signal})"),
            HostRequest::SignalForeground { signal, .. } => return write!(f, "SignalForeground({signal})"),
            HostRequest::WatchExit { pid, .. } => return write!(f, "WatchExit({pid})"),
            HostRequest::HttpRequest { port, .. } => return write!(f, "HttpRequest(:{port})"),
            HostRequest::SubscribePortListen { .. } => "SubscribePortListen",
            HostRequest::ListeningPorts { .. } => "ListeningPorts",
            HostRequest::ReadStats { .. } => "ReadStats",
            HostRequest::ListTasks { .. } => "ListTasks",
        };
        f.write_str(name)
    }
}

/// An event on the kernel's queue.
pub enum KernelEvent {
    /// A submission batch of system calls posted by a process over the
    /// asynchronous convention.
    Syscall {
        /// The calling process.
        pid: Pid,
        /// The batch and the sequence number its reply must carry.
        transport: Transport,
    },
    /// A process registering its shared heap for synchronous system calls
    /// (sent once at runtime startup, as described in §3.2 of the paper,
    /// right before the `ring_setup` call that maps its ring into it).
    RegisterSyncHeap {
        /// The registering process.
        pid: Pid,
        /// The shared memory.
        sab: SharedArrayBuffer,
    },
    /// A process ringing its submission-ring doorbell: its SQ went from
    /// empty to non-empty while the kernel had the `NEED_WAKEUP` flag set.
    /// Carries no payload — the entries themselves sit in shared memory
    /// (this models `Atomics.notify` on the kernel's wait address).
    Doorbell {
        /// The submitting process.
        pid: Pid,
    },
    /// A host-API request from the embedding application.
    Host(HostRequest),
    /// A message from a peer kernel shard (cross-shard pipe traffic, remote
    /// spawns, group signals...); see [`ShardMsg`](crate::kernel::shard::ShardMsg).
    Shard(crate::kernel::shard::ShardMsg),
    /// Stop the kernel: terminate all workers and end the event loop.
    Shutdown,
}

impl std::fmt::Debug for KernelEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelEvent::Syscall { pid, transport } => write!(f, "Syscall(pid={pid}, seq={})", transport.seq),
            KernelEvent::RegisterSyncHeap { pid, .. } => write!(f, "RegisterSyncHeap(pid={pid})"),
            KernelEvent::Doorbell { pid } => write!(f, "Doorbell(pid={pid})"),
            KernelEvent::Host(req) => write!(f, "Host({req:?})"),
            KernelEvent::Shard(msg) => write!(f, "Shard({msg:?})"),
            KernelEvent::Shutdown => write!(f, "Shutdown"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syscall::{Syscall, SyscallBatch};
    use crossbeam::channel::unbounded;

    #[test]
    fn debug_formatting_is_informative() {
        let (tx, _rx) = unbounded();
        let event = KernelEvent::Host(HostRequest::WatchExit { pid: 4, reply: tx });
        assert_eq!(format!("{event:?}"), "Host(WatchExit(4))");

        let event = KernelEvent::Syscall {
            pid: 2,
            transport: Transport {
                seq: 1,
                payload: SyscallBatch::single(Syscall::GetPid).encode(),
            },
        };
        assert_eq!(format!("{event:?}"), "Syscall(pid=2, seq=1)");
        let event = KernelEvent::Doorbell { pid: 3 };
        assert_eq!(format!("{event:?}"), "Doorbell(pid=3)");
        assert_eq!(format!("{:?}", KernelEvent::Shutdown), "Shutdown");
    }

    #[test]
    fn host_request_debug_variants() {
        let (tx, _rx) = unbounded::<Vec<u16>>();
        assert_eq!(
            format!("{:?}", HostRequest::ListeningPorts { reply: tx }),
            "ListeningPorts"
        );
        let (tx, _rx) = unbounded();
        assert_eq!(
            format!(
                "{:?}",
                HostRequest::Kill {
                    pid: 9,
                    signal: Signal::SIGKILL,
                    reply: tx
                }
            ),
            "Kill(9, SIGKILL)"
        );
    }
}
