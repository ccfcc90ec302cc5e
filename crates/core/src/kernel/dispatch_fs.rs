//! File and directory system-call handlers.
//!
//! Browsix "implements system calls that operate on paths, like `open` and
//! `stat`, as method calls to the kernel's BrowserFS instance".  Here the
//! path-based calls still route through the shared [`MountedFs`]
//! (`browsix_fs::MountedFs`) — behind its dentry cache — but `sys_open` is
//! the **only** place a descriptor's path is ever resolved: it obtains a
//! [`browsix_fs::FileHandle`] bound to the node, and every descriptor-based
//! call (`read`, `write`, `pread`, `pwrite`, `seek`, `fstat`, `fsync`) goes
//! through that handle without touching a path string again.

use browsix_fs::{Errno, FileSystem, FileType, Metadata, OpenFlags};

use crate::fd::{Fd, FileKind, OpenFile};
use crate::kernel::waitq::WaitChannel;
use crate::kernel::{KernelState, Outcome, ReplyTo, WaitKind, Waiter};
use crate::signals::Signal;
use crate::streams::StreamId;
use crate::syscall::{ByteSource, SysResult};
use crate::task::Pid;

impl KernelState {
    pub(crate) fn sys_open(&mut self, pid: Pid, path: String, flags: OpenFlags, mode: u32) -> Outcome {
        let path = self.resolve_path(pid, &path);
        let meta = match self.fs().stat(&path) {
            Ok(meta) => {
                if flags.create && flags.exclusive {
                    return Outcome::Complete(SysResult::Err(Errno::EEXIST));
                }
                Some(meta)
            }
            Err(Errno::ENOENT) if flags.create => {
                if let Err(e) = self.fs().create(&path, mode & 0o7777) {
                    return Outcome::Complete(SysResult::Err(e));
                }
                None
            }
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        let is_dir = meta.map(|m| m.is_dir()).unwrap_or(false);
        if is_dir {
            if flags.write {
                return Outcome::Complete(SysResult::Err(Errno::EISDIR));
            }
            let file = OpenFile::new(FileKind::Directory { path });
            let fd = match self.task_mut(pid) {
                Ok(task) => task.files.insert(file, 0),
                Err(e) => return Outcome::Complete(SysResult::Err(e)),
            };
            return Outcome::Complete(SysResult::Int(fd as i64));
        }
        // The single point where a descriptor's path is resolved: from here
        // on, all I/O goes through the handle.
        let handle = match self.fs().open_handle(&path, flags) {
            Ok(handle) => handle,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        if flags.truncate && flags.write {
            if let Err(e) = handle.truncate(0) {
                return Outcome::Complete(SysResult::Err(e));
            }
        }
        // POSIX: the offset starts at 0 even with O_APPEND; append writes
        // seek-to-end atomically at the handle layer instead.
        let file = OpenFile::new(FileKind::File { handle, flags });
        let fd = match self.task_mut(pid) {
            Ok(task) => task.files.insert(file, 0),
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        Outcome::Complete(SysResult::Int(fd as i64))
    }

    pub(crate) fn sys_close(&mut self, pid: Pid, fd: Fd) -> Outcome {
        let removed = match self.task_mut(pid) {
            Ok(task) => task.files.remove(fd),
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        match removed {
            Ok(file) => {
                if let FileKind::SocketListener { port } = file.kind() {
                    self.sockets_mut().close_listener(port);
                    self.router.release_port(port, self.shard_id);
                    self.wake(WaitChannel::Listener(port));
                }
                self.recompute_endpoints();
                Outcome::Complete(SysResult::Ok)
            }
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
    }

    /// The foreign stream a read/write on `fd` would touch, if its backing
    /// stream is owned by another shard (`None` for every local case —
    /// including errors, which the normal path reports properly).
    fn remote_stream_target(&self, pid: Pid, fd: Fd, write: bool) -> Option<StreamId> {
        let file = self.task(pid).ok()?.files.get(fd).ok()?;
        let kind = file.kind();
        if !matches!(
            kind,
            FileKind::PipeReader { .. } | FileKind::PipeWriter { .. } | FileKind::SocketStream { .. }
        ) {
            return None;
        }
        let stream = if write {
            self.write_stream_of(&kind)?
        } else {
            self.read_stream_of(&kind)?
        };
        self.stream_is_remote(stream).then_some(stream)
    }

    /// Attempts a read; `Ok(None)` means "would block".
    pub(crate) fn try_read_fd(&mut self, pid: Pid, fd: Fd, len: usize) -> Result<Option<Vec<u8>>, Errno> {
        let file = self.task(pid)?.files.get(fd)?;
        let kind = file.kind();
        match &kind {
            FileKind::File { handle, flags } => {
                if !flags.read {
                    return Err(Errno::EBADF);
                }
                let offset = file.offset();
                let data = handle.read_at(offset, len)?;
                file.advance_offset(data.len() as u64);
                Ok(Some(data))
            }
            FileKind::Directory { .. } => Err(Errno::EISDIR),
            FileKind::Null => Ok(Some(Vec::new())),
            FileKind::Tty => {
                // Job control: a background process group reading from the
                // controlling terminal gets SIGTTIN (default: stop).  A
                // reader that blocks or ignores SIGTTIN gets EIO instead, as
                // POSIX specifies — returning EINTR there would make a
                // retry-on-EINTR loop raise SIGTTIN forever.  The foreground
                // group (or a terminal with no foreground set) reads EOF,
                // since the terminal has no input source.
                if let Some(fg) = self.foreground_pgid() {
                    let task = self.task(pid)?;
                    if task.pgid != fg {
                        let shrugged = task.signals.blocked().contains(Signal::SIGTTIN)
                            || matches!(task.signals.action(Signal::SIGTTIN), crate::signals::SigAction::Ignore);
                        if shrugged {
                            return Err(Errno::EIO);
                        }
                        let _ = self.send_signal(pid, Signal::SIGTTIN);
                        return Err(Errno::EINTR);
                    }
                }
                Ok(Some(Vec::new()))
            }
            FileKind::HostSink { .. } | FileKind::PipeWriter { .. } => Err(Errno::EBADF),
            FileKind::Socket { .. } | FileKind::SocketListener { .. } => Err(Errno::ENOTCONN),
            FileKind::PipeReader { .. } | FileKind::SocketStream { .. } => {
                // The one place socket and pipe reads converge: resolve the
                // stream flowing towards this endpoint and read it.
                let stream = self.read_stream_of(&kind).ok_or(Errno::ENOTCONN)?;
                self.try_read_stream(stream, len)
            }
        }
    }

    fn try_read_stream(&mut self, id: StreamId, len: usize) -> Result<Option<Vec<u8>>, Errno> {
        let Some(stream) = self.streams_mut().get_mut(id) else {
            // All endpoints (including the buffer) are gone: read EOF.
            return Ok(Some(Vec::new()));
        };
        if !stream.is_empty() {
            let data = stream.pop(len);
            // Space was freed: writers blocked on this stream can continue.
            self.wake(WaitChannel::StreamWritable(id));
            return Ok(Some(data));
        }
        if stream.write_end_closed() {
            return Ok(Some(Vec::new()));
        }
        Ok(None)
    }

    pub(crate) fn sys_read(&mut self, pid: Pid, reply: ReplyTo, fd: Fd, len: usize) -> Outcome {
        // A descriptor backed by another shard's stream: ship the read to the
        // owner (the local table knows nothing about that buffer).
        if let Some(stream) = self.remote_stream_target(pid, fd, false) {
            let nonblocking = self.fd_nonblocking(pid, fd);
            return self.remote_read(pid, reply, stream, len, nonblocking);
        }
        match self.try_read_fd(pid, fd, len) {
            Ok(Some(data)) => Outcome::Complete(SysResult::Data(data)),
            Ok(None) => {
                if self.fd_nonblocking(pid, fd) {
                    self.stats.eagain_returns += 1;
                    return Outcome::Complete(SysResult::Err(Errno::EAGAIN));
                }
                let Some(channel) = self.read_wait_channel(pid, fd) else {
                    return Outcome::Complete(SysResult::Err(Errno::EIO));
                };
                self.stats.waiters_parked += 1;
                self.park_waiter_one(
                    channel,
                    Waiter {
                        pid,
                        reply: Some(reply),
                        kind: WaitKind::Read { fd, len },
                    },
                );
                Outcome::Blocked
            }
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
    }

    pub(crate) fn sys_pread(&mut self, pid: Pid, fd: Fd, len: usize, offset: u64) -> Outcome {
        let file = match self.task(pid).and_then(|t| t.files.get(fd)) {
            Ok(file) => file,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        match file.kind() {
            FileKind::File { handle, flags } => {
                if !flags.read {
                    return Outcome::Complete(SysResult::Err(Errno::EBADF));
                }
                match handle.read_at(offset, len) {
                    Ok(data) => Outcome::Complete(SysResult::Data(data)),
                    Err(e) => Outcome::Complete(SysResult::Err(e)),
                }
            }
            FileKind::Directory { .. } => Outcome::Complete(SysResult::Err(Errno::EISDIR)),
            _ => Outcome::Complete(SysResult::Err(Errno::ESPIPE)),
        }
    }

    /// Materialises a [`ByteSource`]: inline bytes are used as-is, shared-heap
    /// references are copied directly out of the process's registered heap.
    pub(crate) fn resolve_bytes(&self, pid: Pid, data: &ByteSource) -> Result<Vec<u8>, Errno> {
        match data {
            ByteSource::Inline(bytes) => Ok(bytes.clone()),
            ByteSource::SharedHeap { offset, len } => {
                let task = self.task(pid)?;
                let heap = task.sync_heap.as_ref().ok_or(Errno::EFAULT)?;
                heap.read_bytes(*offset as usize, *len as usize)
                    .map_err(|_| Errno::EFAULT)
            }
        }
    }

    /// Attempts to write `data` to `fd`.  Returns the number of bytes accepted
    /// so far and whether the write is complete; pipe writes may need to wait
    /// for space.
    pub(crate) fn try_write_fd(&mut self, pid: Pid, fd: Fd, data: &[u8]) -> Result<(usize, bool), Errno> {
        let file = self.task(pid)?.files.get(fd)?;
        let kind = file.kind();
        match &kind {
            FileKind::File { handle, flags } => {
                if !flags.write {
                    return Err(Errno::EBADF);
                }
                if flags.append {
                    // Atomic seek-to-end + write under the node lock: two
                    // descriptors (dup'd or independently opened) appending
                    // interleaved can never clobber each other, and the
                    // stored offset is never trusted for the write position.
                    let end = handle.append(data)?;
                    file.set_offset(end);
                    Ok((data.len(), true))
                } else {
                    let offset = file.offset();
                    let written = handle.write_at(offset, data)?;
                    file.set_offset(offset + written as u64);
                    Ok((written, true))
                }
            }
            FileKind::Directory { .. } => Err(Errno::EISDIR),
            FileKind::Null | FileKind::Tty => Ok((data.len(), true)),
            FileKind::HostSink { stream } => {
                if let Some(sink) = self.host_sink(*stream) {
                    sink(data);
                }
                Ok((data.len(), true))
            }
            FileKind::PipeReader { .. } => Err(Errno::EBADF),
            FileKind::Socket { .. } | FileKind::SocketListener { .. } => Err(Errno::ENOTCONN),
            FileKind::PipeWriter { .. } | FileKind::SocketStream { .. } => {
                // The one place socket and pipe writes converge.
                let stream = self.write_stream_of(&kind).ok_or(Errno::ENOTCONN)?;
                self.try_write_stream(pid, stream, data)
            }
        }
    }

    fn try_write_stream(&mut self, pid: Pid, id: StreamId, data: &[u8]) -> Result<(usize, bool), Errno> {
        let read_closed = match self.streams().get(id) {
            Some(stream) => stream.read_end_closed(),
            None => return Err(Errno::EPIPE),
        };
        if read_closed {
            // Writing to a stream nobody will read raises SIGPIPE, as on
            // Unix — through the same delivery machinery as every other
            // signal, so handlers, sigprocmask and SA_RESTART all apply.
            let _ = self.send_signal(pid, Signal::SIGPIPE);
            return Err(Errno::EPIPE);
        }
        let stream = self.streams_mut().get_mut(id).ok_or(Errno::EPIPE)?;
        let written = stream.push(data);
        if written > 0 {
            // Data arrived: readers blocked on this stream can continue.
            self.wake(WaitChannel::StreamReadable(id));
        }
        Ok((written, written == data.len()))
    }

    pub(crate) fn sys_write(&mut self, pid: Pid, reply: ReplyTo, fd: Fd, data: ByteSource) -> Outcome {
        let bytes = match self.resolve_bytes(pid, &data) {
            Ok(bytes) => bytes,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        // Writes to a foreign stream go to its owner; EPIPE comes back with
        // a flag telling this shard to raise SIGPIPE first, preserving the
        // local signal-then-error ordering.
        if let Some(stream) = self.remote_stream_target(pid, fd, true) {
            let nonblocking = self.fd_nonblocking(pid, fd);
            return self.remote_write(pid, reply, stream, bytes, nonblocking);
        }
        let total = bytes.len();
        match self.try_write_fd(pid, fd, &bytes) {
            Ok((_, true)) => Outcome::Complete(SysResult::Int(total as i64)),
            Ok((written, false)) => {
                if self.fd_nonblocking(pid, fd) {
                    // A non-blocking write reports whatever it managed to
                    // push; EAGAIN only when not a single byte fit.
                    if written > 0 {
                        return Outcome::Complete(SysResult::Int(written as i64));
                    }
                    self.stats.eagain_returns += 1;
                    return Outcome::Complete(SysResult::Err(Errno::EAGAIN));
                }
                let Some(channel) = self.write_wait_channel(pid, fd) else {
                    return Outcome::Complete(SysResult::Err(Errno::EIO));
                };
                self.stats.waiters_parked += 1;
                self.park_waiter_one(
                    channel,
                    Waiter {
                        pid,
                        reply: Some(reply),
                        kind: WaitKind::Write {
                            fd,
                            data: bytes,
                            written,
                        },
                    },
                );
                Outcome::Blocked
            }
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
    }

    /// Pumps up to `remaining` bytes of `in_fd`'s file into `out_fd`'s stream
    /// without the bytes ever entering guest memory: each iteration
    /// materialises one page-cache page by reference
    /// ([`FileHandle::map_page`](browsix_fs::FileHandle::map_page)) and pushes
    /// the covered slice straight into the kernel stream.  Advances `offset`
    /// and `remaining` in place; returns the bytes pushed this pass and
    /// whether the transfer is finished (`remaining` exhausted or end of
    /// file).  A partial pass with `done == false` means the stream filled.
    pub(crate) fn pump_sendfile(
        &mut self,
        pid: Pid,
        out_fd: Fd,
        in_fd: Fd,
        offset: &mut u64,
        remaining: &mut u64,
        advance_cursor: bool,
    ) -> Result<(u64, bool), Errno> {
        use crate::vm::PAGE_SIZE;
        let in_file = self.task(pid)?.files.get(in_fd)?;
        let (handle, in_flags) = match in_file.kind() {
            FileKind::File { handle, flags } => (handle, flags),
            FileKind::Directory { .. } => return Err(Errno::EISDIR),
            _ => return Err(Errno::EINVAL),
        };
        if !in_flags.read {
            return Err(Errno::EBADF);
        }
        let out_kind = self.task(pid)?.files.get(out_fd)?.kind();
        let Some(stream_id) = self.write_stream_of(&out_kind) else {
            return Err(Errno::EINVAL);
        };
        if self.stream_is_remote(stream_id) {
            // Zero-copy page pushes need the destination buffer in this
            // address space; callers fall back to a buffered read/write
            // loop, which the remote data path handles.
            return Err(Errno::EINVAL);
        }
        let mut pushed_total: u64 = 0;
        let mut size;
        loop {
            size = handle.metadata()?.size;
            if *remaining == 0 || *offset >= size {
                break;
            }
            let (space, read_closed) = match self.streams().get(stream_id) {
                Some(s) => (s.space(), s.read_end_closed()),
                None if pushed_total > 0 => break,
                None => return Err(Errno::EPIPE),
            };
            if read_closed {
                if pushed_total > 0 {
                    break;
                }
                let _ = self.send_signal(pid, Signal::SIGPIPE);
                return Err(Errno::EPIPE);
            }
            if space == 0 {
                break;
            }
            let page_index = *offset / PAGE_SIZE as u64;
            let page_off = (*offset % PAGE_SIZE as u64) as usize;
            let page = handle.map_page(page_index, PAGE_SIZE)?;
            let chunk = (PAGE_SIZE - page_off)
                .min(space)
                .min((*remaining).min(size - *offset) as usize);
            let pushed = match self.streams_mut().get_mut(stream_id) {
                Some(s) => s.push(&page[page_off..page_off + chunk]),
                None => break,
            };
            if pushed == 0 {
                break;
            }
            self.stats.sendfile_bytes += pushed as u64;
            self.stats.zero_copy_pages += 1;
            *offset += pushed as u64;
            *remaining -= pushed as u64;
            pushed_total += pushed as u64;
            if advance_cursor {
                in_file.set_offset(*offset);
            }
            // Waking readers inside the loop lets a blocked consumer drain
            // the stream between pages, so one sendfile pass can move more
            // than a streamful.
            self.wake(WaitChannel::StreamReadable(stream_id));
        }
        Ok((pushed_total, *remaining == 0 || *offset >= size))
    }

    pub(crate) fn sys_sendfile(
        &mut self,
        pid: Pid,
        reply: ReplyTo,
        out_fd: Fd,
        in_fd: Fd,
        offset: i64,
        len: u64,
    ) -> Outcome {
        // offset -1 means "use (and advance) the descriptor's cursor", like
        // passing NULL to Linux sendfile(2); an explicit offset leaves it
        // untouched.
        if offset < -1 {
            return Outcome::Complete(SysResult::Err(Errno::EINVAL));
        }
        let advance_cursor = offset < 0;
        let mut pos = if advance_cursor {
            match self.task(pid).and_then(|t| t.files.get(in_fd)) {
                Ok(file) => file.offset(),
                Err(e) => return Outcome::Complete(SysResult::Err(e)),
            }
        } else {
            offset as u64
        };
        let mut remaining = len;
        match self.pump_sendfile(pid, out_fd, in_fd, &mut pos, &mut remaining, advance_cursor) {
            Ok((sent, true)) => Outcome::Complete(SysResult::Int(sent as i64)),
            Ok((sent, false)) => {
                if self.fd_nonblocking(pid, out_fd) {
                    if sent > 0 {
                        return Outcome::Complete(SysResult::Int(sent as i64));
                    }
                    self.stats.eagain_returns += 1;
                    return Outcome::Complete(SysResult::Err(Errno::EAGAIN));
                }
                let Some(channel) = self.write_wait_channel(pid, out_fd) else {
                    return Outcome::Complete(SysResult::Err(Errno::EIO));
                };
                self.stats.waiters_parked += 1;
                self.park_waiter_one(
                    channel,
                    Waiter {
                        pid,
                        reply: Some(reply),
                        kind: WaitKind::Sendfile {
                            out_fd,
                            in_fd,
                            offset: pos,
                            remaining,
                            sent,
                            advance_cursor,
                        },
                    },
                );
                Outcome::Blocked
            }
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
    }

    /// Attempts one stream-to-stream move of up to `len` bytes.
    /// `Ok(Some(n))` moved `n` bytes (`0` = end of input); `Ok(None)` means
    /// "would block" — input empty with live writers, or output full.
    pub(crate) fn try_splice(&mut self, pid: Pid, fd_in: Fd, fd_out: Fd, len: u64) -> Result<Option<u64>, Errno> {
        let in_kind = self.task(pid)?.files.get(fd_in)?.kind();
        let Some(in_stream) = self.read_stream_of(&in_kind) else {
            return Err(Errno::EINVAL);
        };
        let out_kind = self.task(pid)?.files.get(fd_out)?.kind();
        let Some(out_stream) = self.write_stream_of(&out_kind) else {
            return Err(Errno::EINVAL);
        };
        if in_stream == out_stream {
            return Err(Errno::EINVAL);
        }
        if self.stream_is_remote(in_stream) || self.stream_is_remote(out_stream) {
            // Splice moves bytes between two local buffers; with a foreign
            // endpoint callers fall back to the buffered loop.
            return Err(Errno::EINVAL);
        }
        match self.streams().get(out_stream) {
            Some(s) if s.read_end_closed() => {
                let _ = self.send_signal(pid, Signal::SIGPIPE);
                return Err(Errno::EPIPE);
            }
            Some(_) => {}
            None => return Err(Errno::EPIPE),
        }
        let (buffered, eof) = match self.streams().get(in_stream) {
            Some(s) => (s.len(), s.write_end_closed()),
            // Input stream gone entirely: end of input.
            None => return Ok(Some(0)),
        };
        if buffered == 0 {
            return if eof { Ok(Some(0)) } else { Ok(None) };
        }
        let space = self
            .streams()
            .get(out_stream)
            .map(crate::streams::Stream::space)
            .unwrap_or(0);
        if space == 0 {
            return Ok(None);
        }
        let take = (len.min(buffered as u64) as usize).min(space);
        let data = match self.streams_mut().get_mut(in_stream) {
            Some(s) => s.pop(take),
            None => return Ok(Some(0)),
        };
        let moved = match self.streams_mut().get_mut(out_stream) {
            Some(s) => s.push(&data),
            None => return Err(Errno::EPIPE),
        };
        debug_assert_eq!(moved, data.len(), "splice sized its chunk to the output's free space");
        self.stats.sendfile_bytes += moved as u64;
        self.wake(WaitChannel::StreamWritable(in_stream));
        self.wake(WaitChannel::StreamReadable(out_stream));
        Ok(Some(moved as u64))
    }

    pub(crate) fn sys_splice(&mut self, pid: Pid, reply: ReplyTo, fd_in: Fd, fd_out: Fd, len: u64) -> Outcome {
        match self.try_splice(pid, fd_in, fd_out, len) {
            Ok(Some(moved)) => Outcome::Complete(SysResult::Int(moved as i64)),
            Ok(None) => {
                if self.fd_nonblocking(pid, fd_in) || self.fd_nonblocking(pid, fd_out) {
                    self.stats.eagain_returns += 1;
                    return Outcome::Complete(SysResult::Err(Errno::EAGAIN));
                }
                let channels = match (self.read_wait_channel(pid, fd_in), self.write_wait_channel(pid, fd_out)) {
                    (Some(a), Some(b)) => vec![a, b],
                    _ => return Outcome::Complete(SysResult::Err(Errno::EIO)),
                };
                self.stats.waiters_parked += 1;
                self.park_waiter(
                    channels,
                    Waiter {
                        pid,
                        reply: Some(reply),
                        kind: WaitKind::Splice { fd_in, fd_out, len },
                    },
                );
                Outcome::Blocked
            }
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
    }

    pub(crate) fn sys_pwrite(&mut self, pid: Pid, fd: Fd, data: ByteSource, offset: u64) -> Outcome {
        let bytes = match self.resolve_bytes(pid, &data) {
            Ok(bytes) => bytes,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        let file = match self.task(pid).and_then(|t| t.files.get(fd)) {
            Ok(file) => file,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        match file.kind() {
            FileKind::File { handle, flags } => {
                if !flags.write {
                    return Outcome::Complete(SysResult::Err(Errno::EBADF));
                }
                match handle.write_at(offset, &bytes) {
                    Ok(written) => Outcome::Complete(SysResult::Int(written as i64)),
                    Err(e) => Outcome::Complete(SysResult::Err(e)),
                }
            }
            _ => Outcome::Complete(SysResult::Err(Errno::ESPIPE)),
        }
    }

    pub(crate) fn sys_seek(&mut self, pid: Pid, fd: Fd, offset: i64, whence: u32) -> Outcome {
        let file = match self.task(pid).and_then(|t| t.files.get(fd)) {
            Ok(file) => file,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        let kind = file.kind();
        if !matches!(kind, FileKind::File { .. } | FileKind::Directory { .. }) {
            return Outcome::Complete(SysResult::Err(Errno::ESPIPE));
        }
        let base: i64 = match whence {
            0 => 0,
            1 => file.offset() as i64,
            // Only SEEK_END needs the current size: from the handle for
            // files, zero for open directories.
            2 => match &kind {
                FileKind::File { handle, .. } => match handle.metadata() {
                    Ok(meta) => meta.size as i64,
                    Err(e) => return Outcome::Complete(SysResult::Err(e)),
                },
                _ => 0,
            },
            _ => return Outcome::Complete(SysResult::Err(Errno::EINVAL)),
        };
        let target = base + offset;
        if target < 0 {
            return Outcome::Complete(SysResult::Err(Errno::EINVAL));
        }
        file.set_offset(target as u64);
        Outcome::Complete(SysResult::Int(target))
    }

    pub(crate) fn sys_dup(&mut self, pid: Pid, fd: Fd) -> Outcome {
        let task = match self.task_mut(pid) {
            Ok(task) => task,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        match task.files.get(fd) {
            Ok(file) => {
                let new_fd = task.files.insert(file, 0);
                self.recompute_endpoints();
                Outcome::Complete(SysResult::Int(new_fd as i64))
            }
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
    }

    pub(crate) fn sys_dup2(&mut self, pid: Pid, from: Fd, to: Fd) -> Outcome {
        if to < 0 {
            return Outcome::Complete(SysResult::Err(Errno::EBADF));
        }
        let task = match self.task_mut(pid) {
            Ok(task) => task,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        match task.files.get(from) {
            Ok(file) => {
                if from != to {
                    task.files.insert_at(to, file);
                }
                self.recompute_endpoints();
                Outcome::Complete(SysResult::Int(to as i64))
            }
            Err(e) => Outcome::Complete(SysResult::Err(e)),
        }
    }

    pub(crate) fn sys_unlink(&mut self, pid: Pid, path: String) -> Outcome {
        let path = self.resolve_path(pid, &path);
        Outcome::Complete(match self.fs().unlink(&path) {
            Ok(()) => SysResult::Ok,
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_truncate(&mut self, pid: Pid, path: String, size: u64) -> Outcome {
        let path = self.resolve_path(pid, &path);
        Outcome::Complete(match self.fs().truncate(&path, size) {
            Ok(()) => SysResult::Ok,
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_rename(&mut self, pid: Pid, from: String, to: String) -> Outcome {
        let from = self.resolve_path(pid, &from);
        let to = self.resolve_path(pid, &to);
        Outcome::Complete(match self.fs().rename(&from, &to) {
            Ok(()) => SysResult::Ok,
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_readdir(&mut self, pid: Pid, path: String) -> Outcome {
        let path = self.resolve_path(pid, &path);
        Outcome::Complete(match self.fs().read_dir(&path) {
            Ok(entries) => SysResult::Entries(entries),
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_mkdir(&mut self, pid: Pid, path: String, _mode: u32) -> Outcome {
        let path = self.resolve_path(pid, &path);
        Outcome::Complete(match self.fs().mkdir(&path) {
            Ok(()) => SysResult::Ok,
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_rmdir(&mut self, pid: Pid, path: String) -> Outcome {
        let path = self.resolve_path(pid, &path);
        Outcome::Complete(match self.fs().rmdir(&path) {
            Ok(()) => SysResult::Ok,
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_stat(&mut self, pid: Pid, path: String) -> Outcome {
        let path = self.resolve_path(pid, &path);
        Outcome::Complete(match self.fs().stat(&path) {
            Ok(meta) => SysResult::Stat(meta),
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_fstat(&mut self, pid: Pid, fd: Fd) -> Outcome {
        let file = match self.task(pid).and_then(|t| t.files.get(fd)) {
            Ok(file) => file,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        let meta = match file.kind() {
            FileKind::File { handle, .. } => match handle.metadata() {
                Ok(meta) => meta,
                Err(e) => return Outcome::Complete(SysResult::Err(e)),
            },
            FileKind::Directory { path } => match self.fs().stat(&path) {
                Ok(meta) => meta,
                Err(e) => return Outcome::Complete(SysResult::Err(e)),
            },
            // Pipes, sockets and sinks report a character-device-like stat.
            _ => Metadata {
                file_type: FileType::Regular,
                size: 0,
                mode: 0o600,
                mtime_ms: 0,
                atime_ms: 0,
            },
        };
        Outcome::Complete(SysResult::Stat(meta))
    }

    pub(crate) fn sys_fsync(&mut self, pid: Pid, fd: Fd) -> Outcome {
        let file = match self.task(pid).and_then(|t| t.files.get(fd)) {
            Ok(file) => file,
            Err(e) => return Outcome::Complete(SysResult::Err(e)),
        };
        Outcome::Complete(match file.kind() {
            FileKind::File { handle, .. } => match handle.fsync() {
                Ok(()) => SysResult::Ok,
                Err(e) => SysResult::Err(e),
            },
            // Directories, host sinks and the terminal have nothing buffered
            // kernel-side.
            FileKind::Directory { .. } | FileKind::HostSink { .. } | FileKind::Null | FileKind::Tty => SysResult::Ok,
            // fsync on pipes and sockets is EINVAL, as on Linux.
            _ => SysResult::Err(Errno::EINVAL),
        })
    }

    pub(crate) fn sys_access(&mut self, pid: Pid, path: String, _mode: u32) -> Outcome {
        // Browsix has no users: access reduces to an existence check, with the
        // browser sandbox standing in for permissions (§3.1 of the paper).
        let path = self.resolve_path(pid, &path);
        Outcome::Complete(match self.fs().stat(&path) {
            Ok(_) => SysResult::Ok,
            Err(e) => SysResult::Err(e),
        })
    }

    pub(crate) fn sys_utimes(&mut self, pid: Pid, path: String, atime_ms: u64, mtime_ms: u64) -> Outcome {
        let path = self.resolve_path(pid, &path);
        Outcome::Complete(match self.fs().set_times(&path, atime_ms, mtime_ms) {
            Ok(()) => SysResult::Ok,
            Err(e) => SysResult::Err(e),
        })
    }
}
