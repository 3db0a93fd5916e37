//! The CntrFS server: FUSE passthrough into another mount namespace.
//!
//! The server process lives on the host or inside the fat container (paper
//! §3.2.2) and serves every FUSE request with ordinary system calls in *its*
//! namespace — that indirection is the whole trick: a process in the slim
//! container's nested namespace transparently reads files that only exist in
//! the fat container.
//!
//! Faithful details from the paper:
//!
//! * inodes are resolved to **paths** and re-opened per lookup: "for every
//!   lookup, we need one `open()` system call to get a file handle to the
//!   inode, followed by a `stat()` system call to check if we already have
//!   looked up this inode in a different path due \[to\] hardlinks" (§5.2.2) —
//!   this server does exactly that, which is why CntrFS lookups are slower
//!   than native dcache hits (compilebench-read's 13.3×),
//! * ownership of created files is stamped with the caller's ids
//!   (`setfsuid`/`setfsgid` emulation), while mode-bit decisions run under
//!   the *server's* root identity — the cause of xfstests #375,
//! * inodes are not persistent: once forgotten they are gone, so file
//!   handles are not exportable (xfstests #426).

use cntr_fuse::proto::{Reply, Request, RequestCtx};
use cntr_fuse::server::FuseHandler;
use cntr_fuse::InitFlags;
use cntr_kernel::vfs::Whence;
use cntr_kernel::Kernel;
use cntr_types::{
    DevId, Errno, FileType, Gid, Ino, Mode, OpenFlags, Pid, SetAttr, Stat, SysResult, Uid,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

struct InodeEntry {
    path: String,
    backing: (DevId, Ino),
    nlookup: u64,
}

struct ServerState {
    inodes: HashMap<u64, InodeEntry>,
    by_backing: HashMap<(DevId, Ino), u64>,
    next_ino: u64,
    /// FUSE fh → (kernel fd in the server process, inode).
    handles: HashMap<u64, (u32, Ino)>,
    next_fh: u64,
}

/// The CntrFS passthrough server.
#[derive(Clone)]
pub struct CntrfsServer {
    kernel: Kernel,
    /// The server process — already `setns`ed into the fat container when
    /// tools come from an image rather than the host.
    server_pid: Pid,
    state: Arc<Mutex<ServerState>>,
}

impl CntrfsServer {
    /// Creates a server rooted at `server_pid`'s `/`.
    pub fn new(kernel: Kernel, server_pid: Pid) -> CntrfsServer {
        // A FUSE daemon holds an open file per active handle — including
        // handles pinned by deferred writeback — so it raises its fd limit,
        // as the real cntr does.
        if let Ok(mut limits) = kernel.rlimits(server_pid) {
            let _ = limits.set(
                cntr_types::RlimitKind::Nofile,
                cntr_types::Rlimit {
                    soft: 1 << 20,
                    hard: 1 << 20,
                },
            );
            let _ = kernel.set_rlimits(server_pid, limits);
        }
        let mut inodes = HashMap::new();
        inodes.insert(
            1,
            InodeEntry {
                path: "/".to_string(),
                backing: (DevId(0), Ino(0)),
                nlookup: 1,
            },
        );
        CntrfsServer {
            kernel,
            server_pid,
            state: Arc::new(Mutex::new_class(
                "core.cntrfs.state",
                ServerState {
                    inodes,
                    by_backing: HashMap::new(),
                    next_ino: 2,
                    handles: HashMap::new(),
                    next_fh: 1,
                },
            )),
        }
    }

    /// The process serving requests.
    pub fn server_pid(&self) -> Pid {
        self.server_pid
    }

    /// Number of live (remembered) inodes.
    pub fn live_inodes(&self) -> usize {
        self.state.lock().inodes.len()
    }

    fn path_of(&self, ino: Ino) -> SysResult<String> {
        self.state
            .lock()
            .inodes
            .get(&ino.raw())
            .map(|e| e.path.clone())
            .ok_or(Errno::ESTALE)
    }

    fn child_path(parent: &str, name: &str) -> String {
        if parent == "/" {
            format!("/{name}")
        } else {
            format!("{parent}/{name}")
        }
    }

    /// Registers (or refreshes) an inode for `path`, performing the paper's
    /// open+stat hardlink detection, and returns the stat with the FUSE
    /// inode number substituted.
    fn register(&self, path: &str, st: Stat) -> Stat {
        // The open() of the open+stat pair: take (and immediately release) a
        // handle so the cost profile matches the real CntrFS lookup path.
        if st.ftype == FileType::Regular {
            if let Ok(fd) =
                self.kernel
                    .open(self.server_pid, path, OpenFlags::RDONLY, Mode::RW_R__R__)
            {
                let _ = self.kernel.close(self.server_pid, fd);
            }
        }
        let mut state = self.state.lock();
        let backing = (st.dev, st.ino);
        let fuse_ino = match state.by_backing.get(&backing) {
            // Hardlink (or re-lookup): same backing inode, possibly via a
            // different path — reuse the FUSE inode.
            Some(&ino) => {
                let e = state.inodes.get_mut(&ino).expect("maps in sync");
                e.nlookup += 1;
                e.path = path.to_string();
                ino
            }
            None => {
                let ino = state.next_ino;
                state.next_ino += 1;
                state.inodes.insert(
                    ino,
                    InodeEntry {
                        path: path.to_string(),
                        backing,
                        nlookup: 1,
                    },
                );
                state.by_backing.insert(backing, ino);
                ino
            }
        };
        let mut out = st;
        out.ino = Ino(fuse_ino);
        out
    }

    fn fd_of(&self, fh: u64) -> SysResult<u32> {
        self.state
            .lock()
            .handles
            .get(&fh)
            .map(|&(fd, _)| fd)
            .ok_or(Errno::EBADF)
    }

    /// Any open kernel fd for `ino` — getattr uses it so attributes of
    /// open-but-unlinked files stay reachable (the real CntrFS keeps a file
    /// handle per inode for the same reason).
    fn any_fd_for(&self, ino: Ino) -> Option<u32> {
        self.state
            .lock()
            .handles
            .values()
            .find(|&&(_, i)| i == ino)
            .map(|&(fd, _)| fd)
    }

    fn forget_one(&self, ino: Ino, n: u64) {
        if ino.raw() == 1 {
            return;
        }
        let mut st = self.state.lock();
        if let Some(e) = st.inodes.get_mut(&ino.raw()) {
            e.nlookup = e.nlookup.saturating_sub(n);
            if e.nlookup == 0 {
                let backing = e.backing;
                st.inodes.remove(&ino.raw());
                st.by_backing.remove(&backing);
            }
        }
    }

    /// Stamps ownership on a freshly created node with the caller's ids —
    /// the `setfsuid`/`setfsgid` delegation of the paper. Runs as the
    /// server's root identity, so no setgid-stripping logic applies (#375).
    fn stamp_owner(&self, path: &str, ctx: RequestCtx) {
        if ctx.uid != 0 || ctx.gid != 0 {
            let _ = self
                .kernel
                .chown(self.server_pid, path, Uid(ctx.uid), Gid(ctx.gid));
        }
    }

    fn do_setattr(&self, path: &str, attr: &SetAttr) -> SysResult<Stat> {
        // Replayed as individual syscalls under the server's identity.
        if let Some(mode) = attr.mode {
            self.kernel.chmod(self.server_pid, path, mode)?;
        }
        match (attr.uid, attr.gid) {
            (Some(uid), Some(gid)) => self.kernel.chown(self.server_pid, path, uid, gid)?,
            (Some(uid), None) => {
                let st = self.kernel.stat(self.server_pid, path)?;
                self.kernel.chown(self.server_pid, path, uid, st.gid)?;
            }
            (None, Some(gid)) => {
                let st = self.kernel.stat(self.server_pid, path)?;
                self.kernel.chown(self.server_pid, path, st.uid, gid)?;
            }
            (None, None) => {}
        }
        if let Some(size) = attr.size {
            self.kernel.truncate(self.server_pid, path, size)?;
        }
        if attr.atime.is_some() || attr.mtime.is_some() {
            self.kernel
                .utimens(self.server_pid, path, attr.atime, attr.mtime)?;
        }
        self.kernel.lstat(self.server_pid, path)
    }

    fn lookup_impl(&self, parent: Ino, name: &str) -> SysResult<Stat> {
        let parent_path = self.path_of(parent)?;
        let path = Self::child_path(&parent_path, name);
        let st = self.kernel.lstat(self.server_pid, &path)?;
        Ok(self.register(&path, st))
    }

    fn rename_fixup(&self, old_path: &str, new_path: &str) {
        let mut st = self.state.lock();
        for e in st.inodes.values_mut() {
            if e.path == old_path {
                e.path = new_path.to_string();
            } else if let Some(rest) = e.path.strip_prefix(&format!("{old_path}/")) {
                e.path = format!("{new_path}/{rest}");
            }
        }
    }
}

fn ok_or<T>(r: SysResult<T>, f: impl FnOnce(T) -> Reply) -> Reply {
    match r {
        Ok(v) => f(v),
        Err(e) => Reply::Err(e),
    }
}

impl FuseHandler for CntrfsServer {
    fn handle(&self, req: Request) -> Reply {
        match req {
            Request::Init { wanted } => Reply::Init {
                // CntrFS supports every optimization (splice write included,
                // even though CNTR disables it by default).
                granted: wanted.intersect(InitFlags::all()),
            },
            Request::Lookup { parent, name, .. } => {
                ok_or(self.lookup_impl(parent, &name), Reply::Entry)
            }
            Request::Forget { ino, nlookup } => {
                self.forget_one(ino, nlookup);
                Reply::Ok
            }
            Request::BatchForget { items } => {
                for (ino, n) in items {
                    self.forget_one(ino, n);
                }
                Reply::Ok
            }
            Request::Getattr { ino } => {
                // Prefer fstat through an open handle: it survives unlink.
                if let Some(fd) = self.any_fd_for(ino) {
                    return match self.kernel.fstat(self.server_pid, fd) {
                        Ok(mut st) => {
                            st.ino = ino;
                            Reply::Attr(st)
                        }
                        Err(e) => Reply::Err(e),
                    };
                }
                let path = match self.path_of(ino) {
                    Ok(p) => p,
                    Err(e) => return Reply::Err(e),
                };
                match self.kernel.lstat(self.server_pid, &path) {
                    Ok(mut st) => {
                        st.ino = ino;
                        Reply::Attr(st)
                    }
                    Err(e) => Reply::Err(e),
                }
            }
            Request::Setattr { ino, attr, .. } => {
                let path = match self.path_of(ino) {
                    Ok(p) => p,
                    Err(e) => return Reply::Err(e),
                };
                match self.do_setattr(&path, &attr) {
                    Ok(mut st) => {
                        st.ino = ino;
                        Reply::Attr(st)
                    }
                    Err(e) => Reply::Err(e),
                }
            }
            Request::Readlink { ino } => {
                let path = match self.path_of(ino) {
                    Ok(p) => p,
                    Err(e) => return Reply::Err(e),
                };
                ok_or(self.kernel.readlink(self.server_pid, &path), Reply::Target)
            }
            Request::Symlink {
                parent,
                name,
                target,
                ctx,
            } => {
                let parent_path = match self.path_of(parent) {
                    Ok(p) => p,
                    Err(e) => return Reply::Err(e),
                };
                let path = Self::child_path(&parent_path, &name);
                match self.kernel.symlink(self.server_pid, &target, &path) {
                    Ok(()) => {
                        self.stamp_owner(&path, ctx);
                        ok_or(self.lookup_impl(parent, &name), Reply::Entry)
                    }
                    Err(e) => Reply::Err(e),
                }
            }
            Request::Mknod {
                parent,
                name,
                ftype,
                mode,
                rdev,
                ctx,
            } => {
                let parent_path = match self.path_of(parent) {
                    Ok(p) => p,
                    Err(e) => return Reply::Err(e),
                };
                let path = Self::child_path(&parent_path, &name);
                let res = if ftype == FileType::Regular {
                    self.kernel
                        .open(self.server_pid, &path, OpenFlags::create_new(), mode)
                        .and_then(|fd| self.kernel.close(self.server_pid, fd))
                        .and_then(|()| self.kernel.chmod(self.server_pid, &path, mode))
                } else {
                    self.kernel.mknod(self.server_pid, &path, ftype, mode, rdev)
                };
                match res {
                    Ok(()) => {
                        self.stamp_owner(&path, ctx);
                        ok_or(self.lookup_impl(parent, &name), Reply::Entry)
                    }
                    Err(e) => Reply::Err(e),
                }
            }
            Request::Mkdir {
                parent,
                name,
                mode,
                ctx,
            } => {
                let parent_path = match self.path_of(parent) {
                    Ok(p) => p,
                    Err(e) => return Reply::Err(e),
                };
                let path = Self::child_path(&parent_path, &name);
                match self.kernel.mkdir(self.server_pid, &path, mode) {
                    Ok(()) => {
                        self.stamp_owner(&path, ctx);
                        ok_or(self.lookup_impl(parent, &name), Reply::Entry)
                    }
                    Err(e) => Reply::Err(e),
                }
            }
            Request::Unlink { parent, name } => {
                let parent_path = match self.path_of(parent) {
                    Ok(p) => p,
                    Err(e) => return Reply::Err(e),
                };
                let path = Self::child_path(&parent_path, &name);
                ok_or(self.kernel.unlink(self.server_pid, &path), |()| Reply::Ok)
            }
            Request::Rmdir { parent, name } => {
                let parent_path = match self.path_of(parent) {
                    Ok(p) => p,
                    Err(e) => return Reply::Err(e),
                };
                let path = Self::child_path(&parent_path, &name);
                ok_or(self.kernel.rmdir(self.server_pid, &path), |()| Reply::Ok)
            }
            Request::Rename {
                parent,
                name,
                newparent,
                newname,
                flags,
            } => {
                let (old, new) = match (self.path_of(parent), self.path_of(newparent)) {
                    (Ok(a), Ok(b)) => (Self::child_path(&a, &name), Self::child_path(&b, &newname)),
                    (Err(e), _) | (_, Err(e)) => return Reply::Err(e),
                };
                match self.kernel.rename(self.server_pid, &old, &new, flags) {
                    Ok(()) => {
                        self.rename_fixup(&old, &new);
                        Reply::Ok
                    }
                    Err(e) => Reply::Err(e),
                }
            }
            Request::Link {
                ino,
                newparent,
                newname,
            } => {
                let (src, parent_path) = match (self.path_of(ino), self.path_of(newparent)) {
                    (Ok(a), Ok(b)) => (a, b),
                    (Err(e), _) | (_, Err(e)) => return Reply::Err(e),
                };
                let new = Self::child_path(&parent_path, &newname);
                match self.kernel.link(self.server_pid, &src, &new) {
                    Ok(()) => ok_or(self.lookup_impl(newparent, &newname), Reply::Entry),
                    Err(e) => Reply::Err(e),
                }
            }
            Request::Open { ino, flags } => {
                let path = match self.path_of(ino) {
                    Ok(p) => p,
                    Err(e) => return Reply::Err(e),
                };
                match self
                    .kernel
                    .open(self.server_pid, &path, flags, Mode::RW_R__R__)
                {
                    Ok(fd) => {
                        let mut st = self.state.lock();
                        let fh = st.next_fh;
                        st.next_fh += 1;
                        st.handles.insert(fh, (fd, ino));
                        Reply::Opened {
                            fh,
                            keep_cache: true,
                        }
                    }
                    Err(e) => Reply::Err(e),
                }
            }
            Request::Read {
                fh, offset, size, ..
            } => {
                let fd = match self.fd_of(fh) {
                    Ok(fd) => fd,
                    Err(e) => return Reply::Err(e),
                };
                let mut buf = vec![0u8; size as usize];
                match self.kernel.pread(self.server_pid, fd, offset, &mut buf) {
                    Ok(n) => {
                        buf.truncate(n);
                        Reply::Data(buf.into())
                    }
                    Err(e) => Reply::Err(e),
                }
            }
            Request::Write {
                fh, offset, data, ..
            } => {
                let fd = match self.fd_of(fh) {
                    Ok(fd) => fd,
                    Err(e) => return Reply::Err(e),
                };
                ok_or(
                    self.kernel.pwrite(self.server_pid, fd, offset, &data),
                    |n| Reply::Written(n as u32),
                )
            }
            Request::Statfs => ok_or(self.kernel.statfs(self.server_pid, "/"), Reply::Statfs),
            Request::Release { fh, .. } => {
                let fd = {
                    let mut st = self.state.lock();
                    st.handles.remove(&fh)
                };
                match fd {
                    Some((fd, _)) => ok_or(self.kernel.close(self.server_pid, fd), |()| Reply::Ok),
                    None => Reply::Err(Errno::EBADF),
                }
            }
            Request::Fsync { fh, datasync, .. } => {
                let fd = match self.fd_of(fh) {
                    Ok(fd) => fd,
                    Err(e) => return Reply::Err(e),
                };
                // CNTR's delayed sync (§3.3): under the writeback cache a
                // datasync is handed to background writeback without a
                // durability barrier — "sacrific[ing] write consistency for
                // performance". A full fsync is honoured — and costs two
                // barriers through FUSE (the data pass, then the metadata /
                // parent-directory pass), which is why sync-per-operation
                // workloads like SQLite see ~2× on CntrFS (§5.2.2).
                let r = if datasync {
                    self.kernel.fsync_relaxed(self.server_pid, fd)
                } else {
                    self.kernel
                        .fsync(self.server_pid, fd, true)
                        .and_then(|()| self.kernel.fsync(self.server_pid, fd, false))
                };
                ok_or(r, |()| Reply::Ok)
            }
            Request::Readdir { ino } => {
                let path = match self.path_of(ino) {
                    Ok(p) => p,
                    Err(e) => return Reply::Err(e),
                };
                match self.kernel.readdir(self.server_pid, &path) {
                    Ok(entries) => Reply::Dirents(
                        entries
                            .into_iter()
                            .filter(|d| d.name != "." && d.name != "..")
                            .collect(),
                    ),
                    Err(e) => Reply::Err(e),
                }
            }
            Request::Getxattr { ino, name } => {
                let path = match self.path_of(ino) {
                    Ok(p) => p,
                    Err(e) => return Reply::Err(e),
                };
                ok_or(
                    self.kernel.getxattr(self.server_pid, &path, &name),
                    Reply::Xattr,
                )
            }
            Request::Setxattr {
                ino,
                name,
                value,
                flags,
            } => {
                let path = match self.path_of(ino) {
                    Ok(p) => p,
                    Err(e) => return Reply::Err(e),
                };
                ok_or(
                    self.kernel
                        .setxattr(self.server_pid, &path, &name, &value, flags),
                    |()| Reply::Ok,
                )
            }
            Request::Listxattr { ino } => {
                let path = match self.path_of(ino) {
                    Ok(p) => p,
                    Err(e) => return Reply::Err(e),
                };
                ok_or(
                    self.kernel.listxattr(self.server_pid, &path),
                    Reply::XattrNames,
                )
            }
            Request::Removexattr { ino, name } => {
                let path = match self.path_of(ino) {
                    Ok(p) => p,
                    Err(e) => return Reply::Err(e),
                };
                ok_or(
                    self.kernel.removexattr(self.server_pid, &path, &name),
                    |()| Reply::Ok,
                )
            }
            Request::Access { ino, .. } => {
                let path = match self.path_of(ino) {
                    Ok(p) => p,
                    Err(e) => return Reply::Err(e),
                };
                ok_or(self.kernel.lstat(self.server_pid, &path), |_| Reply::Ok)
            }
            Request::Create {
                parent,
                name,
                mode,
                flags,
                ctx,
            } => {
                let parent_path = match self.path_of(parent) {
                    Ok(p) => p,
                    Err(e) => return Reply::Err(e),
                };
                let path = Self::child_path(&parent_path, &name);
                match self
                    .kernel
                    .open(self.server_pid, &path, flags.with(OpenFlags::CREAT), mode)
                {
                    Ok(fd) => {
                        self.stamp_owner(&path, ctx);
                        let stat = match self.lookup_impl(parent, &name) {
                            Ok(st) => st,
                            Err(e) => return Reply::Err(e),
                        };
                        let ino = stat.ino;
                        let mut st = self.state.lock();
                        let fh = st.next_fh;
                        st.next_fh += 1;
                        st.handles.insert(fh, (fd, ino));
                        Reply::Created { stat, fh }
                    }
                    Err(e) => Reply::Err(e),
                }
            }
            Request::Fallocate {
                fh,
                offset,
                len,
                mode,
                ..
            } => {
                let fd = match self.fd_of(fh) {
                    Ok(fd) => fd,
                    Err(e) => return Reply::Err(e),
                };
                ok_or(
                    self.kernel
                        .fallocate(self.server_pid, fd, offset, len, mode),
                    |()| Reply::Ok,
                )
            }
            Request::Flush { fh, .. } => {
                // Seek-position reset is the closest flush-visible effect.
                if let Ok(fd) = self.fd_of(fh) {
                    let _ = self.kernel.lseek(self.server_pid, fd, 0, Whence::Cur);
                }
                Reply::Ok
            }
            Request::Destroy => Reply::Ok,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntr_engine::runtime::boot_host;
    use cntr_fs::{Filesystem, FsContext};
    use cntr_fuse::{FuseClientFs, FuseConfig, InlineTransport};
    use cntr_kernel::{CacheMode, MountFlags};
    use cntr_types::SimClock;

    fn setup() -> (Kernel, Arc<FuseClientFs>) {
        let k = boot_host(SimClock::new());
        // Host files the server will expose.
        k.mkdir(Pid::INIT, "/usr/share", Mode::RWXR_XR_X).unwrap();
        let fd = k
            .open(
                Pid::INIT,
                "/usr/bin/gdb",
                OpenFlags::create(),
                Mode::RWXR_XR_X,
            )
            .unwrap();
        k.write_fd(Pid::INIT, fd, b"GDB-BINARY").unwrap();
        k.close(Pid::INIT, fd).unwrap();
        k.chmod(Pid::INIT, "/usr/bin/gdb", Mode::RWXR_XR_X).unwrap();

        let server_pid = k.fork(Pid::INIT).unwrap();
        let server = CntrfsServer::new(k.clone(), server_pid);
        let transport = InlineTransport::new(server);
        let client = FuseClientFs::mount(
            DevId(7777),
            k.clock().clone(),
            k.cost(),
            FuseConfig::optimized(),
            transport,
        )
        .unwrap();
        (k, client)
    }

    /// A partial write to a page never read through CntrFS must not zero
    /// the rest of that page on disk: the write-back cache reads the page
    /// in before dirtying it, through a write-only open too (the kernel
    /// sends that OPEN read-write).
    #[test]
    fn partial_write_to_an_uncached_page_keeps_the_rest_of_it() {
        let (k, fs) = setup();
        let original: Vec<u8> = (0..3 * 4096u32).map(|i| (i % 251) as u8 + 1).collect();
        let fd = k
            .open(
                Pid::INIT,
                "/etc/partial",
                OpenFlags::create(),
                Mode::RW_R__R__,
            )
            .unwrap();
        k.write_fd(Pid::INIT, fd, &original).unwrap();
        k.close(Pid::INIT, fd).unwrap();
        k.sync().unwrap();

        let flags = fs.effective_flags();
        assert!(flags.writeback_cache, "the write-back cache is under test");
        k.mkdir(Pid::INIT, "/mnt", Mode::RWXR_XR_X).unwrap();
        let cache = CacheMode {
            writeback: true,
            keep_cache: flags.keep_cache,
            synthetic: false,
        };
        k.mount_fs(Pid::INIT, "/mnt", fs, cache, MountFlags::default())
            .unwrap();
        let fd = k
            .open(
                Pid::INIT,
                "/mnt/etc/partial",
                OpenFlags::WRONLY,
                Mode::RW_R__R__,
            )
            .unwrap();
        assert_eq!(k.pwrite(Pid::INIT, fd, 1000, &[0xAB; 100]).unwrap(), 100);
        k.close(Pid::INIT, fd).unwrap();
        k.sync().unwrap();

        let mut expected = original;
        expected[1000..1100].fill(0xAB);
        k.drop_caches().unwrap();
        for path in ["/etc/partial", "/mnt/etc/partial"] {
            let fd = k
                .open(Pid::INIT, path, OpenFlags::RDONLY, Mode::RW_R__R__)
                .unwrap();
            let mut got = vec![0u8; expected.len() + 1];
            assert_eq!(k.pread(Pid::INIT, fd, 0, &mut got).unwrap(), expected.len());
            assert!(got[..expected.len()] == expected[..], "{path} lost data");
            k.close(Pid::INIT, fd).unwrap();
        }
    }

    #[test]
    fn lookup_and_read_through_passthrough() {
        let (_k, fs) = setup();
        let usr = fs.lookup(Ino(1), "usr").unwrap();
        let bin = fs.lookup(usr.ino, "bin").unwrap();
        let gdb = fs.lookup(bin.ino, "gdb").unwrap();
        assert_eq!(gdb.size, 10);
        let fh = fs.open(gdb.ino, OpenFlags::RDONLY).unwrap();
        let mut buf = [0u8; 16];
        let n = fs.read(gdb.ino, fh, 0, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"GDB-BINARY");
        fs.release(gdb.ino, fh).unwrap();
    }

    #[test]
    fn writes_reach_the_backing_namespace() {
        let (k, fs) = setup();
        let etc = fs.lookup(Ino(1), "etc").unwrap();
        let st = fs
            .mknod(
                etc.ino,
                "written-via-fuse",
                FileType::Regular,
                Mode::RW_R__R__,
                0,
                &FsContext::root(),
            )
            .unwrap();
        let fh = fs.open(st.ino, OpenFlags::WRONLY).unwrap();
        fs.write(st.ino, fh, 0, b"hello host").unwrap();
        fs.release(st.ino, fh).unwrap();
        // Visible directly on the host.
        assert_eq!(k.stat(Pid::INIT, "/etc/written-via-fuse").unwrap().size, 10);
    }

    #[test]
    fn hardlinks_share_a_fuse_inode() {
        let (k, fs) = setup();
        let fd = k
            .open(Pid::INIT, "/etc/orig", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(Pid::INIT, fd).unwrap();
        k.link(Pid::INIT, "/etc/orig", "/etc/alias").unwrap();
        let etc = fs.lookup(Ino(1), "etc").unwrap();
        let a = fs.lookup(etc.ino, "orig").unwrap();
        let b = fs.lookup(etc.ino, "alias").unwrap();
        assert_eq!(a.ino, b.ino, "open+stat hardlink detection");
        assert_eq!(b.nlink, 2);
    }

    #[test]
    fn forget_drops_inodes_making_handles_stale() {
        let (_k, fs) = setup();
        let usr = fs.lookup(Ino(1), "usr").unwrap();
        let server_live = |fs: &Arc<FuseClientFs>| {
            // One root + whatever is remembered.
            let _ = fs;
        };
        server_live(&fs);
        fs.forget(usr.ino, 1);
        fs.flush_forgets();
        // A getattr for a forgotten inode is stale: the inode map no longer
        // knows it (ESTALE), which is also why name_to_handle_at cannot be
        // supported (xfstests #426).
        assert_eq!(fs.getattr(usr.ino), Err(Errno::ESTALE));
    }

    #[test]
    fn rename_fixes_descendant_paths() {
        let (k, fs) = setup();
        k.mkdir(Pid::INIT, "/usr/share/doc", Mode::RWXR_XR_X)
            .unwrap();
        let fd = k
            .open(
                Pid::INIT,
                "/usr/share/doc/readme",
                OpenFlags::create(),
                Mode::RW_R__R__,
            )
            .unwrap();
        k.write_fd(Pid::INIT, fd, b"docs").unwrap();
        k.close(Pid::INIT, fd).unwrap();

        let usr = fs.lookup(Ino(1), "usr").unwrap();
        let share = fs.lookup(usr.ino, "share").unwrap();
        let doc = fs.lookup(share.ino, "doc").unwrap();
        let readme = fs.lookup(doc.ino, "readme").unwrap();

        fs.rename(
            usr.ino,
            "share",
            usr.ino,
            "shared",
            cntr_types::RenameFlags::NONE,
        )
        .unwrap();
        // The remembered inode still resolves through its new path.
        let st = fs.getattr(readme.ino).unwrap();
        assert_eq!(st.size, 4);
        let fh = fs.open(readme.ino, OpenFlags::RDONLY).unwrap();
        let mut buf = [0u8; 8];
        let n = fs.read(readme.ino, fh, 0, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"docs");
    }

    #[test]
    fn setgid_not_stripped_on_chmod_by_group_outsider() {
        // The xfstests #375 scenario, end to end: CntrFS replays chmod under
        // the server's root identity, so the setgid bit survives a chmod by
        // a caller outside the owning group — unlike a native filesystem.
        let (k, fs) = setup();
        let fd = k
            .open(Pid::INIT, "/etc/sg", OpenFlags::create(), Mode::RW_R__R__)
            .unwrap();
        k.close(Pid::INIT, fd).unwrap();
        k.chown(Pid::INIT, "/etc/sg", Uid(1000), Gid(2000)).unwrap();

        let etc = fs.lookup(Ino(1), "etc").unwrap();
        let sg = fs.lookup(etc.ino, "sg").unwrap();
        // Caller uid 1000 in group 3000 (not 2000), no CAP_FSETID.
        let ctx = FsContext::user(1000, 3000);
        let st = fs
            .setattr(sg.ino, &SetAttr::chmod(Mode::new(0o2755)), &ctx)
            .unwrap();
        assert!(
            st.mode.is_setgid(),
            "CntrFS misses the setgid-clearing rule (paper test #375)"
        );
    }

    #[test]
    fn stat_matches_backing_file() {
        let (k, fs) = setup();
        let usr = fs.lookup(Ino(1), "usr").unwrap();
        let bin = fs.lookup(usr.ino, "bin").unwrap();
        let gdb = fs.lookup(bin.ino, "gdb").unwrap();
        let native = k.stat(Pid::INIT, "/usr/bin/gdb").unwrap();
        assert_eq!(gdb.size, native.size);
        assert_eq!(gdb.mode, native.mode);
        assert_ne!(gdb.ino, native.ino, "FUSE inode numbering is private");
    }
}
