//! The `Vfs` trait — the file-system-independent operation set — and the
//! [`StdFs`] adapter that runs the same operations against a real kernel
//! file system through `std::fs`.
//!
//! The benchmark plugins in the `dmetabench` crate are written against this
//! trait only (paper §3.2.1 "Portability and file system independence"), so
//! identical plugin code can drive the in-memory substrate, the simulated
//! distributed models, or a real directory tree.

use std::collections::HashMap;
use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::time::UNIX_EPOCH;

use crate::attr::{DirEntry, FileAttr, FileType, Ino, Mode};
use crate::error::{FsError, FsResult};

/// A file handle returned by `open`/`create`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fd(pub u64);

impl std::fmt::Display for Fd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fd#{}", self.0)
    }
}

/// Open-mode flags (the subset of `open(2)` the benchmarks exercise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create the file if it does not exist (`O_CREAT`).
    pub create: bool,
    /// With `create`: fail if the file exists (`O_EXCL`).
    pub excl: bool,
    /// Truncate to zero length on open (`O_TRUNC`).
    pub truncate: bool,
    /// All writes go to end-of-file (`O_APPEND`, paper §2.6.1).
    pub append: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub fn read_only() -> Self {
        OpenFlags {
            read: true,
            ..Default::default()
        }
    }

    /// `O_WRONLY`.
    pub fn write_only() -> Self {
        OpenFlags {
            write: true,
            ..Default::default()
        }
    }

    /// `O_WRONLY | O_CREAT` — the file-creation idiom used by the MakeFiles
    /// benchmark (paper Table 3.5).
    pub fn write_create() -> Self {
        OpenFlags {
            write: true,
            create: true,
            ..Default::default()
        }
    }
}

/// File-system level statistics returned by [`Vfs::fs_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsStats {
    /// Block size in bytes.
    pub block_size: u64,
    /// Total data blocks.
    pub total_blocks: u64,
    /// Free data blocks.
    pub free_blocks: u64,
    /// Live inodes.
    pub inodes_used: u64,
    /// Number of free-space fragments (0 when unknown).
    pub fragmentation: u64,
}

/// The file-system-independent operation set (paper Tables 2.2–2.4).
///
/// All paths are POSIX-style strings; handles are [`Fd`]s. The trait is
/// object-safe so engines can hold `Box<dyn Vfs>`.
pub trait Vfs: Send {
    /// Create a regular file open for writing (`open(O_CREAT|O_WRONLY)`).
    fn create(&mut self, path: &str) -> FsResult<Fd>;
    /// Open an existing (or, with [`OpenFlags::create`], new) file.
    fn open(&mut self, path: &str, flags: OpenFlags) -> FsResult<Fd>;
    /// Close a handle.
    fn close(&mut self, fd: Fd) -> FsResult<()>;
    /// Write at the current position, returning bytes written.
    fn write(&mut self, fd: Fd, buf: &[u8]) -> FsResult<usize>;
    /// Read up to `len` bytes from the current position.
    fn read(&mut self, fd: Fd, len: usize) -> FsResult<Vec<u8>>;
    /// Set the file position.
    fn seek(&mut self, fd: Fd, pos: u64) -> FsResult<u64>;
    /// Create a directory.
    fn mkdir(&mut self, path: &str) -> FsResult<()>;
    /// Remove an empty directory.
    fn rmdir(&mut self, path: &str) -> FsResult<()>;
    /// Remove a file's directory entry.
    fn unlink(&mut self, path: &str) -> FsResult<()>;
    /// Atomically rename/move (paper §2.6.3).
    fn rename(&mut self, from: &str, to: &str) -> FsResult<()>;
    /// Create a hard link.
    fn link(&mut self, existing: &str, new: &str) -> FsResult<()>;
    /// Create a symbolic link containing `target`.
    fn symlink(&mut self, target: &str, linkpath: &str) -> FsResult<()>;
    /// Read a symlink's target.
    fn readlink(&mut self, path: &str) -> FsResult<String>;
    /// `stat()` — follows symlinks.
    fn stat(&mut self, path: &str) -> FsResult<FileAttr>;
    /// `lstat()` — does not follow the final symlink.
    fn lstat(&mut self, path: &str) -> FsResult<FileAttr>;
    /// `fstat()` on an open handle.
    fn fstat(&mut self, fd: Fd) -> FsResult<FileAttr>;
    /// List a directory (includes `.` and `..` where the backend provides
    /// them; `MemFs` always does, `StdFs` synthesizes them).
    fn readdir(&mut self, path: &str) -> FsResult<Vec<DirEntry>>;
    /// Change permission bits.
    fn chmod(&mut self, path: &str, mode: Mode) -> FsResult<()>;
    /// Change owner/group.
    fn chown(&mut self, path: &str, uid: u32, gid: u32) -> FsResult<()>;
    /// Set access/modification times (nanoseconds).
    fn utimes(&mut self, path: &str, atime_ns: u64, mtime_ns: u64) -> FsResult<()>;
    /// Change a file's length.
    fn truncate(&mut self, path: &str, size: u64) -> FsResult<()>;
    /// Flush data and metadata for a handle (paper §2.2.2).
    fn fsync(&mut self, fd: Fd) -> FsResult<()>;
    /// Drop client-side caches, as the paper's suid `dropcaches` wrapper
    /// does via `/proc/sys/vm/drop_caches` (§3.4.3). Backends without a
    /// cache layer treat this as a no-op.
    fn drop_caches(&mut self) -> FsResult<()>;
    /// List extended-attribute keys (paper Table 2.4).
    ///
    /// # Errors
    ///
    /// [`FsError::NotPermitted`] on backends without xattr support (the
    /// default implementation).
    fn listxattr(&mut self, _path: &str) -> FsResult<Vec<String>> {
        Err(FsError::NotPermitted)
    }
    /// Read one extended attribute.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if the key is absent; [`FsError::NotPermitted`]
    /// without xattr support.
    fn getxattr(&mut self, _path: &str, _key: &str) -> FsResult<Vec<u8>> {
        Err(FsError::NotPermitted)
    }
    /// Set an extended attribute (key → value).
    ///
    /// # Errors
    ///
    /// [`FsError::NotPermitted`] without xattr support.
    fn setxattr(&mut self, _path: &str, _key: &str, _value: &[u8]) -> FsResult<()> {
        Err(FsError::NotPermitted)
    }
    /// Remove an extended attribute.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if the key is absent; [`FsError::NotPermitted`]
    /// without xattr support.
    fn removexattr(&mut self, _path: &str, _key: &str) -> FsResult<()> {
        Err(FsError::NotPermitted)
    }
    /// File-system statistics.
    fn fs_stats(&mut self) -> FsResult<FsStats>;
    /// Short backend name for result labelling.
    fn name(&self) -> &str;
}

// ---------------------------------------------------------------------------
// StdFs: the real-kernel adapter
// ---------------------------------------------------------------------------

/// A [`Vfs`] over a real directory tree via `std::fs`.
///
/// All paths are jailed under the `root` passed at construction; `..` cannot
/// escape because paths are normalized lexically before joining.
///
/// # Example
///
/// ```no_run
/// use memfs::{StdFs, Vfs};
///
/// # fn main() -> Result<(), memfs::FsError> {
/// let mut fs = StdFs::new("/tmp/bench-root")?;
/// fs.mkdir("/dir")?;
/// let fd = fs.create("/dir/file")?;
/// fs.close(fd)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StdFs {
    root: PathBuf,
    open_files: HashMap<u64, fs::File>,
    next_fd: u64,
}

impl StdFs {
    /// Create an adapter rooted at `root`, creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or canonicalizing the root.
    pub fn new(root: impl AsRef<Path>) -> FsResult<Self> {
        let root = root.as_ref();
        fs::create_dir_all(root)?;
        let root = root.canonicalize()?;
        Ok(StdFs {
            root,
            open_files: HashMap::new(),
            next_fd: 3,
        })
    }

    /// The jail root on the host file system.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn host_path(&self, path: &str) -> FsResult<PathBuf> {
        let p = crate::path::FsPath::parse(path)?;
        let mut out = self.root.clone();
        for c in p.components() {
            out.push(&**c);
        }
        Ok(out)
    }

    fn file(&mut self, fd: Fd) -> FsResult<&mut fs::File> {
        self.open_files.get_mut(&fd.0).ok_or(FsError::BadHandle)
    }

    fn metadata_to_attr(md: &fs::Metadata) -> FileAttr {
        #[cfg(unix)]
        use std::os::unix::fs::MetadataExt;
        let file_type = if md.is_dir() {
            FileType::Directory
        } else if md.file_type().is_symlink() {
            FileType::Symlink
        } else {
            FileType::Regular
        };
        let t = |r: std::io::Result<std::time::SystemTime>| -> u64 {
            r.ok()
                .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0)
        };
        #[cfg(unix)]
        {
            FileAttr {
                ino: Ino(md.ino()),
                file_type,
                mode: md.mode() & 0o7777,
                nlink: md.nlink() as u32,
                uid: md.uid(),
                gid: md.gid(),
                size: md.len(),
                atime_ns: t(md.accessed()),
                mtime_ns: t(md.modified()),
                ctime_ns: md.ctime() as u64 * 1_000_000_000 + md.ctime_nsec() as u64,
                blocks: md.blocks(),
            }
        }
        #[cfg(not(unix))]
        {
            FileAttr {
                ino: Ino(0),
                file_type,
                mode: 0o644,
                nlink: 1,
                uid: 0,
                gid: 0,
                size: md.len(),
                atime_ns: t(md.accessed()),
                mtime_ns: t(md.modified()),
                ctime_ns: 0,
                blocks: md.len().div_ceil(512),
            }
        }
    }
}

impl Vfs for StdFs {
    fn create(&mut self, path: &str) -> FsResult<Fd> {
        let hp = self.host_path(path)?;
        let file = fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(hp)?;
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        self.open_files.insert(fd.0, file);
        Ok(fd)
    }

    fn open(&mut self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        let hp = self.host_path(path)?;
        let mut opts = fs::OpenOptions::new();
        opts.read(flags.read)
            .write(flags.write)
            .append(flags.append)
            .truncate(flags.truncate && flags.write)
            .create(flags.create)
            .create_new(flags.create && flags.excl);
        let file = opts.open(hp)?;
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        self.open_files.insert(fd.0, file);
        Ok(fd)
    }

    fn close(&mut self, fd: Fd) -> FsResult<()> {
        self.open_files.remove(&fd.0).ok_or(FsError::BadHandle)?;
        Ok(())
    }

    fn write(&mut self, fd: Fd, buf: &[u8]) -> FsResult<usize> {
        Ok(self.file(fd)?.write(buf)?)
    }

    fn read(&mut self, fd: Fd, len: usize) -> FsResult<Vec<u8>> {
        let f = self.file(fd)?;
        let mut buf = vec![0u8; len];
        let mut total = 0;
        while total < len {
            let n = f.read(&mut buf[total..])?;
            if n == 0 {
                break;
            }
            total += n;
        }
        buf.truncate(total);
        Ok(buf)
    }

    fn seek(&mut self, fd: Fd, pos: u64) -> FsResult<u64> {
        Ok(self.file(fd)?.seek(SeekFrom::Start(pos))?)
    }

    fn mkdir(&mut self, path: &str) -> FsResult<()> {
        Ok(fs::create_dir(self.host_path(path)?)?)
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        Ok(fs::remove_dir(self.host_path(path)?)?)
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        Ok(fs::remove_file(self.host_path(path)?)?)
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        Ok(fs::rename(self.host_path(from)?, self.host_path(to)?)?)
    }

    fn link(&mut self, existing: &str, new: &str) -> FsResult<()> {
        Ok(fs::hard_link(
            self.host_path(existing)?,
            self.host_path(new)?,
        )?)
    }

    fn symlink(&mut self, target: &str, linkpath: &str) -> FsResult<()> {
        #[cfg(unix)]
        {
            Ok(std::os::unix::fs::symlink(
                target,
                self.host_path(linkpath)?,
            )?)
        }
        #[cfg(not(unix))]
        {
            let _ = (target, linkpath);
            Err(FsError::NotPermitted)
        }
    }

    fn readlink(&mut self, path: &str) -> FsResult<String> {
        let t = fs::read_link(self.host_path(path)?)?;
        Ok(t.to_string_lossy().into_owned())
    }

    fn stat(&mut self, path: &str) -> FsResult<FileAttr> {
        let md = fs::metadata(self.host_path(path)?)?;
        Ok(Self::metadata_to_attr(&md))
    }

    fn lstat(&mut self, path: &str) -> FsResult<FileAttr> {
        let md = fs::symlink_metadata(self.host_path(path)?)?;
        Ok(Self::metadata_to_attr(&md))
    }

    fn fstat(&mut self, fd: Fd) -> FsResult<FileAttr> {
        let md = self.file(fd)?.metadata()?;
        Ok(Self::metadata_to_attr(&md))
    }

    fn readdir(&mut self, path: &str) -> FsResult<Vec<DirEntry>> {
        let hp = self.host_path(path)?;
        let self_attr = Self::metadata_to_attr(&fs::metadata(&hp)?);
        let parent_md = hp.parent().and_then(|p| fs::metadata(p).ok());
        let mut out = vec![
            DirEntry {
                name: ".".to_owned(),
                ino: self_attr.ino,
                file_type: FileType::Directory,
            },
            DirEntry {
                name: "..".to_owned(),
                ino: parent_md
                    .as_ref()
                    .map(|m| Self::metadata_to_attr(m).ino)
                    .unwrap_or(self_attr.ino),
                file_type: FileType::Directory,
            },
        ];
        for entry in fs::read_dir(hp)? {
            let entry = entry?;
            let ft = entry.file_type()?;
            let file_type = if ft.is_dir() {
                FileType::Directory
            } else if ft.is_symlink() {
                FileType::Symlink
            } else {
                FileType::Regular
            };
            #[cfg(unix)]
            let ino = {
                use std::os::unix::fs::DirEntryExt;
                Ino(entry.ino())
            };
            #[cfg(not(unix))]
            let ino = Ino(0);
            out.push(DirEntry {
                name: entry.file_name().to_string_lossy().into_owned(),
                ino,
                file_type,
            });
        }
        Ok(out)
    }

    fn chmod(&mut self, path: &str, mode: Mode) -> FsResult<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            let perm = fs::Permissions::from_mode(mode);
            Ok(fs::set_permissions(self.host_path(path)?, perm)?)
        }
        #[cfg(not(unix))]
        {
            let _ = (path, mode);
            Err(FsError::NotPermitted)
        }
    }

    fn chown(&mut self, _path: &str, _uid: u32, _gid: u32) -> FsResult<()> {
        // Changing ownership needs privileges std does not wrap; benchmarks
        // never depend on it for real file systems.
        Err(FsError::NotPermitted)
    }

    fn utimes(&mut self, path: &str, atime_ns: u64, mtime_ns: u64) -> FsResult<()> {
        let file = fs::OpenOptions::new()
            .write(true)
            .open(self.host_path(path)?)?;
        let times = fs::FileTimes::new()
            .set_accessed(UNIX_EPOCH + std::time::Duration::from_nanos(atime_ns))
            .set_modified(UNIX_EPOCH + std::time::Duration::from_nanos(mtime_ns));
        file.set_times(times)?;
        Ok(())
    }

    fn truncate(&mut self, path: &str, size: u64) -> FsResult<()> {
        let file = fs::OpenOptions::new()
            .write(true)
            .open(self.host_path(path)?)?;
        file.set_len(size)?;
        Ok(())
    }

    fn fsync(&mut self, fd: Fd) -> FsResult<()> {
        Ok(self.file(fd)?.sync_all()?)
    }

    fn drop_caches(&mut self) -> FsResult<()> {
        // Requires root on a real system (`/proc/sys/vm/drop_caches`); the
        // benchmark treats failure to drop as a soft no-op exactly like the
        // paper's suid wrapper does when unavailable.
        let _ = fs::write("/proc/sys/vm/drop_caches", b"3\n");
        Ok(())
    }

    fn fs_stats(&mut self) -> FsResult<FsStats> {
        Ok(FsStats::default()) // statvfs is not exposed by std
    }

    fn name(&self) -> &str {
        "stdfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("memfs-stdfs-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn stdfs_create_write_read_stat() {
        let root = tmp_root("basic");
        let mut f = StdFs::new(&root).unwrap();
        f.mkdir("/d").unwrap();
        let fd = f.create("/d/a").unwrap();
        assert_eq!(f.write(fd, b"hello").unwrap(), 5);
        f.close(fd).unwrap();
        let st = f.stat("/d/a").unwrap();
        assert_eq!(st.size, 5);
        assert_eq!(st.file_type, FileType::Regular);
        let fd = f.open("/d/a", OpenFlags::read_only()).unwrap();
        assert_eq!(f.read(fd, 5).unwrap(), b"hello");
        f.close(fd).unwrap();
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stdfs_errors_map_to_fs_errors() {
        let root = tmp_root("errors");
        let mut f = StdFs::new(&root).unwrap();
        assert_eq!(f.stat("/missing").unwrap_err(), FsError::NotFound);
        let fd = f.create("/a").unwrap();
        f.close(fd).unwrap();
        assert_eq!(f.create("/a").unwrap_err(), FsError::Exists);
        f.mkdir("/d").unwrap();
        let fd = f.create("/d/x").unwrap();
        f.close(fd).unwrap();
        assert_eq!(f.rmdir("/d").unwrap_err(), FsError::NotEmpty);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stdfs_rename_and_unlink() {
        let root = tmp_root("rename");
        let mut f = StdFs::new(&root).unwrap();
        let fd = f.create("/a").unwrap();
        f.close(fd).unwrap();
        f.rename("/a", "/b").unwrap();
        assert!(f.stat("/b").is_ok());
        f.unlink("/b").unwrap();
        assert_eq!(f.stat("/b").unwrap_err(), FsError::NotFound);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stdfs_path_jail() {
        let root = tmp_root("jail");
        let mut f = StdFs::new(&root).unwrap();
        // "/../../etc" normalizes to "/etc" *inside* the jail
        assert_eq!(
            f.stat("/../../../etc/passwd").unwrap_err(),
            FsError::NotFound
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stdfs_readdir_includes_dot_entries() {
        let root = tmp_root("readdir");
        let mut f = StdFs::new(&root).unwrap();
        f.mkdir("/d").unwrap();
        let fd = f.create("/d/x").unwrap();
        f.close(fd).unwrap();
        let names: Vec<String> = f
            .readdir("/d")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(&names[..2], &[".".to_owned(), "..".to_owned()]);
        assert!(names.contains(&"x".to_owned()));
        fs::remove_dir_all(&root).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn stdfs_symlink_and_hardlink() {
        let root = tmp_root("links");
        let mut f = StdFs::new(&root).unwrap();
        let fd = f.create("/target").unwrap();
        f.close(fd).unwrap();
        f.symlink("target", "/sym").unwrap();
        assert_eq!(f.readlink("/sym").unwrap(), "target");
        assert!(f.lstat("/sym").unwrap().is_symlink());
        f.link("/target", "/hard").unwrap();
        assert_eq!(f.stat("/hard").unwrap().nlink, 2);
        fs::remove_dir_all(&root).unwrap();
    }
}
