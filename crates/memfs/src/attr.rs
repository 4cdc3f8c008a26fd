//! File attributes: the POSIX `stat` structure of paper Table 2.1.

use serde::{Deserialize, Serialize};

/// Inode number — the system-wide unique file identifier (paper §2.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Ino(pub u64);

impl std::fmt::Display for Ino {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ino#{}", self.0)
    }
}

/// The type of a file-system object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FileType {
    /// A regular file: an ordered sequence of bytes.
    Regular,
    /// A directory: a container of named entries.
    Directory,
    /// A symbolic link holding a target path.
    Symlink,
}

impl FileType {
    /// Single-letter tag used in directory listings (`-`, `d`, `l`).
    pub fn tag(self) -> char {
        match self {
            FileType::Regular => '-',
            FileType::Directory => 'd',
            FileType::Symlink => 'l',
        }
    }
}

/// Permission bits (the 9 `rwxrwxrwx` bits plus setuid/setgid/sticky).
pub type Mode = u32;

/// Default mode for new regular files (`rw-r--r--`).
pub const DEFAULT_FILE_MODE: Mode = 0o644;
/// Default mode for new directories (`rwxr-xr-x`).
pub const DEFAULT_DIR_MODE: Mode = 0o755;

/// Standard POSIX file attributes (paper Table 2.1).
///
/// Timestamps are in virtual or real nanoseconds depending on the backing
/// file system; the benchmark layer only compares them for ordering.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FileAttr {
    /// Inode number (`st_ino`).
    pub ino: Ino,
    /// Object type (encoded in `st_mode` in POSIX).
    pub file_type: FileType,
    /// Permission bits (`st_mode`).
    pub mode: Mode,
    /// Number of hard links (`st_nlink`).
    pub nlink: u32,
    /// Owner (`st_uid`).
    pub uid: u32,
    /// Group (`st_gid`).
    pub gid: u32,
    /// File size in bytes (`st_size`).
    pub size: u64,
    /// Last access time, nanoseconds (`st_atime`).
    pub atime_ns: u64,
    /// Last data modification time, nanoseconds (`st_mtime`).
    pub mtime_ns: u64,
    /// Last status change time, nanoseconds (`st_ctime`).
    pub ctime_ns: u64,
    /// Allocated blocks (`st_blocks`); zero for inlined files, which is how
    /// the MakeFiles64byte/65byte experiment observes WAFL-style inline
    /// allocation (paper §4.3.4).
    pub blocks: u64,
}

impl FileAttr {
    /// Fresh attributes for a newly created object.
    pub fn new(ino: Ino, file_type: FileType, mode: Mode, uid: u32, gid: u32, now_ns: u64) -> Self {
        FileAttr {
            ino,
            file_type,
            mode,
            nlink: if file_type == FileType::Directory {
                2
            } else {
                1
            },
            uid,
            gid,
            size: 0,
            atime_ns: now_ns,
            mtime_ns: now_ns,
            ctime_ns: now_ns,
            blocks: 0,
        }
    }

    /// `true` if this is a directory.
    pub fn is_dir(&self) -> bool {
        self.file_type == FileType::Directory
    }

    /// `true` if this is a symbolic link.
    pub fn is_symlink(&self) -> bool {
        self.file_type == FileType::Symlink
    }

    /// Check an access request (read/write/execute bit triple) for the given
    /// user, applying the owner/group/other class selection of paper §2.3.1.
    pub fn permits(&self, uid: u32, gid: u32, want_r: bool, want_w: bool, want_x: bool) -> bool {
        if uid == 0 {
            // Superuser: execute still requires some x bit, like Linux.
            return !want_x || self.mode & 0o111 != 0 || self.is_dir();
        }
        let shift = if uid == self.uid {
            6
        } else if gid == self.gid {
            3
        } else {
            0
        };
        let bits = (self.mode >> shift) & 0o7;
        (!want_r || bits & 0o4 != 0) && (!want_w || bits & 0o2 != 0) && (!want_x || bits & 0o1 != 0)
    }
}

/// An entry returned by `readdir`: name, inode number and type (paper
/// §2.3.1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirEntry {
    /// Entry name (unique within its directory).
    pub name: String,
    /// Inode number the entry references.
    pub ino: Ino,
    /// Type of the referenced object.
    pub file_type: FileType,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_attr_defaults() {
        let a = FileAttr::new(Ino(1), FileType::Directory, DEFAULT_DIR_MODE, 10, 20, 99);
        assert_eq!(a.nlink, 2, "directories start with . and parent link");
        assert!(a.is_dir());
        let f = FileAttr::new(Ino(2), FileType::Regular, DEFAULT_FILE_MODE, 10, 20, 99);
        assert_eq!(f.nlink, 1);
        assert_eq!(f.file_type, FileType::Regular);
        assert_eq!(f.size, 0);
        assert_eq!(f.atime_ns, 99);
    }

    #[test]
    fn permission_classes_are_disjoint() {
        // rwx------ : owner only
        let a = FileAttr::new(Ino(1), FileType::Regular, 0o700, 10, 20, 0);
        assert!(a.permits(10, 99, true, true, true), "owner");
        assert!(!a.permits(11, 20, true, false, false), "group gets nothing");
        assert!(!a.permits(11, 99, true, false, false), "other gets nothing");
        // ---r----- : group read only — owner class takes precedence even
        // when it grants less.
        let b = FileAttr::new(Ino(2), FileType::Regular, 0o040, 10, 20, 0);
        assert!(!b.permits(10, 20, true, false, false), "owner class wins");
        assert!(b.permits(11, 20, true, false, false), "group read");
    }

    #[test]
    fn superuser_bypasses_rw() {
        let a = FileAttr::new(Ino(1), FileType::Regular, 0o000, 10, 20, 0);
        assert!(a.permits(0, 0, true, true, false));
        assert!(
            !a.permits(0, 0, false, false, true),
            "root still needs an x bit"
        );
    }

    #[test]
    fn file_type_tags() {
        assert_eq!(FileType::Regular.tag(), '-');
        assert_eq!(FileType::Directory.tag(), 'd');
        assert_eq!(FileType::Symlink.tag(), 'l');
    }
}
