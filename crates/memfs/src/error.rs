//! The POSIX-style error model shared by all file-system implementations.

use std::error::Error;
use std::fmt;

/// Errors returned by [`Vfs`](crate::Vfs) operations.
///
/// Each variant corresponds to a POSIX `errno` that the thesis' metadata
/// operations can produce (paper §2.2–2.3, §2.6.3). The
/// [`errno_name`](FsError::errno_name) method gives the conventional constant
/// name.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FsError {
    /// `ENOENT` — a path component does not exist.
    NotFound,
    /// `EEXIST` — directory entry already exists (uniqueness of file names,
    /// paper §2.6.3).
    Exists,
    /// `ENOTDIR` — a non-final path component is not a directory.
    NotDir,
    /// `EISDIR` — regular-file operation attempted on a directory.
    IsDir,
    /// `ENOTEMPTY` — `rmdir` on a non-empty directory.
    NotEmpty,
    /// `EXDEV` — atomic rename across file systems / volumes is impossible
    /// (paper §2.6.3 "Atomic rename").
    CrossDevice,
    /// `ENOSPC` — the allocator is out of blocks or inodes.
    NoSpace,
    /// `ENAMETOOLONG` — a name component exceeds the limit.
    NameTooLong,
    /// `EINVAL` — malformed path or argument.
    InvalidArgument,
    /// `EMLINK` — too many hard links.
    TooManyLinks,
    /// `EBADF` — unknown or closed file handle.
    BadHandle,
    /// `EACCES` — permission denied (x-permission is required on every
    /// directory of the path, paper §2.3.1).
    PermissionDenied,
    /// `ELOOP` — too many levels of symbolic links.
    SymlinkLoop,
    /// `EPERM` — operation not permitted (e.g. hard link to a directory).
    NotPermitted,
    /// `EROFS` — write operation on a read-only (snapshot / immutable
    /// semantics) file system, paper §2.6.1.
    ReadOnly,
    /// `EIO` — an underlying real-I/O error surfaced through the
    /// [`StdFs`](crate::StdFs) adapter; carries the OS error text.
    Io(String),
}

impl FsError {
    /// The conventional `errno` constant name for this error.
    pub fn errno_name(&self) -> &'static str {
        match self {
            FsError::NotFound => "ENOENT",
            FsError::Exists => "EEXIST",
            FsError::NotDir => "ENOTDIR",
            FsError::IsDir => "EISDIR",
            FsError::NotEmpty => "ENOTEMPTY",
            FsError::CrossDevice => "EXDEV",
            FsError::NoSpace => "ENOSPC",
            FsError::NameTooLong => "ENAMETOOLONG",
            FsError::InvalidArgument => "EINVAL",
            FsError::TooManyLinks => "EMLINK",
            FsError::BadHandle => "EBADF",
            FsError::PermissionDenied => "EACCES",
            FsError::SymlinkLoop => "ELOOP",
            FsError::NotPermitted => "EPERM",
            FsError::ReadOnly => "EROFS",
            FsError::Io(_) => "EIO",
        }
    }
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::Io(msg) => write!(f, "I/O error: {msg}"),
            other => {
                let text = match other {
                    FsError::NotFound => "no such file or directory",
                    FsError::Exists => "file exists",
                    FsError::NotDir => "not a directory",
                    FsError::IsDir => "is a directory",
                    FsError::NotEmpty => "directory not empty",
                    FsError::CrossDevice => "invalid cross-device link",
                    FsError::NoSpace => "no space left on device",
                    FsError::NameTooLong => "file name too long",
                    FsError::InvalidArgument => "invalid argument",
                    FsError::TooManyLinks => "too many links",
                    FsError::BadHandle => "bad file descriptor",
                    FsError::PermissionDenied => "permission denied",
                    FsError::SymlinkLoop => "too many levels of symbolic links",
                    FsError::NotPermitted => "operation not permitted",
                    FsError::ReadOnly => "read-only file system",
                    FsError::Io(_) => unreachable!(),
                };
                write!(f, "{} ({})", text, other.errno_name())
            }
        }
    }
}

impl Error for FsError {}

impl From<std::io::Error> for FsError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind::*;
        // std folds EPERM into `PermissionDenied` together with EACCES
        if e.raw_os_error() == Some(1) {
            return FsError::NotPermitted;
        }
        match e.kind() {
            NotFound => FsError::NotFound,
            AlreadyExists => FsError::Exists,
            PermissionDenied => FsError::PermissionDenied,
            InvalidInput => FsError::InvalidArgument,
            _ => {
                // Fall back to raw errno for kinds std does not map (stable
                // Rust lacks ErrorKind variants for ENOTDIR, ENOTEMPTY, ...).
                match e.raw_os_error() {
                    Some(20) => FsError::NotDir,
                    Some(39) | Some(66) => FsError::NotEmpty, // Linux / *BSD
                    Some(21) => FsError::IsDir,
                    Some(18) => FsError::CrossDevice,
                    Some(28) => FsError::NoSpace,
                    Some(36) => FsError::NameTooLong,
                    Some(31) => FsError::TooManyLinks,
                    Some(40) => FsError::SymlinkLoop,
                    Some(30) => FsError::ReadOnly,
                    _ => FsError::Io(e.to_string()),
                }
            }
        }
    }
}

/// Result alias used by every file-system operation in this workspace.
pub type FsResult<T> = Result<T, FsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_errno() {
        assert_eq!(
            FsError::NotFound.to_string(),
            "no such file or directory (ENOENT)"
        );
        assert_eq!(FsError::Exists.errno_name(), "EEXIST");
    }

    #[test]
    fn io_error_mapping() {
        let e: FsError = std::io::Error::from(std::io::ErrorKind::NotFound).into();
        assert_eq!(e, FsError::NotFound);
        let e: FsError = std::io::Error::from_raw_os_error(39).into();
        assert_eq!(e, FsError::NotEmpty);
        let e: FsError = std::io::Error::from_raw_os_error(18).into();
        assert_eq!(e, FsError::CrossDevice);
        let e: FsError = std::io::Error::from_raw_os_error(1).into();
        assert_eq!(e, FsError::NotPermitted, "EPERM");
        let e: FsError = std::io::Error::from_raw_os_error(13).into();
        assert_eq!(e, FsError::PermissionDenied, "EACCES");
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn Error + Send + Sync> = Box::new(FsError::NoSpace);
        assert!(e.to_string().contains("ENOSPC"));
    }
}
