//! Path parsing and normalization for the virtual file systems.
//!
//! All `Vfs` implementations accept POSIX-style absolute or relative slash
//! separated paths. `FsPath` splits them into validated components and
//! resolves `.` and `..` lexically (the in-memory file systems have no
//! processes with CWDs, so relative paths are interpreted from the root —
//! like the paper's benchmark working directories).

use crate::error::{FsError, FsResult};
use std::fmt;
use std::sync::Arc;

/// Maximum length of a single name component, as in most POSIX systems.
pub const NAME_MAX: usize = 255;

/// A parsed, normalized absolute path.
///
/// Components are interned behind `Arc<str>`, so handing one on is a
/// refcount bump, not a string copy. `MemFs` does not build one per
/// operation: its resolver walks the borrowed components of the path
/// string with the same validation and the same lexical `.`/`..` rules.
///
/// # Example
///
/// ```
/// use memfs::FsPath;
/// let p = FsPath::parse("/a/b/../c//d/.").unwrap();
/// assert_eq!(p.to_string(), "/a/c/d");
/// assert_eq!(p.file_name(), Some("d"));
/// assert_eq!(p.parent().unwrap().to_string(), "/a/c");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FsPath {
    components: Vec<Arc<str>>,
}

impl FsPath {
    /// The root path `/`.
    pub fn root() -> Self {
        FsPath {
            components: Vec::new(),
        }
    }

    /// Parse and normalize a path string.
    ///
    /// `.` components are dropped; `..` pops the previous component (lexical
    /// normalization, `..` at the root stays at the root as POSIX specifies
    /// for `/..`). Repeated slashes are collapsed.
    ///
    /// # Errors
    ///
    /// * [`FsError::InvalidArgument`] if the path is empty or a component
    ///   contains a NUL byte,
    /// * [`FsError::NameTooLong`] if a component exceeds [`NAME_MAX`].
    pub fn parse(path: &str) -> FsResult<Self> {
        validate(path)?;
        Ok(FsPath {
            components: Components::new(path).map(Arc::from).collect(),
        })
    }

    /// The normalized components, root-first. Cloning a component is a
    /// refcount bump.
    pub fn components(&self) -> &[Arc<str>] {
        &self.components
    }

    /// `true` for the root path.
    pub fn is_root(&self) -> bool {
        self.components.is_empty()
    }

    /// Number of components.
    pub fn depth(&self) -> usize {
        self.components.len()
    }

    /// Final component, if any.
    pub fn file_name(&self) -> Option<&str> {
        self.components.last().map(|c| &**c)
    }

    /// The parent path, or `None` for the root.
    pub fn parent(&self) -> Option<FsPath> {
        if self.components.is_empty() {
            None
        } else {
            Some(FsPath {
                components: self.components[..self.components.len() - 1].to_vec(),
            })
        }
    }

    /// Append a single validated name component.
    ///
    /// # Errors
    ///
    /// Same validation as [`parse`](FsPath::parse) for one component; `.` and
    /// `..` are rejected here because a join target must be a real name.
    pub fn join(&self, name: &str) -> FsResult<FsPath> {
        if name.is_empty() || name == "." || name == ".." || name.contains('/') {
            return Err(FsError::InvalidArgument);
        }
        if name.len() > NAME_MAX {
            return Err(FsError::NameTooLong);
        }
        let mut components = self.components.clone();
        components.push(Arc::from(name));
        Ok(FsPath { components })
    }

    /// `true` if `self` is `other` or a descendant of `other`.
    pub fn starts_with(&self, other: &FsPath) -> bool {
        self.components.len() >= other.components.len()
            && self.components[..other.components.len()] == other.components[..]
    }
}

/// Check every name component of `path` as [`FsPath::parse`] does, first
/// bad component first, without building anything.
pub(crate) fn validate(path: &str) -> FsResult<()> {
    if path.is_empty() {
        return Err(FsError::InvalidArgument);
    }
    for name in path.split('/') {
        if matches!(name, "" | "." | "..") {
            continue;
        }
        if name.len() > NAME_MAX {
            return Err(FsError::NameTooLong);
        }
        if name.contains('\0') {
            return Err(FsError::InvalidArgument);
        }
    }
    Ok(())
}

/// The lexically normalized components of a path string, borrowed from it,
/// root-first: empty and `.` components are skipped, and a name that a
/// later `..` pops is never yielded (`..` at the root stays at the root).
///
/// A name is yielded only once the rest of the path is known not to pop
/// it, so no stack is needed; a path without `..` skips that look-ahead.
#[derive(Debug, Clone)]
pub(crate) struct Components<'a> {
    rest: &'a str,
    has_dotdot: bool,
}

impl<'a> Components<'a> {
    pub(crate) fn new(path: &'a str) -> Self {
        Components {
            rest: path,
            has_dotdot: path.split('/').any(|c| c == ".."),
        }
    }

    /// The raw text after the last component yielded. Its `..`s never pop
    /// that component or anything before it.
    pub(crate) fn rest(&self) -> &'a str {
        self.rest
    }

    /// `true` if a `..` in `rest` pops the name just before it.
    fn popped(rest: &str) -> bool {
        let mut above = 0u32;
        for comp in rest.split('/') {
            match comp {
                "" | "." => {}
                ".." if above == 0 => return true,
                ".." => above -= 1,
                _ => above += 1,
            }
        }
        false
    }
}

impl<'a> Iterator for Components<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        while !self.rest.is_empty() {
            let (comp, rest) = self.rest.split_once('/').unwrap_or((self.rest, ""));
            self.rest = rest;
            // A `..` met here pops a name already skipped, or the root.
            if matches!(comp, "" | "." | "..") {
                continue;
            }
            if self.has_dotdot && Self::popped(rest) {
                continue;
            }
            return Some(comp);
        }
        None
    }
}

impl fmt::Display for FsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.components.is_empty() {
            write!(f, "/")
        } else {
            for c in &self.components {
                write!(f, "/{c}")?;
            }
            Ok(())
        }
    }
}

impl std::str::FromStr for FsPath {
    type Err = FsError;
    fn from_str(s: &str) -> FsResult<Self> {
        FsPath::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        assert_eq!(FsPath::parse("/").unwrap().to_string(), "/");
        assert_eq!(FsPath::parse("/a/b/c").unwrap().to_string(), "/a/b/c");
        assert_eq!(FsPath::parse("a/b").unwrap().to_string(), "/a/b");
        assert_eq!(FsPath::parse("//a///b/").unwrap().to_string(), "/a/b");
    }

    #[test]
    fn dot_and_dotdot() {
        assert_eq!(FsPath::parse("/a/./b").unwrap().to_string(), "/a/b");
        assert_eq!(FsPath::parse("/a/../b").unwrap().to_string(), "/b");
        assert_eq!(FsPath::parse("/..").unwrap().to_string(), "/");
        assert_eq!(FsPath::parse("/../..").unwrap().to_string(), "/");
    }

    #[test]
    fn empty_path_rejected() {
        assert_eq!(FsPath::parse(""), Err(FsError::InvalidArgument));
    }

    #[test]
    fn long_name_rejected() {
        let long = "x".repeat(NAME_MAX + 1);
        assert_eq!(
            FsPath::parse(&format!("/{long}")),
            Err(FsError::NameTooLong)
        );
        let ok = "x".repeat(NAME_MAX);
        assert!(FsPath::parse(&format!("/{ok}")).is_ok());
    }

    #[test]
    fn join_validation() {
        let p = FsPath::parse("/a").unwrap();
        assert_eq!(p.join("b").unwrap().to_string(), "/a/b");
        assert_eq!(p.join(""), Err(FsError::InvalidArgument));
        assert_eq!(p.join("."), Err(FsError::InvalidArgument));
        assert_eq!(p.join(".."), Err(FsError::InvalidArgument));
        assert_eq!(p.join("x/y"), Err(FsError::InvalidArgument));
    }

    #[test]
    fn parent_and_file_name() {
        let p = FsPath::parse("/a/b/c").unwrap();
        assert_eq!(p.file_name(), Some("c"));
        assert_eq!(p.parent().unwrap().to_string(), "/a/b");
        assert_eq!(FsPath::root().parent(), None);
        assert_eq!(FsPath::root().file_name(), None);
    }

    #[test]
    fn starts_with() {
        let a = FsPath::parse("/a/b/c").unwrap();
        let b = FsPath::parse("/a/b").unwrap();
        assert!(a.starts_with(&b));
        assert!(a.starts_with(&FsPath::root()));
        assert!(!b.starts_with(&a));
        let d = FsPath::parse("/a/bb").unwrap();
        assert!(!d.starts_with(&b));
    }

    #[test]
    fn components_normalize_lexically() {
        let norm = |p: &str| Components::new(p).collect::<Vec<_>>().join("/");
        assert_eq!(norm("/a/b/c"), "a/b/c");
        assert_eq!(norm("//a/./b//"), "a/b");
        assert_eq!(norm("/a/b/../c"), "a/c");
        assert_eq!(norm("/a/b/x/../../c/.."), "a");
        assert_eq!(norm("/../a/../../b"), "b");
        assert_eq!(norm("/a/b/c/../../.."), "");
        assert_eq!(norm("/"), "");
        let mut c = Components::new("/a/../b/c/x/..");
        assert_eq!(c.next(), Some("b"));
        assert_eq!(c.rest(), "c/x/..");
    }

    #[test]
    fn fromstr_roundtrip() {
        let p: FsPath = "/x/y".parse().unwrap();
        assert_eq!(p.depth(), 2);
    }
}
