//! The one seam between the write-ahead log and the disk.
//!
//! [`crate::wal`] reaches the file system only through [`Fs`] and the
//! [`Segment`] handle it opens. [`OsFs`] is the real thing and the only
//! code of this crate that names `std::fs`; [`crate::sim::SimFs`] is a
//! seeded in-memory file system that can crash and fail on purpose.
//! Every call is one operation: the unit a simulated crash or fault
//! lands on.

use crate::StoreError;
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Write as _};
use std::path::{Path, PathBuf};

/// The file-system calls the write-ahead log makes. Errors come back as
/// [`StoreError::Io`] naming the operation and the path.
pub trait Fs: Send + Sync {
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> Result<(), StoreError>;
    /// The files directly under `dir` as `(name, length)`, in no order.
    fn list(&self, dir: &Path) -> Result<Vec<(String, u64)>, StoreError>;
    /// The whole content of `path`, or `None` when there is no such file.
    fn read(&self, path: &Path) -> Result<Option<Vec<u8>>, StoreError>;
    /// Creates or replaces `path` with `bytes` and syncs its content.
    fn write_synced(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError>;
    /// Renames `from` over `to`, within one directory.
    fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError>;
    /// Unlinks `path`; a file already gone is not an error.
    fn remove(&self, path: &Path) -> Result<(), StoreError>;
    /// Cuts `path` to `len` bytes and syncs it.
    fn truncate(&self, path: &Path, len: u64) -> Result<(), StoreError>;
    /// Makes the creates, renames and unlinks under `dir` durable.
    fn sync_dir(&self, dir: &Path) -> Result<(), StoreError>;
    /// Opens `path` for appending, creating it when `create` is set.
    fn open_append(&self, path: &Path, create: bool) -> Result<Box<dyn Segment>, StoreError>;
}

/// An open segment: appends land at its end.
pub trait Segment: Send {
    /// Writes all of `bytes` at the end of the file.
    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError>;
    /// Makes everything appended so far durable.
    fn sync(&mut self) -> Result<(), StoreError>;
}

fn io_err<'a>(context: &'a str, path: &'a Path) -> impl FnOnce(std::io::Error) -> StoreError + 'a {
    move |e| StoreError::Io(format!("{context} {}: {e}", path.display()))
}

/// The operating system's file system.
#[derive(Clone, Copy, Debug, Default)]
pub struct OsFs;

impl Fs for OsFs {
    fn create_dir_all(&self, dir: &Path) -> Result<(), StoreError> {
        fs::create_dir_all(dir).map_err(io_err("creating", dir))
    }

    fn list(&self, dir: &Path) -> Result<Vec<(String, u64)>, StoreError> {
        let mut files = Vec::new();
        for entry in fs::read_dir(dir).map_err(io_err("listing", dir))? {
            let Ok(entry) = entry else { continue };
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            files.push((name, entry.metadata().map_or(0, |m| m.len())));
        }
        Ok(files)
    }

    fn read(&self, path: &Path) -> Result<Option<Vec<u8>>, StoreError> {
        match fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("reading", path)(e)),
        }
    }

    fn write_synced(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let mut file = File::create(path).map_err(io_err("creating", path))?;
        file.write_all(bytes)
            .and_then(|()| file.sync_all())
            .map_err(io_err("writing", path))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError> {
        fs::rename(from, to).map_err(io_err("installing", to))
    }

    fn remove(&self, path: &Path) -> Result<(), StoreError> {
        match fs::remove_file(path) {
            Err(e) if e.kind() != ErrorKind::NotFound => Err(io_err("removing", path)(e)),
            _ => Ok(()),
        }
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<(), StoreError> {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(io_err("opening to truncate", path))?;
        file.set_len(len)
            .and_then(|()| file.sync_all())
            .map_err(io_err("truncating", path))
    }

    fn sync_dir(&self, dir: &Path) -> Result<(), StoreError> {
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(io_err("syncing directory", dir))
    }

    fn open_append(&self, path: &Path, create: bool) -> Result<Box<dyn Segment>, StoreError> {
        let file = OpenOptions::new()
            .create(create)
            .append(true)
            .open(path)
            .map_err(io_err("opening", path))?;
        Ok(Box::new(OsSegment {
            file,
            path: path.to_owned(),
        }))
    }
}

struct OsSegment {
    file: File,
    path: PathBuf,
}

impl Segment for OsSegment {
    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.file
            .write_all(bytes)
            .map_err(io_err("appending to", &self.path))
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_data().map_err(io_err("syncing", &self.path))
    }
}
