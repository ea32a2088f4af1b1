//! The seam under the WAL engine: every call it makes on its files and
//! their directory — create/open, `write_at`, `set_len`, `sync_data`,
//! `rename`, `sync_dir` and read — goes through a [`Disk`]. There are two:
//! the file system itself ([`Files`]) and [`FaultyDisk`], which does the
//! same calls but fails, short-writes or delays the ones a test names, on
//! its own instance only, so tests that fail a disk share a binary.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

/// An open file of a [`Disk`].
pub(crate) type Handle = Arc<dyn DiskFile>;

/// The calls the engine makes by path.
pub(crate) trait Disk: Send + Sync {
    /// Open `path` for reading and writing under its one-writer lock,
    /// creating it if missing and emptying it if `truncate`. Says whether
    /// it created the file.
    fn open(&self, path: &Path, truncate: bool) -> io::Result<(Handle, bool)>;
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Fsync the directory holding `path`: what makes a file's creation
    /// or renaming there durable (Pillai et al., OSDI 2014).
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// The calls the engine makes on an open file.
pub(crate) trait DiskFile: Send + Sync {
    fn write_at(&self, buf: &[u8], at: u64) -> io::Result<usize>;
    fn read_at(&self, buf: &mut [u8], at: u64) -> io::Result<usize>;
    fn set_len(&self, len: u64) -> io::Result<()>;
    fn sync_data(&self) -> io::Result<()>;
}

/// The file system.
pub(crate) struct Files;

impl Disk for Files {
    fn open(&self, path: &Path, truncate: bool) -> io::Result<(Handle, bool)> {
        let created = !path.try_exists()?;
        let mut options = OpenOptions::new();
        options
            .create(true)
            .truncate(truncate)
            .read(true)
            .write(true);
        let file = options.open(path)?;
        let held = |e| io::Error::other(format!("{} already open: {e}", path.display()));
        file.try_lock().map_err(held)?;
        Ok((Arc::new(file), created))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

impl DiskFile for File {
    fn write_at(&self, buf: &[u8], at: u64) -> io::Result<usize> {
        FileExt::write_at(self, buf, at)
    }

    fn read_at(&self, buf: &mut [u8], at: u64) -> io::Result<usize> {
        FileExt::read_at(self, buf, at)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }

    fn sync_data(&self) -> io::Result<()> {
        File::sync_data(self)
    }
}

/// A file as a `Write` (or `Read`) at an offset that advances.
pub(crate) struct At<'a>(pub &'a dyn DiskFile, pub u64);

impl Write for At<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.0.write_at(buf, self.1)?;
        self.1 += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for At<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.0.read_at(buf, self.1)?;
        self.1 += n as u64;
        Ok(n)
    }
}

/// A call of a [`FaultyDisk`] that a fault can hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Call {
    /// Create or open a file.
    Open,
    /// `write_at`: every WAL append and every compaction copy.
    Write,
    /// `set_len`: the log's growth steps and its truncations.
    SetLen,
    /// `sync_data`: group commits, explicit syncs, compaction rewrites.
    Sync,
    /// `rename`: a compaction's swap.
    Rename,
    /// The directory sync after a log's creation or a compaction's swap.
    SyncDir,
    /// `read_at`: recovery, compaction replays and replication reads.
    Read,
}

/// What a fault does to the call it hits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Fail it with an error whose text starts with [`FaultyDisk::ERROR`].
    Fail,
    /// A [`Call::Write`] takes at most this many bytes (at least one).
    Short(usize),
    /// Sleep this long, then make the call.
    Delay(Duration),
}

/// The disk as a test double: the file system, except that the calls it
/// is told to fault fail, write short or wait. Clones share one plan, and
/// the plan is this disk's alone: a store opened on another disk never
/// sees it.
#[derive(Clone, Default)]
pub struct FaultyDisk(Arc<Plan>);

#[derive(Default)]
struct Plan {
    /// Per call: its fault and how many more calls it hits.
    faults: Mutex<BTreeMap<Call, (Fault, u64)>>,
    /// Per call: how many calls a fault has hit.
    hits: Mutex<BTreeMap<Call, u64>>,
}

impl FaultyDisk {
    /// The text every failed call's error starts with.
    pub const ERROR: &'static str = "injected disk fault";

    /// A disk with no fault armed.
    pub fn new() -> FaultyDisk {
        FaultyDisk::default()
    }

    /// Make the next `times` calls of `call` suffer `fault` (`u64::MAX`:
    /// until [`FaultyDisk::clear`]), replacing what `call` had armed.
    pub fn arm(&self, call: Call, fault: Fault, times: u64) {
        self.0.faults.lock().insert(call, (fault, times));
    }

    /// Disarm every call.
    pub fn clear(&self) {
        self.0.faults.lock().clear();
    }

    /// How many calls of `call` a fault has hit.
    pub fn hits(&self, call: Call) -> u64 {
        self.0.hits.lock().get(&call).copied().unwrap_or(0)
    }

    /// Was `err` made by a disk fault?
    pub fn is_fault(err: &io::Error) -> bool {
        err.to_string().starts_with(Self::ERROR)
    }

    /// The fault `call` suffers now, spending one of its hits; a delay is
    /// slept here.
    fn fault(&self, call: Call) -> Option<Fault> {
        let fault = {
            let mut faults = self.0.faults.lock();
            let (fault, left) = faults.get_mut(&call)?;
            *left -= 1;
            let fault = *fault;
            if *left == 0 {
                faults.remove(&call);
            }
            fault
        };
        *self.0.hits.lock().entry(call).or_default() += 1;
        if let Fault::Delay(pause) = fault {
            std::thread::sleep(pause);
        }
        Some(fault)
    }

    /// Fail `call` if its fault says so.
    fn check(&self, call: Call) -> io::Result<()> {
        match self.fault(call) {
            Some(Fault::Fail) => Err(Self::error(call)),
            _ => Ok(()),
        }
    }

    fn error(call: Call) -> io::Error {
        io::Error::other(format!("{}: {call:?}", Self::ERROR))
    }
}

impl Disk for FaultyDisk {
    fn open(&self, path: &Path, truncate: bool) -> io::Result<(Handle, bool)> {
        self.check(Call::Open)?;
        let (file, created) = Files.open(path, truncate)?;
        Ok((Arc::new(FaultyFile(self.clone(), file)), created))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check(Call::Rename)?;
        Files.rename(from, to)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.check(Call::SyncDir)?;
        Files.sync_dir(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        Files.remove(path)
    }
}

/// A file of a [`FaultyDisk`].
struct FaultyFile(FaultyDisk, Handle);

impl DiskFile for FaultyFile {
    fn write_at(&self, buf: &[u8], at: u64) -> io::Result<usize> {
        let buf = match self.0.fault(Call::Write) {
            Some(Fault::Fail) => return Err(FaultyDisk::error(Call::Write)),
            Some(Fault::Short(n)) => &buf[..n.max(1).min(buf.len())],
            _ => buf,
        };
        self.1.write_at(buf, at)
    }

    fn read_at(&self, buf: &mut [u8], at: u64) -> io::Result<usize> {
        self.0.check(Call::Read)?;
        self.1.read_at(buf, at)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.check(Call::SetLen)?;
        self.1.set_len(len)
    }

    fn sync_data(&self) -> io::Result<()> {
        self.0.check(Call::Sync)?;
        self.1.sync_data()
    }
}
