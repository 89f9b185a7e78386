//! A seeded in-memory file system for crash and fault tests of the
//! write-ahead log.
//!
//! [`SimFs`] implements [`Fs`] and keeps two views of the disk: what was
//! written, which every read sees, and what was synced, which is all a
//! crash is sure to keep. A file's content becomes durable when it is
//! synced ([`Segment::sync`], [`Fs::truncate`], [`Fs::write_synced`]); a
//! create, rename or unlink becomes durable when its directory is
//! ([`Fs::sync_dir`]). Directories themselves are durable once created.
//!
//! Every call is one numbered operation. [`SimFs::crash_at`] crashes the
//! file system at an operation boundary; [`SimFs::reboot`] crashes it if
//! it is still up and returns the disk as it then is. A crash keeps, per
//! file and per directory, a seeded prefix of what was not yet synced,
//! the last write kept possibly torn inside. [`SimFs::inject`] fails a
//! chosen operation with `EIO`, `ENOSPC` or a short write, once or until
//! [`SimFs::heal`]. The seed decides every torn length, so a schedule
//! replays exactly. There is no clock and no thread; only
//! [`SimFs::set_sync_latency`] makes a sync take wall time, as a disk's
//! does, so that appends on other threads stage meanwhile and coalesce.

use crate::fs::{Fs, Segment};
use crate::StoreError;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// The kinds of operation: one per method of [`Fs`] and [`Segment`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// [`Fs::create_dir_all`].
    CreateDir,
    /// [`Fs::list`].
    List,
    /// [`Fs::read`].
    Read,
    /// [`Fs::write_synced`].
    WriteSynced,
    /// [`Fs::rename`].
    Rename,
    /// [`Fs::remove`].
    Remove,
    /// [`Fs::truncate`].
    Truncate,
    /// [`Fs::sync_dir`].
    SyncDir,
    /// [`Fs::open_append`].
    Open,
    /// [`Segment::append`].
    Append,
    /// [`Segment::sync`].
    Sync,
}

/// What an injected fault does to the operation it hits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The operation fails and changes nothing.
    Eio,
    /// The operation fails; an append may first land a seeded prefix of
    /// its bytes, possibly empty, never all of them.
    NoSpace,
    /// An append lands a seeded prefix of its bytes, at least one and
    /// never all of them, then fails. Any other operation fails like
    /// [`Fault::Eio`].
    ShortWrite,
}

struct Armed {
    op: Option<Op>,
    skip: u64,
    fault: Fault,
    sticky: bool,
}

type Ino = usize;

/// One namespace operation: the entries it sets (`Some`) or unlinks.
type NameEdit = Vec<(PathBuf, Option<Ino>)>;

#[derive(Clone)]
enum Change {
    Append(Vec<u8>),
    SetLen(usize),
}

impl Change {
    fn apply(&self, bytes: &mut Vec<u8>) {
        match self {
            Change::Append(tail) => bytes.extend_from_slice(tail),
            Change::SetLen(len) => bytes.resize(*len, 0),
        }
    }
}

#[derive(Clone, Default)]
struct Inode {
    live: Vec<u8>,
    synced: Vec<u8>,
    /// Changes since the last sync, oldest first.
    unsynced: Vec<Change>,
}

impl Inode {
    fn change(&mut self, change: Change) {
        change.apply(&mut self.live);
        self.unsynced.push(change);
    }

    fn sync(&mut self) {
        for change in self.unsynced.drain(..) {
            change.apply(&mut self.synced);
        }
    }

    /// The content a crash leaves: the synced bytes, a seeded prefix of
    /// the changes since, and possibly part of the next append.
    fn after_crash(&self, rng: &mut Rng) -> Vec<u8> {
        let mut bytes = self.synced.clone();
        let keep = rng.below(self.unsynced.len() + 1);
        for change in &self.unsynced[..keep] {
            change.apply(&mut bytes);
        }
        if let Some(Change::Append(tail)) = self.unsynced.get(keep) {
            bytes.extend_from_slice(&tail[..rng.below(tail.len())]);
        }
        bytes
    }
}

/// The seeded generator (splitmix64) behind every torn length; a
/// schedule driver can draw its own choices from one too.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose draws follow `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; zero when `n` is zero.
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// True with probability `1/n`.
    pub fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

/// What a crash left: the files, each synced, under their names.
struct Image {
    inodes: Vec<Inode>,
    names: BTreeMap<PathBuf, Ino>,
}

struct State {
    rng: Rng,
    /// Set by a crash, which leaves the rest as it was written.
    crashed: Option<Image>,
    ops: u64,
    crash_at: Option<u64>,
    armed: Option<Armed>,
    injected: u64,
    sync_latency: Duration,
    inodes: Vec<Inode>,
    dirs: BTreeSet<PathBuf>,
    /// What lookups see.
    names: BTreeMap<PathBuf, Ino>,
    /// What every directory held when it was last synced.
    durable: BTreeMap<PathBuf, Ino>,
    /// Per directory, its namespace edits since then, oldest first.
    unsynced: BTreeMap<PathBuf, Vec<NameEdit>>,
}

fn apply(edit: &NameEdit, names: &mut BTreeMap<PathBuf, Ino>) {
    for (path, ino) in edit {
        match ino {
            Some(ino) => names.insert(path.clone(), *ino),
            None => names.remove(path),
        };
    }
}

fn parent(path: &Path) -> PathBuf {
    path.parent().map(Path::to_owned).unwrap_or_default()
}

fn failure(op: Op, path: &Path, why: &str) -> StoreError {
    StoreError::Io(format!("{op:?} {}: {why}", path.display()))
}

impl State {
    fn empty(seed: u64) -> State {
        State {
            rng: Rng::new(seed),
            crashed: None,
            ops: 0,
            crash_at: None,
            armed: None,
            injected: 0,
            sync_latency: Duration::ZERO,
            inodes: Vec::new(),
            dirs: BTreeSet::new(),
            names: BTreeMap::new(),
            durable: BTreeMap::new(),
            unsynced: BTreeMap::new(),
        }
    }

    /// Numbers one operation and decides its fate: an error when the
    /// file system is down or crashes here, `Some` when an injected
    /// fault fires on it.
    fn begin(&mut self, op: Op, path: &Path) -> Result<Option<Fault>, StoreError> {
        if self.crashed.is_some() {
            return Err(failure(op, path, "the file system crashed"));
        }
        let n = self.ops;
        self.ops += 1;
        if self.crash_at == Some(n) {
            self.crash();
            return Err(failure(op, path, "the file system crashed"));
        }
        let Some(armed) = &mut self.armed else {
            return Ok(None);
        };
        if armed.op.is_some_and(|kind| kind != op) {
            return Ok(None);
        }
        if armed.skip > 0 {
            armed.skip -= 1;
            return Ok(None);
        }
        let fault = armed.fault;
        if !armed.sticky {
            self.armed = None;
        }
        self.injected += 1;
        Ok(Some(fault))
    }

    /// [`State::begin`] for an operation a fault fails outright.
    fn enter(&mut self, op: Op, path: &Path) -> Result<(), StoreError> {
        match self.begin(op, path)? {
            Some(_) => Err(failure(op, path, "injected fault")),
            None => Ok(()),
        }
    }

    /// Goes down, keeping what a crash now leaves of the disk.
    fn crash(&mut self) {
        let mut names = self.durable.clone();
        for edits in self.unsynced.values() {
            let keep = self.rng.below(edits.len() + 1);
            for edit in &edits[..keep] {
                apply(edit, &mut names);
            }
        }
        let mut inodes = Vec::new();
        let mut renumbered = BTreeMap::new();
        for ino in names.values_mut() {
            *ino = *renumbered.entry(*ino).or_insert_with(|| {
                let bytes = self.inodes[*ino].after_crash(&mut self.rng);
                inodes.push(Inode {
                    live: bytes.clone(),
                    synced: bytes,
                    unsynced: Vec::new(),
                });
                inodes.len() - 1
            });
        }
        self.crashed = Some(Image { inodes, names });
    }

    fn lookup(&self, op: Op, path: &Path) -> Result<Ino, StoreError> {
        self.names
            .get(path)
            .copied()
            .ok_or_else(|| failure(op, path, "no such file"))
    }

    fn check_dir(&self, op: Op, dir: &Path) -> Result<(), StoreError> {
        if self.dirs.contains(dir) {
            Ok(())
        } else {
            Err(failure(op, dir, "no such directory"))
        }
    }

    fn edit(&mut self, dir: PathBuf, edit: NameEdit) {
        apply(&edit, &mut self.names);
        self.unsynced.entry(dir).or_default().push(edit);
    }

    fn create(&mut self, op: Op, path: &Path) -> Result<Ino, StoreError> {
        let dir = parent(path);
        self.check_dir(op, &dir)?;
        self.inodes.push(Inode::default());
        let ino = self.inodes.len() - 1;
        self.edit(dir, vec![(path.to_owned(), Some(ino))]);
        Ok(ino)
    }
}

/// A seeded in-memory file system; see the module docs.
pub struct SimFs {
    state: Arc<Mutex<State>>,
}

impl SimFs {
    /// An empty file system whose crashes and faults follow `seed`.
    pub fn new(seed: u64) -> Arc<SimFs> {
        SimFs::over(State::empty(seed))
    }

    fn over(state: State) -> Arc<SimFs> {
        Arc::new(SimFs {
            state: Arc::new(Mutex::new(state)),
        })
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Operations numbered so far; the next one gets this number.
    pub fn ops(&self) -> u64 {
        self.state().ops
    }

    /// Faults that have fired so far.
    pub fn injected(&self) -> u64 {
        self.state().injected
    }

    /// Whether the file system has crashed.
    pub fn is_down(&self) -> bool {
        self.state().crashed.is_some()
    }

    /// Fails the operation after the next `skip` of kind `op` (of any
    /// kind when `None`) with `fault`, and with `sticky` every matching
    /// operation after it as well, until [`SimFs::heal`]. Replaces any
    /// fault armed before.
    pub fn inject(&self, op: Option<Op>, skip: u64, fault: Fault, sticky: bool) {
        self.state().armed = Some(Armed {
            op,
            skip,
            fault,
            sticky,
        });
    }

    /// Disarms the injected fault.
    pub fn heal(&self) {
        self.state().armed = None;
    }

    /// Makes every later [`Segment::sync`] sleep `latency` before it
    /// starts, with the file system free meanwhile.
    pub fn set_sync_latency(&self, latency: Duration) {
        self.state().sync_latency = latency;
    }

    /// Crashes the file system instead of performing operation `op` (a
    /// number as [`SimFs::ops`] counts); it and every later operation
    /// fail.
    pub fn crash_at(&self, op: u64) {
        self.state().crash_at = Some(op);
    }

    /// Crashes the file system if it is still up and returns the disk the
    /// crash left, up again, with no fault armed and operations numbered
    /// from zero. This file system stays down: a store still holding it
    /// can touch nothing the returned one sees.
    pub fn reboot(&self) -> Arc<SimFs> {
        let mut state = self.state();
        if state.crashed.is_none() {
            state.crash();
        }
        let seed = state.rng.next_u64();
        let image = state.crashed.as_ref().expect("crashed");
        SimFs::over(State {
            inodes: image.inodes.clone(),
            dirs: state.dirs.clone(),
            names: image.names.clone(),
            durable: image.names.clone(),
            ..State::empty(seed)
        })
    }

    /// An independent copy of the file system as written, unsynced state,
    /// seed and operation count included, up and with no fault or crash
    /// armed: what a reference run starts from. Of a crashed file system,
    /// the copy is of what had been written when it crashed.
    pub fn fork(&self) -> Arc<SimFs> {
        let state = self.state();
        SimFs::over(State {
            rng: state.rng.clone(),
            ops: state.ops,
            inodes: state.inodes.clone(),
            dirs: state.dirs.clone(),
            names: state.names.clone(),
            durable: state.durable.clone(),
            unsynced: state.unsynced.clone(),
            ..State::empty(0)
        })
    }

    /// Flips the bits of the byte at `offset` (modulo its length) of the
    /// file at `path`, written and synced alike: a media error. Returns
    /// whether there was such a byte.
    pub fn corrupt(&self, path: &Path, offset: u64) -> bool {
        let mut state = self.state();
        let Some(&ino) = state.names.get(path) else {
            return false;
        };
        let inode = &mut state.inodes[ino];
        if inode.live.is_empty() {
            return false;
        }
        let at = (offset % inode.live.len() as u64) as usize;
        inode.live[at] ^= 0xFF;
        if let Some(byte) = inode.synced.get_mut(at) {
            *byte ^= 0xFF;
        }
        true
    }
}

impl Fs for SimFs {
    fn create_dir_all(&self, dir: &Path) -> Result<(), StoreError> {
        let mut state = self.state();
        state.enter(Op::CreateDir, dir)?;
        for ancestor in dir.ancestors() {
            state.dirs.insert(ancestor.to_owned());
        }
        Ok(())
    }

    fn list(&self, dir: &Path) -> Result<Vec<(String, u64)>, StoreError> {
        let mut state = self.state();
        state.enter(Op::List, dir)?;
        state.check_dir(Op::List, dir)?;
        let files =
            (state.names.iter()).map(|(path, &ino)| (path, state.inodes[ino].live.len() as u64));
        let dirs = state.dirs.iter().map(|path| (path, 0));
        Ok((files.chain(dirs))
            .filter(|(path, _)| path.parent() == Some(dir))
            .filter_map(|(path, len)| Some((path.file_name()?.to_str()?.to_owned(), len)))
            .collect())
    }

    fn read(&self, path: &Path) -> Result<Option<Vec<u8>>, StoreError> {
        let mut state = self.state();
        state.enter(Op::Read, path)?;
        Ok(state
            .names
            .get(path)
            .map(|&ino| state.inodes[ino].live.clone()))
    }

    fn write_synced(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let mut state = self.state();
        state.enter(Op::WriteSynced, path)?;
        let ino = match state.names.get(path) {
            Some(&ino) => ino,
            None => state.create(Op::WriteSynced, path)?,
        };
        let inode = &mut state.inodes[ino];
        inode.change(Change::SetLen(0));
        inode.change(Change::Append(bytes.to_vec()));
        inode.sync();
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError> {
        let mut state = self.state();
        state.enter(Op::Rename, to)?;
        let ino = state.lookup(Op::Rename, from)?;
        let edit = vec![(to.to_owned(), Some(ino)), (from.to_owned(), None)];
        state.edit(parent(to), edit);
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<(), StoreError> {
        let mut state = self.state();
        state.enter(Op::Remove, path)?;
        if state.names.contains_key(path) {
            state.edit(parent(path), vec![(path.to_owned(), None)]);
        }
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<(), StoreError> {
        let mut state = self.state();
        state.enter(Op::Truncate, path)?;
        let ino = state.lookup(Op::Truncate, path)?;
        let inode = &mut state.inodes[ino];
        inode.change(Change::SetLen(len as usize));
        inode.sync();
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> Result<(), StoreError> {
        let mut state = self.state();
        state.enter(Op::SyncDir, dir)?;
        state.check_dir(Op::SyncDir, dir)?;
        for edit in state.unsynced.remove(dir).unwrap_or_default() {
            apply(&edit, &mut state.durable);
        }
        Ok(())
    }

    fn open_append(&self, path: &Path, create: bool) -> Result<Box<dyn Segment>, StoreError> {
        let mut state = self.state();
        state.enter(Op::Open, path)?;
        let ino = match state.names.get(path) {
            Some(&ino) => ino,
            None if create => state.create(Op::Open, path)?,
            None => return Err(failure(Op::Open, path, "no such file")),
        };
        Ok(Box::new(SimSegment {
            state: Arc::clone(&self.state),
            ino,
            path: path.to_owned(),
        }))
    }
}

/// An open file of a [`SimFs`]. It keeps writing to its file after an
/// unlink, as a real handle does, and fails once the file system has
/// crashed.
struct SimSegment {
    state: Arc<Mutex<State>>,
    ino: Ino,
    path: PathBuf,
}

impl SimSegment {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Segment for SimSegment {
    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        let mut state = self.lock();
        let fault = state.begin(Op::Append, &self.path)?;
        let landed = match fault {
            None => bytes.len(),
            Some(Fault::Eio) => 0,
            Some(Fault::NoSpace) => state.rng.below(bytes.len()),
            Some(Fault::ShortWrite) if bytes.len() > 1 => 1 + state.rng.below(bytes.len() - 1),
            Some(Fault::ShortWrite) => 0,
        };
        if landed > 0 {
            state.inodes[self.ino].change(Change::Append(bytes[..landed].to_vec()));
        }
        match fault {
            Some(_) => Err(failure(Op::Append, &self.path, "injected fault")),
            None => Ok(()),
        }
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        let latency = self.lock().sync_latency;
        if !latency.is_zero() {
            std::thread::sleep(latency);
        }
        let mut state = self.lock();
        state.enter(Op::Sync, &self.path)?;
        state.inodes[self.ino].sync();
        Ok(())
    }
}
