//! The background fold: sealed WAL segments merged into the next
//! snapshot generation on a `pequod-fold` thread, so the serving thread
//! never copies the engine's durable state.
//!
//! * **Seal** (serving thread, [`crate::Persister`]). Every
//!   `snapshot_every` records the live segment `wal-g.log` is sealed:
//!   appends move to a fresh `wal-(g+1).log` and `g` is handed to the
//!   folder. That is one file creation, whatever the dataset's size.
//! * **Fold** (this module's thread). The newest snapshot at or below
//!   `g` is streamed (checksum-verified) and merged with the records of
//!   every segment from it through `g`, last writer wins, into
//!   `snap-(g+1).snap`: written to `.tmp`, fsynced, renamed, the
//!   directory fsynced, then every folded generation's files deleted.
//! * **Coalescing.** Seals that land while a fold runs only raise the
//!   pending boundary, so the next fold covers all of them at once.
//! * **Crashes.** The files are the ones compaction always wrote, and
//!   recovery loads the newest valid snapshot and replays every log at
//!   or after it: a crash before the rename recovers from the old
//!   snapshot and every segment, a crash after it from the new one.
//! * **Failures** leave the segments in place (recovery stays complete),
//!   reach stderr and the flight recorder, and the next seal retries.
//!
//! What a fold writes equals what `Engine::durable_state` would have
//! returned at the seal: the log holds every durable base write, and a
//! key inside a later-installed join's output range — base data the
//! join turned computed — is dropped here as the engine's scan drops it.

use crate::dir::DataDir;
use crate::log::read_log;
use crate::snapshot::{SnapshotReader, SnapshotWriter};
use pequod_core::DurableOp;
use pequod_store::{Key, KeyRange, Value};
use pequod_telemetry::Recorder;
use std::collections::BTreeMap;
use std::io;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A point inside a fold where a crash leaves a distinct directory.
#[doc(hidden)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FoldStep {
    /// `snap-(g+1).tmp` is complete and fsynced, not yet renamed.
    TmpWritten,
    /// The new snapshot is published; the folded files are still there.
    Renamed,
    /// One folded file is gone.
    Deleted(PathBuf),
}

/// Called on the folder thread at every [`FoldStep`] (crash tests copy
/// the directory there).
#[doc(hidden)]
pub type FoldHook = Arc<dyn Fn(&FoldStep) + Send + Sync>;

#[derive(Default)]
struct State {
    /// The newest sealed segment no fold has taken yet.
    sealed: Option<u64>,
    /// A fold is running.
    busy: bool,
    /// Exit once nothing is sealed.
    stop: bool,
    recorder: Recorder,
    hook: Option<FoldHook>,
    folds: u64,
    failures: u64,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    changed: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.changed
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// The persister's handle on its folder thread.
pub(crate) struct Folder {
    dir: DataDir,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Folder {
    /// A folder for `dir`; no thread runs until [`Folder::start`].
    pub(crate) fn new(dir: DataDir) -> Folder {
        Folder {
            dir,
            shared: Arc::default(),
            thread: None,
        }
    }

    /// Starts the thread if it is not running.
    pub(crate) fn start(&mut self) -> io::Result<()> {
        if self.thread.is_none() {
            let (dir, shared) = (self.dir.clone(), Arc::clone(&self.shared));
            let thread = std::thread::Builder::new()
                .name("pequod-fold".into())
                .spawn(move || run(&dir, &shared))?;
            self.thread = Some(thread);
        }
        Ok(())
    }

    /// Whether the thread runs.
    #[cfg(test)]
    pub(crate) fn running(&self) -> bool {
        self.thread.is_some()
    }

    /// Asks for every segment up to `sealed` to be folded.
    pub(crate) fn request(&mut self, sealed: u64) -> io::Result<()> {
        self.start()?;
        let mut st = self.shared.lock();
        st.sealed = Some(st.sealed.map_or(sealed, |s| s.max(sealed)));
        drop(st);
        self.shared.changed.notify_all();
        Ok(())
    }

    /// Blocks until no fold is running or pending.
    pub(crate) fn wait_idle(&self) {
        let mut st = self.shared.lock();
        while st.busy || (st.sealed.is_some() && self.thread.is_some()) {
            st = self.shared.wait(st);
        }
    }

    /// Finishes the folds already requested, then joins the thread.
    pub(crate) fn stop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.shared.lock().stop = true;
        self.shared.changed.notify_all();
        if thread.join().is_err() {
            eprintln!("pequod-persist: the fold thread panicked");
        }
        self.shared.lock().stop = false;
    }

    pub(crate) fn set_recorder(&self, recorder: Recorder) {
        self.shared.lock().recorder = recorder;
    }

    pub(crate) fn set_hook(&self, hook: Option<FoldHook>) {
        self.shared.lock().hook = hook;
    }

    /// Folds published and folds failed.
    pub(crate) fn counts(&self) -> (u64, u64) {
        let st = self.shared.lock();
        (st.folds, st.failures)
    }
}

fn run(dir: &DataDir, shared: &Shared) {
    loop {
        let (upto, recorder, hook) = {
            let mut st = shared.lock();
            loop {
                if let Some(upto) = st.sealed.take() {
                    st.busy = true;
                    break (upto, st.recorder.clone(), st.hook.clone());
                }
                if st.stop {
                    return;
                }
                st = shared.wait(st);
            }
        };
        // A panicking fold is a failed one: the thread lives on, so no
        // waiter is left blocked on a fold that never ends.
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| fold(dir, upto, hook.as_deref())))
                .unwrap_or_else(|_| Err(io::Error::other("the fold panicked")));
        match &outcome {
            Ok(bytes) => recorder.snapshot_taken(*bytes),
            Err(e) => {
                eprintln!(
                    "pequod-persist: folding wal-{upto}.log and older into snap-{}.snap \
                     failed: {e}; the segments stay and the next seal retries",
                    upto + 1
                );
                recorder.flight("fold_failed", || format!("up to wal-{upto}.log: {e}"));
            }
        }
        let mut st = shared.lock();
        st.busy = false;
        match outcome {
            Ok(_) => st.folds += 1,
            Err(_) => st.failures += 1,
        }
        drop(st);
        shared.changed.notify_all();
    }
}

/// Folds every generation up to `upto` into `snap-(upto+1).snap` and
/// deletes them; returns the new snapshot's size in bytes.
fn fold(
    dir: &DataDir,
    upto: u64,
    hook: Option<&(dyn Fn(&FoldStep) + Send + Sync)>,
) -> io::Result<u64> {
    let step = |s: FoldStep| {
        if let Some(hook) = hook {
            hook(&s);
        }
    };
    let gens: Vec<u64> = dir
        .generations()?
        .into_iter()
        .filter(|&g| g <= upto)
        .collect();
    // The base is the newest snapshot among them; a directory that never
    // compacted has none, and its segments start from empty.
    let base = gens
        .iter()
        .rev()
        .copied()
        .find(|&g| dir.snap_path(g).exists());
    let mut snap = base
        .map(|g| SnapshotReader::open(&dir.snap_path(g)))
        .transpose()
        .map_err(io::Error::other)?;
    let mut joins = snap
        .as_mut()
        .map(|s| std::mem::take(&mut s.joins))
        .unwrap_or_default();
    let mut latest: BTreeMap<Key, Option<Value>> = BTreeMap::new();
    for &g in gens.iter().filter(|&&g| base.is_none_or(|b| g >= b)) {
        let path = dir.wal_path(g);
        let tail = read_log(&path)?;
        if let Some(e) = tail.corruption {
            return Err(io::Error::other(format!("{}: {e}", path.display())));
        }
        for op in tail.ops {
            match op {
                DurableOp::Put(k, v) => {
                    latest.insert(k, Some(v));
                }
                DurableOp::Remove(k) => {
                    latest.insert(k, None);
                }
                DurableOp::AddJoin(text) => {
                    if !joins.contains(&text) {
                        joins.push(text);
                    }
                }
            }
        }
    }
    let computed = output_ranges(&joins)?;
    let target = dir.snap_path(upto + 1);
    let mut out = SnapshotWriter::create(&target, &joins)?;
    let written = merge(&mut out, snap.as_mut(), &latest, |key| {
        !computed.iter().any(|r| in_range(r, key))
    })
    .and_then(|()| out.write_tmp());
    let tmp = match written {
        Ok(tmp) => tmp,
        Err(e) => {
            let _ = std::fs::remove_file(target.with_extension("tmp"));
            return Err(e);
        }
    };
    step(FoldStep::TmpWritten);
    let bytes = tmp.publish()?;
    step(FoldStep::Renamed);
    dir.remove_generations_before(upto + 1, |path| step(FoldStep::Deleted(path)))?;
    Ok(bytes)
}

/// Writes the union of the snapshot's pairs and the logged writes, both
/// in key order, into `out`: a logged write replaces the snapshot's
/// pair (a removal drops it), and only keys `keep` accepts are written.
fn merge(
    out: &mut SnapshotWriter,
    snap: Option<&mut SnapshotReader>,
    latest: &BTreeMap<Key, Option<Value>>,
    keep: impl Fn(&[u8]) -> bool,
) -> io::Result<()> {
    let emit = |out: &mut SnapshotWriter, key: &[u8], value: Option<&[u8]>| match value {
        Some(v) if keep(key) => out.push(key, v),
        _ => Ok(()),
    };
    let mut logged = latest
        .iter()
        .map(|(k, v)| (k.as_bytes(), v.as_deref()))
        .peekable();
    if let Some(snap) = snap {
        while let Some((key, value)) = snap.next_pair().map_err(io::Error::other)? {
            while let Some((k, v)) = logged.next_if(|&(k, _)| k < key) {
                emit(out, k, v)?;
            }
            match logged.next_if(|&(k, _)| k == key) {
                Some((k, v)) => emit(out, k, v)?,
                None => emit(out, key, Some(value))?,
            }
        }
    }
    for (k, v) in logged {
        emit(out, k, v)?;
    }
    Ok(())
}

/// The output range of every join in `joins`: keys there are computed,
/// never durable, whatever the log says they were before the join.
fn output_ranges(joins: &[String]) -> io::Result<Vec<KeyRange>> {
    let mut out = Vec::new();
    for text in joins {
        let specs = pequod_join::parse_joins(text)
            .map_err(|e| io::Error::other(format!("join {text:?}: {e}")))?;
        out.extend(specs.iter().map(|s| s.output_range().clone()));
    }
    Ok(out)
}

/// `KeyRange::contains` on a raw key.
fn in_range(range: &KeyRange, key: &[u8]) -> bool {
    key >= range.first.as_bytes() && range.end.as_key().is_none_or(|end| key < end.as_bytes())
}
