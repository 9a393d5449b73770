//! File-backed durable substrate: real files under a temporary
//! directory, with honest crash semantics.
//!
//! Layout of the storage directory:
//!
//! ```text
//! pages/p<id>.pg    installed page copies (checksummed, see below)
//! journal/p<id>.pg  doublewrite journal: pre-images of torn pages
//! master.bin        checkpoint pointer:  lsn u64 | crc u32
//! master.tmp        in-flight master write (debris if crashed)
//! intent.bin        committed intentions list (replayed on reopen)
//! intent.tmp        in-flight intentions list (debris if crashed)
//! manifest.bin      ids of every page ever installed:  n u32 | ids | crc
//! manifest.tmp      in-flight manifest write (debris if crashed)
//! ```
//!
//! and of each log shard's directory:
//!
//! ```text
//! wal.log           the shard's stable frames: archive ∥ live
//! wal.tmp           in-flight compaction rewrite (debris if crashed)
//! ```
//!
//! Neither medium keeps a copy of what it persists. The page store,
//! `FileStorage`, persists each change [`Disk`](crate::disk::Disk)
//! makes to its one page image, and at a crash rebuilds that image
//! from the files — pages, torn marks with their journaled pre-images,
//! lost marks, and the master. The log medium, `FileLog`, persists each
//! append, truncation and compaction of a log shard's one frame image,
//! and at a crash reads it back; where the archived prefix ends and the
//! live log begins is the shard's bookkeeping, not the file's, so a
//! drain writes nothing. Out-of-band damage inflicted by tests
//! (flipping a bit in a page file, deleting one, cutting `wal.log`) is
//! so observed exactly as a reopening process would observe it. The
//! staging area is volatile disk state and never reaches a file.
//!
//! Every checksum in these files — page files, journal entries,
//! `master.bin`, the manifest and intentions list, and each `wal.log`
//! frame — is the CRC-32C of [`Crc32c`](super::Crc32c), computed by the
//! CPU's `crc32` instruction where it has SSE4.2 and by slice-by-8
//! tables elsewhere; the stored bytes are the same either way.
//!
//! Every page file is `lsn u64 | slots u16 | crc u32 | slot data`, all
//! little-endian, with the CRC computed over the whole encoding minus
//! the CRC field itself. A torn write stores the CRC of the *intended*
//! image over partially-old slot data, so the damage is detected by
//! checksum on the next reopen — exactly how a real page checksum
//! catches a torn sector transfer — rather than flagged by simulator
//! fiat. Its pre-image is journaled first, and a journal entry beside a
//! page file marks the page torn as well: a full write or a repair
//! removes it.
//!
//! Atomic multi-page installs and the checkpoint pointer swing use an
//! intentions list: the pages and new master are serialized to
//! `intent.tmp`, fsynced, and `rename`d to `intent.bin` — the rename is
//! the commit point. After the rename the install is applied (page
//! files written, master published via its own temp + fsync + rename)
//! and the intent removed; a crash anywhere after the rename replays
//! the idempotent intent on reopen, a crash before it leaves only
//! ignorable `*.tmp` debris. This is the standard realization of §5's
//! "large atomic transition".
//!
//! **Media loss** is detected by diffing the durable page manifest
//! against the files the rescan actually finds: a manifested page whose
//! file vanished — or turned structurally unreadable with no journaled
//! pre-image to fall back on — is *lost*, not torn. Lost pages read as
//! [`SimError::MediaLoss`](crate::SimError::MediaLoss) until a rebuild
//! (replaying `archive ∥ live` from the last checkpoint image) writes a
//! fresh copy. The manifest is written page-file-first: a crash between
//! installing a new page file and manifesting it leaves an unmanifested
//! file, which the rescan unions back into the manifest — never a
//! spurious loss.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use redo_theory::log::Lsn;
use redo_workload::pages::{PageId, SlotId};

use crate::disk::Image;
use crate::error::SimResult;
use crate::page::Page;
use crate::wal::codec;

use super::{crc32c, Crc32c, TempDir};

/// Bytes of a page-file header: lsn u64 | slots u16 | crc u32.
const PAGE_HEADER: usize = 14;

/// Aborts on a host-filesystem *write* failure (disk full, permissions)
/// — outside the simulated fault model. Open/read failures on page and
/// archive files must NOT come here: they are media loss, a recoverable
/// [`crate::SimError::MediaLoss`] condition handled by the rescan paths.
fn die(what: &str, path: &Path, err: std::io::Error) -> ! {
    panic!("{what} {}: {err}", path.display());
}

/// Writes `bytes` to `path` and syncs the file data. The write itself
/// is not atomic — callers that need atomicity go through a temp +
/// rename.
fn write_durable(path: &Path, bytes: &[u8]) {
    let mut f = File::create(path).unwrap_or_else(|e| die("creating", path, e));
    f.write_all(bytes)
        .unwrap_or_else(|e| die("writing", path, e));
    f.sync_data().unwrap_or_else(|e| die("syncing", path, e));
}

/// Syncs a directory so a just-renamed entry is durable.
fn sync_dir(dir: &Path) {
    // Directory fsync is a Unix-ism; elsewhere the rename alone is the
    // best available.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Atomically publishes `bytes` at `path` via write-temp + fsync +
/// rename.
fn publish_durable(path: &Path, tmp: &Path, bytes: &[u8]) {
    write_durable(tmp, bytes);
    fs::rename(tmp, path).unwrap_or_else(|e| die("renaming into", path, e));
    if let Some(dir) = path.parent() {
        sync_dir(dir);
    }
}

fn encode_page(page: &Page) -> Vec<u8> {
    let spp = page.slot_count();
    let mut out = Vec::with_capacity(PAGE_HEADER + page.slots().len() * 8);
    out.extend_from_slice(&page.lsn().0.to_le_bytes());
    out.extend_from_slice(&spp.to_le_bytes());
    out.extend_from_slice(&[0; 4]); // crc patched below
    for &slot in page.slots() {
        out.extend_from_slice(&slot.to_le_bytes());
    }
    let mut crc = Crc32c::new();
    crc.update(&out[..10]);
    crc.update(&out[PAGE_HEADER..]);
    out[10..PAGE_HEADER].copy_from_slice(&crc.finish().to_le_bytes());
    out
}

/// Decodes a page file. `None` when structurally unreadable; otherwise
/// the page plus whether its checksum verified.
fn decode_page(bytes: &[u8]) -> Option<(Page, bool)> {
    if bytes.len() < PAGE_HEADER {
        return None;
    }
    let lsn = Lsn(u64::from_le_bytes(bytes[..8].try_into().ok()?));
    let spp = u16::from_le_bytes(bytes[8..10].try_into().ok()?);
    let stored_crc = u32::from_le_bytes(bytes[10..PAGE_HEADER].try_into().ok()?);
    let body = &bytes[PAGE_HEADER..];
    if body.len() != usize::from(spp) * 8 {
        return None;
    }
    let mut page = Page::new(spp);
    page.set_lsn(lsn);
    for (i, chunk) in body.chunks_exact(8).enumerate() {
        page.set(
            SlotId(u16::try_from(i).expect("slot count bounded by u16 header")),
            u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes")),
        );
    }
    let mut crc = Crc32c::new();
    crc.update(&bytes[..10]);
    crc.update(body);
    Some((page, crc.finish() == stored_crc))
}

fn page_file_name(id: PageId) -> String {
    format!("p{}.pg", id.0)
}

fn parse_page_file_name(name: &str) -> Option<PageId> {
    name.strip_prefix('p')?
        .strip_suffix(".pg")?
        .parse()
        .ok()
        .map(PageId)
}

/// The files persisting a [`Disk`](crate::disk::Disk)'s page image. It
/// holds no copy of the image: each change is written through as the
/// disk makes it, and [`FileStorage::reopen`] rebuilds the image from
/// the files. See the module docs for the layout and the crash-atomicity
/// argument.
#[derive(Debug)]
pub(crate) struct FileStorage {
    dir: TempDir,
    /// Every page id ever durably installed — mirror of `manifest.bin`.
    /// The reference the rescan diffs the surviving files against.
    manifest: BTreeSet<PageId>,
}

impl FileStorage {
    /// A fresh store in its own temporary directory.
    pub(crate) fn new_temp() -> FileStorage {
        let dir = TempDir::new("redo-sim-disk");
        for sub in ["pages", "journal"] {
            let p = dir.path().join(sub);
            fs::create_dir_all(&p).unwrap_or_else(|e| die("creating", &p, e));
        }
        FileStorage {
            dir,
            manifest: BTreeSet::new(),
        }
    }

    /// The storage directory.
    pub(crate) fn dir(&self) -> &Path {
        self.dir.path()
    }

    fn pages_dir(&self) -> PathBuf {
        self.dir.path().join("pages")
    }

    fn journal_dir(&self) -> PathBuf {
        self.dir.path().join("journal")
    }

    fn page_path(&self, id: PageId) -> PathBuf {
        self.pages_dir().join(page_file_name(id))
    }

    fn journal_path(&self, id: PageId) -> PathBuf {
        self.journal_dir().join(page_file_name(id))
    }

    fn master_path(&self) -> PathBuf {
        self.dir.path().join("master.bin")
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.path().join("manifest.bin")
    }

    /// Publishes the manifest mirror: n u32 | n × id u32 | crc u32.
    fn publish_manifest(&self) {
        let mut bytes = Vec::with_capacity(8 + self.manifest.len() * 4);
        bytes.extend_from_slice(&(self.manifest.len() as u32).to_le_bytes());
        for id in &self.manifest {
            bytes.extend_from_slice(&id.0.to_le_bytes());
        }
        bytes.extend_from_slice(&crc32c(&bytes[..]).to_le_bytes());
        publish_durable(
            &self.manifest_path(),
            &self.dir.path().join("manifest.tmp"),
            &bytes,
        );
    }

    /// Loads the manifest mirror. Missing or corrupt reads as empty —
    /// the rescan then re-derives it from the surviving files, which
    /// can under-detect loss but never fabricates pages.
    fn load_manifest(&mut self) {
        self.manifest = fs::read(self.manifest_path())
            .ok()
            .and_then(|bytes| {
                if bytes.len() < 8 {
                    return None;
                }
                let (body, tail) = bytes.split_at(bytes.len() - 4);
                if crc32c(body) != u32::from_le_bytes(tail.try_into().ok()?) {
                    return None;
                }
                let n = u32::from_le_bytes(body[..4].try_into().ok()?) as usize;
                if body.len() != 4 + n * 4 {
                    return None;
                }
                Some(
                    body[4..]
                        .chunks_exact(4)
                        .map(|c| PageId(u32::from_le_bytes(c.try_into().expect("4-byte chunk"))))
                        .collect(),
                )
            })
            .unwrap_or_default();
    }

    /// Adds `id` to the durable manifest if new. Called *after* the page
    /// file itself lands, so a crash in between leaves an unmanifested
    /// file (unioned back in by the rescan), never a manifested hole.
    fn manifest_page(&mut self, id: PageId) {
        if self.manifest.insert(id) {
            self.publish_manifest();
        }
    }

    /// Persists a full, clean page write. It supersedes the page's torn
    /// state and its journaled pre-image (and a media-lost mark, which
    /// the page's file now answers).
    pub(crate) fn write_page(&mut self, id: PageId, page: &Page) {
        write_durable(&self.page_path(id), &encode_page(page));
        self.manifest_page(id);
        let _ = fs::remove_file(self.journal_path(id));
    }

    /// Persists a torn write: `pre`, when given, is journaled first (the
    /// doublewrite), then the page file receives the `landed` slots
    /// under the checksum of the `intended` image, so the next reopen
    /// detects the tear by CRC mismatch — exactly how a real page
    /// checksum catches a torn sector transfer. The journal marks the
    /// tear too, which matters when the landed slots happen to equal
    /// the intended ones.
    pub(crate) fn tear_page(
        &mut self,
        id: PageId,
        pre: Option<&Page>,
        intended: &Page,
        landed: &Page,
    ) {
        if let Some(pre) = pre {
            write_durable(&self.journal_path(id), &encode_page(pre));
        }
        let mut bytes = encode_page(landed);
        bytes[10..PAGE_HEADER].copy_from_slice(&encode_page(intended)[10..PAGE_HEADER]);
        write_durable(&self.page_path(id), &bytes);
        self.manifest_page(id);
    }

    /// Persists the checkpoint pointer: temp + fsync + rename.
    pub(crate) fn set_master(&self, lsn: Lsn) {
        publish_durable(
            &self.master_path(),
            &self.dir.path().join("master.tmp"),
            &encode_master(lsn),
        );
    }

    /// Serializes an intentions list: master u64 | n u32 | n × (id u32 |
    /// len u32 | page encoding) | crc u32 over all preceding bytes.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::FieldOverflow`] when the page count or a page
    /// encoding does not fit its u32 length field; nothing has touched
    /// the files at that point.
    fn encode_intent(master: Lsn, pages: &[(PageId, Page)]) -> SimResult<Vec<u8>> {
        let mut out = Vec::new();
        out.extend_from_slice(&master.0.to_le_bytes());
        let n = codec::count_u32("intent page count", pages.len())?;
        out.extend_from_slice(&n.to_le_bytes());
        for (id, page) in pages {
            out.extend_from_slice(&id.0.to_le_bytes());
            let enc = encode_page(page);
            let len = codec::count_u32("intent page encoding length", enc.len())?;
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&enc);
        }
        out.extend_from_slice(&crc32c(&out).to_le_bytes());
        Ok(out)
    }

    fn decode_intent(bytes: &[u8]) -> Option<(Lsn, Vec<(PageId, Page)>)> {
        if bytes.len() < 16 {
            return None;
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        if crc32c(body) != u32::from_le_bytes(tail.try_into().ok()?) {
            return None;
        }
        let master = Lsn(u64::from_le_bytes(body[..8].try_into().ok()?));
        let n = u32::from_le_bytes(body[8..12].try_into().ok()?);
        let mut pages = Vec::new();
        let mut pos = 12;
        for _ in 0..n {
            let id = PageId(u32::from_le_bytes(body.get(pos..pos + 4)?.try_into().ok()?));
            let len = u32::from_le_bytes(body.get(pos + 4..pos + 8)?.try_into().ok()?) as usize;
            pos += 8;
            let (page, ok) = decode_page(body.get(pos..pos + len)?)?;
            if !ok {
                return None;
            }
            pos += len;
            pages.push((id, page));
        }
        (pos == body.len()).then_some((master, pages))
    }

    /// Persists one atomic install: the intentions list is committed
    /// (the `rename` is the commit point), then applied — every page
    /// written, then the master published.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::FieldOverflow`] when the list does not encode; the
    /// encoding happens before any file write, so nothing is installed
    /// on error.
    pub(crate) fn install(&mut self, master: Lsn, pages: &[(PageId, Page)]) -> SimResult<()> {
        let encoded = Self::encode_intent(master, pages)?;
        let intent = self.dir.path().join("intent.bin");
        publish_durable(&intent, &self.dir.path().join("intent.tmp"), &encoded);
        for (id, page) in pages {
            self.write_page(*id, page);
        }
        self.set_master(master);
        let _ = fs::remove_file(&intent);
        sync_dir(self.dir.path());
        Ok(())
    }

    /// The machine dies *before* an install's commit-point rename: both
    /// temp files are written and synced but neither is renamed. Reopen
    /// must ignore them and keep the old master.
    ///
    /// # Errors
    ///
    /// As [`FileStorage::install`]: an unencodable set leaves no debris.
    pub(crate) fn abandon_install(&self, master: Lsn, pages: &[(PageId, Page)]) -> SimResult<()> {
        write_durable(
            &self.dir.path().join("intent.tmp"),
            &Self::encode_intent(master, pages)?,
        );
        write_durable(&self.dir.path().join("master.tmp"), &encode_master(master));
        Ok(())
    }

    /// The media-failure adversary: page file and journal pre-image both
    /// gone. The manifest still promises the page (if any write reached
    /// it), so the next reopen re-detects the loss.
    pub(crate) fn destroy_page(&self, id: PageId) {
        let _ = fs::remove_file(self.page_path(id));
        let _ = fs::remove_file(self.journal_path(id));
    }

    /// Process death and reopen: in-flight temp files die with the
    /// process, a committed intentions list is replayed idempotently,
    /// and the image is rebuilt from what the files hold.
    pub(crate) fn reopen(&mut self) -> Image {
        for debris in ["intent.tmp", "master.tmp", "manifest.tmp"] {
            let _ = fs::remove_file(self.dir.path().join(debris));
        }
        // The manifest first: the replay extends it, and the rescan
        // diffs it against what survived.
        self.load_manifest();
        let intent = self.dir.path().join("intent.bin");
        if let Some((master, pages)) = fs::read(&intent)
            .ok()
            .as_deref()
            .and_then(Self::decode_intent)
        {
            for (id, page) in &pages {
                self.write_page(*id, page);
            }
            self.set_master(master);
        }
        let _ = fs::remove_file(&intent);
        self.rescan()
    }

    /// Rebuilds the image by scanning and checksumming every page and
    /// journal file. A page is torn when its checksum fails or a usable
    /// journaled pre-image stands beside it; a structurally unreadable
    /// page file is torn if journaled, lost otherwise. Pages the
    /// manifest promises but the scan cannot find are lost too: nothing
    /// on the medium can restore them.
    fn rescan(&mut self) -> Image {
        let master = fs::read(self.master_path())
            .ok()
            .and_then(|bytes| {
                let lsn_bytes: [u8; 8] = bytes.get(..8)?.try_into().ok()?;
                let stored: [u8; 4] = bytes.get(8..12)?.try_into().ok()?;
                (crc32c(&lsn_bytes) == u32::from_le_bytes(stored))
                    .then(|| Lsn(u64::from_le_bytes(lsn_bytes)))
            })
            .unwrap_or(Lsn::ZERO);
        let mut image = Image {
            master,
            ..Image::default()
        };
        let mut journal: BTreeMap<PageId, Page> = scan_page_files(&self.journal_dir())
            .into_iter()
            .filter_map(|(id, decoded)| match decoded {
                Some((pre, true)) => Some((id, pre)),
                _ => None,
            })
            .collect();
        // A listing failure means the pages directory itself vanished:
        // every manifested page is lost, but the process survives.
        let mut found = BTreeSet::new();
        for (id, decoded) in scan_page_files(&self.pages_dir()) {
            found.insert(id);
            let pre = journal.remove(&id);
            match decoded {
                Some((page, verified)) => {
                    if !verified || pre.is_some() {
                        image.torn.insert(id, pre);
                    }
                    image.pages.insert(id, page);
                }
                None if pre.is_some() => {
                    image.torn.insert(id, pre);
                }
                None => {
                    image.lost.insert(id);
                }
            }
        }
        image
            .lost
            .extend(self.manifest.iter().filter(|id| !found.contains(id)));
        // Unmanifested survivors (a crash between page install and
        // manifest publication) are unioned back in.
        let before = self.manifest.len();
        self.manifest.extend(found);
        if self.manifest.len() != before {
            self.publish_manifest();
        }
        image
    }
}

impl Clone for FileStorage {
    /// A deep copy: the files are copied into a fresh temporary
    /// directory.
    fn clone(&self) -> FileStorage {
        let dir = TempDir::new("redo-sim-disk");
        copy_tree(self.dir.path(), dir.path());
        FileStorage {
            dir,
            manifest: self.manifest.clone(),
        }
    }
}

/// The page files of `dir`, each decoded (`None` when unreadable or
/// structurally destroyed). A directory that cannot be listed holds none.
fn scan_page_files(dir: &Path) -> Vec<(PageId, Option<(Page, bool)>)> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|entry| {
            let id = entry.file_name().to_str().and_then(parse_page_file_name)?;
            Some((
                id,
                fs::read(entry.path()).ok().as_deref().and_then(decode_page),
            ))
        })
        .collect()
}

/// The master file's bytes: lsn u64 | crc u32 of the lsn.
fn encode_master(lsn: Lsn) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(12);
    bytes.extend_from_slice(&lsn.0.to_le_bytes());
    bytes.extend_from_slice(&crc32c(&lsn.0.to_le_bytes()).to_le_bytes());
    bytes
}

/// Recursively copies the contents of `src` into `dst` (which exists).
fn copy_tree(src: &Path, dst: &Path) {
    let entries = fs::read_dir(src).unwrap_or_else(|e| die("listing", src, e));
    for entry in entries.flatten() {
        let from = entry.path();
        let to = dst.join(entry.file_name());
        if from.is_dir() {
            fs::create_dir_all(&to).unwrap_or_else(|e| die("creating", &to, e));
            copy_tree(&from, &to);
        } else {
            fs::copy(&from, &to).unwrap_or_else(|e| die("copying into", &to, e));
        }
    }
}

/// Opens (creating) `path` for appending.
fn open_append(path: &Path) -> File {
    OpenOptions::new()
        .create(true)
        .append(true)
        .read(true)
        .open(path)
        .unwrap_or_else(|e| die("opening", path, e))
}

/// The file persisting one log shard's frame image, `wal.log`, in a
/// directory of its own. It holds no copy of the bytes: the shard
/// writes each append, truncation and compaction through as it makes
/// it, and at a crash rebuilds its image from the file
/// ([`FileLog::reload`]). A drain only moves the shard's live origin,
/// so it never reaches the file.
#[derive(Debug)]
pub(crate) struct FileLog {
    dir: TempDir,
    path: PathBuf,
    /// The append handle.
    file: File,
    syncs: u64,
}

impl FileLog {
    /// A fresh medium, its file empty, in its own temporary directory.
    pub(crate) fn new_temp() -> FileLog {
        FileLog::open(TempDir::new("redo-sim-wal"), 0)
    }

    fn open(dir: TempDir, syncs: u64) -> FileLog {
        let path = dir.path().join("wal.log");
        let file = open_append(&path);
        FileLog {
            dir,
            path,
            file,
            syncs,
        }
    }

    /// `wal.log`'s path (tests damage it out-of-band).
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Every `sync_data` this medium has issued: one per append, per
    /// truncation and per rewrite.
    pub(crate) fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Durably appends `bytes`: one `write`, one `fsync`.
    pub(crate) fn append(&mut self, bytes: &[u8]) {
        self.file
            .write_all(bytes)
            .unwrap_or_else(|e| die("appending to", &self.path, e));
        self.sync();
    }

    /// Cuts `wal.log` back to `len` bytes: tail repair and rollback.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.file
            .set_len(len as u64)
            .unwrap_or_else(|e| die("truncating", &self.path, e));
        self.sync();
    }

    fn sync(&mut self) {
        self.file
            .sync_data()
            .unwrap_or_else(|e| die("syncing", &self.path, e));
        self.syncs += 1;
    }

    /// Replaces `wal.log` with `bytes` — what an archive compaction
    /// leaves — through a temp file and a `rename`, so a crash
    /// mid-rewrite never loses the image.
    pub(crate) fn rewrite(&mut self, bytes: &[u8]) {
        publish_durable(&self.path, &self.path.with_extension("tmp"), bytes);
        self.file = open_append(&self.path);
        self.syncs += 1;
    }

    /// Process death and reopen: the image as the file holds it,
    /// out-of-band damage included. A file that vanished or turned
    /// unreadable is media loss, read as empty (recoverable), not an
    /// abort; reopening it for append recreates it.
    pub(crate) fn reload(&mut self) -> Vec<u8> {
        let bytes = fs::read(&self.path).unwrap_or_default();
        self.file = open_append(&self.path);
        bytes
    }
}

impl Clone for FileLog {
    /// A deep copy: the file is copied into a fresh temporary
    /// directory.
    fn clone(&self) -> FileLog {
        let dir = TempDir::new("redo-sim-wal");
        copy_tree(self.dir.path(), dir.path());
        FileLog::open(dir, self.syncs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::disk::Disk;
    use crate::error::SimError;
    use crate::fault::{FaultKind, FaultPlan};

    fn page(spp: u16, lsn: u64, fill: u64) -> Page {
        let mut p = Page::new(spp);
        p.set_lsn(Lsn(lsn));
        for s in 0..spp {
            p.set(SlotId(s), fill + u64::from(s));
        }
        p
    }

    #[test]
    fn page_encoding_roundtrips_with_valid_crc() {
        let p = page(4, 7, 100);
        let bytes = encode_page(&p);
        let (decoded, ok) = decode_page(&bytes).unwrap();
        assert!(ok);
        assert_eq!(decoded, p);
    }

    #[test]
    fn bit_flip_fails_page_crc() {
        let mut bytes = encode_page(&page(4, 7, 100));
        bytes[PAGE_HEADER + 3] ^= 0x10;
        let (_, ok) = decode_page(&bytes).unwrap();
        assert!(!ok);
    }

    fn disk() -> Disk {
        Disk::on(BackendKind::File)
    }

    fn page_file(d: &Disk, id: PageId) -> PathBuf {
        d.dir().unwrap().join("pages").join(page_file_name(id))
    }

    /// A write of `page` that tears after `sectors` slots.
    fn tear(d: &mut Disk, id: PageId, page: Page, sectors: u16) {
        d.injector.arm(FaultPlan {
            at: 1,
            kind: FaultKind::TornWrite { sectors },
        });
        d.write_page(id, page);
        d.injector.reset();
    }

    #[test]
    fn pages_survive_crash_and_reads_come_from_files() {
        let mut d = disk();
        d.write_page(PageId(3), page(4, 2, 10));
        d.set_master(Lsn(2)).unwrap();
        d.crash();
        assert_eq!(d.master(), Lsn(2));
        assert_eq!(d.read_page(PageId(3), 4).unwrap(), page(4, 2, 10));
        assert_eq!(d.pages().len(), 1);
    }

    #[test]
    fn torn_write_detected_by_crc_after_crash_and_repaired_from_journal() {
        let mut d = disk();
        let pre = page(4, 1, 10);
        d.write_page(PageId(0), pre.clone());
        tear(&mut d, PageId(0), page(4, 2, 100), 2);
        // The image knows; a reopening process must *learn* it by CRC.
        d.crash();
        assert_eq!(
            d.read_page(PageId(0), 4),
            Err(SimError::TornPage(PageId(0)))
        );
        let torn = d.raw_page(PageId(0), 4);
        assert_eq!(torn.lsn(), Lsn(2));
        assert_eq!(torn.get(SlotId(0)), 100);
        assert_eq!(torn.get(SlotId(3)), 13, "tail keeps old bytes");
        assert_eq!(d.repair_torn(), vec![PageId(0)]);
        assert_eq!(d.read_page(PageId(0), 4).unwrap(), pre);
        // The repair is durable: another crash finds a clean page.
        d.crash();
        assert_eq!(d.read_page(PageId(0), 4).unwrap(), pre);
    }

    /// A tear whose landed slots already hold the intended values leaves
    /// bytes that verify; the journal beside them still marks the page
    /// torn, so the reopen answers as the image did and repair restores
    /// the pre-image rather than leaving a stale journal behind.
    #[test]
    fn a_tear_that_lands_every_changed_slot_stays_torn_across_a_reopen() {
        let mut d = disk();
        let pre = page(4, 1, 10);
        d.write_page(PageId(0), pre.clone());
        let mut new = pre.clone();
        new.set_lsn(Lsn(2));
        new.set(SlotId(0), 99);
        tear(&mut d, PageId(0), new, 1);
        d.crash();
        assert_eq!(d.torn_pages(), vec![PageId(0)]);
        assert_eq!(d.repair_torn(), vec![PageId(0)]);
        assert_eq!(d.read_page(PageId(0), 4).unwrap(), pre);
        assert!(!d.dir().unwrap().join("journal").join("p0.pg").exists());
    }

    #[test]
    fn out_of_band_bit_flip_surfaces_as_torn_after_crash() {
        let mut d = disk();
        d.write_page(PageId(5), page(4, 3, 50));
        let path = page_file(&d, PageId(5));
        let mut bytes = fs::read(&path).unwrap();
        bytes[PAGE_HEADER] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        d.crash();
        assert_eq!(
            d.read_page(PageId(5), 4),
            Err(SimError::TornPage(PageId(5)))
        );
        // No journal for out-of-band damage: repair scrubs in place and
        // the scrubbed content stays stable across further crashes.
        let observed = d.raw_page(PageId(5), 4);
        assert_eq!(d.repair_torn(), vec![PageId(5)]);
        d.crash();
        assert_eq!(d.read_page(PageId(5), 4).unwrap(), observed);
    }

    #[test]
    fn deleted_page_file_reads_as_media_loss_after_crash() {
        let mut d = disk();
        d.write_page(PageId(2), page(4, 3, 30));
        d.write_page(PageId(4), page(4, 5, 50));
        fs::remove_file(page_file(&d, PageId(2))).unwrap();
        d.crash();
        assert_eq!(
            d.read_page(PageId(2), 4),
            Err(SimError::MediaLoss(PageId(2)))
        );
        assert_eq!(d.lost_pages(), vec![PageId(2)]);
        assert!(d.is_lost(PageId(2)));
        assert_eq!(d.read_page(PageId(4), 4).unwrap(), page(4, 5, 50));
        // A fresh full write rebuilds the page and clears the mark
        // durably.
        d.write_page(PageId(2), page(4, 7, 70));
        assert!(!d.is_lost(PageId(2)));
        d.crash();
        assert_eq!(d.read_page(PageId(2), 4).unwrap(), page(4, 7, 70));
        assert!(d.lost_pages().is_empty());
    }

    #[test]
    fn garbage_page_file_without_journal_is_media_loss_not_torn() {
        let mut d = disk();
        d.write_page(PageId(1), page(4, 2, 20));
        // Cut the file below its header: structurally unreadable, and no
        // doublewrite pre-image exists to downgrade it to torn.
        let f = OpenOptions::new()
            .write(true)
            .open(page_file(&d, PageId(1)))
            .unwrap();
        f.set_len(5).unwrap();
        drop(f);
        d.crash();
        assert_eq!(
            d.read_page(PageId(1), 4),
            Err(SimError::MediaLoss(PageId(1)))
        );
        assert!(d.torn_pages().is_empty());
    }

    #[test]
    fn destroy_page_is_durable_until_rebuilt() {
        let mut d = disk();
        d.write_page(PageId(3), page(4, 1, 10));
        d.destroy_page(PageId(3));
        assert_eq!(
            d.read_page(PageId(3), 4),
            Err(SimError::MediaLoss(PageId(3)))
        );
        d.crash();
        assert!(d.is_lost(PageId(3)), "the manifest re-detects the loss");
        // Torn transfers onto destroyed media land nothing: the loss
        // stays detectable, which is what makes rebuild idempotent.
        tear(&mut d, PageId(3), page(4, 9, 90), 2);
        assert!(d.is_lost(PageId(3)));
        d.crash();
        assert!(d.is_lost(PageId(3)));
    }

    #[test]
    fn a_lost_log_file_reopens_empty_instead_of_aborting() {
        let mut l = FileLog::new_temp();
        l.append(b"0123456789");
        fs::remove_file(l.path()).unwrap();
        assert!(l.reload().is_empty(), "whole-file loss reads as empty");
        l.append(b"ab");
        assert_eq!(l.reload(), b"ab", "writable again");
    }

    #[test]
    fn abandoned_install_keeps_old_master_after_crash() {
        let mut d = disk();
        d.write_page(PageId(0), page(4, 1, 10));
        d.set_master(Lsn(1)).unwrap();
        d.write_staging(PageId(0), page(4, 5, 99));
        // Crash lands between temp-write and rename.
        d.injector.arm(FaultPlan {
            at: 1,
            kind: FaultKind::Clean,
        });
        d.swing_pointer(Lsn(5)).unwrap();
        let dir = d.dir().unwrap().to_path_buf();
        assert!(dir.join("intent.tmp").exists());
        assert!(dir.join("master.tmp").exists());
        d.crash();
        d.injector.reset();
        assert_eq!(d.master(), Lsn(1), "uncommitted install must not land");
        assert_eq!(d.read_page(PageId(0), 4).unwrap(), page(4, 1, 10));
        assert!(!dir.join("intent.tmp").exists(), "debris cleared");
        assert!(!dir.join("master.tmp").exists(), "debris cleared");
    }

    /// The intent-list length fields narrow with a checked conversion:
    /// a count that cannot fit u32 is a [`SimError::FieldOverflow`],
    /// never a panic. The overflow itself is unconstructable through
    /// real page sets (a page encoding tops out at `14 + 8 * 65535`
    /// bytes), so the narrowing helper is exercised directly with the
    /// same field label `encode_intent` uses.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn intent_length_overflow_is_an_error_not_a_panic() {
        let too_many = u32::MAX as usize + 1;
        let err = codec::count_u32("intent page count", too_many).unwrap_err();
        assert_eq!(
            err,
            SimError::FieldOverflow {
                field: "intent page count",
                value: too_many as u64,
            }
        );
        // And the in-range path still round-trips through decode.
        let staged = vec![(PageId(7), page(4, 3, 30))];
        let bytes = FileStorage::encode_intent(Lsn(3), &staged).unwrap();
        assert_eq!(FileStorage::decode_intent(&bytes), Some((Lsn(3), staged)));
    }

    #[test]
    fn committed_intent_replays_after_crash() {
        let mut d = disk();
        // Simulate a crash after the commit-point rename but before the
        // apply finished: hand-write intent.bin, then crash.
        let dir = d.dir().unwrap().to_path_buf();
        publish_durable(
            &dir.join("intent.bin"),
            &dir.join("intent.tmp"),
            &FileStorage::encode_intent(Lsn(9), &[(PageId(1), page(4, 4, 40))]).unwrap(),
        );
        d.crash();
        assert_eq!(d.master(), Lsn(9), "committed intent must replay");
        assert_eq!(d.read_page(PageId(1), 4).unwrap(), page(4, 4, 40));
        assert!(!dir.join("intent.bin").exists());
    }

    #[test]
    fn swing_pointer_installs_pages_and_master_durably() {
        let mut d = disk();
        d.write_staging(PageId(2), page(4, 6, 60));
        d.swing_pointer(Lsn(6)).unwrap();
        d.crash();
        assert_eq!(d.master(), Lsn(6));
        assert_eq!(d.read_page(PageId(2), 4).unwrap(), page(4, 6, 60));
    }

    #[test]
    fn clone_is_deep() {
        let mut d = disk();
        d.write_page(PageId(0), page(4, 1, 10));
        let mut c = d.clone();
        assert_ne!(c.dir(), d.dir());
        c.write_page(PageId(0), page(4, 2, 20));
        c.crash();
        assert_eq!(c.read_page(PageId(0), 4).unwrap(), page(4, 2, 20));
        d.crash();
        assert_eq!(d.read_page(PageId(0), 4).unwrap(), page(4, 1, 10));
    }

    #[test]
    fn log_appends_are_synced_and_survive_crash() {
        let mut l = FileLog::new_temp();
        l.append(b"abcdef");
        l.append(b"ghij");
        assert_eq!(l.syncs(), 2, "one sync per append");
        l.truncate(8);
        l.rewrite(b"cdefgh");
        assert_eq!(l.syncs(), 4, "a truncation and a rewrite sync too");
        assert_eq!(l.reload(), b"cdefgh");
        assert_eq!(fs::read(l.path()).unwrap(), b"cdefgh");
    }

    #[test]
    fn out_of_band_file_truncation_is_observed_on_crash() {
        let mut l = FileLog::new_temp();
        l.append(b"0123456789");
        // A torn tail at a byte boundary, inflicted on the real file.
        let f = OpenOptions::new().write(true).open(l.path()).unwrap();
        f.set_len(7).unwrap();
        assert_eq!(l.reload(), b"0123456");
    }

    #[test]
    fn rewrite_goes_through_rename() {
        let mut l = FileLog::new_temp();
        l.append(b"old|new");
        l.rewrite(b"new");
        assert!(!l.dir.path().join("wal.tmp").exists());
        // The handle follows the renamed file: appends land after the
        // rewritten bytes.
        l.append(b"+");
        assert_eq!(l.reload(), b"new+");
    }

    #[test]
    fn log_clone_is_deep() {
        let mut l = FileLog::new_temp();
        l.append(b"one");
        let mut c = l.clone();
        assert_ne!(c.path(), l.path());
        c.append(b"two");
        assert_eq!(c.reload(), b"onetwo");
        assert_eq!(l.reload(), b"one");
    }
}
