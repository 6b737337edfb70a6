//! A content-addressed on-disk artifact store.
//!
//! A regression campaign is a DAG whose cells — build, run-on-both-views,
//! STBA compare, coverage merge — are pure functions of their semantic
//! identity `(netlist config, test, seed, engine + engine version,
//! fidelity, compare flags)`. This crate memoizes those cells: the
//! identity hashes to a [`Key`], the cell's full result serializes to a
//! payload string, and the store keeps `key → payload` on disk so an
//! unchanged cell is never recomputed.
//!
//! Design constraints, in order:
//!
//! * **Correctness over reuse.** A stored entry is only ever an
//!   *optimization*; any doubt about an entry (bad header, wrong key,
//!   wrong length, wrong checksum, unreadable file) makes [`Store::get`]
//!   report a miss so the caller recomputes. Nothing in this crate can
//!   turn a corrupt file into a wrong verification verdict.
//! * **Atomic publication.** [`Store::put`] writes to a temporary file in
//!   the same directory and `rename`s it into place, so concurrent
//!   writers (parallel workers, multiple daemon clients, unrelated
//!   processes) can race on the same key and readers still only ever see
//!   a complete entry. Last writer wins; both wrote the same content by
//!   construction of the key.
//! * **Bounded size.** [`Store::gc`] applies an LRU eviction policy
//!   (entry count and/or total bytes); [`Store::get`] refreshes an
//!   entry's modification time on hit so recently useful cells survive.
//!   It also reclaims the temporary file of a `put` whose writer died
//!   before the rename, once that file is older than [`ORPHAN_GRACE`].
//!
//! The entry format is a single self-checking file:
//!
//! ```text
//! stbus-cache/1 <key> <payload-byte-length> <fnv64-of-payload>\n
//! <payload bytes>
//! ```
//!
//! The header pins the schema, the key the entry claims to answer for,
//! and a checksum over the payload; truncation, bit-rot and foreign files
//! all fail validation and read as misses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

/// How old a `put`'s temporary file must be before [`Store::gc`] treats
/// it as orphaned by a killed writer and removes it. A live `put` holds
/// its temp file for the length of one write, so an hour separates the
/// two cases with a wide margin, also across processes sharing a root.
pub const ORPHAN_GRACE: Duration = Duration::from_secs(60 * 60);

/// Schema tag leading every entry file; bumping it invalidates every
/// existing entry (they fail header validation and read as misses).
pub const ENTRY_SCHEMA: &str = "stbus-cache/1";

/// A content key: 32 lowercase hex digits of FNV-1a-128 over the ordered
/// identity parts.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Key(String);

impl Key {
    /// Derives the key of an ordered part list.
    ///
    /// Parts are joined with a `0x1f` unit separator before hashing, so
    /// `["ab", "c"]` and `["a", "bc"]` produce different keys. The hash
    /// is pure FNV-1a-128 over the bytes — no pointers, no container
    /// iteration order, no per-process state — so the same parts give
    /// the same key in any process on any host.
    pub fn from_parts<I, S>(parts: I) -> Key
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        const BASIS: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
        const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
        let mut hash = BASIS;
        for part in parts {
            for byte in part.as_ref().bytes() {
                hash ^= u128::from(byte);
                hash = hash.wrapping_mul(PRIME);
            }
            hash ^= 0x1f;
            hash = hash.wrapping_mul(PRIME);
        }
        Key(format!("{hash:032x}"))
    }

    /// The hex form.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// FNV-1a 64-bit over raw bytes — the payload checksum inside an entry.
pub fn fnv64(bytes: &[u8]) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = BASIS;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// What a [`Store::get`] found.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lookup {
    /// No entry file exists for the key.
    Miss,
    /// An entry file exists but failed validation (corrupt, truncated,
    /// foreign schema, or claiming a different key).
    Corrupt,
    /// The entry validated.
    Hit,
}

/// Eviction policy for [`Store::gc`]: entries beyond either bound are
/// removed oldest-first (by modification time, which [`Store::get`]
/// refreshes on hit — i.e. LRU).
#[derive(Clone, Copy, Debug, Default)]
pub struct GcPolicy {
    /// Keep at most this many entries (`None` = unbounded).
    pub max_entries: Option<usize>,
    /// Keep at most this many payload-file bytes (`None` = unbounded).
    pub max_bytes: Option<u64>,
}

/// What one [`Store::gc`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Entries examined.
    pub scanned: usize,
    /// Entries removed.
    pub evicted: usize,
    /// Bytes reclaimed.
    pub evicted_bytes: u64,
    /// Entries left after the pass.
    pub remaining: usize,
    /// Bytes left after the pass.
    pub remaining_bytes: u64,
    /// Orphaned temp files (older than [`ORPHAN_GRACE`]) removed.
    pub orphans: usize,
    /// Bytes those orphans held.
    pub orphan_bytes: u64,
}

/// Counter distinguishing temp files of concurrent `put`s in one process
/// (the pid distinguishes processes).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The on-disk store. Cloning shares the same root; the struct itself is
/// stateless, so clones are free and any number of threads or processes
/// may operate on one root concurrently.
#[derive(Clone, Debug)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// A store rooted at `root` (created lazily on first `put`).
    pub fn open(root: impl Into<PathBuf>) -> Store {
        Store { root: root.into() }
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The entry path of a key: sharded one level by the first two hex
    /// digits so huge stores don't put every entry in one directory.
    pub fn entry_path(&self, key: &Key) -> PathBuf {
        self.root.join(&key.as_str()[..2]).join(key.as_str())
    }

    /// Looks a key up. Returns the payload only if the entry passes full
    /// validation (schema, claimed key, length, checksum); any defect
    /// reads as a miss, with [`Lookup`] saying which kind. A hit
    /// best-effort refreshes the entry's modification time, making
    /// [`Store::gc`]'s oldest-first eviction an LRU.
    pub fn get(&self, key: &Key) -> (Lookup, Option<String>) {
        let path = self.entry_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => return (Lookup::Miss, None),
        };
        match decode_entry(&bytes, key) {
            Some(payload) => {
                // LRU touch; failure (read-only store, concurrent evict)
                // costs nothing but eviction precision.
                let _ = std::fs::File::options()
                    .append(true)
                    .open(&path)
                    .and_then(|f| f.set_modified(SystemTime::now()));
                (Lookup::Hit, Some(payload))
            }
            None => (Lookup::Corrupt, None),
        }
    }

    /// Publishes `payload` under `key`, atomically: the entry is written
    /// to a unique temporary file in the shard directory and renamed into
    /// place, so a reader never observes a partial entry and concurrent
    /// writers of the same key are safe (last rename wins).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (the caller treats the store as
    /// best-effort and continues uncached).
    pub fn put(&self, key: &Key, payload: &str) -> std::io::Result<()> {
        let path = self.entry_path(key);
        let dir = path.parent().expect("entry paths always have a shard dir");
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(
            ".tmp.{}.{}.{}",
            key.as_str(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(encode_entry(key, payload).as_bytes())?;
            file.sync_all()?;
        }
        let renamed = std::fs::rename(&tmp, &path);
        if renamed.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        renamed
    }

    /// Removes one entry (used by callers that detect a stale or corrupt
    /// entry and want it gone immediately rather than at the next GC).
    pub fn remove(&self, key: &Key) {
        let _ = std::fs::remove_file(self.entry_path(key));
    }

    /// Every entry file currently in the store as
    /// `(path, bytes, modified)`, skipping temp files. Corrupt entries
    /// are still listed — GC can reclaim them like any other.
    fn entries(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        self.files(false)
    }

    /// The files of every shard, temp files (`temp`) or entries (not
    /// `temp`), as `(path, bytes, modified)`.
    fn files(&self, temp: bool) -> Vec<(PathBuf, u64, SystemTime)> {
        let mut out = Vec::new();
        let Ok(shards) = std::fs::read_dir(&self.root) else {
            return out;
        };
        for shard in shards.flatten() {
            let Ok(files) = std::fs::read_dir(shard.path()) else {
                continue;
            };
            for file in files.flatten() {
                let name = file.file_name();
                if name.to_string_lossy().starts_with(".tmp.") != temp {
                    continue;
                }
                if let Ok(meta) = file.metadata() {
                    if meta.is_file() {
                        let modified = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                        out.push((file.path(), meta.len(), modified));
                    }
                }
            }
        }
        out
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes the temp files last modified more than [`ORPHAN_GRACE`]
    /// ago and returns how many it removed and the bytes they held. They
    /// belong to `put`s killed before their rename, which nothing else
    /// would ever reclaim. Younger ones may belong to a `put` still
    /// writing and are left alone. Entries are not looked at.
    pub fn sweep_orphans(&self) -> (usize, u64) {
        let now = SystemTime::now();
        let (mut orphans, mut orphan_bytes) = (0, 0);
        for (path, bytes, modified) in self.files(true) {
            let age = now.duration_since(modified).unwrap_or_default();
            if age > ORPHAN_GRACE && std::fs::remove_file(&path).is_ok() {
                orphans += 1;
                orphan_bytes += bytes;
            }
        }
        (orphans, orphan_bytes)
    }

    /// Applies `policy`, evicting oldest-modified entries first until both
    /// bounds hold. With an all-`None` policy this only reports sizes.
    /// Whatever the policy, it first runs [`Store::sweep_orphans`] and
    /// counts what that removed in [`GcStats::orphans`].
    pub fn gc(&self, policy: &GcPolicy) -> GcStats {
        let (orphans, orphan_bytes) = self.sweep_orphans();
        let mut entries = self.entries();
        entries.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let mut stats = GcStats {
            scanned: entries.len(),
            remaining: entries.len(),
            remaining_bytes: entries.iter().map(|e| e.1).sum(),
            orphans,
            orphan_bytes,
            ..GcStats::default()
        };
        let over = |s: &GcStats| {
            policy.max_entries.is_some_and(|m| s.remaining > m)
                || policy.max_bytes.is_some_and(|m| s.remaining_bytes > m)
        };
        for (path, bytes, _) in &entries {
            if !over(&stats) {
                break;
            }
            if std::fs::remove_file(path).is_ok() {
                stats.evicted += 1;
                stats.evicted_bytes += bytes;
                stats.remaining -= 1;
                stats.remaining_bytes -= bytes;
            }
        }
        stats
    }
}

fn encode_entry(key: &Key, payload: &str) -> String {
    let mut out = String::with_capacity(payload.len() + 80);
    out.push_str(ENTRY_SCHEMA);
    out.push(' ');
    out.push_str(key.as_str());
    out.push(' ');
    out.push_str(&payload.len().to_string());
    out.push(' ');
    out.push_str(&format!("{:016x}", fnv64(payload.as_bytes())));
    out.push('\n');
    out.push_str(payload);
    out
}

fn decode_entry(bytes: &[u8], key: &Key) -> Option<String> {
    let newline = bytes.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&bytes[..newline]).ok()?;
    let mut fields = header.split(' ');
    if fields.next()? != ENTRY_SCHEMA {
        return None;
    }
    if fields.next()? != key.as_str() {
        return None;
    }
    let len: usize = fields.next()?.parse().ok()?;
    let checksum = u64::from_str_radix(fields.next()?, 16).ok()?;
    if fields.next().is_some() {
        return None;
    }
    let payload = &bytes[newline + 1..];
    if payload.len() != len || fnv64(payload) != checksum {
        return None;
    }
    String::from_utf8(payload.to_vec()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("stbus-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(dir)
    }

    #[test]
    fn keys_are_stable_order_sensitive_and_boundary_safe() {
        let a = Key::from_parts(["config:x", "seed:1"]);
        // Same parts, fresh allocations: the key is a pure function of
        // the bytes, never of addresses or iteration order.
        let b = Key::from_parts([format!("config:{}", "x"), format!("seed:{}", 1)]);
        assert_eq!(a, b);
        assert_ne!(a, Key::from_parts(["seed:1", "config:x"]));
        assert_ne!(Key::from_parts(["ab", "c"]), Key::from_parts(["a", "bc"]));
        assert_eq!(a.as_str().len(), 32);
        // Golden vector: pins the FNV-1a-128 derivation across processes,
        // hosts and future refactors. Recompute only on a deliberate
        // schema bump.
        assert_eq!(
            Key::from_parts(["hello", "world"]).as_str(),
            "1cfadd34793dcc10296d9926f07eb4cd"
        );
        assert_eq!(
            Key::from_parts(Vec::<String>::new()).as_str(),
            "6c62272e07bb014262b821756295c58d"
        );
    }

    #[test]
    fn put_get_round_trips() {
        let store = temp_store("roundtrip");
        let key = Key::from_parts(["cell", "1"]);
        assert_eq!(store.get(&key), (Lookup::Miss, None));
        let payload = "line one\nline two\n{\"json\":true}\n";
        store.put(&key, payload).unwrap();
        assert_eq!(store.get(&key), (Lookup::Hit, Some(payload.to_owned())));
        // Overwrite with different content (e.g. a schema migration hole):
        // last write wins, still valid.
        store.put(&key, "other").unwrap();
        assert_eq!(store.get(&key), (Lookup::Hit, Some("other".to_owned())));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn empty_payload_round_trips() {
        let store = temp_store("empty");
        let key = Key::from_parts(["empty"]);
        store.put(&key, "").unwrap();
        assert_eq!(store.get(&key), (Lookup::Hit, Some(String::new())));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let store = temp_store("corrupt");
        let key = Key::from_parts(["cell", "2"]);
        store.put(&key, "precious result").unwrap();
        let path = store.entry_path(&key);

        // Truncation (lost tail).
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert_eq!(store.get(&key), (Lookup::Corrupt, None));

        // Bit flip in the payload.
        let mut flipped = full.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(store.get(&key), (Lookup::Corrupt, None));

        // Foreign schema.
        std::fs::write(&path, b"other-cache/9 x 1 0\nz").unwrap();
        assert_eq!(store.get(&key), (Lookup::Corrupt, None));

        // An entry claiming a different key (e.g. a mis-filed copy).
        let other = Key::from_parts(["cell", "3"]);
        store.put(&other, "other payload").unwrap();
        std::fs::copy(store.entry_path(&other), &path).unwrap();
        assert_eq!(store.get(&key), (Lookup::Corrupt, None));

        // Not even a header.
        std::fs::write(&path, b"garbage with no newline").unwrap();
        assert_eq!(store.get(&key), (Lookup::Corrupt, None));

        // Restoring the original bytes restores the hit.
        std::fs::write(&path, &full).unwrap();
        assert_eq!(
            store.get(&key),
            (Lookup::Hit, Some("precious result".to_owned()))
        );
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn leftover_temp_files_are_invisible() {
        let store = temp_store("tmpfiles");
        let key = Key::from_parts(["cell", "4"]);
        store.put(&key, "ok").unwrap();
        // Simulate a crashed writer: a temp file left in the shard dir.
        let shard = store.entry_path(&key);
        std::fs::write(shard.parent().unwrap().join(".tmp.dead.1.2"), b"junk").unwrap();
        assert_eq!(store.len(), 1);
        let stats = store.gc(&GcPolicy::default());
        assert_eq!(stats.scanned, 1);
        assert_eq!(stats.evicted, 0);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_evicts_oldest_first_until_bounds_hold() {
        let store = temp_store("gc");
        let keys: Vec<Key> = (0..5)
            .map(|i| Key::from_parts(["k", &i.to_string()]))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            store.put(key, &format!("payload {i}")).unwrap();
            // Stamp strictly increasing mtimes so LRU order is exact even
            // on coarse-timestamp filesystems.
            let t = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000 + i as u64);
            std::fs::File::options()
                .append(true)
                .open(store.entry_path(key))
                .unwrap()
                .set_modified(t)
                .unwrap();
        }
        // A get refreshes the oldest entry's mtime, protecting it.
        assert_eq!(store.get(&keys[0]).0, Lookup::Hit);
        let stats = store.gc(&GcPolicy {
            max_entries: Some(2),
            max_bytes: None,
        });
        assert_eq!(stats.scanned, 5);
        assert_eq!(stats.evicted, 3);
        assert_eq!(stats.remaining, 2);
        // keys 1 and 2 were the oldest after the touch; 0 survived via LRU.
        assert_eq!(store.get(&keys[0]).0, Lookup::Hit);
        assert_eq!(store.get(&keys[1]).0, Lookup::Miss);
        assert_eq!(store.get(&keys[2]).0, Lookup::Miss);
        assert_eq!(store.get(&keys[3]).0, Lookup::Miss);
        assert_eq!(store.get(&keys[4]).0, Lookup::Hit);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_byte_bound_reclaims_space() {
        let store = temp_store("gcbytes");
        for i in 0..4 {
            let key = Key::from_parts(["b", &i.to_string()]);
            store.put(&key, &"x".repeat(1000)).unwrap();
            let t = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(2_000 + i);
            std::fs::File::options()
                .append(true)
                .open(store.entry_path(&key))
                .unwrap()
                .set_modified(t)
                .unwrap();
        }
        let stats = store.gc(&GcPolicy {
            max_entries: None,
            max_bytes: Some(2_200),
        });
        assert_eq!(stats.evicted, 2);
        assert!(stats.remaining_bytes <= 2_200);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn concurrent_writers_of_one_key_never_corrupt_it() {
        let store = temp_store("race");
        let key = Key::from_parts(["contested"]);
        let payload = "the one true result ".repeat(200);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let store = store.clone();
                let key = key.clone();
                let payload = payload.clone();
                scope.spawn(move || {
                    for _ in 0..20 {
                        store.put(&key, &payload).unwrap();
                        let (lookup, got) = store.get(&key);
                        assert_eq!(lookup, Lookup::Hit);
                        assert_eq!(got.as_deref(), Some(payload.as_str()));
                    }
                });
            }
        });
        let _ = std::fs::remove_dir_all(store.root());
    }
}
