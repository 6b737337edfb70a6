//! Fault injection: a `put` killed between writing its temporary file
//! and renaming it into place. The store must read the key as a miss,
//! never count the orphaned temp file as an entry, leave it alone while
//! it may still belong to a live writer, reclaim it once it is older than
//! [`ORPHAN_GRACE`], and accept the next `put` of the same key as if
//! nothing had happened.

use stbus_cache::{GcPolicy, Key, Lookup, Store, ORPHAN_GRACE};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

fn temp_root(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("stbus-cache-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn put_killed_before_its_rename_leaves_a_miss_and_the_next_put_hits() {
    let store = Store::open(temp_root("killed-put"));
    let key = Key::from_parts(["cell", "killed"]);
    let payload = "the result the killed writer never published";

    // What the killed writer left behind: the complete entry (taken
    // from a put into a scratch store) under the temp name `put` uses,
    // `.tmp.<key>.<pid>.<seq>`, in the key's shard directory.
    let scratch = Store::open(temp_root("killed-put-scratch"));
    scratch.put(&key, payload).unwrap();
    let entry = std::fs::read(scratch.entry_path(&key)).unwrap();
    let _ = std::fs::remove_dir_all(scratch.root());
    let shard = store.entry_path(&key).parent().unwrap().to_path_buf();
    std::fs::create_dir_all(&shard).unwrap();
    let orphan = shard.join(format!(".tmp.{}.4242.0", key.as_str()));
    std::fs::write(&orphan, &entry).unwrap();

    // The key was never published: a plain miss, not a corrupt entry.
    assert_eq!(store.get(&key), (Lookup::Miss, None));
    // Neither `len` nor `gc` sees the fresh temp file, even under a
    // policy that would evict every entry.
    assert_eq!(store.len(), 0);
    assert!(store.is_empty());
    let gc = store.gc(&GcPolicy {
        max_entries: Some(0),
        max_bytes: Some(0),
    });
    assert_eq!((gc.scanned, gc.evicted, gc.orphans), (0, 0, 0));
    assert!(orphan.exists(), "gc must not touch a fresh temp file");

    // The next writer of the key publishes normally and reads back.
    store.put(&key, payload).unwrap();
    assert_eq!(store.get(&key), (Lookup::Hit, Some(payload.to_owned())));
    assert_eq!(store.len(), 1);

    let _ = std::fs::remove_dir_all(store.root());
}

/// Sets a file's modification time `age` into the past.
fn age(path: &Path, age: Duration) {
    let file = std::fs::File::options().write(true).open(path).unwrap();
    file.set_modified(SystemTime::now() - age).unwrap();
}

#[test]
fn gc_reclaims_an_orphan_older_than_the_grace_and_keeps_a_fresh_one() {
    let store = Store::open(temp_root("orphan-grace"));
    let key = Key::from_parts(["cell", "published"]);
    store.put(&key, "kept").unwrap();
    let shard = store.entry_path(&key).parent().unwrap().to_path_buf();
    let junk = b"half an entry from a killed writer";
    let stale = shard.join(format!(".tmp.{}.4242.0", key.as_str()));
    let fresh = shard.join(format!(".tmp.{}.4242.1", key.as_str()));
    std::fs::write(&stale, junk).unwrap();
    std::fs::write(&fresh, junk).unwrap();
    age(&stale, ORPHAN_GRACE + Duration::from_secs(60));
    age(&fresh, ORPHAN_GRACE / 2);

    // An all-`None` policy evicts no entry, but the stale orphan goes.
    let gc = store.gc(&GcPolicy::default());
    assert_eq!((gc.scanned, gc.evicted, gc.remaining), (1, 0, 1));
    assert_eq!((gc.orphans, gc.orphan_bytes), (1, junk.len() as u64));
    assert!(!stale.exists(), "an orphan past the grace is reclaimed");
    assert!(fresh.exists(), "a temp file within the grace may be live");
    assert_eq!(store.get(&key), (Lookup::Hit, Some("kept".to_owned())));

    // Nothing left to reclaim on the next pass.
    let again = store.gc(&GcPolicy::default());
    assert_eq!(again.orphans, 0);
    assert!(fresh.exists());

    let _ = std::fs::remove_dir_all(store.root());
}
