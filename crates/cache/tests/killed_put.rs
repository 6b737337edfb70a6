//! Fault injection: a `put` killed between writing its temporary file
//! and renaming it into place. The store must read the key as a miss,
//! never count or evict the orphaned temp file, and accept the next
//! `put` of the same key as if nothing had happened.

use stbus_cache::{GcPolicy, Key, Lookup, Store};
use std::path::PathBuf;

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
    // Neither `len` nor `gc` sees the temp file, even under a policy
    // that would evict every entry.
    assert_eq!(store.len(), 0);
    assert!(store.is_empty());
    let gc = store.gc(&GcPolicy {
        max_entries: Some(0),
        max_bytes: Some(0),
    });
    assert_eq!((gc.scanned, gc.evicted), (0, 0));
    assert!(orphan.exists(), "gc must not touch a temp file");

    // The next writer of the key publishes normally and reads back.
    store.put(&key, payload).unwrap();
    assert_eq!(store.get(&key), (Lookup::Hit, Some(payload.to_owned())));
    assert_eq!(store.len(), 1);

    let _ = std::fs::remove_dir_all(store.root());
}
