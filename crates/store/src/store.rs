//! The on-disk, content-addressed artifact store.
//!
//! # Object keys
//!
//! One object per `(function, configuration, binary context)` triple.
//! The object file name is the hex SHA-256 of
//!
//! ```text
//! "hgl-store-key" ‖ schema version ‖ fingerprint bytes ‖ binctx hash ‖ entry
//! ```
//!
//! where the *fingerprint bytes* are the canonical
//! [`Fingerprint`](hgl_core::Fingerprint) encoding (crate versions plus
//! every lifting knob) and the *binctx hash* digests the binary's
//! segment layout (address, length, permission flags) and its external
//! map — everything that shapes a per-function lift besides the
//! function's own bytes. Symbols are deliberately excluded: they only
//! steer root discovery, never the artifact of a given entry.
//!
//! # Object payload
//!
//! ```text
//! magic ‖ schema version ‖ fingerprint digest ‖ entry
//!       ‖ content hash ‖ artifact blob ‖ SHA-256(everything above)
//! ```
//!
//! The *content hash* digests the bytes the lift actually read from the
//! image (decoded instruction extent plus constant/jump-table reads),
//! so editing any byte the function depends on invalidates exactly the
//! functions that read it. The trailing whole-payload checksum detects
//! every torn write, truncation or bit flip before the decoder runs.
//!
//! # Degradation contract
//!
//! Every failure mode — missing file, bad checksum, version skew,
//! stale content hash, malformed blob, failed `verify` replay — maps to
//! `None` from [`Store::lookup`] (counted as a miss or invalidation),
//! never to a wrong artifact and never to a panic. The engine then
//! simply re-lifts. The fault-injection campaign in
//! `tests/corruption.rs` flips bits at every byte offset and asserts
//! exactly this.

use crate::codec::{decode_fn_lift, encode_fn_lift};
use crate::sha256::{hex, sha256, Sha256};
use hgl_core::lift::FnLift;
use hgl_core::{ArtifactStore, Fingerprint, StoreStats, ARTIFACT_SCHEMA_VERSION};
use hgl_elf::Binary;
use hgl_export::{validate_lift, ValidateConfig};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Leading payload magic; the trailing byte is the container version,
/// bumped on any layout change (schema evolution of the *artifact*
/// encoding itself is covered by [`ARTIFACT_SCHEMA_VERSION`]).
const MAGIC: &[u8; 12] = b"hgl-store\x00\x00\x01";

/// Key-derivation domain separator.
const KEY_MAGIC: &[u8] = b"hgl-store-key";

/// Store behaviour knobs.
#[derive(Debug, Clone, Default)]
pub struct StoreOptions {
    /// Maximum number of objects kept on disk; inserting past the cap
    /// evicts the oldest objects (by modification time). `None` means
    /// unbounded.
    pub capacity: Option<usize>,
    /// Replay every hit through the `hgl-export` differential checker
    /// before returning it (the CLI's `--store-verify`). A replay
    /// counterexample demotes the hit to an invalidation.
    pub verify: bool,
}

/// Sampling configuration for `verify` replays: lighter than the
/// validator's default, because it runs on every store hit.
const VERIFY_CONFIG: ValidateConfig =
    ValidateConfig { samples_per_edge: 4, sample_attempts: 32, seed: 0x5eed };

/// A persistent, content-addressed store of per-function lift
/// artifacts rooted at one directory.
pub struct Store {
    dir: PathBuf,
    options: StoreOptions,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
    tmp_swept: AtomicU64,
    write_retries: AtomicU64,
    write_failures: AtomicU64,
    /// Per-process sequence for unique temp-file names, so two threads
    /// publishing the same object never share a temp path.
    tmp_seq: AtomicU64,
    /// Test-only fault injection: the next N publish attempts fail as
    /// if the filesystem returned a transient error.
    injected_write_faults: AtomicU64,
}

/// How many times a publish is attempted before being abandoned.
const PUBLISH_ATTEMPTS: u32 = 3;

/// Backoff before retry `n` (1-based): 2ms, then 8ms.
fn publish_backoff(attempt: u32) -> std::time::Duration {
    std::time::Duration::from_millis(2u64 << (2 * (attempt - 1)))
}

impl Store {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Store> {
        Store::open_with(dir, StoreOptions::default())
    }

    /// Open with explicit [`StoreOptions`].
    ///
    /// Opening garbage-collects orphaned temp files: a process that
    /// died between tmp write and rename leaves a `*.tmp*` file behind,
    /// which no surviving process will ever rename. Published `.hgs`
    /// objects are never touched by the sweep. (A temp file belonging
    /// to a *concurrently live* writer in another process could in
    /// principle be swept too; that writer's publish then fails and is
    /// retried or abandoned — degrading to a recompute, never to a
    /// wrong artifact.)
    pub fn open_with(dir: impl AsRef<Path>, options: StoreOptions) -> io::Result<Store> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let swept = sweep_orphaned_tmp(&dir);
        Ok(Store {
            dir,
            options,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            tmp_swept: AtomicU64::new(swept),
            write_retries: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
            injected_write_faults: AtomicU64::new(0),
        })
    }

    /// Arms test-only fault injection: the next `n` publish attempts
    /// fail as if the filesystem returned a transient error (EIO).
    /// Used by the resilience regression tests; a production store
    /// never calls this.
    #[doc(hidden)]
    pub fn inject_write_faults(&self, n: u64) {
        self.injected_write_faults.store(n, Ordering::Relaxed);
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of objects currently on disk (0 if the directory became
    /// unreadable).
    pub fn object_count(&self) -> usize {
        self.objects().len()
    }

    fn objects(&self) -> Vec<PathBuf> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return Vec::new() };
        entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "hgs"))
            .collect()
    }

    /// The object path for `(binary, fingerprint, entry)`.
    pub fn object_path(&self, binary: &Binary, fingerprint: &Fingerprint, entry: u64) -> PathBuf {
        let mut h = Sha256::new();
        h.update(KEY_MAGIC);
        h.update(&ARTIFACT_SCHEMA_VERSION.to_le_bytes());
        h.update(fingerprint.bytes());
        h.update(&binctx_hash(binary));
        h.update(&entry.to_le_bytes());
        self.dir.join(format!("{}.hgs", hex(&h.finish())))
    }

    /// Digest the image bytes at the artifact's recorded footprint.
    /// `None` if any recorded range is no longer readable (segment
    /// shrunk or moved) — an invalidation.
    fn content_hash(
        binary: &Binary,
        extent: &BTreeSet<(u64, u8)>,
        image_reads: &BTreeSet<(u64, u8)>,
    ) -> Option<[u8; 32]> {
        let mut h = Sha256::new();
        for (addr, len) in extent.iter().chain(image_reads.iter()) {
            h.update(&addr.to_le_bytes());
            h.update(&[*len]);
            h.update(binary.read(*addr, *len as u64)?);
        }
        Some(h.finish())
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Evict oldest objects (by mtime) until the count respects the
    /// capacity.
    fn enforce_capacity(&self) {
        let Some(cap) = self.options.capacity else { return };
        let mut objects: Vec<(std::time::SystemTime, PathBuf)> = self
            .objects()
            .into_iter()
            .filter_map(|p| {
                let mtime = std::fs::metadata(&p).and_then(|m| m.modified()).ok()?;
                Some((mtime, p))
            })
            .collect();
        if objects.len() <= cap {
            return;
        }
        objects.sort();
        for (_, path) in objects.iter().take(objects.len() - cap) {
            if std::fs::remove_file(path).is_ok() {
                Self::bump(&self.evictions);
            }
        }
    }
}

/// Removes every `*.tmp*` file under `dir`, returning how many were
/// collected. Valid objects use the `.hgs` extension and are never
/// matched.
fn sweep_orphaned_tmp(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    let mut swept = 0;
    for path in entries.filter_map(|e| e.ok()).map(|e| e.path()) {
        let is_tmp = path
            .extension()
            .and_then(|x| x.to_str())
            .is_some_and(|x| x.starts_with("tmp"));
        if is_tmp && std::fs::remove_file(&path).is_ok() {
            swept += 1;
        }
    }
    swept
}

/// Digest of the binary's segment layout and external map — the
/// whole-binary context a per-function artifact depends on.
fn binctx_hash(binary: &Binary) -> [u8; 32] {
    let mut h = Sha256::new();
    for seg in &binary.segments {
        h.update(&seg.vaddr.to_le_bytes());
        h.update(&(seg.bytes.len() as u64).to_le_bytes());
        h.update(&[seg.flags.r as u8, seg.flags.w as u8, seg.flags.x as u8]);
    }
    h.update(&(binary.externals.len() as u64).to_le_bytes());
    for (addr, name) in &binary.externals {
        h.update(&addr.to_le_bytes());
        h.update(&(name.len() as u64).to_le_bytes());
        h.update(name.as_bytes());
    }
    h.finish()
}

impl ArtifactStore for Store {
    fn lookup(&self, binary: &Binary, fingerprint: &Fingerprint, entry: u64) -> Option<FnLift> {
        let path = self.object_path(binary, fingerprint, entry);
        let Ok(payload) = std::fs::read(&path) else {
            Self::bump(&self.misses);
            return None;
        };
        let invalid = || {
            Self::bump(&self.invalidations);
            None
        };
        // 1. Whole-payload checksum: any torn write / truncation / bit
        //    flip fails here, before any structure is interpreted.
        if payload.len() < 32 {
            return invalid();
        }
        let (body, recorded) = payload.split_at(payload.len() - 32);
        if sha256(body) != *<&[u8; 32]>::try_from(recorded).expect("split is 32 bytes") {
            return invalid();
        }
        // 2. Container header: magic, versions, identity.
        let header_len = MAGIC.len() + 4 + 8 + 8 + 32;
        if body.len() < header_len || &body[..MAGIC.len()] != MAGIC {
            return invalid();
        }
        let mut at = MAGIC.len();
        let take = |at: &mut usize, n: usize| {
            let s = &body[*at..*at + n];
            *at += n;
            s
        };
        let schema = u32::from_le_bytes(take(&mut at, 4).try_into().expect("4 bytes"));
        let fp_digest = u64::from_le_bytes(take(&mut at, 8).try_into().expect("8 bytes"));
        let stored_entry = u64::from_le_bytes(take(&mut at, 8).try_into().expect("8 bytes"));
        let recorded_content: [u8; 32] = take(&mut at, 32).try_into().expect("32 bytes");
        if schema != ARTIFACT_SCHEMA_VERSION
            || fp_digest != fingerprint.digest64()
            || stored_entry != entry
        {
            return invalid();
        }
        // 3. Artifact blob (panic-free decoder).
        let Ok(lift) = decode_fn_lift(&body[at..], binary) else {
            return invalid();
        };
        if lift.entry != entry {
            return invalid();
        }
        // 4. Content hash over the *current* binary bytes: the artifact
        //    is valid only if every byte it depends on is unchanged.
        if Self::content_hash(binary, &lift.extent, &lift.image_reads) != Some(recorded_content) {
            return invalid();
        }
        // 5. Optional differential replay (`--store-verify`).
        if self.options.verify {
            let mut result = hgl_core::LiftResult::default();
            result.functions.insert(entry, lift.clone());
            let report = validate_lift(binary, &result, &VERIFY_CONFIG);
            if !report.all_proven() {
                return invalid();
            }
        }
        Self::bump(&self.hits);
        Some(lift)
    }

    fn insert(&self, binary: &Binary, fingerprint: &Fingerprint, lift: &FnLift) {
        // Refuse artifacts we could not re-validate on load.
        let Some(content) = Self::content_hash(binary, &lift.extent, &lift.image_reads) else {
            return;
        };
        if !lift.is_storable() {
            return;
        }
        let mut body = Vec::new();
        body.extend_from_slice(MAGIC);
        body.extend_from_slice(&ARTIFACT_SCHEMA_VERSION.to_le_bytes());
        body.extend_from_slice(&fingerprint.digest64().to_le_bytes());
        body.extend_from_slice(&lift.entry.to_le_bytes());
        body.extend_from_slice(&content);
        body.extend_from_slice(&encode_fn_lift(lift));
        let checksum = sha256(&body);
        body.extend_from_slice(&checksum);

        // Atomic publish: write a temp file, then rename. A concurrent
        // reader sees either the old object or the new one, never a
        // torn write (and a torn temp file fails its checksum anyway).
        // Transient I/O errors (EIO, ENOSPC, a swept temp file) are
        // retried with backoff; a publish that still fails is abandoned
        // silently — the artifact is simply recomputed by the next
        // lift, which is always sound.
        let path = self.object_path(binary, fingerprint, lift.entry);
        let mut ok = false;
        for attempt in 1..=PUBLISH_ATTEMPTS {
            if attempt > 1 {
                Self::bump(&self.write_retries);
                std::thread::sleep(publish_backoff(attempt - 1));
            }
            let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
            let tmp = path.with_extension(format!("tmp{}-{}", std::process::id(), seq));
            let injected = {
                let n = &self.injected_write_faults;
                n.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                    .is_ok()
            };
            if !injected && std::fs::write(&tmp, &body).is_ok() && std::fs::rename(&tmp, &path).is_ok()
            {
                ok = true;
                break;
            }
            let _ = std::fs::remove_file(&tmp);
        }
        if ok {
            Self::bump(&self.inserts);
            self.enforce_capacity();
        } else {
            Self::bump(&self.write_failures);
        }
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            tmp_swept: self.tmp_swept.load(Ordering::Relaxed),
            write_retries: self.write_retries.load(Ordering::Relaxed),
            write_failures: self.write_failures.load(Ordering::Relaxed),
        }
    }
}
