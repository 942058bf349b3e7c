//! Durable retention: BP spill segments, the checksummed manifest that
//! names them, and per-group durable cursors.
//!
//! Layout under `<spill_dir>/<stream>/`:
//!
//! ```text
//! step-0000000000.bp   one BP container per sealed step
//! step-0000000000.ck   "FXPS1 seq=<n> label=<l> payload=<fnv hex> ck=<fnv hex>"
//! MANIFEST             "FXPM1 tail=<n> eos=<0|1> ck=<fnv hex>"
//! cursor-<group>.cur   "FXPC1 next=<n> ck=<fnv hex>"
//! ```
//!
//! The `.ck` sidecar binds a segment to its sequence number, step label
//! and payload hash, so a swapped-in segment (valid BP bytes, wrong
//! position) is rejected as corrupt instead of replaying wrong data.
//!
//! Every file is written to a `.tmp` sibling and atomically renamed, and
//! the step file always lands **before** the manifest that makes it
//! visible — so `cursor < tail` implies the segment is readable. A torn
//! or corrupt cursor is treated as absent (at-least-once: the group
//! replays from the start rather than skipping); a corrupt segment or
//! manifest surfaces as [`StreamError::Corrupt`] — never as wrong-data
//! replay.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use adios::bp::{BpBuilder, BpFile};
use evpath::{fnv1a64, FNV_OFFSET};

use super::log::SealedStep;
use super::{GroupCounters, Qos};
use crate::context::StreamError;

const MANIFEST_TAG: &str = "FXPM1";
const CURSOR_TAG: &str = "FXPC1";
const SEGMENT_TAG: &str = "FXPS1";

/// Parsed spill manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Steps `[0, tail)` are durable and readable.
    pub tail: u64,
    /// The writer closed cleanly; no further steps will appear.
    pub eos: bool,
}

/// The on-disk side of a stream's retention: writes sealed steps as BP
/// segments and tracks them through a checksummed manifest.
pub struct SpillStore {
    dir: PathBuf,
}

impl SpillStore {
    /// Create (or reuse) the spill directory for `stream` under `root`.
    pub fn create(root: &Path, stream: &str) -> Result<SpillStore, StreamError> {
        let dir = root.join(sanitize(stream));
        std::fs::create_dir_all(&dir)
            .map_err(|e| StreamError::Directory(format!("create spill dir: {e}")))?;
        Ok(SpillStore { dir })
    }

    /// Open an existing spill directory without creating it (the
    /// cross-process tail side).
    pub fn open(root: &Path, stream: &str) -> SpillStore {
        SpillStore { dir: root.join(sanitize(stream)) }
    }

    /// The stream's spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn step_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("step-{seq:010}.bp"))
    }

    fn sidecar_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("step-{seq:010}.ck"))
    }

    /// Persist one sealed step as a BP segment named by its sequence
    /// number, plus the `.ck` sidecar binding seq ↔ label ↔ payload.
    /// Returns bytes written.
    pub fn write_step(&self, sealed: &SealedStep) -> Result<u64, StreamError> {
        let builder = BpBuilder::new();
        for g in sealed.groups.iter() {
            builder.append(g.clone());
        }
        let bytes = builder.build();
        let body = format!(
            "{SEGMENT_TAG} seq={} label={} payload={:016x}",
            sealed.seq,
            sealed.step,
            fnv1a64(FNV_OFFSET, &bytes)
        );
        let line = format!("{body} ck={:016x}\n", fnv1a64(FNV_OFFSET, body.as_bytes()));
        write_atomic(&self.sidecar_path(sealed.seq), line.as_bytes())?;
        write_atomic(&self.step_path(sealed.seq), &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Read one spilled step back by sequence number. Any mismatch — a
    /// missing segment the manifest promised, an unparsable container, a
    /// payload that fails its sidecar hash, or a segment bound to a
    /// different sequence number — is [`StreamError::Corrupt`], never
    /// wrong-data replay.
    pub fn read_step(&self, seq: u64) -> Result<Arc<SealedStep>, StreamError> {
        let path = self.step_path(seq);
        let corrupt =
            |what: &str| StreamError::Corrupt(format!("spill segment {}: {what}", path.display()));
        let (side_seq, label, payload_ck) = self.read_sidecar(seq)?;
        if side_seq != seq {
            return Err(corrupt("sidecar bound to a different sequence number"));
        }
        let bytes =
            std::fs::read(&path).map_err(|e| corrupt(&format!("unreadable segment: {e}")))?;
        if fnv1a64(FNV_OFFSET, &bytes) != payload_ck {
            return Err(corrupt("payload hash mismatch"));
        }
        let file = BpFile::parse(&bytes).map_err(|e| corrupt(&e.to_string()))?;
        let groups = file.into_groups();
        if groups.is_empty() || groups.iter().any(|g| g.step != label) {
            return Err(corrupt("groups disagree with the sidecar step label"));
        }
        Ok(Arc::new(SealedStep { seq, step: label, groups: Arc::new(groups) }))
    }

    /// Parse a segment's `.ck` sidecar → `(seq, label, payload hash)`.
    fn read_sidecar(&self, seq: u64) -> Result<(u64, u64, u64), StreamError> {
        let path = self.sidecar_path(seq);
        let corrupt =
            |what: &str| StreamError::Corrupt(format!("spill sidecar {}: {what}", path.display()));
        let raw =
            std::fs::read_to_string(&path).map_err(|e| corrupt(&format!("unreadable: {e}")))?;
        let line = raw.trim_end();
        let (body, ck) = line.rsplit_once(" ck=").ok_or_else(|| corrupt("no checksum"))?;
        if u64::from_str_radix(ck, 16) != Ok(fnv1a64(FNV_OFFSET, body.as_bytes())) {
            return Err(corrupt("checksum mismatch"));
        }
        let mut fields = body.split(' ');
        if fields.next() != Some(SEGMENT_TAG) {
            return Err(corrupt("bad tag"));
        }
        let side_seq = field_u64(fields.next(), "seq=").ok_or_else(|| corrupt("bad seq"))?;
        let label = field_u64(fields.next(), "label=").ok_or_else(|| corrupt("bad label"))?;
        let payload = fields
            .next()
            .and_then(|f| f.strip_prefix("payload="))
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| corrupt("bad payload hash"))?;
        Ok((side_seq, label, payload))
    }

    /// Publish the manifest: steps `[0, tail)` durable, plus the EOS mark.
    pub fn write_manifest(&self, tail: u64, eos: bool) -> Result<(), StreamError> {
        let body = format!("{MANIFEST_TAG} tail={tail} eos={}", u8::from(eos));
        let line = format!("{body} ck={:016x}\n", fnv1a64(FNV_OFFSET, body.as_bytes()));
        write_atomic(&self.dir.join("MANIFEST"), line.as_bytes())
    }

    /// Read the manifest. `Ok(None)` when it does not exist yet (no step
    /// sealed); a torn or checksum-failing manifest is `Corrupt`.
    pub fn read_manifest(&self) -> Result<Option<Manifest>, StreamError> {
        let raw = match std::fs::read_to_string(self.dir.join("MANIFEST")) {
            Ok(s) => s,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StreamError::Directory(format!("read manifest: {e}"))),
        };
        let corrupt = || StreamError::Corrupt(format!("spill manifest: {raw:?}"));
        let line = raw.trim_end();
        let (body, ck) = line.rsplit_once(" ck=").ok_or_else(corrupt)?;
        if u64::from_str_radix(ck, 16) != Ok(fnv1a64(FNV_OFFSET, body.as_bytes())) {
            return Err(corrupt());
        }
        let mut fields = body.split(' ');
        if fields.next() != Some(MANIFEST_TAG) {
            return Err(corrupt());
        }
        let tail = field_u64(fields.next(), "tail=").ok_or_else(corrupt)?;
        let eos = field_u64(fields.next(), "eos=").ok_or_else(corrupt)? != 0;
        Ok(Some(Manifest { tail, eos }))
    }

    fn cursor_path(&self, group: &str) -> PathBuf {
        self.dir.join(format!("cursor-{}.cur", sanitize(group)))
    }

    /// Persist a group's committed cursor. Best-effort: a failed write
    /// only costs redelivery, which at-least-once permits.
    pub fn write_cursor(&self, group: &str, next: u64) {
        let body = format!("{CURSOR_TAG} next={next}");
        let line = format!("{body} ck={:016x}\n", fnv1a64(FNV_OFFSET, body.as_bytes()));
        let _ = write_atomic(&self.cursor_path(group), line.as_bytes());
    }

    /// Read a group's durable cursor. Absent, torn, or corrupt cursors
    /// all read as `None` — the group replays from the start, the safe
    /// direction under at-least-once delivery.
    pub fn read_cursor(&self, group: &str) -> Option<u64> {
        let raw = std::fs::read_to_string(self.cursor_path(group)).ok()?;
        let line = raw.trim_end();
        let (body, ck) = line.rsplit_once(" ck=")?;
        if u64::from_str_radix(ck, 16) != Ok(fnv1a64(FNV_OFFSET, body.as_bytes())) {
            return None;
        }
        let mut fields = body.split(' ');
        if fields.next() != Some(CURSOR_TAG) {
            return None;
        }
        field_u64(fields.next(), "next=")
    }
}

fn field_u64(field: Option<&str>, prefix: &str) -> Option<u64> {
    field?.strip_prefix(prefix)?.parse().ok()
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect()
}

fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StreamError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| StreamError::Directory(format!("spill write {}: {e}", path.display())))
}

/// The cross-process face of a stream's retention: a reader group in
/// another process (or a group restarted after `kill -9`) tails the
/// spill directory directly — manifest names the durable steps, segments
/// hold the data, and the group's own durable cursor says where to
/// resume. The same memory → spill → live-tail cursor semantics as the
/// in-process [`super::StreamLog`], mediated entirely by files.
pub struct SpillTail {
    store: SpillStore,
    group: String,
    qos: Qos,
    cursor: u64,
    counters: Arc<GroupCounters>,
}

impl SpillTail {
    /// Attach a group to the spill directory of `stream` under `root`,
    /// resuming from the group's durable cursor when one is retained.
    pub fn attach(
        root: &Path,
        stream: &str,
        group: &str,
        qos: Qos,
    ) -> Result<SpillTail, StreamError> {
        let store = SpillStore::open(root, stream);
        let counters = Arc::<GroupCounters>::default();
        let manifest = store.read_manifest()?;
        let tail = manifest.map_or(0, |m| m.tail);
        let cursor = match qos {
            Qos::LatestOnly => tail,
            Qos::Lossless => match store.read_cursor(group) {
                Some(durable) => {
                    let resumed = durable.min(tail);
                    counters.resumed_from.store(resumed, std::sync::atomic::Ordering::Relaxed);
                    resumed
                }
                None => 0,
            },
        };
        counters.lag_steps.store(tail.saturating_sub(cursor), std::sync::atomic::Ordering::Relaxed);
        Ok(SpillTail { store, group: group.to_string(), qos, cursor, counters })
    }

    /// Shared delivery counters.
    pub fn counters(&self) -> Arc<GroupCounters> {
        Arc::clone(&self.counters)
    }

    /// One non-blocking poll, mirroring `StreamLog::try_fetch`.
    pub fn try_fetch(&mut self) -> Result<super::Fetch, StreamError> {
        use std::sync::atomic::Ordering;
        let manifest = self.store.read_manifest()?;
        let (tail, eos) = manifest.map_or((0, false), |m| (m.tail, m.eos));
        if self.cursor >= tail {
            if !eos {
                return Ok(super::Fetch::Pending);
            }
            return Ok(super::Fetch::Eos { clean: true });
        }
        match self.qos {
            Qos::LatestOnly => {
                let target = tail - 1;
                let dropped = target - self.cursor;
                if dropped > 0 {
                    self.counters.dropped_by_qos.fetch_add(dropped, Ordering::Relaxed);
                }
                let step = self.store.read_step(target)?;
                self.cursor = tail;
                self.counters.lag_steps.store(0, Ordering::Relaxed);
                self.counters.replayed_from_spill.fetch_add(1, Ordering::Relaxed);
                self.counters.delivered.fetch_add(1, Ordering::Relaxed);
                if dropped > 0 {
                    Ok(super::Fetch::Skipped { dropped, step })
                } else {
                    Ok(super::Fetch::Spilled(step))
                }
            }
            Qos::Lossless => {
                let step = self.store.read_step(self.cursor)?;
                self.counters.replayed_from_spill.fetch_add(1, Ordering::Relaxed);
                self.counters.delivered.fetch_add(1, Ordering::Relaxed);
                self.counters.lag_steps.store(tail - self.cursor - 1, Ordering::Relaxed);
                Ok(super::Fetch::Spilled(step))
            }
        }
    }

    /// Acknowledge delivery up to (excluding) `next`; lossless cursors
    /// are written through to the durable cursor file.
    pub fn commit(&mut self, next: u64) {
        if next <= self.cursor && self.qos == Qos::Lossless {
            return;
        }
        self.cursor = self.cursor.max(next);
        if self.qos == Qos::Lossless {
            self.store.write_cursor(&self.group, self.cursor);
        }
    }
}
