//! The filesystem spool: one directory per job, no network anywhere.
//!
//! Layout under the spool root (`evogame-cli serve --spool DIR`):
//!
//! ```text
//! <spool>/<job id>/status.json      current JobStatus (rewritten on change)
//! <spool>/<job id>/records.jsonl    generation records, streamed as produced
//! <spool>/<job id>/receipt.json     final Receipt (written once, on completion)
//! <spool>/<job id>/checkpoint.json  latest restartable checkpoint
//! ```
//!
//! Job ids are validated path-safe (`[A-Za-z0-9._-]+`) at admission
//! ([`crate::JobQueue::admit`]), so joining them onto the root cannot
//! escape it. `records.jsonl` uses the same JSONL schema as
//! `evogame-cli run --record-out` ([`evo_core::record::RecordWriter`]),
//! and `checkpoint.json` the same schema as `--checkpoint-out` — every
//! spooled artefact can be fed back to the ordinary CLI.
//!
//! # Crash atomicity
//!
//! `status.json`, `checkpoint.json`, and `receipt.json` are replaced
//! crash-atomically: the new contents go to `<file>.tmp` in the job
//! directory (same filesystem, so the final step is a metadata-only
//! `rename`), and only a fully written tmp file is renamed over the
//! committed name. A crash at any instant therefore leaves either the
//! previous valid file, the new valid file, or a stray `.tmp` — never a
//! torn committed file — which is what the restart-recovery scan
//! (ROADMAP item 8(c)) needs to trust the spool.

use crate::job::{JobStatus, Receipt};
use evo_core::record::GenerationRecord;
use serde::{Deserialize, Serialize};
use std::io::{BufRead as _, Write as _};
use std::path::{Path, PathBuf};

fn to_io(e: serde_json::Error) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

/// The typed payload inside the `InvalidData` error returned by
/// [`Spool::read_records`] when `records.jsonl` holds a line that does not
/// parse as a generation record: names the first offending line so an
/// operator can inspect exactly where a spool was damaged.
#[derive(Debug)]
pub struct MalformedRecordLine {
    /// 1-based line number of the first malformed line.
    pub line: usize,
    /// The underlying JSON parse error.
    pub source: serde_json::Error,
}

impl std::fmt::Display for MalformedRecordLine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "records.jsonl line {}: {}", self.line, self.source)
    }
}

impl std::error::Error for MalformedRecordLine {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Crash-atomically replace `dir/name`: write the full contents to
/// `dir/name.tmp`, sync, then `rename` into place. See the module docs.
fn replace_file(dir: &Path, name: &str, contents: &str) -> std::io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(tmp, dir.join(name))
}

/// Handle to a spool root directory. Cloneable; all methods take `&self`
/// (the filesystem is the shared state).
#[derive(Debug, Clone)]
pub struct Spool {
    root: PathBuf,
}

impl Spool {
    /// Open (creating if needed) a spool rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Spool { root })
    }

    /// The spool root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory holding `id`'s artefacts.
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.root.join(id)
    }

    fn ensure_dir(&self, id: &str) -> std::io::Result<PathBuf> {
        let dir = self.job_dir(id);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// Rewrite `id`'s `status.json` (crash-atomic; see the module docs).
    pub fn write_status(&self, id: &str, status: &JobStatus) -> std::io::Result<()> {
        let dir = self.ensure_dir(id)?;
        let json = serde_json::to_string(status).map_err(to_io)?;
        replace_file(&dir, "status.json", &json)
    }

    /// Read `id`'s `status.json` back.
    pub fn read_status(&self, id: &str) -> std::io::Result<JobStatus> {
        let text = std::fs::read_to_string(self.job_dir(id).join("status.json"))?;
        serde_json::from_str(&text).map_err(to_io)
    }

    /// Append generation records to `id`'s `records.jsonl` (one JSON
    /// object per line, [`evo_core::record`] schema). Called repeatedly
    /// while the job runs — this is the streaming path.
    pub fn append_records(&self, id: &str, recs: &[GenerationRecord]) -> std::io::Result<()> {
        if recs.is_empty() {
            return Ok(());
        }
        let dir = self.ensure_dir(id)?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("records.jsonl"))?;
        let mut buf = String::new();
        for r in recs {
            buf.push_str(&serde_json::to_string(r).map_err(to_io)?);
            buf.push('\n');
        }
        file.write_all(buf.as_bytes())
    }

    /// Read every record streamed so far for `id`, line by line through a
    /// buffered reader (a long-running job's `records.jsonl` can dwarf
    /// memory as one `String`). A malformed line fails with an
    /// `InvalidData` error wrapping [`MalformedRecordLine`], which names
    /// the first bad line number.
    pub fn read_records(&self, id: &str) -> std::io::Result<Vec<GenerationRecord>> {
        let path = self.job_dir(id).join("records.jsonl");
        let file = match std::fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut out = Vec::new();
        for (i, line) in std::io::BufReader::new(file).lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str(&line) {
                Ok(rec) => out.push(rec),
                Err(source) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        MalformedRecordLine { line: i + 1, source },
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Write `id`'s final `receipt.json` (pretty-printed, written once,
    /// crash-atomic).
    pub fn write_receipt(&self, id: &str, receipt: &Receipt) -> std::io::Result<()> {
        let dir = self.ensure_dir(id)?;
        let json = serde_json::to_string_pretty(receipt).map_err(to_io)?;
        replace_file(&dir, "receipt.json", &json)
    }

    /// Read `id`'s receipt, if the job completed.
    pub fn read_receipt(&self, id: &str) -> std::io::Result<Receipt> {
        let text = std::fs::read_to_string(self.job_dir(id).join("receipt.json"))?;
        serde_json::from_str(&text).map_err(to_io)
    }

    /// Rewrite `id`'s latest restartable `checkpoint.json` (crash-atomic;
    /// bumps the `checkpoints_written` counter like every other checkpoint
    /// producer). `cp` is the job's family checkpoint — well-mixed,
    /// spatial, or fixation; a job only ever produces one kind — written
    /// in the schema of the matching `evogame-cli --checkpoint-out`.
    pub fn write_checkpoint<C: Serialize>(&self, id: &str, cp: &C) -> std::io::Result<()> {
        let dir = self.ensure_dir(id)?;
        let json = serde_json::to_string(cp).map_err(to_io)?;
        replace_file(&dir, "checkpoint.json", &json)?;
        obs::counters().add(obs::Counter::CheckpointsWritten, 1);
        Ok(())
    }

    /// Read `id`'s latest checkpoint, if one was spooled, as the family
    /// checkpoint type `C`; a file of another kind fails as `InvalidData`.
    pub fn read_checkpoint<C: Deserialize>(&self, id: &str) -> std::io::Result<C> {
        let text = std::fs::read_to_string(self.job_dir(id).join("checkpoint.json"))?;
        serde_json::from_str(&text).map_err(to_io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        // detlint: allow(env-read, reason = "test-only scratch directory; production spool roots are caller-provided paths")
        let dir = std::env::temp_dir().join(format!("svc-spool-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn status_receipt_and_records_roundtrip() {
        let spool = Spool::new(tmp("roundtrip")).unwrap();
        spool.write_status("j1", &JobStatus::Queued).unwrap();
        assert_eq!(spool.read_status("j1").unwrap(), JobStatus::Queued);

        let recs: Vec<GenerationRecord> = (0..3)
            .map(|g| GenerationRecord {
                generation: g,
                events: vec![],
                mean_fitness: Some(g as f64),
                max_fitness: None,
                distinct_strategies: 1,
            })
            .collect();
        spool.append_records("j1", &recs[..2]).unwrap();
        spool.append_records("j1", &recs[2..]).unwrap();
        spool.append_records("j1", &[]).unwrap();
        assert_eq!(spool.read_records("j1").unwrap(), recs);
        assert!(spool.read_records("no-such-job").unwrap().is_empty());
        let _ = std::fs::remove_dir_all(spool.root());
    }

    #[test]
    fn checkpoint_roundtrips_through_engine_schema() {
        let spool = Spool::new(tmp("checkpoint")).unwrap();
        let pop =
            evo_core::population::Population::new(evo_core::params::Params::default()).unwrap();
        let cp = pop.checkpoint();
        spool.write_checkpoint("j1", &cp).unwrap();
        let back: evo_core::record::Checkpoint = spool.read_checkpoint("j1").unwrap();
        assert_eq!(back, cp);
        let _ = std::fs::remove_dir_all(spool.root());
    }

    #[test]
    fn torn_tmp_file_never_shadows_a_committed_file() {
        // A crash between "write tmp" and "rename" leaves a truncated tmp
        // file in the job dir. Reads must keep returning the last committed
        // contents, and the next write must commit cleanly over the debris.
        let spool = Spool::new(tmp("torn")).unwrap();
        spool.write_status("j1", &JobStatus::Queued).unwrap();
        let receipt = Receipt {
            schema_version: crate::SVC_SCHEMA_VERSION,
            job_id: "j1".into(),
            seed: 7,
            generations: 3,
            retries: 0,
            state_digest: format!("{:016x}", 0xBEEFu64),
            manifest: evo_core::population::Population::new(evo_core::params::Params::default())
                .unwrap()
                .manifest(0.0),
        };
        spool.write_receipt("j1", &receipt).unwrap();
        let dir = spool.job_dir("j1");
        for name in ["status.json", "receipt.json", "checkpoint.json"] {
            std::fs::write(dir.join(format!("{name}.tmp")), r#"{"trunc"#).unwrap();
        }
        assert_eq!(spool.read_status("j1").unwrap(), JobStatus::Queued);
        assert_eq!(spool.read_receipt("j1").unwrap(), receipt);
        // Committing through the same path replaces the torn tmp too.
        spool.write_status("j1", &JobStatus::Running).unwrap();
        assert_eq!(spool.read_status("j1").unwrap(), JobStatus::Running);
        assert!(!dir.join("status.json.tmp").exists());
        let _ = std::fs::remove_dir_all(spool.root());
    }

    #[test]
    fn malformed_record_line_error_names_the_line() {
        let spool = Spool::new(tmp("malformed")).unwrap();
        let rec = GenerationRecord {
            generation: 0,
            events: vec![],
            mean_fitness: None,
            max_fitness: None,
            distinct_strategies: 1,
        };
        spool.append_records("j1", &[rec]).unwrap();
        let path = spool.job_dir("j1").join("records.jsonl");
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"generation\": tor\n").unwrap();
        drop(f);
        let err = spool.read_records("j1").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "error should name line 2: {msg}");
        let _ = std::fs::remove_dir_all(spool.root());
    }
}
