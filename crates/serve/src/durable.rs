//! Crash-safe spill of parked sessions.
//!
//! A parked session is a lease on server memory; a durable session is
//! that lease made crash-safe. When the server runs with a session
//! directory, every park also writes one file — the session's design
//! provenance plus its machine checkpoint in the
//! [`manticore::machine::save_checkpoint`] format — and every resume,
//! drop, or reap removes it. A daemon restarted over the same directory
//! re-adopts every file it can read: recompile the recorded source (the
//! compiler is bit-deterministic), rebind the checkpoint to the fresh
//! compilation, and re-park under the *original* session id, so clients
//! holding ids from before the crash keep working.
//!
//! ## File format
//!
//! One file per session, `<id>.mses`, written tmp-then-rename so a crash
//! mid-write never leaves a half file under a live name:
//!
//! ```text
//! magic    b"MSES"
//! version  u32 LE (currently 1)
//! meta     u32 LE length + that many bytes of JSON
//! blob     u64 LE length + machine checkpoint bytes
//! check    u64 LE FNV-1a over everything above
//! ```
//!
//! The meta JSON carries the session id and the design source — either
//! `{"kind":"catalog","name":...,"grid":n}` or
//! `{"kind":"wire","grid":n,"netlist":{...}}` with the netlist in its
//! [`crate::wire`] encoding. The checkpoint blob carries its own
//! checksum; the envelope checksum additionally covers the metadata, so
//! corruption anywhere in the file is detected before any of it is
//! trusted. Corrupt files are *skipped and counted*, never fatal:
//! recovering nine of ten sessions beats refusing to start.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use manticore_util::{fnv1a, fnv1a_from};

use crate::json::Value;
use crate::session::SessionSource;

const MAGIC: [u8; 4] = *b"MSES";
const VERSION: u32 = 1;

/// One recoverable session as read from (or written to) disk.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// The original session id (`s-<n>`).
    pub id: String,
    /// The design provenance, for recompilation.
    pub source: SessionSource,
    /// The machine checkpoint, in the [`manticore::machine`] persist
    /// format; rebind it with [`manticore::machine::load_checkpoint`].
    pub checkpoint: Vec<u8>,
}

/// The on-disk session store: one directory, one file per parked
/// session.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
}

impl DurableStore {
    /// Opens (creating if needed) the store at `dir`.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn open(dir: &Path) -> io::Result<DurableStore> {
        fs::create_dir_all(dir)?;
        Ok(DurableStore {
            dir: dir.to_path_buf(),
        })
    }

    fn path_for(&self, id: &str) -> PathBuf {
        // Session ids are server-generated (`s-<n>`), but belt and
        // braces: refuse path separators so a hostile id recovered from
        // a tampered file can never escape the directory.
        let safe: String = id
            .chars()
            .map(|c| {
                if c.is_alphanumeric() || c == '-' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.dir.join(format!("{safe}.mses"))
    }

    /// Persists `env` under its session id, atomically: the bytes land
    /// in a temp file first and are renamed into place, so a crash
    /// mid-write leaves either the old file or the new one, never a
    /// torn hybrid.
    ///
    /// The checkpoint blob is written straight from `env`, never copied
    /// into an envelope buffer: the checksum runs over the header, then
    /// over the blob, and header, blob and trailer go to the file in
    /// turn.
    ///
    /// # Errors
    ///
    /// On any filesystem failure; the caller decides whether that
    /// degrades the park to memory-only or fails the request.
    pub fn save(&self, env: &Envelope) -> io::Result<()> {
        let head = header(env);
        let check = fnv1a_from(fnv1a(&head), &env.checkpoint);
        let path = self.path_for(&env.id);
        let tmp = path.with_extension("tmp");
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&head)?;
        file.write_all(&env.checkpoint)?;
        file.write_all(&check.to_le_bytes())?;
        drop(file);
        fs::rename(&tmp, &path)
    }

    /// Removes the file for `id`; missing files are not an error (the
    /// session may have been memory-only or already consumed).
    pub fn remove(&self, id: &str) {
        let _ = fs::remove_file(self.path_for(id));
    }

    /// Reads every decodable session in the directory. Returns the
    /// envelopes plus how many files were present but corrupt (bad
    /// magic, failed checksum, malformed metadata) and therefore
    /// skipped.
    pub fn load_all(&self) -> (Vec<Envelope>, usize) {
        let mut envelopes = Vec::new();
        let mut corrupt = 0;
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return (envelopes, corrupt);
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "mses"))
            .collect();
        paths.sort();
        for path in paths {
            match fs::read(&path)
                .map_err(|e| e.to_string())
                .and_then(|b| decode(&b))
            {
                Ok(env) => envelopes.push(env),
                Err(_) => corrupt += 1,
            }
        }
        (envelopes, corrupt)
    }
}

/// Everything in the file before the checkpoint blob: magic, version,
/// the metadata, and the blob's length.
fn header(env: &Envelope) -> Vec<u8> {
    let source = match &env.source {
        SessionSource::Catalog { name, grid } => Value::obj(vec![
            ("kind", Value::Str("catalog".into())),
            ("name", Value::Str(name.clone())),
            ("grid", Value::Int(*grid as u64)),
        ]),
        SessionSource::Wire { netlist, grid } => Value::obj(vec![
            ("kind", Value::Str("wire".into())),
            ("grid", Value::Int(*grid as u64)),
            ("netlist", netlist.clone()),
        ]),
    };
    let meta = Value::obj(vec![("id", Value::Str(env.id.clone())), ("source", source)]).render();
    let mut out = Vec::with_capacity(4 + 4 + 4 + meta.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(meta.len() as u32).to_le_bytes());
    out.extend_from_slice(meta.as_bytes());
    out.extend_from_slice(&(env.checkpoint.len() as u64).to_le_bytes());
    out
}

fn decode(bytes: &[u8]) -> Result<Envelope, String> {
    if bytes.len() < 4 + 4 + 4 + 8 + 8 {
        return Err("truncated envelope".into());
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    if fnv1a(body) != stored {
        return Err("envelope checksum mismatch".into());
    }
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], String> {
        let end = pos.checked_add(n).filter(|&e| e <= body.len());
        let end = end.ok_or_else(|| "truncated envelope".to_string())?;
        let s = &body[*pos..end];
        *pos = end;
        Ok(s)
    };
    if take(&mut pos, 4)? != MAGIC {
        return Err("bad magic".into());
    }
    let version = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(format!("unsupported envelope version {version}"));
    }
    let meta_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
    let meta_bytes = take(&mut pos, meta_len)?;
    let meta_text = std::str::from_utf8(meta_bytes).map_err(|e| e.to_string())?;
    let meta = Value::parse(meta_text)?;
    let blob_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
    let blob_len = usize::try_from(blob_len).map_err(|_| "blob length overflow".to_string())?;
    let checkpoint = take(&mut pos, blob_len)?.to_vec();
    if pos != body.len() {
        return Err("trailing bytes in envelope".into());
    }

    let id = meta
        .get("id")
        .and_then(Value::as_str)
        .ok_or("missing `id` in metadata")?
        .to_string();
    let sv = meta.get("source").ok_or("missing `source` in metadata")?;
    let grid = sv
        .get("grid")
        .and_then(Value::as_u64)
        .ok_or("missing `grid` in source")? as usize;
    let source = match sv.get("kind").and_then(Value::as_str) {
        Some("catalog") => SessionSource::Catalog {
            name: sv
                .get("name")
                .and_then(Value::as_str)
                .ok_or("missing `name` in catalog source")?
                .to_string(),
            grid,
        },
        Some("wire") => SessionSource::Wire {
            netlist: sv
                .get("netlist")
                .cloned()
                .ok_or("missing `netlist` in wire source")?,
            grid,
        },
        other => return Err(format!("unknown source kind {other:?}")),
    };
    Ok(Envelope {
        id,
        source,
        checkpoint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("manticore-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> Envelope {
        Envelope {
            id: "s-42".into(),
            source: SessionSource::Wire {
                netlist: Value::obj(vec![("version", Value::Int(1))]),
                grid: 3,
            },
            checkpoint: (0..=255u8).collect(),
        }
    }

    #[test]
    fn save_load_round_trips_and_remove_forgets() {
        let dir = temp_dir("roundtrip");
        let store = DurableStore::open(&dir).unwrap();
        store.save(&sample()).unwrap();
        store
            .save(&Envelope {
                id: "s-7".into(),
                source: SessionSource::Catalog {
                    name: "counter".into(),
                    grid: 2,
                },
                checkpoint: vec![1, 2, 3],
            })
            .unwrap();

        let (envs, corrupt) = store.load_all();
        assert_eq!(corrupt, 0);
        assert_eq!(envs.len(), 2);
        let e42 = envs.iter().find(|e| e.id == "s-42").unwrap();
        assert_eq!(e42.checkpoint, sample().checkpoint);
        assert!(matches!(&e42.source, SessionSource::Wire { grid: 3, .. }));
        let e7 = envs.iter().find(|e| e.id == "s-7").unwrap();
        assert!(
            matches!(&e7.source, SessionSource::Catalog { name, grid: 2 } if name == "counter")
        );

        store.remove("s-42");
        store.remove("s-42"); // idempotent
        let (envs, corrupt) = store.load_all();
        assert_eq!((envs.len(), corrupt), (1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_skipped_and_counted_not_fatal() {
        let dir = temp_dir("corrupt");
        let store = DurableStore::open(&dir).unwrap();
        store.save(&sample()).unwrap();

        // A flipped byte anywhere fails the envelope checksum.
        let path = dir.join("s-42.mses");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(dir.join("s-99.mses"), &bytes).unwrap();
        // Garbage and truncation are also just "corrupt".
        fs::write(dir.join("s-98.mses"), b"not an envelope").unwrap();
        fs::write(dir.join("s-97.mses"), []).unwrap();
        // Non-.mses files are ignored entirely.
        fs::write(dir.join("README"), b"ignore me").unwrap();

        let (envs, corrupt) = store.load_all();
        assert_eq!(envs.len(), 1, "the intact session still recovers");
        assert_eq!(envs[0].id, "s-42");
        assert_eq!(corrupt, 3);
        let _ = fs::remove_dir_all(&dir);
    }
}
