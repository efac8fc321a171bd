//! The serve-ingest workload: a seeded update stream cut into fixed-size
//! wire chunks, an in-process reference run, and a closed-loop JSONL
//! client driving a spawned `aspp serve`.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use aspp_core::data::UpdateRecord;
use aspp_core::feed::{encode_records, FeedConfig, FeedEngine, InjectedAttack, ReplayConfig};
use aspp_core::prelude::*;

use crate::trace::Tracer;
use crate::{rss_mb, Checks, Hwm};

/// Prefixes in the seeded stream: every AS of the paper preset but one
/// originates one.
pub const PREFIXES: usize = 1489;
/// Top-degree monitors whose tables seed the detector.
pub const MONITORS: usize = 30;
/// Records per `ingest` command.
pub const CHUNK_RECORDS: usize = 256;
/// `ingest` commands per session.
pub const INGESTS: usize = 110;
/// A `checkpoint` follows every this many ingests.
pub const CHECKPOINT_EVERY: usize = 55;

/// One seeded stream, already cut into wire chunks.
pub struct Stream {
    pub corpus: Corpus,
    pub corpus_text: String,
    pub chunks: Vec<Vec<u8>>,
    /// The prefix queried after each ingest: the chunk's first record's.
    pub queries: Vec<Ipv4Prefix>,
    pub attacks: Vec<InjectedAttack>,
    pub prefixes: usize,
}

impl Stream {
    /// Cuts the stream the replay generator builds for `seed` into up to
    /// `max_chunks` chunks of [`CHUNK_RECORDS`] records; fails when fewer
    /// than `min_chunks` fit.
    pub fn generate(
        graph: &AsGraph,
        prefixes: usize,
        min_chunks: usize,
        max_chunks: usize,
        seed: u64,
    ) -> Result<Stream, String> {
        let feed = ReplayConfig::new(prefixes)
            .monitors_top_degree(MONITORS)
            .seed(seed)
            .generate(graph);
        let updates = feed.updates();
        if updates.len() < min_chunks * CHUNK_RECORDS {
            return Err(format!(
                "seed {seed}: stream has {} records, fewer than {min_chunks} chunks of {CHUNK_RECORDS}",
                updates.len()
            ));
        }
        let parts: Vec<&[UpdateRecord]> = updates
            .chunks_exact(CHUNK_RECORDS)
            .take(max_chunks)
            .collect();
        let prefixes = feed
            .corpus
            .tables()
            .flat_map(|(_, table)| table.iter().map(|(prefix, _)| prefix))
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        Ok(Stream {
            corpus_text: feed.corpus.to_text(),
            chunks: parts.iter().map(|p| encode_records(p)).collect(),
            queries: parts.iter().map(|p| p[0].prefix).collect(),
            attacks: feed.attacks.clone(),
            corpus: feed.corpus,
            prefixes,
        })
    }

    pub fn records(&self) -> usize {
        self.chunks.len() * CHUNK_RECORDS
    }

    pub fn wire_bytes(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }
}

/// What a correct service replies, from an in-process one-shard engine.
pub struct Expected {
    /// New alarms per ingest.
    pub alarms: Vec<u64>,
    /// Prefixes with live detector state after the last ingest.
    pub tracked: u64,
}

impl Expected {
    pub fn compute(graph: &Arc<AsGraph>, stream: &Stream) -> Result<Expected, String> {
        let mut engine = FeedEngine::new(Arc::clone(graph), &FeedConfig::new(1));
        engine.seed_from_corpus(&stream.corpus);
        let mut alarms = Vec::with_capacity(stream.chunks.len());
        for chunk in &stream.chunks {
            let report = engine.ingest_wire(chunk).map_err(|e| e.to_string())?;
            alarms.push(report.alarms.len() as u64);
        }
        Ok(Expected {
            alarms,
            tracked: engine.tracked_prefixes() as u64,
        })
    }
}

/// The stream written to disk, where `aspp serve` reads it.
pub struct Files {
    pub corpus: PathBuf,
    pub chunks: Vec<PathBuf>,
    pub checkpoint: PathBuf,
}

impl Files {
    pub fn write(dir: &Path, stream: &Stream) -> Result<Files, String> {
        let io = |e: std::io::Error| format!("writing under {}: {e}", dir.display());
        fs::create_dir_all(dir).map_err(io)?;
        let corpus = dir.join("corpus.txt");
        fs::write(&corpus, &stream.corpus_text).map_err(io)?;
        let mut chunks = Vec::with_capacity(stream.chunks.len());
        for (i, bytes) in stream.chunks.iter().enumerate() {
            let path = dir.join(format!("chunk-{i:04}.bin"));
            fs::write(&path, bytes).map_err(io)?;
            chunks.push(path);
        }
        Ok(Files {
            corpus,
            chunks,
            checkpoint: dir.join("state.ckpt"),
        })
    }
}

/// A running `aspp serve` child speaking JSONL on its stdin/stdout. The
/// child is killed and reaped on drop unless it was drained.
pub struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    spawned: Instant,
}

impl Server {
    pub fn spawn(aspp: &Path, scale: &str, seed: u64, extra: &[&str]) -> Result<Server, String> {
        let spawned = Instant::now();
        let mut child = Command::new(aspp)
            .args([
                "serve",
                "--scale",
                scale,
                "--seed",
                &seed.to_string(),
                "--shards",
                "1",
            ])
            .args(extra)
            .env_remove("ASPP_LOG")
            .env_remove("ASPP_MANIFEST")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", aspp.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Server {
            child,
            stdin,
            stdout,
            spawned,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends one request line and returns the reply line.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        writeln!(self.stdin, "{line}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("aspp serve stdin: {e}"))?;
        let mut reply = String::new();
        match self.stdout.read_line(&mut reply) {
            Ok(0) => Err(format!("aspp serve exited before replying to {line}")),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("aspp serve stdout: {e}")),
        }
    }

    /// Graceful shutdown: `drain`, then wait for the exit.
    pub fn drain(mut self) -> Result<(), String> {
        let reply = self.request(r#"{"cmd":"drain"}"#)?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !is_ok(&reply) || !status.success() {
            return Err(format!("drain failed ({status}): {reply}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

pub fn is_ok(reply: &str) -> bool {
    reply.contains("\"ok\":true")
}

/// The unsigned integer value of a top-level `key` in a flat JSON reply.
pub fn field_u64(reply: &str, key: &str) -> Option<u64> {
    let at = reply.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = reply[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Everything one closed-loop session measured.
#[derive(Default)]
pub struct Session {
    /// Spawn to the first `status` reply: topology, corpus parse, seeding.
    pub setup_s: f64,
    /// First `ingest` sent to the last reply before `drain`.
    pub study_s: f64,
    pub ingest_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub records: u64,
    /// VmHWM of the server before `drain`.
    pub peak_rss_mb: f64,
    /// VmRSS after seeding and before `drain`.
    pub rss_seeded_mb: f64,
    pub rss_end_mb: f64,
    pub checks: Checks,
    /// Cursor the last checkpoint recorded.
    pub checkpoint_cursor: u64,
    pub alarms: Vec<u64>,
}

/// Runs one session: spawn, `status`, then per chunk an `ingest` and a
/// `prefix` query, a `checkpoint` every [`CHECKPOINT_EVERY`] ingests, and
/// `drain`. Each reply is checked against `expected`.
pub fn session(
    aspp: &Path,
    scale: &str,
    seed: u64,
    files: &Files,
    stream: &Stream,
    expected: &Expected,
    mut tracer: Option<&mut Tracer>,
) -> Result<Session, String> {
    let corpus = files.corpus.display().to_string();
    let mut server = Server::spawn(aspp, scale, seed, &["--corpus", &corpus])?;
    let mut s = Session::default();
    let status = server.request(r#"{"cmd":"status"}"#)?;
    let ready = Instant::now();
    s.setup_s = (ready - server.spawned).as_secs_f64();
    if let Some(t) = tracer.as_deref_mut() {
        t.record("serve.setup", server.spawned, ready);
    }
    s.checks
        .check(is_ok(&status), || format!("status: {status}"));
    let pid = server.pid();
    s.rss_seeded_mb = rss_mb(Some(pid), Hwm::Current).unwrap_or(0.0);

    let start = Instant::now();
    for (i, chunk) in files.chunks.iter().enumerate() {
        let request = format!(r#"{{"cmd":"ingest","file":"{}"}}"#, chunk.display());
        let t0 = Instant::now();
        let reply = server.request(&request)?;
        let t1 = Instant::now();
        s.ingest_ms.push((t1 - t0).as_secs_f64() * 1e3);
        let records = field_u64(&reply, "records").unwrap_or(0);
        let alarms = field_u64(&reply, "alarms");
        s.records += records;
        s.alarms.push(alarms.unwrap_or(u64::MAX));
        s.checks.check(
            is_ok(&reply) && records == CHUNK_RECORDS as u64 && alarms == Some(expected.alarms[i]),
            || {
                format!(
                    "ingest {i}: expected {} alarms, got {reply}",
                    expected.alarms[i]
                )
            },
        );

        let query = format!(r#"{{"cmd":"prefix","prefix":"{}"}}"#, stream.queries[i]);
        let reply = server.request(&query)?;
        let t2 = Instant::now();
        s.query_ms.push((t2 - t1).as_secs_f64() * 1e3);
        s.checks
            .check(is_ok(&reply), || format!("prefix {i}: {reply}"));
        if let Some(t) = tracer.as_deref_mut() {
            t.record("serve.ingest", t0, t1);
            t.record("serve.prefix", t1, t2);
        }

        if (i + 1) % CHECKPOINT_EVERY == 0 {
            let request = format!(
                r#"{{"cmd":"checkpoint","file":"{}"}}"#,
                files.checkpoint.display()
            );
            let reply = server.request(&request)?;
            let t3 = Instant::now();
            s.checkpoint_cursor = field_u64(&reply, "cursor").unwrap_or(0);
            s.checks.check(
                is_ok(&reply) && s.checkpoint_cursor == ((i + 1) * CHUNK_RECORDS) as u64,
                || format!("checkpoint {i}: {reply}"),
            );
            if let Some(t) = tracer.as_deref_mut() {
                t.record("serve.checkpoint", t2, t3);
            }
        }
    }
    s.study_s = start.elapsed().as_secs_f64();
    s.peak_rss_mb = rss_mb(Some(pid), Hwm::Peak).unwrap_or(0.0);
    s.rss_end_mb = rss_mb(Some(pid), Hwm::Current).unwrap_or(0.0);
    let drained = server.drain();
    s.checks.check(drained.is_ok(), || format!("{drained:?}"));
    Ok(s)
}

/// Restarts the service from the last checkpoint and checks that its
/// `status` reports the checkpointed cursor and the reference's tracked
/// prefixes.
pub fn check_restore(
    aspp: &Path,
    seed: u64,
    files: &Files,
    cursor: u64,
    expected: &Expected,
) -> Checks {
    let checkpoint = files.checkpoint.display().to_string();
    let status =
        Server::spawn(aspp, "paper", seed, &["--restore", &checkpoint]).and_then(|mut server| {
            let status = server.request(r#"{"cmd":"status"}"#)?;
            server.drain()?;
            Ok(status)
        });
    let mut checks = Checks::default();
    checks.check(
        status.as_ref().is_ok_and(|s| {
            is_ok(s)
                && field_u64(s, "cursor") == Some(cursor)
                && field_u64(s, "tracked_prefixes") == Some(expected.tracked)
        }),
        || {
            format!(
                "restore: expected cursor {cursor} and {} tracked prefixes, got {status:?}",
                expected.tracked
            )
        },
    );
    checks
}
