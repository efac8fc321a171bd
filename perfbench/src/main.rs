//! `perfbench` — the measuring half of the benchmark; `run.py` builds it
//! and combines its output into the reported metrics.
//!
//! ```text
//! perfbench e2e   --workload W --seed N --seconds S [--setup-reps K] [--aspp BIN] [--work DIR]
//! perfbench trace --workload W --seed N --aspp BIN --work DIR --spans FILE
//! ```
//!
//! `e2e` on a batch workload sets up (K timed topology generations), runs
//! one warm-up study, then until S seconds have passed sets up again and
//! repeats the study on all allowed CPUs and on the first of them alone.
//! On serve-ingest it runs a warm-up session and then sessions until S
//! seconds have passed, all on the first CPU. It prints the raw samples as
//! one JSON line and runs untraced. `trace` runs the per-layer suite in `trace.rs`.

mod serve;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aspp_core::obs::MetricsSnapshot;
use aspp_core::prelude::AsGraph;

use serve::{Expected, Files, Stream};
use workload::{BatchStudy, SplitMix, Workload};

/// Fewest timed repeats an end-to-end run makes, however short `--seconds`.
const MIN_REPEATS: usize = 3;
/// Sweep cells re-run serially to check the batch engine's results.
const SERIAL_CHECK_CELLS: usize = 64;

/// A flat JSON object writer; numbers keep every digit.
pub struct Json(String);

impl Json {
    pub fn object() -> Json {
        Json(String::from("{"))
    }

    fn key(&mut self, name: &str) {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        let _ = write!(self.0, "\"{name}\":");
    }

    pub fn raw(&mut self, name: &str, raw: &str) {
        self.key(name);
        self.0.push_str(raw);
    }

    pub fn str(&mut self, name: &str, value: &str) {
        self.raw(name, &quote(value));
    }

    pub fn int(&mut self, name: &str, value: u64) {
        self.raw(name, &value.to_string());
    }

    pub fn num(&mut self, name: &str, value: f64) {
        self.raw(name, &number(value));
    }

    pub fn nums(&mut self, name: &str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(|&v| number(v)).collect();
        self.raw(name, &format!("[{}]", items.join(",")));
    }

    pub fn strs(&mut self, name: &str, values: &[String]) {
        let items: Vec<String> = values.iter().map(|v| quote(v)).collect();
        self.raw(name, &format!("[{}]", items.join(",")));
    }

    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile (`q` in 0..=1); 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub enum Hwm {
    Peak,
    Current,
}

/// Restarts this process's VmHWM from its current RSS (`clear_refs` 5),
/// so the next read gives the peak of what ran in between.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

/// VmHWM or VmRSS of `pid` (this process when `None`) in MiB.
pub fn rss_mb(pid: Option<u32>, which: Hwm) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".into(),
    };
    let key = match which {
        Hwm::Peak => "VmHWM:",
        Hwm::Current => "VmRSS:",
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    setup_reps: usize,
    aspp: Option<PathBuf>,
    work: PathBuf,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mode = raw
        .first()
        .cloned()
        .ok_or("usage: perfbench <e2e|trace> --workload W --seed N ...")?;
    let value = |flag: &str| {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1))
            .cloned()
    };
    let name = value("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let number = |flag: &str, default: f64| -> Result<f64, String> {
        value(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{flag}: bad number {v:?}"))
        })
    };
    Ok(Args {
        mode,
        workload,
        seed: number("--seed", 1.0)? as u64,
        seconds: number("--seconds", 10.0)?,
        setup_reps: number("--setup-reps", 1.0)?.max(1.0) as usize,
        aspp: value("--aspp").map(PathBuf::from),
        work: value("--work").map_or_else(|| PathBuf::from(".bench_work"), PathBuf::from),
        spans: value("--spans").map(PathBuf::from),
    })
}

/// Counts checked operations and keeps the first few failures.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(
            other
                .errors
                .iter()
                .take(8 - self.errors.len().min(8))
                .cloned(),
        );
    }

    fn write(&self, j: &mut Json) {
        j.int("attempted", self.attempted);
        j.int("failed", self.failed);
        j.strs("errors", &self.errors);
    }
}

/// CPU affinity of the calling thread, the mask `taskset` sets.
mod affinity {
    use std::io;

    /// Words in glibc's `cpu_set_t` (1024 CPUs).
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    #[derive(Clone, Copy)]
    pub struct CpuSet([u64; WORDS]);

    impl CpuSet {
        /// The calling thread's mask.
        pub fn current() -> io::Result<CpuSet> {
            let mut set = CpuSet([0; WORDS]);
            // SAFETY: pointer and size describe `set.0`, which outlives the call.
            let rc = unsafe { sched_getaffinity(0, size_of::<[u64; WORDS]>(), set.0.as_mut_ptr()) };
            if rc == 0 {
                Ok(set)
            } else {
                Err(io::Error::last_os_error())
            }
        }

        /// The lowest-numbered CPU of this set alone.
        pub fn first(&self) -> CpuSet {
            let mut one = CpuSet([0; WORDS]);
            if let Some(w) = self.0.iter().position(|&word| word != 0) {
                one.0[w] = self.0[w] & self.0[w].wrapping_neg();
            }
            one
        }

        /// Restricts the calling thread, and every thread and process it
        /// starts from now on, to this set.
        pub fn apply(&self) -> io::Result<()> {
            // SAFETY: pointer and size describe `self.0`; the kernel only reads it.
            let rc = unsafe { sched_setaffinity(0, size_of::<[u64; WORDS]>(), self.0.as_ptr()) };
            if rc == 0 {
                Ok(())
            } else {
                Err(io::Error::last_os_error())
            }
        }
    }
}

/// The two halves of an end-to-end run: all allowed CPUs, and the first of
/// them alone. Repeats alternate between them, so both see the same
/// stretch of machine time.
fn cpu_modes() -> Result<[affinity::CpuSet; 2], String> {
    let all = affinity::CpuSet::current().map_err(|e| format!("sched_getaffinity: {e}"))?;
    Ok([all, all.first()])
}

fn pin(set: &affinity::CpuSet) -> Result<(), String> {
    set.apply().map_err(|e| format!("sched_setaffinity: {e}"))
}

/// Generates the workload's topology `reps` times, timing each, and keeps
/// the last graph.
fn set_up(args: &Args, graph: &mut Option<AsGraph>, times: &mut Vec<f64>) {
    for _ in 0..args.setup_reps {
        drop(graph.take());
        let t0 = Instant::now();
        *graph = Some(args.workload.scale().internet(args.seed));
        times.push(t0.elapsed().as_secs_f64());
    }
}

fn e2e_batch(args: &Args) -> Result<String, String> {
    let mut setup = Vec::new();
    let mut graph = None;
    set_up(args, &mut graph, &mut setup);
    let first = graph.as_ref().expect("at least one set-up");
    let shape = (first.len(), first.link_count());
    let study = BatchStudy::new(args.workload, first, args.seed);

    let mut checks = Checks::default();
    let warm = study.run(first);
    let digest = warm.digest();
    let modes = cpu_modes()?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut samples = [Vec::new(), Vec::new()];
    let mut peaks = Vec::new();
    let mut last = warm;
    while samples[1].len() < MIN_REPEATS || Instant::now() < deadline {
        // Set-up runs again before every pair of repeats, so its samples
        // span the whole run as the studies' do: the host's speed shifts
        // within seconds, and set-ups timed back to back at the start saw
        // only their own moment.
        set_up(args, &mut graph, &mut setup);
        let graph = graph.as_ref().expect("at least one set-up");
        checks.check((graph.len(), graph.link_count()) == shape, || {
            format!("set-up {} generated another topology", setup.len())
        });
        for (mode, (cpus, times)) in modes.iter().zip(&mut samples).enumerate() {
            pin(cpus)?;
            reset_peak_rss()?;
            let t0 = Instant::now();
            let out = study.run(graph);
            times.push(t0.elapsed().as_secs_f64());
            if mode == 0 {
                peaks.push(rss_mb(None, Hwm::Peak).unwrap_or(0.0));
            }
            checks.check(out.digest() == digest, || {
                format!("repeat {} differs from the warm-up study", times.len())
            });
            last = out;
        }
    }
    pin(&modes[0])?;
    let graph = graph.expect("at least one set-up");

    // The batch sweep must be bit-identical to serial run_experiment.
    if let workload::StudyOutput::Paper { sweep, .. } = &last {
        let mut rng = SplitMix(args.seed ^ 0x5e71a1);
        for i in rng.sample(study.matrix.len(), SERIAL_CHECK_CELLS) {
            let serial = aspp_core::prelude::run_experiment(&graph, &study.matrix[i]);
            checks.check(serial == sweep[i], || {
                format!("sweep cell {i}: batch differs from serial")
            });
        }
    }

    let mut j = Json::object();
    j.nums("setup_s", &setup);
    j.nums("study_s", &samples[0]);
    j.nums("study_s_1core", &samples[1]);
    j.int("cells", study.cells as u64);
    j.num("peak_rss_mb", median(&peaks));
    let mut sizes = Json::object();
    sizes.int("ases", graph.len() as u64);
    sizes.int("links", graph.link_count() as u64);
    sizes.int("cells", study.cells as u64);
    j.raw("sizes", &sizes.finish());
    checks.write(&mut j);
    Ok(j.finish())
}

/// Runs `f` with the calling thread, and every thread and process it
/// starts meanwhile, on the first allowed CPU, then restores the mask.
pub fn on_first_cpu<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    let [all, one] = cpu_modes()?;
    pin(&one)?;
    let out = f();
    pin(&all)?;
    out
}

fn e2e_serve(args: &Args) -> Result<String, String> {
    let aspp = args
        .aspp
        .as_deref()
        .ok_or("serve-ingest needs --aspp BIN")?;
    let graph = Arc::new(args.workload.scale().internet(args.seed));
    let stream = Stream::generate(
        &graph,
        serve::PREFIXES,
        serve::INGESTS,
        serve::INGESTS,
        args.seed,
    )?;
    let expected = Expected::compute(&graph, &stream)?;
    let files = Files::write(&args.work, &stream)?;

    let mut checks = Checks::default();
    // Every session runs client and server on one CPU. On a shared
    // virtual machine the all-core loop pays a cross-vCPU wake-up for
    // every request (client, dispatcher, shard worker and back), and how
    // long those take follows the other tenants' load: all-core session
    // times spread past the bound from one set of runs to the next while
    // the one-CPU figures held.
    let (warm, sessions) = on_first_cpu(|| {
        let mut run = || {
            let s = serve::session(aspp, "paper", args.seed, &files, &stream, &expected, None)?;
            checks.absorb(&s.checks);
            Ok::<_, String>(s)
        };
        // The first session warms the page cache and the allocator.
        let warm = run()?;
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        let mut sessions = Vec::new();
        while sessions.len() < MIN_REPEATS || Instant::now() < deadline {
            sessions.push(run()?);
        }
        Ok((warm, sessions))
    })?;
    for s in &sessions {
        checks.check(s.alarms == warm.alarms, || {
            "alarm counts differ between sessions".into()
        });
    }
    checks.absorb(&serve::check_restore(
        aspp,
        args.seed,
        &files,
        warm.checkpoint_cursor,
        &expected,
    ));

    let collect = |f: fn(&serve::Session) -> f64| -> Vec<f64> { sessions.iter().map(f).collect() };
    let records: u64 = sessions.iter().map(|s| s.records).sum();
    let ingest_ms: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.ingest_ms.iter().copied())
        .collect();
    let mut j = Json::object();
    j.nums("setup_s", &collect(|s| s.setup_s));
    j.nums("study_s", &collect(|s| s.study_s));
    j.nums("ingest_ms", &ingest_ms);
    j.num(
        "ingest_rec_per_s",
        records as f64 / (ingest_ms.iter().sum::<f64>() / 1e3),
    );
    j.num("peak_rss_mb", median(&collect(|s| s.peak_rss_mb)));
    let mut sizes = Json::object();
    sizes.int("ases", graph.len() as u64);
    sizes.int("links", graph.link_count() as u64);
    sizes.int("prefixes", stream.prefixes as u64);
    sizes.int("monitors", serve::MONITORS as u64);
    sizes.int("records", stream.records() as u64);
    sizes.int("wire_bytes", stream.wire_bytes() as u64);
    sizes.int("ingests", stream.chunks.len() as u64);
    sizes.int("chunk_records", serve::CHUNK_RECORDS as u64);
    j.raw("sizes", &sizes.finish());
    checks.write(&mut j);
    Ok(j.finish())
}

fn traced(args: &Args) -> Result<String, String> {
    let aspp = args.aspp.as_deref().ok_or("trace needs --aspp BIN")?;
    let mut tracer = trace::Tracer::new();
    let report = trace::run(args.workload, args.seed, aspp, &args.work, &mut tracer)?;
    if let Some(path) = &args.spans {
        tracer
            .write(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let mut metrics = Json::object();
    for (name, value) in &report.metrics {
        metrics.num(name, *value);
    }
    let mut sizes = Json::object();
    for (name, value) in &report.sizes {
        sizes.num(name, *value);
    }
    let mut j = Json::object();
    j.raw("metrics", &metrics.finish());
    j.raw("sizes", &sizes.finish());
    j.raw(
        "obs",
        if MetricsSnapshot::compiled_in() {
            "true"
        } else {
            "false"
        },
    );
    report.checks.write(&mut j);
    Ok(j.finish())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let out = match (args.mode.as_str(), args.workload) {
            ("e2e", Workload::ServeIngest) => e2e_serve(&args),
            ("e2e", _) => e2e_batch(&args),
            ("trace", _) => traced(&args),
            (other, _) => Err(format!("unknown mode {other:?}")),
        };
        let _ = std::fs::remove_dir_all(Path::new(&args.work));
        out
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
