//! The CI perf-smoke guard: pinned workloads, calibration-normalized
//! ratios, a 10× alarm threshold.
//!
//! ```text
//! guard --record [--out BENCH_GUARD.json]
//! guard --check  [--baseline BENCH_GUARD.json] [--threshold 10]
//! ```
//!
//! The guard exists to catch the *next* 50× regression, not 20% drift.
//! CI runners are noisy and heterogeneous, so absolute milliseconds are
//! useless as a baseline; instead every run first times a fixed
//! pure-CPU calibration loop, then expresses each workload as the ratio
//! `workload_ms / calibration_ms`. A machine that is 2× slower slows
//! the calibration loop 2× too, and the ratio stays put. Only a genuine
//! algorithmic cliff — the kind PR 4 introduced into the validation
//! kernel (54 ms → 2.5 s, see DESIGN.md §10) — moves a ratio by an
//! order of magnitude, which is exactly where the alarm is set.
//!
//! Seven workloads pin the serving paths that have regressed or nearly
//! regressed before:
//!
//! * `validate_kernel` — the `cfd check` path: a 20k-row tax instance
//!   validated against a ~60-rule discovered cover, single-threaded.
//! * `ctane_levelwise` — the discovery path: exact CTANE over a
//!   1000-row tax instance at k 2, its lattice levels flat tables with
//!   partitions freed run by run.
//! * `fastcfd_closed2` — the default `cfd discover` path's heaviest
//!   step: mining the Closed₂ index FastCFD builds (the free and closed
//!   item sets at k 2) over a 20k-row tax instance, single-threaded.
//!   Only the mining is timed, so a return of the quadratic level join
//!   (DESIGN.md §2.3) is not diluted by FastCFD's other phases.
//! * `stream_batch` — the `cfd watch` path: steady-state insert+delete
//!   batches through a warm `StreamEngine`.
//! * `remine_drift` — the `cfd watch --remine` path: a drift batch
//!   pushes a planted FD under θ and one full self-healing cycle
//!   (trigger, projection, mine, atomic apply, kernel re-measure)
//!   repairs the cover.
//! * `ingest_chunked` — the CSV loading path every command pays first:
//!   a ~150k-row tax CSV through the chunked zero-copy scanner and
//!   dictionary encoder (serial; thread scaling is the ingest bench's
//!   job, the guard pins the per-byte cost).
//! * `serve_roundtrip` — the `cfd serve` path: a resident in-process
//!   server with one registered dataset answering a burst of sync
//!   discover requests over one connection, so protocol parsing, the
//!   job queue, shared-dataset dispatch, and result serialization are
//!   all on the clock.
//!
//! `--record` writes `BENCH_GUARD.json` (ratios + the raw numbers that
//! produced them, for forensics); `--check` re-times the workloads and
//! exits nonzero if any current ratio is ≥ `threshold ×` its recorded
//! baseline. Timing is best-of-3, so one scheduler hiccup cannot fire
//! the alarm; a sustained 10× cliff always does.

use cfd_core::api::{Algo, Control, DiscoverOptions, Discoverer};
use cfd_core::FastCfd;
use cfd_datagen::tax::TaxGenerator;
use cfd_itemset::mine::{mine_free_closed, MineOptions};
use cfd_model::attrset::AttrSet;
use cfd_model::{Cfd, Json, Relation};
use cfd_serve::client::{Client, ClientRead};
use cfd_stream::StreamEngine;
use cfd_validate::{validate, ValidateOptions};
use std::process::ExitCode;
use std::time::Instant;

/// Best-of-`n` wall time in milliseconds. The minimum (not the mean)
/// is the right statistic here: noise only ever adds time, so the
/// fastest observation is the closest to the machine's true cost.
fn best_of_ms(n: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut best = f64::INFINITY;
    let mut sink = 0u64;
    for _ in 0..n {
        let t = Instant::now();
        sink = sink.wrapping_add(f());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if ms < best {
            best = ms;
        }
    }
    // keep the computed values observable so the work cannot be DCE'd
    if sink == u64::MAX {
        eprintln!("# unreachable sink: {sink}");
    }
    best
}

/// The pure-CPU calibration loop: a fixed budget of xorshift64* steps.
/// No allocation, no memory traffic beyond registers — it measures the
/// machine, not the allocator or the cache hierarchy.
fn calibration() -> u64 {
    let mut x = 0x9e3779b97f4a7c15u64;
    let mut acc = 0u64;
    for _ in 0..40_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    acc
}

/// The `cfd check` workload: kernel validation of a discovered cover
/// over a tax instance, single-threaded (thread scaling is the
/// levelwise bench's job; the guard pins the per-row cost).
fn validate_workload() -> (Relation, Vec<Cfd>) {
    let rel = TaxGenerator::new(20_000).arity(10).seed(7).generate();
    let sample_ids: Vec<u32> = (0..2_000u32).collect();
    let sample = rel.restrict(&sample_ids);
    let cover: Vec<Cfd> = FastCfd::new(40).discover(&sample).into_iter().collect();
    let step = (cover.len() / 60).max(1);
    let rules: Vec<Cfd> = cover.into_iter().step_by(step).take(60).collect();
    assert!(rules.len() >= 40, "want a 40+ rule cover");
    (rel, rules)
}

fn run_validate(rel: &Relation, rules: &[Cfd]) -> u64 {
    let opts = ValidateOptions {
        threads: 1,
        ..Default::default()
    };
    validate(rel, rules.iter(), &opts).total_violations() as u64
}

fn run_ctane(rel: &Relation) -> u64 {
    let opts = DiscoverOptions::new(2).threads(1);
    let d = Algo::Ctane
        .discover_with(rel, &opts, &Control::default())
        .expect("ctane discovers");
    d.cover.len() as u64
}

/// The `fastcfd_closed2` workload: FastCFD's Closed₂ mining, exactly
/// as its index builds it (k 2, no tidsets), on one thread.
fn run_closed2(rel: &Relation) -> u64 {
    let opts = MineOptions {
        keep_tids: false,
        ..MineOptions::default()
    };
    let mined = mine_free_closed(rel, 2, opts);
    (mined.free.len() + mined.closed.len()) as u64
}

/// The `cfd watch` workload: each round inserts a pre-encoded batch
/// and deletes it again, so live state is identical across rounds and
/// the number is steady-state update cost.
fn stream_workload() -> (StreamEngine, Vec<Vec<u32>>) {
    const WARM: usize = 2_000;
    const BATCH: usize = 256;
    let rel = TaxGenerator::new(WARM + BATCH).generate();
    let warm_rows: Vec<u32> = (0..WARM as u32).collect();
    let warm = rel.restrict(&warm_rows);
    let rules: Vec<Cfd> = FastCfd::new((WARM / 100).max(2))
        .discover(&warm)
        .into_iter()
        .collect();
    let batch: Vec<Vec<u32>> = (WARM as u32..(WARM + BATCH) as u32)
        .map(|t| (0..rel.arity()).map(|a| rel.code(t, a)).collect())
        .collect();
    let (engine, _) = StreamEngine::warm(&warm, rules, 1);
    (engine, batch)
}

fn run_stream(engine: &mut StreamEngine, batch: &[Vec<u32>]) -> u64 {
    let mut n = 0u64;
    for _ in 0..8 {
        let first = engine.n_total() as u32;
        engine.insert_coded(batch.to_vec());
        let ids: Vec<u32> = (first..first + batch.len() as u32).collect();
        let delta = engine.delete_batch(&ids).expect("batch rows are live");
        n += (delta.raised.len() + delta.cleared.len()) as u64;
    }
    n
}

/// The `cfd watch --remine` workload: a warm tax stream whose planted
/// `[AC] -> CT` rule is pushed under θ by a batch of conflicting
/// inserts (CT codes shifted against matching ACs), then healed by one
/// full re-mining cycle. Each round pays the whole self-healing path —
/// engine warm, drift batch, trigger, neighborhood projection, mine,
/// atomic apply, kernel re-measure.
fn remine_workload() -> (Relation, Vec<Cfd>, Vec<Vec<u32>>) {
    const WARM: usize = 3_000;
    const DRIFT: usize = 600;
    let rel = TaxGenerator::new(WARM + DRIFT).seed(13).generate();
    let warm_rows: Vec<u32> = (0..WARM as u32).collect();
    let warm = rel.restrict(&warm_rows);
    let ac = rel.schema().attr_id("AC").expect("tax has AC");
    let ct = rel.schema().attr_id("CT").expect("tax has CT");
    let rules = vec![Cfd::fd(AttrSet::singleton(ac), ct)];
    // conflicting inserts: each drift row keeps its AC but takes the
    // CT of a row half the window away, so matching groups disagree
    let batch: Vec<Vec<u32>> = (WARM as u32..(WARM + DRIFT) as u32)
        .map(|t| {
            (0..rel.arity())
                .map(|a| {
                    if a == ct {
                        rel.code(t - WARM as u32 / 2, a)
                    } else {
                        rel.code(t, a)
                    }
                })
                .collect()
        })
        .collect();
    (warm, rules, batch)
}

fn run_remine(warm: &Relation, rules: &[Cfd], batch: &[Vec<u32>]) -> u64 {
    use cfd_stream::{remine, RemineOptions};
    let (mut engine, _) = StreamEngine::warm(warm, rules.to_vec(), 1);
    engine.insert_coded(batch.to_vec());
    let delta = remine(&mut engine, &RemineOptions::default(), &Control::default())
        .expect("default Control is never cancelled")
        .expect("the drift batch must trigger re-mining");
    (delta.retired.len() + delta.replacement.len() + delta.post_measures.len()) as u64
}

/// The ingestion workload: a ~150k-row tax CSV (generated once,
/// streamed into memory) pushed through the chunked scanner +
/// dictionary encoder at default options.
fn ingest_workload() -> Vec<u8> {
    let mut csv = Vec::new();
    TaxGenerator::new(150_000)
        .seed(11)
        .write_csv(&mut csv)
        .expect("writing to Vec cannot fail");
    csv
}

fn run_ingest(csv: &[u8]) -> u64 {
    let rel = cfd_model::ingest_csv_reader(csv, &Default::default(), &Control::default())
        .expect("generated CSV ingests");
    (rel.n_rows() + rel.memory_bytes()) as u64
}

/// The `cfd serve` workload rig: an in-process server on an ephemeral
/// loopback port with a 200-row tax instance registered once; each
/// measured round drives 10 sync discover requests through one
/// connection and reads the streamed replies back.
struct ServeRig {
    client: Client,
    server: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl ServeRig {
    fn start() -> ServeRig {
        use cfd_serve::{ServeOptions, Server};
        let server = Server::bind(&ServeOptions::default()).expect("bind loopback");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let mut rig = ServeRig {
            client: Client::connect(addr, None).expect("connect to own server"),
            server: Some(handle),
        };
        let mut csv = Vec::new();
        TaxGenerator::new(200)
            .seed(5)
            .write_csv(&mut csv)
            .expect("writing to Vec cannot fail");
        let req = Json::obj([
            ("op", Json::from("register")),
            ("name", Json::from("tax")),
            ("csv", Json::from(String::from_utf8(csv).expect("utf8 csv"))),
        ]);
        let rep = rig.request(&req.to_string());
        assert!(rep.contains("\"ok\":true"), "register failed: {rep}");
        rig
    }

    /// One round trip: send a request line, return the reply line
    /// (skipping any job-event lines streamed before it).
    fn request(&mut self, line: &str) -> String {
        self.client.send(line).expect("send request");
        match self.client.reply(|_event| {}).expect("read reply") {
            ClientRead::Line(reply) => reply,
            other => panic!("server hung up mid-measurement: {other:?}"),
        }
    }

    fn shutdown(mut self) {
        let rep = self.request("{\"op\":\"shutdown\"}");
        assert!(rep.contains("\"ok\":true"), "shutdown failed: {rep}");
        self.server
            .take()
            .expect("server handle")
            .join()
            .expect("server thread")
            .expect("server run");
    }
}

fn run_serve(rig: &mut ServeRig) -> u64 {
    let mut n = 0u64;
    for _ in 0..10 {
        let rep = rig.request("{\"op\":\"discover\",\"dataset\":\"tax\",\"sync\":true}");
        assert!(rep.contains("\"ok\":true"), "discover failed: {rep}");
        n += rep.len() as u64;
    }
    n
}

struct Measured {
    name: &'static str,
    ms: f64,
    ratio: f64,
}

/// Times the calibration loop and every workload; ratios are relative
/// to this run's own calibration.
fn measure() -> (f64, Vec<Measured>) {
    let calib_ms = best_of_ms(3, calibration);
    eprintln!("# calibration: {calib_ms:.1} ms");
    let mut out = Vec::new();

    let (rel, rules) = validate_workload();
    let ms = best_of_ms(3, || run_validate(&rel, &rules));
    out.push(Measured {
        name: "validate_kernel",
        ms,
        ratio: ms / calib_ms,
    });

    let rel = TaxGenerator::new(1_000).generate();
    let ms = best_of_ms(3, || run_ctane(&rel));
    out.push(Measured {
        name: "ctane_levelwise",
        ms,
        ratio: ms / calib_ms,
    });

    let rel = TaxGenerator::new(20_000).seed(1).generate();
    let ms = best_of_ms(3, || run_closed2(&rel));
    out.push(Measured {
        name: "fastcfd_closed2",
        ms,
        ratio: ms / calib_ms,
    });

    let (mut engine, batch) = stream_workload();
    let ms = best_of_ms(3, || run_stream(&mut engine, &batch));
    out.push(Measured {
        name: "stream_batch",
        ms,
        ratio: ms / calib_ms,
    });

    let (warm, rules, batch) = remine_workload();
    let ms = best_of_ms(3, || run_remine(&warm, &rules, &batch));
    out.push(Measured {
        name: "remine_drift",
        ms,
        ratio: ms / calib_ms,
    });

    let csv = ingest_workload();
    let ms = best_of_ms(3, || run_ingest(&csv));
    out.push(Measured {
        name: "ingest_chunked",
        ms,
        ratio: ms / calib_ms,
    });

    let mut rig = ServeRig::start();
    let ms = best_of_ms(3, || run_serve(&mut rig));
    rig.shutdown();
    out.push(Measured {
        name: "serve_roundtrip",
        ms,
        ratio: ms / calib_ms,
    });

    for m in &out {
        eprintln!("# {:>16}: {:8.1} ms  ratio {:.3}", m.name, m.ms, m.ratio);
    }
    (calib_ms, out)
}

fn record(path: &str) -> ExitCode {
    let (calib_ms, measured) = measure();
    let workloads = Json::obj(measured.iter().map(|m| {
        (
            m.name,
            Json::obj([("ms", Json::from(m.ms)), ("ratio", Json::from(m.ratio))]),
        )
    }));
    let doc = Json::obj([
        (
            "comment",
            Json::from(
                "perf-guard baselines: ratios are workload_ms / calibration_ms \
                 on the recording machine; re-record with \
                 `cargo run --release -p cfd-bench --bin guard -- --record` \
                 after a deliberate perf change (see DESIGN.md §10)",
            ),
        ),
        ("threshold", Json::from(10.0)),
        ("calibration_ms", Json::from(calib_ms)),
        ("workloads", workloads),
    ]);
    if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
        eprintln!("error: cannot write {path}: {e}");
        return ExitCode::from(2);
    }
    eprintln!("# baselines recorded to {path}");
    ExitCode::SUCCESS
}

fn check(path: &str, threshold_override: Option<f64>) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read baseline {path}: {e}");
            eprintln!("(record one with `guard --record --out {path}`)");
            return ExitCode::from(2);
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {path} is not valid JSON: {e}");
            return ExitCode::from(2);
        }
    };
    let threshold = threshold_override
        .or_else(|| doc.get("threshold").and_then(Json::as_f64))
        .unwrap_or(10.0);
    let baselines = match doc.get("workloads") {
        Some(w) => w,
        None => {
            eprintln!("error: {path} has no \"workloads\" object");
            return ExitCode::from(2);
        }
    };

    let (_, measured) = measure();
    let mut failed = false;
    for m in &measured {
        let base = baselines
            .get(m.name)
            .and_then(|w| w.get("ratio"))
            .and_then(Json::as_f64);
        match base {
            Some(base) if base > 0.0 => {
                let rel = m.ratio / base;
                let verdict = if rel >= threshold { "FAIL" } else { "ok" };
                println!(
                    "{:>16}: ratio {:.3} vs baseline {:.3} ({rel:.2}x)  {verdict}",
                    m.name, m.ratio, base
                );
                if rel >= threshold {
                    failed = true;
                }
            }
            _ => {
                println!("{:>16}: no baseline ratio in {path}  FAIL", m.name);
                failed = true;
            }
        }
    }
    if failed {
        eprintln!(
            "error: perf guard tripped (≥{threshold}x a recorded ratio) — an \
             algorithmic regression, not runner noise; see DESIGN.md §10"
        );
        ExitCode::FAILURE
    } else {
        eprintln!("# perf guard clean (threshold {threshold}x)");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<&str> = None;
    let mut path = String::from("BENCH_GUARD.json");
    let mut threshold: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--record" => mode = Some("record"),
            "--check" => mode = Some("check"),
            "--out" | "--baseline" => match it.next() {
                Some(p) => path = p.clone(),
                None => {
                    eprintln!("error: missing value for {a}");
                    return ExitCode::from(2);
                }
            },
            "--threshold" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => threshold = Some(t),
                None => {
                    eprintln!("error: --threshold needs a number");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("error: unknown argument {other:?}");
                eprintln!(
                    "usage: guard (--record | --check) [--out/--baseline FILE] [--threshold N]"
                );
                return ExitCode::from(2);
            }
        }
    }
    match mode {
        Some("record") => record(&path),
        Some("check") => check(&path, threshold),
        _ => {
            eprintln!("usage: guard (--record | --check) [--out/--baseline FILE] [--threshold N]");
            ExitCode::from(2)
        }
    }
}
