//! The repository benchmark (described in `BENCHMARK.json` at the root).
//!
//! ```sh
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload bh-64 --seed 1 --seconds 36 --trace 0
//! ```
//!
//! Runs one workload for `--seconds`, checks every operation's output,
//! prints a human-readable report and, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured untraced; with `--trace 1`
//! they are the per-layer ledger of a separate traced run. Exits 1 on any
//! output-check or determinism failure and 2 on bad arguments or
//! environment.

mod cpus;
mod serve;
mod sim;
mod stats;
mod trace;

use apps::graph_dist::GraphParams;
use sim::{Bh, Graph, Sim, Solve};
use stats::{median, percentile, sorted, tail};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["bh-64", "graph-repl", "serve-open"];

/// Metrics of a `--trace 0` run: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_ms", "ms"),
    ("tail_ms", "ms"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of a `--trace 1` run: `(name, unit)`. Every workload reports
/// every one; a layer the workload does not reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim_makespan_s", "sim_s"),
    ("sim-net.self_s", "s"),
    ("sim-net.ns_per_event", "ns"),
    ("sim-net.events", "count"),
    ("sim-net.msgs", "count"),
    ("sim-net.bytes", "bytes"),
    ("sim-net.local_s", "sim_s"),
    ("sim-net.overhead_s", "sim_s"),
    ("sim-net.idle_s", "sim_s"),
    ("dpa-core.self_s", "s"),
    ("dpa-core.handler_calls", "count"),
    ("dpa-core.threads_created", "count"),
    ("dpa-core.threads_per_fetch", "ratio"),
    ("dpa-core.requests_issued", "count"),
    ("dpa-core.remote_fetched", "count"),
    ("dpa-core.peak_pending", "count"),
    ("dpa-core.peak_map_keys", "count"),
    ("dpa-core.phase_s", "s"),
    ("dpa-core.boundary_s", "s"),
    ("fastmsg.request_agg", "ratio"),
    ("fastmsg.reply_agg", "ratio"),
    ("global-heap.carried_entries", "count"),
    ("global-heap.stale_invalidated", "count"),
    ("global-heap.delta_msgs", "count"),
    ("global-heap.replicate_msgs", "count"),
    ("global-heap.replica_installs", "count"),
    ("global-heap.migrate_msgs", "count"),
    ("apps.work_s", "s"),
    ("apps.work_calls", "count"),
    ("apps.world_build_s", "s"),
    ("nbody.seq_solve_s", "s"),
    ("nbody.sim_overhead_x", "ratio"),
    ("dpa-serve.wait_p50_ms", "ms"),
    ("dpa-serve.wait_p99_ms", "ms"),
    ("dpa-serve.run_p50_ms", "ms"),
    ("dpa-serve.run_p99_ms", "ms"),
    ("dpa-serve.handoff_p99_ms", "ms"),
    ("dpa-serve.shed", "count"),
    ("dpa-serve.reaped", "count"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.unattributed_frac", "ratio"),
];

/// The percentile `tail_ms` reports. The job latency p99 moves by a
/// quarter between runs on a host that steals multi-millisecond slices,
/// so the gate sits at p90; reports also print the highest percentile
/// with ten samples beyond it.
pub const TAIL: f64 = 0.90;

/// Largest share of a traced solve its layer spans may leave
/// unattributed.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// Pause between set-ups. On a shared host the speed of a core flips
/// between levels about 1.5x apart several times a second, so set-ups run
/// back to back all land in one level; spread over a few seconds, their
/// median averages the levels as a whole run does.
const SETUP_GAP: std::time::Duration = std::time::Duration::from_millis(100);

/// Run `build` `n` times, [`SETUP_GAP`] apart, and return the last result
/// with every build's seconds. Each result is dropped before the next
/// build, so at most one is held at a time.
pub fn spaced_setups<W>(n: usize, mut build: impl FnMut() -> W) -> (W, Vec<f64>) {
    let mut seconds = Vec::with_capacity(n);
    let mut last = None;
    for i in 0..n {
        if i > 0 {
            std::thread::sleep(SETUP_GAP);
        }
        drop(last.take());
        let (w, s) = sim::timed(&mut build);
        seconds.push(s);
        last = Some(w);
    }
    (last.expect("at least one set-up"), seconds)
}

/// Input sizes.
struct Size {
    bh_bodies: usize,
    bh_nodes: u16,
    graph: GraphParams,
    /// Independent graphs per `graph-repl` solve.
    graphs: u64,
    serve_rate: f64,
    /// Set-ups per run, [`SETUP_GAP`] apart; `setup_s` is their median.
    setups: usize,
    /// Least number of timed solves per run.
    min_solves: usize,
}

impl Size {
    fn full() -> Size {
        Size {
            bh_bodies: 16_384,
            bh_nodes: 64,
            graph: GraphParams {
                n: 16_384,
                nodes: 16,
                skew: 1.6,
                phases: 8,
                rewire_permille: 120,
                root_stride: 8,
                ..GraphParams::default()
            },
            graphs: 12,
            serve_rate: 150.0,
            setups: 20,
            min_solves: 3,
        }
    }

    /// Seconds-scale inputs for the benchmark's own tests.
    #[cfg(test)]
    fn smoke() -> Size {
        Size {
            bh_bodies: 1_024,
            bh_nodes: 8,
            graph: GraphParams {
                n: 512,
                nodes: 4,
                skew: 1.6,
                phases: 3,
                rewire_permille: 120,
                root_stride: 8,
                ..GraphParams::default()
            },
            graphs: 2,
            serve_rate: 40.0,
            setups: 2,
            min_solves: 2,
        }
    }
}

/// What one run measured and found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check and determinism failures; any makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Report lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Write a traced run's span log under `.bench_build/perfbench/`.
pub fn write_spans(workload: &str, spans: &[trace::Span]) {
    let path = std::path::Path::new(".bench_build/perfbench").join(format!("{workload}.spans.tsv"));
    if let Err(e) = trace::write_tsv(&path, spans) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Run `f`, turning a panic (a stalled or over-budget phase) into an error.
fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "solve panicked".to_string())
    })
}

/// Per-name `(total, self, count)` span seconds of one traced solve.
type SpanSummary = BTreeMap<&'static str, (f64, f64, u64)>;

fn summarize(spans: &[trace::Span]) -> SpanSummary {
    trace::summarize(spans)
        .into_iter()
        .map(|(k, (t, s, n))| (k, (t as f64 / 1e9, s as f64 / 1e9, n)))
        .collect()
}

/// Deterministic per-layer counts of a solve's phase reports.
fn report_counts(out: &mut Outcome, reports: &[sim_net::RunReport]) {
    let total = |name: &str| {
        reports
            .iter()
            .map(|r| r.stats.user_total(name))
            .sum::<u64>() as f64
    };
    let peak = |name: &str| {
        reports
            .iter()
            .map(|r| r.stats.user_max(name))
            .max()
            .unwrap_or(0) as f64
    };
    let ratio = |num: &str, den: &str| {
        let d = total(den);
        if d == 0.0 {
            0.0
        } else {
            total(num) / d
        }
    };
    let events: u64 = reports.iter().map(|r| r.events_processed).sum();
    let (mut local, mut overhead, mut idle) = (0.0, 0.0, 0.0);
    for r in reports {
        let (l, o, i) = r.stats.mean_breakdown();
        local += l / 1e9;
        overhead += o / 1e9;
        idle += i / 1e9;
    }
    out.set(
        "sim_makespan_s",
        reports.iter().map(|r| r.makespan().as_ns()).sum::<u64>() as f64 / 1e9,
    );
    out.set("sim-net.events", events as f64);
    out.set(
        "sim-net.msgs",
        reports.iter().map(|r| r.stats.total_msgs()).sum::<u64>() as f64,
    );
    out.set(
        "sim-net.bytes",
        reports.iter().map(|r| r.stats.total_bytes()).sum::<u64>() as f64,
    );
    out.set("sim-net.local_s", local);
    out.set("sim-net.overhead_s", overhead);
    out.set("sim-net.idle_s", idle);
    out.set("dpa-core.threads_created", total("threads_created"));
    out.set(
        "dpa-core.threads_per_fetch",
        ratio("threads_aligned", "requests_issued"),
    );
    out.set("dpa-core.requests_issued", total("requests_issued"));
    out.set("dpa-core.remote_fetched", total("remote_objects_fetched"));
    out.set("dpa-core.peak_pending", peak("peak_pending_requests"));
    out.set("dpa-core.peak_map_keys", peak("peak_map_keys"));
    out.set(
        "fastmsg.request_agg",
        ratio("request_entries", "request_msgs"),
    );
    out.set("fastmsg.reply_agg", ratio("reply_entries", "reply_msgs"));
    out.set("global-heap.carried_entries", total("carried_entries"));
    out.set("global-heap.stale_invalidated", total("stale_invalidated"));
    out.set("global-heap.delta_msgs", total("delta_msgs"));
    out.set("global-heap.replicate_msgs", total("replicate_msgs"));
    out.set("global-heap.replica_installs", total("replica_installs"));
    out.set("global-heap.migrate_msgs", total("migrate_msgs"));
}

/// Build the world `setups` times, spaced (the median is `setup_s`), wrap
/// the last one with its reference, then solve for `seconds`: untraced only, or
/// alternating untraced and traced solves when `traced`.
fn run_sim<W, S: Sim>(
    workload: &str,
    build: impl Fn() -> W,
    wrap: impl FnOnce(W) -> S,
    seconds: f64,
    traced: bool,
    size: &Size,
) -> Outcome {
    let mut out = Outcome::default();
    let (world, setup_s) = spaced_setups(size.setups, build);
    let setup_s = sorted(setup_s);
    let sim = wrap(world);

    // The warm-up solve fills lazy state and fixes the reference digest.
    let reference = match guarded(|| sim.solve(false)) {
        Ok(s) => s,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.errors.push(format!("warm-up solve failed: {e}"));
            return out;
        }
    };
    if let Err(e) = sim.check(&reference.output) {
        out.errors.push(format!("warm-up solve: {e}"));
    }

    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut summaries: Vec<SpanSummary> = Vec::new();
    let mut last_spans = Vec::new();
    // Untraced and traced solves each go round-robin over the CPUs.
    let cpus = cpus::allowed();
    let mut placed = [0usize; 2];
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while i < size.min_solves * if traced { 2 } else { 1 } || Instant::now() < deadline {
        let with_trace = traced && i % 2 == 1;
        i += 1;
        out.attempted += 1;
        if !cpus.is_empty() {
            let k = &mut placed[with_trace as usize];
            cpus::run_on(&[cpus[*k % cpus.len()]]);
            *k += 1;
        }
        if with_trace {
            trace::start();
            trace::enter(sim::SOLVE);
        }
        let t = Instant::now();
        let solved: Result<Solve<S::Output>, String> = guarded(|| sim.solve(with_trace));
        let wall = t.elapsed().as_secs_f64();
        if with_trace {
            match solved {
                Ok(_) => {
                    trace::exit();
                    last_spans = trace::finish();
                    summaries.push(summarize(&last_spans));
                }
                Err(_) => trace::discard(),
            }
        }
        let failure = match &solved {
            Err(e) => Some(format!("solve {i}: {e}")),
            Ok(s) => match sim.check(&s.output) {
                Err(e) => Some(format!("solve {i}: {e}")),
                Ok(()) if s.reports != reference.reports || s.checksum != reference.checksum => {
                    Some(format!(
                        "solve {i} ({}): simulated counts or checksum differ from the warm-up solve",
                        if with_trace { "traced" } else { "untraced" }
                    ))
                }
                Ok(()) => None,
            },
        };
        match failure {
            Some(e) => {
                out.failed += 1;
                out.errors.push(e);
            }
            None if with_trace => traced_walls.push(wall),
            None => walls.push(wall),
        }
    }
    cpus::run_on(&cpus);
    let walls = sorted(walls);
    let events: u64 = reference.reports.iter().map(|r| r.events_processed).sum();
    let wall_s = median(&walls);
    let events_per_s = if walls.is_empty() {
        0.0
    } else {
        events as f64 / wall_s
    };
    let (top_p, top_s) = tail(&walls);
    out.set("wall_ms", wall_s * 1e3);
    out.set("tail_ms", percentile(&walls, TAIL) * 1e3);
    out.set("events_per_s", events_per_s);
    out.set("setup_s", median(&setup_s));
    report_counts(&mut out, &reference.reports);
    out.note(format!(
        "wall_s median {wall_s:.6} s, p{:.0} {top_s:.6} s, min {:.6} s, max {:.6} s over {} untraced solves",
        top_p * 100.0,
        walls.first().copied().unwrap_or(0.0),
        walls.last().copied().unwrap_or(0.0),
        walls.len()
    ));
    out.note(format!(
        "events_per_s {events_per_s:.1} 1/s ({events} events per solve)"
    ));
    out.note(format!(
        "sim_makespan_s {:.9} sim_s",
        out.metrics["sim_makespan_s"]
    ));
    out.note(format!(
        "setup_s median {:.6} s of {} set-ups",
        median(&setup_s),
        setup_s.len()
    ));
    out.set("apps.world_build_s", median(&setup_s));
    if let Some(seq) = sim.seq_solve_s() {
        out.set("nbody.seq_solve_s", seq);
        out.set("nbody.sim_overhead_x", wall_s / seq.max(1e-12));
    }

    if traced {
        let med =
            |f: &dyn Fn(&SpanSummary) -> f64| median(&sorted(summaries.iter().map(f).collect()));
        let get = |s: &SpanSummary, name: &str| s.get(name).copied().unwrap_or((0.0, 0.0, 0));
        let run_self = med(&|s| get(s, sim::RUN).1);
        out.set("sim-net.self_s", run_self);
        out.set(
            "sim-net.ns_per_event",
            run_self * 1e9 / events.max(1) as f64,
        );
        out.set(
            "dpa-core.self_s",
            med(&|s| get(s, sim::HANDLER).1 + get(s, sim::PHASE).1 + get(s, sim::BOUNDARY).1),
        );
        out.set("dpa-core.phase_s", med(&|s| get(s, sim::PHASE).0));
        out.set("dpa-core.boundary_s", med(&|s| get(s, sim::BOUNDARY).0));
        out.set("apps.work_s", med(&|s| get(s, sim::WORK).1));
        if let Some(s) = summaries.last() {
            out.set("dpa-core.handler_calls", get(s, sim::HANDLER).2 as f64);
            out.set("apps.work_calls", get(s, sim::WORK).2 as f64);
        }
        let unattributed = med(&|s| get(s, sim::SOLVE).1 / get(s, sim::SOLVE).0.max(1e-12));
        out.set("bench.unattributed_frac", unattributed);
        if unattributed > MAX_UNATTRIBUTED {
            out.errors.push(format!(
                "layer spans leave {:.1}% of the traced solve unattributed (limit {:.0}%)",
                unattributed * 100.0,
                MAX_UNATTRIBUTED * 100.0
            ));
        }
        out.set(
            "bench.trace_overhead_frac",
            median(&sorted(traced_walls)) / wall_s.max(1e-12) - 1.0,
        );
        write_spans(workload, &last_spans);
    }
    out
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Run one workload.
fn run(workload: &str, seed: u64, seconds: f64, traced: bool, size: &Size) -> Outcome {
    let mut out = match workload {
        "bh-64" => run_sim(
            workload,
            || Bh::build_world(size.bh_bodies, size.bh_nodes, seed),
            Bh::new,
            seconds,
            traced,
            size,
        ),
        "graph-repl" => run_sim(
            workload,
            || Graph::build_worlds(size.graph, size.graphs, seed),
            Graph::new,
            seconds,
            traced,
            size,
        ),
        "serve-open" => serve::run(seed, seconds, traced, size.serve_rate, size.setups),
        other => unreachable!("unknown workload {other}"),
    };
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// The final result line.
fn result_json(out: &Outcome, traced: bool) -> String {
    let table = if traced { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.errors.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// Host and build facts printed with every result.
fn fingerprint() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"nproc\": {cpus}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"engine\": \"sequential\", \"queue\": \"{:?}\"}}",
        esc(&model),
        esc(&rustc),
        esc(&git_commit()),
        sim_net::env_queue()
    )
}

/// The checked-out commit, read from `.git` when the checkout has one.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none (not a git checkout)".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    std::fs::read_to_string(format!(".git/{r}"))
        .map(|s| s.trim().to_string())
        .or_else(|_| {
            std::fs::read_to_string(".git/packed-refs").map(|p| {
                p.lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next())
                    .unwrap_or("unknown")
                    .to_string()
            })
        })
        .unwrap_or_else(|_| "unknown".into())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

fn main() {
    for var in ["DPA_SIM_THREADS", "DPA_SIM_QUEUE"] {
        if std::env::var_os(var).is_some() {
            eprintln!(
                "perfbench: {var} is set; the benchmark measures the default engine and queue only"
            );
            std::process::exit(2);
        }
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let size = Size::full();
    println!("fingerprint {}", fingerprint());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.traced as u8
    );
    let out = run(&args.workload, args.seed, args.seconds, args.traced, &size);
    for n in &out.notes {
        println!("  {n}");
    }
    let table = if args.traced { PER_LAYER } else { END_TO_END };
    for (name, unit) in table {
        println!(
            "  {name} = {} {unit}",
            out.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    println!(
        "  failed_frac = {} ratio ({} of {} operations)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for e in &out.errors {
        println!("  FAILED: {e}");
    }
    println!("{}", result_json(&out, args.traced));
    if !out.errors.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric entry in `BENCHMARK.json`, and the
    /// workload names (entries without a unit).
    fn declared() -> (Vec<(String, String)>, Vec<String>) {
        let text = include_str!("../../BENCHMARK.json");
        let value = |s: &str, key: &str| -> Option<String> {
            let rest = &s[s.find(&format!("\"{key}\""))? + key.len() + 2..];
            let rest = &rest[rest.find('"')? + 1..];
            Some(rest[..rest.find('"')?].to_string())
        };
        let (mut metrics, mut workloads) = (Vec::new(), Vec::new());
        for entry in text.split('{').skip(2) {
            let name = value(entry, "name").expect("every entry has a name");
            match value(entry, "unit") {
                Some(unit) => metrics.push((name, unit)),
                None => workloads.push(name),
            }
        }
        (metrics, workloads)
    }

    #[test]
    fn emitted_metrics_match_the_declaration() {
        let (metrics, workloads) = declared();
        let emitted: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(metrics, emitted);
        assert_eq!(workloads, WORKLOADS);
    }

    /// A smoke-size run of every workload, untraced and traced: correct,
    /// and every named metric present with its unit and a finite value;
    /// the metrics each workload exists to move are nonzero.
    #[test]
    fn smoke_runs_emit_every_metric() {
        let size = Size::smoke();
        for &w in WORKLOADS {
            for traced in [false, true] {
                let out = run(w, 3, 1.0, traced, &size);
                assert!(out.errors.is_empty(), "{w}: {:?}", out.errors);
                assert!(out.attempted >= 1 && out.failed == 0, "{w}");
                let line = result_json(&out, traced);
                let table = if traced { PER_LAYER } else { END_TO_END };
                for (name, unit) in table {
                    let needle = format!("\"{name}\": {{\"value\": ");
                    let at = line
                        .find(&needle)
                        .unwrap_or_else(|| panic!("{w}: {name} missing"));
                    let rest = &line[at + needle.len()..];
                    let (value, rest) = rest.split_once(',').expect("value then unit");
                    assert!(
                        value.parse::<f64>().is_ok_and(f64::is_finite),
                        "{w}: {name} = {value}"
                    );
                    assert!(
                        rest.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
                        "{w}: {name} unit"
                    );
                }
                let nonzero: &[&str] = match (traced, w) {
                    (false, _) => &[
                        "wall_ms",
                        "tail_ms",
                        "events_per_s",
                        "setup_s",
                        "peak_rss_mb",
                    ],
                    (true, "serve-open") => &["sim-net.events", "dpa-serve.run_p50_ms"],
                    (true, "graph-repl") => &[
                        "sim-net.events",
                        "apps.work_s",
                        "dpa-core.phase_s",
                        "global-heap.carried_entries",
                    ],
                    (true, _) => &[
                        "sim-net.events",
                        "sim-net.self_s",
                        "dpa-core.self_s",
                        "apps.work_s",
                        "nbody.seq_solve_s",
                    ],
                };
                for name in nonzero {
                    assert!(
                        out.metrics.get(name).is_some_and(|&v| v > 0.0),
                        "{w}: {name} is 0"
                    );
                }
            }
        }
    }
}
