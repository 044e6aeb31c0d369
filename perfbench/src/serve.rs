//! `serve-open`: an open-loop, seeded job stream into `dpa_serve::Service`.
//!
//! Jobs are DST workloads under lossless fault plans, from four tenants
//! across both lanes, run by one shard. Jobs are due at a fixed rate below
//! one-shard capacity, whether or not earlier ones have finished (an open
//! loop), and each job is timed from when it was due, so a stall also
//! charges the jobs queued behind it. Evenly spaced arrivals and a
//! balanced job mix keep the queueing and the work a run sees from varying
//! with the seed: only the job order and the tenants are random.

use crate::sim::timed;
use crate::stats::{median, percentile, sorted, tail};
use crate::trace;
use crate::{Outcome, TAIL};
use bench::service::DstJobRunner;
use dpa_serve::{
    check_conservation, check_no_starvation, JobReport, JobRunner, JobSpec, Priority, SchedConfig,
    Service, TenantId,
};
use sim_net::Rng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The job mix: the single-phase and light multi-phase DST workloads.
/// The four multi-phase Barnes-Hut workloads are left out; at 10-20 ms a
/// job they would make the simulator, not the service, set the tail.
const MIX: &[&str] = &[
    "synth-dpa",
    "synth-caching",
    "synth-mig",
    "synth-adapt",
    "synth-diff",
    "bh",
    "fmm",
    "relax",
    "graph",
    "graph-mig",
    "graph-repl",
    "setops",
];
/// The stream's lossless fault plans: every job must complete.
const PLANS: &[&str] = &["none", "delay", "dup"];
/// A job slower than this from its due time counts as failed.
pub const LATENCY_LIMIT_MS: f64 = 500.0;
/// Jobs re-run outside the service to check that their simulated counts
/// repeat.
const RECHECK_JOBS: usize = 8;
/// Seconds of the stream each service of a pass runs.
const SEGMENT_S: f64 = 3.0;

/// One generated job: when it is due (seconds after the stream starts)
/// and what it asks for.
struct Arrival {
    due_s: f64,
    spec: JobSpec,
}

/// The stream: every block of `MIX.len() * PLANS.len()` consecutive jobs
/// holds each (workload, plan) pair once, in a seeded order. A job's run
/// time is set mostly by its workload, so drawing each job's workload
/// independently would let the seed move the mix, and with it the
/// latency percentiles, by several percent.
fn gen_stream(seed: u64, rate: f64, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ 0x5E4E_0BE7);
    let mut block: Vec<(&str, &str)> = Vec::new();
    let mut out = Vec::new();
    loop {
        let t = out.len() as f64 / rate;
        if t >= seconds {
            return out;
        }
        if block.is_empty() {
            block = MIX
                .iter()
                .flat_map(|&w| PLANS.iter().map(move |&p| (w, p)))
                .collect();
            for i in (1..block.len()).rev() {
                block.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        let (workload, plan) = block.pop().expect("refilled above");
        let tenant = rng.below(4) as u16;
        // Tenants 0/1 lean interactive, 2/3 lean batch.
        let interactive = rng.chance(if tenant < 2 { 0.8 } else { 0.2 });
        out.push(Arrival {
            due_s: t,
            spec: JobSpec {
                tenant: TenantId(tenant),
                priority: if interactive {
                    Priority::Interactive
                } else {
                    Priority::Batch
                },
                workload: workload.to_string(),
                // Unique per job, so a runner call maps back to its job.
                seed: out.len() as u64,
                plan: plan.to_string(),
                event_budget: 0,
            },
        });
    }
}

fn sched_config() -> SchedConfig {
    SchedConfig {
        shards: 1,
        batch_shard_cap: 1,
        ..SchedConfig::default()
    }
}

/// `(seed, start, end)` of every job a [`Runner`] ran.
type RunLog = Arc<Mutex<Vec<(u64, Instant, Instant)>>>;

/// The shard's job runner: the DST runner, with each call bracketed when
/// `log` is set (the traced pass).
struct Runner<R> {
    inner: Arc<R>,
    log: Option<RunLog>,
}

impl<R: JobRunner> JobRunner for Runner<R> {
    fn run(&self, spec: &JobSpec, event_budget: u64, wall_budget_ns: Option<u64>) -> JobReport {
        let Some(log) = &self.log else {
            return self.inner.run(spec, event_budget, wall_budget_ns);
        };
        let start = Instant::now();
        let report = self.inner.run(spec, event_budget, wall_budget_ns);
        let end = Instant::now();
        log.lock().expect("run log").push((spec.seed, start, end));
        report
    }
}

/// The simulated facts of a job that must repeat exactly.
fn sim_counts(r: &JobReport) -> [u64; 6] {
    [
        r.completed as u64,
        r.sim_events,
        r.sim_makespan_ns,
        r.request_msgs,
        r.reply_msgs,
        r.update_msgs,
    ]
}

/// One finished job: due-to-finish latency and admission-to-placement
/// wait in ms, and the shard's report.
struct Done {
    latency_ms: f64,
    wait_ms: f64,
    report: JobReport,
}

/// One arrival as the generator saw it.
struct Job {
    due: Instant,
    submit: Instant,
    /// Whether admission control turned the job away.
    shed: bool,
    /// `None` when the job was shed or never finished.
    done: Option<Done>,
}

impl Job {
    fn lag_ms(&self) -> f64 {
        self.submit
            .saturating_duration_since(self.due)
            .as_secs_f64()
            * 1e3
    }
}

/// One pass of the stream through fresh services.
struct Pass {
    jobs: Vec<Job>,
    errors: Vec<String>,
    /// Runner brackets keyed by job seed (traced pass only).
    runs: HashMap<u64, (Instant, Instant)>,
}

impl Pass {
    /// `(attempted, failed)`: a job fails when it is shed, does not
    /// complete, trips an oracle or misses the latency limit.
    fn tally(&self) -> (u64, u64) {
        let failed = self
            .jobs
            .iter()
            .filter(|j| match &j.done {
                Some(d) => job_error(&d.report).is_some() || d.latency_ms > LATENCY_LIMIT_MS,
                None => true,
            })
            .count();
        (self.jobs.len() as u64, failed as u64)
    }

    fn done(&self) -> impl Iterator<Item = &Done> {
        self.jobs.iter().filter_map(|j| j.done.as_ref())
    }

    fn latencies(&self) -> Vec<f64> {
        sorted(self.done().map(|d| d.latency_ms).collect())
    }
}

/// Why a finished job's output is wrong, if it is: a stall, a reaped run
/// or a DST oracle violation. (A late job is slow, not wrong.)
fn job_error(r: &JobReport) -> Option<String> {
    if r.violations > 0 {
        Some(format!("{} oracle violation(s)", r.violations))
    } else if r.budget_exhausted {
        Some("event budget exhausted".to_string())
    } else if !r.completed {
        Some(format!("did not complete: {}", r.stall))
    } else {
        None
    }
}

/// Run `stream` through fresh services, one per [`SEGMENT_S`] of it. Each
/// segment places the shard on the next allowed CPU (a service's threads
/// take the placement of the thread that starts them) and the generator on
/// the one after, so a run averages the speed of every core; see
/// [`crate::cpus`].
fn run_pass<R: JobRunner + 'static>(runner: &Arc<R>, stream: &[Arrival], traced: bool) -> Pass {
    let cpus = crate::cpus::allowed();
    let mut pass = Pass {
        jobs: Vec::with_capacity(stream.len()),
        errors: Vec::new(),
        runs: HashMap::new(),
    };
    let mut rest = stream;
    let mut k = 0;
    while let Some(first) = rest.first() {
        let n = rest
            .iter()
            .position(|a| a.due_s >= first.due_s + SEGMENT_S)
            .unwrap_or(rest.len());
        let (segment, tail) = rest.split_at(n);
        rest = tail;
        if !cpus.is_empty() {
            crate::cpus::run_on(&[cpus[k % cpus.len()]]);
        }
        let svc = start_service(runner, traced);
        if !cpus.is_empty() {
            crate::cpus::run_on(&[cpus[(k + 1) % cpus.len()]]);
        }
        k += 1;
        let p = feed(svc, segment);
        pass.jobs.extend(p.jobs);
        pass.errors.extend(p.errors);
        pass.runs.extend(p.runs);
    }
    crate::cpus::run_on(&cpus);
    pass
}

/// A fresh one-shard service; its runner logs each call when `traced`.
fn start_service<R: JobRunner + 'static>(
    runner: &Arc<R>,
    traced: bool,
) -> (Service, Option<RunLog>) {
    let log: Option<RunLog> = traced.then(|| Arc::new(Mutex::new(Vec::new())));
    let svc = Service::start(
        sched_config(),
        Runner {
            inner: runner.clone(),
            log: log.clone(),
        },
    );
    (svc, log)
}

/// Submit `stream` to `svc` in real time, its first job due now, then shut
/// the service down and check its decision log and every job.
fn feed((svc, log): (Service, Option<RunLog>), stream: &[Arrival]) -> Pass {
    let cfg = sched_config();
    let start_s = stream.first().map_or(0.0, |a| a.due_s);
    let t0 = Instant::now();
    let mut submitted = Vec::with_capacity(stream.len());
    for a in stream {
        let due = t0 + Duration::from_secs_f64(a.due_s - start_s);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let submit = Instant::now();
        submitted.push((due, submit, svc.submit(a.spec.clone()).job()));
    }
    let report = svc.shutdown();
    let mut errors: Vec<String> = check_conservation(&report.log);
    errors.extend(check_no_starvation(&report.log, &cfg));
    let mut records: HashMap<u64, _> = report.jobs.into_iter().map(|j| (j.job.0, j)).collect();
    let jobs = submitted
        .into_iter()
        .zip(stream)
        .map(|((due, submit, id), a)| {
            let done = id.and_then(|id| records.remove(&id.0)).map(|rec| {
                let lag_ns = submit.saturating_duration_since(due).as_nanos() as f64;
                Done {
                    latency_ms: (lag_ns + rec.latency_ns as f64) / 1e6,
                    wait_ms: rec.wait_ns as f64 / 1e6,
                    report: rec.report,
                }
            });
            if let (Some(id), None) = (id, &done) {
                errors.push(format!("job {} was admitted but has no record", id.0));
            }
            if let Some(e) = done.as_ref().and_then(|d| job_error(&d.report)) {
                errors.push(format!(
                    "job seed {} ({} under plan {}): {e}",
                    a.spec.seed, a.spec.workload, a.spec.plan
                ));
            }
            Job {
                due,
                submit,
                shed: id.is_none(),
                done,
            }
        })
        .collect();
    let runs = log
        .map(|l| {
            let l = l.lock().expect("run log");
            l.iter().map(|&(seed, s, e)| (seed, (s, e))).collect()
        })
        .unwrap_or_default();
    Pass { jobs, errors, runs }
}

/// Set up once: build the runner's worlds, start a service and fill the
/// runner's per-workload baseline cache (lazy set-up every service pays
/// on its first job of each workload). Returns the runner and the
/// world-build seconds.
fn setup() -> (Arc<DstJobRunner>, f64) {
    let (runner, build_s) = timed(|| Arc::new(DstJobRunner::new()));
    let svc = Service::start(
        sched_config(),
        Runner {
            inner: runner.clone(),
            log: None,
        },
    );
    for (i, w) in MIX.iter().enumerate() {
        svc.submit(JobSpec {
            tenant: TenantId(i as u16 % 4),
            priority: Priority::Batch,
            workload: w.to_string(),
            seed: 0,
            plan: "none".to_string(),
            event_budget: 0,
        });
    }
    svc.shutdown();
    (runner, build_s)
}

/// Run `serve-open` at `rate` jobs/s for `seconds` (two half-length passes,
/// untraced then traced, when `traced`).
pub fn run(seed: u64, seconds: f64, traced: bool, rate: f64, setups: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut build_s = Vec::new();
    let (runner, setup_s) = crate::spaced_setups(setups, || {
        let (r, b) = setup();
        build_s.push(b);
        r
    });
    let (setup_s, build_s) = (sorted(setup_s), sorted(build_s));
    let budget = sched_config().job_event_budget;
    out.set("setup_s", median(&setup_s));

    let pass_s = if traced { seconds / 2.0 } else { seconds };
    let stream = gen_stream(seed, rate, pass_s);
    let plain = run_pass(&runner, &stream, false);
    let (attempted, failed) = plain.tally();
    out.attempted += attempted;
    out.failed += failed;
    out.errors.extend(plain.errors.iter().cloned());

    let lat = plain.latencies();
    let events: u64 = plain.done().map(|d| d.report.sim_events).sum();
    let busy_ns: u64 = plain.done().map(|d| d.report.wall_ns).sum();
    let within = lat.iter().filter(|&&l| l <= LATENCY_LIMIT_MS).count();
    out.set("wall_ms", median(&lat));
    out.set("tail_ms", percentile(&lat, TAIL));
    out.set(
        "events_per_s",
        events as f64 / (busy_ns as f64 / 1e9).max(1e-9),
    );
    out.note(format!(
        "{} jobs offered at {rate}/s over {pass_s} s, latency limit {LATENCY_LIMIT_MS} ms",
        stream.len()
    ));
    let (top_p, top_ms) = tail(&lat);
    out.note(format!(
        "job latency over {} jobs: job_p50_ms {:.4} ms, job_p99_ms {:.4} ms, p{} {top_ms:.4} ms",
        lat.len(),
        median(&lat),
        percentile(&lat, 0.99),
        top_p * 100.0
    ));
    out.note(format!(
        "goodput_jobs_per_s {:.3} 1/s",
        within as f64 / pass_s
    ));

    if !traced {
        // Determinism: a job's simulated counts repeat outside the service.
        for (a, j) in stream.iter().zip(&plain.jobs).take(RECHECK_JOBS) {
            if let Some(d) = &j.done {
                let again = runner.run(&a.spec, budget, None);
                if sim_counts(&again) != sim_counts(&d.report) {
                    out.errors.push(format!(
                        "job seed {} is not deterministic: {:?} then {:?}",
                        a.spec.seed,
                        sim_counts(&d.report),
                        sim_counts(&again)
                    ));
                }
            }
        }
        return out;
    }

    // The span epoch must precede the pass: spans are placed after it.
    trace::start();
    let pass = run_pass(&runner, &stream, true);
    for (i, (a, b)) in plain.jobs.iter().zip(&pass.jobs).enumerate() {
        if let (Some(a), Some(b)) = (&a.done, &b.done) {
            if sim_counts(&a.report) != sim_counts(&b.report) {
                out.errors.push(format!(
                    "job {i}: traced counts {:?} differ from untraced {:?}",
                    sim_counts(&b.report),
                    sim_counts(&a.report)
                ));
            }
        }
    }
    out.errors.extend(pass.errors.iter().cloned());
    let (attempted, failed) = pass.tally();
    out.attempted += attempted;
    out.failed += failed;

    // Spans: one job span from due to finish, with the generator's lag,
    // the scheduler wait and the runner call as children, all sharing the
    // job id. The job span's self time is the scheduler and pool hand-off.
    let mut run_ms = Vec::new();
    let mut handoff_ms = Vec::new();
    trace::with(|t| {
        for (a, j) in stream.iter().zip(&pass.jobs) {
            let Some(d) = &j.done else { continue };
            // Scheduler ids restart with each service; the job seed does not.
            let id = a.spec.seed as u32;
            let due = t.ns(j.due);
            let submit = t.ns(j.submit);
            let finish = due + (d.latency_ms * 1e6) as u64;
            let root = t.record("dpa-serve.job", due, finish, trace::ROOT, id);
            t.record("bench.gen_lag", due, submit, root, id);
            t.record(
                "dpa-serve.wait",
                submit,
                submit + (d.wait_ms * 1e6) as u64,
                root,
                id,
            );
            if let Some(&(s, e)) = pass.runs.get(&a.spec.seed) {
                let (s, e) = (t.ns(s), t.ns(e));
                t.record("dpa-serve.run", s, e, root, id);
                run_ms.push((e - s) as f64 / 1e6);
                handoff_ms
                    .push((d.latency_ms - j.lag_ms() - d.wait_ms - (e - s) as f64 / 1e6).max(0.0));
            }
        }
    });
    let spans = trace::finish();
    crate::write_spans("serve-open", &spans);

    let reports: Vec<&JobReport> = pass.done().map(|d| &d.report).collect();
    let wait = sorted(pass.done().map(|d| d.wait_ms).collect());
    let run_ms = sorted(run_ms);
    let lag = sorted(pass.jobs.iter().map(Job::lag_ms).collect());
    out.set("dpa-serve.wait_p50_ms", median(&wait));
    out.set("dpa-serve.wait_p99_ms", percentile(&wait, 0.99));
    out.set("dpa-serve.run_p50_ms", median(&run_ms));
    out.set("dpa-serve.run_p99_ms", percentile(&run_ms, 0.99));
    out.set(
        "dpa-serve.handoff_p99_ms",
        percentile(&sorted(handoff_ms), 0.99),
    );
    out.set(
        "dpa-serve.shed",
        pass.jobs.iter().filter(|j| j.shed).count() as f64,
    );
    out.set(
        "dpa-serve.reaped",
        reports.iter().filter(|r| r.budget_exhausted).count() as f64,
    );
    out.set("bench.gen_lag_p99_ms", percentile(&lag, 0.99));
    out.set(
        "bench.trace_overhead_frac",
        median(&pass.latencies()) / median(&lat).max(1e-9) - 1.0,
    );
    out.set("apps.world_build_s", median(&build_s));
    out.set(
        "sim-net.events",
        reports.iter().map(|r| r.sim_events).sum::<u64>() as f64,
    );
    out.set(
        "sim-net.msgs",
        reports
            .iter()
            .map(|r| r.request_msgs + r.reply_msgs + r.update_msgs)
            .sum::<u64>() as f64,
    );
    out.set(
        "sim_makespan_s",
        reports.iter().map(|r| r.sim_makespan_ns).sum::<u64>() as f64 / 1e9,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The DST runner, except that the job with seed `bad` reports
    /// `fault` on top of its real report.
    struct Faulty {
        inner: DstJobRunner,
        bad: u64,
        fault: fn(&mut JobReport),
    }

    impl JobRunner for Faulty {
        fn run(&self, spec: &JobSpec, event_budget: u64, wall_budget_ns: Option<u64>) -> JobReport {
            let mut r = self.inner.run(spec, event_budget, wall_budget_ns);
            if spec.seed == self.bad {
                (self.fault)(&mut r);
            }
            r
        }
    }

    #[test]
    fn a_wrong_job_output_is_an_error_not_only_a_failure() {
        let stream = gen_stream(3, 40.0, 0.2);
        let clean = run_pass(&Arc::new(DstJobRunner::new()), &stream, false);
        assert!(clean.errors.is_empty(), "{:?}", clean.errors);
        let faults: [fn(&mut JobReport); 3] = [
            |r| r.violations = 1,
            |r| r.completed = false,
            |r| r.budget_exhausted = true,
        ];
        for fault in faults {
            let runner = Faulty {
                inner: DstJobRunner::new(),
                bad: 2,
                fault,
            };
            let pass = run_pass(&Arc::new(runner), &stream, false);
            assert_eq!(pass.tally(), (stream.len() as u64, 1));
            assert_eq!(pass.errors.len(), 1, "{:?}", pass.errors);
            assert!(
                pass.errors[0].starts_with("job seed 2 "),
                "{:?}",
                pass.errors
            );
        }
    }
}
