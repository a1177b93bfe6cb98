//! One benchmark run: set up, measure, check, and (traced) replay.

use crate::check::{check_body, expected, Expected, Table1, Verdict};
use crate::drive::{closed_loop, Fleet, LoopConfig, Phase, Sample};
use crate::inputs::{build, Inputs, Job, Workload};
use crate::layers::{replay, LayerMetric, ReplayInput};
use crate::stats::{median, tail, Attempts};
use fastvg_core::report::Method;
use fastvg_obs::Tracer;
use fastvg_serve::ClientResponse;
use fastvg_wire::Json;
use mini_rayon::ThreadPool;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run on the cold workloads; `setup_s` is their median.
/// One boots the measured daemon; the rest are sampled between chunks
/// of the check phase, so the median spans many seconds of the host's
/// drifting speed rather than one instant.
const COLD_SETUPS: usize = 51;

/// Set-ups per run on `hot-fleet`, each including the warm pass.
const HOT_SETUPS: usize = 3;

/// Cold requests prepared per measured second, since a cold run never
/// repeats a request: 300/s is over 15x the cold rate of one daemon on
/// the reference machine. The prepared inputs count in the peak RSS, so
/// this is no larger than it needs to be; a run that exhausts them ends
/// its measured phase early and says so.
const COLD_REQUESTS_PER_SECOND: usize = 300;

/// Workers for the in-process correctness checks.
const CHECK_WORKERS: usize = 2;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: u64,
    /// Run the traced variant, reporting per-layer metrics.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// Describes a missing or malformed argument.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut map = HashMap::new();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            map.insert(flag, value);
        }
        let get = |k: &str| map.get(k).ok_or(format!("missing {k}"));
        let number = |k: &str| -> Result<u64, String> {
            get(k)?
                .parse()
                .map_err(|_| format!("{k} must be a whole number"))
        };
        let workload = get("--workload")?;
        let args = Args {
            workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
            seed: number("--seed")?,
            seconds: number("--seconds")?.max(1),
            trace: match get("--trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
            },
        };
        if map.len() != 4 {
            return Err("expected exactly --workload, --seed, --seconds and --trace".into());
        }
        Ok(args)
    }
}

/// A run's result: what the last output line reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Requests and checks attempted and failed.
    pub attempts: Attempts,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<LayerMetric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result object, one line.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .fold(Json::object(), |obj, (name, value, unit)| {
                obj.field(
                    name.clone(),
                    Json::object()
                        .field("value", Json::num(*value))
                        .field("unit", *unit)
                        .build(),
                )
            });
        Json::object()
            .field("correct", self.correct)
            .field("attempted", self.attempts.attempted)
            .field("failed", self.attempts.failed)
            .field("metrics", metrics.build())
            .build()
            .dump()
    }
}

/// A fleet up and ready for the measured phase.
struct Ready {
    fleet: Fleet,
    /// Warm-pass responses by job (`hot-fleet` only).
    warm: Option<Phase>,
}

fn boot(workload: Workload, inputs: &Inputs) -> Result<Ready, String> {
    let hot = workload == Workload::HotFleet;
    let fleet = if hot {
        Fleet::boot(2, true)?
    } else {
        Fleet::boot(1, false)?
    };
    let warm = hot.then(|| {
        let n = inputs.jobs.len();
        closed_loop(
            &LoopConfig {
                addr: &fleet.entry(),
                duration: Duration::ZERO,
                min_sent: n,
                tracer: None,
                keep_bodies: true,
            },
            &inputs.jobs,
            &|i| (i < n).then_some(i),
            &expect_miss,
        )
    });
    Ok(Ready { fleet, warm })
}

fn cache_header(response: &ClientResponse) -> &str {
    response.header("x-fastvg-cache").unwrap_or("none")
}

fn expect_miss(_: usize, response: &ClientResponse) -> Result<(), String> {
    match cache_header(response) {
        "miss" => Ok(()),
        other => Err(format!("cold request answered from cache ({other})")),
    }
}

/// Runs the measured phase against `ready`.
fn measure(
    workload: Workload,
    inputs: &Inputs,
    ready: &Ready,
    seconds: u64,
    tracer: Option<&Arc<Tracer>>,
) -> Phase {
    let warm_bodies: HashMap<usize, &[u8]> = ready
        .warm
        .iter()
        .flat_map(|w| {
            w.samples
                .iter()
                .filter_map(|s| Some((s.job(), w.bodies.get(&s.seq)?.as_slice())))
        })
        .collect();
    let hot_check = |job: usize, response: &ClientResponse| -> Result<(), String> {
        match cache_header(response) {
            "hit" | "peer" => {}
            other => return Err(format!("hot request not served from cache ({other})")),
        }
        match warm_bodies.get(&job) {
            Some(warm) if *warm == response.body.as_slice() => Ok(()),
            _ => Err("hot body differs from its warm body".into()),
        }
    };
    let cold = workload.is_cold();
    // The hot path is a chain of thread hand-offs. On a 2-vCPU VM each
    // cross-CPU wake-up is a trip through the hypervisor whose cost
    // swings with the host's load, so hot-fleet measures on one CPU,
    // where the figures are the hot path's own cost per request.
    let all_cpus = (!cold).then(crate::proc::affinity).flatten();
    if let Some(set) = &all_cpus {
        crate::proc::set_affinity(&crate::proc::first_cpu(set));
    }
    let phase = closed_loop(
        &LoopConfig {
            addr: &ready.fleet.entry(),
            duration: Duration::from_secs(seconds),
            min_sent: if cold { inputs.quality_jobs } else { 0 },
            tracer,
            keep_bodies: cold,
        },
        &inputs.jobs,
        &|i| inputs.job_at(i),
        if cold { &expect_miss } else { &hot_check },
    );
    if let Some(set) = &all_cpus {
        crate::proc::set_affinity(set);
    }
    phase
}

/// In-process outcomes of `jobs`, computed on the check workers in
/// `pauses + 1` chunks with `pause` run between consecutive chunks.
fn expectations(
    inputs: &Inputs,
    jobs: &[usize],
    pauses: usize,
    mut pause: impl FnMut() -> Result<(), String>,
) -> Result<HashMap<usize, Expected>, String> {
    let mut unique = jobs.to_vec();
    unique.sort_unstable();
    unique.dedup();
    let pool = ThreadPool::new(CHECK_WORKERS);
    let mut chunks = unique.chunks(unique.len().div_ceil(pauses + 1).max(1));
    let mut out = HashMap::with_capacity(unique.len());
    for k in 0..=pauses {
        for outcome in chunks
            .next()
            .map(|chunk| pool.par_map(chunk, |_, &j| expected(&inputs.jobs[j]).map(|e| (j, e))))
            .unwrap_or_default()
        {
            let (j, e) = outcome?;
            out.insert(j, e);
        }
        if k < pauses {
            pause()?;
        }
    }
    Ok(out)
}

/// Checks every kept body against its in-process outcome, tallies the
/// phase's attempts, and returns the verdict per job.
fn check_phase(
    phase: &Phase,
    inputs: &Inputs,
    expected: &HashMap<usize, Expected>,
    attempts: &mut Attempts,
    failures: &mut Vec<String>,
) -> HashMap<usize, Verdict> {
    let mut verdicts = HashMap::new();
    for sample in &phase.samples {
        let job = sample.job();
        let method = inputs.jobs[job].method;
        let body = phase.bodies.get(&sample.seq);
        let checked = match (phase.failures.get(&sample.seq), body) {
            (Some(failure), _) => Err(failure.clone()),
            (None, None) => Ok(None),
            (None, Some(body)) => expected
                .get(&job)
                .ok_or_else(|| "no in-process outcome".to_string())
                .and_then(|want| check_body(body, method, want))
                .map(Some),
        };
        attempts.record(checked.is_err());
        match checked {
            Ok(Some(verdict)) => {
                verdicts.insert(job, verdict);
            }
            Ok(None) => {}
            Err(why) => {
                if failures.len() < 8 {
                    failures.push(format!("request {} (job {job}): {why}", sample.seq));
                }
            }
        }
    }
    verdicts
}

/// The exact-count quality metrics over the quality set.
struct Quality {
    probes_per_job: f64,
    ok_frac: f64,
    speedup: f64,
}

fn quality(requested: &[Verdict], devices: &[(usize, Verdict)]) -> Quality {
    let fast: Vec<&Verdict> = requested
        .iter()
        .filter(|v| v.method == Method::FastExtraction && v.extracted)
        .collect();
    let probes_per_job =
        fast.iter().map(|v| v.probes as f64).sum::<f64>() / fast.len().max(1) as f64;
    let ok_frac =
        requested.iter().filter(|v| v.success).count() as f64 / requested.len().max(1) as f64;
    let mut by_device: HashMap<usize, (Option<Verdict>, Option<Verdict>)> = HashMap::new();
    for (device, v) in devices {
        let slot = by_device.entry(*device).or_default();
        match v.method {
            Method::HoughBaseline => slot.1 = Some(*v),
            _ => slot.0 = Some(*v),
        }
    }
    let ratios: Vec<f64> = by_device
        .values()
        .filter_map(|pair| match pair {
            (Some(f), Some(h)) if f.success && h.success && f.dwell_ns > 0 => {
                Some(h.dwell_ns as f64 / f.dwell_ns as f64)
            }
            _ => None,
        })
        .collect();
    Quality {
        probes_per_job,
        ok_frac,
        speedup: ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
    }
}

fn latencies_ms(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.latency_ns as f64 / 1e6)
        .collect()
}

/// Runs the benchmark as `args` asks.
///
/// # Errors
///
/// Returns failures that leave no result to report (a fleet that does
/// not boot, inputs that do not generate).
pub fn run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let mut out = Outcome::default();
    let mut failures = Vec::new();

    let table1 = Table1::reproduce(CHECK_WORKERS)?;
    let verified = table1.verify();
    out.attempts.record(verified.is_err());
    failures.extend(verified.err());
    out.notes.push(format!(
        "table1: fast {}/12, baseline {}/12, mean speedup {:.2}x",
        table1.fast, table1.baseline, table1.mean_speedup
    ));

    let capacity = COLD_REQUESTS_PER_SECOND * args.seconds as usize;
    let inputs = build(workload, args.seed, capacity);
    // Every hot-fleet set-up (seconds long, with its warm pass) runs
    // here; the cold workloads boot their measured daemon here and take
    // the rest of their set-up samples during the check phase.
    let setups = if workload.is_cold() { 1 } else { HOT_SETUPS };
    let mut setup_s = Vec::with_capacity(COLD_SETUPS);
    let mut warm_phases = Vec::new();
    let mut ready = None;
    for k in 0..setups {
        let started = Instant::now();
        let booted = boot(workload, &inputs)?;
        setup_s.push(started.elapsed().as_secs_f64());
        warm_phases.extend(booted.warm.clone());
        if k + 1 < setups {
            booted.fleet.shutdown();
        } else {
            ready = Some(booted);
        }
    }
    let ready = ready.expect("at least one set-up");

    // The traced run splits its measuring time between an untraced and
    // a traced phase, so it takes about as long as an untraced run.
    let seconds = if args.trace {
        args.seconds.div_ceil(2)
    } else {
        args.seconds
    };
    let untraced = measure(workload, &inputs, &ready, seconds, None);
    ready.fleet.shutdown();
    let traced = if args.trace {
        // A fresh fleet, so the traced phase is as cold as the untraced.
        let fresh = boot(workload, &inputs)?;
        warm_phases.extend(fresh.warm.clone());
        let tracer = Tracer::new("client", args.seed);
        let flusher = tracer.spawn_flusher(Duration::from_millis(50));
        let phase = measure(workload, &inputs, &fresh, seconds, Some(&tracer));
        drop(flusher);
        Some((fresh, phase, tracer))
    } else {
        None
    };

    // Every cold response is checked against an in-process run.
    let measured: Vec<&Phase> = std::iter::once(&untraced)
        .chain(traced.as_ref().map(|(_, phase, _)| phase))
        .collect();
    let mut checked_jobs: Vec<usize> = warm_phases
        .iter()
        .chain(measured.iter().copied())
        .flat_map(|p| {
            p.samples
                .iter()
                .filter(|s| p.bodies.contains_key(&s.seq))
                .map(|s| s.job())
        })
        .collect();
    if workload == Workload::ColdFast {
        checked_jobs.extend(0..inputs.quality_jobs);
    }
    let pauses = if workload.is_cold() {
        COLD_SETUPS - setup_s.len()
    } else {
        0
    };
    let in_process = expectations(&inputs, &checked_jobs, pauses, || {
        let started = Instant::now();
        let booted = boot(workload, &inputs)?;
        setup_s.push(started.elapsed().as_secs_f64());
        booted.fleet.shutdown();
        Ok(())
    })?;
    let mut verdicts = HashMap::new();
    for phase in warm_phases.iter().chain(measured.iter().copied()) {
        verdicts.extend(check_phase(
            phase,
            &inputs,
            &in_process,
            &mut out.attempts,
            &mut failures,
        ));
    }

    let quality_set: Vec<usize> = (0..inputs.quality_jobs).collect();
    let requested: Vec<Verdict> = quality_set
        .iter()
        .filter_map(|j| verdicts.get(j).copied())
        .collect();
    if requested.len() != quality_set.len() {
        failures.push(format!(
            "quality set incomplete: {} of {} jobs checked",
            requested.len(),
            quality_set.len()
        ));
    }
    let mut devices: Vec<(usize, Verdict)> = quality_set
        .iter()
        .filter_map(|&j| Some((inputs.jobs[j].device, *verdicts.get(&j)?)))
        .collect();
    if workload == Workload::ColdFast {
        // The Hough half of the speedup runs in process on cold-fast.
        let hough: Vec<Job> = quality_set
            .iter()
            .map(|&j| Job {
                method: Method::HoughBaseline,
                ..inputs.jobs[j].clone()
            })
            .collect();
        let outcomes = ThreadPool::new(CHECK_WORKERS).par_map(&hough, |_, job| expected(job));
        for (job, outcome) in hough.iter().zip(outcomes) {
            devices.push((job.device, outcome?.verdict(Method::HoughBaseline)));
        }
    }
    let q = quality(&requested, &devices);

    match traced {
        None => {
            out.metrics = end_to_end(&untraced, &setup_s, &inputs, &q, &mut out.notes);
        }
        Some((fleet, phase, tracer)) => {
            let p50 = |p: &Phase| median(&latencies_ms(&p.samples, |_| true)).unwrap_or(0.0);
            let cold_source: &Phase = match workload {
                Workload::HotFleet => warm_phases.last().ok_or("no warm pass")?,
                _ => &phase,
            };
            let cold_latency: HashMap<usize, Duration> = cold_source
                .samples
                .iter()
                .map(|s| (s.job(), s.latency()))
                .collect();
            let bodies: HashMap<usize, Vec<u8>> = cold_source
                .samples
                .iter()
                .filter_map(|s| Some((s.job(), cold_source.bodies.get(&s.seq)?.clone())))
                .collect();
            let hot: Vec<usize> = match workload {
                Workload::HotFleet => quality_set.clone(),
                _ => {
                    let done = &phase.samples;
                    done[done.len().saturating_sub(crate::layers::HOT_JOBS)..]
                        .iter()
                        .map(Sample::job)
                        .collect()
                }
            };
            let input = ReplayInput {
                workload,
                jobs: &inputs.jobs,
                replay: &quality_set,
                cold_latency: &cold_latency,
                bodies: &bodies,
                hot: &hot,
                fleet: &fleet.fleet,
                p50_ms: (p50(&phase), p50(&untraced)),
            };
            let layers = replay(&input, &tracer);
            fleet.fleet.shutdown();
            out.metrics = layers?;
            let metric = |name: &str| {
                out.metrics
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map_or(0.0, |m| m.1)
            };
            out.notes.push(format!(
                "qd-dataset takes {:.1}% of the client latency of {}'s cold requests \
                 and {:.1}% of their in-process work",
                metric("dataset.request_share_pct"),
                workload.name(),
                metric("dataset.work_share_pct"),
            ));
        }
    }
    out.notes
        .extend(failures.iter().map(|f| format!("FAILED: {f}")));
    out.correct = failures.is_empty() && out.attempts.failed == 0;
    Ok(out)
}

/// The end-to-end metrics of the untraced measured phase.
fn end_to_end(
    phase: &Phase,
    setup_s: &[f64],
    inputs: &Inputs,
    q: &Quality,
    notes: &mut Vec<String>,
) -> Vec<LayerMetric> {
    let n = phase.samples.len();
    let all = latencies_ms(&phase.samples, |_| true);
    let fast = latencies_ms(&phase.samples, |s| {
        inputs.jobs[s.job()].method == Method::FastExtraction
    });
    let tail = tail(&all);
    let failed = phase.failures.len();
    notes.push(match tail {
        Some(t) => format!(
            "latency_tail_ms is p{} over {} samples ({} beyond it)",
            t.percentile, t.samples, t.beyond
        ),
        None => format!("latency_tail_ms: only {n} samples, no tail with 10 beyond it"),
    });
    let mut sorted = all.clone();
    sorted.sort_by(f64::total_cmp);
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.1}", sorted.get(d * n / 10).copied().unwrap_or(0.0)))
        .collect();
    notes.push(format!("latency deciles (ms): {}", deciles.join(" ")));
    if inputs.order.is_empty() && n == inputs.jobs.len() {
        notes.push("the cold request sequence ran out before the measured time elapsed".into());
    }
    notes.push(format!(
        "measured phase: {n} requests in {:.3} s, {failed} failed",
        phase.elapsed.as_secs_f64(),
    ));
    vec![
        ("setup_s".into(), median(setup_s).unwrap_or(0.0), "s"),
        (
            "throughput_rps".into(),
            n as f64 / phase.elapsed.as_secs_f64(),
            "1/s",
        ),
        ("latency_p50_ms".into(), median(&all).unwrap_or(0.0), "ms"),
        (
            "latency_tail_ms".into(),
            tail.map_or(0.0, |t| t.value),
            "ms",
        ),
        (
            "fast_latency_p50_ms".into(),
            median(&fast).unwrap_or(0.0),
            "ms",
        ),
        (
            "cpu_ms_per_req".into(),
            phase.cpu.as_secs_f64() * 1e3 / n.max(1) as f64,
            "ms",
        ),
        (
            "peak_rss_mb".into(),
            phase.peak_rss_kib as f64 / 1024.0,
            "MiB",
        ),
        ("probes_per_job".into(), q.probes_per_job, "count"),
        ("extract_ok_frac".into(), q.ok_frac, "ratio"),
        ("modelled_speedup".into(), q.speedup, "x"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_exactly_the_four_flags() {
        let parsed = args("--workload hot-fleet --seed 9 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            parsed,
            Args {
                workload: Workload::HotFleet,
                seed: 9,
                seconds: 20,
                trace: true,
            }
        );
        assert!(args("--workload hot-fleet --seed 9 --seconds 20").is_err());
        assert!(args("--workload warm --seed 9 --seconds 20 --trace 0").is_err());
        assert!(args("--workload cold-fast --seed x --seconds 20 --trace 0").is_err());
        assert!(args("--workload cold-fast --seed 1 --seconds 20 --trace 2").is_err());
        assert!(args("--workload cold-fast --seed 1 --seconds 20 --trace 0 --x 1").is_err());
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut outcome = Outcome::default();
        outcome.attempts.record(false);
        outcome.metrics.push(("setup_s".into(), 0.25, "s"));
        let doc = Json::parse(&outcome.json_line()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn quality_counts_mutual_successes_only() {
        let v = |method, success, probes, dwell_ns| Verdict {
            method,
            extracted: probes > 0,
            success,
            probes,
            dwell_ns,
        };
        let fast = Method::FastExtraction;
        let hough = Method::HoughBaseline;
        let devices = [
            (0, v(fast, true, 100, 100)),
            (0, v(hough, true, 1000, 1000)),
            (1, v(fast, true, 300, 300)),
            (1, v(hough, false, 1000, 1000)),
            (2, v(fast, false, 0, 0)),
            (2, v(hough, true, 4000, 4000)),
        ];
        let requested: Vec<Verdict> = devices.iter().map(|(_, v)| *v).collect();
        let q = quality(&requested, &devices);
        assert_eq!(q.probes_per_job, 200.0);
        assert_eq!(q.ok_frac, 4.0 / 6.0);
        assert_eq!(q.speedup, 10.0);
    }
}
