//! Workload inputs, derived from the seed argument alone.
//!
//! Every request is a `POST /extract` body naming a seeded device spec
//! from [`qd_dataset::random_specs`] (sizes cycle 63/100/200 px), a
//! method and the `sim` backend. The daemon receives only these bytes;
//! the seed never crosses the wire except inside each spec.

use fastvg_core::report::Method;
use fastvg_wire::{request_canonical, request_fingerprint, Json};
use qd_dataset::{random_specs, BenchmarkSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The probe backend every request names.
pub const BACKEND: &str = "sim";

/// Devices per shuffle block on `cold-paired`: two of each size, so a
/// block's 12 (device, method) pairs mix 63 px fast jobs with 200 px
/// Hough jobs.
pub const PAIRED_BLOCK: usize = 6;

/// Distinct devices in the `hot-fleet` set (each requested with both
/// methods).
pub const HOT_DEVICES: usize = 30;

/// Devices whose outcomes feed the exact-count quality metrics
/// (`probes_per_job`, `extract_ok_frac`, `modelled_speedup`) and the
/// traced replay. A multiple of [`PAIRED_BLOCK`]; every run completes
/// at least this prefix, so the counts repeat exactly for a seed.
pub const QUALITY_DEVICES: usize = 48;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct fast requests on one daemon: every request synthesizes.
    ColdFast,
    /// Each device once with `fast` and once with `hough`, shuffled.
    ColdPaired,
    /// A warmed set replayed through a router over two shards.
    HotFleet,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ColdFast, Workload::ColdPaired, Workload::HotFleet];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdFast => "cold-fast",
            Workload::ColdPaired => "cold-paired",
            Workload::HotFleet => "hot-fleet",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether every request misses the cache and extracts.
    pub fn is_cold(self) -> bool {
        self != Workload::HotFleet
    }
}

/// One request: the device, the method and the exact body bytes.
#[derive(Debug, Clone)]
pub struct Job {
    /// Index of the device in the workload's spec sequence.
    pub device: usize,
    /// The device spec.
    pub spec: BenchmarkSpec,
    /// The extraction method requested.
    pub method: Method,
    /// The `POST /extract` body.
    pub body: Vec<u8>,
}

impl Job {
    fn new(device: usize, spec: BenchmarkSpec, method: Method) -> Job {
        let body = Json::object()
            .field("spec", spec.to_json())
            .field("method", method.wire_name())
            .field("backend", BACKEND)
            .build()
            .dump()
            .into_bytes();
        Job {
            device,
            spec,
            method,
            body,
        }
    }

    /// The fingerprint the daemon caches and the router places this job
    /// by, from its canonical request.
    pub fn fingerprint(&self) -> u64 {
        request_fingerprint(&request_canonical(
            self.method.wire_name(),
            BACKEND,
            self.spec.to_json(),
        ))
    }
}

/// A workload's request sequence. Cold workloads send `jobs` in order,
/// each once; `hot-fleet` warms with `jobs` and then loops over `order`.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Every distinct request, in warm/send order.
    pub jobs: Vec<Job>,
    /// For `hot-fleet`: the job index of each position in one loop.
    pub order: Vec<usize>,
    /// Jobs at the head of `jobs` that make up the quality set.
    pub quality_jobs: usize,
}

impl Inputs {
    /// The job sent at sequence position `i`, or `None` once a cold
    /// sequence is exhausted.
    pub fn job_at(&self, i: usize) -> Option<usize> {
        if self.order.is_empty() {
            (i < self.jobs.len()).then_some(i)
        } else {
            Some(self.order[i % self.order.len()])
        }
    }
}

/// Mixes the workload into the seed so the shuffles of different
/// workloads are independent.
fn shuffle_rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(fastvg_wire::mix64(seed ^ salt))
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// Builds the inputs of `workload` for `seed`. Cold workloads get
/// `capacity` requests — more than any run can send, since a run never
/// reuses a request.
pub fn build(workload: Workload, seed: u64, capacity: usize) -> Inputs {
    match workload {
        Workload::ColdFast => {
            let n = capacity.max(QUALITY_DEVICES);
            let jobs = random_specs(n, seed)
                .into_iter()
                .enumerate()
                .map(|(i, spec)| Job::new(i, spec, Method::FastExtraction))
                .collect();
            Inputs {
                jobs,
                order: Vec::new(),
                quality_jobs: QUALITY_DEVICES,
            }
        }
        Workload::ColdPaired => {
            let blocks = (capacity / 2).max(QUALITY_DEVICES).div_ceil(PAIRED_BLOCK);
            let specs = random_specs(blocks * PAIRED_BLOCK, seed);
            let mut rng = shuffle_rng(seed, 0x0c01_d9a1);
            let mut jobs = Vec::with_capacity(specs.len() * 2);
            for (b, block) in specs.chunks(PAIRED_BLOCK).enumerate() {
                let mut pairs: Vec<Job> = block
                    .iter()
                    .enumerate()
                    .flat_map(|(k, spec)| {
                        let device = b * PAIRED_BLOCK + k;
                        [Method::FastExtraction, Method::HoughBaseline]
                            .map(|m| Job::new(device, spec.clone(), m))
                    })
                    .collect();
                shuffle(&mut pairs, &mut rng);
                jobs.extend(pairs);
            }
            Inputs {
                jobs,
                order: Vec::new(),
                quality_jobs: 2 * QUALITY_DEVICES,
            }
        }
        Workload::HotFleet => {
            let jobs: Vec<Job> = random_specs(HOT_DEVICES, seed)
                .into_iter()
                .enumerate()
                .flat_map(|(i, spec)| {
                    [Method::FastExtraction, Method::HoughBaseline]
                        .map(|m| Job::new(i, spec.clone(), m))
                })
                .collect();
            let mut order: Vec<usize> = (0..jobs.len()).collect();
            shuffle(&mut order, &mut shuffle_rng(seed, 0x0407_f1ee));
            let quality_jobs = jobs.len();
            Inputs {
                jobs,
                order,
                quality_jobs,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn bytes(inputs: &Inputs) -> Vec<Vec<u8>> {
        inputs.jobs.iter().map(|j| j.body.clone()).collect()
    }

    #[test]
    fn same_seed_gives_same_request_bytes() {
        for w in Workload::ALL {
            let a = build(w, 7, 300);
            let b = build(w, 7, 300);
            assert_eq!(bytes(&a), bytes(&b), "{}", w.name());
            assert_eq!(a.order, b.order, "{}", w.name());
            let c = build(w, 8, 300);
            assert_ne!(bytes(&a), bytes(&c), "{}", w.name());
        }
    }

    #[test]
    fn a_larger_capacity_extends_the_same_sequence() {
        for w in [Workload::ColdFast, Workload::ColdPaired] {
            let small = build(w, 11, 120);
            let large = build(w, 11, 600);
            assert_eq!(
                bytes(&small)[..small.jobs.len()],
                bytes(&large)[..small.jobs.len()],
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn no_two_cold_requests_share_a_fingerprint() {
        for w in [Workload::ColdFast, Workload::ColdPaired] {
            let inputs = build(w, 3, 4000);
            let fingerprints: HashSet<u64> = inputs.jobs.iter().map(Job::fingerprint).collect();
            assert_eq!(fingerprints.len(), inputs.jobs.len(), "{}", w.name());
        }
    }

    #[test]
    fn paired_blocks_hold_both_methods_of_every_device() {
        let inputs = build(Workload::ColdPaired, 5, 200);
        for block in inputs.jobs.chunks(2 * PAIRED_BLOCK) {
            let mut seen: Vec<(usize, &str)> = block
                .iter()
                .map(|j| (j.device, j.method.wire_name()))
                .collect();
            seen.sort_unstable();
            let first = block.iter().map(|j| j.device).min().unwrap();
            let expected: Vec<(usize, &str)> = (first..first + PAIRED_BLOCK)
                .flat_map(|d| [(d, "fast"), (d, "hough")])
                .collect();
            assert_eq!(seen, expected);
        }
        assert_eq!(inputs.quality_jobs % (2 * PAIRED_BLOCK), 0);
    }

    #[test]
    fn hot_order_visits_every_job_once_per_loop() {
        let inputs = build(Workload::HotFleet, 9, 0);
        let mut order = inputs.order.clone();
        order.sort_unstable();
        assert_eq!(order, (0..inputs.jobs.len()).collect::<Vec<_>>());
        assert_eq!(inputs.job_at(inputs.order.len()), Some(inputs.order[0]));
    }
}
