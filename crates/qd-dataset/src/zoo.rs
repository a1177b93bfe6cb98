//! The hostile-device zoo: a seeded generator of scenario families far
//! beyond the 12 hand-picked Table 1 benchmarks.
//!
//! Each [`ZooScenario`] pairs a wire-addressable [`BenchmarkSpec`] (the
//! device + measurement recipe the generator realizes into a diagram)
//! with an `hwsim:<profile>` backend spec (the instrument the diagram is
//! probed through). Scenarios come in four [`ZooFamily`] axes, each
//! swept over three [`Severity`] bands:
//!
//! * [`ZooFamily::NoiseRegime`] — white/drift/telegraph noise scaled
//!   from "noisy but usable" up to just short of the swamped regime
//!   where the paper's benchmarks 1–2 live.
//! * [`ZooFamily::DistortedHoneycomb`] — strong cross lever arms and
//!   mutual-capacitance extremes shear the honeycomb, compounded by DAC
//!   crosstalk in the instrument.
//! * [`ZooFamily::DriftingBackground`] — slow background wander both in
//!   the diagram (random-walk noise) and the instrument (1/f drift).
//! * [`ZooFamily::DeadChannels`] — clean devices behind increasingly
//!   broken instruments: dead pixels, coarse DACs, clipped channels.
//!
//! Generation is deterministic from one zoo seed: every scenario derives
//! a private sub-seed by hashing `(zoo seed, family, severity, index)`,
//! so cohorts are reproducible, insensitive to generation order, and
//! safe to render in parallel through [`crate::generate_suite`] — the
//! same contract the paper suite has.

use crate::{BenchmarkSpec, NoiseRecipe};
use fastvg_wire::fnv1a64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A scenario-family axis of the zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZooFamily {
    /// Measurement-noise regimes (white + drift + telegraph).
    NoiseRegime,
    /// Sheared honeycombs: strong cross-coupling plus DAC crosstalk.
    DistortedHoneycomb,
    /// Slow background wander in device and instrument.
    DriftingBackground,
    /// Clean devices behind broken instruments (dead pixels, coarse
    /// clipped DACs).
    DeadChannels,
}

impl ZooFamily {
    /// Every family, fixed zoo order.
    pub const ALL: [ZooFamily; 4] = [
        ZooFamily::NoiseRegime,
        ZooFamily::DistortedHoneycomb,
        ZooFamily::DriftingBackground,
        ZooFamily::DeadChannels,
    ];

    /// Short machine name (used in labels and matrix artifacts).
    pub fn name(self) -> &'static str {
        match self {
            ZooFamily::NoiseRegime => "noise",
            ZooFamily::DistortedHoneycomb => "honeycomb",
            ZooFamily::DriftingBackground => "drift",
            ZooFamily::DeadChannels => "dead",
        }
    }
}

/// How hard a scenario leans into its family's pathology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Degraded but within what a careful experiment tolerates.
    Mild,
    /// Visibly pathological; methods should start dropping out.
    Moderate,
    /// Hostile; success is the exception.
    Severe,
}

impl Severity {
    /// Every band, mild → severe.
    pub const ALL: [Severity; 3] = [Severity::Mild, Severity::Moderate, Severity::Severe];

    /// Short machine name (used in labels and matrix artifacts).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Mild => "mild",
            Severity::Moderate => "moderate",
            Severity::Severe => "severe",
        }
    }

    /// 0.0 (mild), 0.5 (moderate), 1.0 (severe) — the interpolation
    /// knob the family builders sweep.
    fn t(self) -> f64 {
        match self {
            Severity::Mild => 0.0,
            Severity::Moderate => 0.5,
            Severity::Severe => 1.0,
        }
    }
}

/// One zoo cell: a device spec plus the instrument profile it is probed
/// through.
#[derive(Debug, Clone, PartialEq)]
pub struct ZooScenario {
    /// The family axis this scenario belongs to.
    pub family: ZooFamily,
    /// The severity band within the family.
    pub severity: Severity,
    /// The device + measurement recipe (wire-addressable: round-trips
    /// through [`BenchmarkSpec::to_json`]).
    pub spec: BenchmarkSpec,
    /// The full backend spec (`hwsim:<profile>`) the scenario's diagram
    /// is probed through — resolvable by the standard registry.
    pub backend: String,
}

impl ZooScenario {
    /// The scenario's stable label (`zoo-dead-severe-03`): used for tape
    /// fan-out and artifact rows.
    pub fn label(&self) -> String {
        format!(
            "zoo-{}-{}-{:02}",
            self.family.name(),
            self.severity.name(),
            self.spec.index
        )
    }
}

fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// The per-scenario sub-seed: a hash of the zoo seed and the cell
/// coordinates, so scenarios are independent of generation order and of
/// each other.
fn cell_seed(seed: u64, family: ZooFamily, severity: Severity, k: usize) -> u64 {
    let text = format!("zoo/{seed}/{}/{}/{k}", family.name(), severity.name());
    fnv1a64(text.as_bytes())
}

/// A healthy randomized device in the `random_specs` regime — the
/// baseline every family distorts. Sizes alternate 63/100 (the 200 px
/// tier is left to Table 1; the zoo optimizes for scenario *count*).
fn healthy_spec(index: usize, rng: &mut StdRng) -> BenchmarkSpec {
    let sizes = [63usize, 100];
    let mut s = BenchmarkSpec::clean(index, sizes[index % sizes.len()]);
    let d0 = rng.random_range(0.008..0.013);
    let d1 = d0 * rng.random_range(0.75..1.33);
    s.lever_arms = [
        [d0, d0 * rng.random_range(0.08..0.32)],
        [d1 * rng.random_range(0.08..0.32), d1],
    ];
    s.mutual = rng.random_range(0.05..0.25);
    s.temperature = rng.random_range(0.0010..0.0020);
    s.noise = NoiseRecipe::clean();
    s.seed = rng.random();
    s
}

fn build(family: ZooFamily, severity: Severity, index: usize, rng: &mut StdRng) -> ZooScenario {
    let t = severity.t();
    let mut spec = healthy_spec(index, rng);
    let backend = match family {
        ZooFamily::NoiseRegime => {
            // Sweep noisy → a third of the benchmarks-1-2 recipe: the
            // sensor step is ≈0.5–0.7 nA, so even that fraction of the
            // swamped regime drowns most scans — severe is meant to be
            // where failures dominate, not a coin flip.
            let (noisy, swamped) = (NoiseRecipe::noisy(), NoiseRecipe::swamped());
            spec.noise = NoiseRecipe {
                white_sigma: lerp(noisy.white_sigma, 0.35 * swamped.white_sigma, t),
                drift_step: lerp(noisy.drift_step, 0.35 * swamped.drift_step, t),
                drift_relaxation: lerp(noisy.drift_relaxation, swamped.drift_relaxation, t),
                telegraph_amplitude: lerp(
                    noisy.telegraph_amplitude,
                    0.35 * swamped.telegraph_amplitude,
                    t,
                ),
                telegraph_probability: lerp(
                    noisy.telegraph_probability,
                    swamped.telegraph_probability,
                    t,
                ),
            };
            "hwsim:nominal".to_string()
        }
        ZooFamily::DistortedHoneycomb => {
            // Cross arms grow toward the diagonal (near-parallel
            // transition lines) while mutual capacitance runs to its
            // extremes; the instrument shears further via crosstalk.
            let cross = lerp(0.25, 0.55, t);
            spec.lever_arms[0][1] = spec.lever_arms[0][0] * cross * rng.random_range(0.9..1.1);
            spec.lever_arms[1][0] = spec.lever_arms[1][1] * cross * rng.random_range(0.9..1.1);
            spec.mutual = lerp(0.25, 0.45, t);
            match severity {
                Severity::Mild => "hwsim:nominal".to_string(),
                Severity::Moderate => "hwsim:nominal,xt=0.04".to_string(),
                Severity::Severe => "hwsim:nominal,xt=0.1".to_string(),
            }
        }
        ZooFamily::DriftingBackground => {
            // Random-walk drift in the diagram plus 1/f drift in the
            // sensor chain, with slow relaxation so the background
            // really wanders across a scan.
            spec.noise = NoiseRecipe {
                white_sigma: 0.03,
                drift_step: lerp(0.004, 0.03, t),
                drift_relaxation: 0.01,
                telegraph_amplitude: 0.0,
                telegraph_probability: 0.0,
            };
            match severity {
                Severity::Mild => "hwsim:nominal,drift=0.05".to_string(),
                Severity::Moderate => "hwsim:nominal,drift=0.2".to_string(),
                Severity::Severe => "hwsim:nominal,drift=0.5".to_string(),
            }
        }
        ZooFamily::DeadChannels => {
            // The device is healthy; the instrument is not. Severity
            // rides the hwsim preset ladder with the dead-pixel rate
            // pushed past each preset's default.
            match severity {
                Severity::Mild => "hwsim:aged".to_string(),
                Severity::Moderate => "hwsim:worn,dead=0.05".to_string(),
                Severity::Severe => "hwsim:hostile,dead=0.2".to_string(),
            }
        }
    };
    ZooScenario {
        family,
        severity,
        spec,
        backend,
    }
}

/// Generates the zoo: `per_cell` scenarios for each of the 4 families ×
/// 3 severity bands (`4 × 3 × per_cell` total), deterministically from
/// `seed`.
///
/// Scenario `spec.index` runs 1-based across the whole zoo in cell
/// order, so [`ZooScenario::label`] is unique. Every spec round-trips
/// the wire schema and every backend spec resolves through
/// `BackendRegistry::standard()`.
pub fn zoo_specs(per_cell: usize, seed: u64) -> Vec<ZooScenario> {
    let mut out = Vec::with_capacity(ZooFamily::ALL.len() * Severity::ALL.len() * per_cell);
    let mut index = 0usize;
    for family in ZooFamily::ALL {
        for severity in Severity::ALL {
            for k in 0..per_cell {
                index += 1;
                let mut rng = StdRng::seed_from_u64(cell_seed(seed, family, severity, k));
                out.push(build(family, severity, index, &mut rng));
            }
        }
    }
    out
}

/// The pinned seed the CI robustness matrix runs at.
pub const DEFAULT_ZOO_SEED: u64 = 0x0DDC0DE;

#[cfg(test)]
mod tests {
    use super::*;
    use fastvg_wire::Json;

    #[test]
    fn zoo_covers_every_cell_with_unique_labels() {
        let zoo = zoo_specs(2, 1);
        assert_eq!(zoo.len(), 4 * 3 * 2);
        let labels: std::collections::HashSet<String> =
            zoo.iter().map(ZooScenario::label).collect();
        assert_eq!(labels.len(), zoo.len(), "labels must be unique");
        for family in ZooFamily::ALL {
            for severity in Severity::ALL {
                let n = zoo
                    .iter()
                    .filter(|s| s.family == family && s.severity == severity)
                    .count();
                assert_eq!(n, 2, "{}/{}", family.name(), severity.name());
            }
        }
    }

    #[test]
    fn zoo_specs_round_trip_the_wire_schema() {
        for s in zoo_specs(1, 5) {
            let text = s.spec.to_json().dump();
            let back = BenchmarkSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, s.spec, "{}", s.label());
        }
    }

    #[test]
    fn scenarios_generate_diagrams() {
        let zoo = zoo_specs(1, 5);
        // One per family is enough here; the full sweep runs in bench.
        for s in zoo.iter().step_by(3) {
            let b = crate::generate(&s.spec).expect("zoo spec generates");
            assert_eq!(b.csd.size(), (s.spec.size, s.spec.size));
        }
    }

    #[test]
    fn severity_orders_the_noise_family() {
        let zoo = zoo_specs(1, 9);
        let sigma = |sev: Severity| {
            zoo.iter()
                .find(|s| s.family == ZooFamily::NoiseRegime && s.severity == sev)
                .unwrap()
                .spec
                .noise
                .white_sigma
        };
        assert!(sigma(Severity::Mild) < sigma(Severity::Moderate));
        assert!(sigma(Severity::Moderate) < sigma(Severity::Severe));
    }
}
