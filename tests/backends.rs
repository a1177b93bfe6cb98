//! Tier-1 backend-layer coverage: the registry resolves every shipped
//! spec form and rejects hostile ones at the door, and record → replay
//! tapes reproduce full extraction runs bit-identically — the
//! hardware-free regression fixtures the `SourceBackend` redesign
//! exists for.

use fastvg::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fastvg-tier1-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A full extraction through a backend, batch path included.
fn extract_on(backend: &dyn SourceBackend, bench: &GeneratedBenchmark) -> ExtractionReport {
    let scenario = SourceScenario::new(bench.csd.clone())
        .with_label(format!("bench{:02}", bench.spec.index))
        .with_seed(bench.spec.seed);
    let mut session = backend.session(scenario).expect("backend opens");
    extract_with(&FastExtractor::new(), &mut session).expect("healthy benchmark extracts")
}

#[test]
fn registry_resolves_every_shipped_scheme_and_rejects_hostile_specs() {
    let registry = BackendRegistry::standard();
    assert_eq!(
        registry.schemes(),
        vec!["sim", "throttled", "replay", "record", "hwsim"]
    );

    for good in [
        "sim",
        "throttled:0",
        "throttled:50us",
        "throttled:2ms+sim",
        "replay:some/tape.tape",
        "record:tapes/{label}.tape",
        "record:tapes/{label}.tape+throttled:1ms",
        "hwsim:nominal",
        "hwsim:hostile",
        "hwsim:aged,dead=0.05,bits=12",
        "throttled:1ms+hwsim:worn",
        "record:tapes/{label}.tape+hwsim:hostile",
    ] {
        assert!(registry.resolve(good).is_ok(), "{good} must resolve");
    }
    for bad in [
        "",                       // no scheme
        "hardware:qpu0",          // unknown scheme
        "sim:extra",              // sim takes no args
        "throttled:50",           // dwell without unit
        "throttled:-5ms",         // negative dwell
        "throttled:11s",          // dwell over the cap
        "throttled:1.5ms",        // fractional dwell
        "replay:",                // no tape path
        "record:",                // no tape path
        "hwsim:",                 // no preset
        "hwsim:warp",             // unknown preset
        "hwsim:nominal,bits=4",   // DAC too coarse
        "hwsim:nominal,dead=2.0", // fraction out of range
        "hwsim:nominal,xt=nan",   // non-finite knob
    ] {
        assert!(registry.resolve(bad).is_err(), "{bad:?} must be rejected");
    }
}

#[test]
fn recorded_tapes_replay_bit_identically_across_the_suite() {
    // Satellite acceptance: record → replay over ≥3 of the 12 paper
    // benchmarks asserts bit-identical ExtractionReports.
    let dir = tmp_dir("roundtrip");
    let registry = BackendRegistry::standard();
    let recorder = registry
        .resolve(&format!("record:{}/{{label}}.tape", dir.display()))
        .unwrap();
    let replayer = registry
        .resolve(&format!("replay:{}/{{label}}.tape", dir.display()))
        .unwrap();

    for index in [3, 6, 12] {
        let bench = paper_benchmark(index).expect("paper benchmark");
        let recorded = extract_on(recorder.as_ref(), &bench);
        let replayed = extract_on(replayer.as_ref(), &bench);

        // Slopes, matrix, probe counts: bitwise.
        assert_eq!(
            replayed.slope_h.to_bits(),
            recorded.slope_h.to_bits(),
            "benchmark {index}: slope_h"
        );
        assert_eq!(
            replayed.slope_v.to_bits(),
            recorded.slope_v.to_bits(),
            "benchmark {index}: slope_v"
        );
        assert_eq!(replayed.matrix, recorded.matrix, "benchmark {index}");
        assert_eq!(replayed.probes, recorded.probes, "benchmark {index}");
        assert_eq!(replayed.unique_pixels, recorded.unique_pixels);
        assert_eq!(replayed.coverage.to_bits(), recorded.coverage.to_bits());
        assert_eq!(replayed.simulated_dwell, recorded.simulated_dwell);
        // Per-stage probe accounting survives too (elapsed is wall
        // clock and legitimately differs).
        let probes = |r: &ExtractionReport| -> Vec<(Stage, usize)> {
            r.stages.iter().map(|s| (s.stage, s.probes)).collect()
        };
        assert_eq!(probes(&replayed), probes(&recorded));

        // Scatters: the probe *sequence* is pinned by the tape, so the
        // replayed session's scatter matches a fresh sim run's.
        let scenario = || {
            SourceScenario::new(bench.csd.clone())
                .with_label(format!("bench{:02}", bench.spec.index))
        };
        let mut sim = SimBackend.session(scenario()).unwrap();
        let _ = extract_with(&FastExtractor::new(), &mut sim).unwrap();
        let mut rep = replayer.session(scenario()).unwrap();
        let _ = extract_with(&FastExtractor::new(), &mut rep).unwrap();
        assert_eq!(rep.scatter(), sim.scatter(), "benchmark {index}: scatter");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tapes_survive_disk_round_trips_losslessly() {
    let dir = tmp_dir("tape-io");
    let bench = paper_benchmark(6).unwrap();
    let recorder = BackendRegistry::standard()
        .resolve(&format!("record:{}/t.tape", dir.display()))
        .unwrap();
    let report = extract_on(recorder.as_ref(), &bench);

    let tape = Tape::load(&dir.join("t.tape")).expect("tape parses");
    assert_eq!(tape.probes.len(), report.probes, "one line per probe");
    assert_eq!(tape.header.seed, bench.spec.seed);
    assert_eq!(tape.header.dwell, Duration::ZERO, "sim imposes no dwell");
    // Text round trip is exact.
    assert_eq!(Tape::parse(&tape.to_text()).unwrap(), tape);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn strict_replay_trips_on_probe_sequence_divergence() {
    let dir = tmp_dir("divergence");
    let bench = paper_benchmark(6).unwrap();
    let recorder = BackendRegistry::standard()
        .resolve(&format!("record:{}/d.tape", dir.display()))
        .unwrap();
    let _ = extract_on(recorder.as_ref(), &bench);

    // A consumer with a *different* probe plan (shrinking disabled
    // changes the sweep sequence) must hit the strict-mode tripwire,
    // not silently read wrong currents.
    let replayer = BackendRegistry::standard()
        .resolve(&format!("replay:{}/d.tape", dir.display()))
        .unwrap();
    let mut session = replayer
        .session(SourceScenario::new(bench.csd.clone()))
        .unwrap();
    let diverging = FastExtractor::with_config(ExtractorConfig {
        sweep: SweepConfig { shrink: false },
        ..ExtractorConfig::default()
    });
    let tripped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = extract_with(&diverging, &mut session);
    }));
    let message = match tripped {
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default(),
        Ok(_) => panic!("diverging consumer must trip the strict replay"),
    };
    assert!(message.contains("replay divergence"), "{message}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn throttled_backend_sleeps_real_dwell_without_changing_results() {
    let bench = paper_benchmark(6).unwrap();
    let registry = BackendRegistry::standard();
    let plain = extract_on(registry.resolve("sim").unwrap().as_ref(), &bench);
    let started = std::time::Instant::now();
    let throttled = extract_on(
        registry.resolve("throttled:200us").unwrap().as_ref(),
        &bench,
    );
    let wall = started.elapsed();

    assert_eq!(throttled.slope_h.to_bits(), plain.slope_h.to_bits());
    assert_eq!(throttled.slope_v.to_bits(), plain.slope_v.to_bits());
    assert_eq!(throttled.probes, plain.probes);
    assert!(
        wall >= Duration::from_micros(200) * plain.probes as u32,
        "every probe must dwell: {} probes took {wall:?}",
        plain.probes
    );
}

#[test]
fn backends_run_through_the_erased_batch_path() {
    // The point of the redesign: BatchExtractor's &dyn Extractor path
    // accepts runtime-selected sources, bit-identical to compile-time
    // CsdSource sessions.
    let suite: Vec<GeneratedBenchmark> = (3..=5).map(|i| paper_benchmark(i).unwrap()).collect();
    let backend = BackendRegistry::standard().resolve("sim").unwrap();

    let typed = BatchExtractor::new()
        .with_jobs(2)
        .run(&FastExtractor::new(), suite.len(), |i| {
            MeasurementSession::new(CsdSource::new(suite[i].csd.clone()))
        });
    let erased = BatchExtractor::new()
        .with_jobs(2)
        .run(&FastExtractor::new(), suite.len(), |i| {
            backend
                .session(SourceScenario::new(suite[i].csd.clone()))
                .expect("sim opens")
        });
    for (t, e) in typed.iter().zip(&erased) {
        assert_eq!(t.probes, e.probes);
        assert_eq!(t.scatter, e.scatter);
        match (&t.outcome, &e.outcome) {
            (Ok(tr), Ok(er)) => {
                assert_eq!(tr.slope_h.to_bits(), er.slope_h.to_bits());
                assert_eq!(tr.slope_v.to_bits(), er.slope_v.to_bits());
            }
            (t, e) => panic!("outcome mismatch: {t:?} vs {e:?}"),
        }
    }
}
