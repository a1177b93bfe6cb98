//! Correctness checks: the paper's Table 1 on the fixed suite, and every
//! response body against an in-process run of the same request.

use crate::inputs::Job;
use fastvg_core::api::{ExtractionReport, Pipeline};
use fastvg_core::report::{Method, SuccessCriteria};
use fastvg_core::ExtractError;
use fastvg_wire::Json;
use qd_instrument::{SimBackend, SourceBackend, SourceScenario};
use qd_physics::device::PairGroundTruth;

/// Table 1 as the paper reports it.
pub const TABLE1_FAST: usize = 10;
/// Baseline successes in the paper's Table 1.
pub const TABLE1_BASELINE: usize = 9;
/// Mean speedup over mutual successes, to two decimals.
pub const TABLE1_MEAN_SPEEDUP: &str = "9.09";

/// Table 1 as reproduced on the synthetic suite.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Fast-extraction successes out of 12.
    pub fast: usize,
    /// Baseline successes out of 12.
    pub baseline: usize,
    /// Mean speedup over mutual successes.
    pub mean_speedup: f64,
}

impl Table1 {
    /// Runs both methods over the paper suite on `jobs` workers, the
    /// same path the `table1` binary takes.
    ///
    /// # Errors
    ///
    /// Returns the suite generation error.
    pub fn reproduce(jobs: usize) -> Result<Table1, String> {
        let suite = qd_dataset::paper_suite_jobs(jobs).map_err(|e| e.to_string())?;
        let runs = fastvg_bench::run_suite(&suite, &SuccessCriteria::default(), jobs);
        let mut speedups = Vec::new();
        for run in &runs {
            let (f, b) = (&run.fast.report, &run.baseline.report);
            if f.success && b.success {
                speedups.extend(f.speedup_versus(b));
            }
        }
        Ok(Table1 {
            fast: runs.iter().filter(|r| r.fast.report.success).count(),
            baseline: runs.iter().filter(|r| r.baseline.report.success).count(),
            mean_speedup: speedups.iter().sum::<f64>() / speedups.len().max(1) as f64,
        })
    }

    /// `Ok` when the reproduction reads exactly as the paper's Table 1.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn verify(&self) -> Result<(), String> {
        let speedup = format!("{:.2}", self.mean_speedup);
        if self.fast == TABLE1_FAST
            && self.baseline == TABLE1_BASELINE
            && speedup == TABLE1_MEAN_SPEEDUP
        {
            Ok(())
        } else {
            Err(format!(
                "Table 1 reads fast {}/12, baseline {}/12, mean {speedup}x; \
                 expected {TABLE1_FAST}/12, {TABLE1_BASELINE}/12, {TABLE1_MEAN_SPEEDUP}x",
                self.fast, self.baseline
            ))
        }
    }
}

/// What an in-process run of a request produces.
#[derive(Debug)]
pub struct Expected {
    /// The in-process pipeline outcome.
    pub outcome: Result<ExtractionReport, ExtractError>,
    /// Ground truth of the generated device.
    pub truth: PairGroundTruth,
}

/// The pipeline a method runs.
pub fn pipeline(method: Method) -> Pipeline {
    match method {
        Method::HoughBaseline => Pipeline::baseline().build(),
        _ => Pipeline::fast().build(),
    }
}

/// Runs `job` in process: generate, open through `sim`, run the
/// pipeline of its method.
///
/// # Errors
///
/// Returns generation and backend-open failures.
pub fn expected(job: &Job) -> Result<Expected, String> {
    let bench = qd_dataset::generate(&job.spec).map_err(|e| e.to_string())?;
    let scenario = SourceScenario::new(bench.csd).with_seed(job.spec.seed);
    let mut session = SimBackend.session(scenario).map_err(|e| e.to_string())?;
    Ok(Expected {
        outcome: pipeline(job.method).run(&mut session),
        truth: bench.truth,
    })
}

/// What a request's outcome says about the extraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The method that ran.
    pub method: Method,
    /// Extraction returned a report (rather than a classified failure).
    pub extracted: bool,
    /// Extraction returned a report whose α coefficients are within the
    /// Table 1 tolerance of the ground truth.
    pub success: bool,
    /// Dwell-costing probes (0 for a failed extraction).
    pub probes: usize,
    /// Modelled instrument time in nanoseconds (`probes × dwell`).
    pub dwell_ns: u128,
}

impl Expected {
    /// The verdict on this outcome for a request of `method`.
    pub fn verdict(&self, method: Method) -> Verdict {
        match &self.outcome {
            Ok(report) => Verdict {
                method,
                extracted: true,
                success: SuccessCriteria::default().judge(
                    report.alpha12(),
                    report.alpha21(),
                    &self.truth,
                ),
                probes: report.probes,
                dwell_ns: report.simulated_dwell.as_nanos(),
            },
            Err(_) => Verdict {
                method,
                extracted: false,
                success: false,
                probes: 0,
                dwell_ns: 0,
            },
        }
    }
}

fn bits_equal(what: &str, got: f64, want: f64) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: response {got:e} != in-process {want:e}"))
    }
}

/// Checks a `POST /extract` result document against the in-process
/// run: slopes, matrix and probe accounting bitwise for a report, the
/// flattened error for a failure.
///
/// # Errors
///
/// Describes the first mismatch.
pub fn check_body(body: &[u8], method: Method, expected: &Expected) -> Result<Verdict, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = Json::parse(text.trim_end_matches('\n')).map_err(|e| format!("body: {e}"))?;
    match (doc.get("ok").and_then(Json::as_bool), &expected.outcome) {
        (Some(true), Ok(want)) => {
            let report = doc.get("report").ok_or("ok body without a report")?;
            let got = ExtractionReport::from_json(report).map_err(|e| e.to_string())?;
            if got.method != method || want.method != method {
                return Err(format!("method {} != requested {method}", got.method));
            }
            bits_equal("slope_h", got.slope_h, want.slope_h)?;
            bits_equal("slope_v", got.slope_v, want.slope_v)?;
            bits_equal("alpha12", got.alpha12(), want.alpha12())?;
            bits_equal("alpha21", got.alpha21(), want.alpha21())?;
            for (what, g, w) in [
                ("probes", got.probes, want.probes),
                ("unique_pixels", got.unique_pixels, want.unique_pixels),
            ] {
                if g != w {
                    return Err(format!("{what}: response {g} != in-process {w}"));
                }
            }
            if got.simulated_dwell != want.simulated_dwell {
                return Err("simulated_dwell differs from in-process".into());
            }
            Ok(expected.verdict(method))
        }
        (Some(false), Err(want)) => {
            let got = doc.get("error").map(Json::canonical);
            let want = want.to_wire().to_json().canonical();
            if got.as_deref() == Some(want.as_str()) {
                Ok(expected.verdict(method))
            } else {
                Err(format!("error {got:?} != in-process {want}"))
            }
        }
        (ok, want) => Err(format!(
            "response ok={ok:?} but in-process {}",
            if want.is_ok() { "succeeded" } else { "failed" }
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{build, Workload};

    fn ok_body(report: &ExtractionReport) -> Vec<u8> {
        fastvg_serve::queue::result_body(report)
    }

    #[test]
    fn an_honest_body_passes_and_a_tampered_one_fails() {
        let inputs = build(Workload::ColdFast, 1, 12);
        let (job, want, report) = inputs
            .jobs
            .iter()
            .take(12)
            .find_map(|job| {
                let want = expected(job).unwrap();
                let report = want.outcome.as_ref().ok()?.clone();
                Some((job, want, report))
            })
            .expect("some early device extracts");
        let verdict = check_body(&ok_body(&report), job.method, &want).unwrap();
        assert_eq!(verdict.probes, report.probes);

        // One ulp off in a slope, one probe more, or a different
        // outcome: each must fail the check.
        let mut slope = report.clone();
        slope.slope_h = f64::from_bits(slope.slope_h.to_bits() + 1);
        assert!(check_body(&ok_body(&slope), job.method, &want).is_err());
        let mut probes = report.clone();
        probes.probes += 1;
        assert!(check_body(&ok_body(&probes), job.method, &want).is_err());
        let failure = fastvg_serve::queue::request_failure_body("tampered");
        assert!(check_body(&failure, job.method, &want).is_err());
        assert!(check_body(b"not json", job.method, &want).is_err());
        assert!(check_body(&ok_body(&report), Method::HoughBaseline, &want).is_err());
    }

    #[test]
    fn table1_check_rejects_a_wrong_row_count() {
        let good = Table1 {
            fast: 10,
            baseline: 9,
            mean_speedup: 9.0912,
        };
        assert!(good.verify().is_ok());
        assert!(Table1 {
            fast: 9,
            ..good.clone()
        }
        .verify()
        .is_err());
        assert!(Table1 {
            mean_speedup: 9.2,
            ..good
        }
        .verify()
        .is_err());
    }
}
