//! [`RemoteExtractor`] — a `fastvg-serve` daemon as a drop-in
//! [`Extractor`].
//!
//! The PR-3 redesign made every extraction method an interchangeable
//! `&dyn Extractor`; this module extends the family across the network:
//! a [`RemoteExtractor`] acquires the session's diagram locally, ships
//! it to a daemon as an inline-grid scenario (`docs/PROTOCOL.md`), and
//! returns the *server's* [`ExtractionReport`] — so local pipelines,
//! replayed tapes and remote daemons all run through the same harness
//! code, `BatchExtractor` fan-out included.
//!
//! The division of labour mirrors a lab deployment: the *instrument* is
//! local (the session being probed), the *compute* is remote. The full
//! window is acquired once (bracketed as [`Stage::Acquire`] for
//! observers) and the daemon extracts on the shipped data, so the
//! report's probe counts, slopes and α coefficients are bit-identical
//! to a local run of the same method on the same diagram — that is what
//! makes the remote path a transparent substitute, and what the tier-1
//! `remote` test pins.
//!
//! Failures map into the [`ExtractError::Remote`] branch of the
//! taxonomy: transport and protocol problems get their own category,
//! while a failure the *server's extraction* reported keeps the
//! category the server assigned (see [`fastvg_core::RemoteError`]).

use crate::client::{Client, ClientConfig, ClientResponse};
use fastvg_core::api::{ExtractionReport, Extractor, SessionView, Stage};
use fastvg_core::baseline::acquire_full_csd;
use fastvg_core::report::Method;
use fastvg_core::{ExtractError, RemoteError, WireFailure};
use fastvg_wire::Json;
use qd_csd::Csd;
use std::time::{Duration, Instant};

/// An [`Extractor`] that delegates the compute to a `fastvg-serve`
/// daemon.
///
/// ```no_run
/// use fastvg_core::api::extract_with;
/// use fastvg_serve::RemoteExtractor;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mut session = qd_instrument::MeasurementSession::new(
/// #     qd_instrument::CsdSource::new(qd_csd::Csd::constant(
/// #         qd_csd::VoltageGrid::new(0.0, 0.0, 1.0, 32, 32)?, 1.0)?));
/// let remote = RemoteExtractor::new("127.0.0.1:8737");
/// let report = extract_with(&remote, &mut session)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RemoteExtractor {
    addr: String,
}

/// End-to-end cap on one remote extraction, connect included.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(120);

impl RemoteExtractor {
    /// A remote fast extraction against the daemon at `addr`
    /// (`"host:port"`).
    pub fn new(addr: impl Into<String>) -> Self {
        Self { addr: addr.into() }
    }

    /// The daemon address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn transport(e: std::io::Error) -> ExtractError {
        ExtractError::Remote(RemoteError::Transport(e))
    }

    fn protocol(message: impl Into<String>) -> ExtractError {
        ExtractError::Remote(RemoteError::Protocol {
            message: message.into(),
        })
    }

    /// Serializes the acquired diagram as the protocol's inline-grid
    /// scenario.
    fn grid_request(&self, csd: &Csd) -> String {
        let grid = csd.grid();
        let (x0, y0) = grid.origin();
        let mut body = Json::object()
            .field("method", Method::FastExtraction.wire_name())
            .field(
                "grid",
                Json::object()
                    .field("x0", Json::num(x0))
                    .field("y0", Json::num(y0))
                    .field("delta", Json::num(grid.delta()))
                    .field("width", grid.width())
                    .field("height", grid.height())
                    .field(
                        "data",
                        csd.data().iter().map(|&v| Json::num(v)).collect::<Vec<_>>(),
                    )
                    .build(),
            )
            .build()
            .dump();
        body.push('\n');
        body
    }

    /// Decodes a finished-result document into the report or the
    /// server's failure.
    fn decode(&self, response: &ClientResponse) -> Result<ExtractionReport, ExtractError> {
        let doc = response
            .json()
            .map_err(|e| Self::protocol(format!("response body is not JSON: {e}")))?;
        match doc.get("ok").and_then(Json::as_bool) {
            Some(true) => {
                let report = doc
                    .get("report")
                    .ok_or_else(|| Self::protocol("ok result carries no \"report\""))?;
                ExtractionReport::from_json(report)
                    .map_err(|e| Self::protocol(format!("malformed report: {e}")))
            }
            Some(false) => {
                let error = doc
                    .get("error")
                    .ok_or_else(|| Self::protocol("failed result carries no \"error\""))?;
                // Out-of-taxonomy categories ("request") mean the
                // *delegation* was rejected, not the extraction.
                match WireFailure::from_json(error) {
                    Ok(failure) => Err(ExtractError::Remote(RemoteError::Failure(failure))),
                    Err(_) => {
                        let message = error
                            .get("message")
                            .and_then(Json::as_str)
                            .unwrap_or("unintelligible error document");
                        Err(Self::protocol(format!(
                            "service rejected the request: {message}"
                        )))
                    }
                }
            }
            None => Err(Self::protocol("response carries no \"ok\" member")),
        }
    }

    /// Polls `GET /jobs/<id>` until the job finishes or the deadline
    /// lapses — the fallback when the `?wait` window elapsed server-side.
    fn poll(
        &self,
        client: &mut Client,
        job: &str,
        deadline: Instant,
    ) -> Result<ExtractionReport, ExtractError> {
        loop {
            if Instant::now() >= deadline {
                return Err(Self::protocol(format!(
                    "job {job} did not finish within {REQUEST_TIMEOUT:?}"
                )));
            }
            std::thread::sleep(Duration::from_millis(50));
            let response = client
                .get(&format!("/jobs/{job}"))
                .map_err(Self::transport)?;
            match response.header("x-fastvg-status") {
                Some("done") | Some("failed") => return self.decode(&response),
                _ if response.status == 200 => continue, // queued/running
                _ => {
                    return Err(Self::protocol(format!(
                        "job poll answered {}",
                        response.status
                    )))
                }
            }
        }
    }
}

impl Extractor for RemoteExtractor {
    fn method(&self) -> Method {
        Method::FastExtraction
    }

    fn extract(&self, session: &mut SessionView<'_>) -> Result<ExtractionReport, ExtractError> {
        let deadline = Instant::now() + REQUEST_TIMEOUT;

        // The local half: acquire the instrument's full window once.
        // Observers see it as an Acquire stage; the *returned* report's
        // stage accounting is the server's.
        session.begin_stage(Stage::Acquire);
        let acquired = acquire_full_csd(session);
        session.end_stage();
        let csd = acquired?;

        let body = self.grid_request(&csd);
        let mut client = ClientConfig::new()
            .read_timeout(REQUEST_TIMEOUT)
            .connect(&self.addr)
            .map_err(Self::transport)?;
        let response = client
            .post("/extract?wait", body.as_bytes())
            .map_err(Self::transport)?;
        match response.status {
            200 => self.decode(&response),
            202 => {
                let job = response
                    .header("x-fastvg-job")
                    .ok_or_else(|| Self::protocol("202 answer carries no job id"))?
                    .to_string();
                self.poll(&mut client, &job, deadline)
            }
            status => {
                let detail = response
                    .json()
                    .ok()
                    .and_then(|doc| {
                        doc.get("error")?
                            .get("message")
                            .and_then(Json::as_str)
                            .map(str::to_string)
                    })
                    .unwrap_or_else(|| "no detail".to_string());
                Err(Self::protocol(format!(
                    "service answered {status}: {detail}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{start, ServeConfig};
    use fastvg_core::api::extract_with;
    use fastvg_core::extraction::FastExtractor;
    use qd_csd::VoltageGrid;
    use qd_instrument::{CsdSource, MeasurementSession};

    fn diagram(size: usize) -> Csd {
        let grid = VoltageGrid::new(0.0, 0.0, 1.0, size, size).unwrap();
        let s = size as f64 / 100.0;
        Csd::from_fn(grid, move |v1, v2| {
            let mut i = 8.0 - 0.002 * (v1 + v2);
            if v2 > -4.0 * (v1 - 62.0 * s) {
                i -= 1.0;
            }
            if v2 > 58.0 * s - 0.3 * v1 {
                i -= 0.8;
            }
            i
        })
        .unwrap()
    }

    #[test]
    fn remote_report_matches_local_extraction() {
        let daemon = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            extract_jobs: 2,
            ..ServeConfig::default()
        })
        .expect("daemon boots");

        let remote = RemoteExtractor::new(daemon.addr().to_string());
        assert_eq!(remote.method(), Method::FastExtraction);
        let mut session = MeasurementSession::new(CsdSource::new(diagram(100)));
        let served = extract_with(&remote, &mut session).expect("remote extraction");

        let mut session = MeasurementSession::new(CsdSource::new(diagram(100)));
        let local = extract_with(&FastExtractor::new(), &mut session).expect("local extraction");

        assert_eq!(served.method, local.method);
        assert_eq!(served.slope_h.to_bits(), local.slope_h.to_bits());
        assert_eq!(served.slope_v.to_bits(), local.slope_v.to_bits());
        assert_eq!(served.matrix, local.matrix);
        assert_eq!(served.probes, local.probes);
        assert_eq!(served.unique_pixels, local.unique_pixels);
        assert_eq!(served.coverage.to_bits(), local.coverage.to_bits());

        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn unreachable_daemons_surface_transport_errors() {
        // A port from the ephemeral range nobody is listening on: bind
        // and drop a listener to find a free one.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let remote = RemoteExtractor::new(format!("127.0.0.1:{port}"));
        let mut session = MeasurementSession::new(CsdSource::new(diagram(32)));
        let err = extract_with(&remote, &mut session).unwrap_err();
        assert_eq!(err.category(), fastvg_core::ErrorCategory::Remote);
        assert!(
            matches!(err, ExtractError::Remote(RemoteError::Transport(_))),
            "{err:?}"
        );
    }

    #[test]
    fn server_side_extraction_failures_keep_their_category() {
        let daemon = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            extract_jobs: 1,
            ..ServeConfig::default()
        })
        .expect("daemon boots");

        // A featureless diagram: extraction fails server-side (no
        // transition lines), and the failure arrives category-intact.
        let flat = Csd::constant(VoltageGrid::new(0.0, 0.0, 1.0, 64, 64).unwrap(), 1.0).unwrap();
        let remote = RemoteExtractor::new(daemon.addr().to_string());
        let mut session = MeasurementSession::new(CsdSource::new(flat));
        let err = extract_with(&remote, &mut session).unwrap_err();
        match &err {
            ExtractError::Remote(RemoteError::Failure(w)) => {
                assert_ne!(
                    w.category,
                    fastvg_core::ErrorCategory::Remote,
                    "server assigns a real pipeline category"
                );
            }
            other => panic!("expected a served failure, got {other:?}"),
        }

        daemon.shutdown();
        daemon.join();
    }
}
