//! Tier-1 remote-extraction coverage: a `fastvg-serve` daemon is a
//! drop-in `&dyn Extractor` — a [`RemoteExtractor`] and a local
//! [`Pipeline`] run through the *same* erased batch path and report
//! identical extractions — plus the `/healthz` build info and the
//! request-level backend validation the serving satellites added.

use fastvg::prelude::*;
use fastvg::serve::{start, REQUEST_BACKEND_SCHEMES};

fn boot() -> ServiceHandle {
    start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        extract_jobs: 2,
        ..ServeConfig::default()
    })
    .expect("daemon boots")
}

#[test]
fn remote_and_local_extractors_match_through_the_shared_batch_path() {
    let daemon = boot();
    let suite = paper_suite().expect("suite generates");
    let runner = BatchExtractor::new().with_jobs(2);

    // The acceptance path: both extractors are nothing but
    // `&dyn Extractor`s to the batch layer.
    let extractors: [Box<dyn Extractor>; 2] = [
        Box::new(Pipeline::fast().build()),
        Box::new(RemoteExtractor::new(daemon.addr().to_string())),
    ];
    let [local, remote] = extractors.map(|extractor| {
        runner.run(extractor.as_ref(), suite.len(), |i| {
            MeasurementSession::new(CsdSource::new(suite[i].csd.clone()))
        })
    });

    for ((l, r), bench) in local.iter().zip(&remote).zip(&suite) {
        let index = bench.spec.index;
        match (&l.outcome, &r.outcome) {
            (Ok(lr), Ok(rr)) => {
                assert_eq!(rr.method, lr.method, "benchmark {index}");
                assert_eq!(
                    rr.slope_h.to_bits(),
                    lr.slope_h.to_bits(),
                    "benchmark {index}: slope_h"
                );
                assert_eq!(
                    rr.slope_v.to_bits(),
                    lr.slope_v.to_bits(),
                    "benchmark {index}: slope_v"
                );
                assert_eq!(rr.matrix, lr.matrix, "benchmark {index}");
                assert_eq!(rr.probes, lr.probes, "benchmark {index}: probes");
                assert_eq!(rr.unique_pixels, lr.unique_pixels, "benchmark {index}");
                assert_eq!(
                    rr.coverage.to_bits(),
                    lr.coverage.to_bits(),
                    "benchmark {index}: coverage"
                );
            }
            (Err(le), Err(re)) => {
                // The suite's hard benchmarks fail the same way on both
                // sides, and the remote failure keeps the server-side
                // category.
                assert_eq!(
                    re.category(),
                    le.category(),
                    "benchmark {index}: {le} vs {re}"
                );
            }
            (l, r) => panic!("benchmark {index}: outcome mismatch — local {l:?}, remote {r:?}"),
        }
    }

    daemon.shutdown();
    daemon.join();
}

#[test]
fn healthz_reports_build_and_backend_info() {
    let daemon = boot();
    let mut client = Client::connect(&daemon.addr().to_string()).expect("connect");
    let doc = client.get("/healthz").expect("healthz").json().unwrap();

    assert_eq!(
        doc.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION")),
        "healthz must report the crate version"
    );
    assert_eq!(doc.get("backend").and_then(Json::as_str), Some("sim"));
    let schemes: Vec<&str> = doc
        .get("backends")
        .and_then(Json::as_arr)
        .expect("enabled backends listed")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(
        schemes,
        vec!["sim", "throttled", "replay", "record", "hwsim"]
    );
    let request_schemes: Vec<&str> = doc
        .get("request_backends")
        .and_then(Json::as_arr)
        .expect("request-reachable backends listed")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(request_schemes, REQUEST_BACKEND_SCHEMES.to_vec());

    daemon.shutdown();
    daemon.join();
}

#[test]
fn request_backends_are_validated_at_the_door() {
    let daemon = boot();
    let mut client = Client::connect(&daemon.addr().to_string()).expect("connect");

    // A request-selected throttled backend extracts identically to sim
    // (dwell changes wall time, never readings) but caches separately.
    let sim = client
        .post("/extract?wait", br#"{"benchmark": 6}"#)
        .expect("sim request");
    assert_eq!(sim.status, 200);
    let throttled = client
        .post(
            "/extract?wait",
            br#"{"benchmark": 6, "backend": "throttled:100us"}"#,
        )
        .expect("throttled request");
    assert_eq!(throttled.status, 200);
    assert_eq!(
        throttled.header("x-fastvg-cache"),
        Some("miss"),
        "a different backend is a different cache entry"
    );
    let report = |response: &fastvg::serve::ClientResponse| {
        ExtractionReport::from_json(response.json().unwrap().get("report").unwrap()).unwrap()
    };
    let (a, b) = (report(&sim), report(&throttled));
    assert_eq!(a.slope_h.to_bits(), b.slope_h.to_bits());
    assert_eq!(a.probes, b.probes);

    // Dwell spellings normalize into one cache entry.
    let again = client
        .post(
            "/extract?wait",
            br#"{"benchmark": 6, "backend": "throttled:100000ns"}"#,
        )
        .expect("normalized request");
    assert_eq!(again.header("x-fastvg-cache"), Some("hit"));

    // A request-selected hwsim profile is wire-reachable: its dwell is
    // virtual accounting, so the dwell cap passes, and `hwsim:nominal`
    // reads bit-identically to sim while caching separately.
    let hwsim = client
        .post(
            "/extract?wait",
            br#"{"benchmark": 6, "backend": "hwsim:nominal"}"#,
        )
        .expect("hwsim request");
    assert_eq!(hwsim.status, 200);
    assert_eq!(hwsim.header("x-fastvg-cache"), Some("miss"));
    let c = report(&hwsim);
    assert_eq!(a.slope_h.to_bits(), c.slope_h.to_bits());
    assert_eq!(a.probes, c.probes);

    // `+` composition is refused whatever the outer scheme, and so is
    // any scheme outside the allowlist; both name the allowed schemes.
    for rejected in [
        "sim+sim",
        "throttled:100us+sim",
        "throttled:100us+hwsim:nominal",
        "hwsim:nominal+sim",
        "hwsim:nominal+throttled:100us",
        "multiplexed:1",
    ] {
        let body = format!(r#"{{"benchmark": 6, "backend": "{rejected}"}}"#);
        let response = client
            .post("/extract?wait", body.as_bytes())
            .expect("request completes");
        assert_eq!(response.status, 400, "{rejected}");
        let text = String::from_utf8_lossy(&response.body);
        assert!(
            text.contains("allowed: sim, throttled:<dwell>, hwsim:<profile>)"),
            "{rejected}: {text}"
        );
    }

    // Hostile backends bounce with 400 at the door: tape schemes touch
    // the server's filesystem, compositions smuggle them in, huge
    // dwells park workers, unknown schemes (`hardware:`,
    // `multiplexed:`) don't exist, and malformed hwsim specs die in the
    // registry's range checks.
    for hostile in [
        r#"{"benchmark": 6, "backend": "record:/tmp/evil.tape"}"#,
        r#"{"benchmark": 6, "backend": "replay:/etc/passwd"}"#,
        r#"{"benchmark": 6, "backend": "throttled:1ms+record:/tmp/evil.tape"}"#,
        r#"{"benchmark": 6, "backend": "throttled:1ms+hwsim:nominal"}"#,
        r#"{"benchmark": 6, "backend": "throttled:10s"}"#,
        r#"{"benchmark": 6, "backend": "throttled:oops"}"#,
        r#"{"benchmark": 6, "backend": "hardware:qpu0"}"#,
        r#"{"benchmark": 6, "backend": "hwsim:"}"#,
        r#"{"benchmark": 6, "backend": "hwsim:warp"}"#,
        r#"{"benchmark": 6, "backend": "hwsim:nominal,dead=2.0"}"#,
        r#"{"benchmark": 6, "backend": "hwsim:nominal,bits=4"}"#,
        r#"{"benchmark": 6, "backend": "multiplexed:0"}"#,
        r#"{"benchmark": 6, "backend": "multiplexed:1,cap=4,cap=8"}"#,
        r#"{"benchmark": 6, "backend": "multiplexed:1+record:/tmp/evil.tape"}"#,
        r#"{"benchmark": 6, "backend": "multiplexed:1+throttled:10s"}"#,
        r#"{"benchmark": 6, "backend": 3}"#,
    ] {
        let response = client
            .post("/extract?wait", hostile.as_bytes())
            .expect("request completes");
        assert_eq!(response.status, 400, "{hostile}");
    }

    daemon.shutdown();
    daemon.join();
}
