//! Tier-1 observability coverage over a live 2-shard fleet:
//!
//! * a handcrafted `x-fastvg-trace` context sent through the router
//!   must come back out of `/trace/recent` as one **connected**
//!   waterfall — router request span under the client's span, the
//!   proxy attempt under that, the daemon's request under the attempt,
//!   its queue-wait/prepare/extract spans tiling without overlap, and
//!   per-stage spans under extract;
//! * `/metrics` from both the daemon and the router must be
//!   well-formed Prometheus text: every sample preceded by its
//!   family's `# HELP`/`# TYPE` pair, histogram buckets cumulative and
//!   monotone in `le`, and no duplicate series.

use fastvg_router::{start as start_router, RouterConfig, RouterHandle, ShardSpec};
use fastvg_serve::{start, Client, ServeConfig, ServiceHandle};
use fastvg_wire::{Json, TraceContext, TRACE_HEADER};
use std::collections::{BTreeMap, BTreeSet};

fn boot_fleet() -> (RouterHandle, Vec<ServiceHandle>) {
    let daemons: Vec<ServiceHandle> = (0..2)
        .map(|_| {
            start(ServeConfig {
                addr: "127.0.0.1:0".into(),
                ..ServeConfig::default()
            })
            .expect("boot daemon")
        })
        .collect();
    let router = start_router(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shards: daemons
            .iter()
            .map(|d| ShardSpec::new(d.addr().to_string()))
            .collect(),
        ..RouterConfig::default()
    })
    .expect("boot router");
    (router, daemons)
}

fn stop_fleet(router: RouterHandle, daemons: Vec<ServiceHandle>) {
    router.shutdown();
    router.join();
    for daemon in daemons {
        daemon.shutdown();
        daemon.join();
    }
}

fn get(addr: &str, path: &str) -> String {
    let mut client = Client::connect(addr).expect("connect");
    let response = client.get(path).expect("GET succeeds");
    assert_eq!(response.status, 200, "GET {path}");
    String::from_utf8(response.body).expect("utf-8 body")
}

/// One span drained from `/trace/recent`, decoded just far enough for
/// the structural assertions.
#[derive(Debug)]
struct Drained {
    trace: u64,
    span: u64,
    parent: Option<u64>,
    layer: String,
    name: String,
    start_us: u64,
    dur_us: u64,
}

fn drain_recent(addr: &str) -> Vec<Drained> {
    get(addr, "/trace/recent")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let doc = Json::parse(line).expect("span line parses");
            let hex = |key: &str| {
                u64::from_str_radix(doc.get(key).unwrap().as_str().unwrap(), 16).unwrap()
            };
            Drained {
                trace: hex("trace"),
                span: hex("span"),
                parent: match doc.get("parent") {
                    None | Some(Json::Null) => None,
                    Some(p) => Some(u64::from_str_radix(p.as_str().unwrap(), 16).unwrap()),
                },
                layer: doc.get("layer").unwrap().as_str().unwrap().to_string(),
                name: doc.get("name").unwrap().as_str().unwrap().to_string(),
                start_us: doc.get("start_us").unwrap().as_u64().unwrap(),
                dur_us: doc.get("dur_us").unwrap().as_u64().unwrap(),
            }
        })
        .collect()
}

#[test]
fn handcrafted_trace_context_yields_one_connected_waterfall() {
    let (router, daemons) = boot_fleet();
    let addr = router.addr().to_string();

    let ctx = TraceContext {
        trace: 0xabc0_0000_0000_0042,
        span: 0xdef0_0000_0000_0007,
    };
    let mut client = Client::connect(&addr).expect("connect");
    let response = client
        .send_with_headers(
            "POST",
            "/extract?wait",
            br#"{"benchmark": 6, "method": "fast"}"#,
            &[(TRACE_HEADER, &ctx.encode())],
        )
        .expect("traced request");
    assert_eq!(response.status, 200);

    // The request touched the router and exactly one daemon; merge
    // every process's recent buffer and keep our trace.
    let mut spans = drain_recent(&addr);
    for daemon in &daemons {
        spans.extend(drain_recent(&daemon.addr().to_string()));
    }
    spans.retain(|s| s.trace == ctx.trace);
    stop_fleet(router, daemons);

    let by_name = |layer: &str, name: &str| -> Vec<&Drained> {
        spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .collect()
    };

    // Router: request span continues the client's context.
    let router_request = by_name("router", "request");
    assert_eq!(router_request.len(), 1, "one router request span");
    assert_eq!(router_request[0].parent, Some(ctx.span));
    let attempts = by_name("router", "proxy_attempt");
    assert_eq!(attempts.len(), 1, "healthy fleet needs one attempt");
    assert_eq!(attempts[0].parent, Some(router_request[0].span));

    // Daemon: request under the proxy attempt, bookkeeping under the
    // request, stages under extract.
    let daemon_request = by_name("daemon", "request");
    assert_eq!(daemon_request.len(), 1, "one daemon handled it");
    assert_eq!(daemon_request[0].parent, Some(attempts[0].span));
    for name in [
        "read",
        "parse",
        "queue_wait",
        "prepare",
        "extract",
        "respond",
    ] {
        let found = by_name("daemon", name);
        assert_eq!(found.len(), 1, "daemon span {name}");
        assert_eq!(
            found[0].parent,
            Some(daemon_request[0].span),
            "{name} parent"
        );
    }
    // The job's scheduler-side spans tile: queue_wait ends where prepare
    // begins, and prepare ends where extract begins.
    let tiled: Vec<&Drained> = ["queue_wait", "prepare", "extract"]
        .iter()
        .map(|name| by_name("daemon", name)[0])
        .collect();
    for pair in tiled.windows(2) {
        assert_eq!(
            pair[0].start_us + pair[0].dur_us,
            pair[1].start_us,
            "{} must end where {} starts",
            pair[0].name,
            pair[1].name
        );
    }
    let extract = by_name("daemon", "extract")[0].span;
    let stages: Vec<&Drained> = spans.iter().filter(|s| s.parent == Some(extract)).collect();
    assert!(
        stages.len() >= 3,
        "extraction stages under extract, got {}",
        stages.len()
    );

    // Connectivity: the only unresolved parent is the client's span id
    // (the client never exported its own root here).
    let ids: BTreeSet<u64> = spans.iter().map(|s| s.span).collect();
    for span in &spans {
        match span.parent {
            None => panic!("unexpected root {}/{}", span.layer, span.name),
            Some(p) => assert!(
                ids.contains(&p) || p == ctx.span,
                "orphan span {}/{}",
                span.layer,
                span.name
            ),
        }
    }
}

/// Splits a sample line into (series name, label map).
fn parse_sample(line: &str) -> (String, BTreeMap<String, String>) {
    let (name, rest) = match line.find('{') {
        Some(open) => {
            let close = line.rfind('}').expect("closing brace");
            (&line[..open], &line[open + 1..close])
        }
        None => (line.split_whitespace().next().unwrap(), ""),
    };
    let mut labels = BTreeMap::new();
    for pair in rest.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').expect("label pair");
        labels.insert(key.to_string(), value.trim_matches('"').to_string());
    }
    (name.to_string(), labels)
}

/// Asserts `text` is well-formed Prometheus exposition: HELP+TYPE
/// precede each family's first sample, histogram buckets are
/// cumulative/monotone and end at `+Inf`, and no series repeats.
fn assert_wellformed_metrics(text: &str, who: &str) {
    let mut announced: BTreeMap<String, (bool, bool, String)> = BTreeMap::new();
    let mut seen_series: BTreeSet<String> = BTreeSet::new();
    let mut buckets: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    let mut samples = 0usize;

    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let family = rest.split_whitespace().next().unwrap().to_string();
            announced.entry(family).or_default().0 = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut words = rest.split_whitespace();
            let family = words.next().unwrap().to_string();
            let kind = words.next().unwrap().to_string();
            let entry = announced.entry(family).or_default();
            entry.1 = true;
            entry.2 = kind;
            continue;
        }
        assert!(!line.starts_with('#'), "{who}: unknown comment {line:?}");

        samples += 1;
        let (name, labels) = parse_sample(line);
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                (announced.get(base)?.2 == "histogram").then(|| base.to_string())
            })
            .unwrap_or_else(|| name.clone());
        let (help, typed, kind) = announced
            .get(&family)
            .unwrap_or_else(|| panic!("{who}: sample {name} before any HELP/TYPE"));
        assert!(help, "{who}: family {family} sampled without HELP");
        assert!(typed, "{who}: family {family} sampled without TYPE");

        let series = format!("{name}{labels:?}");
        assert!(
            seen_series.insert(series),
            "{who}: duplicate series {name} {labels:?}"
        );

        if kind == "histogram" && name.ends_with("_bucket") {
            let le = labels
                .get("le")
                .unwrap_or_else(|| panic!("{who}: bucket sample without le: {line}"));
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().expect("numeric le")
            };
            let value: f64 = line
                .rsplit(' ')
                .next()
                .unwrap()
                .parse()
                .expect("numeric sample");
            let mut key_labels = labels.clone();
            key_labels.remove("le");
            buckets
                .entry(format!("{family}{key_labels:?}"))
                .or_default()
                .push((le, value));
        }
    }
    assert!(samples > 0, "{who}: no samples at all");

    for (series, mut rows) in buckets {
        assert!(
            rows.last().is_some_and(|(le, _)| le.is_infinite()),
            "{who}: {series} missing +Inf bucket"
        );
        rows.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in rows.windows(2) {
            assert!(
                pair[0].1 <= pair[1].1,
                "{who}: {series} buckets not cumulative: {pair:?}"
            );
        }
    }
}

#[test]
fn live_metrics_are_wellformed_prometheus_text() {
    let (router, daemons) = boot_fleet();
    let addr = router.addr().to_string();

    // Generate some traffic so histograms and the peering counters
    // have samples: one extraction plus a repeat (cache hit).
    let mut client = Client::connect(&addr).expect("connect");
    for _ in 0..2 {
        let response = client
            .post("/extract?wait", br#"{"benchmark": 3, "method": "fast"}"#)
            .expect("request");
        assert_eq!(response.status, 200);
    }

    let router_metrics = get(&addr, "/metrics");
    assert_wellformed_metrics(&router_metrics, "router");
    assert!(
        router_metrics.contains("fastvg_build_info{"),
        "router metrics expose build info"
    );
    assert!(
        router_metrics.contains("fastvg_router_peer_shard_total{"),
        "router metrics expose per-shard peering counters"
    );

    for daemon in &daemons {
        let daemon_metrics = get(&daemon.addr().to_string(), "/metrics");
        assert_wellformed_metrics(&daemon_metrics, "daemon");
        assert!(
            daemon_metrics.contains("fastvg_build_info{"),
            "daemon metrics expose build info"
        );
    }
    stop_fleet(router, daemons);
}
